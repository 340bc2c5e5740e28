"""One repetition of one workload, in a fresh interpreter.

    python3 perfbench/rep.py --workload NAME --seed N --outdir DIR --jobs J
                             [--spans FILE] [--smoke]

The checkout's ``src`` must come first on PYTHONPATH.  The repetition times
each operation of the workload body (wall and CPU time) and the reference
task of ``calibrate.py`` between operations, then checks the outputs and
prints one JSON object as its last line.  With ``--spans`` it
installs the tracing wrappers after the import, writes the spans to FILE and
adds the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys

import calibrate
import workloads


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--outdir", required=True)
    parser.add_argument("--jobs", type=int, required=True)
    parser.add_argument("--spans", default=None)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    inp = workloads.make_inputs(args.seed, args.smoke)
    if inp.koiter_seed is not None:
        os.environ["KOITER_SEED"] = str(inp.koiter_seed)

    import cylbuck

    src = os.path.join(os.getcwd(), "src", "cylbuck")
    if os.path.dirname(os.path.abspath(cylbuck.__file__)) != src:
        print(f"cylbuck imported from {cylbuck.__file__}, not from {src}", file=sys.stderr)
        return 3

    tracer = None
    if args.spans:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    ops = workloads.Ops(reference=calibrate.reference_task)
    items, items_s, state = workloads.BODIES[args.workload](inp, args.outdir, ops, args.jobs)
    own = resource.getrusage(resource.RUSAGE_SELF)
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)  # pool workers, once joined
    ops.sample_reference()

    workloads.CHECKS[args.workload](inp, args.outdir, ops, state, workloads.load_reference())

    import numpy
    import scipy

    result = {
        "wall_s": sum(ops.seconds.values()),
        "cpu_s": sum(ops.cpu.values()),
        "reference_s": ops.reference_s,
        "peak_rss_mb": max(own.ru_maxrss, reaped.ru_maxrss) / 1024.0,  # Linux reports KiB
        "items": items,
        "items_s": items_s,
        "nu": inp.nu,
        "koiter_seed": inp.koiter_seed,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": _blas_name(numpy),
        },
        **ops.summary(),
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["self_times"] = tracer.self_times()
        tracer.write_spans(args.spans)
    print(json.dumps(result))
    return 0


def _blas_name(numpy) -> str:
    try:
        return numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError, ValueError):
        return "unknown"


if __name__ == "__main__":
    sys.exit(main())
