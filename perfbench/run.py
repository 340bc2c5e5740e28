"""cylbuck benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run it from the root of a checkout; it imports the package from ``src``.
Every repetition runs in a fresh interpreter (``rep.py``), with the BLAS
pinned to one thread and the CLI outputs in a temporary directory under
``.perfbench_runs``.  The last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it are a human-readable report.

With ``--trace 0`` the run first times ``import cylbuck`` in fresh
interpreters (``setup_s``), then repeats the workload until ``--seconds``
have passed (at least twice) and reports the end-to-end medians.  Times
are reported in units of the reference task of ``calibrate.py`` (its median
over the run), which absorbs the drift of a shared machine's speed; the raw
seconds are printed above them.
With ``--trace 1`` it runs the workload once untraced and once traced and
reports the per-layer metrics.  Metric names and units come from
``BENCHMARK.json``.  ``--smoke`` shrinks every workload to one h = 0.1
window, for the self-test.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))

MIN_REPS = 2
SETUP_PROBES = 5
BUDGET_S = 170.0  # a run must end within 180 s
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PROBE = "import time; t = time.perf_counter(); import cylbuck; print(time.perf_counter() - t)"
# per-call figures of the ROADMAP re-anchor table, printed next to the traced ones
ROADMAP = {
    "mode_forms": "5.8 ms/mode",
    "eigh": "0.15 ms/eigensolve",
    "per_mode_strain": "~9 us/pair",
}


class Runner:
    """Starts children in the checkout and keeps the run inside its time budget."""

    def __init__(self, root: str, smoke: bool):
        self.root = root
        self.smoke = smoke
        self.scratch = os.path.join(root, ".perfbench_runs")
        os.makedirs(os.path.join(self.scratch, "tmp"), exist_ok=True)
        self.deadline = time.monotonic() + BUDGET_S
        env = dict(os.environ)
        env.update({var: "1" for var in THREAD_VARS})
        env["PYTHONPATH"] = os.path.join(root, "src")
        env["TMPDIR"] = os.path.join(self.scratch, "tmp")
        env.pop("KOITER_SEED", None)  # the workload sets it from --seed
        self.env = env

    def remaining(self) -> float:
        return self.deadline - time.monotonic()

    def child(self, argv):
        """Run one child in its own session; kill the whole group on timeout."""
        proc = subprocess.Popen(
            argv, cwd=self.root, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, start_new_session=True,
        )
        try:
            out, err = proc.communicate(timeout=max(1.0, self.remaining()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            out, err = proc.communicate()
            return None, "timed out"
        if proc.returncode != 0:
            return None, f"exit code {proc.returncode}: {err.strip()[-2000:]}"
        return out, err

    def probe_import(self):
        out, err = self.child([sys.executable, "-c", PROBE])
        return float(out.strip().splitlines()[-1]) if out is not None else None

    def rep(self, workload: str, seed: int, jobs: int, spans: str = None):
        outdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=self.scratch)
        argv = [sys.executable, os.path.join(HERE, "rep.py"), "--workload", workload,
                "--seed", str(seed), "--outdir", outdir, "--jobs", str(jobs)]
        if spans:
            argv += ["--spans", spans]
        if self.smoke:
            argv.append("--smoke")
        t0 = time.monotonic()
        try:
            out, err = self.child(argv)
        finally:
            shutil.rmtree(outdir, ignore_errors=True)
        if out is None:
            print(f"repetition failed: {err}", file=sys.stderr)
            return None, time.monotonic() - t0
        result = json.loads(out.strip().splitlines()[-1])
        for op, why in result["failures"].items():
            print(f"operation {op} failed: {' | '.join(why)}", file=sys.stderr)
        return result, time.monotonic() - t0


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def pool_jobs() -> int:
    return min(2, nproc())


def revision(root: str) -> str:
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
        if rev.returncode == 0:
            return rev.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    src = os.path.join(root, "src", "cylbuck")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + fh.read())
    return f"not a git checkout; sha256 of src/cylbuck/*.py {digest.hexdigest()[:16]}"


def load_spec(root: str) -> dict:
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        return json.load(fh)


def show(value) -> str:
    return str(value) if isinstance(value, int) else f"{value:.6g}"


def describe(values):
    if not values:
        return "no samples"
    return f"median of n={len(values)}, range {min(values):.6g}..{max(values):.6g}"


def print_provenance(root: str, first_rep, args):
    versions = first_rep["versions"] if first_rep else {}
    print(f"workload {args.workload}, seed {args.seed}: nu={first_rep['nu'] if first_rep else '?'}, "
          f"KOITER_SEED={(first_rep or {}).get('koiter_seed') or 'package default'}")
    print(f"nproc {nproc()}, python {versions.get('python')}, numpy {versions.get('numpy')}, "
          f"scipy {versions.get('scipy')}, BLAS {versions.get('blas')}")
    print("threads " + ", ".join(f"{v}=1" for v in THREAD_VARS) + f"; pool jobs {pool_jobs()}")
    print(f"revision {revision(root)}")


def end_to_end(runner: Runner, args, spec: dict):
    setup = [runner.probe_import() for _ in range(SETUP_PROBES)]
    setup = [s for s in setup if s is not None]
    reps, durations, attempted, failed = [], [], 0, 0
    jobs = pool_jobs() if args.workload == "korn_pool" else 1
    start = time.monotonic()
    while len(durations) < MIN_REPS or time.monotonic() - start < args.seconds:
        if durations and runner.remaining() < 1.5 * max(durations):
            break
        result, took = runner.rep(args.workload, args.seed, jobs)
        durations.append(took)
        if result is None:
            attempted += 1
            failed += 1
            continue
        reps.append(result)
        attempted += result["attempted"]
        failed += result["failed"]
    failed += SETUP_PROBES - len(setup)
    attempted += SETUP_PROBES

    seconds = {
        "wall_s": [r["wall_s"] for r in reps],
        "cpu_s": [r["cpu_s"] for r in reps],
        "window_pairs_per_s": [r["items"] / r["items_s"] for r in reps],
        "reference_s": [t for r in reps for t in r["reference_s"]],
    }
    print_provenance(runner.root, reps[0] if reps else None, args)
    metrics = {}
    if not reps:
        return metrics, attempted, failed
    print(f"window pairs per repetition: {reps[0]['items']}")
    for name, values in seconds.items():
        print(f"{name} = {statistics.median(values):.6g} ({describe(values)}), not gated")
    ref = statistics.median(seconds["reference_s"])
    samples = {
        "setup_s": setup,
        "wall_ref": [t / ref for t in seconds["wall_s"]],
        "cpu_ref": [t / ref for t in seconds["cpu_s"]],
        "window_pairs_per_ref": [rate * ref for rate in seconds["window_pairs_per_s"]],
        "peak_rss_mb": [r["peak_rss_mb"] for r in reps],
    }
    for m in spec["end_to_end"]:
        values = samples[m["name"]]
        if not values:
            continue
        value = statistics.median(values)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']} = {value:.6g} {m['unit']} ({describe(values)})")
    return metrics, attempted, failed


def traced(runner: Runner, args, spec: dict):
    pooled = args.workload == "korn_pool"
    spans = os.path.join(runner.scratch, f"spans-{args.workload}-seed{args.seed}.json")
    runs = {}
    plan = [("untraced", 1, None), ("traced", 1, spans)]
    if pooled:
        plan.insert(0, ("pooled", pool_jobs(), None))
    attempted = failed = 0
    for key, jobs, path in plan:
        result, _ = runner.rep(args.workload, args.seed, jobs, path)
        runs[key] = result
        attempted += result["attempted"] if result else 1
        failed += result["failed"] if result else 1

    print_provenance(runner.root, runs["untraced"], args)
    metrics = {}
    tr, un = runs["traced"], runs["untraced"]
    if tr is None or un is None:
        return metrics, attempted, failed
    layers = dict(tr["layers"])
    scan_s = layers["oracle.korn_mode_scan_s"]["value"] + layers["oracle.equivalence_scan_s"]["value"]
    pool = runs.get("pooled")
    speedup = scan_s / pool["items_s"] if pool else 0.0
    overhead = tr["wall_s"] - un["wall_s"]
    layers["oracle.pool_speedup"] = {"value": speedup, "n": 1 if pool else 0}
    layers["trace.overhead_s"] = {"value": overhead, "n": 1}

    print(f"wall_s untraced {un['wall_s']:.4f} s, traced {tr['wall_s']:.4f} s: "
          f"tracing overhead {overhead:.4f} s (jobs 1 both)")
    if pool:
        print(f"pooled scans (jobs {pool_jobs()}): {pool['items_s']:.4f} s for {pool['items']} "
              f"modes; traced serial scans {scan_s:.4f} s")
    for m in spec["per_layer"]:
        entry = layers[m["name"]]
        metrics[m["name"]] = {"value": entry["value"], "unit": m["unit"]}
        print(f"{m['name']} = {show(entry['value'])} {m['unit']} (n={entry['n']})")

    self_times = tr["self_times"]
    print("span                                  calls      total_s       self_s")
    for name, row in sorted(self_times.items(), key=lambda kv: -kv[1]["total_s"]):
        print(f"{name:36s} {row['calls']:7d} {row['total_s']:12.6f} {row['self_s']:12.6f}")
    for name, short in (("oracle.mode_forms", "mode_forms"), ("oracle.eigh", "eigh"),
                        ("critical_load.per_mode_strain", "per_mode_strain")):
        row = self_times.get(name)
        if row and row["calls"]:
            per = row["total_s"] / row["calls"]
            shown = f"{1e3 * per:.4f} ms" if per >= 1e-4 else f"{1e6 * per:.3f} us"
            print(f"per call {short}: {shown} over {row['calls']} calls (ROADMAP: {ROADMAP[short]})")
    mr = self_times.get("oracle.min_rayleigh")
    if mr and mr["calls"]:
        print(f"per call min_rayleigh: {1e3 * mr['total_s'] / mr['calls']:.4f} ms "
              f"over {mr['calls']} calls (ROADMAP, eigh alone: {ROADMAP['eigh']})")
    print(f"spans written to {os.path.relpath(spans, runner.root)}")
    return metrics, attempted, failed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="one h = 0.1 window per workload")
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "cylbuck", "__init__.py")):
        print("src/cylbuck not found: run from the root of a cylbuck checkout", file=sys.stderr)
        return 2
    spec = load_spec(root)
    runner = Runner(root, args.smoke)
    if args.trace:
        metrics, attempted, failed = traced(runner, args, spec)
    else:
        metrics, attempted, failed = end_to_end(runner, args, spec)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    correct = failed == 0 and len(metrics) == len(wanted)
    print(f"operations: {attempted} attempted, {failed} failed, "
          f"fail_ratio {failed / max(attempted, 1):.6g}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
