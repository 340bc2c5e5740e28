"""Spans around calls into cylbuck's public functions, installed from outside.

``install`` replaces module attributes with timing wrappers; nothing inside
``src/cylbuck`` changes.  Calls that take a millisecond or more are spans
(name, start, end, parent, label); sub-millisecond calls (``per_mode_strain``
and the ``scipy.linalg`` factorizations) are folded into a count and a total
per parent span.  Everything stays in memory until ``metrics`` and
``write_spans`` run at the end.  Spans made in pool workers are lost, so
scans are traced serially.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
from array import array
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

SCANS = ("oracle.oracle_sweep", "oracle.korn_mode_scan", "oracle.equivalence_scan")
LINALG = ("oracle.eigh", "oracle.cho_factor")
DENOMINATORS = ("full", "phi_rz", "phi_rz_mid")
CRITERIA = (1, 3, 4, 7, 8, 9)
# cli functions that format a file and hand it to cli.write_text
CLI_WRITERS = ("write_csv", "write_json", "write_vtk", "write_mode_csv")


class Tracer:
    def __init__(self):
        self.spans: List[list] = []  # [name, start, end, parent index or -1, label]
        self.stack: List[int] = []
        self.folded: Dict[Tuple[str, int], List[float]] = {}  # (name, parent) -> [calls, seconds]
        self.errors: Dict[str, int] = defaultdict(int)
        self.pair_keys: Dict[float, array] = {}  # h -> m << 32 | n per per_mode_strain call
        self._last_error: Optional[BaseException] = None

    def _error(self, layer: str, exc: BaseException):
        # count an exception once, in the innermost layer it passes through
        if exc is not self._last_error:
            self._last_error = exc
            self.errors[layer] += 1

    def span(self, name: str, fn: Callable, label: Optional[Callable] = None) -> Callable:
        spans, stack, layer = self.spans, self.stack, name.split(".")[0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, label(*args, **kwargs) if label else None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                self._error(layer, exc)
                raise
            finally:
                rec[2] = perf_counter()
                stack.pop()

        return wrapper

    def fold(self, name: str, fn: Callable, on_call: Optional[Callable] = None) -> Callable:
        folded, stack, layer = self.folded, self.stack, name.split(".")[0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(*args, **kwargs)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                self._error(layer, exc)
                raise
            finally:
                dt = perf_counter() - t0
                key = (name, stack[-1] if stack else -1)
                acc = folded.get(key)
                if acc is None:
                    folded[key] = [1, dt]
                else:
                    acc[0] += 1
                    acc[1] += dt

        return wrapper

    def record_pair(self, problem, wn, *_args, **_kwargs):
        keys = self.pair_keys.get(problem.geom.h)
        if keys is None:
            keys = self.pair_keys[problem.geom.h] = array("q")
        keys.append(wn.m << 32 | wn.n)

    # -- derived numbers ---------------------------------------------------

    def durations(self, name: str, label=None) -> List[float]:
        return [
            s[2] - s[1] for s in self.spans if s[0] == name and (label is None or s[4] == label)
        ]

    def folded_total(self, name: str) -> Tuple[int, float]:
        calls = seconds = 0
        for (n, _), (c, t) in self.folded.items():
            if n == name:
                calls += c
                seconds += t
        return calls, seconds

    def self_times(self) -> Dict[str, dict]:
        """Per span name: calls, total and self seconds (total minus children)."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        for (_, parent), (_, t) in self.folded.items():
            if parent >= 0:
                child[parent] += t
        out: Dict[str, dict] = {}
        for i, s in enumerate(self.spans):
            row = out.setdefault(s[0], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += s[2] - s[1]
            row["self_s"] += s[2] - s[1] - child[i]
        for (name, _), (c, t) in self.folded.items():
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += c
            row["total_s"] += t
            row["self_s"] += t
        return out

    def _scan_self_s(self) -> float:
        in_scan = []
        for s in self.spans:  # a parent always precedes its children
            in_scan.append(s[0] in SCANS or (s[3] >= 0 and in_scan[s[3]]))
        scan = sum(s[2] - s[1] for s in self.spans if s[0] in SCANS)
        assembly = sum(
            s[2] - s[1] for i, s in enumerate(self.spans) if s[0] == "oracle.mode_forms" and in_scan[i]
        )
        linalg = sum(
            t for (name, parent), (_, t) in self.folded.items()
            if name in LINALG and parent >= 0 and in_scan[parent]
        )
        return scan - assembly - linalg

    def metrics(self) -> Dict[str, dict]:
        """Every per-layer metric the traced run reports: value and sample count."""
        import numpy as np

        out: Dict[str, dict] = {}

        def put(name, value, n):
            out[name] = {"value": value, "n": n}

        def total(name, key, label=None):
            d = self.durations(name, label)
            put(key, sum(d), len(d))

        calls, seconds = self.folded_total("critical_load.per_mode_strain")
        distinct = sum(len(np.unique(np.frombuffer(k, dtype=np.int64))) for k in self.pair_keys.values())
        total("critical_load.sweep", "critical_load.sweep_s")
        put("critical_load.pairs_evaluated", calls, calls)
        put("critical_load.us_per_pair", 1e6 * seconds / calls if calls else 0.0, calls)
        put("critical_load.distinct_pair_ratio", distinct / calls if calls else 0.0, calls)
        total("critical_load.koiter_circle", "critical_load.koiter_circle_s")
        put("critical_load.errors", self.errors["critical_load"], 1)

        forms = sorted(self.durations("oracle.mode_forms"))
        put("oracle.mode_forms_calls", len(forms), len(forms))
        put("oracle.mode_forms_s", sum(forms), len(forms))
        put("oracle.mode_forms_ms_p50", 1e3 * statistics.median(forms) if forms else 0.0, len(forms))
        p99 = statistics.quantiles(forms, n=100)[98] if len(forms) > 1 else sum(forms)
        put("oracle.mode_forms_ms_p99", 1e3 * p99, len(forms))
        for den in DENOMINATORS:
            total("oracle.min_rayleigh", f"oracle.min_rayleigh_s.{den}", den)
        total("oracle.assemble_pencil", "oracle.assemble_pencil_s")
        eigh_calls, eigh_s = self.folded_total("oracle.eigh")
        cho_calls, cho_s = self.folded_total("oracle.cho_factor")
        put("oracle.eigh_calls", eigh_calls, eigh_calls)
        put("oracle.cho_factor_calls", cho_calls, cho_calls)
        put("oracle.linalg_s", eigh_s + cho_s, eigh_calls + cho_calls)
        for den in DENOMINATORS:
            total("oracle.oracle_sweep", f"oracle.oracle_sweep_s.{den}", den)
        total("oracle.korn_mode_scan", "oracle.korn_mode_scan_s")
        total("oracle.equivalence_scan", "oracle.equivalence_scan_s")
        put("oracle.scan_self_s", self._scan_self_s(), sum(len(self.durations(s)) for s in SCANS))
        total("oracle.ansatz_ratios", "oracle.ansatz_ratios_s")
        ansatz = len(self.durations("oracle.ansatz_ratios"))
        put("oracle.ansatz_calls", ansatz, ansatz)
        put("oracle.errors", self.errors["oracle"], 1)

        total("modes.synthesize", "modes.synthesize_s")
        total("modes.quotient_ratio", "modes.quotient_ratio_s")
        energy = self.durations("spectral.mode_energy")
        put("spectral.mode_energy_calls", len(energy), len(energy))
        put("spectral.mode_energy_s", sum(energy), len(energy))

        for k in CRITERIA:
            total(f"acceptance.criterion_{k}", f"acceptance.criterion_s.{k}")

        writers = {f"cli.{w}" for w in CLI_WRITERS} | {"cli.write_text"}
        outer = [
            s[2] - s[1] for s in self.spans
            if s[0] in writers and (s[3] < 0 or self.spans[s[3]][0] not in writers)
        ]
        put("cli.write_s", sum(outer), len(outer))
        written = [s[4] for s in self.spans if s[0] == "cli.write_text"]
        put("cli.bytes_written", sum(written), len(written))
        return out

    def write_spans(self, path: str):
        folded = [[name, parent, c, t] for (name, parent), (c, t) in self.folded.items()]
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "folded": folded}, fh)


def _rebind(original, wrapper, modules):
    for mod in modules:
        for key, val in list(vars(mod).items()):
            if val is original:
                setattr(mod, key, wrapper)


def install(tracer: Tracer):
    """Wrap the public functions of every layer, wherever cylbuck bound them."""
    import scipy.linalg

    from cylbuck import acceptance, cli, critical_load, modes, oracle, spectral

    cylbuck_modules = [m for k, m in sys.modules.items() if k == "cylbuck" or k.startswith("cylbuck.")]

    def wrap(module, attr, kind, name, **kw):
        original = getattr(module, attr)
        wrapper = getattr(tracer, kind)(name, original, **kw)
        _rebind(original, wrapper, cylbuck_modules + [module])
        return wrapper

    def denominator(*args, **kwargs):
        return args[4] if len(args) > 4 else kwargs.get("denominator", "phi_rz")

    wrap(critical_load, "sweep", "span", "critical_load.sweep")
    wrap(critical_load, "per_mode_strain", "fold", "critical_load.per_mode_strain",
         on_call=tracer.record_pair)
    wrap(critical_load, "koiter_circle", "span", "critical_load.koiter_circle")

    wrap(oracle, "mode_forms", "span", "oracle.mode_forms")
    wrap(oracle, "assemble_pencil", "span", "oracle.assemble_pencil")
    wrap(oracle, "min_rayleigh", "span", "oracle.min_rayleigh",
         label=lambda pencil, *a, **k: pencil.denominator)
    wrap(oracle, "oracle_sweep", "span", "oracle.oracle_sweep", label=denominator)
    wrap(oracle, "korn_mode_scan", "span", "oracle.korn_mode_scan")
    wrap(oracle, "equivalence_scan", "span", "oracle.equivalence_scan")
    wrap(oracle, "ansatz_ratios", "span", "oracle.ansatz_ratios")
    wrap(scipy.linalg, "eigh", "fold", "oracle.eigh")
    wrap(scipy.linalg, "cho_factor", "fold", "oracle.cho_factor")

    wrap(modes, "synthesize", "span", "modes.synthesize")
    wrap(modes, "quotient_ratio", "span", "modes.quotient_ratio")
    wrap(spectral, "mode_energy", "span", "spectral.mode_energy")

    for k, fn in list(acceptance.CRITERIA.items()):
        acceptance.CRITERIA[k] = wrap(acceptance, fn.__name__, "span", f"acceptance.criterion_{k}")

    wrap(cli, "main", "span", "cli.main", label=lambda argv=None, *a, **k: argv[0] if argv else None)
    for writer in CLI_WRITERS:
        wrap(cli, writer, "span", f"cli.{writer}")
    wrap(cli, "write_text", "span", "cli.write_text",
         label=lambda path, text, *a, **k: len(text.encode("utf-8")))
