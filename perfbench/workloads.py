"""Workload inputs, bodies and output checks.

Every workload uses L = pi.  Seed 0 uses nu = 0.3 and the package's default
KOITER_SEED, so its outputs are compared with the values stored in
``reference.json``.  Any other seed draws nu from [0.25, 0.35] and a
KOITER_SEED, and its outputs are checked with invariants that need no stored
value.  ``smoke`` swaps every size for one h = 0.1 window, for the self-test.

An operation is one CLI command or one public call.  It fails if it raises,
exits non-zero, or produces output outside tolerance.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import resource
import time
import traceback
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

L = math.pi
NU_RANGE = (0.25, 0.35)
HERE = os.path.dirname(os.path.abspath(__file__))

FULL_SIZES = {
    "sweep_h": "1e-3,3e-4,1e-4,3e-5",
    "koiter_h": "1e-4",
    "mode_h": "0.01",
    "criteria": "1,3,4,7,8,9",
    "oracle_h": 0.02,
    "korn_h": "0.1,0.05,0.02",
    "equivalence_h": "0.05,0.02",
    "ansatz_h": "1e-4,3e-5,1e-5",
}
SMOKE_SIZES = {
    "sweep_h": "0.1",
    "koiter_h": "0.1",
    "mode_h": "0.1",
    "criteria": "4,7",
    "oracle_h": 0.1,
    "korn_h": "0.1",
    "equivalence_h": "0.1",
    "ansatz_h": "1e-4",
}

# Criterion-5 and criterion-6 bands (cylbuck.acceptance), applied to the
# slopes that the korn, ansatz and equivalence commands fit.
KORN_TARGETS = {"korn": 1.5, "theta_z": -0.5, "r_z": -1.0}
SCAN_BAND = 0.15
ANSATZ_BAND = 0.2
EQUIVALENCE_MIN_SLOPE = 0.3


@dataclass(frozen=True)
class Inputs:
    seed: int
    nu: float
    koiter_seed: Optional[int]
    smoke: bool

    @property
    def sizes(self) -> dict:
        return SMOKE_SIZES if self.smoke else FULL_SIZES

    @property
    def has_reference(self) -> bool:
        return self.seed == 0 and not self.smoke


def make_inputs(seed: int, smoke: bool = False) -> Inputs:
    if seed == 0:
        return Inputs(seed, 0.3, None, smoke)
    rng = random.Random(seed)
    return Inputs(seed, rng.uniform(*NU_RANGE), rng.randrange(1, 2**31), smoke)


def h_list(text: str) -> List[float]:
    return [float(tok) for tok in text.split(",")]


def cpu_seconds() -> float:
    """User plus sys seconds of this process and of its reaped pool workers."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + reaped.ru_utime + reaped.ru_stime


class Ops:
    """Outcome, wall time and CPU time of every operation of one repetition.

    ``reference`` (the task of ``calibrate.py``) runs untimed before every
    operation; call ``sample_reference`` once more after the last one.
    """

    def __init__(self, reference: Optional[Callable[[], float]] = None):
        self.ok: Dict[str, bool] = {}
        self.why: Dict[str, List[str]] = {}
        self.seconds: Dict[str, float] = {}
        self.cpu: Dict[str, float] = {}
        self.stdout: Dict[str, str] = {}
        self.reference = reference
        self.reference_s: List[float] = []

    def sample_reference(self):
        if self.reference is not None:
            self.reference_s.append(self.reference())

    def _start(self, name: str):
        self.sample_reference()
        self.ok[name] = True
        self.why[name] = []
        self.cpu[name] = cpu_seconds()
        return time.perf_counter()

    def _stop(self, name: str, t0: float):
        self.seconds[name] = time.perf_counter() - t0
        self.cpu[name] = cpu_seconds() - self.cpu[name]

    def fail(self, name: str, why: str):
        self.ok[name] = False
        self.why[name].append(why)

    def check(self, name: str, cond: bool, why: str):
        if not cond:
            self.fail(name, why)

    def cli(self, name: str, argv: List[str]) -> int:
        """Run one ``cylbuck`` command in-process; stdout is captured."""
        from cylbuck import cli

        out = io.StringIO()
        t0 = self._start(name)
        try:
            with contextlib.redirect_stdout(out):
                code = cli.main(argv)
        except Exception:
            code = None
            self.fail(name, traceback.format_exc(limit=3))
        self._stop(name, t0)
        if code not in (0, None):
            self.fail(name, f"exit code {code}")
        self.stdout[name] = out.getvalue()
        return code

    def call(self, name: str, fn: Callable, *args, **kwargs):
        t0 = self._start(name)
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.fail(name, traceback.format_exc(limit=3))
            return None
        finally:
            self._stop(name, t0)

    def summary(self) -> dict:
        return {
            "attempted": len(self.ok),
            "failed": sum(not ok for ok in self.ok.values()),
            "failures": {k: self.why[k] for k, ok in self.ok.items() if not ok},
        }


def _problem(h: float, nu: float):
    from cylbuck.critical_load import CriticalLoadProblem
    from cylbuck.material import IsotropicElasticity
    from cylbuck.spectral import ShellGeometry

    return CriticalLoadProblem(geom=ShellGeometry(h=h, L=L), elastic=IsotropicElasticity(nu=nu))


def window_size(h: float, nu: float) -> int:
    m_max, n_max = _problem(h, nu).window()
    return m_max * (n_max + 1)


def _common(inp: Inputs, outdir: str, jobs: int) -> List[str]:
    return ["--nu", repr(inp.nu), "--L", repr(L), "--outdir", outdir, "--jobs", str(jobs)]


# ---------------------------------------------------------------------------
# bodies: each returns (window pairs scanned, seconds of the scan calls, state)
# ---------------------------------------------------------------------------

def body_closed_form(inp: Inputs, outdir: str, ops: Ops, jobs: int):
    s = inp.sizes
    common = _common(inp, outdir, 1)  # nothing here uses the pool
    ops.cli("sweep", ["sweep", "--h-list", s["sweep_h"]] + common)
    ops.cli("koiter", ["koiter", "--h", s["koiter_h"]] + common)
    ops.cli("mode", ["mode", "--h", s["mode_h"]] + common)
    ops.cli("verify", ["verify", "--criteria", s["criteria"]] + common)
    pairs = sum(window_size(h, inp.nu) for h in h_list(s["sweep_h"]))
    return pairs, ops.seconds["sweep"], None


def body_oracle_window(inp: Inputs, outdir: str, ops: Ops, jobs: int):
    from cylbuck import oracle

    p = _problem(inp.sizes["oracle_h"], inp.nu)
    disc = oracle.RadialDiscretization()
    window = p.window()
    minima = {}
    for den in oracle.DENOMINATORS:
        minima[den] = ops.call(
            f"oracle_sweep.{den}", oracle.oracle_sweep, p.geom, p.elastic, disc, window, den, jobs=1
        )
    modes = len(oracle.DENOMINATORS) * window_size(p.geom.h, inp.nu)
    seconds = sum(ops.seconds[f"oracle_sweep.{den}"] for den in oracle.DENOMINATORS)
    return modes, seconds, {"window": window, "minima": minima}


def body_korn_pool(inp: Inputs, outdir: str, ops: Ops, jobs: int):
    s = inp.sizes
    ops.cli("korn", ["korn", "--h-list", s["korn_h"]] + _common(inp, outdir, jobs))
    ops.cli("equivalence", ["equivalence", "--h-list", s["equivalence_h"]] + _common(inp, outdir, jobs))
    ops.cli("ansatz", ["ansatz", "--h-list", s["ansatz_h"]] + _common(inp, outdir, jobs))
    hs = h_list(s["korn_h"]) + h_list(s["equivalence_h"])
    modes = sum(window_size(h, inp.nu) for h in hs)
    return modes, ops.seconds["korn"] + ops.seconds["equivalence"], None


BODIES = {
    "closed_form": body_closed_form,
    "oracle_window": body_oracle_window,
    "korn_pool": body_korn_pool,
}
NAMES = tuple(BODIES)


# ---------------------------------------------------------------------------
# checks, run after the timed body
# ---------------------------------------------------------------------------

def load_reference() -> dict:
    with open(os.path.join(HERE, "reference.json")) as fh:
        return json.load(fh)


def _read_json(outdir: str, name: str):
    with open(os.path.join(outdir, name)) as fh:
        return json.load(fh)


def _close(got: float, want: float, rtol: float) -> bool:
    return abs(got - want) <= rtol * abs(want)


def _compare(ops: Ops, op: str, got: dict, want: dict, rtol: Dict[str, float], label: str):
    """Integers and strings must match exactly; floats within the rtol of their key."""
    for key, w in want.items():
        g = got.get(key)
        if isinstance(w, (int, str)):
            ops.check(op, g == w, f"{label} {key}: {g!r} != {w!r}")
        else:
            ops.check(
                op,
                isinstance(g, (int, float)) and _close(g, w, rtol[key]),
                f"{label} {key}: {g!r} differs from {w!r} by more than rtol {rtol[key]}",
            )


def _compare_rows(ops: Ops, op: str, rows: List[dict], wants: List[dict], rtol: Dict[str, float]):
    ops.check(op, len(rows) == len(wants), f"{len(rows)} rows, reference has {len(wants)}")
    for i, (row, want) in enumerate(zip(rows, wants)):
        _compare(ops, op, row, want, rtol, f"row {i}")


def _guard(ops: Ops, op: str, fn: Callable):
    """Run one check; an unreadable or malformed output fails the operation."""
    if not ops.ok.get(op, False):
        return
    try:
        fn()
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        ops.fail(op, f"output unreadable: {type(exc).__name__}: {exc}")


def check_closed_form(inp: Inputs, outdir: str, ops: Ops, state, ref: dict):
    s = inp.sizes
    rtol = ref["rtol"]
    want = ref["closed_form"] if inp.has_reference else None

    def sweep():
        records = _read_json(outdir, "sweep.json")
        hs = h_list(s["sweep_h"])
        ops.check("sweep", [r["h"] for r in records] == hs, "sweep.json h column")
        for rec in records:
            m_max, n_max = _problem(rec["h"], inp.nu).window()
            ops.check(
                "sweep",
                1 <= rec["m"] < m_max and 0 <= rec["n"] < n_max,
                f"winner (m={rec['m']}, n={rec['n']}) not inside window ({m_max}, {n_max})",
            )
        if want:
            _compare_rows(ops, "sweep", records, want["sweep"], rtol["sweep"])

    def koiter():
        data = _read_json(outdir, "koiter.json")
        ops.check("koiter", len(data["modes"]) >= 1, "no Koiter pairs")
        ops.check(
            "koiter",
            all(r["circle_residual"] <= data["tolerance"] + 1e-12 for r in data["modes"]),
            "a Koiter pair lies outside the tolerance",
        )
        if want:
            _compare(ops, "koiter", {"pairs": len(data["modes"]), "radius": data["radius"]},
                     want["koiter"], rtol["koiter"], "koiter")

    def mode():
        meta = _read_json(outdir, "mode.json")
        with open(os.path.join(outdir, "mode.vtk")) as fh:
            lines = sum(1 for _ in fh)
        points = math.prod(meta["grid"])
        ops.check("mode", lines == 7 + points + 3 * (2 + points),
                  f"mode.vtk has {lines} lines for {points} points")
        if want:
            got = dict(meta, nr=meta["grid"][0], ntheta=meta["grid"][1], nz=meta["grid"][2])
            _compare(ops, "mode", got, want["mode"], rtol["mode"], "mode")

    def verify():
        lines = ops.stdout.get("verify", "").splitlines()
        count = len(h_list(s["criteria"]))
        ops.check("verify", lines[-1:] == [f"{count}/{count} criteria passed"],
                  f"verify summary: {lines[-1:]}")
        if want:  # criteria 4 and 7 print round-off-level numbers: PASS suffices
            for line in want["verify"]:
                ops.check("verify", line in lines, f"verify line missing: {line}")

    for op, fn in (("sweep", sweep), ("koiter", koiter), ("mode", mode), ("verify", verify)):
        _guard(ops, op, fn)


def check_oracle_window(inp: Inputs, outdir: str, ops: Ops, state, ref: dict):
    from cylbuck.oracle import DENOMINATORS

    m_max, n_max = state["window"]
    minima = state["minima"]
    want = ref["oracle_window"] if inp.has_reference else None
    for den in DENOMINATORS:
        op = f"oracle_sweep.{den}"

        def one(om=minima[den], den=den, op=op):
            ops.check(op, om.value > 0.0, f"{den} minimum {om.value} is not positive")
            ops.check(op, om.wn.m < m_max and om.wn.n < n_max,
                      f"{den} winner (m={om.wn.m}, n={om.wn.n}) on the window edge")
            if want:
                ops.check(op, list(state["window"]) == want["window"], f"window {state['window']}")
                got = {"m": om.wn.m, "n": om.wn.n, "value": om.value}
                _compare(ops, op, got, want[den], ref["rtol"]["oracle_window"], den)

        _guard(ops, op, one)

    def full_below():
        ops.check("oracle_sweep.full", minima["full"].value <= minima["phi_rz"].value * (1 + 1e-12),
                  "full minimum exceeds the phi_rz minimum")

    if ops.ok.get("oracle_sweep.phi_rz"):
        _guard(ops, "oracle_sweep.full", full_below)


def _slopes(rows: List[dict]) -> Dict[str, float]:
    return {r["kind"]: r["fitted_slope"] for r in rows}


def check_korn_pool(inp: Inputs, outdir: str, ops: Ops, state, ref: dict):
    s = inp.sizes
    rtol = ref["rtol"]
    want = ref["korn_pool"] if inp.has_reference else None
    several = lambda key: len(h_list(s[key])) > 1

    def korn():
        data = _read_json(outdir, "korn.json")
        rows = data["estimates"]
        ops.check("korn", sorted({r["h"] for r in rows}, reverse=True) == h_list(s["korn_h"]),
                  "korn.json h values")
        ops.check("korn", all(r["value"] > 0.0 for r in rows), "non-positive Korn estimate")
        if several("korn_h"):
            slopes = _slopes(rows)
            for kind, target in KORN_TARGETS.items():
                ops.check("korn", abs(slopes[kind] - target) <= SCAN_BAND,
                          f"korn {kind} slope {slopes[kind]} outside {target} +- {SCAN_BAND}")
        if want:
            _compare_rows(ops, "korn", rows, want["korn"], rtol["korn"])
            _compare(ops, "korn", data, {"slenderness_condition_slope": want["slenderness_slope"]},
                     rtol["korn"], "korn")

    def equivalence():
        data = _read_json(outdir, "equivalence.json")
        ops.check("equivalence", [r["h"] for r in data["records"]] == h_list(s["equivalence_h"]),
                  "equivalence.json h values")
        if several("equivalence_h"):
            slope = data["lambda_star_gap_slope"]
            ops.check("equivalence", slope >= EQUIVALENCE_MIN_SLOPE,
                      f"gap slope {slope} below {EQUIVALENCE_MIN_SLOPE}")
        if want:
            _compare_rows(ops, "equivalence", data["records"], want["equivalence"], rtol["equivalence"])
            _compare(ops, "equivalence", data, {"lambda_star_gap_slope": want["gap_slope"]},
                     rtol["equivalence"], "equivalence")

    def ansatz():
        rows = _read_json(outdir, "ansatz.json")
        ops.check("ansatz", sorted({r["h"] for r in rows}, reverse=True) == h_list(s["ansatz_h"]),
                  "ansatz.json h values")
        if several("ansatz_h"):
            slopes = _slopes(rows)
            for kind, target in KORN_TARGETS.items():
                ops.check("ansatz", abs(slopes[kind] - target) <= ANSATZ_BAND,
                          f"ansatz {kind} slope {slopes[kind]} outside {target} +- {ANSATZ_BAND}")
        if want:
            _compare_rows(ops, "ansatz", rows, want["ansatz"], rtol["ansatz"])

    for op, fn in (("korn", korn), ("equivalence", equivalence), ("ansatz", ansatz)):
        _guard(ops, op, fn)


CHECKS = {
    "closed_form": check_closed_form,
    "oracle_window": check_oracle_window,
    "korn_pool": check_korn_pool,
}
