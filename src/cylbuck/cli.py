"""Command-line interface: sweeps, verification scans, and plot-ready data.

Every run setting is one row of ``SETTINGS``, which gives the ``RunConfig``
attribute and its default, the shared flag, and the parser that both the flag
text and a ``--config`` file value go through.  Each command returns a
``Report``; ``emit`` writes ``<stem>.csv`` and ``<stem>.json`` and prints
the stdout lines.

Every writer streams its text to the open file; none builds the whole text
first.  ``mode.vtk`` and ``mode.csv`` go out one z-plane at a time, the
Koiter band's records a block of rows at a time from its column arrays, and
other JSON through ``json.dump``.  Each file is written as ``<name>.tmp``
and moved onto its name after the last write, so a run that fails partway
leaves no partial file that looks like a result.

Outputs are deterministic: fixed scan orders, fixed tie-breaks, and
shortest-round-trip float formatting make reruns byte-identical.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence

import numpy as np

from . import acceptance
from . import critical_load as cl
from . import modes as modes_mod
from . import oracle as oracle_mod
from .errors import CylbuckError
from .material import IsotropicElasticity
from .spectral import ShellGeometry


def fmt(x) -> str:
    """Shortest decimal that round-trips; integers stay integers; None reads nan."""
    if x is None:
        return "nan"
    if isinstance(x, bool):
        return str(x).lower()
    if isinstance(x, int):
        return str(x)
    return repr(float(x))


def _write_replacing(path: str, write: Callable):
    """``write(fh)`` on ``path + ".tmp"``, then move the file onto ``path``.

    A write that fails partway (an OSError, a MemoryError, Ctrl-C) removes
    the temporary file, so no partial file is left that looks like a result."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", newline="\n") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.remove(tmp)
        except OSError:
            pass
        raise


def write_text(path: str, text: str):
    _write_replacing(path, lambda fh: fh.write(text))


def write_csv(path: str, header: Sequence[str], rows: Sequence[Sequence]):
    def write(fh):
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(fmt(v) if not isinstance(v, str) else v for v in row) + "\n")

    _write_replacing(path, write)


class RecordColumns(NamedTuple):
    """A JSON list of records given as named numeric or boolean columns of
    one length: record i is ``{name: column[i] for name, column in columns.items()}``."""

    columns: Dict[str, np.ndarray]


# records of a RecordColumns list formatted per block before it is written; a
# block holds about 800 bytes a record while it is formatted, so the bound of
# test_json_writer_holds_less_than_half_its_bytes, half of the 158 bytes a
# record of koiter.json, holds with blocks of up to about 250 records
_BLOCK_ROWS = 2**7


def _write_records(fh, records: RecordColumns):
    """The list of ``records``, as ``json.dump(..., indent=2)`` writes a value
    of the top-level dict, ``_BLOCK_ROWS`` records at a time through one row
    template."""
    names, columns = zip(*records.columns.items())
    fields = (f"      {json.dumps(name).replace('%', '%%')}: %s" for name in names)
    row = "    {\n" + ",\n".join(fields) + "\n    }"
    size = len(columns[0])
    for first in range(0, size, _BLOCK_ROWS):
        fh.write(",\n" if first else "[\n")
        # each value as json.dumps writes it; a number's text holds no ", "
        texts = [json.dumps(c[first:first + _BLOCK_ROWS].tolist())[1:-1].split(", ") for c in columns]
        fh.write(",\n".join(map(row.__mod__, zip(*texts))))
    fh.write("\n  ]" if size else "[]")


def write_json(path: str, obj):
    """The bytes of ``json.dumps(obj, indent=2)`` and a newline, written chunk by chunk.

    One value of a dict ``obj`` may be a ``RecordColumns``: it is written as
    the list of its records, with the bytes ``json.dumps`` gives that list.
    Every other document goes through ``json.dump``."""
    key = next((k for k, v in obj.items() if isinstance(v, RecordColumns)), None) if isinstance(obj, dict) else None

    def write(fh):
        if key is None:
            json.dump(obj, fh, indent=2)
        else:
            # the document with [] in the records' place, cut there; only a
            # top-level key opens a line indented by two spaces
            field = json.dumps({key: []}, indent=2)[1:-4]
            head, _, tail = json.dumps({**obj, key: []}, indent=2).partition(field + "[]")
            fh.write(head + field)
            _write_records(fh, obj[key])
            fh.write(tail)
        fh.write("\n")

    _write_replacing(path, write)


def _h_list(value) -> List[float]:
    """Comma-separated flag text, or a JSON list of numbers."""
    tokens = value.split(",") if isinstance(value, str) else value
    if not isinstance(tokens, list):
        raise ValueError(f"h-list must be a list of numbers, got {value!r}")
    return [float(tok) for tok in tokens]


class Setting(NamedTuple):
    name: str  # RunConfig attribute and config-file key; the flag is --name with "-" for "_"
    default: object
    parse: Callable  # flag text or config-file value -> setting value
    help: str


SETTINGS = (
    Setting("nu", 0.3, float, "Poisson ratio (default 0.3)"),
    Setting("L", math.pi, float, "shell length over radius (default pi)"),
    Setting("h_list", (0.1, 0.03, 0.01), _h_list, "comma-separated decreasing slendernesses"),
    Setting("margin", 3.0, float, "sweep window margin factor"),
    Setting("degree", 12, int, "radial polynomial degree"),
    Setting("outdir", ".", str, "output directory (default .)"),
    Setting("jobs", 1, int, "accepted and ignored, at least 1 (default 1)"),
)
_SETTING = {s.name: s for s in SETTINGS}


class RunConfig:
    """Validated run settings: one attribute per SETTINGS row, unset ones at their default."""

    def __init__(self, **values):
        for s in SETTINGS:
            setattr(self, s.name, values.get(s.name, s.default))
        if not self.h_list:
            raise ValueError("h-list must be nonempty")
        if any(b >= a for a, b in zip(self.h_list, self.h_list[1:])):
            raise ValueError("h-list must be strictly decreasing")
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")
        for h in self.h_list:
            self.problem(h)  # nu, h, L and margin
        self.disc()  # degree

    def elastic(self) -> IsotropicElasticity:
        return IsotropicElasticity(nu=self.nu)

    def problem(self, h: float) -> cl.CriticalLoadProblem:
        return cl.CriticalLoadProblem(
            geom=ShellGeometry(h=h, L=self.L), elastic=self.elastic(), margin=self.margin
        )

    def disc(self) -> oracle_mod.RadialDiscretization:
        return oracle_mod.RadialDiscretization(degree=self.degree)


def _file_value(key: str, raw):
    """A config-file value must already be what its setting's parser makes of it."""
    if key not in _SETTING:
        raise ValueError(f"unknown config key {key!r}")
    try:
        value = _SETTING[key].parse(raw)
        if value == raw and not isinstance(raw, bool):  # True == 1, so bools need the type test
            return value
    except (TypeError, ValueError):
        pass
    raise ValueError(f"config key {key!r} has a bad value {raw!r}")


def merge_config(args) -> RunConfig:
    """Defaults, then the --config file, then flags."""
    values = {}
    if args.config:
        with open(args.config) as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError("a config file must hold one JSON object")
        values.update((key, _file_value(key, raw)) for key, raw in data.items())
    values.update(
        (s.name, getattr(args, s.name)) for s in SETTINGS if getattr(args, s.name) is not None
    )
    return RunConfig(**values)


class Report(NamedTuple):
    """What a command produced; ``emit`` puts it on disk and on stdout."""

    stem: str
    data: object = None                # -> <stem>.json
    columns: Sequence[str] = ()        # with records -> <stem>.csv, one row per record
    records: Sequence[dict] = ()
    lines: Sequence[str] = ()          # stdout
    code: int = 0


def emit(outdir: str, report: Report) -> int:
    """Write <stem>.csv and <stem>.json into outdir, print the lines; the exit code."""
    path = os.path.join(outdir, report.stem)
    if report.columns:
        rows = [[rec[c] for c in report.columns] for rec in report.records]
        write_csv(path + ".csv", report.columns, rows)
    if report.data is not None:
        write_json(path + ".json", report.data)
    for line in report.lines:
        print(line)
    return report.code


def _column(a) -> list:
    """A grid array [ir, jt, kz] as a list; r varies fastest, then theta, then z."""
    return np.ravel(a, order="F").tolist()


# values per block of whole z-planes that shares one table of formatted
# magnitudes (a block holds at least one plane); at small h nearly every
# magnitude is distinct, so a table for the whole column would hold a string
# per value.  A block costs about 190 bytes a value while its table is built:
# `mode --h 1e-5` peaks at 255 MB with 2**19 and 354 MB with 2**20
_BLOCK_VALUES = 2**19


def _repr_planes(a, plane: int):
    """``repr`` of each value of ``_column(a)``, one list per ``plane`` values
    (a z-plane), each distinct magnitude formatted once per block of whole
    z-planes of at most ``_BLOCK_VALUES`` values.

    Values are keyed by the bit pattern of their magnitude, and a set sign bit
    puts the "-" back, so 0.0 and -0.0 stay apart; a NaN reads "nan" whatever
    its sign bit, as with ``repr``."""
    column = np.ravel(np.asarray(a, dtype=np.float64), order="F")
    block = plane * max(1, _BLOCK_VALUES // plane)
    for first in range(0, len(column), block):
        v = column[first:first + block]
        bits = v.view(np.uint64)
        magnitudes, index = np.unique(bits & np.uint64(2**63 - 1), return_inverse=True)
        table = np.array(list(map(repr, magnitudes.view(np.float64).tolist())), dtype=object)
        negative = (bits >> np.uint64(63)).astype(bool) & ~np.isnan(v)
        del v, bits, magnitudes  # not held while the block's planes are written
        for start in range(0, len(index), plane):
            text = table[index[start:start + plane]]
            signed = np.flatnonzero(negative[start:start + plane])
            text[signed] = ["-" + t for t in text[signed].tolist()]
            yield text.tolist()


def _prefixes(field: modes_mod.DisplacementField, sep: str, x, y) -> List[str]:
    """``f"{x!r}{sep}{y!r}{sep}"`` per (r, theta) node in ``_column`` order,
    from x and y given on [ir, jt]; a point's line is its prefix and its z.
    Joined by grid index, not by value, so that 0.0 and -0.0 stay apart."""
    shape = (len(field.r), len(field.theta))
    xs, ys = (_column(np.broadcast_to(a, shape)) for a in (x, y))
    return [f"{a!r}{sep}{b!r}{sep}" for a, b in zip(xs, ys)]


def write_vtk(path: str, field: modes_mod.DisplacementField):
    """Legacy ASCII structured grid; r varies fastest, then theta, then z.

    Streamed a z-plane at a time; the three scalar fields are formatted one
    after another, so the text of at most one field's distinct magnitudes is
    held at once."""
    nr, nt, nz = len(field.r), len(field.theta), len(field.z)
    r = np.asarray(field.r)[:, None]
    cos_t = np.array([math.cos(t) for t in field.theta])
    sin_t = np.array([math.sin(t) for t in field.theta])
    prefixes = _prefixes(field, " ", r * cos_t, r * sin_t)

    def write(fh):
        fh.write(
            "# vtk DataFile Version 3.0\ncylbuck buckling mode displacement\nASCII\n"
            f"DATASET STRUCTURED_GRID\nDIMENSIONS {nr} {nt} {nz}\nPOINTS {nr * nt * nz} double\n"
        )
        for z in map(repr, _column(field.z)):
            line_end = z + "\n"
            fh.write(line_end.join(prefixes))
            fh.write(line_end)
        fh.write(f"POINT_DATA {nr * nt * nz}\n")
        for name in ("phi_r", "phi_theta", "phi_z"):
            fh.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
            for text in _repr_planes(getattr(field, name), len(prefixes)):
                fh.write("\n".join(text))
                fh.write("\n")

    _write_replacing(path, write)


def write_mode_csv(path: str, field: modes_mod.DisplacementField):
    """One row per grid point; r varies fastest, then theta, then z.  Streamed
    a z-plane at a time."""
    prefixes = _prefixes(field, ",", np.asarray(field.r)[:, None], np.asarray(field.theta))

    def write(fh):
        fh.write("r,theta,z,phi_r,phi_theta,phi_z\n")
        names = ("phi_r", "phi_theta", "phi_z")
        planes = zip(*(_repr_planes(getattr(field, name), len(prefixes)) for name in names))
        for z, (a, b, c) in zip(map(repr, _column(field.z)), planes):
            fh.write("\n".join(f"{p}{z},{x},{y},{w}" for p, x, y, w in zip(prefixes, a, b, c)))
            fh.write("\n")

    _write_replacing(path, write)


def _h(config: RunConfig, args) -> float:
    """--h, or the first slenderness of the h-list."""
    return args.h if args.h is not None else config.h_list[0]


def _slope(h_values: Sequence[float], values: Sequence[float]) -> Optional[float]:
    """The fitted log-log slope; None (JSON null) from a single h."""
    return oracle_mod.fitted_slope(h_values, values) if len(values) > 1 else None


def _result_record(problem: cl.CriticalLoadProblem, res: cl.BucklingResult) -> dict:
    lam_star = problem.lambda_star
    return {
        "h": problem.geom.h,
        "m": res.m,
        "n": res.n,
        "m_hat": res.m_hat,
        "lambda3_tilde": res.strain,
        "lambda3_full": res.strain_full,
        "lambda_star": lam_star,
        "ratio": res.strain / lam_star,
        "a_theta": res.a_theta,
        "a_z": res.a_z,
        "koiter_residual": res.koiter_residual,
    }


SWEEP_COLUMNS = (
    "h", "m", "n", "m_hat", "lambda3_tilde", "lambda3_full",
    "lambda_star", "ratio", "a_theta", "a_z",
)
SERIES_COLUMNS = ("h", "kind", "value", "fitted_slope")
EQUIVALENCE_COLUMNS = ("h", "sup_gap_full_vs_rz", "lambda_star_times_gap", "rz_vs_mid_coefficient")


def cmd_critical_load(config: RunConfig, args) -> Report:
    problem = config.problem(_h(config, args))
    record = _result_record(problem, cl.sweep(problem))
    return Report("critical_load", record, lines=[json.dumps(record, indent=2)])


def cmd_sweep(config: RunConfig, args) -> Report:
    records = [_result_record(p, cl.sweep(p)) for p in map(config.problem, config.h_list)]
    lines = [f"h={fmt(r['h'])}: (m={r['m']}, n={r['n']}) ratio={fmt(r['ratio'])}" for r in records]
    return Report("sweep", records, SWEEP_COLUMNS, records, lines)


def cmd_koiter(config: RunConfig, args) -> Report:
    h = _h(config, args)
    problem = config.problem(h)
    tol = args.tolerance
    names = ("m", "n", "m_hat", "circle_residual", "lambda3_tilde")
    columns = dict(zip(names, cl.koiter_circle(problem, rel_tol=tol)))
    R = problem.koiter_radius
    out = {"h": h, "radius": R, "tolerance": tol, "modes": RecordColumns(columns)}
    line = f"{len(columns['m'])} integer pairs within {fmt(tol)} of the circle (R={fmt(R)})"
    return Report("koiter", out, lines=[line])


def _kind_series(ratios_by_h: Dict[float, NamedTuple]) -> List[dict]:
    """Records (h, kind, value, fitted_slope), one per field of the ratios
    ("kind", in name order), the slope fitted per kind over all h."""
    hs = sorted(ratios_by_h, reverse=True)
    kinds = sorted(ratios_by_h[hs[0]]._fields)
    series = {kind: [getattr(ratios_by_h[h], kind) for h in hs] for kind in kinds}
    slopes = {kind: _slope(hs, values) for kind, values in series.items()}
    return [
        {"h": h, "kind": kind, "value": series[kind][i], "fitted_slope": slopes[kind]}
        for i, h in enumerate(hs)
        for kind in kinds
    ]


def _series_lines(records: List[dict]) -> List[str]:
    return [
        f"h={fmt(r['h'])} {r['kind']}: {fmt(r['value'])} (slope {fmt(r['fitted_slope'])})"
        for r in records
    ]


def cmd_korn(config: RunConfig, args) -> Report:
    el = config.elastic()
    disc = config.disc()
    by_h = {}
    for h in config.h_list:
        problem = config.problem(h)
        by_h[h] = oracle_mod.korn_mode_scan(problem.geom, el, disc, problem.window())
    records = _kind_series(by_h)
    out = {"estimates": records}
    lines = _series_lines(records)
    if len(config.h_list) > 1:
        # slenderness sufficient condition: classical_strain^2 / K -> 0,
        # measured through its log-log slope (expected ~ +1/2)
        ratios = [config.problem(h).lambda_star ** 2 / by_h[h].korn for h in config.h_list]
        out["slenderness_condition_slope"] = oracle_mod.fitted_slope(config.h_list, ratios)
        lines.append(f"strain^2/K slope: {fmt(out['slenderness_condition_slope'])}")
    return Report("korn", out, SERIES_COLUMNS, records, lines)


def cmd_ansatz(config: RunConfig, args) -> Report:
    by_h = {h: oracle_mod.ansatz_ratios(ShellGeometry(h=h, L=config.L)) for h in config.h_list}
    records = _kind_series(by_h)
    return Report("ansatz", records, SERIES_COLUMNS, records, _series_lines(records))


def cmd_equivalence(config: RunConfig, args) -> Report:
    el = config.elastic()
    disc = config.disc()
    records = []
    for h in config.h_list:
        problem = config.problem(h)
        scan = oracle_mod.equivalence_scan(problem.geom, el, disc, problem.window())
        lam = problem.lambda_star
        records.append(
            {
                "h": h,
                "sup_gap_full_vs_rz": scan.full_vs_rz,
                "lambda_star_times_gap": lam * scan.full_vs_rz,
                "rz_vs_mid_coefficient": scan.rz_vs_mid_coef,
            }
        )
    slope = _slope([r["h"] for r in records], [r["lambda_star_times_gap"] for r in records])
    out = {"records": records, "lambda_star_gap_slope": slope}
    return Report(
        "equivalence", out, EQUIVALENCE_COLUMNS, records, [f"lambda_star * gap slope: {fmt(slope)}"]
    )


def cmd_mode(config: RunConfig, args) -> Report:
    h = _h(config, args)
    spec = modes_mod.BucklingModeSpec(config.problem(h), args.alpha)
    field_data = modes_mod.synthesize(spec)
    meta = {
        "h": h,
        "alpha": args.alpha,
        "m": spec.m,
        "n": spec.n,
        "m_hat": spec.m_hat,
        "lambda_star": spec.problem.lambda_star,
        "quotient_ratio": modes_mod.quotient_ratio(spec),
        "boundary_trace_max": field_data.boundary_trace_max(),
        "grid": [len(field_data.r), len(field_data.theta), len(field_data.z)],
        "format": args.format,
    }
    writer = write_vtk if args.format == "vtk" else write_mode_csv
    writer(os.path.join(config.outdir, f"mode.{args.format}"), field_data)
    return Report("mode", meta, lines=[json.dumps(meta, indent=2)])


def _criterion(token: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ValueError(f"--criteria takes comma-separated criterion numbers, got {token!r}") from None


def cmd_verify(config: RunConfig, args) -> Report:
    numbers = [_criterion(tok) for tok in args.criteria.split(",")] if args.criteria is not None else None
    results = acceptance.run_all(numbers)
    passed = sum(r.passed for r in results)
    lines = [r.line() for r in results] + [f"{passed}/{len(results)} criteria passed"]
    return Report("verify", lines=lines, code=0 if passed == len(results) else 2)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cylbuck",
        description="Critical buckling strain and buckling modes of axially "
        "compressed cylindrical shells.",
    )
    parser.add_argument("--config", help="JSON file with RunConfig fields; flags override")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, fn, help):
        p = sub.add_parser(name, help=help)
        for s in SETTINGS:
            p.add_argument("--" + s.name.replace("_", "-"), type=s.parse, default=None, help=s.help)
        p.set_defaults(fn=fn)
        return p

    p = command("critical-load", cmd_critical_load, "sweep one slenderness, report the winner")
    p.add_argument("--h", type=float, default=None)

    command("sweep", cmd_sweep, "integer sweep over an h-list -> sweep.csv")

    p = command("koiter", cmd_koiter, "integer pairs near the Koiter circle")
    p.add_argument("--h", type=float, default=None)
    p.add_argument("--tolerance", type=float, default=0.05)

    command("korn", cmd_korn, "Korn-type extremal ratios over mode windows -> korn.csv")
    command("ansatz", cmd_ansatz, "Korn ratios of the wave-packet ansatz")
    command("equivalence", cmd_equivalence, "reciprocal Rayleigh-quotient gaps")

    p = command("mode", cmd_mode, "synthesize the two-term buckling mode field")
    p.add_argument("--h", type=float, default=None)
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--format", choices=("vtk", "csv"), default="vtk")

    p = command("verify", cmd_verify, "run the acceptance criteria, print PASS/FAIL")
    p.add_argument("--criteria", default=None, help="comma-separated subset, e.g. 1,4,7")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error; 2 is a CylbuckError's code here
        return 1 if exc.code == 2 else exc.code
    try:
        config = merge_config(args)
        os.makedirs(config.outdir, exist_ok=True)
        return emit(config.outdir, args.fn(config, args))
    except CylbuckError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, ArithmeticError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
