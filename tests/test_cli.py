import json
import math
import os
import tracemalloc

import pytest

import numpy as np

from cylbuck import cli
from cylbuck.cli import SETTINGS, build_parser, fmt, main, merge_config


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def dict_document(obj):
    """obj with each RecordColumns value as the list of dicts it stands for."""
    def records(columns):
        return [dict(zip(columns, row)) for row in zip(*(a.tolist() for a in columns.values()))]

    return {k: records(v.columns) if isinstance(v, cli.RecordColumns) else v for k, v in obj.items()}


def command_data(tmp_path, argv):
    args = build_parser().parse_args(argv + ["--outdir", str(tmp_path)])
    return args.fn(merge_config(args), args).data


class TestCriticalLoad:
    def test_reference_run(self, tmp_path, capsys):
        code = main(["critical-load", "--nu", "0.3", "--h", "0.01", "--outdir", str(tmp_path)])
        assert code == 0
        data = json.loads(read(tmp_path / "critical_load.json"))
        assert data["lambda_star"] == pytest.approx(6.0523e-3, rel=1e-4)
        assert abs(data["ratio"] - 1) <= 0.05
        assert data["lambda3_tilde"] < data["lambda_star"]
        out = capsys.readouterr().out
        assert "lambda_star" in out
        assert out.encode() == read(tmp_path / "critical_load.json")


class TestSweep:
    def test_csv_columns_and_determinism(self, tmp_path):
        argv = ["sweep", "--h-list", "0.1,0.05", "--outdir", str(tmp_path)]
        assert main(argv) == 0
        first = read(tmp_path / "sweep.csv")
        header = first.decode().splitlines()[0].split(",")
        assert header == [
            "h", "m", "n", "m_hat", "lambda3_tilde", "lambda3_full",
            "lambda_star", "ratio", "a_theta", "a_z",
        ]
        first_json = read(tmp_path / "sweep.json")
        assert main(argv) == 0
        assert read(tmp_path / "sweep.csv") == first
        assert read(tmp_path / "sweep.json") == first_json

    def test_values_round_trip(self, tmp_path):
        main(["sweep", "--h-list", "0.1", "--outdir", str(tmp_path)])
        row = read(tmp_path / "sweep.csv").decode().splitlines()[1].split(",")
        # shortest-round-trip floats parse back exactly
        assert float(row[0]) == 0.1
        assert float(row[6]) == 0.1 / math.sqrt(3 * (1 - 0.09))


class TestKoiter:
    def test_modes_near_circle(self, tmp_path):
        assert main(["koiter", "--h", "0.01", "--outdir", str(tmp_path)]) == 0
        data = json.loads(read(tmp_path / "koiter.json"))
        assert data["modes"], "circle must be populated at default tolerance"
        for rec in data["modes"]:
            assert rec["circle_residual"] <= 0.05 + 1e-12

    def test_empty_set_is_numerical_failure(self, tmp_path, capsys):
        code = main(
            ["koiter", "--h", "0.01", "--tolerance", "1e-9", "--outdir", str(tmp_path)]
        )
        assert code == 2
        assert "EmptySet" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, window, tolerance, holds",
        [
            # the band's outer circle reaches n = 1.05 R = 30.2, past n_max = 29:
            # the window would drop row 30's 7 of the band's 245 pairs
            ([], "m_max=58, n_max=29", "0.05", "1.05"),
            # it stays inside n_max = 29 but reaches m = 2.01 R L / pi = 577.7,
            # past m_max = 575: the window would drop 7 of the band's 491 pairs
            (["--L", "31.41592653589793", "--tolerance", "0.01"], "m_max=575, n_max=29", "0.01", "1.01"),
        ],
        ids=["row", "column"],
    )
    def test_band_cut_by_the_window_is_refused(self, tmp_path, capsys, flags, window, tolerance, holds):
        assert main(["koiter", "--h", "1e-3", "--margin", "1", "--outdir", str(tmp_path)] + flags) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"WindowTooSmall: the Koiter band at tolerance {tolerance} leaves the window ({window}); "
            f"a --margin of at least {holds} holds it\n"
        )
        assert os.listdir(tmp_path) == []

    def test_a_band_no_window_holds_is_refused_without_a_margin(self, tmp_path, capsys):
        # margin 1 + 1e300 would span 5.75e301 indices m, more than any window
        argv = ["koiter", "--h", "1e-3", "--tolerance", "1e300", "--outdir", str(tmp_path)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "WindowTooSmall: the Koiter band at tolerance 1e+300 leaves the window (m_max=173, n_max=87); "
            "no --margin holds it: at 1e+300 the window would span more than 2**53 indices m\n"
        )
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("block", [1, 7, cli._BLOCK_ROWS])
    def test_bytes_equal_the_dumped_record_dicts(self, tmp_path, monkeypatch, block):
        # koiter.json is written from the band's columns, a block of rows at a
        # time; its bytes are those of json.dumps over one dict per pair
        monkeypatch.setattr(cli, "_BLOCK_ROWS", block)
        inputs = [
            ("0.01", "0.05", "3.141592653589793", "3"),
            ("1e-3", "0.05", "3.141592653589793", "1.05"),
            ("1e-3", "0.01", "31.41592653589793", "3"),
            ("0.3", "0.2", "2", "2"),
            ("0.1", "0.01", "7", "4"),
        ]
        counts = []
        for h, tol, L, margin in inputs:
            argv = ["koiter", "--h", h, "--tolerance", tol, "--L", L, "--margin", margin]
            assert main(argv + ["--outdir", str(tmp_path)]) == 0
            document = dict_document(command_data(tmp_path, argv))
            assert read(tmp_path / "koiter.json") == (json.dumps(document, indent=2) + "\n").encode()
            counts.append(len(document["modes"]))
        assert counts == [25, 245, 491, 2, 1]

    def test_every_margin_that_holds_the_band_writes_its_bytes(self, tmp_path):
        written = []
        for margin in ("3", "1.05", "10"):
            outdir = tmp_path / margin
            assert main(["koiter", "--h", "1e-3", "--margin", margin, "--outdir", str(outdir)]) == 0
            written.append(read(outdir / "koiter.json"))
        assert len(json.loads(written[0])["modes"]) == 245
        assert written[1:] == written[:1] * 2


@pytest.mark.parametrize(
    "command, walked",
    [("koiter", (cli.cl, "_range_pairs")), ("mode", (cli.modes_mod, "evaluate"))],
)
def test_oversized_outputs_exit_2_before_anything_is_allocated(tmp_path, capsys, monkeypatch, command, walked):
    def allocated(*args):
        raise AssertionError(f"{command} allocated its output")

    monkeypatch.setattr(*walked, allocated)
    assert main([command, "--h", "1e-8", "--outdir", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and os.listdir(tmp_path) == []
    (line,) = captured.err.splitlines()
    assert line.startswith("OutputTooLarge: ") and " fits" in line


class TestMode:
    def test_vtk_output(self, tmp_path):
        assert (
            main(
                ["mode", "--h", "0.03", "--alpha", "0.5", "--L", str(2 * math.pi),
                 "--format", "vtk", "--outdir", str(tmp_path)]
            )
            == 0
        )
        lines = read(tmp_path / "mode.vtk").decode().splitlines()
        assert lines[0].startswith("# vtk DataFile")
        assert lines[3] == "DATASET STRUCTURED_GRID"
        dims = [int(tok) for tok in lines[4].split()[1:]]
        npoints = int(lines[5].split()[1])
        assert npoints == dims[0] * dims[1] * dims[2]
        meta = json.loads(read(tmp_path / "mode.json"))
        assert meta["grid"] == dims
        assert abs(meta["quotient_ratio"] - 1) < 0.1
        assert meta["boundary_trace_max"] <= 1e-12
        scalars = [ln for ln in lines if ln.startswith("SCALARS")]
        assert [s.split()[1] for s in scalars] == ["phi_r", "phi_theta", "phi_z"]

    def test_vtk_bytes_match_the_scalar_writer(self, tmp_path, monkeypatch):
        def scalar_writer(path, field):
            nr, nt, nz = len(field.r), len(field.theta), len(field.z)
            points = [(ir, jt, kz) for kz in range(nz) for jt in range(nt) for ir in range(nr)]
            lines = [
                "# vtk DataFile Version 3.0", "cylbuck buckling mode displacement", "ASCII",
                "DATASET STRUCTURED_GRID", f"DIMENSIONS {nr} {nt} {nz}", f"POINTS {len(points)} double",
            ]
            cos_t = [math.cos(t) for t in field.theta]
            sin_t = [math.sin(t) for t in field.theta]
            for ir, jt, kz in points:
                r = field.r[ir]
                lines.append(f"{fmt(r * cos_t[jt])} {fmt(r * sin_t[jt])} {fmt(field.z[kz])}")
            lines.append(f"POINT_DATA {len(points)}")
            for name in ("phi_r", "phi_theta", "phi_z"):
                lines += [f"SCALARS {name} double 1", "LOOKUP_TABLE default"]
                lines.extend(fmt(getattr(field, name)[p]) for p in points)
            cli.write_text(path, "\n".join(lines) + "\n")

        rng = np.random.default_rng(3)
        # doubles whose text a formatter keyed by value could get wrong: signed zeros, infinities,
        # NaN with either sign bit (repr drops it), subnormals, and repr's notation switches
        special = [0.0, -0.0, math.inf, -math.inf, math.nan, np.copysign(math.nan, -1.0), 5e-324, -5e-324,
                   1e16, -1e16, 9999999999999998.0, -9999999999999998.0, 1e-05, -1e-05, 0.0001, -0.0001]
        grids = [
            (np.linspace(0.995, 1.005, 3), np.linspace(0.0, 2.0 * math.pi, 5, endpoint=False), np.linspace(0.0, math.pi, 4)),
            # signed zeros and repeated values: sin(0.0) = 0.0, sin(-0.0) = -0.0, sin(pi) = 1.2e-16,
            # and a negative r times sin(0.0) gives -0.0; a cache keyed by value would merge 0.0 with -0.0
            (np.array([0.995, 1.0, 1.0, -0.5]), np.array([0.0, -0.0, math.pi, math.pi, 2.0]), np.array([0.0, -0.0, 1.0, 1.0])),
            (np.linspace(0.99, 1.01, 3), np.linspace(0.0, 2.0 * math.pi, 4, endpoint=False), np.linspace(0.0, 2.0, 5)),
        ]
        whole_column = cli._BLOCK_VALUES
        assert all(len(r) * len(theta) * len(z) <= whole_column for r, theta, z in grids)
        for k, (r, theta, z) in enumerate(grids):
            shape = (len(r), len(theta), len(z))
            phi = [rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape) for _ in range(3)]
            phi[0][0, 0, 0], phi[1][1, 2, 3] = -0.0, 0.0
            for i, p in enumerate(phi):
                p.flat[5 * i + 1:5 * i + 1 + len(special)] = special
                # the writers format a block of z-planes' distinct magnitudes once but
                # write it a z-plane at a time: one magnitude with both signs in the
                # first, second and last planes, and a -0.0 and a negative NaN in the last
                x = 0.1 * (i + 1)
                p[-1, -1, 0], p[-1, -2, 1], p[-1, -2, -1] = x, -x, x
                p[-2, -1, -1], p[-1, -1, -1] = -0.0, np.copysign(math.nan, -1.0)
            field = cli.modes_mod.DisplacementField(
                r=r, theta=theta, z=z, phi_r=phi[0], phi_theta=phi[1], phi_z=phi[2],
            )
            scalar_writer(str(tmp_path / f"scalar{k}.vtk"), field)
            # the mode CSV: one row per point in the same order, each value fmt-ed
            nr, nt, nz = shape
            rows = ["r,theta,z,phi_r,phi_theta,phi_z"] + [
                ",".join(fmt(v) for v in (r[ir], theta[jt], z[kz], *(p[ir, jt, kz] for p in phi)))
                for kz in range(nz) for jt in range(nt) for ir in range(nr)
            ]
            # one table of magnitudes for the whole column, then one per plane and per two planes
            for block in (whole_column, nr * nt, 2 * nr * nt):
                monkeypatch.setattr(cli, "_BLOCK_VALUES", block)
                cli.write_vtk(str(tmp_path / f"fast{k}.vtk"), field)
                assert read(tmp_path / f"fast{k}.vtk") == read(tmp_path / f"scalar{k}.vtk")
                cli.write_mode_csv(str(tmp_path / f"fast{k}.csv"), field)
                assert read(tmp_path / f"fast{k}.csv") == ("\n".join(rows) + "\n").encode()
        lines = read(tmp_path / "fast1.vtk").decode().splitlines()
        assert {"0.0", "-0.0"} <= {tok for ln in lines[6:6 + 80] for tok in ln.split()}
        assert {"nan", "-inf", "-5e-324", "1e+16", "9999999999999998.0", "1e-05", "0.0001"} <= set(lines)
        assert "-nan" not in lines
        for k, (r, theta, z) in enumerate(grids):
            plane = len(r) * len(theta)
            columns = read(tmp_path / f"fast{k}.vtk").decode().split("LOOKUP_TABLE default\n")[1:]
            for i, column in enumerate(columns):
                values = column.splitlines()
                planes = [values[j:j + plane] for j in range(0, len(z) * plane, plane)]
                x, before_last = repr(0.1 * (i + 1)), -len(r) - 1
                assert (planes[0][-1], planes[1][before_last], planes[-1][before_last]) == (x, "-" + x, x)
                assert planes[-1][-2:] == ["-0.0", "nan"]

    def test_csv_output_row_count(self, tmp_path, capsys):
        assert (
            main(
                ["mode", "--h", "0.03", "--alpha", "0.25", "--L", str(2 * math.pi),
                 "--format", "csv", "--outdir", str(tmp_path)]
            )
            == 0
        )
        assert capsys.readouterr().out.encode() == read(tmp_path / "mode.json")
        meta = json.loads(read(tmp_path / "mode.json"))
        body = read(tmp_path / "mode.csv").decode().splitlines()
        assert body[0] == "r,theta,z,phi_r,phi_theta,phi_z"
        nr, nt, nz = meta["grid"]
        assert len(body) == 1 + nr * nt * nz


class TestAtomicWrites:
    """Every writer writes <name>.tmp and moves it onto <name> after its last
    write; a writer that fails partway leaves neither file."""

    @pytest.mark.parametrize("error", [OSError("No space left on device"), KeyboardInterrupt()],
                             ids=["OSError", "KeyboardInterrupt"])
    @pytest.mark.parametrize("form", ["vtk", "csv"])
    def test_mode_failing_on_its_second_column(self, tmp_path, capsys, monkeypatch, form, error):
        columns = []
        repr_planes = cli._repr_planes

        def second_column_fails(a, plane):
            columns.append(os.listdir(tmp_path))
            if len(columns) == 2:
                raise error
            return repr_planes(a, plane)

        monkeypatch.setattr(cli, "_repr_planes", second_column_fails)
        argv = ["mode", "--h", "0.1", "--format", form, "--outdir", str(tmp_path)]
        if isinstance(error, OSError):
            assert main(argv) == 1
            assert capsys.readouterr().err == "OSError: No space left on device\n"
        else:
            with pytest.raises(KeyboardInterrupt):
                main(argv)
        # the file was open under its temporary name when the column failed
        assert columns[1] == [f"mode.{form}.tmp"]
        assert os.listdir(tmp_path) == []

    def test_json_failing_partway(self, tmp_path):
        path = str(tmp_path / "out.json")
        with pytest.raises(TypeError, match="set is not JSON serializable"):
            cli.write_json(path, {"modes": list(range(10_000)), "tail": {1, 2}})
        assert os.listdir(tmp_path) == []


def _traced_peak(write) -> int:
    """tracemalloc's peak, in bytes, of what write() allocates."""
    tracemalloc.start()
    try:
        write()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestStreamingWriters:
    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--h-list", "0.1,0.05"],
            ["koiter", "--h", "0.01"],
            ["korn", "--h-list", "0.1", "--degree", "6"],
            ["equivalence", "--h-list", "0.1", "--degree", "6"],
            ["mode", "--h", "0.1"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_json_bytes_match_dumps(self, tmp_path, argv):
        # single-h korn and equivalence carry JSON nulls, mode a nested list,
        # koiter its records as columns
        data = command_data(tmp_path, argv)
        document = dict_document(data) if isinstance(data, dict) else data
        nested = {"nested": [[1, [2.5, None]], [], {}, [-0.0, 1e16, 5e-324]],
                  "text": "\u00e9\"\n", "flags": [True, False, None]}
        for obj, want in ((data, document), ({"data": document, **nested},) * 2):
            cli.write_json(str(tmp_path / "out.json"), obj)
            assert read(tmp_path / "out.json") == (json.dumps(want, indent=2) + "\n").encode()

    @pytest.mark.parametrize("block", [1, 2, cli._BLOCK_ROWS])
    def test_record_columns_bytes_match_dumps(self, tmp_path, monkeypatch, block):
        # ints of any width, booleans, signed zeros, NaN of either sign bit,
        # infinities, subnormals and repr's notation switches; keys that JSON
        # escapes or that read as format directives; the list first, in the
        # middle, last, of one record and of none
        monkeypatch.setattr(cli, "_BLOCK_ROWS", block)
        columns = {
            "i": np.array([0, -1, 2**62, -(2**63), 7], dtype=np.int64),
            "u %s %d": np.array([0, 1, 2**64 - 1, 3, 4], dtype=np.uint64),
            "x": np.array([math.nan, math.inf, -math.inf, -0.0, np.copysign(math.nan, -1.0)]),
            "\u00e9\"\n": np.array([1e16, 5e-324, 9999999999999998.0, 1e-05, 0.0001]),
            "z": np.array([1.5, -2.0, 0.1, 3e38, -1e-40], dtype=np.float32),
            "b": np.array([True, False, False, True, True]),
        }
        one = {k: a[:1] for k, a in columns.items()}
        none = {k: a[:0] for k, a in columns.items()}
        path = str(tmp_path / "out.json")
        for records in (columns, one, none):
            for document in ({"rows": records}, {"a": [1, {"b": None}], "rows": records, "c": "x"},
                             {"a": 1.0, "rows": records}, {"rows": records, "nested": {"rows": []}}):
                obj = {k: cli.RecordColumns(v) if k == "rows" else v for k, v in document.items()}
                cli.write_json(path, obj)
                assert read(path) == (json.dumps(dict_document(obj), indent=2) + "\n").encode()

    @pytest.mark.parametrize("writer", ["write_vtk", "write_mode_csv"])
    def test_mode_writer_holds_less_than_twice_its_bytes(self, tmp_path, writer):
        # the h = 0.01 grid of `cylbuck mode` (L = pi, nu = 0.3); a writer that
        # builds the whole text first holds over 4 times the file
        spec = cli.modes_mod.BucklingModeSpec(cli.RunConfig().problem(0.01), 0.5)
        field = cli.modes_mod.synthesize(spec)
        assert field.phi_r.size == 46_080
        path = str(tmp_path / "mode")
        peak = _traced_peak(lambda: getattr(cli, writer)(path, field))
        assert peak < 2 * os.path.getsize(path)

    def test_json_writer_holds_less_than_half_its_bytes(self, tmp_path):
        # `cylbuck koiter --h 1e-4`: json.dumps(indent=2) holds 7 times the
        # file; this bound sets cli._BLOCK_ROWS
        data = command_data(tmp_path, ["koiter", "--h", "1e-4"])
        path = str(tmp_path / "koiter.json")
        peak = _traced_peak(lambda: cli.write_json(path, data))
        assert peak < 0.5 * os.path.getsize(path)


class TestKornFamily:
    def test_korn_csv(self, tmp_path):
        assert (
            main(
                ["korn", "--h-list", "0.1,0.05", "--degree", "6", "--jobs", "1",
                 "--outdir", str(tmp_path)]
            )
            == 0
        )
        lines = read(tmp_path / "korn.csv").decode().splitlines()
        assert lines[0] == "h,kind,value,fitted_slope"
        kinds = {ln.split(",")[1] for ln in lines[1:]}
        assert kinds == {"korn", "r_z", "theta_z", "weighted"}
        data = json.loads(read(tmp_path / "korn.json"))
        assert "slenderness_condition_slope" in data

    def test_ansatz_csv(self, tmp_path):
        assert (
            main(["ansatz", "--h-list", "0.01,0.005", "--outdir", str(tmp_path)]) == 0
        )
        lines = read(tmp_path / "ansatz.csv").decode().splitlines()
        assert lines[0] == "h,kind,value,fitted_slope"

    def test_equivalence_json(self, tmp_path):
        assert (
            main(
                ["equivalence", "--h-list", "0.1,0.05", "--degree", "6", "--jobs", "1",
                 "--outdir", str(tmp_path)]
            )
            == 0
        )
        data = json.loads(read(tmp_path / "equivalence.json"))
        assert len(data["records"]) == 2
        assert data["records"][0]["lambda_star_times_gap"] > 0


class TestEmitter:
    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--h-list", "0.1,0.05"],
            ["korn", "--h-list", "0.1,0.05", "--degree", "6", "--jobs", "1"],
            ["ansatz", "--h-list", "0.01,0.005"],
            ["equivalence", "--h-list", "0.1,0.05", "--degree", "6", "--jobs", "1"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_csv_rows_are_json_records(self, tmp_path, argv):
        command = argv[0]
        assert main(argv + ["--outdir", str(tmp_path)]) == 0
        records = json.loads(read(tmp_path / f"{command}.json"))
        if command in ("korn", "equivalence"):
            records = records["estimates" if command == "korn" else "records"]
        lines = read(tmp_path / f"{command}.csv").decode().splitlines()
        header, rows = lines[0].split(","), [ln.split(",") for ln in lines[1:]]
        assert len(rows) == len(records) > 0
        for row, rec in zip(rows, records):
            assert row == [rec[c] if isinstance(rec[c], str) else fmt(rec[c]) for c in header]


class TestSingleH:
    @pytest.mark.parametrize(
        "argv",
        [
            ["korn", "--h-list", "0.1", "--degree", "6", "--jobs", "1"],
            ["ansatz", "--h-list", "1e-4"],
            ["equivalence", "--h-list", "0.1", "--degree", "6", "--jobs", "1"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_slope_is_json_null(self, tmp_path, argv):
        # one h fits no slope; strict JSON has no NaN
        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        command = argv[0]
        assert main(argv + ["--outdir", str(tmp_path)]) == 0
        data = json.loads(read(tmp_path / f"{command}.json").decode(), parse_constant=reject)
        if command == "equivalence":
            slopes = [data["lambda_star_gap_slope"]]
        else:
            slopes = [r["fitted_slope"] for r in (data["estimates"] if command == "korn" else data)]
        assert slopes and all(s is None for s in slopes)


class TestVerify:
    def test_subset(self, tmp_path, capsys):
        code = main(["verify", "--criteria", "4,7", "--jobs", "1", "--outdir", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "criterion 4" in out and "criterion 7" in out
        assert "2/2 criteria passed" in out

    @pytest.mark.parametrize("criteria, token", [("1,,2", "''"), ("x", "'x'"), ("4,7.0", "'7.0'"), ("", "''")])
    def test_bad_criteria_token_named(self, tmp_path, capsys, criteria, token):
        # one line naming the flag and the token, before any criterion runs
        assert main(["verify", "--criteria", criteria, "--outdir", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"ValueError: --criteria takes comma-separated criterion numbers, got {token}\n"


class TestConfigAndErrors:
    @pytest.mark.parametrize(
        "argv",
        [["koiter", "--h", "abc"], ["sweep", "--h-list", "0.1,abc"], ["--bogus", "1"], ["sweep", "--bogus", "1"], []],
        ids=["float", "h-list", "global-flag", "command-flag", "no-command"],
    )
    def test_usage_errors_exit_one(self, tmp_path, capsys, argv):
        # exit 2 is a CylbuckError refusal's; a bad flag exits 1 like a bad config value
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "error: " in captured.err.splitlines()[-1]

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert main(["koiter", "--help"]) == 0
        assert "--tolerance" in capsys.readouterr().out

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"nu": 0.25, "h_list": [0.1], "jobs": 1}))
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        assert main(["--config", str(cfg), "sweep", "--outdir", str(out1)]) == 0
        assert main(["--config", str(cfg), "sweep", "--nu", "0.3", "--outdir", str(out2)]) == 0
        r1 = json.loads(read(out1 / "sweep.json"))[0]
        r2 = json.loads(read(out2 / "sweep.json"))[0]
        assert r1["lambda_star"] != r2["lambda_star"]
        assert r2["lambda_star"] == pytest.approx(0.1 / math.sqrt(2.73), rel=1e-12)

    def test_every_setting_from_file_then_flag(self, tmp_path):
        cpus = os.cpu_count() or 1
        from_file = {
            "nu": 0.25, "L": 3.0, "h_list": [0.1, 0.05], "margin": 2.5,
            "degree": 8, "outdir": "from-file", "jobs": cpus + 1,
        }
        from_flag = {
            "nu": ("0.35", 0.35), "L": ("5.5", 5.5),
            "h_list": ("0.2,0.1", [0.2, 0.1]), "margin": ("4", 4.0), "degree": ("10", 10),
            "outdir": ("from-flag", "from-flag"), "jobs": ("5", 5),
        }
        assert set(from_file) == set(from_flag) == {s.name for s in SETTINGS}
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(from_file))
        parse = build_parser().parse_args
        config = merge_config(parse(["--config", str(cfg), "sweep"]))
        assert {name: getattr(config, name) for name in from_file} == from_file
        for name, (text, value) in from_flag.items():
            flag = "--" + name.replace("_", "-")
            config = merge_config(parse(["--config", str(cfg), "sweep", flag, text]))
            assert {k: getattr(config, k) for k in from_file} == {**from_file, name: value}

    def test_jobs_defaults_to_one(self, tmp_path):
        parse = build_parser().parse_args
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"nu": 0.25}))
        assert merge_config(parse(["sweep"])).jobs == 1
        assert merge_config(parse(["--config", str(cfg), "sweep"])).jobs == 1
        cfg.write_text(json.dumps({"jobs": 7}))
        assert merge_config(parse(["--config", str(cfg), "sweep"])).jobs == 7
        assert merge_config(parse(["--config", str(cfg), "sweep", "--jobs", "3"])).jobs == 3

    def test_validation_errors_exit_one(self, tmp_path, capsys):
        # increasing h-list
        assert main(["sweep", "--h-list", "0.01,0.1", "--outdir", str(tmp_path)]) == 1
        # nu out of range
        assert main(["sweep", "--h-list", "0.1", "--nu", "0.7", "--outdir", str(tmp_path)]) == 1
        # unknown config key
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        assert main(["--config", str(cfg), "sweep", "--outdir", str(tmp_path)]) == 1
        capsys.readouterr()
        # config values of the wrong type, and a file that is not a JSON object
        for command, bad in [
            ("sweep", {"nu": "0.3"}),
            ("sweep", {"h_list": 0.1}),
            ("korn", {"jobs": "2"}),
            ("korn", {"degree": 12.5}),
            ("korn", {"jobs": 0}),
            ("sweep", [0.3]),
        ]:
            cfg.write_text(json.dumps(bad))
            assert main(["--config", str(cfg), command, "--outdir", str(tmp_path)]) == 1, bad
            err = capsys.readouterr().err
            assert err.startswith("ValueError: ") and err.count("\n") == 1, err
        # out-of-range flags: no workers, a non-finite length or margin
        for argv in [
            ["korn", "--h-list", "0.1", "--degree", "6", "--jobs", "0"],
            ["korn", "--h-list", "0.1", "--degree", "6", "--jobs", "-3"],
            ["sweep", "--h-list", "0.1", "--L", "inf"],
            ["critical-load", "--h", "0.1", "--L", "1e400"],
            ["koiter", "--h", "0.1", "--margin", "inf"],
        ]:
            assert main(argv + ["--outdir", str(tmp_path)]) == 1, argv
            err = capsys.readouterr().err
            assert err.startswith("ValueError: ") and err.count("\n") == 1, err

    @pytest.mark.parametrize(
        "argv",
        [
            ["mode", "--h", "0.1", "--margin", "inf"],
            ["mode", "--h", "0.1", "--margin", "0.5"],
            ["koiter", "--h", "0.1", "--degree", "0"],
            ["sweep", "--h-list", "0.1", "--degree", "-3"],
        ],
        ids=["mode-margin-inf", "mode-margin-0.5", "koiter-degree-0", "sweep-degree--3"],
    )
    def test_margin_and_degree_checked_by_every_command(self, tmp_path, capsys, argv):
        assert main(argv + ["--outdir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("ValueError: ") and err.count("\n") == 1, err
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize(
        "argv, name",
        [
            (["sweep", "--h-list", "0.5", "--L", "1e-300"], "ValueError"),
            (["ansatz", "--h-list", "0.5", "--L", "1e-300"], "ValueError"),
            (["ansatz", "--h-list", "1e-300"], "ValueError"),
        ],
        ids=["sweep-overflow", "ansatz-overflow", "ansatz-vanishing-norms"],
    )
    def test_arithmetic_failures_exit_one(self, tmp_path, capsys, argv, name):
        assert main(argv + ["--outdir", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(name + ": ") and captured.err.count("\n") == 1, captured.err
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize(
        "argv, L",
        [(argv, L) for L in ("1e-300", "1e300") for argv in (
            ["sweep", "--h-list", "0.5"], ["mode", "--h", "0.5"], ["critical-load", "--h", "0.5"],
            ["koiter", "--h", "0.5"])] + [(["ansatz", "--h-list", "0.5"], L) for L in ("1e-300", "1e300")],
        ids=lambda v: v if isinstance(v, str) else v[0],
    )
    def test_unrepresentable_length_is_named(self, tmp_path, capsys, argv, L):
        # 1e-300: pi m / L overflows the objective's m_hat**4; 1e300: the window's
        # m_max exceeds 2**53 and its int64 cast fails, and the ansatz's
        # destabilizing ratios underflow.  Either way one line that names L, and
        # no warning
        assert main(argv + ["--L", L, "--outdir", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"ValueError: L={float(L)!r} ") and captured.err.count("\n") == 1, captured.err
        assert os.listdir(tmp_path) == []

    def test_mode_names_an_overflowing_axial_target_as_the_window_does(self, tmp_path, capsys):
        # (2R)^alpha L / pi overflows; it is at most the window's m_top, so
        # mode prints the window's own line, as sweep and koiter do
        errors = []
        for argv in (["mode", "--h", "1e-300"], ["sweep", "--h-list", "1e-300"], ["koiter", "--h", "1e-300"]):
            assert main(argv + ["--L", "1e250", "--outdir", str(tmp_path)]) == 1
            captured = capsys.readouterr()
            assert captured.out == "" and os.listdir(tmp_path) == []
            errors.append(captured.err)
        want = ("ValueError: L=1e+250 is too long at h=1e-300: the window would span inf axial indices m, "
                "more than 2**53\n")
        assert errors == [want] * 3

    @pytest.mark.parametrize("tolerance", ["nan", "inf", "-1"])
    def test_koiter_tolerance_checked(self, tmp_path, capsys, tolerance):
        assert main(["koiter", "--h", "0.01", "--tolerance", tolerance, "--outdir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("ValueError: tolerance ") and err.count("\n") == 1, err
        assert os.listdir(tmp_path) == []

    def test_every_command_accepts_every_shared_flag(self):
        values = {"nu": "0.3", "L": "3", "h_list": "0.1", "margin": "3", "degree": "8",
                  "outdir": ".", "jobs": "1"}
        flags = [tok for s in SETTINGS for tok in ("--" + s.name.replace("_", "-"), values[s.name])]
        commands = ("critical-load", "sweep", "koiter", "korn", "ansatz", "equivalence", "mode", "verify")
        for command in commands:
            config = merge_config(build_parser().parse_args([command] + flags))
            assert (config.margin, config.degree, config.jobs) == (3.0, 8, 1)

    @pytest.mark.parametrize(
        "argv, name",
        [
            (["koiter", "--h", "0.01", "--tolerance", "1e-12"], "EmptySet"),
            # harmonic m + 2 = 12 lies outside the margin-1 window (11, 8)
            (["mode", "--h", "0.03", "--alpha", "1", "--margin", "1"], "WindowTooSmall"),
        ],
        ids=["koiter-tolerance", "mode-margin"],
    )
    def test_numerical_error_name_on_stderr(self, tmp_path, capsys, argv, name):
        code = main(argv + ["--outdir", str(tmp_path)])
        assert code == 2
        assert name in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [["sweep", "--h-list", "0.3", "--L", "1e5"], ["critical-load", "--h", "0.3", "--L", "1e5"]],
        ids=["sweep", "critical-load"],
    )
    def test_non_positive_minimum_is_numerical_failure(self, tmp_path, capsys, argv):
        # a long thick shell: the window's first reduced minimum, at (1, 1), is
        # -1.24e-7 (cancellation), so no critical strain can be reported
        assert main(argv + ["--outdir", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("SingularSystem: reduced minimum -1.2")
        assert "(m=1, n=1) is not positive" in captured.err
        assert captured.err.count("\n") == 1
        assert os.listdir(tmp_path) == []
