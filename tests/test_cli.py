import json
import math
import os

import pytest

import numpy as np

from cylbuck import cli
from cylbuck.cli import SETTINGS, build_parser, fmt, main, merge_config


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


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

    def test_vtk_bytes_match_the_scalar_writer(self, tmp_path):
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
        ]
        for k, (r, theta, z) in enumerate(grids):
            shape = (len(r), len(theta), len(z))
            phi = [rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape) for _ in range(3)]
            phi[0][0, 0, 0], phi[1][1, 2, 3] = -0.0, 0.0
            for i, p in enumerate(phi):
                p.flat[5 * i + 1:5 * i + 1 + len(special)] = special
            field = cli.modes_mod.DisplacementField(
                spec=None, r=r, theta=theta, z=z, phi_r=phi[0], phi_theta=phi[1], phi_z=phi[2],
            )
            cli.write_vtk(str(tmp_path / f"fast{k}.vtk"), field)
            scalar_writer(str(tmp_path / f"scalar{k}.vtk"), field)
            assert read(tmp_path / f"fast{k}.vtk") == read(tmp_path / f"scalar{k}.vtk")

            # the mode CSV: one row per point in the same order, each value fmt-ed
            nr, nt, nz = shape
            rows = ["r,theta,z,phi_r,phi_theta,phi_z"] + [
                ",".join(fmt(v) for v in (r[ir], theta[jt], z[kz], *(p[ir, jt, kz] for p in phi)))
                for kz in range(nz) for jt in range(nt) for ir in range(nr)
            ]
            cli.write_mode_csv(str(tmp_path / f"fast{k}.csv"), field)
            assert read(tmp_path / f"fast{k}.csv") == ("\n".join(rows) + "\n").encode()
        lines = read(tmp_path / "fast1.vtk").decode().splitlines()
        assert {"0.0", "-0.0"} <= {tok for ln in lines[6:6 + 80] for tok in ln.split()}
        assert {"nan", "-inf", "-5e-324", "1e+16", "9999999999999998.0", "1e-05", "0.0001"} <= set(lines)
        assert "-nan" not in lines

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


class TestConfigAndErrors:
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
            "nu": 0.25, "E": 2.0, "L": 3.0, "h_list": [0.1, 0.05], "margin": 2.5,
            "degree": 8, "outdir": "from-file", "jobs": cpus + 1,
        }
        from_flag = {
            "nu": ("0.35", 0.35), "E": ("4", 4.0), "L": ("5.5", 5.5),
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

    def test_jobs_defaults_to_cpu_count(self, tmp_path):
        parse = build_parser().parse_args
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"nu": 0.25}))
        assert merge_config(parse(["sweep"])).jobs == (os.cpu_count() or 1)
        assert merge_config(parse(["--config", str(cfg), "sweep"])).jobs == (os.cpu_count() or 1)
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
            ["koiter", "--h", "0.5"])] + [(["ansatz", "--h-list", "0.5"], "1e-300")],
        ids=lambda v: v if isinstance(v, str) else v[0],
    )
    def test_unrepresentable_length_is_named(self, tmp_path, capsys, argv, L):
        # 1e-300: pi m / L overflows the objective's m_hat**4; 1e300: the window's
        # m_max exceeds 2**53 and its int64 cast fails.  Either way one line that
        # names L, and no warning
        assert main(argv + ["--L", L, "--outdir", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"ValueError: L={float(L)!r} ") and captured.err.count("\n") == 1, captured.err
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("tolerance", ["nan", "inf", "-1"])
    def test_koiter_tolerance_checked(self, tmp_path, capsys, tolerance):
        assert main(["koiter", "--h", "0.01", "--tolerance", tolerance, "--outdir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("ValueError: tolerance ") and err.count("\n") == 1, err
        assert os.listdir(tmp_path) == []

    def test_every_command_accepts_every_shared_flag(self):
        values = {"nu": "0.3", "E": "1", "L": "3", "h_list": "0.1", "margin": "3", "degree": "8",
                  "outdir": ".", "jobs": "1"}
        flags = [tok for s in SETTINGS for tok in ("--" + s.name.replace("_", "-"), values[s.name])]
        commands = ("critical-load", "sweep", "koiter", "korn", "ansatz", "equivalence", "mode", "verify")
        for command in commands:
            config = merge_config(build_parser().parse_args([command] + flags))
            assert (config.margin, config.degree, config.jobs) == (3.0, 8, 1)

    def test_numerical_error_name_on_stderr(self, tmp_path, capsys):
        code = main(
            ["koiter", "--h", "0.01", "--tolerance", "1e-12", "--outdir", str(tmp_path)]
        )
        assert code == 2
        assert "EmptySet" in capsys.readouterr().err

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
