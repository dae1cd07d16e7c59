import json
import math

import numpy as np
import pytest

from conftest import chi_square_gof_pvalue

import circkde.simulate
from circkde.catalogue import get_model
from circkde.cli import main, read_angle_file
from circkde.em import EmConfig
from circkde.models import TWO_PI
from circkde.rng import derive_seed
from circkde.selectors import LCV, PI, RT
from circkde.simulate import ReferenceCell, select


def run_cli(*args):
    return main(list(args))


class TestModelsCommand:
    def test_lists_catalogue(self, capsys):
        assert run_cli("models") == 0
        out = capsys.readouterr().out
        listing = json.loads(out)
        assert len(listing) == 20
        m2 = next(e for e in listing if e["id"] == "M2")
        assert m2["components"][0]["family"] == "vonmises"
        assert m2["components"][0]["params"] == {"mu": math.pi, "kappa": 1.0}
        m14 = next(e for e in listing if e["id"] == "M14")
        assert [c["weight"] for c in m14["components"]] == [0.25] * 4
        assert all(c["params"]["kappa"] == 12.0 for c in m14["components"])

    def test_byte_identical(self, capsys):
        run_cli("models")
        first = capsys.readouterr().out
        run_cli("models")
        second = capsys.readouterr().out
        assert first == second


class TestSampleCommand:
    def test_empty_file_has_header(self, tmp_path):
        out = tmp_path / "empty.txt"
        assert run_cli("sample", "M1", "0", "--output", str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("#")
        assert all(line.startswith("#") for line in lines)

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        run_cli("sample", "M2", "5", "--seed", "42", "--output", str(a))
        run_cli("sample", "M2", "5", "--seed", "42", "--output", str(b))
        assert a.read_text() == b.read_text()

    def test_unknown_model(self, capsys):
        assert run_cli("sample", "M99", "5") == 1
        assert "unknown model" in capsys.readouterr().err

    def test_m16_goodness_of_fit(self, tmp_path):
        out = tmp_path / "m16.txt"
        assert run_cli("sample", "M16", "10000", "--seed", "1", "--output", str(out)) == 0
        sample = read_angle_file(str(out))
        assert sample.size == 10000
        assert chi_square_gof_pvalue(sample, get_model("M16"), arcs=36) > 0.001

    def test_degrees_round_trip(self, tmp_path):
        rad, deg = tmp_path / "r.txt", tmp_path / "d.txt"
        run_cli("sample", "M2", "50", "--seed", "7", "--output", str(rad))
        run_cli("sample", "M2", "50", "--seed", "7", "--degrees", "--output", str(deg))
        a = read_angle_file(str(rad))
        b = read_angle_file(str(deg), degrees=True)
        np.testing.assert_allclose(a, b, atol=1e-9)


def write_angles(path, values, header=""):
    lines = ([f"# {header}"] if header else []) + [str(v) for v in values]
    path.write_text("\n".join(lines) + "\n")


class TestFitCommand:
    def test_four_point_symmetric_degrees(self, tmp_path, capsys):
        f = tmp_path / "angles.txt"
        write_angles(f, [0, 90, 180, 270])
        out = tmp_path / "out"
        code = run_cli(
            "fit", str(f), "--degrees", "--selectors", "rt", "--output-dir", str(out),
            "--gridsize", "64",
        )
        assert code == 0
        report = json.loads((out / "fit_report.json").read_text())
        assert report["selectors"]["RT"]["nu"] == 0.0
        dens = np.loadtxt(out / "density_RT.csv", delimiter=",", skiprows=1)
        np.testing.assert_allclose(dens[:, 1], 1.0 / TWO_PI, rtol=1e-10)

    def test_malformed_line_reports_number(self, tmp_path, capsys):
        f = tmp_path / "bad.txt"
        f.write_text("1.0\n2.0\n# fine\n0.5\n1.1\n2.2\nabc\n0.1\n")
        assert run_cli("fit", str(f)) == 1
        err = capsys.readouterr().err
        assert "line 7" in err and "abc" in err

    def test_non_finite_rejected(self, tmp_path, capsys):
        f = tmp_path / "inf.txt"
        f.write_text("1.0\nnan\n")
        assert run_cli("fit", str(f)) == 1
        assert "line 2" in capsys.readouterr().err

    def test_too_few_angles(self, tmp_path, capsys):
        f = tmp_path / "one.txt"
        write_angles(f, [1.0])
        assert run_cli("fit", str(f)) == 1
        assert "at least 2" in capsys.readouterr().err

    def test_unreadable_file(self, capsys):
        assert run_cli("fit", "/nonexistent/angles.txt") == 1
        assert "cannot read" in capsys.readouterr().err

    def test_m7_fixture_bimodal(self, tmp_path, capsys):
        # 500 draws from the antipodal model: the mixture-reference selector
        # keeps both modes, the rule of thumb flattens them away.
        f = tmp_path / "m7.txt"
        run_cli("sample", "M7", "500", "--seed", "5", "--output", str(f))
        out = tmp_path / "fit"
        code = run_cli(
            "fit", str(f), "--selectors", "rt,pi", "--seed", "3", "--output-dir", str(out)
        )
        assert code == 0
        report = json.loads((out / "fit_report.json").read_text())
        assert report["selectors"]["PI"]["selected_m"] == 2
        assert not report["selectors"]["PI"]["fallback"]

        def local_maxima_above_uniform(path):
            dens = np.loadtxt(path, delimiter=",", skiprows=1)[:, 1]
            up = np.roll(dens, 1)
            down = np.roll(dens, -1)
            peaks = (dens > up) & (dens > down) & (dens > 1.2 / TWO_PI)
            return int(peaks.sum())

        assert local_maxima_above_uniform(out / "density_PI.csv") == 2
        assert local_maxima_above_uniform(out / "density_RT.csv") <= 1

    def test_density_files_integrate_to_one(self, tmp_path):
        f = tmp_path / "m2.txt"
        run_cli("sample", "M2", "120", "--seed", "9", "--output", str(f))
        out = tmp_path / "fit"
        assert run_cli("fit", str(f), "--selectors", "rt,lcv", "--output-dir", str(out)) == 0
        for name in ("RT", "LCV"):
            dens = np.loadtxt(out / f"density_{name}.csv", delimiter=",", skiprows=1)
            integral = dens[:, 1].sum() * TWO_PI / dens.shape[0]
            assert integral == pytest.approx(1.0, abs=1e-6)

    def test_rose_bins_sum_to_n(self, tmp_path):
        f = tmp_path / "m5.txt"
        run_cli("sample", "M5", "200", "--seed", "2", "--output", str(f))
        out = tmp_path / "fit"
        run_cli("fit", str(f), "--selectors", "rt", "--rose-bins", "18", "--output-dir", str(out))
        rose = np.loadtxt(out / "rose.csv", delimiter=",", skiprows=1)
        assert rose.shape[0] == 18
        assert int(rose[:, 2].sum()) == 200

    def test_report_nu_matches_select(self, tmp_path):
        f = tmp_path / "m7.txt"
        run_cli("sample", "M7", "200", "--seed", "8", "--output", str(f))
        out = tmp_path / "fit"
        assert run_cli("fit", str(f), "--seed", "3", "--output-dir", str(out)) == 0
        report = json.loads((out / "fit_report.json").read_text())
        sample = read_angle_file(str(f))
        em = EmConfig(seed=derive_seed(3, 11))
        for name in (RT, PI, LCV):
            assert report["selectors"][name]["nu"] == select(name, sample, em).nu

    def test_unit_round_trip_bandwidths(self, tmp_path):
        rad, deg = tmp_path / "r.txt", tmp_path / "d.txt"
        run_cli("sample", "M2", "100", "--seed", "4", "--output", str(rad))
        run_cli("sample", "M2", "100", "--seed", "4", "--degrees", "--output", str(deg))
        out_r, out_d = tmp_path / "fr", tmp_path / "fd"
        run_cli("fit", str(rad), "--selectors", "rt,lcv", "--output-dir", str(out_r))
        run_cli("fit", str(deg), "--degrees", "--selectors", "rt,lcv", "--output-dir", str(out_d))
        rep_r = json.loads((out_r / "fit_report.json").read_text())
        rep_d = json.loads((out_d / "fit_report.json").read_text())
        for sel in ("RT", "LCV"):
            assert rep_d["selectors"][sel]["nu"] == pytest.approx(
                rep_r["selectors"][sel]["nu"], abs=1e-9
            )


class TestSimulateCommand:
    def test_single_row(self, tmp_path, capsys):
        code = run_cli(
            "simulate", "--models", "M1", "--sizes", "100", "--replicates", "1",
            "--selectors", "rt", "--output-dir", str(tmp_path),
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "M1" in out
        report = json.loads((tmp_path / "simulation_report.json").read_text())
        assert len(report["cells"]) == 1
        assert (tmp_path / "simulation_report.txt").exists()

    def test_reference_failure_exit_code(self, tmp_path, capsys, monkeypatch):
        # corrupt the reference so the comparison must fail
        def corrupted():
            return {
                ("M1", 100, "RT"): ReferenceCell("M1", 100, "RT", 99.0, 0.0001),
            }

        monkeypatch.setattr(circkde.simulate, "load_reference_table", corrupted)
        code = run_cli(
            "simulate", "--models", "M1", "--sizes", "100", "--replicates", "2",
            "--selectors", "rt", "--output-dir", str(tmp_path), "--reference",
        )
        assert code == 2
        captured = capsys.readouterr()
        assert "M1 n=100 RT: FAIL" in captured.out
        assert "outside the reference window" in captured.err

    def test_bad_sizes(self, tmp_path, capsys):
        code = run_cli("simulate", "--sizes", "abc", "--output-dir", str(tmp_path))
        assert code == 1

    def test_unknown_selector(self, tmp_path):
        assert run_cli("simulate", "--selectors", "zz", "--output-dir", str(tmp_path)) == 1

    @pytest.mark.parametrize("extra", [(), ("--full",)])
    def test_zero_replicates_rejected(self, tmp_path, capsys, extra):
        code = run_cli("simulate", "--replicates", "0", *extra, "--output-dir", str(tmp_path))
        assert code == 1
        assert "circkde: error: replicates must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "simulation_report.json").exists()

    @pytest.mark.parametrize("sizes", ["0", "-5", "1", "100,1"])
    def test_sample_sizes_below_two_rejected(self, tmp_path, capsys, sizes):
        code = run_cli(
            "simulate", f"--sizes={sizes}", "--selectors", "lcv", "--replicates", "1",
            "--output-dir", str(tmp_path),
        )
        assert code == 1
        assert "circkde: error: sample sizes must be >= 2" in capsys.readouterr().err
        assert not (tmp_path / "simulation_report.json").exists()


class TestUsageErrors:
    def test_unknown_command_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("frobnicate")
        assert exc.value.code == 1

    def test_missing_required_arg_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("sample")
        assert exc.value.code == 1

    def test_bad_gridsize_exits_one(self, tmp_path):
        f = tmp_path / "x.txt"
        write_angles(f, [1.0, 2.0])
        with pytest.raises(SystemExit) as exc:
            run_cli("fit", str(f), "--gridsize", "1000")
        assert exc.value.code == 1
