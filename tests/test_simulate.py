import dataclasses
import json
import math

import numpy as np
import pytest

from circkde import bessel, simulate
from circkde.catalogue import get_model, model_index
from circkde.em import _LOCKSTEP_CELLS, EmConfig
from circkde.rng import derive_seed, make_rng
from circkde.kde import density_grid_of, oracle_mise_curve
from circkde.selectors import LCV, ORACLE, PI, RT, BandwidthResult, NuSearchDomain, lcv, plug_in, rule_of_thumb
from circkde.simulate import (
    CellResult,
    ExperimentConfig,
    ReferenceCell,
    SimulationReport,
    compare_to_reference,
    load_reference_table,
    run_experiment,
    select,
)


@pytest.fixture(scope="module")
def small_report():
    cfg = ExperimentConfig(
        models=("M2",), sample_sizes=(100,), replicates=8,
        selectors=(RT, PI, LCV, ORACLE), base_seed=99,
    )
    return cfg, run_experiment(cfg)


class TestRunExperiment:
    def test_deterministic(self, small_report):
        cfg, report = small_report
        again = run_experiment(cfg)
        a, b = report.to_dict(), again.to_dict()
        a["metadata"].pop("wall_time_s")
        b["metadata"].pop("wall_time_s")
        assert a == b

    def test_workers_do_not_change_results(self, cold_caches):
        # One chunk per size, so workers=2 forks a pool of two. Its workers
        # inherit the caches that the in-process run, started cold, filled.
        cfg = ExperimentConfig(
            models=("M2",), sample_sizes=(100, 250), replicates=8,
            selectors=(RT, PI, LCV, ORACLE), base_seed=99,
        )
        chunks = [-(-cfg.replicates // simulate._chunk_size(n, cfg.em.n_restarts)) for n in cfg.sample_sizes]
        assert chunks == [1, 1]
        serial = run_experiment(cfg).to_dict()
        pooled = run_experiment(cfg, workers=2).to_dict()
        for report in (serial, pooled):
            report["metadata"].pop("wall_time_s")
        assert pooled == serial

    def test_results_do_not_depend_on_workers_or_chunks(self, monkeypatch):
        # Each size's six samples form one chunk that crosses from M2 to M7;
        # chunks of 4 cross too and split M7's replicates, and chunks of 1
        # fit every sample alone.
        cfg = ExperimentConfig(
            models=("M2", "M7"), sample_sizes=(60, 100), replicates=3,
            selectors=(RT, PI, LCV), base_seed=5,
        )

        def run(workers):
            report = run_experiment(cfg, workers=workers).to_dict()
            report["metadata"].pop("wall_time_s")
            return report

        one = run(1)
        assert run(2) == one
        for size, workers in ((4, 2), (1, 1)):
            monkeypatch.setattr(simulate, "_CHUNK_SAMPLES", size)
            assert run(workers) == one

    @pytest.mark.parametrize(
        "change,pools",
        [({}, [2]), ({"sample_sizes": (100,)}, []), ({"selectors": (ORACLE,)}, [])],
        ids=["two-chunks", "one-chunk", "oracle-only"],
    )
    def test_pool_has_at_most_one_process_per_chunk(self, monkeypatch, change, pools):
        # Under the fork start method a pool starts all its processes at the first
        # submit, so one wider than the chunk list starts idle ones. This stand-in
        # records its size and maps in this process.
        import concurrent.futures

        pool_sizes = []

        class InProcessPool:
            def __init__(self, max_workers):
                pool_sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        cfg = dataclasses.replace(
            ExperimentConfig(models=("M2",), sample_sizes=(60, 100), replicates=2, selectors=(RT,), base_seed=3),
            **change,
        )
        serial = run_experiment(cfg).to_dict()
        pooled = run_experiment(cfg, workers=8).to_dict()
        assert pool_sizes == pools
        for report in (serial, pooled):
            report["metadata"].pop("wall_time_s")
        assert pooled == serial

    # The top of the ORACLE grid keeps K = 512 orders at n = 2,042,000 and
    # 513 at n = 2,043,000, where 2 K first exceeds 1,024 points.
    @pytest.mark.parametrize("n,gridsize", [(500, 1024), (2_042_000, 1024), (2_043_000, 2048)])
    def test_truth_gridsize(self, n, gridsize):
        assert simulate._truth_gridsize(n) == gridsize

    def test_cells_share_one_truth_grid_per_size(self, monkeypatch):
        # One truth per model and grid size; every ISE at n, the ORACLE's too, against the one of n.
        monkeypatch.setattr(simulate, "_truth_gridsize", {60: 2048, 100: 1024, 250: 1024}.get)
        built, used = [], set()

        def spy(name, record):
            real = getattr(simulate, name)
            monkeypatch.setattr(simulate, name, lambda *args: record(*args) or real(*args))

        spy("density_grid_of", lambda model, g: built.append((model.id, g)))
        spy("kde_grid", lambda fit, g: used.add((RT, fit.n, g)))
        spy("oracle_mise_curve", lambda samples, truth, _: used.add((ORACLE, samples[0].size, truth.gridsize)))
        cfg = ExperimentConfig(
            models=("M2", "M7"), sample_sizes=(60, 100, 250), replicates=2, selectors=(RT, ORACLE)
        )
        run_experiment(cfg)
        assert sorted(built) == [("M2", 1024), ("M2", 2048), ("M7", 1024), ("M7", 2048)]
        assert used == {(s, n, g) for s in (RT, ORACLE) for n, g in ((60, 2048), (100, 1024), (250, 1024))}

    def test_chunk_size(self):
        # The study's six smoke samples of each size form one chunk.
        assert simulate._chunk_size(250, 5) >= len(simulate.SMOKE_MODELS)
        assert simulate._chunk_size(100, 5) == simulate._CHUNK_SAMPLES
        n = _LOCKSTEP_CELLS // 5
        assert simulate._chunk_size(n, 5) == 1 and simulate._chunk_size(10 * n, 5) == 1
        assert simulate._chunk_size(n // 2, 5) == 2

    def test_single_replicate_row(self):
        cfg = ExperimentConfig(
            models=("M1",), sample_sizes=(100,), replicates=1, selectors=(RT,), base_seed=1
        )
        report = run_experiment(cfg)
        assert len(report.cells) == 1
        cell = report.cells[0]
        assert cell.sd_ise == 0.0
        assert cell.replicates == 1

    def test_oracle_mean_ise_decreases_with_n(self):
        cfg = ExperimentConfig(
            models=("M2",), sample_sizes=(100, 500), replicates=30,
            selectors=(ORACLE,), base_seed=3,
        )
        report = run_experiment(cfg)
        assert report.cell("M2", 500, ORACLE).mean_ise < report.cell("M2", 100, ORACLE).mean_ise

    def test_oracle_bounds_data_driven_selectors(self, small_report):
        _, report = small_report
        oracle = report.cell("M2", 100, ORACLE)
        for sel in (RT, PI, LCV):
            cell = report.cell("M2", 100, sel)
            slack = 2.0 * cell.sd_ise / math.sqrt(cell.replicates)
            assert oracle.mean_ise <= cell.mean_ise + slack

    def test_metadata(self, small_report):
        cfg, report = small_report
        assert report.metadata["base_seed"] == 99
        assert report.metadata["config_hash"] == cfg.config_hash()
        assert "wall_time_s" in report.metadata

    def test_json_round_trip(self, small_report):
        _, report = small_report
        loaded = tuple(CellResult(**c) for c in json.loads(report.to_json())["cells"])
        assert loaded == report.cells

    def test_table_rendering(self, small_report):
        _, report = small_report
        text = report.to_table()
        assert "n=100" in text and "M2" in text and "ORACLE" in text

    def test_oracle_edge_hit(self, small_report):
        # At 20 replicates M17's replicate-mean minimum at n = 500 is the grid's
        # largest nu, and M2's at n = 250 is interior.
        cfg = ExperimentConfig(
            models=("M2", "M17"), sample_sizes=(250, 500), replicates=20, selectors=(ORACLE,)
        )
        report = run_experiment(cfg)
        hit, interior = report.cell("M17", 500, ORACLE), report.cell("M2", 250, ORACLE)
        assert hit.oracle_edge_hit is True
        assert hit.oracle_nu == simulate.default_oracle_grid(500)[-1]
        assert interior.oracle_edge_hit is False
        assert interior.oracle_nu < simulate.default_oracle_grid(250)[-1]
        assert json.loads(report.to_json())["cells"][0]["oracle_edge_hit"] is not None
        lines = report.to_table().splitlines()
        assert next(line for line in lines if line.startswith("M17")).endswith("*")
        assert lines[-1].startswith("* ORACLE minimum at the largest nu")
        _, small = small_report
        assert all(c.oracle_edge_hit is None for c in small.cells if c.selector != ORACLE)
        assert "*" not in small.to_table()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(models=("M99",))
        with pytest.raises(ValueError):
            ExperimentConfig(replicates=0)
        with pytest.raises(ValueError):
            ExperimentConfig(selectors=("XX",))
        for n in (1, 0, -5):  # LCV needs two observations
            with pytest.raises(ValueError, match="sample sizes must be >= 2"):
                ExperimentConfig(sample_sizes=(100, n))

    @pytest.mark.parametrize(
        "change,message",
        [
            ({"models": ("M99",)}, "unknown model ids"),
            ({"selectors": ("XX",)}, "unknown selectors"),
            ({"sample_sizes": ("100",)}, "sample sizes must be integers"),
            ({"replicates": 2.5}, "replicates must be >= 1 and an integer"),
            ({"sample_sizes": (100.5,)}, "sample sizes must be integers"),
            ({"sample_sizes": (100, 250.0)}, "sample sizes must be integers"),
            ({"base_seed": 1.5}, "base_seed must be an integer"),
        ],
    )
    def test_config_rejected_at_construction(self, change, message):
        # Each is rejected when the config is built; the last four were once
        # accepted, and run_experiment failed on them later.
        with pytest.raises(ValueError, match=message):
            ExperimentConfig(**change)

    def test_config_hash_is_stable(self, small_report):
        # The hash of a config is part of every report; serializing the
        # config once per run must not change it.
        cfg, report = small_report
        assert ExperimentConfig().config_hash() == "1cfe8bca8b1db626"
        assert report.metadata["config_hash"] == cfg.config_hash() == "433152e0d05d96a4"

    def test_numpy_integers_hash_as_python_integers(self):
        plain = ExperimentConfig(replicates=3, sample_sizes=(100,), em=EmConfig(seed=4))
        numpy_ints = ExperimentConfig(
            replicates=np.int64(3), sample_sizes=(np.int64(100),), em=EmConfig(seed=np.int64(4))
        )
        assert numpy_ints.config_hash() == plain.config_hash()

    @pytest.mark.parametrize("field", ["models", "sample_sizes", "selectors"])
    def test_empty_grid_rejected(self, field):
        with pytest.raises(ValueError, match=f"{field} must not be empty"):
            ExperimentConfig(**{field: ()})

    @pytest.mark.parametrize(
        "field,values",
        [("models", ("M2", "M7", "M2")), ("sample_sizes", (100, np.int64(100))), ("selectors", (RT, RT))],
    )
    def test_repeated_entry_rejected(self, field, values):
        # Each copy would run, be listed and be gated, while report.cell()
        # returns only the first.
        with pytest.raises(ValueError, match=f"{field} must not repeat an entry"):
            ExperimentConfig(**{field: values})


class TestProcessCaches:
    """The nu grids and their kernel rows kept per process."""

    SIZES = (100, 250)

    def test_cached_arrays_are_read_only(self):
        grid = simulate.default_oracle_grid(100)
        rows = bessel._grid_coefficients(grid)
        for values in (grid, rows):
            with pytest.raises(ValueError, match="read-only"):
                values[0] = 0.5
        assert rows.shape == (grid.size, bessel._order_count(float(grid[-1])))

    def test_lcv_leaves_the_shared_rows_as_built(self):
        sample = get_model("M2").sample(100, make_rng(4))
        lcv(sample)
        grid = simulate.default_oracle_grid(100)
        assert np.array_equal(bessel._grid_coefficients(grid), bessel._kernel_coefficients(grid))

    def test_cold_and_warm_give_the_same_bits(self, cold_caches):
        cfg = ExperimentConfig(
            models=("M2", "M7"), sample_sizes=self.SIZES, replicates=2,
            selectors=(RT, PI, LCV, ORACLE), base_seed=11,
        )
        samples = [get_model("M7").sample(n, make_rng(6, n)) for n in self.SIZES]
        truth = density_grid_of(get_model("M7"), 1024)

        def outputs():
            report = run_experiment(cfg).to_dict()
            report["metadata"].pop("wall_time_s")
            curves = [
                oracle_mise_curve([s], truth, simulate.default_oracle_grid(s.size))
                for s in samples
            ]
            return report, [lcv(s) for s in samples], curves

        cold = outputs()
        warm = outputs()
        cold_caches()
        again = outputs()
        for other in (warm, again):
            assert other[:2] == cold[:2]
            assert all(np.array_equal(a, b) for a, b in zip(other[2], cold[2]))

    def test_no_model_state_leaks_into_the_next_run(self, cold_caches):
        def report(models):
            cfg = ExperimentConfig(
                models=models, sample_sizes=self.SIZES, replicates=3,
                selectors=(RT, LCV, ORACLE), base_seed=12,
            )
            out = run_experiment(cfg).to_dict()
            out["metadata"].pop("wall_time_s")
            return out

        report(("M2",))
        after_m2 = report(("M7",))
        cold_caches()
        assert after_m2 == report(("M7",))

    def test_custom_domain_after_the_default_one(self, cold_caches):
        sample = get_model("M7").sample(100, make_rng(9))
        # As many probes as the default grid, so only the grid's values tell the two apart.
        custom = NuSearchDomain(nu_min=0.5, nu_max=500.0, n_probes=50)
        lcv(sample)
        after_default = lcv(sample, custom)
        assert after_default.diagnostics["orders"] == bessel._order_count(500.0)
        assert after_default.diagnostics["orders"] != lcv(sample).diagnostics["orders"]
        cold_caches()
        assert lcv(sample, custom) == after_default


class TestSelect:
    @pytest.fixture(scope="class")
    def sample(self):
        return get_model("M7").sample(150, make_rng(5, 7))

    def test_matches_direct_calls(self, sample):
        em = EmConfig(seed=1)
        assert select(RT, sample, em).nu == rule_of_thumb(sample).nu
        assert select(PI, sample, em).nu == plug_in(sample, em).nu
        assert select(LCV, sample, em).nu == lcv(sample).nu

    def test_pi_follows_em_seed(self, sample):
        # seeds 1 and 2 start EM differently on this sample and pick different nu
        nus = [select(PI, sample, EmConfig(seed=seed)).nu for seed in (1, 2)]
        assert nus == [plug_in(sample, EmConfig(seed=seed)).nu for seed in (1, 2)]
        assert nus[0] != nus[1]

    @pytest.mark.parametrize("name", [RT, PI, LCV])
    def test_non_finite_sample_rejected(self, sample, name):
        bad = [*sample, math.nan]
        with pytest.raises(ValueError, match="finite"):
            select(name, bad, EmConfig(seed=1))

    @pytest.mark.parametrize("name", [ORACLE, "XX", "rt"])
    def test_unknown_name_rejected(self, sample, name):
        with pytest.raises(ValueError, match="unknown selector"):
            select(name, sample, EmConfig())

    def test_looks_up_selectors_at_call_time(self, sample, monkeypatch):
        # perfbench's tracer relies on this: it rebinds simulate.plug_in
        calls = []

        def fake_plug_in(s, cfg=None, domain=None):
            calls.append(cfg)
            return BandwidthResult(nu=1.5, selector=PI)

        monkeypatch.setattr(simulate, "plug_in", fake_plug_in)
        em = EmConfig(seed=123)
        assert select(PI, sample, em).nu == 1.5
        assert calls == [em]

    def test_study_goes_through_select(self, monkeypatch):
        calls = []

        def fake_lcv(s, domain=None):
            calls.append(s.size)
            return BandwidthResult(nu=2.0, selector=LCV)

        monkeypatch.setattr(simulate, "lcv", fake_lcv)
        cfg = ExperimentConfig(
            models=("M2",), sample_sizes=(50,), replicates=3, selectors=(LCV,), base_seed=1
        )
        (cell,) = run_experiment(cfg).cells
        assert calls == [50, 50, 50]
        assert cell.replicates == 3 and cell.errors == 0

    def test_selector_error_keeps_message_and_replay_key(self, monkeypatch):
        seeds = []

        def flaky_plug_in(s, cfg=None, domain=None):
            seeds.append(cfg.seed)
            if len(seeds) == 2:
                raise RuntimeError("no mixture for replicate 1")
            return BandwidthResult(nu=2.0, selector=PI)

        def failing_chunk(samples, seeds, cfg):
            raise RuntimeError("the chunk's PI failed")

        # The chunk's PI raises, so each replicate re-runs PI alone through select.
        monkeypatch.setattr(simulate, "plug_in_chunk", failing_chunk)
        monkeypatch.setattr(simulate, "plug_in", flaky_plug_in)
        cfg = ExperimentConfig(
            models=("M2",), sample_sizes=(50,), replicates=3, selectors=(PI,), base_seed=1
        )
        with pytest.warns(UserWarning, match="re-running it one sample at a time"):
            report = run_experiment(cfg)
        (cell,) = report.cells
        assert len(seeds) == 3
        assert cell.errors == 1 and cell.replicates == 2
        # the replay key: replicate 1's sample and EM seed are derived from it alone
        assert seeds[1] == derive_seed(1, model_index("M2"), 50, 1, 97)
        assert cell.first_error == {
            "model": "M2", "n": 50, "replicate": 1, "em_seed": seeds[1],
            "message": "RuntimeError: no mixture for replicate 1",
        }
        assert json.loads(report.to_json())["cells"][0]["first_error"] == cell.first_error
        # a reference centred on the observed value: the error alone fails the cell
        ref = {("M2", 50, PI): ReferenceCell("M2", 50, PI, 100 * cell.mean_ise, None)}
        (comp,) = compare_to_reference(report, ref)
        assert comp.passed is False
        assert comp.describe().endswith(
            f"; first error at model=M2 n=50 replicate=1 em_seed={seeds[1]}: "
            "RuntimeError: no mixture for replicate 1"
        )
        clean = dataclasses.replace(cell, errors=0, replicates=3, first_error=None)
        (comp,) = compare_to_reference(dataclasses.replace(report, cells=(clean,)), ref)
        assert comp.passed and "first error" not in comp.describe()


class TestReferenceTable:
    def test_transcription_spot_values(self):
        ref = load_reference_table()
        assert len(ref) == 240
        assert ref[("M7", 100, RT)].mise_x100 == 10.5487
        assert ref[("M7", 100, RT)].sd_x100 == 0.3990
        assert ref[("M5", 250, PI)].mise_x100 == 1.6012
        assert ref[("M5", 250, PI)].sd_x100 == 0.8717
        assert ref[("M2", 250, ORACLE)].mise_x100 == 0.2568
        assert ref[("M2", 250, ORACLE)].sd_x100 is None
        assert ref[("M7", 250, RT)].mise_x100 == 10.6753
        assert ref[("M13", 250, PI)].mise_x100 == 0.9456
        assert ref[("M20", 500, LCV)].mise_x100 == 1.1696

    def test_full_coverage(self):
        ref = load_reference_table()
        for n in (100, 250, 500):
            for i in range(1, 21):
                for sel in (ORACLE, RT, PI, LCV):
                    assert (f"M{i}", n, sel) in ref

    def test_published_orderings_in_reference(self):
        # antipodal-modes rows: plug-in reference values beat rule of thumb
        ref = load_reference_table()
        for n in (100, 250, 500):
            assert ref[("M7", n, PI)].mise_x100 < ref[("M7", n, RT)].mise_x100


def _report_with(cells):
    return SimulationReport(cells=tuple(cells), metadata={})


class TestCompare:
    def test_exact_match_passes_with_zero_z(self):
        ref = {("M2", 100, RT): ReferenceCell("M2", 100, RT, 0.5, 0.1)}
        report = _report_with(
            [CellResult("M2", 100, RT, mean_ise=0.005, sd_ise=0.0, replicates=100)]
        )
        (comp,) = compare_to_reference(report, ref)
        assert comp.passed and comp.z_score == 0.0

    def test_window_formula(self):
        # 200 replicates, k_sigma=3: window = 3 * sd/sqrt(200) + 10% of mean
        ref = {("M5", 250, PI): ReferenceCell("M5", 250, PI, 1.6012, 0.8717)}
        report = _report_with(
            [CellResult("M5", 250, PI, mean_ise=0.016012, sd_ise=0.0, replicates=200)]
        )
        (comp,) = compare_to_reference(report, ref)
        expected_window = 3 * 0.8717 / math.sqrt(200) + 0.10 * 1.6012
        assert comp.window == pytest.approx(expected_window, rel=1e-12)

    def test_out_of_window_fails(self):
        ref = {("M2", 100, RT): ReferenceCell("M2", 100, RT, 0.5, 0.01)}
        report = _report_with(
            [CellResult("M2", 100, RT, mean_ise=0.009, sd_ise=0.0, replicates=400)]
        )
        (comp,) = compare_to_reference(report, ref)
        assert comp.passed is False
        assert "FAIL" in comp.describe()

    def test_missing_reference_flagged_not_fatal(self):
        report = _report_with(
            [CellResult("M2", 100, RT, mean_ise=0.005, sd_ise=0.0, replicates=10)]
        )
        (comp,) = compare_to_reference(report, reference={})
        assert comp.passed is None
        assert "no reference" in comp.describe()

    def test_lost_replicates_fail_the_gate(self, small_report):
        cfg, report = small_report
        cell = report.cell("M2", 100, PI)
        # a reference centred on the observed value, so only lost replicates can fail
        ref = {("M2", 100, PI): ReferenceCell("M2", 100, PI, 100 * cell.mean_ise, 100 * cell.sd_ise)}
        variants = {
            None: cell,
            "1 selector errors": dataclasses.replace(cell, errors=1),
            f"7 of {cfg.replicates} replicates": dataclasses.replace(cell, replicates=7),
            f"1 selector errors; 7 of {cfg.replicates} replicates": dataclasses.replace(
                cell, errors=1, replicates=7
            ),
        }
        for reason, variant in variants.items():
            (comp,) = compare_to_reference(dataclasses.replace(report, cells=(variant,)), ref)
            assert comp.incomplete == reason
            assert comp.passed is (reason is None)
            assert ("FAIL (" + str(reason) + ")" in comp.describe()) is (reason is not None)

    def test_cell_without_replicates_fails_without_raising(self, small_report):
        _, report = small_report
        empty = CellResult("M2", 100, RT, mean_ise=math.nan, sd_ise=math.nan, replicates=0, errors=8)
        (comp,) = compare_to_reference(dataclasses.replace(report, cells=(empty,)))
        assert comp.passed is False
        assert "8 selector errors; 0 of 8 replicates" in comp.describe()
