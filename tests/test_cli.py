"""Sweep CSV contract, presets, validation harness, CLI exit codes."""

import csv
import io
import math
import sys
import threading
import time
from dataclasses import replace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import fdnoma.analytic as analytic
import fdnoma.mcsim as mcsim
import fdnoma.presets as presets
from fdnoma.analytic import OutagePoint
from fdnoma.cli import CsvRow, main, run_sweep, validate
from fdnoma.presets import MAX_GRID_POINTS, PRESET_NAMES, SweepSpec, figure_preset, linear_grid
from fdnoma.errors import ConfigError, NumericsError
from fdnoma.sysmodel import _SNR_DB_RANGE, SystemConfig, dump_config, loads_config

BASE = SystemConfig()


@pytest.fixture
def corrupted_kappa(monkeypatch):
    """Fault injection: every W-CDF term is linear in its kappa, so shrinking
    the kappas by 5% scales the W survival function by 0.95."""
    sf = analytic.sf_relay_ratio
    monkeypatch.setattr(analytic, "sf_relay_ratio", lambda x, **kw: 0.95 * sf(x, **kw))


def sweep_to_string(spec, cfg, **kw) -> str:
    buf = io.StringIO()
    run_sweep(spec, cfg, buf, **kw)
    return buf.getvalue()


class TestRunSweep:
    @pytest.mark.parametrize("users", [(0,), (2, 4), (True,)])
    def test_user_outside_the_users_is_rejected_before_any_cell(self, users, monkeypatch):
        # users=(0,) used to print user 3's Monte Carlo value as user 0's,
        # and users=(True,) user 1's as user True's
        monkeypatch.setattr(mcsim, "simulate_sweep", None)
        monkeypatch.setattr(analytic, "exact_outage_sweep", None)
        spec = SweepSpec(grid=(10.0,), methods=("exact", "monte_carlo"), users=users,
                         trials=20_000)
        buf = io.StringIO()
        with pytest.raises(ConfigError, match=f"user index {users[-1]} out of range 1..3"):
            run_sweep(spec, BASE, buf)
        assert buf.getvalue() == ""

    @pytest.mark.parametrize("methods,workers,error", [
        (("exact",), 0, ValueError),
        (("exact", "monte_carlo"), 0, ValueError),
        (("exact", "monte_carlo"), 2.5, TypeError),
    ], ids=["exact-0", "monte_carlo-0", "monte_carlo-2.5"])
    def test_bad_workers_is_rejected_before_anything_is_written(self, methods, workers, error,
                                                                monkeypatch):
        # an exact-only sweep used to take workers=0, and a simulation sweep
        # raised only after the header
        monkeypatch.setattr(mcsim, "simulate_sweep", None)
        monkeypatch.setattr(analytic, "exact_outage_sweep", None)
        spec = SweepSpec(grid=(10.0,), methods=methods, trials=20_000)
        buf = io.StringIO()
        with pytest.raises(error, match=rf"^workers must be an integer >= 1, got {workers}$"):
            run_sweep(spec, BASE, buf, workers=workers)
        assert buf.getvalue() == ""

    def test_single_point_exact_row_count(self):
        spec = SweepSpec(grid=(15.0,), methods=("exact",))
        text = sweep_to_string(spec, BASE)
        lines = text.strip().splitlines()
        assert len(lines) == 1 + BASE.n_users  # header + one row per user

    def test_row_order_and_columns(self):
        spec = SweepSpec(grid=(10.0, 20.0), methods=("monte_carlo", "exact"), trials=20_000)
        text = sweep_to_string(spec, BASE)
        lines = text.strip().splitlines()
        assert lines[0] == "axis_value,user,method,op,ci_low,ci_high,trials,wall_ms,error"
        # canonical order: exact before monte_carlo within each user
        first = lines[1].split(",")
        assert first[0] == "10" and first[1] == "1" and first[2] == "exact"
        assert lines[2].split(",")[2] == "monte_carlo"

    def test_rows_follow_the_method_table(self):
        scrambled = ("fd_oma", "asymptotic_practical", "monte_carlo", "exact", "hd_noma",
                     "asymptotic_ideal", "lower_bound")
        spec = SweepSpec(grid=(15.0,), methods=scrambled, trials=20_000)
        lines = sweep_to_string(spec, BASE).strip().splitlines()[1:]
        order = ("exact", "lower_bound", "asymptotic_ideal", "asymptotic_practical",
                 "monte_carlo", "hd_noma", "fd_oma")
        assert [line.split(",")[1:3] for line in lines] == [
            [str(user), method] for user in (1, 2, 3) for method in order
        ]

    def test_ci_fields_only_for_simulation(self):
        spec = SweepSpec(grid=(10.0,), methods=("exact", "monte_carlo"), trials=20_000)
        for line in sweep_to_string(spec, BASE).strip().splitlines()[1:]:
            cells = line.split(",")
            if cells[2] == "exact":
                assert cells[4] == "" and cells[5] == "" and cells[6] == ""
            else:
                assert float(cells[4]) <= float(cells[3]) <= float(cells[5])
                assert cells[6] == "20000"

    def test_float_round_trip_precision(self):
        spec = SweepSpec(grid=(12.5,), methods=("exact",))
        line = sweep_to_string(spec, BASE).strip().splitlines()[1]
        op = float(line.split(",")[1 + 2])
        direct = analytic.exact_outage(BASE, 12.5, 1).value
        assert op == direct  # 17 significant digits survive the round trip

    def test_byte_identical_reruns(self):
        spec = SweepSpec(grid=(10.0, 15.0), methods=("exact", "monte_carlo"), trials=30_000)
        assert sweep_to_string(spec, BASE) == sweep_to_string(spec, BASE)

    def test_byte_identical_across_worker_counts(self):
        spec = SweepSpec(grid=(10.0,), methods=("monte_carlo",), trials=2_500_000)
        texts = {sweep_to_string(spec, BASE, workers=w) for w in (1, 4, 16)}
        assert len(texts) == 1

    def test_wall_ms_blank_without_timings(self):
        spec = SweepSpec(grid=(10.0,), methods=("exact",))
        for line in sweep_to_string(spec, BASE).strip().splitlines()[1:]:
            assert line.split(",")[7] == ""

    def test_wall_ms_populated_with_timings(self):
        spec = SweepSpec(grid=(10.0,), methods=("exact",))
        lines = sweep_to_string(spec, BASE, timings=True).strip().splitlines()[1:]
        assert all(line.split(",")[7] != "" for line in lines)

    def test_wall_ms_times_each_cell(self, monkeypatch):
        def slow_for_user_2(cfg, snr_db, l):
            if l == 2:
                time.sleep(0.05)
            return analytic.OutagePoint(user=l, snr_db=snr_db, value=0.5, method="lower_bound")

        monkeypatch.setattr(analytic, "lower_bound_outage", slow_for_user_2)
        spec = SweepSpec(grid=(10.0,), methods=("lower_bound", "monte_carlo"), trials=20_000)
        for line in sweep_to_string(spec, BASE, timings=True).strip().splitlines()[1:]:
            cells = line.split(",")
            slow = cells[1] == "2" and cells[2] == "lower_bound"
            assert (int(cells[7]) >= 50) == slow, line

    def test_wall_ms_shares_the_exact_batch(self, monkeypatch):
        # every exact cell of the grid is one batch; each records an equal
        # share of it
        def slow_sweep(entries):
            time.sleep(0.05 * len(entries))
            return [analytic.OutagePoint(user=l, snr_db=snr, value=0.5, method="exact")
                    for _, snr, l, _ in entries]

        monkeypatch.setattr(analytic, "exact_outage_sweep", slow_sweep)
        spec = SweepSpec(grid=(10.0, 15.0), methods=("exact", "lower_bound"))
        lines = sweep_to_string(spec, BASE, timings=True).strip().splitlines()[1:]
        exact = [int(line.split(",")[7]) for line in lines if line.split(",")[2] == "exact"]
        assert len(exact) == 6 and min(exact) >= 50 and max(exact) - min(exact) <= 1

    def test_failing_point_leaves_the_other_exact_cells(self, monkeypatch):
        # at alpha_si = 1e-20 and 15 dB every Phi integrand at mu = 0.5
        # peaks below the node span; mu = 0.75 and 1 resolve
        cfg = replace(BASE, alpha_si=1e-20)
        spec = SweepSpec(axis="mu", grid=(0.5, 0.75, 1.0), methods=("exact",), snr_db=15.0)
        alone = [line for x in spec.grid
                 for line in sweep_to_string(replace(spec, grid=(x,)), cfg).splitlines()[1:]]
        assert [bool(line.split(",")[8]) for line in alone] == [True] * 3 + [False] * 6
        assert sweep_to_string(spec, cfg).splitlines()[1:] == alone
        monkeypatch.setattr(analytic, "_PHI_ROW_CAP", 5)
        assert sweep_to_string(spec, cfg).splitlines()[1:] == alone

    def test_cell_shows_only_its_own_methods_error(self, tmp_path):
        # the squared HD rule is infeasible for the default power split
        def cells(*argv, hd_rule="squared"):
            out = tmp_path / "out.csv"
            assert main(["sweep", "--grid", "10:10:5", "--trials", "10000", "--out", str(out),
                         "--hd-rule", hd_rule, *argv]) == 0
            rows = out.read_text(encoding="utf-8").splitlines()[1:]
            return {m: [r for r in rows if r.split(",")[2] == m]
                    for m in ("exact", "monte_carlo", "hd_noma")}

        mixed = cells("--methods", "exact,monte_carlo,hd_noma")
        assert mixed["exact"] == cells("--methods", "exact")["exact"]
        assert mixed["monte_carlo"] == cells("--methods", "exact,monte_carlo,hd_noma",
                                             hd_rule="equal")["monte_carlo"]
        assert len(mixed["hd_noma"]) == BASE.n_users
        for row in mixed["hd_noma"]:
            assert row.split(",")[3] == "" and "-0.805 <= 0" in row

    def test_one_pool_per_sweep(self, monkeypatch, recording_pool):
        monkeypatch.setattr(mcsim, "CHUNK_TRIALS", 20_000)
        spec = SweepSpec(axis="d_sr", grid=(0.3, 0.5, 0.7), methods=("monte_carlo",),
                         trials=50_000, snr_db=15.0)
        sweep_to_string(spec, BASE, workers=2)
        assert recording_pool == [2]

    def test_small_si_power_resolves_to_the_no_si_outage(self):
        # at mu=0 and alpha_si=1e-6 the SI term is negligible: the exact form
        # gives the no-SI outage that Monte Carlo and the HD-NOMA quadrature
        # of acceptance criterion 5 give (0.20887, 0.01900, 0.00318)
        cfg = replace(BASE, mu=0.0, alpha_si=1e-6)
        spec = SweepSpec(grid=(15.0,), methods=("exact",))
        ops = [float(line.split(",")[3])
               for line in sweep_to_string(spec, cfg).strip().splitlines()[1:]]
        assert ops == pytest.approx([0.208871, 0.019005, 0.003181], abs=1e-4)

    def test_underflowing_exact_form_becomes_error_rows(self):
        # at a vanishing SI power every Phi integrand peaks below the node
        # span; the form must flag the point instead of printing a number
        cfg = replace(BASE, mu=0.0, alpha_si=1e-20)
        spec = SweepSpec(grid=(15.0,), methods=("exact",))
        for line in sweep_to_string(spec, cfg).strip().splitlines()[1:]:
            cells = line.split(",")
            assert cells[3] == "" and "phi quadrature failed" in cells[8]

    def test_partial_failure_becomes_error_row(self):
        # mu sweep reaching mu values whose feasibility is fine but whose
        # method is invalid for the config: asymptotic_ideal rejects
        # practical impairments, so those cells carry the error column
        cfg = replace(BASE, sigma2_est_sr=0.01)
        spec = SweepSpec(grid=(10.0,), methods=("exact", "asymptotic_ideal"))
        lines = sweep_to_string(spec, cfg).strip().splitlines()[1:]
        by_method = {line.split(",")[2]: line for line in lines if line.split(",")[1] == "1"}
        assert by_method["exact"].split(",")[3] != ""
        err_cells = by_method["asymptotic_ideal"].split(",")
        assert err_cells[3] == "" and "impairments" in err_cells[8]

    @pytest.mark.parametrize("var", figure_preset("fig4") + figure_preset("fig5"),
                             ids=lambda var: var.label)
    def test_sub_grid_prints_the_full_grid_monte_carlo_rows(self, var, monkeypatch):
        # acceptance criterion 1 sweeps each fig4/fig5 curve up to 30 dB;
        # every point rescales the same draws, so its rows are the preset's
        # (three chunks here, the last one partial)
        monkeypatch.setattr(mcsim, "CHUNK_TRIALS", 10_000)
        full = replace(var.sweep, methods=("monte_carlo",), trials=25_000)
        sub = replace(full, grid=tuple(s for s in full.grid if s <= 30.0))
        assert len(sub.grid) < len(full.grid)
        rows = run_sweep(full, var.config, io.StringIO())
        assert run_sweep(sub, var.config, io.StringIO()) == [
            r for r in rows if r.axis_value in sub.grid
        ]

    def test_snr_outside_the_float_range_fills_only_its_own_cells(self):
        spec = SweepSpec(grid=linear_grid(0, 3100, 3100), trials=10_000,
                         methods=("exact", "lower_bound", "monte_carlo"))
        rows = run_sweep(spec, BASE, io.StringIO())
        assert [r.axis_value for r in rows] == [0.0] * 9 + [3100.0] * 9
        for r in rows:
            assert (r.op is None and "snr_db=3100 is outside" in r.error) == (r.axis_value == 3100)

    def test_d_sr_axis_mirrors_user_distance(self):
        spec = SweepSpec(axis="d_sr", grid=(0.3, 0.5), methods=("exact",), snr_db=15.0)
        text = sweep_to_string(spec, BASE)
        assert len(text.strip().splitlines()) == 1 + 2 * BASE.n_users


class TestCsvRow:
    def test_every_field_set(self):
        row = CsvRow(axis_value=0.1, user=2, method="monte_carlo", op=0.25, ci_low=1 / 3,
                     ci_high=0.5, trials=20_000, wall_ms=7, error="")
        assert row.formatted() == ["0.10000000000000001", "2", "monte_carlo", "0.25",
                                   "0.33333333333333331", "0.5", "20000", "7", ""]

    def test_none_fields_are_empty(self):
        row = CsvRow(axis_value=10, user=1, method="exact", op=None, error="n_r, too large")
        assert row.formatted() == ["10", "1", "exact", "", "", "", "", "", "n_r, too large"]


class TestSweepSpec:
    @pytest.mark.parametrize("grid", [(0.0, math.nan, 10.0), (math.nan,), (0.0, math.inf),
                                      (-math.inf, 0.0)], ids=["nan-inside", "nan", "inf", "-inf"])
    def test_non_finite_grid_value_rejected(self, grid):
        # a NaN passed the strictly-increasing check (every comparison with
        # it is false), and the sweep printed error cells
        with pytest.raises(ConfigError, match=r"^sweep grid values must be finite, got "):
            SweepSpec(grid=grid)

    @pytest.mark.parametrize("grid", [(10.0, 5.0), (5.0, 5.0)])
    def test_grid_not_increasing_rejected(self, grid):
        with pytest.raises(ConfigError, match=r"^sweep grid must be strictly increasing$"):
            SweepSpec(grid=grid)

    def test_unknown_hd_rule_rejected(self):
        # it used to pass, and run_sweep wrote the header before a bare ValueError
        with pytest.raises(ConfigError, match=r"^unknown hd_rule 'Squared'; choose from "
                                              r"\('equal', 'squared'\)$"):
            SweepSpec(grid=(10.0,), methods=("hd_noma",), hd_rule="Squared")

    @pytest.mark.parametrize("kwargs,message", [
        ({"trials": 100}, r"trials must be an integer >= 10000, got 100"),
        ({"trials": 10.5}, r"trials must be an integer >= 10000, got 10.5"),
        ({"trials": mcsim.MIN_TRIALS - 1}, r"trials must be an integer >= 10000, got 9999"),
        ({"seed": -1}, r"seed must be an integer >= 0, got -1"),
        ({"seed": 1.5}, r"seed must be an integer >= 0, got 1.5"),
    ], ids=["trials100", "trials10.5", "trials9999", "seed-1", "seed1.5"])
    def test_bad_trials_or_seed_rejected(self, kwargs, message):
        # they used to pass, and run_sweep wrote the header before a bare
        # ValueError or TypeError
        with pytest.raises(ConfigError, match=rf"^{message}$"):
            SweepSpec(grid=(10.0,), methods=("exact", "monte_carlo"), **kwargs)

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_unknown_hd_rule_is_exit_1(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--grid", "10:10:5", "--methods", "hd_noma", "--hd-rule", "Squared"])
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --hd-rule: invalid choice: 'Squared' (choose from 'equal', 'squared')" \
            in captured.err


class TestPresets:
    def test_unknown_preset_lists_available(self):
        with pytest.raises(ConfigError, match="fig3"):
            figure_preset("fig99")

    def test_variant_selection(self):
        (only,) = figure_preset("fig4:mu0.25")
        assert only.config.mu == 0.25

    def test_unknown_variant_lists_labels(self):
        with pytest.raises(ConfigError, match="mu0.25"):
            figure_preset("fig4:bogus")

    def test_fig3_parameters(self):
        variants = figure_preset("fig3")
        assert [v.config.n_b for v in variants] == [2, 3]
        for v in variants:
            assert v.config.mu == 1.0
            assert v.config.m_sr == v.config.m_rr == v.config.m_ru[0] == 1
            assert v.config.sigma2_est_sr == 0.0

    def test_fig6_parameters(self):
        for v in figure_preset("fig6"):
            assert v.config.sigma2_est_sr == 0.01
            assert v.config.sigma2_est_ru == (0.01,) * 3
            assert v.config.fd_tau_sr == 0.03
            assert v.config.mu == 0.25

    def test_fig9_protocol(self):
        (v,) = figure_preset("fig9")
        assert v.sweep.axis == "mu"
        assert v.sweep.snr_db == 15.0
        assert v.sweep.hd_rule == "equal"
        assert "hd_noma" in v.sweep.methods

    def test_fig10_impairment_on_examined_link(self):
        variants = {v.label: v for v in figure_preset("fig10")}
        sr = variants["sr_nb2"]
        assert sr.sweep.axis == "sigma2_est_sr" and sr.config.fd_tau_sr == 0.03
        assert sr.config.fd_tau_ru == (0.0,) * 3
        ru = variants["ru_nb2"]
        assert ru.sweep.axis == "sigma2_est_ru" and ru.config.fd_tau_ru == (0.03,) * 3
        assert ru.config.fd_tau_sr == 0.0

    def test_fig8_testbed_parameters(self):
        (v,) = figure_preset("fig8")
        assert v.config.a == (0.761, 0.191, 0.048)
        assert v.config.gamma_th == (2.0, 2.5, 3.0)
        assert v.config.m_sr == 0.98
        assert v.sweep.methods == ("monte_carlo",)

    def test_every_preset_config_round_trips(self):
        for name in PRESET_NAMES:
            for v in figure_preset(name):
                assert loads_config(dump_config(v.config)) == v.config

    def test_grids_strictly_increasing(self):
        for name in PRESET_NAMES:
            for v in figure_preset(name):
                g = v.sweep.grid
                assert all(a < b for a, b in zip(g, g[1:]))

    @pytest.mark.parametrize("stop,step", [(40.0, 1e-7), (1e300, 1.0), (1e308, 1e-300)])
    def test_oversized_grid_is_rejected_before_it_is_built(self, stop, step, monkeypatch):
        # the count comes first: not one point is made
        def no_point(*args):
            raise AssertionError("a grid point was made")

        monkeypatch.setattr(presets, "round", no_point, raising=False)
        with pytest.raises(ConfigError, match=f"more than the {MAX_GRID_POINTS} a sweep takes"):
            linear_grid(0.0, stop, step)

    def test_grid_of_the_maximum_size_is_built(self):
        grid = linear_grid(0.0, MAX_GRID_POINTS - 1.0, 1.0)
        assert len(grid) == MAX_GRID_POINTS and grid[-1] == MAX_GRID_POINTS - 1
        with pytest.raises(ConfigError, match=f"has {MAX_GRID_POINTS + 1} points"):
            linear_grid(0.0, float(MAX_GRID_POINTS), 1.0)

    def test_fig4_outage_improves_with_si_cancellation(self):
        # across the fig4 curve families, OP is nondecreasing in mu at any
        # fixed point of the grid
        variants = figure_preset("fig4")
        for snr in (10.0, 25.0):
            for l in (1, 2, 3):
                ops = [analytic.exact_outage(v.config, snr, l).value for v in variants]
                assert all(a <= b + 1e-12 for a, b in zip(ops, ops[1:]))


class TestValidate:
    def test_passing_run(self):
        lines, ok = validate(BASE, (5.0, 10.0), trials=200_000, seed=1)
        assert ok
        assert all(line.status == "ok" for line in lines)

    def test_insufficient_trials_flagged_not_failed(self):
        # tiny outage at high SNR cannot be resolved with few trials
        lines, ok = validate(BASE, (40.0,), trials=10_000, seed=3)
        assert ok
        agreement = [l for l in lines if l.check == "mc_agreement" and l.user >= 2]
        assert any(l.status == "insufficient trials" for l in agreement)

    def test_corrupted_kappa_detected(self, corrupted_kappa):
        # shrinking the W-CDF coefficients inflates the bound above the
        # exact outage, which the harness must flag
        lines, ok = validate(BASE, (25.0,), trials=50_000, seed=1)
        assert not ok
        assert any(l.check == "bound_ordering" and l.status == "fail" for l in lines)

    def test_agreement_level_corrected_for_line_count(self, monkeypatch):
        simulate = mcsim.simulate_outage_all
        levels = []

        def recording(*args, **kwargs):
            levels.append(kwargs["conf"])
            return simulate(*args, **kwargs)

        monkeypatch.setattr(mcsim, "simulate_outage_all", recording)
        validate(BASE, (5.0, 10.0), trials=20_000, seed=1, conf=0.99)
        assert levels == [1.0 - 0.01 / 6] * 2  # two points, three users

    @staticmethod
    def _fake_simulation(monkeypatch, outages):
        """Replace the Monte Carlo estimate of user l by outages[l] outages
        out of the trials validate asks for."""

        def fake(cfg, snr_db, trials, rng=0, workers=1, conf=0.95, **kw):
            return {"monte_carlo": [
                OutagePoint(l, snr_db, k / trials, "monte_carlo",
                            ci=mcsim.wilson_interval(k, trials, conf))
                for l, k in sorted(outages.items())
            ]}

        monkeypatch.setattr(mcsim, "simulate_outage_all", fake)

    def test_thin_success_tail_is_insufficient_not_failed(self, monkeypatch):
        # default config at 0 dB: user 1's exact OP is 0.99999981, so 4e6
        # trials expect ~0.76 successes; 4 seen is Poisson noise, not a fault
        trials = 4_000_000
        exact = {l: analytic.exact_outage(BASE, 0.0, l).value for l in (1, 2, 3)}
        assert trials * (1.0 - exact[1]) < 1.0
        self._fake_simulation(monkeypatch, {1: trials - 4, 2: round(trials * exact[2]),
                                            3: round(trials * exact[3])})
        lines, ok = validate(BASE, (0.0,), trials=trials)
        agreement = {l.user: l for l in lines if l.check == "mc_agreement"}
        assert agreement[1].status == "insufficient trials"
        assert "expected successes 0.8" in agreement[1].detail
        assert "exact=0.99999981" in agreement[1].detail and "mc=0.999999)" in agreement[1].detail
        assert [agreement[l].status for l in (2, 3)] == ["ok", "ok"]
        assert ok

    def test_thick_line_outside_its_interval_still_fails(self, monkeypatch):
        trials = 4_000_000
        exact = {l: analytic.exact_outage(BASE, 0.0, l).value for l in (1, 2, 3)}
        # user 3 expects ~4,550 successes; a 1% shift of the estimate is ~15 sigma
        self._fake_simulation(monkeypatch, {1: trials, 2: round(trials * exact[2]),
                                            3: round(trials * (exact[3] - 0.01))})
        lines, ok = validate(BASE, (0.0,), trials=trials)
        agreement = {l.user: l for l in lines if l.check == "mc_agreement"}
        assert agreement[3].status == "fail"
        assert f"exact={exact[3]:.10g}" in agreement[3].detail
        assert agreement[1].status == "insufficient trials"
        assert not ok

    def test_bound_ordering_detail_resolves_a_value_near_one(self):
        # default config, 0 dB: user 1's exact OP is 0.99999981, which six
        # significant digits would print as 1
        lines, _ = validate(BASE, (0.0,), trials=mcsim.MIN_TRIALS)
        exact = analytic.exact_outage(BASE, 0.0, 1).value
        lb = analytic.lower_bound_outage(BASE, 0.0, 1).value
        (line,) = [l for l in lines if l.check == "bound_ordering" and l.user == 1]
        assert line.status == "ok"
        assert line.detail == f"lb={lb:.10g} <= exact={exact:.10g}"
        assert "exact=0.9999998106" in line.detail

    def test_lines_do_not_depend_on_workers(self):
        # each run starts on empty closed-form caches, so that threads miss
        # them together, and switches threads often
        def run(workers):
            for name in dir(analytic):
                getattr(getattr(analytic, name), "cache_clear", lambda: None)()
            return validate(BASE, (0.0, 10.0, 20.0, 30.0), trials=20_000, seed=5,
                            workers=workers)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            runs = [run(w) for w in (1, 2, 3)]
        finally:
            sys.setswitchinterval(interval)
        assert runs[1] == runs[0] and runs[2] == runs[0]

    def test_workers_start_no_process(self, monkeypatch):
        # with two chunks per point, a process pool per point would be built
        # if the workers reached the simulator
        def no_pool(*args, **kwargs):
            raise AssertionError("validate started a process pool")

        monkeypatch.setattr(mcsim, "ProcessPoolExecutor", no_pool)
        monkeypatch.setattr(mcsim, "CHUNK_TRIALS", 10_000)
        lines, ok = validate(BASE, (5.0, 10.0), trials=20_000, seed=1, workers=2)
        assert ok and len(lines) == 2 * 2 * BASE.n_users

    def test_failing_point_raises_the_same_error_at_any_workers(self, monkeypatch, capsys):
        # points 10 and 20 dB both fail; the first in grid order is reported
        exact = analytic.exact_outage

        def failing(cfg, snr_db, l, *args, **kwargs):
            if snr_db >= 10.0:
                raise NumericsError(f"no value at {snr_db} dB")
            return exact(cfg, snr_db, l, *args, **kwargs)

        monkeypatch.setattr(analytic, "exact_outage", failing)
        seen = []
        for workers in ("1", "2"):
            code = main(["validate", "--grid", "0:20:10", "--trials", "10000",
                         "--workers", workers])
            seen.append((code, capsys.readouterr()))
        assert seen[0] == seen[1]
        code, captured = seen[0]
        assert code == 3 and captured.out == ""
        assert captured.err == "fdnoma: numeric failure: no value at 10.0 dB\n"

    @pytest.mark.parametrize("workers,helpers", [(1, 0), (2, 1), (3, 1)])
    def test_caller_runs_points_beside_workers_minus_one_helpers(self, workers, helpers,
                                                                 monkeypatch):
        # two grid points: workers=3 needs no more threads than workers=2
        made = []

        class Recorded(threading.Thread):
            def __init__(self, *args, **kwargs):
                if workers == 1:
                    raise AssertionError("validate made a thread at workers=1")
                made.append(self)
                super().__init__(*args, **kwargs)

        on_caller = []
        simulate = mcsim.simulate_outage_all

        def recording(*args, **kwargs):
            on_caller.append(threading.current_thread() is threading.main_thread())
            return simulate(*args, **kwargs)

        monkeypatch.setattr(threading, "Thread", Recorded)
        monkeypatch.setattr(mcsim, "simulate_outage_all", recording)
        lines, ok = validate(BASE, (5.0, 10.0), trials=10_000, seed=1, workers=workers)
        assert len(made) == helpers and not any(t.is_alive() for t in made)
        assert len(on_caller) == 2 and any(on_caller)
        assert len(lines) == 2 * 2 * BASE.n_users

    def test_failing_helper_point_stops_the_grid_and_raises_on_the_caller(self, monkeypatch):
        # the caller's point waits until the helper's point has failed and
        # the helper has stopped, so that exactly two of four points start
        simulate = mcsim.simulate_outage_all
        caller_started, helper_failed = threading.Event(), threading.Event()
        started, helpers, failed_at = [], [], []

        def patched(cfg, snr_db, *args, **kwargs):
            started.append(snr_db)
            if threading.current_thread() is threading.main_thread():
                caller_started.set()
                assert helper_failed.wait(60)
                helpers[0].join(60)
                return simulate(cfg, snr_db, *args, **kwargs)
            helpers.append(threading.current_thread())
            failed_at.append(snr_db)
            assert caller_started.wait(60)
            helper_failed.set()
            raise NumericsError(f"no estimate at {snr_db} dB")

        unhandled = []
        monkeypatch.setattr(threading, "excepthook", unhandled.append)
        monkeypatch.setattr(mcsim, "simulate_outage_all", patched)
        with pytest.raises(NumericsError) as exc:
            validate(BASE, (0.0, 10.0, 20.0, 30.0), trials=10_000, workers=2)
        assert sorted(started) == [0.0, 10.0]
        assert len(helpers) == 1 and not helpers[0].is_alive()
        assert str(exc.value) == f"no estimate at {failed_at[0]} dB"
        assert unhandled == []

    def test_empty_grid_is_rejected(self):
        with pytest.raises(ConfigError, match=r"at least one grid point, got \(\)"):
            validate(BASE, (), trials=10_000)

    @pytest.mark.parametrize("conf", [0.0, -1.0, 1.0, 1.5, float("nan")])
    def test_confidence_outside_the_unit_interval_is_rejected(self, conf, monkeypatch):
        # checked at entry, and named as given, not as the per-line level
        def no_point(*args, **kwargs):
            raise AssertionError("a grid point was evaluated")

        monkeypatch.setattr(mcsim, "simulate_outage_all", no_point)
        with pytest.raises(ValueError, match=rf"must lie in \(0, 1\), got {conf!r}$"):
            validate(BASE, (10.0,), trials=10_000, conf=conf)

    @pytest.mark.parametrize("kwargs,error,message", [
        ({"tolerance": -1.0}, ValueError, r"tolerance must be finite and > 0, got -1.0$"),
        ({"tolerance": 0.0}, ValueError, r"tolerance must be finite and > 0, got 0.0$"),
        ({"tolerance": float("nan")}, ValueError, r"tolerance must be finite and > 0, got nan$"),
        ({"tolerance": float("inf")}, ValueError, r"tolerance must be finite and > 0, got inf$"),
        ({"workers": 0}, ValueError, r"workers must be an integer >= 1, got 0$"),
        ({"workers": 2.5}, TypeError, r"workers must be an integer >= 1, got 2.5$"),
    ], ids=["tolerance-1", "tolerance0", "tolerance_nan", "tolerance_inf", "workers0",
            "workers2.5"])
    def test_bad_tolerance_or_workers_is_rejected(self, kwargs, error, message, monkeypatch):
        # checked at entry, as conf is: no grid point runs
        def no_point(*args, **kwargs):
            raise AssertionError("a grid point was evaluated")

        monkeypatch.setattr(mcsim, "simulate_outage_all", no_point)
        with pytest.raises(error, match=message):
            validate(BASE, (10.0, 20.0, 30.0), trials=10_000, **kwargs)

    def test_slope_check_runs_on_wide_ideal_grid(self):
        lines, ok = validate(BASE, (25.0, 30.0, 35.0), trials=50_000, seed=3)
        assert any(l.check == "high_snr_slope" for l in lines)
        # one point within 10 dB of the top: no slope can be fitted
        lines, ok = validate(BASE, (0.0, 15.0, 30.0), trials=10_000, seed=3)
        assert not any(l.check == "high_snr_slope" for l in lines)


class TestMainExitCodes:
    def test_usage_error_is_exit_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--bogus-flag"])
        assert exc.value.code == 1

    def test_unknown_preset_is_exit_2(self, capsys):
        assert main(["analyze", "--preset", "fig99", "--grid", "0:10:5"]) == 2

    def test_config_error_is_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("n_b = -3\n")
        assert main(["analyze", "--config", str(bad), "--grid", "0:10:5"]) == 2

    def test_non_finite_config_value_is_exit_2(self, tmp_path, capsys):
        # a NaN estimation error once gave Monte Carlo OP 0 for every user
        bad = tmp_path / "nan.cfg"
        bad.write_text("sigma2_est_sr = nan\n")
        argv = ["simulate", "--config", str(bad), "--grid", "10:10:5", "--trials", "10000"]
        assert main(argv) == 2
        assert "sigma2_est_sr must be finite, got nan" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["analyze", "simulate", "validate"])
    def test_count_beyond_the_float_range_is_exit_2(self, command, tmp_path, capsys):
        # n_r = 10**400 overflowed in the finiteness check with a traceback
        cfg = tmp_path / "big.cfg"
        cfg.write_text(f"n_r = {10**400}\n")
        trials = [] if command == "analyze" else ["--trials", "10000"]
        assert main([command, "--config", str(cfg), "--grid", "10:10:5", *trials]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"fdnoma: config error: {cfg}: n_r must be <= "
                                f"1.7976931348623157e+308, got {10**400}\n")

    def test_count_inside_the_float_range_is_evaluated(self, tmp_path, capsys):
        # Monte Carlo prints its values; the closed form its degree limit
        cfg = tmp_path / "big.cfg"
        cfg.write_text(f"n_r = {10**300}\n")
        assert main(["sweep", "--config", str(cfg), "--grid", "10:10:5", "--trials", "10000",
                     "--users", "1", "--methods", "exact,monte_carlo"]) == 0
        exact, mc = list(csv.reader(io.StringIO(capsys.readouterr().out)))[1:]
        assert exact[3] == "" and "requires m_ru*n_r*n_users <= 24" in exact[8]
        assert 0.0 < float(mc[3]) < 1.0 and mc[8] == ""

    @pytest.mark.parametrize("text", ["d_sr = 1e-80", "d_ru = 1e-80, 1e-80, 1e-80"])
    @pytest.mark.parametrize("command", ["analyze", "simulate", "validate"])
    def test_mean_power_outside_the_float_range_is_exit_2(self, command, text, tmp_path, capsys):
        # d^-eta overflowed with a traceback in every command
        cfg = tmp_path / "near.cfg"
        cfg.write_text(text + "\n")
        trials = [] if command == "analyze" else ["--trials", "10000"]
        assert main([command, "--config", str(cfg), "--grid", "10:10:5", *trials]) == 2
        assert capsys.readouterr().err.startswith("fdnoma: config error: ")

    @pytest.mark.parametrize("mu,method", [("0.25", "lower_bound"), ("1", "asymptotic_ideal")])
    def test_relay_ratio_overflow_fills_its_own_cells(self, mu, method, tmp_path, capsys):
        # a power in sf_relay_ratio overflowed: analyze and validate ended in
        # a traceback
        cfg, out = tmp_path / "si.cfg", tmp_path / "out.csv"
        cfg.write_text(f"n_b = 4\nm_sr = 4\nalpha_si = 1e30\nmu = {mu}\n")
        assert main(["analyze", "--config", str(cfg), "--grid", "0:0:5", "--out", str(out),
                     "--methods", method]) == 0
        rows = list(csv.reader(out.read_text(encoding="utf-8").splitlines()))[1:]
        assert len(rows) == 3
        for row in rows:
            assert row[3] == "" and row[8].startswith("the relay-ratio sf at x = 36 "), row
        if method == "lower_bound":
            assert main(["validate", "--config", str(cfg), "--grid", "0:0:5",
                         "--trials", "10000"]) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == ("fdnoma: numeric failure: the relay-ratio sf at x = 36 has "
                                    "a term outside the float range\n")

    @pytest.mark.parametrize("text,failing", [
        ("d_sr = 1e80", {"exact", "lower_bound", "asymptotic_ideal"}),
        ("eta = 1000", {"exact", "asymptotic_ideal"}),
        ("alpha_si = 1e300", {"asymptotic_ideal"}),
    ])
    def test_value_outside_the_float_range_fills_its_own_cells(self, text, failing, tmp_path,
                                                               capsys):
        # a Phi row's Bessel coefficient or the high-SNR law's constant left
        # the float range: analyze and validate ended in a traceback, and the
        # bound printed nan
        cfg, out = tmp_path / "far.cfg", tmp_path / "out.csv"
        cfg.write_text(text + "\n")
        assert main(["analyze", "--config", str(cfg), "--grid", "10:10:5", "--out", str(out),
                     "--methods", "exact,lower_bound,asymptotic_ideal"]) == 0
        rows = list(csv.reader(out.read_text(encoding="utf-8").splitlines()))[1:]
        assert len(rows) == 9
        for row in rows:
            assert (row[3] == "" and row[8] != "") == (row[2] in failing), row
            assert row[3] not in ("nan", "inf")
        assert main(["simulate", "--config", str(cfg), "--grid", "10:10:5",
                     "--trials", "10000", "--out", str(out)]) == 0
        # with eta or alpha_si, the outage test's weights leave the float
        # range too, and validate runs a point's Monte Carlo first
        mc_fails = not text.startswith("d_sr")
        rows = list(csv.reader(out.read_text(encoding="utf-8").splitlines()))[1:]
        assert len(rows) == 3
        assert all((row[3] == "" and row[8] != "") == mc_fails for row in rows), rows
        if "exact" in failing:
            assert main(["validate", "--config", str(cfg), "--grid", "10:10:5",
                         "--trials", "10000"]) == 3
            first = "Monte Carlo outage " if mc_fails else "exact outage "
            assert capsys.readouterr().err.startswith("fdnoma: numeric failure: " + first)
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("text", ["alpha_si = 1e300", "eta = 1000"])
    def test_outage_test_outside_the_float_range_fills_the_simulation_cells(self, text, tmp_path,
                                                                           capsys):
        # the weights overflowed (numpy warned) and the counts were taken on
        # inf or NaN products: OP 1 or 0 in every cell, exit 0
        cfg, out = tmp_path / "far.cfg", tmp_path / "out.csv"
        cfg.write_text(text + "\n")
        assert main(["simulate", "--config", str(cfg), "--grid", "300:300:5", "--trials", "10000",
                     "--methods", "monte_carlo,hd_noma,fd_oma", "--out", str(out)]) == 0
        rows = list(csv.reader(out.read_text(encoding="utf-8").splitlines()))[1:]
        assert len(rows) == 9
        for row in rows:
            assert row[3] == "" and row[8].startswith("Monte Carlo outage at 300.0 dB: "), row
        assert main(["validate", "--config", str(cfg), "--grid", "300:300:5",
                     "--trials", "10000"]) == 3
        assert capsys.readouterr().err.startswith(
            "fdnoma: numeric failure: Monte Carlo outage at 300.0 dB: ")

    def test_outage_test_outside_the_float_range_leaves_the_other_points(self, tmp_path):
        # at 0 dB alpha_si = 1e300 still fits; that point keeps its values
        cfg, out = tmp_path / "far.cfg", tmp_path / "out.csv"
        cfg.write_text("alpha_si = 1e300\n")
        runs = {}
        for grid in ("0:300:300", "0:0:5"):
            assert main(["simulate", "--config", str(cfg), f"--grid={grid}", "--trials", "10000",
                         "--methods", "monte_carlo,hd_noma,fd_oma", "--out", str(out)]) == 0
            runs[grid] = list(csv.reader(out.read_text(encoding="utf-8").splitlines()))[1:]
        assert runs["0:300:300"][:9] == runs["0:0:5"]
        assert all(row[3] != "" and row[8] == "" for row in runs["0:0:5"])
        for row in runs["0:300:300"][9:]:
            assert row[3] == "" and row[8].startswith("Monte Carlo outage at 300.0 dB: "), row

    @pytest.mark.parametrize("text,message", [("n_b = 1000000", "n_b must be <= 64"),
                                              ("n_users = 1000000", "n_users must be <= 32")])
    @pytest.mark.parametrize("command", ["analyze", "simulate", "validate"])
    def test_count_above_its_limit_is_exit_2(self, command, text, message, tmp_path, capsys):
        # n_b = 10**6 would make each Monte Carlo block (16384, 10**6) draws
        cfg = tmp_path / "big.cfg"
        cfg.write_text(text + "\n")
        trials = [] if command == "analyze" else ["--trials", "10000"]
        assert main([command, "--config", str(cfg), "--grid", "10:10:5", *trials]) == 2
        assert capsys.readouterr().err.endswith(f"{message}, got 1000000\n")

    @pytest.mark.parametrize("text,message", [
        ("m_sr = 1e10", "m_sr*n_b <= 16, got 20000000000"),
        ("n_r = 1000000", "m_ru*n_r*n_users <= 24, got 3000000"),
    ])
    def test_closed_form_structure_above_its_limit_fills_its_cells(self, text, message, tmp_path,
                                                                  capsys):
        # m_sr = 1e10 built A's table for ten minutes, to 1.9 GB
        cfg, out = tmp_path / "big.cfg", tmp_path / "out.csv"
        cfg.write_text(text + "\n")
        assert main(["analyze", "--config", str(cfg), "--grid", "10:10:5", "--out", str(out),
                     "--methods", "exact,lower_bound,asymptotic_ideal"]) == 0
        rows = list(csv.reader(out.read_text(encoding="utf-8").splitlines()))[1:]
        assert len(rows) == 9
        for row in rows:
            assert row[3] == "" and row[8] == f"the closed-form engine requires {message}", row
        assert main(["validate", "--config", str(cfg), "--grid", "10:10:5",
                     "--trials", "10000"]) == 2
        assert capsys.readouterr().err.endswith(f"requires {message}\n")

    @pytest.mark.parametrize("grid", ["3100:3100:5", "-3300:-3300:5"])
    def test_snr_outside_the_float_range_is_an_error_cell_or_exit_3(self, grid, tmp_path,
                                                                    capsys):
        # 10^(snr_db/10) overflowed, or underflowed to 0, with a traceback
        out = tmp_path / "out.csv"
        for argv in (["analyze"], ["simulate", "--trials", "10000"]):
            assert main([*argv, f"--grid={grid}", "--out", str(out)]) == 0
            rows = list(csv.reader(out.read_text(encoding="utf-8").splitlines()))[1:]
            assert rows and all(row[3] == "" and row[8].startswith("snr_db=") for row in rows)
        assert main(["validate", f"--grid={grid}", "--trials", "10000"]) == 3
        assert capsys.readouterr().err.startswith("fdnoma: numeric failure: snr_db=")

    @pytest.mark.parametrize("grid", ["0:inf:5", "-inf:0:5", "0:nan:5", "0:10:inf"])
    def test_non_finite_grid_is_exit_2(self, grid, capsys):
        assert main(["analyze", f"--grid={grid}"]) == 2
        assert "finite" in capsys.readouterr().err

    def test_oversized_grid_is_exit_2(self, capsys):
        assert main(["analyze", "--grid", "0:40:1e-7", "--methods", "exact"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("fdnoma: config error: grid 0.0:40.0:1e-07 has 4e+08 points, "
                                f"more than the {MAX_GRID_POINTS} a sweep takes\n")

    @pytest.mark.parametrize("flag", [["--users", "1"], ["--timings"]], ids=["users", "timings"])
    def test_validate_rejects_the_sweep_only_flags(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["validate", "--grid", "10:10:5", "--trials", "10000", *flag])
        assert exc.value.code == 1
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err

    def test_simulate_rejects_rel_tol(self, capsys):
        # no simulation method reads a quadrature tolerance
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--grid", "10:10:5", "--trials", "10000", "--rel-tol", "1e-3"])
        assert exc.value.code == 1
        assert "unrecognized arguments: --rel-tol 1e-3" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["1e-14", "nan", "1", "tight"])
    @pytest.mark.parametrize("argv", [
        ["analyze", "--grid", "10:10:5"],
        ["sweep", "--grid", "10:10:5"],
        ["validate", "--grid", "10:10:5"],
        ["preset", "fig4", "--out", "unused"],
    ], ids=lambda argv: argv[0])
    def test_bad_rel_tol_is_exit_1(self, argv, value, capsys):
        # the quadrature tolerance is a constant of the closed forms, so
        # --rel-tol is unrecognized whatever its value
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--rel-tol", value])
        assert exc.value.code == 1
        assert f"unrecognized arguments: --rel-tol {value}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["analyze", "simulate", "sweep", "validate"])
    def test_config_and_preset_are_exclusive(self, command, tmp_path, capsys):
        cfg = tmp_path / "one.cfg"
        cfg.write_text(dump_config(BASE))
        with pytest.raises(SystemExit) as exc:
            main([command, "--grid", "10:10:5", "--config", str(cfg), "--preset", "fig3:nb3"])
        assert exc.value.code == 1
        assert "not allowed with argument" in capsys.readouterr().err

    def test_validate_help_describes_its_text_output(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["validate", "--help"])
        assert exc.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        assert "--out OUT output path of the check lines and the PASS/FAIL verdict" in text
        assert "CSV" not in text

    @pytest.mark.parametrize("command", ["simulate", "sweep", "preset"])
    def test_workers_help_names_the_chunk_size(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        assert "--workers WORKERS processes for the Monte Carlo trials (default: 1)" in text
        assert "chunks of 1,000,000" in text and "fewer than 2,000,000 trials" in text

    def test_validate_workers_help_names_the_threads(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["validate", "--help"])
        assert exc.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        assert ("--workers WORKERS grid points run on that many threads (default: 1); "
                "each point's Monte Carlo trials run on one thread") in text
        assert "processes" not in text

    def test_fixed_snr_on_the_snr_axis_is_exit_2(self, capsys):
        argv = ["sweep", "--grid", "10:10:5", "--snr", "30", "--methods", "exact", "--users", "1"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "snr_db axis" in captured.err

    @pytest.mark.parametrize("snr", ["nan", "inf", "-inf"])
    def test_non_finite_fixed_snr_is_exit_2(self, snr, capsys):
        assert main(["sweep", "--axis", "mu", "--grid", "0:1:0.5", f"--snr={snr}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "snr_db must be finite" in captured.err

    def test_repeated_users_is_exit_2(self, capsys):
        assert main(["analyze", "--users", "1,1", "--grid", "10:10:5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "repeats a user" in captured.err

    def test_non_integer_users_is_exit_2(self, capsys):
        assert main(["analyze", "--users", "x", "--grid", "10:10:5"]) == 2

    @pytest.mark.parametrize("user", ["0", "4", "-1"])
    def test_user_outside_the_users_is_exit_2(self, user, capsys):
        assert main(["analyze", f"--users={user}", "--grid", "10:10:5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"fdnoma: config error: user index {user} out of range 1..3\n"

    @pytest.mark.parametrize("argv", [
        ["simulate", "--trials", "100"],
        ["sweep", "--grid", "10:10:5", "--trials", "9999"],
        ["validate", "--trials", "100"],
        ["preset", "fig4", "--out", "unused", "--trials", "0"],
        ["simulate", "--trials", "many"],
    ])
    def test_bad_trials_value_is_exit_1(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert "--trials" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["-1", "0", "nan", "inf", "loose"])
    def test_bad_tolerance_is_exit_1(self, value, capsys):
        # a slope tolerance <= 0 or NaN would fail every slope line of a
        # correct program
        with pytest.raises(SystemExit) as exc:
            main(["validate", "--grid", "0:30:10", "--tolerance", value])
        assert exc.value.code == 1
        assert "--tolerance" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["-1", "one"])
    @pytest.mark.parametrize("argv", [
        ["simulate", "--grid", "10:10:5"],
        ["sweep", "--grid", "10:10:5"],
        ["validate", "--grid", "10:10:5"],
        ["preset", "fig4", "--out", "unused"],
    ], ids=lambda argv: argv[0])
    def test_bad_seed_is_exit_1(self, argv, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--seed", value])
        assert exc.value.code == 1
        assert "--seed" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-2", "two"])
    @pytest.mark.parametrize("argv", [
        ["simulate", "--grid", "10:10:5"],
        ["sweep", "--grid", "10:10:5"],
        ["validate", "--grid", "10:10:5"],
        ["preset", "fig4", "--out", "unused"],
    ], ids=lambda argv: argv[0])
    def test_bad_workers_is_exit_1(self, argv, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--workers", value])
        assert exc.value.code == 1
        assert "--workers" in capsys.readouterr().err

    @pytest.mark.parametrize("command,method,allowed", [
        ("analyze", "monte_carlo", "exact, lower_bound, asymptotic_ideal, asymptotic_practical"),
        ("simulate", "exact", "monte_carlo, hd_noma, fd_oma"),
    ], ids=["analyze", "simulate"])
    def test_method_of_the_other_kind_is_exit_2(self, command, method, allowed, capsys):
        assert main([command, "--grid", "10:10:5", "--methods", method]) == 2
        assert allowed in capsys.readouterr().err

    def test_sweep_accepts_every_method(self, tmp_path):
        out = tmp_path / "all.csv"
        code = main([
            "sweep", "--grid", "10:10:5", "--trials", "20000", "--users", "2", "--out", str(out),
            "--methods", "exact,lower_bound,asymptotic_ideal,asymptotic_practical,"
                         "monte_carlo,hd_noma,fd_oma",
        ])
        assert code == 0
        assert len(out.read_text().strip().splitlines()) == 1 + 7

    def test_analyze_runs_to_csv(self, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        code = main([
            "analyze", "--grid", "10:20:10", "--methods", "exact,lower_bound",
            "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1 + 2 * 2 * 3  # two points, two methods, three users

    def test_simulate_runs(self, tmp_path):
        out = tmp_path / "sim.csv"
        code = main([
            "simulate", "--grid", "10:10:5", "--trials", "20000", "--out", str(out),
        ])
        assert code == 0
        assert len(out.read_text().strip().splitlines()) == 4

    def test_preset_writes_variant_files(self, tmp_path):
        code = main([
            "preset", "fig4:mu0.25", "--out", str(tmp_path), "--trials", "20000",
        ])
        assert code == 0
        csvs = sorted(p.name for p in tmp_path.glob("*.csv"))
        assert csvs == ["fig4_mu0.25.csv"]
        cfg_files = sorted(p.name for p in tmp_path.glob("*.cfg"))
        assert cfg_files == ["fig4_mu0.25.cfg"]

    def test_validate_failure_is_exit_4(self, corrupted_kappa, capsys):
        code = main(["validate", "--grid", "25:25:5", "--trials", "50000"])
        assert code == 4

    def test_validate_pass_is_exit_0(self, capsys):
        code = main(["validate", "--grid", "10:10:5", "--trials", "100000"])
        assert code == 0


_positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@st.composite
def _extreme_points(draw):
    """A config with any finite path loss exponent, first-hop distance, SI
    scale and SI cancellation it accepts, and an SNR inside the float
    range."""
    try:
        cfg = replace(BASE, eta=draw(_positive), d_sr=draw(_positive),
                      alpha_si=draw(_positive), mu=draw(st.floats(0.0, 1.0)))
    except ConfigError:
        assume(False)
    lo, hi = _SNR_DB_RANGE
    return cfg, draw(st.floats(lo, hi, exclude_min=True, exclude_max=True))


@settings(max_examples=25, derandomize=True, deadline=None)
@given(_extreme_points())
def test_extreme_finite_inputs_give_a_probability_or_an_error(point):
    # at 300 dB, alpha_si = 1e300 and eta = 1000 gave OP 1 and 0 counted on
    # overflowed weights, after a RuntimeWarning (an error under pytest here)
    cfg, snr_db = point
    spec = SweepSpec(grid=(snr_db,), methods=mcsim.SIM_METHODS, trials=mcsim.MIN_TRIALS)
    for row in run_sweep(spec, cfg, io.StringIO()):
        if row.error:
            assert row.op is None, row
        else:
            assert 0.0 <= row.op <= 1.0, row
