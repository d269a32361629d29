"""Learning dynamics: averaging rule identities, convergence, attractor."""

import numpy as np
import pytest

from mfg_lab.fictitious_play import (
    fp_start,
    fp_step,
    local_attractor_experiment,
    run_fp,
)
from mfg_lab.grid import sup_norm
from mfg_lab.mfg import solution_distance
from mfg_lab.pde import SolverError
from mfg_lab.stability import solve_linearized


def test_first_round_average_is_first_play(monotone_model, monotone_grid):
    state = fp_start(monotone_model, monotone_grid)
    state = fp_step(state)
    assert state.n == 1
    assert np.array_equal(state.mu, state.last.m)  # mu^1 = m^1, belief weight 0


def test_decoupled_constant_after_first_round(decoupled_model, monotone_grid):
    state = fp_start(decoupled_model, monotone_grid)
    state = fp_step(state)
    first = state.last.m.copy()
    for _ in range(3):
        state = fp_step(state)
        assert state.last.gap <= 1e-14  # averaging roundoff only
        assert np.array_equal(state.last.m, first)


def test_unrolled_average_identity(monotone_model, monotone_grid):
    state = fp_start(monotone_model, monotone_grid)
    plays = []
    for _ in range(5):
        state = fp_step(state)
        plays.append(state.last.m)
    unrolled = sum(plays) / 5.0
    assert sup_norm(state.mu - unrolled) <= 1e-13


def test_averaging_rule_identity(monotone_model, monotone_grid):
    state = fp_start(monotone_model, monotone_grid)
    for _ in range(6):
        mu_old, n_old = state.mu.copy(), state.n
        state = fp_step(state)
        rule = (n_old * mu_old + state.last.m) / (n_old + 1)
        assert sup_norm(state.mu - rule) <= 1e-14


def test_mu_step_equals_gap_over_np1(monotone_model, monotone_grid):
    trace = run_fp(monotone_model, monotone_grid, n_max=30)
    for i, (gap, step) in enumerate(zip(trace.gaps, trace.mu_step_norms)):
        assert abs(step - gap / (i + 1)) <= 1e-13


def test_fp_limit_matches_picard(monotone_model, monotone_grid, monotone_solution):
    trace = run_fp(monotone_model, monotone_grid, n_max=250, reference=monotone_solution)
    assert trace.errors[-1] <= 1e-5
    ref = monotone_solution
    assert solution_distance(trace.final, ref.u.values, ref.m.values) <= 1e-5
    assert max(trace.final.residuals.values()) <= 1e-6


def test_gap_decay_rate(monotone_model, monotone_grid):
    trace = run_fp(monotone_model, monotone_grid, n_max=200)
    ns = np.arange(1, len(trace.gaps) + 1)
    sel = (ns >= 20) & (ns <= 200)
    slope = np.polyfit(np.log(ns[sel]), np.log(np.asarray(trace.gaps)[sel]), 1)[0]
    assert slope <= -0.8


def test_start_at_equilibrium_stays(monotone_model, monotone_grid, monotone_solution):
    trace = run_fp(
        monotone_model,
        monotone_grid,
        mu0=monotone_solution.m.values.copy(),
        n_max=25,
        reference=monotone_solution,
    )
    for err in trace.errors:
        assert err <= trace.errors[0] + 1e-12


def test_fixed_point_is_solution(monotone_model, monotone_grid):
    trace = run_fp(monotone_model, monotone_grid, n_max=400, gap_tol=1e-7)
    assert trace.converged
    gap = trace.gaps[-1]
    assert max(trace.final.residuals.values()) <= max(10 * gap, 1e-9)


def test_coupling_consistency_measures_the_source_the_last_round_used(
    monotone_model, monotone_grid
):
    # the last backward leg ran against mu^(n-1), not against mu^n, which
    # already averages in the last play
    coup = monotone_model.coupling
    trace = run_fp(monotone_model, monotone_grid, n_max=6)
    state = fp_start(monotone_model, monotone_grid)
    for _ in range(5):
        state = fp_step(state)
    belief = state.mu
    used = coup.f_field(monotone_grid, belief)
    expected = sup_norm(used - coup.f_field(monotone_grid, trace.final.m.values))
    assert trace.final.residuals["coupling_consistency"] == expected


def test_trace_csv(tmp_path, monotone_model, monotone_grid):
    trace = run_fp(monotone_model, monotone_grid, n_max=60)
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# residuals:")
    assert lines[1] == "n,gap,mu_step,err"
    # decimation: all of the first 50, then every 10th (here only n=59)
    kept = [i for i in range(60) if i < 50 or (i + 1) % 10 == 0 or i == 59]
    assert len(lines) == 2 + len(kept)


def test_attractor_monotone(monotone_model, monotone_grid, monotone_solution):
    report = local_attractor_experiment(
        monotone_model,
        monotone_grid,
        monotone_solution,
        delta_list=[0.0, 1e-2],
        trials=3,
        seed=51,
        n_max=150,
    )
    assert [rec["success_rate"] for rec in report["records"]] == [1.0, 1.0]
    assert report["records"][1]["max_final_error"] <= 5e-4


def test_attractor_records_a_solver_error_as_a_failed_trial(
    monkeypatch, monotone_model, monotone_grid, monotone_solution
):
    import mfg_lab.fictitious_play as fp

    runs = []

    def second_run_fails(*args, **kwargs):
        runs.append(kwargs["mu0"])
        if len(runs) == 2:
            raise SolverError("density went negative")
        return run_fp(*args, **kwargs)

    monkeypatch.setattr(fp, "run_fp", second_run_fails)
    report = local_attractor_experiment(
        monotone_model, monotone_grid, monotone_solution,
        delta_list=[1e-2], trials=3, seed=51, n_max=150,
    )
    assert len(runs) == 3
    assert report["failures"] == [{"delta": 1e-2, "trial": 1, "cause": "density went negative"}]
    rec = report["records"][0]
    assert rec["success_rate"] == 2 / 3
    assert rec["eventually_monotone_fraction"] <= 2 / 3
    assert rec["max_final_error"] <= 5e-4


def test_zero_rounds_are_refused(monotone_model, monotone_grid):
    with pytest.raises(ValueError, match="n_max"):
        run_fp(monotone_model, monotone_grid, n_max=0)


@pytest.mark.parametrize("gap_tol", [float("inf"), float("nan")])
def test_a_non_finite_gap_tolerance_is_refused(monotone_model, monotone_grid, gap_tol):
    # every gap meets gap_tol = inf, so the first round would pass as converged
    with pytest.raises(ValueError, match="gap_tol must be finite"):
        run_fp(monotone_model, monotone_grid, n_max=3, gap_tol=gap_tol)


def test_unconverged_run_is_not_a_converged_solution(monotone_model):
    grid = monotone_model.make_grid(24, 32)
    trace = run_fp(monotone_model, grid, n_max=1, gap_tol=1e-9)
    assert not trace.converged and not trace.final.converged
    with pytest.raises(ValueError, match="converged base"):
        solve_linearized(monotone_model, trace.final)
