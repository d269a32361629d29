"""Coupled-system fixed point and the uniqueness-given-gradient probe."""

import dataclasses
import math

import numpy as np
import pytest

from mfg_lab.fictitious_play import fp_start, fp_step
from mfg_lab.grid import sup_norm
from mfg_lab.mfg import (
    best_response,
    drift_field,
    heat_flow_of_initial,
    probe_uniqueness_given_gradient,
    solution_distance,
    solve_picard,
)
from mfg_lab.models import builtin_quadratic
from mfg_lab.perturb import perturb_density_values, spawn_rngs


def test_decoupled_converges_in_two_iterations(decoupled_model, monotone_grid, rng):
    init = perturb_density_values(
        monotone_grid, heat_flow_of_initial(decoupled_model, monotone_grid), 0.2, rng
    )
    sol = solve_picard(
        decoupled_model, monotone_grid, init_m=init, damping=1.0, tol=1e-12, max_iter=10
    )
    assert sol.converged and sol.iterations <= 2
    assert sol.residuals["hjb"] <= 1e-12
    # decoupled solution: u = 0, m = heat flow of m0
    assert sup_norm(sol.u.values) == 0.0
    x = monotone_grid.axis_coordinates()
    exact = np.stack(
        [
            1 + 0.5 * math.exp(-4 * math.pi**2 * t) * np.cos(2 * np.pi * x)
            for t in monotone_grid.times - monotone_grid.t0
        ]
    )
    assert sup_norm(sol.m.values - exact) <= 5 * (monotone_grid.dt + monotone_grid.dx**2)


def test_monotone_solution_quality(monotone_solution):
    sol = monotone_solution
    assert sol.converged
    # Anderson mixing takes 7 rounds here, plain damping 0.5 takes 32
    assert sol.iterations <= 10
    assert sol.residuals["hjb"] <= 1e-10
    assert sol.residuals["kolmogorov"] <= 1e-10
    assert np.max(np.abs(sol.m.mass() - 1.0)) <= 1e-12


def test_converged_residuals_within_ten_tol(monotone_model, monotone_grid):
    tol = 1e-9
    sol = solve_picard(monotone_model, monotone_grid, damping=0.5, tol=tol, max_iter=500)
    assert sol.converged
    assert max(sol.residuals.values()) <= 10.0 * tol


def test_flux_formula_nodewise(monotone_model, monotone_solution):
    sol = monotone_solution
    b = drift_field(monotone_model, sol.grid, sol.u.values)
    w = -sol.m.values[..., None] * b
    assert sup_norm(sol.w.values - w) <= 1e-12


def test_damping_independent_limit(monotone_model, monotone_grid, monotone_solution):
    other = solve_picard(
        monotone_model, monotone_grid, damping=1.0, tol=1e-12, max_iter=500
    )
    assert other.converged
    assert solution_distance(other, monotone_solution.u.values, monotone_solution.m.values) <= 1e-8


def test_matches_plain_damped_picard(monotone_model, monotone_grid, monotone_solution):
    grid = monotone_grid
    m0 = monotone_model.initial_density_slice(grid)
    m = heat_flow_of_initial(monotone_model, grid, m0)
    for _ in range(500):
        played = best_response(monotone_model, grid, m, m0)
        if played.gap <= 1e-12:
            break
        m = 0.5 * m + 0.5 * played.m
        m[0] = m0
    assert played.gap <= 1e-12
    assert sup_norm(played.m - monotone_solution.m.values) <= 1e-10


def test_first_two_rounds_are_damped(monotone_model, monotone_grid):
    # with no history yet the update is exactly the damped one
    grid = monotone_grid
    m0 = monotone_model.initial_density_slice(grid)
    m = heat_flow_of_initial(monotone_model, grid, m0)
    first = best_response(monotone_model, grid, m, m0)
    m = (1.0 - 0.3) * m + 0.3 * first.m
    m[0] = m0
    second = best_response(monotone_model, grid, m, m0)
    sol = solve_picard(monotone_model, grid, damping=0.3, tol=0.0, max_iter=2)
    assert sol.gap_history == [first.gap, second.gap]
    best = second if second.gap <= first.gap else first
    assert np.array_equal(sol.m.values, best.m)
    assert np.array_equal(sol.u.values, best.u)


def test_m_independent_source_fixed_in_round_three():
    # the best response is then a constant map; one mixing step with two
    # rounds of history lands on its value, where damping only approaches it
    base = builtin_quadratic(coupling="none", T=0.5)

    def f(grid, m):
        return np.cos(2.0 * np.pi * grid.coordinates()[0]) + np.zeros(np.shape(m))

    model = dataclasses.replace(base, coupling=dataclasses.replace(base.coupling, f=f))
    sol = solve_picard(model, model.make_grid(32, 16), damping=0.5, tol=1e-12)
    assert sol.converged and sol.iterations == 3
    assert sol.gap_history[1] >= 0.25 * sol.gap_history[0] > 0.0


def test_random_inits_agree(monotone_model, monotone_grid, monotone_solution):
    rngs = spawn_rngs(99, 2)
    base = heat_flow_of_initial(monotone_model, monotone_grid)
    sols = []
    for r in rngs:
        init = perturb_density_values(monotone_grid, base, 0.3, r)
        sols.append(
            solve_picard(
                monotone_model, monotone_grid, init_m=init, damping=0.5,
                tol=1e-12, max_iter=500,
            )
        )
    for s in sols:
        assert s.converged
        assert solution_distance(s, monotone_solution.u.values, monotone_solution.m.values) <= 1e-6


def test_nonconvergence_returns_data(monotone_model, monotone_grid):
    sol = solve_picard(monotone_model, monotone_grid, damping=0.5, tol=0.0, max_iter=2)
    assert not sol.converged
    assert sol.iterations == 2
    assert np.isfinite(sol.residuals["hjb"])


def test_probe_reflexive(monotone_solution):
    rep = probe_uniqueness_given_gradient(monotone_solution, monotone_solution)
    assert rep.d_grad == 0.0 and rep.d_sol == 0.0
    assert rep.verdict == "CONSISTENT"


def test_probe_on_rerun(monotone_model, monotone_grid, monotone_solution, rng):
    init = perturb_density_values(
        monotone_grid, heat_flow_of_initial(monotone_model, monotone_grid), 0.3, rng
    )
    rerun = solve_picard(
        monotone_model, monotone_grid, init_m=init, damping=0.5, tol=1e-12, max_iter=500
    )
    rep = probe_uniqueness_given_gradient(rerun, monotone_solution)
    assert rep.d_grad <= 1e-6
    assert rep.d_sol <= 1e-5
    assert rep.verdict == "CONSISTENT"


def test_probe_precondition_errors(monotone_model, monotone_solution):
    g2 = monotone_model.make_grid(16, 48)
    other = solve_picard(monotone_model, g2, damping=0.5, tol=1e-10, max_iter=300)
    with pytest.raises(ValueError):
        probe_uniqueness_given_gradient(monotone_solution, other)
    shifted = solve_picard(
        monotone_model,
        monotone_solution.grid,
        m0=np.roll(monotone_solution.m.values[0], 3),
        damping=0.5,
        tol=1e-10,
        max_iter=300,
    )
    with pytest.raises(ValueError):
        probe_uniqueness_given_gradient(shifted, monotone_solution)


def test_invalid_damping(monotone_model, monotone_grid):
    with pytest.raises(ValueError):
        solve_picard(monotone_model, monotone_grid, damping=0.0)
    with pytest.raises(ValueError):
        solve_picard(monotone_model, monotone_grid, damping=1.5)


def test_zero_max_iter_is_refused(monotone_model, monotone_grid):
    with pytest.raises(ValueError, match="max_iter"):
        solve_picard(monotone_model, monotone_grid, max_iter=0)


@pytest.mark.parametrize("tol", [math.nan, -1e-10])
def test_a_tolerance_no_gap_can_meet_is_refused(monotone_model, monotone_grid, tol):
    # such a tol would play all max_iter rounds and report converged=False;
    # tol = 0 stays legal, to force the cap
    with pytest.raises(ValueError, match="tol must be >= 0"):
        solve_picard(monotone_model, monotone_grid, tol=tol)


def _bad_belief(grid, case):
    belief = np.ones((grid.n_time + 1, *grid.spatial_shape))
    if case == "slice":
        return belief[:-1]
    if case == "node":
        return belief[..., :-1]
    belief[3, 5] = np.nan
    return belief


@pytest.mark.parametrize(
    "case, match", [("slice", "init_m shape"), ("node", "init_m shape"), ("nan", "init_m must")]
)
def test_a_bad_initial_belief_is_refused_before_any_round(monotone_model, case, match):
    # unchecked, a missing slice failed as "source shape mismatch", a missing
    # node as a broadcast error, and NaN inside the HJB sweep
    grid = monotone_model.make_grid(16, 8)
    with pytest.raises(ValueError, match=match):
        solve_picard(monotone_model, grid, init_m=_bad_belief(grid, case))


def test_a_non_finite_initial_fp_belief_is_refused(monotone_model):
    grid = monotone_model.make_grid(16, 8)
    with pytest.raises(ValueError, match="mu0 must be finite"):
        fp_start(monotone_model, grid, mu0=_bad_belief(grid, "nan"))


def test_one_round_evaluates_the_drift_once():
    # the backward sweep returns the drift of its u (`drift_field`); the
    # forward leg and the packaged solution reuse it
    base = builtin_quadratic(coupling="monotone_local", m0="cosine", T=0.5)
    calls = {"grad_p": 0}

    def grad_p(x, p):
        calls["grad_p"] += 1
        return base.hamiltonian.grad_p(x, p)

    model = dataclasses.replace(
        base, hamiltonian=dataclasses.replace(base.hamiltonian, grad_p=grad_p)
    )
    grid = model.make_grid(32, 16)
    solve_picard(model, grid, init_m=heat_flow_of_initial(model, grid), max_iter=1)
    assert calls["grad_p"] == 1
    state = fp_start(model, grid)
    calls["grad_p"] = 0
    fp_step(state)
    assert calls["grad_p"] == 1


def test_non_finite_m0_is_refused_as_bad_data(monotone_model):
    # NaN passes the sign and mass tests; it must not reach a sweep
    grid = monotone_model.make_grid(16, 8)
    m0 = np.ones(16)
    m0[3] = np.nan
    with pytest.raises(ValueError, match="finite"):
        solve_picard(monotone_model, grid, m0=m0)
    with pytest.raises(ValueError, match="finite"):
        solve_picard(monotone_model, grid, m0=m0, init_m=np.ones((9, 16)))
    with pytest.raises(ValueError, match="finite"):
        fp_start(dataclasses.replace(monotone_model, m0=lambda g: m0), grid)
    nan_model = dataclasses.replace(monotone_model, m0=lambda g: np.full(16, np.nan))
    with pytest.raises(ValueError, match="finite"):
        nan_model.initial_density_slice(grid)
