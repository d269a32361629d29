"""Branch construction, explicit competitor, reflection machinery."""

import dataclasses
import json
import math

import numpy as np
import pytest

from conftest import is_admissible

import mfg_lab.fictitious_play as fictitious_play
import mfg_lab.nonuniqueness as nonuniqueness
from mfg_lab.grid import sup_norm
from mfg_lab.mfg import heat_flow_of_initial, probe_uniqueness_given_gradient, solve_picard
from mfg_lab.models import builtin_quadratic
from mfg_lab.nonuniqueness import (
    COLLAPSE_CHECK_ROUND,
    asymmetric_initial_belief,
    best_holding_profile,
    build_competitor,
    find_asymmetric_branch,
    find_symmetric_branch,
    make_branch_pair,
    reflect_values,
    reflection_defect,
)
from mfg_lab.potential import evaluate_J


@pytest.fixture(scope="module")
def branch_setup():
    model = builtin_quadratic(
        theta=64.0, coupling="antimonotone_symmetric", T=2.0, m0="uniform"
    )
    grid = model.make_grid(24, 256)
    return model, grid


@pytest.fixture(scope="module")
def branch_pair(branch_setup):
    model, grid = branch_setup
    pair, reason = make_branch_pair(model, grid, tol=1e-6, fp_rounds=120)
    assert pair is not None, reason
    return pair


def test_reflect_involution(rng):
    vals = rng.standard_normal((3, 16))
    assert np.array_equal(reflect_values(reflect_values(vals)), vals)
    x = np.arange(16) / 16
    sine = np.sin(2 * np.pi * x)[None, :]
    assert np.max(np.abs(reflect_values(sine) + sine)) <= 1e-15
    cosine = np.cos(2 * np.pi * x)[None, :]
    assert np.max(np.abs(reflect_values(cosine) - cosine)) <= 1e-15


def test_symmetric_branch_is_uniform_rest(branch_setup):
    model, grid = branch_setup
    sym = find_symmetric_branch(model, grid)
    # uniform m0 + vanishing coupling on the symmetric set: exact rest state
    assert sup_norm(sym.m.values - 1.0) <= 1e-10
    assert sup_norm(sym.u.values) <= 1e-10
    assert reflection_defect(sym.m.values) <= 1e-8
    assert max(sym.residuals.values()) <= 1e-7
    # the coupling is symmetric along the whole symmetric trajectory
    for k in range(0, grid.n_time + 1, 16):
        f = model.coupling.f(grid, sym.m.values[k])
        assert sup_norm(f - reflect_values(f[None, :])[0]) <= 1e-12


@pytest.mark.parametrize("m0", ["cosine", "bump"])
def test_symmetric_branch_closed_form(m0):
    # f = theta phi'(S)(sin 2 pi x - S) vanishes at S = 0 with phi'(0) = 0,
    # so on a symmetric m0 the branch is u = 0, m = heat flow of m0
    model = builtin_quadratic(
        theta=64.0, coupling="antimonotone_symmetric", T=2.0, m0=m0
    )
    grid = model.make_grid(24, 256)
    sym = find_symmetric_branch(model, grid)
    assert sym.converged and sym.iterations == 1
    assert sup_norm(sym.u.values) <= 1e-12
    assert sup_norm(sym.m.values - heat_flow_of_initial(model, grid)) <= 1e-13


def test_symmetric_branch_of_monotone_game_stays_symmetric():
    # the source is not zero here: the Anderson-mixed beliefs keep the
    # symmetry without any projection
    model = builtin_quadratic(coupling="monotone_local", T=0.5, m0="cosine")
    sym = find_symmetric_branch(model, model.make_grid(32, 48))
    assert sym.converged
    assert reflection_defect(sym.m.values) <= 1e-12
    assert reflection_defect(sym.u.values) <= 1e-12


def test_symmetric_branch_rejects_asymmetric_m0():
    model = builtin_quadratic(
        theta=64.0,
        coupling="antimonotone_symmetric",
        T=2.0,
        m0=lambda grid: 1.0 + 0.5 * np.sin(2.0 * np.pi * grid.coordinates()[0]),
    )
    with pytest.raises(ValueError, match="reflection-symmetric"):
        find_symmetric_branch(model, model.make_grid(16, 32))


def test_theta_zero_not_found():
    model = builtin_quadratic(0.0, coupling="antimonotone_symmetric", T=1.0, m0="uniform")
    grid = model.make_grid(16, 32)
    solution, reason = find_asymmetric_branch(model, grid, fp_rounds=60)
    assert solution is None
    assert "symmetric" in reason


def test_branch_pair_properties(branch_setup, branch_pair):
    model, grid = branch_setup
    pair = branch_pair
    assert pair.separation >= 1e-2
    assert pair.j_asymmetric.total < pair.j_symmetric.total
    for sol in (pair.symmetric, pair.asymmetric):
        assert max(sol.residuals.values()) <= 1e-6
    assert pair.reflection_defect_asymmetric >= 10 * max(
        pair.reflection_defect_symmetric, 1e-8
    )


def test_branch_pair_json_is_strict(branch_pair):
    # branch_pair.json is strict JSON: a non-finite value is written as null
    def refuse(constant):
        raise ValueError(f"{constant} is not strict JSON")

    text = dataclasses.replace(branch_pair, separation=math.nan).to_json()
    payload = json.loads(text, parse_constant=refuse)
    assert payload["separation"] is None
    assert payload["theta"] == branch_pair.theta


def test_branch_pair_feeds_uniqueness_probe(branch_pair):
    rep = probe_uniqueness_given_gradient(branch_pair.symmetric, branch_pair.asymmetric)
    assert rep.d_grad > 1e-3
    assert rep.verdict == "CONSISTENT"


def test_competitor_beats_symmetric(branch_setup, branch_pair):
    model, grid = branch_setup
    comp = build_competitor(model, grid)
    assert is_admissible(comp)
    j_comp = evaluate_J(model, comp).total
    assert j_comp < branch_pair.j_symmetric.total


@pytest.mark.parametrize("horizon, n_time", [(2.3, 294), (2.3, 290), (1.7, 12)])
def test_competitor_is_admissible_without_a_node_at_unit_time(horizon, n_time):
    # the transition takes round(1/dt) steps, not unit time; its Poisson
    # data is scaled to the time it does take
    model = builtin_quadratic(
        theta=64.0, coupling="antimonotone_symmetric", T=horizon, m0="uniform"
    )
    grid = model.make_grid(24, n_time)
    assert round(1.0 / grid.dt) * grid.dt != 1.0
    assert is_admissible(build_competitor(model, grid))


def _count_rounds_before_polish(monkeypatch):
    """Count fp_step calls, and record the count at each polish call."""
    counts = {"rounds": 0, "at_polish": []}
    fp_step, polish = nonuniqueness.fp_step, nonuniqueness.solve_picard

    def counted_step(state):
        counts["rounds"] += 1
        return fp_step(state)

    def recorded_polish(*args, **kwargs):
        counts["at_polish"].append(counts["rounds"])
        return polish(*args, **kwargs)

    monkeypatch.setattr(nonuniqueness, "fp_step", counted_step)
    monkeypatch.setattr(nonuniqueness, "solve_picard", recorded_polish)
    return counts


def test_asymmetric_search_hands_over_at_the_collapse_check(branch_setup, monkeypatch):
    # the polish from the collapse-check round lands on the branch a polish
    # from the last of 120 rounds finds: fictitious play only has to reach
    # the basin
    model, grid = branch_setup
    state = fictitious_play.fp_start(model, grid, mu0=asymmetric_initial_belief(grid))
    for _ in range(120):
        state = fictitious_play.fp_step(state)
    reference = solve_picard(model, grid, init_m=state.last.m, tol=1e-10, max_iter=400)
    assert reference.converged
    counts = _count_rounds_before_polish(monkeypatch)
    solution, reason = find_asymmetric_branch(model, grid, tol=1e-6, fp_rounds=120)
    assert solution is not None, reason
    assert counts["rounds"] == COLLAPSE_CHECK_ROUND
    assert counts["at_polish"] == [counts["rounds"]]
    assert sup_norm(solution.m.values - reference.m.values) <= 1e-9


def test_asymmetric_search_short_cap_plays_every_round(branch_setup, monkeypatch):
    # a cap below the hand-over round plays every round it allows
    model, grid = branch_setup
    assert COLLAPSE_CHECK_ROUND > 2
    counts = _count_rounds_before_polish(monkeypatch)
    solution, reason = find_asymmetric_branch(model, grid, tol=1e-6, fp_rounds=2)
    assert counts["at_polish"] == [2]
    assert counts["rounds"] == 2
    assert solution is not None, reason


def test_branch_pair_is_the_same_for_every_round_cap_from_the_hand_over(branch_setup):
    # fp_rounds at the hand-over round, the benchmark's 100 and the default
    # 150 all play COLLAPSE_CHECK_ROUND rounds: the pairs agree bit for bit
    model, grid = branch_setup
    pairs = []
    for fp_rounds in (COLLAPSE_CHECK_ROUND, 100, 150):
        pair, reason = make_branch_pair(model, grid, tol=1e-6, fp_rounds=fp_rounds)
        assert pair is not None, reason
        pairs.append(pair)
    first = pairs[0]
    for pair in pairs[1:]:
        assert np.array_equal(pair.asymmetric.m.values, first.asymmetric.m.values)
        assert pair.j_asymmetric.total == first.j_asymmetric.total
        assert pair.j_symmetric.total == first.j_symmetric.total
        assert pair.separation == first.separation


def test_full_weight_polish_matches_a_damped_one_in_fewer_rounds(branch_setup):
    # the asymmetric branch is stable, so the undamped map contracts near
    # it: weight 1 lands where weight 0.5 does, from the same hand-over flow
    model, grid = branch_setup
    state = fictitious_play.fp_start(model, grid, mu0=asymmetric_initial_belief(grid))
    for _ in range(COLLAPSE_CHECK_ROUND):
        state = fictitious_play.fp_step(state)
    full, damped = (
        solve_picard(model, grid, init_m=state.last.m, damping=w, tol=1e-10, max_iter=400)
        for w in (1.0, 0.5)
    )
    assert full.converged and damped.converged
    assert full.iterations < damped.iterations
    assert sup_norm(full.m.values - damped.m.values) <= 1e-9


def test_asymmetric_search_without_a_converged_polish_is_not_found(branch_setup, monkeypatch):
    # a polish stopped at its round cap leaves the cell not-found, whatever
    # the fictitious-play flow it started from
    model, grid = branch_setup
    polish = nonuniqueness.solve_picard
    monkeypatch.setattr(
        nonuniqueness, "solve_picard", lambda *a, **kw: polish(*a, **{**kw, "max_iter": 2})
    )
    solution, reason = find_asymmetric_branch(model, grid, tol=1e-6, fp_rounds=5)
    assert solution is None
    assert reason == "polish did not converge in 2 rounds"


def test_asymmetric_search_refuses_zero_rounds():
    model = builtin_quadratic(
        theta=64.0, coupling="antimonotone_symmetric", T=2.0, m0="uniform"
    )
    with pytest.raises(ValueError, match="fp_rounds"):
        find_asymmetric_branch(model, model.make_grid(16, 32), fp_rounds=0)


@pytest.mark.parametrize("tol", [0.0, -1e-6])
def test_branch_pair_refuses_a_nonpositive_tol_before_solving(tol, monkeypatch):
    # at tol <= 0 the polish target is 0, which no polish reaches: refused
    # before the symmetric branch is solved
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before refusing tol")

    monkeypatch.setattr(nonuniqueness, "solve_picard", no_solve)
    model = builtin_quadratic(
        theta=64.0, coupling="antimonotone_symmetric", T=1.0, m0="uniform"
    )
    with pytest.raises(ValueError, match="tol must be positive"):
        make_branch_pair(model, model.make_grid(16, 32), tol=tol)


@pytest.mark.parametrize("search", [make_branch_pair, find_asymmetric_branch])
def test_branch_search_refuses_an_infinite_tol_before_solving(search, monkeypatch):
    # at tol = inf every polish residual passes the check: refused before
    # fictitious play starts or any branch is solved
    def no_work(*args, **kwargs):
        raise AssertionError("worked before refusing tol")

    monkeypatch.setattr(nonuniqueness, "solve_picard", no_work)
    monkeypatch.setattr(nonuniqueness, "fp_start", no_work)
    model = builtin_quadratic(
        theta=64.0, coupling="antimonotone_symmetric", T=1.0, m0="uniform"
    )
    with pytest.raises(ValueError, match="tol must be positive and finite, got inf"):
        search(model, model.make_grid(16, 32), tol=math.inf)


def test_competitor_requires_long_horizon():
    model = builtin_quadratic(
        theta=8.0, coupling="antimonotone_symmetric", T=1.0, m0="uniform"
    )
    grid = model.make_grid(16, 32)
    with pytest.raises(ValueError):
        build_competitor(model, grid)


def test_holding_profile_beats_uniform_at_large_theta():
    model = builtin_quadratic(
        theta=64.0, coupling="antimonotone_symmetric", T=2.0, m0="uniform"
    )
    grid = model.make_grid(32, 64)
    mbar, rate = best_holding_profile(model, grid)
    assert rate < model.coupling.F(grid, np.ones(32))  # cheaper than symmetric rest
    assert mbar.min() > 0


def test_asymmetric_belief_valid():
    grid = builtin_quadratic(0.0, coupling="none").make_grid(16, 8)
    mu0 = asymmetric_initial_belief(grid)
    assert mu0.shape == (9, 16)
    assert mu0.min() >= 0
    masses = grid.cell_volume * mu0.sum(axis=1)
    assert np.max(np.abs(masses - 1.0)) <= 1e-12


def test_sweep_names_a_failed_j_ordering(monkeypatch):
    # a residual-verified pair whose asymmetric J is not lower is not found,
    # and its reason must say why rather than repeat the pair's "ok"
    from types import SimpleNamespace

    import mfg_lab.nonuniqueness as nu

    def unordered_pair(model, grid, tol):
        pair = SimpleNamespace(
            separation=0.5,
            j_symmetric=SimpleNamespace(total=1.0),
            j_asymmetric=SimpleNamespace(total=1.0),
        )
        return pair, "ok"

    monkeypatch.setattr(nu, "make_branch_pair", unordered_pair)
    res = nu.sweep_nonuniqueness(thetas=(64.0,), horizons=(1.0,), n_space=8)
    (cell,) = res.cells
    assert not cell["found"]
    assert cell["reason"] == "J(asymmetric) not below J(symmetric)"
    assert res.best is None
