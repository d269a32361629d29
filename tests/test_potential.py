"""Cost functional, first/second variation, restriction property."""

import math

import numpy as np
import pytest

from conftest import is_admissible, rng_from_seed

from mfg_lab.grid import DensityField, FluxField, sup_norm
from mfg_lab.mfg import heat_flow_of_initial, solve_picard
from mfg_lab.models import Coupling, KernelFactors, builtin_quadratic, check_symmetry_relation
from mfg_lab.potential import (
    AdmissiblePair,
    admissible_direction,
    criticality_defect,
    evaluate_J,
    evaluate_second_variation,
    first_variation,
    perturbed_nonsolution_pair,
    restriction_consistency,
    second_variation_parts,
)


def _square_potential_coupling() -> Coupling:
    """F(m) = int m^2 dx (not the shipped 1/2-scaled one); used by the
    closed-form J example."""

    def f(grid, m):
        m = np.asarray(m)
        return 2.0 * m - 2.0 * grid.cell_volume * np.sum(m * m)

    def kernel(grid, m):
        # dx K with K(x,y) = 4 int m^2 - 4 m(y) - 2 m(x) + 2 delta(x-y)/dx:
        # 2 I + (4 int m^2 - 2 m) (dx 1)^T - 4 (dx m)^T
        vol = grid.cell_volume
        m = np.asarray(m).reshape(-1)
        U = np.stack([4.0 * vol * np.sum(m * m) - 2.0 * m, np.full(m.size, -4.0)], axis=-1)
        W = np.stack([np.full(m.size, vol), vol * m], axis=-1)
        return KernelFactors(2.0, U, W)

    def zero_f(grid, m):
        return np.zeros(grid.spatial_shape)

    def zero_kernel(grid, m):
        return KernelFactors(0.0, np.zeros((grid.n_nodes, 0)), np.zeros((grid.n_nodes, 0)))

    return Coupling(
        name="square",
        f=f,
        kernel_f=kernel,
        F=lambda grid, m: grid.cell_volume * np.sum(np.asarray(m) ** 2, axis=grid.spatial_axes),
        g=zero_f,
        kernel_g=zero_kernel,
        G=lambda grid, m: 0.0,
    )


def test_square_coupling_kernel_is_derivative_of_f(rng):
    # the test coupling's factors are the flat derivative of its f
    coup = _square_potential_coupling()
    grid = builtin_quadratic(0.0, coupling="none").make_grid(16, 2)
    m = rng.uniform(0.5, 1.5, 16)
    mu = rng.standard_normal(16)
    mu -= mu.mean()
    eps = 1e-6
    fd = (coup.f(grid, m + eps * mu) - coup.f(grid, m - eps * mu)) / (2 * eps)
    assert np.max(np.abs(fd - coup.kernel_f(grid, m) @ mu)) <= 1e-8
    assert check_symmetry_relation(coup, grid, m / (grid.cell_volume * m.sum())) <= 1e-12


def test_j_closed_form_uniform_rest():
    # m = 1, w = 0, F(m) = int m^2, G = 0, horizon 1 -> J = 0 + 1 + 0
    from dataclasses import replace

    model = builtin_quadratic(0.0, coupling="none", T=1.0)
    model = replace(model, coupling=_square_potential_coupling())
    grid = model.make_grid(16, 8)
    pair = AdmissiblePair.from_values(
        grid, np.ones((9, 16)), np.zeros((9, 16, 1))
    )
    assert is_admissible(pair)
    jb = evaluate_J(model, pair)
    assert jb.kinetic == 0.0
    assert abs(jb.running_potential - 1.0) <= 1e-12
    assert jb.terminal_potential == 0.0
    assert abs(jb.total - 1.0) <= 1e-12
    assert jb.total == jb.kinetic + jb.running_potential + jb.terminal_potential
    # adding the zero flux is a no-op on J (regression guard)
    same = AdmissiblePair.from_values(grid, pair.m.values, pair.w.values + 0.0)
    assert evaluate_J(model, same).total == jb.total


def test_heat_flow_zero_flux_admissible(decoupled_model, monotone_grid):
    m = heat_flow_of_initial(decoupled_model, monotone_grid)
    grid = monotone_grid
    pair = AdmissiblePair.from_values(
        grid, m, np.zeros((grid.n_time + 1, *grid.spatial_shape, 1))
    )
    assert is_admissible(pair)
    assert evaluate_J(decoupled_model, pair).kinetic == 0.0
    # w = -Dm does NOT pair with the heat flow: the defect is -Lap(m)
    from mfg_lab.grid import gradient

    w_bad = -np.stack([gradient(grid, m[k]) for k in range(grid.n_time + 1)])
    bad = AdmissiblePair.from_values(grid, m, w_bad)
    assert not is_admissible(bad)
    assert bad.continuity_defect > 1e-3


def test_infinite_kinetic_flag():
    model = builtin_quadratic(0.0, coupling="none", T=1.0)
    grid = model.make_grid(16, 4)
    m = np.zeros((5, 16))
    m[:, :8] = 2.0  # unit mass, exact zeros elsewhere
    w = np.zeros((5, 16, 1))
    w[:, 12, 0] = 1.0  # flux where m = 0
    pair = AdmissiblePair(
        m=DensityField(grid, m), w=FluxField(grid, w), continuity_defect=0.0
    )
    jb = evaluate_J(model, pair)
    assert not jb.finite and math.isinf(jb.total)
    w0 = FluxField(grid, np.zeros((5, 16, 1)))
    jb0 = evaluate_J(model, AdmissiblePair(m=DensityField(grid, m), w=w0, continuity_defect=0.0))
    assert jb0.finite and jb0.kinetic == 0.0


def test_j_grid_refinement_consistency(monotone_model):
    coarse_grid = monotone_model.make_grid(32, 64)
    fine_grid = monotone_model.make_grid(64, 256)
    j = []
    for g in (coarse_grid, fine_grid):
        sol = solve_picard(monotone_model, g, damping=0.5, tol=1e-11, max_iter=400)
        j.append(evaluate_J(monotone_model, AdmissiblePair.from_solution(sol)).total)
    scale = coarse_grid.dt + coarse_grid.dx**2
    assert abs(j[0] - j[1]) <= 10.0 * scale


def test_criticality_at_solution(monotone_model, monotone_solution):
    rep = criticality_defect(
        monotone_model, monotone_solution, probes=5, rng=rng_from_seed(11)
    )
    assert rep.max_defect <= 1e-6
    assert rep.max_fd_mismatch <= 1e-5


def test_criticality_decoupled(decoupled_model, decoupled_solution):
    rep = criticality_defect(
        decoupled_model, decoupled_solution, probes=3, rng=rng_from_seed(12)
    )
    assert rep.max_defect <= 1e-8


def test_criticality_detects_nonsolution(monotone_model, monotone_solution):
    rng = rng_from_seed(13)
    at_sol = criticality_defect(monotone_model, monotone_solution, probes=5, rng=rng).max_defect
    pert = perturbed_nonsolution_pair(monotone_model, monotone_solution, 1e-2, rng)
    assert sup_norm(pert.m.values - monotone_solution.m.values) > 1e-4
    worst = 0.0
    for _ in range(5):
        mu, z = admissible_direction(monotone_solution.grid, rng)
        worst = max(worst, abs(first_variation(monotone_model, pert, mu, z)))
    assert worst >= 1e-4
    assert worst >= 10.0 * at_sol


def test_second_variation_basics(monotone_model, monotone_solution):
    grid = monotone_solution.grid
    zero_mu = np.zeros((grid.n_time + 1, *grid.spatial_shape))
    zero_z = np.zeros((grid.n_time + 1, *grid.spatial_shape, 1))
    assert evaluate_second_variation(monotone_model, monotone_solution, zero_mu, zero_z) == 0.0
    rng = rng_from_seed(14)
    mu, z = admissible_direction(grid, rng)
    val = evaluate_second_variation(monotone_model, monotone_solution, mu, z)
    scaled = evaluate_second_variation(monotone_model, monotone_solution, 3.0 * mu, 3.0 * z)
    assert abs(scaled - 9.0 * val) <= 1e-10 * max(1.0, abs(val) * 9)


def test_second_variation_bilinear_symmetry(monotone_model, monotone_solution):
    rng = rng_from_seed(15)
    grid = monotone_solution.grid

    def q(mu, z):
        return evaluate_second_variation(monotone_model, monotone_solution, mu, z)

    mu1, z1 = admissible_direction(grid, rng)
    mu2, z2 = admissible_direction(grid, rng)
    # polarization: bilinear form from the quadratic one, must be symmetric
    b12 = 0.25 * (q(mu1 + mu2, z1 + z2) - q(mu1 - mu2, z1 - z2))
    b21 = 0.25 * (q(mu2 + mu1, z2 + z1) - q(mu2 - mu1, z2 - z1))
    assert abs(b12 - b21) <= 1e-9


def test_second_variation_positive_monotone(monotone_model, monotone_solution):
    rng = rng_from_seed(16)
    for _ in range(10):
        mu, z = admissible_direction(monotone_solution.grid, rng)
        assert (
            evaluate_second_variation(monotone_model, monotone_solution, mu, z)
            >= -1e-6
        )


def test_second_variation_positive_decoupled(decoupled_model, decoupled_solution):
    rng = rng_from_seed(17)
    mu, z = admissible_direction(decoupled_solution.grid, rng)
    kin, run, term = second_variation_parts(decoupled_model, decoupled_solution, mu, z)
    assert run == 0.0 and term == 0.0
    assert kin > 0.0


def test_second_variation_rejects_inadmissible(monotone_model, monotone_solution):
    grid = monotone_solution.grid
    mu = np.ones((grid.n_time + 1, *grid.spatial_shape))
    z = np.zeros((grid.n_time + 1, *grid.spatial_shape, 1))
    with pytest.raises(ValueError):
        evaluate_second_variation(monotone_model, monotone_solution, mu, z)


def test_restriction_consistency_monotone(monotone_model, monotone_solution):
    rep = restriction_consistency(monotone_model, monotone_solution, t1_index=12)
    assert rep.both_converged
    assert rep.dist_from_restriction_init <= 1e-6
    assert rep.dist_from_perturbed_init <= 1e-6


def test_restriction_consistency_decoupled(decoupled_model, decoupled_solution):
    rep = restriction_consistency(decoupled_model, decoupled_solution, t1_index=24)
    assert rep.dist_from_restriction_init <= 1e-10
    assert rep.dist_from_perturbed_init <= 1e-10


def test_restriction_requires_interior_time(monotone_model, monotone_solution):
    # t1 = K-1 leaves one time step, which `TorusGrid.restrict` refuses
    for t1 in (0, monotone_solution.grid.n_time - 1):
        with pytest.raises(ValueError):
            restriction_consistency(monotone_model, monotone_solution, t1_index=t1)
