"""Two-dimensional path: solves, certification, reflection machinery."""

import math

import numpy as np

from mfg_lab.grid import TorusGrid, sup_norm
from mfg_lab.mfg import solve_picard
from mfg_lab.models import builtin_quadratic
from mfg_lab.nonuniqueness import find_asymmetric_branch, reflect_values, reflection_defect
from mfg_lab.pde import solve_kolmogorov
from mfg_lab.stability import certify_stability


def test_2d_heat_flow_product_mode():
    grid = TorusGrid(2, 16, 64, 0.0, 0.25)
    x1, x2 = grid.coordinates()
    m0 = 1 + 0.25 * np.cos(2 * np.pi * x1) + 0.25 * np.cos(2 * np.pi * x2)
    out = solve_kolmogorov(grid, np.zeros((65, 16, 16, 2)), m0)
    decay = math.exp(-4 * math.pi**2 * 0.25)
    exact = 1 + 0.25 * decay * (np.cos(2 * np.pi * x1) + np.cos(2 * np.pi * x2))
    assert sup_norm(out.values[-1] - exact) <= 5 * (grid.dt + grid.dx**2)
    assert np.max(np.abs(out.mass() - 1.0)) <= 1e-12


def test_2d_monotone_solve_and_certificate():
    model = builtin_quadratic(coupling="monotone_local", dim=2, T=0.25, m0="cosine")
    grid = model.make_grid(8, 16)
    sol = solve_picard(model, grid, damping=0.5, tol=1e-11, max_iter=300)
    assert sol.converged
    assert max(sol.residuals.values()) <= 1e-9
    cert = certify_stability(model, sol, 0)
    assert cert.verdict == "STABLE" and cert.sigma_min > 1e-6


def test_2d_reflection_in_first_axis():
    rng = np.random.default_rng(0)
    vals = rng.standard_normal((2, 8, 8))
    refl = reflect_values(vals)
    assert np.array_equal(refl[:, 0, :], vals[:, 0, :])  # x1 = 0 fixed line
    assert np.array_equal(reflect_values(refl), vals)


def test_2d_asymmetric_branch_exists():
    # theta between the symmetry-breaking threshold and the violent regime;
    # dt respects the explicit-transport bound at the transient drift scale
    model = builtin_quadratic(
        theta=32.0, coupling="antimonotone_symmetric", dim=2, T=2.0, m0="uniform"
    )
    grid = model.make_grid(16, 1024)
    sol, reason = find_asymmetric_branch(model, grid, tol=1e-6, fp_rounds=40)
    assert sol is not None, reason
    assert max(sol.residuals.values()) <= 1e-6
    # genuinely lopsided along x1
    assert reflection_defect(sol.m.values) >= 1e-2
