"""Whole-trajectory calls: stencils, heat step, residuals, couplings and
their kernel factors act on a leading stack exactly as slice by slice, the
sweeps' difference products match the stencils to roundoff, and a Picard
iteration makes a fixed number of stencil calls, however many time steps its
sweeps take."""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mfg_lab.grid as grid_module
from mfg_lab.grid import TorusGrid, divergence, gradient, laplacian
from mfg_lab.mfg import heat_flow_of_initial, solve_picard
from mfg_lab.models import builtin_quadratic, squared_norm
from mfg_lab.pde import (
    PeriodicHeatSolver,
    _difference_matrix,
    _slice_stencils,
    continuity_residual,
    hjb_residual,
    kolmogorov_residual,
)


@st.composite
def grids(draw, max_time=6):
    dim = draw(st.sampled_from([1, 2]))
    n = draw(st.integers(4, 33 if dim == 1 else 12))
    return TorusGrid(dim, n, draw(st.integers(2, max_time)))


stacks = st.lists(st.integers(1, 4), min_size=0, max_size=2).map(tuple)
seeds = st.integers(0, 2**32 - 1)

SETTINGS = settings(max_examples=40)


@SETTINGS
@given(grids(), stacks, seeds)
def test_stacked_stencils_equal_per_slice_calls_bitwise(grid, stack, seed):
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((*stack, *grid.spatial_shape))
    w = rng.standard_normal((*stack, *grid.spatial_shape, grid.dim))
    du, divw, lapu = gradient(grid, u), divergence(grid, w), laplacian(grid, u)
    for idx in np.ndindex(*stack):
        assert np.array_equal(du[idx], gradient(grid, u[idx]))
        assert np.array_equal(divw[idx], divergence(grid, w[idx]))
        assert np.array_equal(lapu[idx], laplacian(grid, u[idx]))


@SETTINGS
@given(grids(), stacks, seeds, st.floats(1e-3, 0.25))
def test_heat_step_matches_dense_solve(grid, stack, seed, dt):
    grid = TorusGrid(grid.dim, grid.n_space, 2, 0.0, 2.0 * dt)  # time step dt, exactly
    rng = np.random.default_rng(seed)
    rhs = rng.standard_normal((*stack, *grid.spatial_shape))
    n = grid.n_nodes
    # G (d n x n, components stacked axis-major): row j of the gradient of
    # the identity holds column j of every component
    g = gradient(grid, np.eye(n).reshape(n, *grid.spatial_shape)).reshape(n, n, grid.dim)
    G = np.concatenate([g[..., a].T for a in range(grid.dim)])
    dense = np.eye(n) + dt * (G.T @ G)  # I - dt Lap
    exact = np.linalg.solve(dense, rhs.reshape(-1, grid.n_nodes).T).T
    out = PeriodicHeatSolver(grid).step(rhs)
    assert out.shape == rhs.shape
    assert np.max(np.abs(out.reshape(-1, grid.n_nodes) - exact)) <= 1e-12


@SETTINGS
@given(grids(), stacks, seeds)
def test_sweep_difference_products_equal_grid_stencils(grid, stack, seed):
    # the sweeps' C products sum in another order than the stencils
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((*stack, *grid.spatial_shape))
    w = rng.standard_normal((*stack, *grid.spatial_shape, grid.dim))
    sq_grad, div, forward = _slice_stencils(grid)
    scale = 1.0 / grid.dx
    g = gradient(grid, u)
    # per component, |a^2 - b^2| = |a - b| |a + b| with |a - b| <= 1e-14 scale
    bound = 2e-14 * grid.dim * scale * (np.max(np.abs(g)) + scale)
    assert np.max(np.abs(sq_grad(u) - squared_norm(g))) <= bound
    # the components sq_grad writes are the ones it squares
    rows = tuple(np.empty_like(u) for _ in range(grid.dim))
    assert np.array_equal(sq_grad(u, rows), sq_grad(u))
    assert np.max(np.abs(np.stack(rows, axis=-1) - g)) <= 1e-14 * scale
    components = np.moveaxis(w, -1, 0)
    assert np.max(np.abs(div(components) - divergence(grid, w))) <= 1e-14 * scale
    # the forward step is heat(m + dt div(m b)), in 1D with the solve folded in
    mw = u[..., None] * w
    expected = PeriodicHeatSolver(grid).apply(u + grid.dt * divergence(grid, mw))
    bound = 1e-14 * (np.max(np.abs(u)) + grid.dt * scale * max(1.0, np.max(np.abs(mw))))
    assert np.max(np.abs(forward(u, components) - expected)) <= bound


# per-slice reference loops: the residuals as one step at a time


def _hjb_residual_loop(model, grid, u, source):
    coords = grid.coordinates()
    worst = 0.0
    for k in range(grid.n_time):
        defect = (
            -(u[k + 1] - u[k]) / grid.dt
            - laplacian(grid, u[k])
            + model.hamiltonian.value(coords, gradient(grid, u[k + 1]))
            - source[k + 1]
        )
        worst = max(worst, float(np.max(np.abs(defect))))
    return worst


def _kolmogorov_residual_loop(grid, m, drift):
    worst = 0.0
    for k in range(grid.n_time):
        defect = (
            (m[k + 1] - m[k]) / grid.dt
            - laplacian(grid, m[k + 1])
            - divergence(grid, m[k][..., None] * drift[k])
        )
        worst = max(worst, float(np.max(np.abs(defect))))
    return worst


def _continuity_residual_loop(grid, m, w):
    worst = 0.0
    for k in range(grid.n_time):
        defect = (
            (m[k + 1] - m[k]) / grid.dt
            - laplacian(grid, m[k + 1])
            + divergence(grid, w[k])
        )
        worst = max(worst, float(np.max(np.abs(defect))))
    return worst


@SETTINGS
@given(grids(), seeds)
def test_stacked_residuals_equal_per_slice_loops(grid, seed):
    rng = np.random.default_rng(seed)
    model = builtin_quadratic(0.0, coupling="none", dim=grid.dim, hamiltonian="quadratic_xdep")
    shape = (grid.n_time + 1, *grid.spatial_shape)
    u, src, m = (rng.standard_normal(shape) for _ in range(3))
    b, w = (rng.standard_normal((*shape, grid.dim)) for _ in range(2))
    assert hjb_residual(model, grid, u, src) == _hjb_residual_loop(model, grid, u, src)
    assert kolmogorov_residual(grid, m, b) == _kolmogorov_residual_loop(grid, m, b)
    assert continuity_residual(grid, m, w) == _continuity_residual_loop(grid, m, w)


COUPLINGS = [("none", 0.0), ("monotone_local", 0.0), ("monotone_smoothed", 0.0),
             ("antimonotone_symmetric", 16.0)]


@pytest.mark.parametrize("coupling,theta", COUPLINGS)
@SETTINGS
@given(grid=grids(), seed=seeds)
def test_coupling_on_a_stack_acts_slice_by_slice(coupling, theta, grid, seed):
    coup = builtin_quadratic(theta, coupling=coupling, dim=grid.dim).coupling
    rng = np.random.default_rng(seed)
    m = rng.uniform(0.5, 1.5, (grid.n_time + 1, *grid.spatial_shape))
    stacked = coup.f_field(grid, m)
    assert stacked.shape == m.shape
    for k in range(grid.n_time + 1):
        assert np.array_equal(stacked[k], coup.f(grid, m[k]))
        assert np.array_equal(coup.g(grid, m)[k], coup.g(grid, m[k]))


@pytest.mark.parametrize("coupling,theta", COUPLINGS)
@SETTINGS
@given(grid=grids(), stack=stacks, seed=seeds)
def test_kernel_action_on_a_stack_acts_slice_by_slice(coupling, theta, grid, stack, seed):
    # the factors of a stack are those of its slices, of rank <= 3^d + 2,
    # and their product acts slice by slice
    coup = builtin_quadratic(theta, coupling=coupling, dim=grid.dim).coupling
    rng = np.random.default_rng(seed)
    m = rng.uniform(0.5, 1.5, (*stack, *grid.spatial_shape))
    mu = rng.standard_normal((*stack, grid.n_nodes))
    for kernel in (coup.kernel_f, coup.kernel_g):
        fac = kernel(grid, m)
        assert fac.U.shape == fac.W.shape == (*stack, grid.n_nodes, fac.U.shape[-1])
        assert fac.U.shape[-1] <= 3**grid.dim + 2
        stacked = fac @ mu
        assert stacked.shape == mu.shape
        for idx in np.ndindex(*stack):
            one = kernel(grid, m[idx])
            assert one.c == fac.c
            assert np.array_equal(one.U, fac.U[idx]) and np.array_equal(one.W, fac.W[idx])
            want = one @ mu[idx]
            assert np.max(np.abs(stacked[idx] - want), initial=0.0) <= 1e-14 * max(
                1.0, np.max(np.abs(want), initial=0.0)
            )


@pytest.mark.parametrize("coupling, theta", COUPLINGS)
@SETTINGS
@given(grid=grids(), stack=stacks, seed=seeds)
def test_kernel_factors_satisfy_the_symmetry_relation(coupling, theta, grid, stack, seed):
    # K(x,y) - K(y,x) = f(x) - f(y) on every slice of a stack of unit-mass
    # densities, for the running pair (kernel_f, f) and the terminal (kernel_g, g)
    coup = builtin_quadratic(theta, coupling=coupling, dim=grid.dim).coupling
    rng = np.random.default_rng(seed)
    m = rng.uniform(0.5, 1.5, (*stack, *grid.spatial_shape))
    m /= grid.cell_volume * m.sum(axis=grid.spatial_axes, keepdims=True)
    for kernel, f in ((coup.kernel_f, coup.f), (coup.kernel_g, coup.g)):
        K = kernel(grid, m).toarray() / grid.cell_volume
        fv = np.reshape(f(grid, m), (*stack, grid.n_nodes))
        defect = K - np.swapaxes(K, -1, -2) - (fv[..., :, None] - fv[..., None, :])
        assert np.max(np.abs(defect)) <= 1e-12 * max(1.0, np.max(np.abs(K)))


def _count_stencil_calls(monkeypatch) -> dict:
    """Replace gradient and divergence by counters at every import site
    (laplacian calls both through the grid module)."""
    counter = {"calls": 0}
    modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "mfg_lab"]
    for name in ("gradient", "divergence"):
        original = getattr(grid_module, name)

        def counted(*args, _original=original, **kwargs):
            counter["calls"] += 1
            return _original(*args, **kwargs)

        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, counted)
    return counter


def test_picard_iteration_stencil_calls_are_two_sweeps_plus_constant(monkeypatch):
    # the sweeps step with their own difference matrices, so a per-slice
    # stencil loop anywhere in an iteration shows as calls that grow with K
    model = builtin_quadratic(coupling="monotone_local", m0="cosine", T=0.5)
    _difference_matrix(32)  # cached once per N, and built through `gradient`
    calls = {}
    for K in (16, 32):
        grid = model.make_grid(32, K)
        init = heat_flow_of_initial(model, grid)
        with monkeypatch.context() as mp:
            counter = _count_stencil_calls(mp)
            solve_picard(model, grid, init_m=init, tol=0.0, max_iter=1)
        calls[K] = counter["calls"]
        assert calls[K] <= 2 * K + 16
    assert calls[32] == calls[16]
