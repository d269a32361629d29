"""Backward/forward solver verification: trivial fixed points, manufactured
solution, heat-flow reference, conservation, residuals, comparison, the
Fourier basis of the heat step, non-finite sweeps, and the sweeps bit for bit
against plain step loops."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfg_lab.grid import (
    NEG_TOL,
    TorusGrid,
    inner,
    l2_norm,
    laplacian,
    laplacian_symbol,
)
from mfg_lab.models import builtin_quadratic, quadratic_hamiltonian
from mfg_lab.pde import (
    SolverError,
    _difference_matrix,
    _fourier_basis,
    _heat_operators,
    _slice_stencils,
    continuity_residual,
    drift_field,
    hjb_residual,
    kolmogorov_residual,
    solve_continuity,
    solve_heat,
    solve_hjb,
    solve_kolmogorov,
)
from mfg_lab.verification import heat_flow_error, manufactured_hjb_error, spatial_order_fit


@pytest.fixture(scope="module")
def model():
    return builtin_quadratic(0.0, coupling="none", T=0.25)


def test_hjb_zero_data_gives_zero(model):
    grid = model.make_grid(32, 16)
    u, _ = solve_hjb(model, grid, np.zeros((17, 32)), np.zeros(32))
    assert np.max(np.abs(u)) == 0.0


def test_hjb_constants_invariant(model):
    grid = model.make_grid(32, 16)
    u, _ = solve_hjb(model, grid, np.zeros((17, 32)), np.full(32, 2.5))
    assert np.max(np.abs(u - 2.5)) <= 1e-13


def test_manufactured_convergence():
    errs = [manufactured_hjb_error(n, n * n // 4) for n in (16, 32, 64)]
    assert errs[0] > errs[1] > errs[2]
    order = spatial_order_fit([16, 32, 64], errs)
    assert order >= 1.8


@pytest.mark.parametrize("n_list", [[32], [32, 32], []])
def test_order_fit_refuses_fewer_than_two_resolutions(n_list):
    # a degree-1 fit through one point has no slope to report
    with pytest.raises(ValueError, match="two distinct resolutions"):
        spatial_order_fit(n_list, [1e-3] * len(n_list))


def test_manufactured_time_order():
    # fixed fine space, refine dt: first order in time
    errs = [manufactured_hjb_error(128, k) for k in (64, 128, 256)]
    rates = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert all(r >= 0.85 for r in rates)


def test_kolmogorov_uniform_stationary():
    grid = TorusGrid(1, 32, 16, 0.0, 0.25)
    out = solve_kolmogorov(grid, np.zeros((17, 32, 1)), np.ones(32))
    assert np.max(np.abs(out.values - 1.0)) <= 1e-13


def test_kolmogorov_heat_oracle():
    # independent oracle: exact Fourier decay of the single cosine mode
    grid = TorusGrid(1, 64, 256, 0.0, 0.25)
    x = grid.axis_coordinates()
    m0 = 1 + 0.5 * np.cos(2 * np.pi * x)
    out = solve_kolmogorov(grid, np.zeros((257, 64, 1)), m0)
    exact = 1 + 0.5 * math.exp(-4 * math.pi**2 * 0.25) * np.cos(2 * np.pi * x)
    assert l2_norm(grid, out.values[-1] - exact) <= 5e-4
    err_sup_t = max(
        l2_norm(
            grid,
            out.values[k]
            - (1 + 0.5 * math.exp(-4 * math.pi**2 * grid.dt * k) * np.cos(2 * np.pi * x)),
        )
        for k in range(257)
    )
    # first-order-in-time transient: bounded by C (dt + dx^2)
    assert err_sup_t <= 5.0 * (grid.dt + grid.dx**2)
    err2, mass2 = heat_flow_error(64, 256, 0.25)
    assert err2 <= 5e-4 and mass2 <= 1e-12


def test_mass_conserved_with_drift(model, rng):
    grid = model.make_grid(32, 64)
    x = grid.axis_coordinates()
    drift = np.zeros((65, 32, 1))
    drift[..., 0] = 0.8 * np.sin(2 * np.pi * x) + 0.3
    out = solve_kolmogorov(grid, drift, 1 + 0.5 * np.cos(2 * np.pi * x))
    assert np.max(np.abs(out.mass() - 1.0)) <= 1e-12
    assert out.values.min() >= -1e-12


def test_kolmogorov_negative_density_error():
    grid = TorusGrid(1, 32, 4, 0.0, 0.5)  # dt = 0.125, violently explicit
    x = grid.axis_coordinates()
    drift = np.zeros((5, 32, 1))
    drift[..., 0] = 30.0 * np.cos(2 * np.pi * x)
    with pytest.raises(SolverError):
        solve_kolmogorov(grid, drift, np.ones(32))


def test_solver_residuals_at_solution(model, rng):
    grid = model.make_grid(32, 32)
    x = grid.axis_coordinates()
    source = np.stack([np.sin(2 * np.pi * x) * (1 + t) for t in grid.times])
    u, _ = solve_hjb(model, grid, source, np.cos(2 * np.pi * x))
    assert hjb_residual(model, grid, u, source) <= 1e-10
    from mfg_lab.mfg import drift_field

    b = drift_field(model, grid, u)
    mout = solve_kolmogorov(grid, b, np.ones(32))
    assert kolmogorov_residual(grid, mout.values, b) <= 1e-10


def test_residual_of_zero_with_unit_source(model):
    grid = model.make_grid(32, 16)
    u = np.zeros((17, 32))
    r = np.ones((17, 32))
    assert abs(hjb_residual(model, grid, u, r) - 1.0) <= 1e-14


def test_residual_linear_in_perturbation(model, rng):
    grid = model.make_grid(32, 16)
    source = np.zeros((17, 32))
    u, _ = solve_hjb(model, grid, source, np.zeros(32))
    eta = np.stack([np.sin(2 * np.pi * grid.axis_coordinates() + 0.3 * k) for k in range(17)])
    r_small = hjb_residual(model, grid, u + 1e-4 * eta, source)
    r_large = hjb_residual(model, grid, u + 1e-3 * eta, source)
    assert 8.0 <= r_large / r_small <= 12.0  # two-point slope ~ linear


def test_comparison_constant_shift(model):
    grid = model.make_grid(32, 32)
    x = grid.axis_coordinates()
    base = np.stack([np.sin(2 * np.pi * x) for _ in grid.times])
    uT = np.cos(2 * np.pi * x)
    u2 = solve_hjb(model, grid, base, uT)[0]
    u1 = solve_hjb(model, grid, base + 1.0, uT)[0]
    gap = u1 - u2
    assert gap.min() >= -1e-10
    # constant source shift integrates exactly
    expect = np.array([(grid.T - t) for t in grid.times])
    assert np.max(np.abs(gap - expect[:, None])) <= 1e-12


def test_comparison_smooth_ordered_data(model):
    grid = model.make_grid(32, 64)
    x = grid.axis_coordinates()
    r2 = np.stack([0.5 * np.cos(2 * np.pi * x) for _ in grid.times])
    r1 = r2 + 1.0 + 0.5 * np.sin(2 * np.pi * x)  # r1 >= r2 strictly
    uT2 = np.zeros(32)
    uT1 = uT2 + 0.2 * (1 + np.cos(2 * np.pi * x))  # uT1 >= uT2
    u1 = solve_hjb(model, grid, r1, uT1)[0]
    u2 = solve_hjb(model, grid, r2, uT2)[0]
    assert (u1 - u2).min() >= -1e-10


def test_summation_by_parts_chain(model, rng):
    """Mixed Abel summation telescopes to boundary terms exactly."""
    grid = model.make_grid(32, 32)
    x = grid.axis_coordinates()
    source = np.stack([np.sin(2 * np.pi * x + 0.1 * k) for k in range(33)])
    u = solve_hjb(model, grid, source, np.cos(2 * np.pi * x))[0]
    from mfg_lab.mfg import drift_field

    b = drift_field(model, grid, u)
    m = solve_kolmogorov(grid, b, 1 + 0.5 * np.cos(2 * np.pi * x)).values
    K = grid.n_time
    chain = sum(
        inner(grid, u[k + 1] - u[k], m[k + 1]) + inner(grid, u[k], m[k + 1] - m[k])
        for k in range(K)
    )
    boundary = inner(grid, u[K], m[K]) - inner(grid, u[0], m[0])
    assert abs(chain - boundary) <= 1e-10
    # substituting the discrete equations reproduces d/dt int(u m) to O(dt)
    kmid = K // 2
    lhs = (inner(grid, u[kmid + 1], m[kmid + 1]) - inner(grid, u[kmid], m[kmid])) / grid.dt
    dudt = (u[kmid + 1] - u[kmid]) / grid.dt
    dmdt = (m[kmid + 1] - m[kmid]) / grid.dt
    rhs = inner(grid, dudt, m[kmid + 1]) + inner(grid, u[kmid], dmdt)
    assert abs(lhs - rhs) <= 1e-10


def test_solve_continuity_matches_residual(rng):
    grid = TorusGrid(1, 32, 24, 0.0, 0.5)
    w = rng.standard_normal((25, 32, 1))
    m = solve_continuity(grid, w, np.zeros(32))
    assert continuity_residual(grid, m, w) <= 1e-10
    # zero-mass initial data stays zero-mass
    masses = grid.cell_volume * m.sum(axis=1)
    assert np.max(np.abs(masses)) <= 1e-12


# ---------------------------------------------------------------------------
# the per-slice operators of the sweeps, and what the sweeps guarantee
# ---------------------------------------------------------------------------


@st.composite
def grids(draw):
    # odd and even N, and enough steps for roundoff in the mass to add up
    dim = draw(st.sampled_from([1, 2]))
    n = draw(st.integers(4, 33 if dim == 1 else 12))
    return TorusGrid(dim, n, draw(st.integers(2, 24)))


@pytest.mark.parametrize("n", [4, 5, 6, 7, 16, 17, 24, 33, 64])
def test_fourier_basis_is_orthonormal_and_diagonalizes_the_laplacian(n):
    grid = TorusGrid(1, n, 2)
    q = _fourier_basis(n)
    assert np.max(np.abs(q.T @ q - np.eye(n))) <= 1e-13
    lap = laplacian(grid, np.eye(n)).T  # columns are Lap of the unit vectors
    wave = (np.arange(n) + 1) // 2  # wavenumber of each basis column
    expected = np.diag(laplacian_symbol(grid)[wave])
    assert np.max(np.abs(q.T @ lap @ q - expected)) <= 1e-13 * np.max(np.abs(expected))


@settings(max_examples=40)
@given(grids(), st.integers(0, 2**32 - 1), st.floats(0.05, 0.95))
def test_kolmogorov_sweep_conserves_mass_under_random_drifts(grid, seed, ratio):
    rng = np.random.default_rng(seed)
    d, dx, K = grid.dim, grid.dx, grid.n_time
    grid = TorusGrid(d, grid.n_space, K, 0.0, K * ratio * dx**2 / (2 * d))
    # m0 within a factor 2 of its mean; drifts with rho = dt d max|b| / dx
    # = 1 / (8K), so each explicit transport step moves m by at most rho
    # max m and the heat solve obeys the maximum principle: m stays positive
    # and the sweep's sign test never fires.
    m0 = rng.uniform(0.5, 1.0, grid.spatial_shape)
    m0 /= grid.cell_volume * m0.sum()
    bmax = dx / (8 * K * grid.dt * d)
    drift = bmax * rng.uniform(-1.0, 1.0, (K + 1, *grid.spatial_shape, d))
    out = solve_kolmogorov(grid, drift, m0)
    assert np.max(np.abs(out.mass() - 1.0)) <= 1e-13


def test_hjb_sweep_with_overflowing_hamiltonian_raises(model):
    grid = model.make_grid(16, 8)
    terminal = 1e200 * np.cos(2 * np.pi * grid.axis_coordinates())
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
        SolverError, match="non-finite"
    ):
        solve_hjb(model, grid, np.zeros((9, 16)), terminal)


def test_kolmogorov_sweep_with_huge_finite_drift_raises():
    # the finiteness check runs before the sign test, which NaN would pass
    grid = TorusGrid(1, 16, 8, 0.0, 0.25)
    x = grid.axis_coordinates()
    drift = np.zeros((9, 16, 1))
    drift[..., 0] = 1e300 * np.sin(2 * np.pi * x)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
        SolverError, match="non-finite"
    ):
        solve_kolmogorov(grid, drift, np.ones(16))


@pytest.mark.parametrize(
    "source_shape, terminal_shape, message",
    [((8, 16), (16,), "source shape mismatch"), ((9, 16), (15,), "terminal shape mismatch")],
)
def test_hjb_refuses_misshaped_data(model, source_shape, terminal_shape, message):
    grid = model.make_grid(16, 8)
    with pytest.raises(ValueError, match=message):
        solve_hjb(model, grid, np.zeros(source_shape), np.zeros(terminal_shape))


@pytest.mark.parametrize(
    "drift, m0, message",
    [
        (np.zeros((9, 16, 2)), np.ones(16), "drift shape mismatch"),
        (np.full((9, 16, 1), np.nan), np.ones(16), "drift must be finite"),
        (np.zeros((9, 16, 1)), np.ones(15), "m0 shape mismatch"),
        (np.zeros((9, 16, 1)), np.r_[-1.0, 2.0, np.ones(14)], "m0 must be nonnegative"),
        (np.zeros((9, 16, 1)), np.full(16, 1 + 1e-9), "m0 mass"),
        (np.zeros((9, 16, 1)), np.r_[np.nan, np.ones(15)], "m0 must be finite"),
    ],
)
def test_kolmogorov_refuses_bad_data(drift, m0, message):
    grid = TorusGrid(1, 16, 8, 0.0, 0.25)
    with pytest.raises(ValueError, match=message):
        solve_kolmogorov(grid, drift, m0)


@pytest.mark.parametrize(
    "m0, message",
    [
        (np.ones(15), "m0 shape mismatch"),
        (np.r_[np.nan, np.ones(15)], "m0 must be finite"),
        (np.r_[-1.0, 2.0, np.ones(14)], "m0 must be nonnegative"),
        (np.full(16, 1 + 1e-9), "m0 mass"),
    ],
)
def test_heat_flow_refuses_bad_data(m0, message):
    grid = TorusGrid(1, 16, 8, 0.0, 0.25)
    with pytest.raises(ValueError, match=message):
        solve_heat(grid, m0)


@pytest.mark.parametrize("dim, n", [(1, 17), (1, 24), (2, 9), (2, 12)])
def test_heat_flow_is_the_kolmogorov_sweep_without_drift_bitwise(dim, n, rng):
    grid = TorusGrid(dim, n, 16, 0.0, 0.5)
    m0 = rng.uniform(0.5, 1.5, grid.spatial_shape)
    m0 /= grid.cell_volume * m0.sum()
    zero_drift = np.zeros((17, *grid.spatial_shape, dim))
    heat = solve_heat(grid, m0).values
    assert np.array_equal(heat, solve_kolmogorov(grid, zero_drift, m0).values)


@pytest.mark.parametrize("eps", [0.0, 0.3])
@pytest.mark.parametrize("dim", [1, 2])
def test_hjb_sweep_reads_the_coefficient_once_and_never_calls_value(dim, eps):
    # the Hamiltonian's fields wrapped the way perfbench/tracing.py wraps them
    calls = {"coefficient": 0, "value": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    ham = quadratic_hamiltonian(eps)
    ham = dataclasses.replace(
        ham, **{name: counted(name, getattr(ham, name)) for name in calls}
    )
    model = dataclasses.replace(
        builtin_quadratic(0.0, coupling="none", dim=dim), hamiltonian=ham
    )
    grid = model.make_grid(8, 6)
    x = grid.coordinates()[0]
    solve_hjb(model, grid, np.zeros((7, *grid.spatial_shape)), np.cos(2 * np.pi * x))
    assert calls == {"coefficient": 1, "value": 0}


# ---------------------------------------------------------------------------
# the sweeps bit for bit against plain step loops
# ---------------------------------------------------------------------------


def _plain_operators(grid):
    """Slice gradient, divergence and heat solve as plain ``@`` products."""
    c = _difference_matrix(grid.n_space)
    q, inv_symbol, s, _ = _heat_operators(grid.n_space, grid.dt, grid.dim)
    if grid.dim == 1:
        return (lambda u: (u @ c)[..., None]), (lambda w: w[..., 0] @ c), (lambda r: r @ s)
    ct = c.T
    return (
        lambda u: np.stack((ct @ u, u @ c), axis=-1),
        lambda w: ct @ w[..., 0] + w[..., 1] @ c,
        lambda r: q @ ((q.T @ r @ q) * inv_symbol) @ q.T,
    )


def _plain_hjb(model, grid, source, terminal):
    """u from one step at a time, and the drift D_pH(x, Du) of the per-slice
    gradient products."""
    coords, (grad, _, heat) = grid.coordinates(), _plain_operators(grid)
    value, K, dt = model.hamiltonian.value, grid.n_time, grid.dt
    u = np.empty((K + 1, *grid.spatial_shape))
    u[K] = terminal
    for k in range(K - 1, -1, -1):
        rhs = u[k + 1] - dt * value(coords, grad(u[k + 1])) + dt * source[k + 1]
        u[k] = heat(rhs)
    du = np.stack([grad(u_k) for u_k in u])
    return u, model.hamiltonian.grad_p(coords, du)


def _plain_kolmogorov(grid, drift, m0):
    """m from one step at a time; in 1D the heat solve folded into the flux
    product, m^k S + (m^k b^k)(dt C S)."""
    _, div, heat = _plain_operators(grid)
    _, _, s, dt_cs = _heat_operators(grid.n_space, grid.dt, grid.dim)
    m = np.empty((grid.n_time + 1, *grid.spatial_shape))
    m[0] = m0
    for k in range(grid.n_time):
        if grid.dim == 1:
            m[k + 1] = m[k] @ s + (m[k] * drift[k][..., 0]) @ dt_cs
        else:
            m[k + 1] = heat(m[k] + grid.dt * div(m[k][..., None] * drift[k]))
    return m


def _plain_continuity(grid, w, m0):
    _, div, heat = _plain_operators(grid)
    m = np.empty((grid.n_time + 1, *grid.spatial_shape))
    m[0] = m0
    for k in range(grid.n_time):
        m[k + 1] = heat(m[k] - grid.dt * div(w[k]))
    return m


@settings(max_examples=60)
@given(
    grids(),
    st.integers(0, 2**32 - 1),
    st.floats(0.01, 1.0),
    st.floats(1e-3, 1.0),
    st.sampled_from([0.0, 0.3]),
)
def test_sweeps_equal_plain_step_loops_bitwise(grid, seed, horizon, scale, eps):
    rng = np.random.default_rng(seed)
    grid = TorusGrid(grid.dim, grid.n_space, grid.n_time, 0.0, horizon)
    ham = quadratic_hamiltonian(eps)
    model = dataclasses.replace(
        builtin_quadratic(0.0, coupling="none", dim=grid.dim),
        hamiltonian=ham,
    )
    shape = (grid.n_time + 1, *grid.spatial_shape)
    source = rng.standard_normal(shape)
    terminal = scale * rng.standard_normal(grid.spatial_shape)

    with np.errstate(over="ignore", invalid="ignore"):
        plain_u, plain_b = _plain_hjb(model, grid, source, terminal)
    # the explicit Hamiltonian step can blow up on steep data: the sweep
    # must then refuse, as the Kolmogorov sweep does below
    if not np.isfinite(plain_u).all():
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            SolverError, match="non-finite"
        ):
            solve_hjb(model, grid, source, terminal)
        return
    u, b = solve_hjb(model, grid, source, terminal)
    assert np.array_equal(u, plain_u)
    assert np.array_equal(b, plain_b)

    m0 = rng.uniform(0.5, 1.5, grid.spatial_shape)
    m0 /= grid.cell_volume * m0.sum()
    with np.errstate(over="ignore", invalid="ignore"):
        m = _plain_kolmogorov(grid, b, m0)
    # the sweep checks finiteness before its sign test, which NaN passes
    if not np.isfinite(m).all():
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            SolverError, match="non-finite"
        ):
            solve_kolmogorov(grid, b, m0)
    elif m.min() < -NEG_TOL:
        with pytest.raises(SolverError, match="negative"):
            solve_kolmogorov(grid, b, m0)
    else:
        assert np.array_equal(solve_kolmogorov(grid, b, m0).values, m)

    w = rng.standard_normal((*shape, grid.dim))
    assert np.array_equal(solve_continuity(grid, w, m0), _plain_continuity(grid, w, m0))


@settings(max_examples=60)
@given(
    grids(),
    st.integers(0, 2**32 - 1),
    st.floats(0.01, 1.0),
    st.sampled_from([0.0, 0.3]),
)
def test_sweep_drift_and_folded_step_follow_the_unfolded_scheme(grid, seed, horizon, eps):
    # the bitwise test above pins the sweeps to the drift of their own
    # gradient products and the folded 1D step; both agree with the stencil
    # drift and with heat(m + dt div(m b)) to roundoff
    rng = np.random.default_rng(seed)
    grid = TorusGrid(grid.dim, grid.n_space, grid.n_time, 0.0, horizon)
    ham = quadratic_hamiltonian(eps)
    model = dataclasses.replace(
        builtin_quadratic(0.0, coupling="none", dim=grid.dim),
        hamiltonian=ham,
    )
    shape = (grid.n_time + 1, *grid.spatial_shape)
    source = 0.1 * rng.standard_normal(shape)
    terminal = 0.1 * rng.standard_normal(grid.spatial_shape)
    u, b = solve_hjb(model, grid, source, terminal)
    # a difference quotient holds its digits relative to its operands,
    # max|u| / dx, times the coefficient a <= 1 + eps
    scale = (1.0 + eps) * np.max(np.abs(u)) / grid.dx
    assert np.max(np.abs(b - drift_field(model, grid, u))) <= 1e-14 * scale

    # every step of the sweep at once, on the stack of slices 0..K-1
    m = rng.uniform(0.5, 1.5, shape)[:-1]
    components = np.moveaxis(b[:-1], -1, 0)
    _, div, heat = _plain_operators(grid)
    unfolded = heat(m + grid.dt * div(m[..., None] * b[:-1]))
    folded = _slice_stencils(grid)[2](m, components)
    assert np.max(np.abs(folded - unfolded)) <= 1e-14 * np.max(np.abs(unfolded))
