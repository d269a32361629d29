"""Model data: convexity, conjugacy, kernels, and the built-in library."""

import numpy as np
import pytest

from mfg_lab.grid import TorusGrid
from mfg_lab.models import (
    Hamiltonian,
    antimonotone_symmetric_coupling,
    builtin_quadratic,
    check_convexity,
    check_coupling_normalization,
    check_hamiltonian_gradient,
    check_legendre,
    check_symmetry_relation,
    legendre_transform_newton,
    monotone_local_coupling,
    monotone_smoothed_coupling,
    m0_preset,
    quadratic_hamiltonian,
    squared_norm,
    zero_coupling,
)

ALL_POTENTIAL_COUPLINGS = [
    zero_coupling(),
    monotone_local_coupling(),
    monotone_smoothed_coupling(),
    antimonotone_symmetric_coupling(2.5),
]


def random_density(grid: TorusGrid, rng) -> np.ndarray:
    m = np.abs(rng.standard_normal(grid.spatial_shape)) + 0.3
    return m / (grid.cell_volume * m.sum())


def test_convexity_quadratic():
    ham, _ = quadratic_hamiltonian(0.0)
    rep = check_convexity(ham, dim=1, samples=100, seed=1)
    assert rep.ok
    assert abs(rep.min_eig - 1.0) < 1e-12 and abs(rep.max_eig - 1.0) < 1e-12


def test_convexity_x_dependent():
    ham, _ = quadratic_hamiltonian(0.1)
    rep = check_convexity(ham, dim=1, samples=500, seed=2)
    assert rep.ok
    assert 0.9 - 1e-9 <= rep.min_eig and rep.max_eig <= 1.1 + 1e-9


def test_convexity_halved_profile():
    # Hessian (1 + 0.1 cos)/2 * I: sampled extremes land in [0.45, 0.55]
    base, _ = quadratic_hamiltonian(0.1)
    ham = Hamiltonian(
        name="halved",
        value=lambda x, p: 0.5 * base.value(x, p),
        grad_p=lambda x, p: 0.5 * base.grad_p(x, p),
        hess_pp=lambda x, p: 0.5 * base.hess_pp(x, p),
        grad_x=lambda x, p: 0.5 * base.grad_x(x, p),
        coefficient=lambda x: 0.5 * base.coefficient(x),
    )
    rep = check_convexity(ham, dim=1, samples=500, seed=3)
    assert rep.ok and rep.min_eig >= 0.45 - 1e-9 and rep.max_eig <= 0.55 + 1e-9


def test_convexity_flags_degenerate():
    # H = p_1^2 / 2 in 2D: D2_ppH = diag(1, 0) is flat along p_2
    def hess_pp(x, p):
        out = np.zeros((*p.shape, 2))
        out[..., 0, 0] = 1.0
        return out

    ham = Hamiltonian(
        name="p1_squared",
        value=lambda x, p: 0.5 * p[..., 0] ** 2,
        grad_p=lambda x, p: p * np.array([1.0, 0.0]),
        hess_pp=hess_pp,
        grad_x=lambda x, p: np.zeros(p.shape),
        coefficient=None,  # not of the form a(x)|p|^2/2: no sweep can run it
    )
    rep = check_convexity(ham, dim=2, samples=100, seed=4)
    assert not rep.ok
    assert rep.min_eig == 0.0 and rep.max_eig == 1.0


@pytest.mark.parametrize("eps", [0.0, 0.1])
def test_gradient_check(eps):
    ham, _ = quadratic_hamiltonian(eps)
    assert check_hamiltonian_gradient(ham, dim=1, samples=50, seed=5) <= 1e-6
    assert check_hamiltonian_gradient(ham, dim=2, samples=50, seed=5) <= 1e-6


@pytest.mark.parametrize("eps", [0.0, 0.1])
@pytest.mark.parametrize("dim", [1, 2])
def test_legendre_identities(eps, dim):
    ham, lag = quadratic_hamiltonian(eps)
    rep = check_legendre(ham, lag, dim=dim, samples=200, seed=6)
    assert rep.conjugacy_defect <= 1e-8
    assert rep.hessian_identity_defect <= 1e-8
    assert rep.argmax_defect <= 1e-8


@pytest.mark.parametrize("stack", [(), (7,), (5, 6), (2, 3, 4)])
@pytest.mark.parametrize("eps", [0.0, 0.3])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_squared_norm_forms_equal_the_reduction_bitwise(dim, eps, stack, rng):
    # |p|^2 summed component by component is the reduction, bit for bit
    p = rng.standard_normal((*stack, dim)) * 10.0 ** rng.integers(-4, 5, (*stack, dim))
    x = tuple(rng.uniform(0.0, 1.0, stack) for _ in range(dim))
    sq = (p * p).sum(axis=-1)
    a = 1.0 + eps * np.cos(2.0 * np.pi * x[0])
    da = -2.0 * np.pi * eps * np.sin(2.0 * np.pi * x[0])
    ham, lag = quadratic_hamiltonian(eps)
    assert np.array_equal(squared_norm(p), sq)
    assert np.array_equal(ham.value(x, p), 0.5 * a * sq)
    assert np.array_equal(ham.grad_x(x, p)[..., 0], 0.5 * da * sq)
    assert np.array_equal(lag.value(x, p), 0.5 * sq / a)


@pytest.mark.parametrize("eps", [0.0, 0.1])
@pytest.mark.parametrize("dim", [1, 2])
def test_coefficient_gives_the_hamiltonian_and_its_hessian(dim, eps, rng):
    # H = a(x)|p|^2/2 with a = coefficient(x), bit for bit, and D2_ppH = a I
    ham, _ = quadratic_hamiltonian(eps)
    x = tuple(rng.uniform(0.0, 1.0, 50) for _ in range(dim))
    p = rng.standard_normal((50, dim))
    a = ham.coefficient(x)
    assert np.array_equal(ham.value(x, p), 0.5 * a * squared_norm(p))
    diag = np.diagonal(ham.hess_pp(x, p), axis1=-2, axis2=-1)
    assert np.array_equal(diag, np.broadcast_to(np.asarray(a)[..., None], diag.shape))


def test_legendre_newton_maximizer():
    ham, _ = quadratic_hamiltonian(0.0)
    rng = np.random.default_rng(7)
    x = (rng.uniform(size=10),)
    q = rng.standard_normal((10, 1))
    p_star, lvals = legendre_transform_newton(ham, x, q)
    # quadratic pair: maximizer p* = -q, value |q|^2/2
    assert np.max(np.abs(p_star + q)) <= 1e-12
    assert np.max(np.abs(lvals - 0.5 * q[..., 0] ** 2)) <= 1e-12


@pytest.mark.parametrize("coup", ALL_POTENTIAL_COUPLINGS, ids=lambda c: c.name)
@pytest.mark.parametrize("dim", [1, 2])
def test_symmetry_relation_all_pairs(coup, dim, rng):
    grid = TorusGrid(dim, 16, 2)
    m = random_density(grid, rng)
    assert check_symmetry_relation(coup, grid, m) <= 1e-10


@pytest.mark.parametrize("coup", ALL_POTENTIAL_COUPLINGS, ids=lambda c: c.name)
def test_coupling_normalization(coup, rng):
    grid = TorusGrid(1, 16, 2)
    m = random_density(grid, rng)
    f_defect, k_defect = check_coupling_normalization(coup, grid, m)
    assert f_defect <= 1e-10
    assert k_defect <= 1e-10


@pytest.mark.parametrize(
    "coup",
    [monotone_local_coupling(), monotone_smoothed_coupling(), antimonotone_symmetric_coupling(3.0)],
    ids=lambda c: c.name,
)
def test_kernel_is_derivative_of_f(coup, rng):
    """The factors' product dx^d K mu must match the directional derivative
    of f for zero-mean mu, in 1D and in 2D."""
    for grid in (TorusGrid(1, 32, 2), TorusGrid(2, 12, 2)):
        m = random_density(grid, rng)
        mu = rng.standard_normal(grid.spatial_shape)
        mu -= mu.mean()
        eps = 1e-6
        fd = (coup.f(grid, m + eps * mu) - coup.f(grid, m - eps * mu)) / (2 * eps)
        action = (coup.kernel_f(grid, m) @ mu.reshape(-1)).reshape(grid.spatial_shape)
        assert np.max(np.abs(fd - action)) <= 1e-6


def test_kernel_potential_consistency(rng):
    """F(m') - F(m) must match the f line integral along the segment."""
    grid = TorusGrid(1, 32, 2)
    for coup in (monotone_local_coupling(), antimonotone_symmetric_coupling(2.0)):
        m0 = random_density(grid, rng)
        m1 = random_density(grid, rng)
        ts = np.linspace(0, 1, 201)
        vals = []
        for t in ts:
            mt = (1 - t) * m0 + t * m1
            vals.append(grid.cell_volume * np.sum(coup.f(grid, mt) * (m1 - m0)))
        line = np.trapezoid(vals, ts)
        diff = coup.F(grid, m1) - coup.F(grid, m0)
        assert abs(diff - line) <= 1e-6


def test_antimonotone_reflection_symmetry(rng):
    coup = antimonotone_symmetric_coupling(5.0)
    grid = TorusGrid(1, 32, 2)
    m = random_density(grid, rng)
    m_ref = m[(-np.arange(32)) % 32]
    assert abs(coup.F(grid, m) - coup.F(grid, m_ref)) <= 1e-12
    # symmetric density: f vanishes identically (the moment sits at a
    # critical point of the shaping polynomial), hence trivially symmetric
    m_sym = 0.5 * (m + m_ref)
    m_sym /= grid.cell_volume * m_sym.sum()
    f_sym = coup.f(grid, m_sym)
    assert np.max(np.abs(f_sym - f_sym[(-np.arange(32)) % 32])) <= 1e-12


@pytest.mark.parametrize("dim", [1, 2])
def test_potentials_of_a_stack_are_those_of_its_slices(dim, rng):
    # F and G give one value per slice of a stack, with the bits of the
    # slice alone (evaluate_J adds them up)
    grid = TorusGrid(dim, 16, 4)
    m = rng.uniform(0.5, 1.5, (5, *grid.spatial_shape))
    for coup in (
        zero_coupling(),
        monotone_local_coupling(),
        monotone_smoothed_coupling(),
        antimonotone_symmetric_coupling(5.0),
    ):
        for potential in (coup.F, coup.G):
            stacked = potential(grid, m)
            assert np.shape(stacked) == (5,)
            assert [float(v) for v in stacked] == [float(potential(grid, s)) for s in m]


def test_antimonotone_prefers_lopsided():
    coup = antimonotone_symmetric_coupling(1.0)
    grid = TorusGrid(1, 64, 2)
    x = grid.axis_coordinates()
    uniform = np.ones(64)
    lopsided = 1.0 + 0.9 * np.sin(2 * np.pi * x)
    lopsided /= grid.cell_volume * lopsided.sum()
    assert coup.F(grid, lopsided) < coup.F(grid, uniform)


def test_builtin_quadratic_theta_zero_decouples():
    model = builtin_quadratic(0.0, coupling="antimonotone_symmetric")
    grid = model.make_grid(16, 4)
    m = np.ones((16,))
    assert np.max(np.abs(model.coupling.f(grid, m))) == 0.0
    assert model.coupling.name == "none"
    with pytest.raises(ValueError):
        builtin_quadratic(-1.0)


def test_m0_presets():
    grid = TorusGrid(1, 32, 4)
    for name in ("uniform", "cosine", "bump"):
        model = builtin_quadratic(0.0, coupling="none", m0=name)
        m0 = model.initial_density_slice(grid)
        assert m0.min() >= 0
        assert abs(grid.cell_volume * m0.sum() - 1.0) <= 1e-12
    bad = builtin_quadratic(0.0, coupling="none", m0="cosine", m0_amplitude=1.5)
    with pytest.raises(ValueError):
        bad.initial_density_slice(grid)
    assert m0_preset("uniform")(grid).shape == (32,)
