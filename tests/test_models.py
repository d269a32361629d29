"""Model data: convexity, conjugacy, kernels, and the built-in library."""

import numpy as np
import pytest

from conftest import legendre_defects, legendre_transform_newton, sample_xp

from mfg_lab.grid import TorusGrid
from mfg_lab.models import (
    antimonotone_symmetric_coupling,
    builtin_quadratic,
    check_coupling_normalization,
    check_symmetry_relation,
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


def hessian_eigenvalues(ham, dim: int, samples: int, seed) -> np.ndarray:
    """Eigenvalues of D2_ppH at sampled x and |p_i| <= 10."""
    return np.linalg.eigvalsh(ham.hess_pp(*sample_xp(dim, samples, seed, p_max=10.0)))


def test_convexity_quadratic():
    eigs = hessian_eigenvalues(quadratic_hamiltonian(0.0), 1, samples=100, seed=1)
    assert np.all(np.abs(eigs - 1.0) < 1e-12)


def test_convexity_x_dependent():
    # uniformly convex: D2_ppH = a(x) I with a = 1 + 0.1 cos(2 pi x1) in [0.9, 1.1]
    for dim in (1, 2):
        eigs = hessian_eigenvalues(quadratic_hamiltonian(0.1), dim, samples=500, seed=2)
        assert 0.9 - 1e-9 <= eigs.min() and eigs.max() <= 1.1 + 1e-9


@pytest.mark.parametrize("eps", [0.0, 0.1])
def test_gradient_check(eps):
    # D_pH = a(x) p bit for bit, and it is the derivative of H
    ham = quadratic_hamiltonian(eps)
    for dim in (1, 2):
        x, p = sample_xp(dim, 50, seed=5, p_max=5.0)
        grad = ham.grad_p(x, p)
        assert np.array_equal(grad, np.asarray(ham.coefficient(x))[..., None] * p)
        for a in range(dim):
            e = 1e-4 * np.eye(dim)[a]
            fd = (ham.value(x, p + e) - ham.value(x, p - e)) / 2e-4
            assert np.max(np.abs(fd - grad[..., a])) <= 1e-6


@pytest.mark.parametrize("eps", [0.0, 0.1])
@pytest.mark.parametrize("dim", [1, 2])
def test_legendre_identities(eps, dim):
    conj, prod, argmax = legendre_defects(quadratic_hamiltonian(eps), dim, samples=200, seed=6)
    assert conj <= 1e-8
    assert prod <= 1e-8
    assert argmax <= 1e-8


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
    ham = quadratic_hamiltonian(eps)
    assert np.array_equal(squared_norm(p), sq)
    assert np.array_equal(ham.value(x, p), 0.5 * a * sq)
    assert np.array_equal(ham.grad_x(x, p)[..., 0], 0.5 * da * sq)
    assert np.array_equal(ham.lagrangian(x, p), 0.5 * sq / a)
    assert np.array_equal(ham.lagrangian_grad(x, p), p / np.asarray(a)[..., None])


@pytest.mark.parametrize("eps", [0.0, 0.1])
@pytest.mark.parametrize("dim", [1, 2])
def test_coefficient_gives_the_hamiltonian_and_its_hessian(dim, eps, rng):
    # H = a(x)|p|^2/2 with a = coefficient(x), bit for bit, and D2_ppH = a I
    ham = quadratic_hamiltonian(eps)
    x = tuple(rng.uniform(0.0, 1.0, 50) for _ in range(dim))
    p = rng.standard_normal((50, dim))
    a = ham.coefficient(x)
    assert np.array_equal(ham.value(x, p), 0.5 * a * squared_norm(p))
    diag = np.diagonal(ham.hess_pp(x, p), axis1=-2, axis2=-1)
    assert np.array_equal(diag, np.broadcast_to(np.asarray(a)[..., None], diag.shape))


def test_legendre_newton_maximizer():
    ham = quadratic_hamiltonian(0.0)
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
