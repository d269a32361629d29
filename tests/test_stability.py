"""Linearized system, assembled operator, certificates, isolation."""

import dataclasses
import functools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import svdvals
from scipy.optimize import brentq

from conftest import rng_from_seed

from mfg_lab.grid import GridError, divergence, gradient, inner, laplacian, sup_norm
from mfg_lab.mfg import drift_field, solve_picard
from mfg_lab.models import KernelFactors, builtin_quadratic
from mfg_lab.nonuniqueness import find_symmetric_branch
from mfg_lab.pde import continuity_residual
from mfg_lab.perturb import low_frequency_field
from mfg_lab.potential import second_variation_parts
from mfg_lab.stability import (
    AssembledOperator,
    TimeBlockLU,
    _coefficients,
    _orthonormal,
    _transport,
    assemble_operator,
    backward_response,
    certify_stability,
    flux_from_value_direction,
    isolation_experiment,
    solve_linearized,
)


def _strict_json(text: str):
    """json.loads that refuses NaN and Infinity, which strict JSON lacks."""

    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(text, parse_constant=refuse)


def zero_mean_field(grid, rng):
    f = low_frequency_field(grid, rng)
    return f - f.mean()


def test_zero_data_zero_solution(monotone_model, monotone_solution):
    out = solve_linearized(monotone_model, monotone_solution)
    assert sup_norm(out.mu.values) <= 1e-13
    assert sup_norm(out.v.values) <= 1e-13
    assert max(out.residuals.values()) <= 1e-11


def test_restriction_needs_two_time_steps(monotone_model, monotone_solution):
    # the operator and the linearized solve refuse t1 = K-1 with the grid's message
    K = monotone_solution.grid.n_time
    for make in (
        lambda: assemble_operator(monotone_model, monotone_solution, K - 1),
        lambda: solve_linearized(monotone_model, monotone_solution, K - 1),
    ):
        with pytest.raises(GridError, match=f"t1_index {K - 1} out of range.*<= {K - 2}"):
            make()
    assert assemble_operator(monotone_model, monotone_solution, K - 2).K == 2


def test_linearization_needs_a_converged_base(monotone_model, monotone_solution):
    base = dataclasses.replace(monotone_solution, converged=False)
    mu = np.zeros_like(base.m.values)
    for make in (
        lambda: solve_linearized(monotone_model, base),
        lambda: backward_response(monotone_model, base, 0, mu),
        lambda: certify_stability(monotone_model, base, 0),
    ):
        with pytest.raises(ValueError, match="converged base"):
            make()


@pytest.mark.parametrize("name", ["a", "b_src", "c", "mu0"])
def test_linearized_solve_refuses_misshaped_inhomogeneities(
    monotone_model, monotone_solution, name
):
    with pytest.raises(ValueError, match=r"inhomogeneity shape \(3,\) != \("):
        solve_linearized(monotone_model, monotone_solution, **{name: np.zeros(3)})


@pytest.mark.parametrize("name", ["a", "b_src", "c", "mu0"])
def test_linearized_solve_refuses_a_non_finite_inhomogeneity_before_factoring(
    monkeypatch, monotone_model, monotone_solution, name
):
    # a NaN in a used to be factored and solved, and then reported by the
    # solution's field as a non-finite value
    import mfg_lab.stability as stab

    def no_factorization(op):
        raise AssertionError("factored before the check")

    monkeypatch.setattr(stab.AssembledOperator, "factorize", no_factorization)
    grid = monotone_solution.grid
    shapes = {
        "a": (grid.n_time + 1, *grid.spatial_shape),
        "b_src": (grid.n_time + 1, *grid.spatial_shape, grid.dim),
        "c": grid.spatial_shape,
        "mu0": grid.spatial_shape,
    }
    bad = np.zeros(shapes[name])
    bad.flat[3] = np.nan
    with pytest.raises(ValueError, match=f"inhomogeneity {name} has non-finite entries"):
        solve_linearized(monotone_model, monotone_solution, **{name: bad})


def _direction_shape(base, t1):
    return (base.grid.n_time + 1 - t1, *base.grid.spatial_shape)


def test_backward_response_checks_its_direction(monotone_model, monotone_solution):
    # one slice too few used to fail in a reshape, and a NaN in the sweep
    t1 = 3
    shape = _direction_shape(monotone_solution, t1)
    with pytest.raises(ValueError, match=r"direction shape \(.*\) != .* for mu_values"):
        backward_response(monotone_model, monotone_solution, t1, np.zeros(shape)[1:])
    mu = np.zeros(shape)
    mu[2, 5] = np.nan
    with pytest.raises(ValueError, match="direction mu_values has non-finite entries"):
        backward_response(monotone_model, monotone_solution, t1, mu)
    assert np.all(backward_response(monotone_model, monotone_solution, t1, np.zeros(shape)) == 0.0)


@pytest.mark.parametrize("name", ["v_values", "mu_values"])
def test_flux_from_value_direction_checks_its_directions(monotone_model, monotone_solution, name):
    # a misshaped direction used to fail in a reshape, and a NaN v came back
    # as a non-finite flux
    shape = _direction_shape(monotone_solution, 0)
    args = {"v_values": np.zeros(shape), "mu_values": np.zeros(shape)}
    short = dict(args, **{name: np.zeros(shape)[1:]})
    with pytest.raises(ValueError, match=f"direction shape .* for {name}"):
        flux_from_value_direction(monotone_model, monotone_solution, 0, **short)
    bad = np.zeros(shape)
    bad[4, 7] = np.nan
    with pytest.raises(ValueError, match=f"direction {name} has non-finite entries"):
        flux_from_value_direction(monotone_model, monotone_solution, 0, **dict(args, **{name: bad}))


def test_constant_source_decoupled(decoupled_model, decoupled_solution):
    grid = decoupled_solution.grid
    a = np.ones((grid.n_time + 1, *grid.spatial_shape))
    out = solve_linearized(decoupled_model, decoupled_solution, a=a)
    expect = (grid.T - grid.times)[:, None]
    assert sup_norm(out.v.values - expect) <= 1e-12
    assert sup_norm(out.mu.values) <= 1e-13


def test_superposition(monotone_model, monotone_solution):
    grid = monotone_solution.grid
    rng = rng_from_seed(21)
    shape = (grid.n_time + 1, *grid.spatial_shape)
    a1 = np.stack([low_frequency_field(grid, rng) for _ in range(grid.n_time + 1)])
    a2 = np.stack([low_frequency_field(grid, rng) for _ in range(grid.n_time + 1)])
    s1 = solve_linearized(monotone_model, monotone_solution, a=a1)
    s2 = solve_linearized(monotone_model, monotone_solution, a=a2)
    s12 = solve_linearized(monotone_model, monotone_solution, a=a1 + a2)
    assert sup_norm(s12.v.values - s1.v.values - s2.v.values) <= 1e-9
    assert sup_norm(s12.mu.values - s1.mu.values - s2.mu.values) <= 1e-9
    assert a1.shape == shape


def test_mu_mass_conserved(monotone_model, monotone_solution):
    grid = monotone_solution.grid
    rng = rng_from_seed(22)
    b = np.zeros((grid.n_time + 1, *grid.spatial_shape, grid.dim))
    for ax in range(grid.dim):
        b[..., ax] = low_frequency_field(grid, rng)
    out = solve_linearized(monotone_model, monotone_solution, b_src=b)
    from mfg_lab.grid import integrate

    masses = [integrate(grid, out.mu.values[k]) for k in range(grid.n_time + 1)]
    assert max(abs(m) for m in masses) <= 1e-10


def _scheme_defects(model, grid, u, m, m0):
    """Nonlinear scheme defects in the operator's row order: backward HJB
    rows with the running coupling, forward Kolmogorov rows, m^0 - m0 and
    u^K - g(m^K)."""
    coords = grid.coordinates()
    ham, coup = model.hamiltonian, model.coupling
    K, dt = grid.n_time, grid.dt
    f = coup.f_field(grid, m)
    back = [
        (u[k] - u[k + 1]) / dt
        - laplacian(grid, u[k])
        + ham.value(coords, gradient(grid, u[k + 1]))
        - f[k + 1]
        for k in range(K)
    ]
    fwd = [
        (m[k + 1] - m[k]) / dt
        - laplacian(grid, m[k + 1])
        - divergence(grid, m[k][..., None] * ham.grad_p(coords, gradient(grid, u[k])))
        for k in range(K)
    ]
    rows = back + fwd + [m[0] - m0, u[K] - coup.g(grid, m[K])]
    return np.concatenate([r.reshape(-1) for r in rows])


def _frechet_pair(model, base, op, t1, rng):
    """Central differences of the nonlinear schemes along random v and
    zero-mass mu (independent of the operator's blocks), and that direction
    stacked as x."""
    u, m = base.u.values[t1:], base.m.values[t1:]
    v = rng.standard_normal(u.shape)
    mu = rng.standard_normal(m.shape)
    mu -= mu.mean(axis=tuple(range(1, mu.ndim)), keepdims=True)
    eps = 1e-5
    fd = (
        _scheme_defects(model, op.grid, u + eps * v, m + eps * mu, m[0])
        - _scheme_defects(model, op.grid, u - eps * v, m - eps * mu, m[0])
    ) / (2 * eps)
    return fd, op.stack(v, mu)


@pytest.mark.parametrize(
    "model_kw, n_space, n_time, t1",
    [
        (dict(coupling="monotone_local", T=0.5, m0="cosine"), 16, 16, 0),
        (dict(coupling="monotone_local", T=0.5, m0="cosine"), 16, 16, 8),
        (dict(theta=16.0, coupling="antimonotone_symmetric", m0="bump"), 16, 32, 4),
        (dict(coupling="monotone_smoothed", T=0.5, m0="cosine", hamiltonian="quadratic_xdep"), 16, 16, 0),
        (dict(coupling="monotone_local", dim=2, T=0.25, m0="cosine", hamiltonian="quadratic_xdep"), 8, 12, 3),
    ],
)
def test_operator_is_frechet_derivative(model_kw, n_space, n_time, t1):
    model = builtin_quadratic(**model_kw)
    base = solve_picard(model, model.make_grid(n_space, n_time), damping=0.5, max_iter=50)
    op = assemble_operator(model, base, t1)
    fd, x = _frechet_pair(model, base, op, t1, rng_from_seed(27))
    ax = op.matvec(x)
    assert np.linalg.norm(fd - ax) <= 1e-8 * np.linalg.norm(ax)


@st.composite
def operator_cases(draw, wide=False):
    """Random small grid (odd N included), shipped coupling, Hamiltonian and
    restriction time; `wide` adds a strongly antimonotone coupling, the
    uniform m0 and a short horizon."""
    dim = draw(st.sampled_from([1, 2]))
    n_space = draw(st.integers(5, 17 if dim == 1 else 9))
    n_time = draw(st.integers(3, 10))
    couplings = [("none", 0.0), ("monotone_local", 0.0), ("monotone_smoothed", 0.0),
                 ("antimonotone_symmetric", 16.0)]
    if wide:
        couplings.append(("antimonotone_symmetric", 64.0))
    coupling, theta = draw(st.sampled_from(couplings))
    model = builtin_quadratic(
        theta, coupling=coupling, dim=dim,
        T=draw(st.sampled_from([0.04, 0.5])) if wide else 0.5,
        m0=draw(st.sampled_from(["cosine", "uniform"])) if wide else "cosine",
        hamiltonian=draw(st.sampled_from(["quadratic", "quadratic_xdep"])),
    )
    return model, model.make_grid(n_space, n_time), draw(st.integers(0, n_time - 2))


@settings(max_examples=30)
@given(operator_cases(), st.integers(0, 2**32 - 1))
def test_operator_consistency(case, seed):
    # the sparse oracle, built from the block applies on identity blocks,
    # against the matrix-free products, and its transpose against rmatvec
    model, grid, t1 = case
    base = solve_picard(model, grid, damping=0.5, max_iter=3)
    op = assemble_operator(model, base, t1)
    A = op.to_sparse()
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(op.n_unknowns)
    y = rng.standard_normal(op.n_unknowns)
    assert np.max(np.abs(op.matvec(x) - A @ x)) <= 1e-9
    ax_y = float((A @ x) @ y)
    x_aty = float(x @ op.rmatvec(y))
    scale = np.linalg.norm(A @ x) * np.linalg.norm(y)
    assert abs(ax_y - x_aty) <= 1e-11 * max(1.0, scale)


@settings(max_examples=100)
@given(operator_cases(), st.integers(0, 2**32 - 1))
def test_operator_on_random_grids(case, seed):
    # Frechet derivative of the schemes and exact adjointness of the
    # products, at a few-iteration Picard base (the derivative holds at any
    # base)
    model, grid, t1 = case
    base = solve_picard(model, grid, damping=0.5, max_iter=3)
    op = assemble_operator(model, base, t1)
    rng = np.random.default_rng(seed)
    fd, x = _frechet_pair(model, base, op, t1, rng)
    ax = op.matvec(x)
    assert np.linalg.norm(fd - ax) <= 1e-8 * np.linalg.norm(ax)
    y = rng.standard_normal(op.n_unknowns)
    scale = np.linalg.norm(ax) * np.linalg.norm(y)
    assert abs(float(ax @ y) - float(x @ op.rmatvec(y))) <= 1e-11 * max(1.0, scale)


def test_residuals_report_the_initial_rows(monotone_model, monotone_solution):
    # the solution of one problem checked against another whose mu0 differs
    # by eps: only the initial rows see it, by exactly eps
    grid = monotone_solution.grid
    mu0 = zero_mean_field(grid, rng_from_seed(28))
    out = solve_linearized(monotone_model, monotone_solution, mu0=mu0)
    assert out.residuals["initial"] <= 1e-13
    eps = 1e-3
    op = assemble_operator(monotone_model, monotone_solution, 0)
    x = op.stack(out.v.values, out.mu.values)
    res = op._residuals(x, op.rhs_vector(mu0=mu0 + eps))
    assert abs(res["initial"] - eps) <= 1e-12
    assert res["backward"] == out.residuals["backward"]
    assert res["forward"] == out.residuals["forward"]
    assert res["terminal"] == out.residuals["terminal"]


def test_operator_reproduces_solver(monotone_model, monotone_solution):
    grid = monotone_solution.grid
    rng = rng_from_seed(24)
    mu0 = zero_mean_field(grid, rng)
    out = solve_linearized(monotone_model, monotone_solution, mu0=mu0)
    op = assemble_operator(monotone_model, monotone_solution, 0)
    x = op.stack(out.v.values, out.mu.values)
    resid = op.matvec(x) - op.rhs_vector(mu0=mu0)
    assert np.max(np.abs(resid)) <= 1e-9


def test_certificates_stable(
    monotone_model, monotone_solution, decoupled_model, decoupled_solution
):
    cm = certify_stability(monotone_model, monotone_solution, 0)
    cd = certify_stability(decoupled_model, decoupled_solution, 0)
    assert cm.verdict == "STABLE" and cm.sigma_min > 1e-6
    assert cd.verdict == "STABLE" and cd.sigma_min > 1e-6
    assert "N32" in cm.grid_signature


def test_dense_and_iterative_agree(monotone_model):
    # dense SVD is the oracle for the block-inverse sigma_min, on the full
    # horizon and on a restriction
    model = monotone_model
    grid = model.make_grid(16, 16)
    base = solve_picard(model, grid, damping=0.5, tol=1e-12, max_iter=400)
    for t1 in (0, 8):
        dense = svdvals(assemble_operator(model, base, t1).scaled_sparse().toarray())[-1]
        ci = certify_stability(model, base, t1)
        assert ci.method == "block-inverse-iteration" and ci.converged
        assert abs(dense - ci.sigma_min) <= 1e-8 * dense


def test_unconverged_sigma_min_is_inconclusive(
    monkeypatch, monotone_model, monotone_solution
):
    import mfg_lab.stability as stab

    monkeypatch.setattr(stab, "MAX_ROUNDS", 3)
    cert = certify_stability(monotone_model, monotone_solution, 0)
    assert cert.iterations == 3 and not cert.converged
    assert cert.verdict == "INCONCLUSIVE"


def test_eigen_residual_shrinks_as_the_iteration_converges(
    monkeypatch, monotone_model, monotone_solution
):
    import mfg_lab.stability as stab

    converged = certify_stability(monotone_model, monotone_solution, 0)
    monkeypatch.setattr(stab, "MAX_ROUNDS", 3)
    capped = certify_stability(monotone_model, monotone_solution, 0)
    assert converged.converged and not capped.converged
    assert math.isfinite(converged.eigen_residual)
    assert math.isfinite(capped.eigen_residual)
    assert converged.eigen_residual < capped.eigen_residual
    assert converged.eigen_residual <= 1e-8
    assert json.loads(converged.to_json())["eigen_residual"] == converged.eigen_residual


def test_block_triangular_decoupled(decoupled_model, decoupled_solution):
    # zero kernels: the operator is block-triangular and comfortably injective
    op = assemble_operator(decoupled_model, decoupled_solution, 0)
    K, n = op.K, op.n
    A = op.to_sparse()
    coupling_block = A[: K * n, (op.K + 1) * n :]
    assert coupling_block.nnz == 0  # no mu-dependence in the backward rows
    cert = certify_stability(decoupled_model, decoupled_solution, 0)
    assert cert.sigma_min > 1e-6


def test_witness_extraction_path(monotone_model, monotone_solution):
    # a loose tolerance forces the near-null branch: the witness must be a
    # unit vector whose scaled residual equals sigma_min
    cert = certify_stability(
        monotone_model, monotone_solution, 0, tol=10.0
    )
    assert cert.verdict == "UNSTABLE-DIRECTION-FOUND"
    assert cert.witness_v is not None and cert.witness_mu is not None
    norm = np.sqrt(
        np.sum(cert.witness_v**2) + np.sum(cert.witness_mu**2)
    )
    assert abs(norm - 1.0) <= 1e-9
    assert abs(cert.witness_residual - cert.sigma_min) <= 1e-6 * cert.sigma_min


def test_energy_identity_and_z_reconstruction(monotone_model, monotone_solution):
    """Nontrivial linearized solves satisfy the discrete quadratic-form
    identity J2(mu, z) = <v(t0), mu0> - dt <mu0, b.Dv(t0)> exactly."""
    grid = monotone_solution.grid
    rng = rng_from_seed(26)
    for _ in range(3):
        mu0 = zero_mean_field(grid, rng)
        out = solve_linearized(monotone_model, monotone_solution, mu0=mu0)
        z = flux_from_value_direction(
            monotone_model, monotone_solution, 0, out.v.values, out.mu.values
        )
        assert continuity_residual(grid, out.mu.values, z) <= 1e-8
        kin, run, term = second_variation_parts(
            monotone_model, monotone_solution, out.mu.values, z
        )
        j2 = kin + run + term
        b0 = drift_field(monotone_model, grid, monotone_solution.u.values)[0]
        gv0 = gradient(grid, out.v.values[0])
        boundary = inner(grid, out.v.values[0], mu0) - grid.dt * inner(
            grid, mu0, np.sum(b0 * gv0, axis=-1)
        )
        assert abs(j2 - boundary) <= 1e-6
        # converse leg: v recomputed from mu reproduces the flux formula
        v_hat = backward_response(monotone_model, monotone_solution, 0, out.mu.values)
        z_hat = flux_from_value_direction(
            monotone_model, monotone_solution, 0, v_hat, out.mu.values
        )
        assert sup_norm(z_hat - z) <= 1e-6


def test_symmetric_branch_sigma_reported():
    """The lopsidedness-favoring game's symmetric branch: sigma_min is an
    experiment output; no verdict direction is asserted."""
    model = builtin_quadratic(
        theta=64.0, coupling="antimonotone_symmetric", T=2.0, m0="uniform"
    )
    grid = model.make_grid(16, 64)
    sym = find_symmetric_branch(model, grid)
    cert = certify_stability(model, sym, 0)
    assert np.isfinite(cert.sigma_min) and cert.sigma_min >= 0.0
    assert cert.verdict in ("STABLE", "INCONCLUSIVE", "UNSTABLE-DIRECTION-FOUND")


def test_isolation_eta_zero(monotone_model, monotone_solution):
    rep = isolation_experiment(
        monotone_model, monotone_solution, [0.0], trials=3, seed=41, tol=1e-11
    )
    rec = rep["eta_records"][0]
    assert rec["in_ball"] == 3 * rec["runs_per_trial"]
    assert rec["max_distance_to_base"] <= 1e-8
    assert rep["distinct_pairs_total"] == 0


def test_isolation_monotone_no_distinct_pairs(monotone_model, monotone_solution):
    rep = isolation_experiment(
        monotone_model, monotone_solution, [1e-2], trials=4, seed=42, tol=1e-11
    )
    rec = rep["eta_records"][0]
    assert rec["converged"] == 4 * rec["runs_per_trial"]
    assert rep["distinct_pairs_total"] == 0


def test_size_guard(monkeypatch):
    model = builtin_quadratic(coupling="monotone_local", T=0.5, m0="cosine")
    grid = model.make_grid(16, 8)
    base = solve_picard(model, grid, damping=0.5, tol=1e-11, max_iter=300)
    op = assemble_operator(model, base, 0)
    op.to_sparse()
    import mfg_lab.stability as st

    monkeypatch.setattr(st, "LU_BYTES_GUARD", 10)
    op2 = assemble_operator(model, base, 0)
    with pytest.raises(MemoryError):
        op2.to_sparse()
    # matrix-free products remain available past the guard
    x = np.ones(op2.n_unknowns)
    assert np.all(np.isfinite(op2.matvec(x)))


def test_lu_guard_fires_before_factorization(
    monkeypatch, monotone_model, monotone_solution
):
    import mfg_lab.stability as stab

    calls = []

    class CountedLU(stab.TimeBlockLU):
        def __init__(self, op):
            calls.append(op)
            super().__init__(op)

    monkeypatch.setattr(stab, "TimeBlockLU", CountedLU)
    estimate = assemble_operator(monotone_model, monotone_solution, 0).lu_bytes_estimate()
    monkeypatch.setattr(stab, "LU_BYTES_GUARD", estimate - 1)
    with pytest.raises(MemoryError) as err:
        certify_stability(monotone_model, monotone_solution, 0)
    assert not calls
    message = str(err.value)
    assert "d1-N32-K48" in message
    assert f"{estimate / 2**20:.0f} MiB" in message
    assert f"{(estimate - 1) / 2**20:.0f} MiB guard" in message
    # at the estimate itself the guard lets the factorization through, and
    # the estimate is exactly the bytes of the entries it stores
    monkeypatch.setattr(stab, "LU_BYTES_GUARD", estimate)
    cert = certify_stability(monotone_model, monotone_solution, 0)
    assert cert.verdict == "STABLE"
    assert len(calls) == 1
    assert 8 * cert.lu_nnz == estimate


def _owned_arrays(obj) -> dict:
    """The arrays an object's attributes hold (directly, in a list or as
    kernel factors), each resolved to the array that owns its memory, by id."""
    found = {}
    for value in vars(obj).values():
        items = value if isinstance(value, (list, tuple)) else [value]
        for item in items:
            arrays = [item.U, item.W] if isinstance(item, KernelFactors) else [item]
            for a in arrays:
                if isinstance(a, np.ndarray):
                    while isinstance(a.base, np.ndarray):
                        a = a.base
                    found[id(a)] = a
    return found


def _small_2d_base(n_space: int, n_time: int):
    model = builtin_quadratic(coupling="monotone_local", dim=2, T=0.5, m0="cosine")
    grid = model.make_grid(n_space, n_time)
    return model, solve_picard(model, grid, damping=0.5, tol=1e-12, max_iter=400)


@pytest.mark.parametrize("dim", [1, 2])
def test_lu_bytes_estimate_counts_every_stored_array(dim, monotone_model, monotone_solution):
    # the bytes of every array the factorization holds and the operator does
    # not equal the estimate the memory guard checks
    model, base = (monotone_model, monotone_solution) if dim == 1 else _small_2d_base(8, 8)
    op = assemble_operator(model, base, 3)
    lu = op.factorize()
    shared = _owned_arrays(op)
    owned = [a for key, a in _owned_arrays(lu).items() if key not in shared]
    assert sum(a.nbytes for a in owned) == op.lu_bytes_estimate()
    # 2K'+3 blocks of the elimination, and in 1D the K'+1 transport blocks
    transport = op.K + 1 if dim == 1 else 0
    assert op.lu_bytes_estimate() == 8 * (2 * op.K + 3 + transport) * op.n**2


def test_certificate_peak_memory_stays_near_the_stored_blocks():
    # tracemalloc's peak over one 2D certificate (N=16, K'=24: 25.5 MiB of
    # stored blocks, 12 MiB per stack of K' blocks) measured 7.3 MiB over the
    # estimate: the per-slice temporaries of the factorization and the
    # (2K'+2) n x 8 blocks of the iteration.  An 8 MiB margin is less than
    # one stack, so a further stored stack, or a temporary spanning all the
    # slices' n x n blocks, fails here.
    model, base = _small_2d_base(16, 24)
    op = assemble_operator(model, base, 0)
    estimate, stack = op.lu_bytes_estimate(), 8 * op.K * op.n**2
    margin = 8 * 2**20
    assert margin < stack
    tracemalloc.start()
    try:
        cert = certify_stability(model, base, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cert.verdict == "STABLE"
    assert peak <= estimate + margin


@pytest.mark.parametrize("dim, n_space", [(1, 24), (2, 16)])
def test_block_inverse_takes_the_optimal_dgetri_workspace(dim, n_space):
    # at n <= 64 LAPACK's dgetri inverts unblocked with any workspace, so the
    # bits are those of scipy's default workspace (3n); at n = 256 the
    # optimal workspace takes the blocked path, which agrees with numpy
    from scipy.linalg import lapack

    model = builtin_quadratic(coupling="monotone_local", dim=dim, T=0.5, m0="cosine")
    base = solve_picard(model, model.make_grid(n_space, 2), damping=0.5, tol=1e-12)
    lu = assemble_operator(model, base, 0).factorize()
    n = lu.n
    a = 4.0 * np.eye(n) + np.random.default_rng(n).standard_normal((n, n)) / math.sqrt(n)
    got = lu._inverse(a, 0)
    if n == 24:
        assert np.array_equal(got, lapack.dgetri(*lapack.dgetrf(a)[:2])[0])
    else:
        assert n == 256
        want = np.linalg.inv(a)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_certificate_reports_its_iteration_time(monotone_model, monotone_solution):
    # iterate_s, next to factor_s, is the CPU time of the block inverse
    # iteration and goes to the certificate's JSON
    cert = certify_stability(monotone_model, monotone_solution, 0)
    assert cert.iterations > 0 and cert.iterate_s > 0.0
    assert json.loads(cert.to_json())["iterate_s"] == cert.iterate_s


@settings(max_examples=30)
@given(operator_cases(wide=True), st.integers(0, 2**32 - 1))
def test_block_lu_solves_the_scaled_operator(case, seed):
    # the time-marching block factorization gives (D A)^-1 b and,
    # transposed, (D A)^-T b; an (N, 5) block solves to its column-by-column
    # solves
    model, grid, t1 = case
    base = solve_picard(model, grid, damping=0.5, max_iter=3)
    op = assemble_operator(model, base, t1)
    lu = op.factorize()
    dense = op.scaled_sparse().toarray()
    b = np.random.default_rng(seed).standard_normal((op.n_unknowns, 5))
    for trans, matrix in (("N", dense), ("T", dense.T)):
        want = np.linalg.solve(matrix, b)
        columns = np.stack([lu.solve(b[:, j].copy(), trans=trans) for j in range(5)], axis=1)
        got = lu.solve(b, trans=trans)
        assert np.linalg.norm(columns - want) <= 1e-10 * np.linalg.norm(want)
        assert got.shape == b.shape
        assert np.linalg.norm(got - columns) <= 1e-12 * np.linalg.norm(columns)


def _quick_base(dim, n_space, n_time, hamiltonian="quadratic"):
    # a few Picard rounds: the operator and its factorization need no
    # converged base
    model = builtin_quadratic(
        coupling="monotone_local", dim=dim, T=0.5, m0="cosine", hamiltonian=hamiltonian
    )
    return model, solve_picard(model, model.make_grid(n_space, n_time), damping=0.5, max_iter=3)


@pytest.mark.parametrize("n_space", [8, 9])
def test_2d_fourier_d0_inverse_is_the_stored_block(n_space):
    # in 2D the factorization and the solves apply D0^-1 by the separable
    # heat solve; it is the stored dense block, on one slice and on a stack
    model, base = _quick_base(2, n_space, 4, "quadratic_xdep")
    lu = assemble_operator(model, base, 1).factorize()
    assert lu._heat is not None
    rng = np.random.default_rng(n_space)
    for shape in ((5, lu.n), (3, 4, lu.n)):
        x = rng.standard_normal(shape)
        want = x @ lu._d0_inv
        got = lu._d0_rows(x)
        assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)
        out = np.empty(shape)
        assert lu._d0_rows(x, out=out) is out
        assert np.array_equal(out, got)


@pytest.mark.parametrize("hamiltonian", ["quadratic", "quadratic_xdep"])
@pytest.mark.parametrize("dim", [1, 2])
def test_diffusion_stack_is_the_diagonal_of_m_hess_pp(dim, hamiltonian):
    # m D2_ppH = m a(x) I: the scalar stack is the tensor's diagonal bit for
    # bit, and what it drops are exact zeros
    model, base = _quick_base(dim, 9 if dim == 2 else 13, 6, hamiltonian)
    t1 = 2
    grid, _, ma = _coefficients(model, base, t1)
    K, n, d = grid.n_time, grid.n_nodes, grid.dim
    du = gradient(grid, base.u.values[t1:])
    hess = model.hamiltonian.hess_pp(grid.coordinates(), du)
    full = (base.m.values[t1:][..., None, None] * hess).reshape(K + 1, n, d, d)
    assert ma.shape == (K + 1, n)
    for a in range(d):
        assert np.array_equal(ma, full[..., a, a])
    assert np.all(full[..., ~np.eye(d, dtype=bool)] == 0.0)
    if hamiltonian == "quadratic_xdep":
        assert not np.array_equal(ma, base.m.values[t1:].reshape(K + 1, n))


@pytest.mark.parametrize("n_space", [12, 13])
def test_1d_stored_transport_blocks_are_the_stencils(n_space):
    # in 1D the factorization stores T_k^T per slice and applies T_k and
    # T_k^T with one product; 2D keeps the stencils
    model, base = _quick_base(1, n_space, 6, "quadratic_xdep")
    op = assemble_operator(model, base, 1)
    lu = op.factorize()
    rng = np.random.default_rng(n_space)
    for k in range(op.K + 1):
        x = rng.standard_normal((5, op.n))
        for trans in (False, True):
            want = _transport(op.grid, op.drift[k], x, trans)
            for rows in (x, np.asfortranarray(x)):
                got = lu._transport(k, rows, trans)
                assert np.linalg.norm(got - want) <= 1e-15 * np.linalg.norm(want)
    model_2d, base_2d = _quick_base(2, 8, 4)
    assert assemble_operator(model_2d, base_2d, 0).factorize()._t is None


def test_lapack_qr_gives_orthonormal_columns():
    # the block iteration's QR: orthonormal columns spanning the block, the
    # Q of numpy's qr up to the sign of each column
    from scipy.linalg import lapack

    rng = np.random.default_rng(30)
    z = rng.standard_normal((12800, 8)) * np.logspace(0, -6, 8)
    q = _orthonormal(lapack, z)
    assert q.shape == z.shape
    assert np.max(np.abs(q.T @ q - np.eye(8))) <= 1e-14
    assert np.linalg.norm(q @ (q.T @ z) - z) <= 1e-14 * np.linalg.norm(z)
    want = np.linalg.qr(z)[0]
    assert np.max(np.abs(np.abs(q.T @ want) - np.eye(8))) <= 1e-12


def test_clustered_sigma_min_certifies_stable():
    # the cosine m0's x<->y and reflection symmetry puts seven more singular
    # values within 1.2e-4 relative above sigma_min, the nearest 5.9e-5 away;
    # one-vector inverse iteration stopped here at its cap, 5.5e-5 off
    model = builtin_quadratic(coupling="monotone_smoothed", dim=2, T=0.5, m0="cosine")
    base = solve_picard(model, model.make_grid(8, 8), damping=0.5, tol=1e-12, max_iter=400)
    dense = svdvals(assemble_operator(model, base, 0).scaled_sparse().toarray())
    assert dense[-8] - dense[-1] <= 2e-4 * dense[-1]
    cert = certify_stability(model, base, 0)
    assert cert.verdict == "STABLE" and cert.converged
    assert abs(cert.sigma_min - dense[-1]) <= 1e-10 * dense[-1]
    assert abs(cert.sigma_min - 1.23595293318) <= 1e-10


@pytest.mark.parametrize("t1", [0, 3])
def test_2d_sigma_min_matches_dense_svd(t1):
    model = builtin_quadratic(coupling="monotone_local", dim=2, T=0.5, m0="cosine")
    base = solve_picard(model, model.make_grid(8, 8), damping=0.5, tol=1e-12, max_iter=400)
    dense = svdvals(assemble_operator(model, base, t1).scaled_sparse().toarray())[-1]
    cert = certify_stability(model, base, t1)
    assert cert.converged
    assert abs(dense - cert.sigma_min) <= 1e-8 * dense


class _ZeroInitialBlockLU(TimeBlockLU):
    """The factorization with slice 0's Schur block, the scaled initial
    block, zeroed."""

    def _inverse(self, a, slice_index):
        return super()._inverse(0.0 * a if slice_index == 0 else a, slice_index)


class _WithoutInitialRows(AssembledOperator):
    """The operator with its initial block zeroed: mu^0 is then undetermined
    and the Schur block of slice 0 singular.  Products, the sparse oracle
    and the factorization all drop the initial rows, so the adjoint stays
    consistent."""

    def _initial_rows(self):
        return slice(2 * self.K * self.n, (2 * self.K + 1) * self.n)

    def matvec(self, x):
        y = super().matvec(x)
        y[self._initial_rows()] = 0.0
        return y

    def rmatvec(self, y):
        y = np.array(y, dtype=float)
        y[self._initial_rows()] = 0.0
        return super().rmatvec(y)

    def to_sparse(self):
        import scipy.sparse as sp

        keep = np.ones(self.n_unknowns)
        keep[self._initial_rows()] = 0.0
        return (sp.diags(keep) @ super().to_sparse()).tocsr()

    def factorize(self):
        return _ZeroInitialBlockLU(self)


def _assemble_without_initial_rows(model, base, t1_index=0):
    return _WithoutInitialRows(model, base, t1_index)


def test_singular_schur_block_names_its_slice(monkeypatch, monotone_model, monotone_solution):
    # the factorization, and so the linearized solve, refuse a singular block
    import mfg_lab.stability as stab

    op = _assemble_without_initial_rows(monotone_model, monotone_solution)
    x, y = np.random.default_rng(5).standard_normal((2, op.n_unknowns))
    a = op.to_sparse()
    assert np.allclose(a @ x, op.matvec(x), rtol=0.0, atol=1e-12 * np.abs(a @ x).max())
    assert np.allclose(a.T @ y, op.rmatvec(y), rtol=0.0, atol=1e-12 * np.abs(a.T @ y).max())
    with pytest.raises(np.linalg.LinAlgError, match="time slice 0 is singular"):
        op.factorize()
    monkeypatch.setattr(stab, "assemble_operator", _assemble_without_initial_rows)
    with pytest.raises(np.linalg.LinAlgError, match="time slice 0 is singular"):
        solve_linearized(monotone_model, monotone_solution)


def test_singular_block_before_the_last_slice_is_inconclusive(
    monkeypatch, monotone_model, monotone_solution
):
    # the null vector of slice 0's block leaves the rows of slice 1 unsolved:
    # the certificate names the block and gives no verdict either way
    import mfg_lab.stability as stab

    monkeypatch.setattr(stab, "assemble_operator", _assemble_without_initial_rows)
    cert = certify_stability(monotone_model, monotone_solution, 0)
    assert cert.verdict == "INCONCLUSIVE" and cert.method == "singular-schur-block"
    assert "time slice 0 is singular" in cert.cause
    assert cert.iterations == 0 and not cert.converged and cert.iterate_s == 0.0
    assert cert.witness_residual == cert.sigma_min > cert.tolerance
    assert json.loads(cert.to_json())["cause"] == cert.cause


# ---------------------------------------------------------------------------
# closed form: the critical horizons of the uniform state
# ---------------------------------------------------------------------------

THETA, N_SPACE, N_TIME = 64.0, 16, 32


def _sine_mode_defect(T: float) -> float:
    """alpha_K of the sin(2 pi x) mode of the linearized system at the
    uniform state of antimonotone_symmetric(theta), from alpha_0 = 1.

    With a uniform m0 the base is u = 0, m = 1, so b = 0, A = I, Kg = 0 and
    Kf = -4 theta dx s s^T with s = sin(2 pi x), c = 0 and rank 1.  Every
    other Fourier mode decouples with zero data; on v = alpha s, mu = beta s
    the backward and forward rows are the 2x2 step
        (1/dt + w) beta_{k+1} = beta_k / dt - w alpha_k
        (1/dt + w) alpha_k = alpha_{k+1} / dt - 2 theta beta_{k+1}
    with w = sin(2 pi dx)^2 / dx^2 the symbol of -Lap on s and s^T s = N/2.
    Marched from the initial row beta_0 = 0, the terminal row v^K = 0 holds
    exactly where alpha_K vanishes: the operator is singular at the roots
    of this function in T.
    """
    dt, dx = T / N_TIME, 1.0 / N_SPACE
    w = math.sin(2.0 * math.pi * dx) ** 2 / dx**2
    alpha, beta = 1.0, 0.0
    for _ in range(N_TIME):
        beta = (beta / dt - w * alpha) / (1.0 / dt + w)
        alpha = dt * ((1.0 / dt + w) * alpha + 2.0 * THETA * beta)
    return alpha


@functools.lru_cache(maxsize=1)
def _critical_horizons() -> list:
    scan = np.linspace(0.01, 0.25, 241)
    defect = [_sine_mode_defect(T) for T in scan]
    return [
        brentq(_sine_mode_defect, scan[i], scan[i + 1], xtol=1e-16, rtol=1e-15)
        for i in range(len(scan) - 1)
        if defect[i] * defect[i + 1] < 0
    ]


def _uniform_state_certificate(T: float):
    model = builtin_quadratic(THETA, coupling="antimonotone_symmetric", T=T, m0="uniform")
    base = solve_picard(model, model.make_grid(N_SPACE, N_TIME), tol=1e-12)
    assert base.converged and sup_norm(base.u.values) <= 1e-14
    return certify_stability(model, base, 0), base.grid


def test_critical_horizons_of_the_sine_mode():
    assert np.allclose(
        _critical_horizons(),
        [0.0369804483017618, 0.0939655588366413, 0.154221977268478, 0.217698978643160],
        rtol=1e-12,
    )


def _assert_sine_mode_witness(cert, grid):
    # the witness lives on the sine mode: mu^0 = 0, then mu^k = beta_k s
    s = np.sin(2.0 * np.pi * grid.coordinates()[0])
    mu = cert.witness_mu[1:]
    beta = mu @ s / (s @ s)
    assert np.all(np.abs(beta) > 1e-3)
    assert np.max(np.abs(mu - beta[:, None] * s)) <= 1e-12 * np.max(np.abs(mu))


@pytest.mark.parametrize("root", [0, 1])
@pytest.mark.parametrize("offset", [-1e-9, 1e-9])
def test_critical_horizon_gives_the_unstable_verdict(root, offset):
    cert, grid = _uniform_state_certificate(_critical_horizons()[root] * (1.0 + offset))
    assert cert.verdict == "UNSTABLE-DIRECTION-FOUND"
    assert cert.converged and cert.sigma_min <= 1e-7
    _assert_sine_mode_witness(cert, grid)


@pytest.mark.parametrize("root", [0, 1])
def test_exact_critical_horizon_gives_the_unstable_verdict(root):
    # at the second root the Schur block of the last slice is singular to
    # working precision: its null vector, back-substituted, is the witness
    cert, grid = _uniform_state_certificate(_critical_horizons()[root])
    assert cert.verdict == "UNSTABLE-DIRECTION-FOUND" and cert.sigma_min <= 1e-7
    if root == 1:
        assert cert.method == "singular-schur-block"
        assert "time slice 32 is singular" in cert.cause
        # no iteration ran, so eigen_residual is nan in memory and null in
        # the strict JSON of the certificate
        assert math.isnan(cert.eigen_residual)
        assert _strict_json(cert.to_json())["eigen_residual"] is None
    _assert_sine_mode_witness(cert, grid)


def test_horizon_between_critical_ones_is_stable():
    first, second = _critical_horizons()[:2]
    cert, _ = _uniform_state_certificate(0.5 * (first + second))
    assert cert.verdict == "STABLE" and cert.sigma_min > 1.0


def test_short_well_conditioned_restriction_is_stable():
    # [t1, T] with K' = 2 at T = 0.06: the iteration needs 62 rounds, more
    # than the certify pool's 8-10, and must not stop INCONCLUSIVE
    model = builtin_quadratic(THETA, coupling="antimonotone_symmetric", T=0.06, m0="uniform")
    base = solve_picard(model, model.make_grid(N_SPACE, N_TIME), tol=1e-12)
    cert = certify_stability(model, base, N_TIME - 2)
    dense = svdvals(assemble_operator(model, base, N_TIME - 2).scaled_sparse().toarray())[-1]
    assert cert.verdict == "STABLE" and cert.converged
    assert abs(cert.sigma_min - dense) <= 1e-8 * dense


def test_a_non_positive_tolerance_is_refused():
    # just off the second root sigma_min is 9e-7, UNSTABLE-DIRECTION-FOUND at
    # tol 1e-6; at tol <= 0 every converged estimate would pass as STABLE
    T = 0.0939655588366413 * (1.0 + 1e-7)
    model = builtin_quadratic(THETA, coupling="antimonotone_symmetric", T=T, m0="uniform")
    base = solve_picard(model, model.make_grid(N_SPACE, N_TIME), tol=1e-12)
    cert = certify_stability(model, base, 0, tol=1e-6)
    assert cert.verdict == "UNSTABLE-DIRECTION-FOUND" and cert.converged
    for tol in (0.0, -1.0):
        with pytest.raises(ValueError, match="tol must be positive"):
            certify_stability(model, base, 0, tol=tol)


def test_an_infinite_tolerance_is_refused(monotone_model, monotone_solution):
    # every witness residual is below tol = inf: a base whose sigma_min is
    # 1.1 would be labelled UNSTABLE-DIRECTION-FOUND
    cert = certify_stability(monotone_model, monotone_solution, 0)
    assert cert.verdict == "STABLE" and cert.sigma_min > 1.0
    with pytest.raises(ValueError, match="tol must be positive and finite, got inf"):
        certify_stability(monotone_model, monotone_solution, 0, tol=math.inf)
