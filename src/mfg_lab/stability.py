"""Linear stability of MFG solutions via the linearized forward-backward system.

The discrete linearized system is the exact Frechet derivative of the
nonlinear schemes: for a base solution (u, m) on slices j0..K of its grid and
local index k on [t1, T],

backward rows, k = 0..K'-1:
    (v^k - v^{k+1})/dt - Lap v^k + b^{k+1}.G v^{k+1} - Kf^{k+1} mu^{k+1} = a^{k+1}
forward rows, k = 0..K'-1:
    (mu^{k+1} - mu^k)/dt - Lap mu^{k+1} - div(mu^k b^k) - div(m^k A^k G v^k)
        = div(b_src^k)
boundary rows:
    mu^0 = mu0 (default 0),    v^{K'} - Kg mu^{K'} = c

with b = D_pH(x,Du), A = D2_ppH(x,Du), Kf/Kg the coupling kernels at the
base density.  These rows are written once, as per-slice blocks built by
`AssembledOperator`; the matrix-free products, the residuals, the sparse
matrix and the Picard sweeps of `solve_linearized` (block-triangular solves
with I/dt - Lap inverted by the FFT) all apply the same blocks.  The kernel
blocks are the n x n matrices of the couplings' kernel actions
(`models.kernel_matrix`), formed one slice at a time.

Stability is decided by the smallest singular value of the assembled
homogeneous operator (uniqueness of solutions of a finite linear system is
injectivity), after row scaling that makes sigma_min approximate a
grid-independent quantity: measuring fields in the L2(dx dt) norm turns the
equation rows into their raw PDE units and weights the boundary rows by
1/sqrt(dt).  sigma_min comes from inverse power iteration on one sparse LU;
an iteration that stops at its cap without converging never certifies
STABLE.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .grid import (
    ScalarField,
    TorusGrid,
    c10_norm_field,
    divergence,
    gradient,
    max_slice_l2_norm,
    sup_norm,
)
from .mfg import MfgSolution, solution_distance, solve_picard
from .models import MfgModel, kernel_matrix
from .pde import PeriodicHeatSolver
from .perturb import low_frequency_field, perturb_density_values, spawn_rngs

__all__ = [
    "LinearizedProblem",
    "LinearizedSolution",
    "StabilityCertificate",
    "AssembledOperator",
    "solve_linearized",
    "assemble_operator",
    "certify_stability",
    "isolation_experiment",
    "backward_response",
    "flux_from_value_direction",
    "response_bound_estimate",
]

SIZE_GUARD = 200_000


@functools.lru_cache(maxsize=16)
def _gradient_matrix(grid: TorusGrid) -> sp.csr_matrix:
    """Centered periodic gradient, (d n x n) with components stacked
    axis-major; its negative transpose is the divergence, exactly."""
    N = grid.n_space
    e = np.ones(N)
    up = sp.diags([e[:-1]], [1], shape=(N, N), format="lil")
    up[N - 1, 0] = 1.0
    down = sp.diags([e[:-1]], [-1], shape=(N, N), format="lil")
    down[0, N - 1] = 1.0
    G1d = ((up - down) / (2.0 * grid.dx)).tocsr()
    if grid.dim == 1:
        return G1d
    eye = sp.identity(N, format="csr")
    return sp.vstack([sp.kron(G1d, eye), sp.kron(eye, G1d)], format="csr")


def _diag_blocks(w: np.ndarray) -> sp.csr_matrix:
    """Block matrix [diag(w[:, a, c])]_{a, c} for w of shape (n, p, q)."""
    n, p, q = w.shape
    cols = np.arange(q) * n + np.arange(n)[:, None]
    return sp.csr_matrix(
        (
            w.transpose(1, 0, 2).ravel(),
            np.broadcast_to(cols, (p, n, q)).ravel(),
            np.arange(0, p * n * q + 1, q),
        ),
        shape=(p * n, q * n),
    )


# ---------------------------------------------------------------------------
# problem / solution containers
# ---------------------------------------------------------------------------


@dataclass
class LinearizedProblem:
    """Linearized system around `base` on [t_{t1_index}, T].

    Inhomogeneities: a sources the backward equation (slices 1..K'), b_src
    enters the forward equation as div(b_src) (slices 0..K'-1), c shifts the
    terminal condition, mu0 the initial perturbation.  All default to zero.
    """

    base: MfgSolution
    t1_index: int = 0
    a: Optional[np.ndarray] = None
    b_src: Optional[np.ndarray] = None
    c: Optional[np.ndarray] = None
    mu0: Optional[np.ndarray] = None

    def __post_init__(self):
        if not self.base.converged:
            raise ValueError("linearization requires a converged base solution")
        rgrid = self.base.grid.restrict(self.t1_index)
        K = rgrid.n_time
        sshape = rgrid.spatial_shape
        self.a = _shaped(self.a, (K + 1, *sshape))
        self.b_src = _shaped(self.b_src, (K + 1, *sshape, rgrid.dim))
        self.c = _shaped(self.c, sshape)
        self.mu0 = _shaped(self.mu0, sshape)


def _shaped(arr, shape) -> np.ndarray:
    if arr is None:
        return np.zeros(shape)
    arr = np.asarray(arr, dtype=float)
    if arr.shape != shape:
        raise ValueError(f"inhomogeneity shape {arr.shape} != {shape}")
    return arr


@dataclass
class LinearizedSolution:
    v: ScalarField
    mu: ScalarField
    residuals: dict
    source_norms: dict
    iterations: int
    converged: bool
    used_fallback: bool = False


# ---------------------------------------------------------------------------
# the linearized operator
# ---------------------------------------------------------------------------


class AssembledOperator:
    """Space-time operator of the homogeneous linearized system, as blocks.

    Unknowns are stacked [v^0..v^K', mu^0..mu^K'] with one spatial block of
    n = N^d nodes per slice, so slot s of the stacked vector holds v^s for
    s <= K' and mu^{s-K'-1} after.  Row block r is backward row r for
    r < K', forward row r - K' for r < 2K', then the initial rows (mu^0)
    and the terminal rows (v^K' - Kg mu^K').  ``rows[r]`` lists the
    (slot, block) terms of row block r, pivot first: the unknown that row
    determines in a sweep.  Products apply the blocks at any size; sparse
    materialization is guarded.
    """

    def __init__(self, model: MfgModel, base: MfgSolution, t1_index: int = 0):
        if not 0 <= t1_index < base.grid.n_time:
            raise ValueError("t1_index out of range")
        self.grid = grid = base.grid.restrict(t1_index)
        self.n = n = grid.n_nodes
        self.K = K = grid.n_time
        self.n_unknowns = 2 * (K + 1) * n
        self._sparse: Optional[sp.csr_matrix] = None
        self._heat = PeriodicHeatSolver(grid)
        dt, d = grid.dt, grid.dim
        coords = grid.coordinates()
        ham, coup = model.hamiltonian, model.coupling
        u = base.u.values[t1_index:]
        m = base.m.values[t1_index:]
        grad = _gradient_matrix(grid)
        grad_t = grad.T
        eye = sp.identity(n, format="csr")
        eye_dt = eye / dt
        self._diag = (eye_dt + grad_t @ grad).tocsr()  # I/dt - Lap, Lap = -G^T G

        # per slice: the flux blocks mu -> mu b and v -> m A G v,
        # T = -I/dt + b.G and E = -div(m A G .); div = -G^T exactly, so
        # T^T = -I/dt - div(. b)
        du = gradient(grid, u)
        b = ham.grad_p(coords, du).reshape(K + 1, n, d, 1)
        mA = (m[..., None, None] * ham.hess_pp(coords, du)).reshape(K + 1, n, d, d)
        T, E, self.flux_mu, self.flux_v = [], [], [], []
        for k in range(K + 1):
            self.flux_mu.append(_diag_blocks(b[k]))
            self.flux_v.append(_diag_blocks(mA[k]) @ grad)
            T.append(self.flux_mu[k].T @ grad - eye_dt)
            E.append(grad_t @ self.flux_v[k])

        def v_slot(k):
            return k

        def mu_slot(k):
            return K + 1 + k

        backward = [
            [
                (v_slot(k), self._diag),
                (v_slot(k + 1), T[k + 1]),
                (mu_slot(k + 1), -kernel_matrix(coup.kernel_f, grid, m[k + 1])),
            ]
            for k in range(K)
        ]
        forward = [
            [(mu_slot(k + 1), self._diag), (mu_slot(k), T[k].T), (v_slot(k), E[k])]
            for k in range(K)
        ]
        initial = [(mu_slot(0), eye)]
        terminal = [
            (v_slot(K), eye),
            (mu_slot(K), -kernel_matrix(coup.kernel_g, grid, m[K])),
        ]
        self.rows = backward + forward + [initial, terminal]

    # -- layout helpers ----------------------------------------------------
    def unstack(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        K, n = self.K, self.n
        v = x[: (K + 1) * n].reshape(K + 1, *self.grid.spatial_shape)
        mu = x[(K + 1) * n :].reshape(K + 1, *self.grid.spatial_shape)
        return v.copy(), mu.copy()

    def stack(self, v_values: np.ndarray, mu_values: np.ndarray) -> np.ndarray:
        return np.concatenate([v_values.reshape(-1), mu_values.reshape(-1)])

    # -- products, residuals, sweeps -----------------------------------------
    def matvec(self, x: np.ndarray) -> np.ndarray:
        X = x.reshape(-1, self.n)
        return np.concatenate([sum(B @ X[s] for s, B in terms) for terms in self.rows])

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        Y = y.reshape(-1, self.n)
        out = np.zeros(Y.shape)
        for r, terms in enumerate(self.rows):
            for s, B in terms:
                out[s] += B.T @ Y[r]
        return out.reshape(-1)

    def _residuals(self, x: np.ndarray, rhs: np.ndarray) -> dict:
        """Sup of A x - rhs per row kind, and the drift of the mass of mu."""
        K, n = self.K, self.n
        r = np.abs(self.matvec(x) - rhs)
        mass = self.grid.cell_volume * x.reshape(-1, n)[K + 1 :].sum(axis=1)
        return {
            "backward": float(r[: K * n].max()),
            "forward": float(r[K * n : 2 * K * n].max()),
            "terminal": float(r[(2 * K + 1) * n :].max()),
            "mass_drift": float(np.max(np.abs(mass - mass[0]))),
        }

    def _solve_rows(self, x: np.ndarray, rhs: np.ndarray, order) -> None:
        """Block-triangular solve in place: each row block in `order` sets
        its pivot slot from the current values of its other slots."""
        X, R = x.reshape(-1, self.n), rhs.reshape(-1, self.n)
        sshape = self.grid.spatial_shape
        for r in order:
            (p, pivot), *rest = self.rows[r]
            val = R[r] - sum(B @ X[s] for s, B in rest)
            if pivot is self._diag:
                # (I/dt - Lap)^-1 = dt (I - dt Lap)^-1
                val = self._heat.step((self.grid.dt * val).reshape(sshape)).reshape(-1)
            X[p] = val

    def _backward_sweep(self, x: np.ndarray, rhs: np.ndarray) -> None:
        """v^K' .. v^0 from the terminal and backward rows, mu held fixed."""
        self._solve_rows(x, rhs, [2 * self.K + 1, *range(self.K - 1, -1, -1)])

    def _forward_sweep(self, x: np.ndarray, rhs: np.ndarray) -> None:
        """mu^0 .. mu^K' from the initial and forward rows, v held fixed."""
        self._solve_rows(x, rhs, [2 * self.K, *range(self.K, 2 * self.K)])

    # -- materialization -----------------------------------------------------
    def to_sparse(self) -> sp.csr_matrix:
        if self.n_unknowns > SIZE_GUARD:
            raise MemoryError(
                f"{self.n_unknowns} unknowns exceed the materialization guard "
                f"({SIZE_GUARD}); use the matrix-free products instead"
            )
        if self._sparse is not None:
            return self._sparse
        n = self.n
        blocks = [
            (r, s, sp.coo_matrix(B))
            for r, terms in enumerate(self.rows)
            for s, B in terms
        ]
        rows = np.concatenate([blk.row + r * n for r, _, blk in blocks])
        cols = np.concatenate([blk.col + s * n for _, s, blk in blocks])
        vals = np.concatenate([blk.data for _, _, blk in blocks])
        M = self.n_unknowns
        self._sparse = sp.csr_matrix((vals, (rows, cols)), shape=(M, M))
        return self._sparse

    def row_scaling(self) -> np.ndarray:
        """Boundary rows weighted 1/sqrt(dt): fields measured in L2(dx dt),
        boundary data in L2(dx), equation rows in raw PDE units."""
        K, n, dt = self.K, self.n, self.grid.dt
        w = np.ones(self.n_unknowns)
        w[2 * K * n :] = 1.0 / math.sqrt(dt)
        return w

    def scaled_sparse(self) -> sp.csr_matrix:
        return sp.diags(self.row_scaling()) @ self.to_sparse()

    def rhs_vector(self, problem: LinearizedProblem) -> np.ndarray:
        K = self.K
        rows = (
            problem.a[1:],
            divergence(self.grid, problem.b_src[:K]),
            problem.mu0,
            problem.c,
        )
        return np.concatenate([r.reshape(-1) for r in rows])

    def direct_solve(self, problem: LinearizedProblem) -> np.ndarray:
        return spla.spsolve(self.to_sparse().tocsc(), self.rhs_vector(problem))


def assemble_operator(
    model: MfgModel, base: MfgSolution, t1_index: int = 0
) -> AssembledOperator:
    return AssembledOperator(model, base, t1_index)


# ---------------------------------------------------------------------------
# linearized solves
# ---------------------------------------------------------------------------


def solve_linearized(
    model: MfgModel,
    problem: LinearizedProblem,
    tol: float = 1e-12,
    max_iter: int = 400,
    damping: float = 1.0,
) -> LinearizedSolution:
    """Damped Picard on mu through the backward/forward sweeps.

    Divergence triggers a direct solve of the assembled sparse system; the
    fallback is recorded in the result.
    """
    op = assemble_operator(model, problem.base, problem.t1_index)
    grid, K = op.grid, op.K
    a, b_src, c, mu0 = problem.a, problem.b_src, problem.c, problem.mu0
    rhs = op.rhs_vector(problem)

    x = np.zeros(op.n_unknowns)
    mu = x.reshape(-1, op.n)[K + 1 :]  # view: the mu slots of x
    mu[0] = mu0.reshape(-1)
    scale = max(sup_norm(a), sup_norm(b_src), sup_norm(c), sup_norm(mu0), 1.0)
    gaps: list[float] = []
    converged = False
    fallback = False
    it = 0
    for it in range(1, max_iter + 1):
        op._backward_sweep(x, rhs)
        mu_prev = mu.copy()
        op._forward_sweep(x, rhs)
        gap = max_slice_l2_norm(grid, (mu - mu_prev).reshape(-1, *grid.spatial_shape))
        gaps.append(gap)
        mu[1:] = (1.0 - damping) * mu_prev[1:] + damping * mu[1:]
        if gap <= tol * scale:
            converged = True
            break
        if gap > 1e8 * scale or (
            len(gaps) > 30 and gaps[-1] > 2.0 * min(gaps[:-1]) and gaps[-1] > gaps[-2]
        ):
            break
    if not converged:
        x = op.direct_solve(problem)
        fallback = True
        converged = True
    # final consistency: recompute v from the accepted mu
    op._backward_sweep(x, rhs)
    v, mu = op.unstack(x)
    return LinearizedSolution(
        v=ScalarField(grid, v),
        mu=ScalarField(grid, mu),
        residuals=op._residuals(x, rhs),
        source_norms={
            "a": sup_norm(a),
            "b": sup_norm(b_src),
            "c": sup_norm(c),
            "mu0": sup_norm(mu0),
        },
        iterations=it,
        converged=converged,
        used_fallback=fallback,
    )


def backward_response(
    model: MfgModel,
    base: MfgSolution,
    t1_index: int,
    mu_values: np.ndarray,
    a: Optional[np.ndarray] = None,
    c: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Backward linear solve for v given a density direction mu."""
    problem = LinearizedProblem(base=base, t1_index=t1_index, a=a, c=c)
    op = assemble_operator(model, base, t1_index)
    x = op.stack(np.zeros_like(mu_values), mu_values)
    op._backward_sweep(x, op.rhs_vector(problem))
    return op.unstack(x)[0]


def flux_from_value_direction(
    model: MfgModel,
    base: MfgSolution,
    t1_index: int,
    v_values: np.ndarray,
    mu_values: np.ndarray,
) -> np.ndarray:
    """z = -mu D_pH(x,Du) - m D2_ppH(x,Du) Dv on every slice of [t1, T]."""
    op = assemble_operator(model, base, t1_index)
    grid, K = op.grid, op.K
    z = np.stack(
        [
            -(op.flux_mu[k] @ mu.reshape(-1) + op.flux_v[k] @ v.reshape(-1))
            for k, (v, mu) in enumerate(zip(v_values, mu_values))
        ]
    )
    return np.moveaxis(z.reshape(K + 1, grid.dim, *grid.spatial_shape), 1, -1).copy()


# ---------------------------------------------------------------------------
# certification
# ---------------------------------------------------------------------------


@dataclass
class StabilityCertificate:
    sigma_min: float
    grid_signature: str
    tolerance: float
    verdict: str  # STABLE | INCONCLUSIVE | UNSTABLE-DIRECTION-FOUND
    method: str
    n_unknowns: int
    t1_index: int
    iterations: int  # inverse power iterations run
    converged: bool  # the iteration met its tolerance before its cap
    # |A^T A x - sigma^2 x| / sigma^2 of the final unit iterate x: how far
    # (sigma, x) is from a singular pair of the scaled operator A
    eigen_residual: float
    witness_residual: Optional[float] = None
    witness_v: Optional[np.ndarray] = field(default=None, repr=False)
    witness_mu: Optional[np.ndarray] = field(default=None, repr=False)

    def to_json(self, witness_file: Optional[str] = None) -> str:
        return json.dumps(
            {
                "sigma_min": self.sigma_min,
                "grid_signature": self.grid_signature,
                "tolerance": self.tolerance,
                "verdict": self.verdict,
                "method": self.method,
                "n_unknowns": self.n_unknowns,
                "t1_index": self.t1_index,
                "iterations": self.iterations,
                "converged": self.converged,
                "eigen_residual": self.eigen_residual,
                "witness_residual": self.witness_residual,
                "witness_file": witness_file,
            },
            sort_keys=True,
        )


def _inverse_power_sigma_min(
    A: sp.csr_matrix, iters: int = 200, tol: float = 1e-11, seed: int = 0
) -> tuple[float, np.ndarray, int, bool]:
    """Smallest singular value and right singular vector via (A^T A)^-1 power
    iteration with a sparse LU of A, plus the iterations run and whether the
    eigenvalue estimate settled to `tol` before the cap."""
    lu = spla.splu(A.tocsc())
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(A.shape[0])
    x /= np.linalg.norm(x)
    lam_prev = 0.0
    converged = False
    it = 0
    for it in range(1, iters + 1):
        y = lu.solve(x, trans="T")
        z = lu.solve(y)
        lam = float(x @ z)
        nz = np.linalg.norm(z)
        if nz == 0.0:
            break
        x = z / nz
        if lam_prev > 0 and abs(lam - lam_prev) <= tol * lam:
            lam_prev = lam
            converged = True
            break
        lam_prev = lam
    sigma = 1.0 / math.sqrt(lam_prev) if lam_prev > 0 else 0.0
    return sigma, x, it, converged


def certify_stability(
    model: MfgModel,
    base: MfgSolution,
    t1_index: int = 0,
    tol: float = 1e-6,
    seed: int = 0,
) -> StabilityCertificate:
    """Certificate from sigma_min of the scaled homogeneous operator.

    STABLE requires a converged inverse power iteration with sigma_min > tol;
    otherwise its last iterate is the witness, and the verdict is
    UNSTABLE-DIRECTION-FOUND when the witness's (scaled) equation residual is
    itself below tol, INCONCLUSIVE when even that cannot be certified.
    Discretization cannot prove continuum instability, so no stronger claim
    is made.
    """
    op = assemble_operator(model, base, t1_index)
    A = op.scaled_sparse()
    sigma, x, iterations, converged = _inverse_power_sigma_min(A, seed=seed)
    gap = A.T @ (A @ x) - sigma**2 * x
    eigen_residual = float(np.linalg.norm(gap) / sigma**2)
    g = op.grid
    signature = f"d{g.dim}-N{g.n_space}-K{g.n_time}-t0{g.t0:.6g}-T{g.T:.6g}"
    cert = StabilityCertificate(
        sigma_min=sigma,
        grid_signature=signature,
        tolerance=tol,
        verdict="STABLE",
        method="inverse-power",
        n_unknowns=op.n_unknowns,
        t1_index=t1_index,
        iterations=iterations,
        converged=converged,
        eigen_residual=eigen_residual,
    )
    if converged and sigma > tol:
        return cert
    resid = float(np.linalg.norm(A @ x))
    v, mu = op.unstack(x)
    cert.witness_residual = resid
    cert.witness_v = v
    cert.witness_mu = mu
    cert.verdict = "UNSTABLE-DIRECTION-FOUND" if resid <= tol else "INCONCLUSIVE"
    return cert


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------


@dataclass
class IsolationReport:
    eta_records: list
    distinct_pairs_total: int

    def found_distinct(self) -> bool:
        return self.distinct_pairs_total > 0


def isolation_experiment(
    model: MfgModel,
    base: MfgSolution,
    eta_list,
    trials: int,
    seed,
    runs_per_trial: int = 2,
    damping: float = 0.5,
    tol: float = 1e-10,
    max_iter: int = 400,
    distinct_tol: float = 1e-7,
) -> IsolationReport:
    """Search for distinct solutions near a (certified stable) base.

    Each trial fixes one initial density perturbed within eta (C0), then
    runs Picard several times from random iterates within eta of the base.
    Distinct converged solutions of that same problem inside the eta-ball
    around the base would falsify local uniqueness; the report counts them.
    """
    grid = base.grid
    records = []
    total = 0
    eta_list = list(eta_list)
    rngs = spawn_rngs(seed, len(eta_list) * trials * (runs_per_trial + 1))
    ri = 0
    for eta in eta_list:
        converged_runs = 0
        in_ball_total = 0
        pairs = 0
        max_pair = 0.0
        max_to_base = 0.0
        for _ in range(trials):
            rng_m0 = rngs[ri]
            ri += 1
            if eta == 0.0:
                m0_new = base.m.values[0].copy()
            else:
                m0_new = perturb_density_values(grid, base.m.values[:1], eta, rng_m0)[0]
            in_ball = []
            for r in range(runs_per_trial):
                rng_init = rngs[ri]
                ri += 1
                if eta == 0.0 and r == 0:
                    init = base.m.values.copy()
                else:
                    init = perturb_density_values(grid, base.m.values, max(eta, 1e-3), rng_init)
                run = solve_picard(
                    model,
                    grid,
                    m0=m0_new,
                    init_m=init,
                    damping=damping,
                    tol=tol,
                    max_iter=max_iter,
                )
                if not run.converged:
                    continue
                converged_runs += 1
                dist = solution_distance(run, base)
                if eta == 0.0 or dist <= max(5.0 * eta, 1e-6):
                    in_ball.append(run)
                    max_to_base = max(max_to_base, dist)
            in_ball_total += len(in_ball)
            for i in range(len(in_ball)):
                for j in range(i + 1, len(in_ball)):
                    d = solution_distance(in_ball[i], in_ball[j])
                    max_pair = max(max_pair, d)
                    if d > distinct_tol:
                        pairs += 1
        total += pairs
        records.append(
            {
                "eta": float(eta),
                "trials": trials,
                "runs_per_trial": runs_per_trial,
                "converged": converged_runs,
                "in_ball": in_ball_total,
                "distinct_pairs": pairs,
                "max_pairwise_distance": max_pair,
                "max_distance_to_base": max_to_base,
            }
        )
    return IsolationReport(eta_records=records, distinct_pairs_total=total)


def response_bound_estimate(
    model: MfgModel,
    base: MfgSolution,
    trials: int = 20,
    seed=0,
    t1_index: int = 0,
) -> float:
    """Empirical bound C with ||v||_{C^{1,0}} + ||mu||_sup <= C (||a|| + ||b|| + ||c||)
    over random unit-norm sources; finite iff the base is linearly stable."""
    grid = base.grid.restrict(t1_index)
    rngs = spawn_rngs(seed, trials)
    worst = 0.0
    for rng in rngs:
        a = np.stack(
            [low_frequency_field(grid, rng) for _ in range(grid.n_time + 1)]
        )
        b = np.zeros((grid.n_time + 1, *grid.spatial_shape, grid.dim))
        for ax in range(grid.dim):
            b[..., ax] = low_frequency_field(grid, rng)
        c = low_frequency_field(grid, rng)
        a /= max(sup_norm(a), 1e-30)
        b /= max(sup_norm(b), 1e-30)
        c /= max(sup_norm(c), 1e-30)
        prob = LinearizedProblem(base=base, t1_index=t1_index, a=a, b_src=b, c=c)
        out = solve_linearized(model, prob)
        response = c10_norm_field(grid, out.v.values) + sup_norm(out.mu.values)
        worst = max(worst, response / 3.0)
    return worst
