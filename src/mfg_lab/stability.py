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
matrices and the Picard sweeps of `solve_linearized` (block-triangular solves
with I/dt - Lap inverted by the FFT) all apply the same blocks.  A kernel
block stays in the coupling's factored form c I + U W^T of small rank r
(`models.KernelFactors`); no n x n kernel matrix is formed, except in the
unbordered `to_sparse` kept as a test oracle.

Stability is decided by the smallest singular value of the assembled
homogeneous operator (uniqueness of solutions of a finite linear system is
injectivity), after row scaling that makes sigma_min approximate a
grid-independent quantity: measuring fields in the L2(dx dt) norm turns the
equation rows into their raw PDE units and weights the boundary rows by
1/sqrt(dt).  sigma_min comes from inverse power iteration on one sparse LU
of the operator bordered by r moment unknowns W^T mu per slice
(`AssembledOperator.factorize`), which `direct_solve` shares; an iteration
that stops at its cap without converging never certifies STABLE, and a
byte estimate of the LU is checked against a guard before it is built.
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
from .models import KernelFactors, MfgModel
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

# Memory guard of the sparse LU, checked before `splu` (and before the
# unbordered matrix, which is smaller).  The bordered LU of a restriction
# with K' steps and n nodes per slice stores about 1.1-1.4 (K'+1)(2n)^2
# nonzeros; the growth of peak RSS across `splu` per unit of (K'+1)(2n)^2,
# monotone_local base at T=0.5 (scipy 1.17 SuperLU, one BLAS thread):
#   d=2 N=12 K'=18:  1.58M units, LU nnz  2.26M, 17.5 bytes/unit
#   d=2 N=16 K'=24:  6.55M units, LU nnz  8.25M, 14.3 bytes/unit
#   d=2 N=20 K'=30: 19.8M  units, LU nnz 25.9M,  16.9 bytes/unit
#   d=2 N=24 K'=36: 49.1M  units, LU nnz 57.9M,  13.7 bytes/unit
#   d=1 N=64 K'=128: 2.11M units, LU nnz  2.67M, 16.8 bytes/unit
#   d=1 N=96 K'=192: 7.11M units, LU nnz 10.2M,  17.1 bytes/unit
#   d=1 N=128 K'=256: 16.8M units, LU nnz 19.2M, 13.2 bytes/unit
LU_BYTES_PER_UNIT = 20.0
LU_BYTES_GUARD = 2 * 2**30


def _signature(grid: TorusGrid) -> str:
    return f"d{grid.dim}-N{grid.n_space}-K{grid.n_time}-t0{grid.t0:.6g}-T{grid.T:.6g}"


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


def _csr(parts, shape) -> sp.csr_matrix:
    """CSR matrix from (rows, cols, values) triplets whose index arrays
    broadcast against their values; duplicates add up, and entries whose
    value is zero stay stored."""
    rows, cols, vals = [], [], []
    for r, c, v in parts:
        rows.append(np.broadcast_to(r, v.shape).ravel())
        cols.append(np.broadcast_to(c, v.shape).ravel())
        vals.append(v.ravel())
    return sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=shape
    )


def _triplets(B: sp.spmatrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rows, cols, values) of the stored entries of a CSR or CSC block."""
    major = np.repeat(np.arange(len(B.indptr) - 1), np.diff(B.indptr))
    return (major, B.indices, B.data) if B.format == "csr" else (B.indices, major, B.data)


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
        coup = model.coupling
        if coup.kernel_f_factors is None or coup.kernel_g_factors is None:
            raise ValueError(f"coupling {coup.name!r} has no factored kernels")
        self.grid = grid = base.grid.restrict(t1_index)
        self.n = n = grid.n_nodes
        self.K = K = grid.n_time
        self.n_unknowns = 2 * (K + 1) * n
        self._parts: Optional[tuple] = None
        self._lu: Optional[BorderedLU] = None
        self._heat = PeriodicHeatSolver(grid)
        dt, d = grid.dt, grid.dim
        coords = grid.coordinates()
        ham = model.hamiltonian
        u = base.u.values[t1_index:]
        m = base.m.values[t1_index:]
        grad = _gradient_matrix(grid)
        eye = sp.identity(n, format="csr")
        self._diag = (eye / dt + grad.T @ grad).tocsr()  # I/dt - Lap, Lap = -G^T G

        # per slice: the drift b (the flux block mu -> mu b), v -> m A G v,
        # T = -I/dt + b.G and E = -div(m A G .); div = -G^T exactly, so
        # T^T = -I/dt - div(. b).  They are written entry by entry from the
        # stencil of G (row a n + i holds the two neighbours of node i along
        # axis a), not by sparse products, which drop entries that come out
        # zero: every base then gives the LU ordering the same pattern.  (A
        # 2D cosine m0 has a drift with an exactly zero x2 component; with
        # that pattern thinned, the LU at N=16 K'=24 filled 5x more.)
        gcol = grad.indices.reshape(d, n, 2)
        gval = grad.data.reshape(d, n, 2)
        gcol_ics, gval_ics = gcol.transpose(1, 0, 2), gval.transpose(1, 0, 2)
        node = np.arange(n)
        du = gradient(grid, u)
        self.drift = b = ham.grad_p(coords, du).reshape(K + 1, n, d)
        mA = m[..., None, None] * ham.hess_pp(coords, du)
        mA = mA.reshape(K + 1, n, d, d).transpose(0, 2, 1, 3)  # (k, a, i, c)
        # flux_v, entries (a, i, c, s): m A[a, c](i) times neighbour s along c
        rows_v = (np.arange(d)[:, None] * n + node)[..., None, None]
        self.flux_v = [
            _csr([(rows_v, gcol_ics, w)], (d * n, n)) for w in mA[..., None] * gval_ics
        ]
        # E = G^T m A G, entries (a, i, s, c, t): one per pair of neighbours
        E = [
            _csr([(gcol[..., None, None], gcol_ics[:, None], w)], (n, n))
            for w in gval[..., None, None] * (mA[:, :, :, None, :, None] * gval_ics[:, None])
        ]
        # T, entries -1/dt on the diagonal and (a, i, s): b_a(i) times
        # neighbour s along a
        diag_dt = (node, node, np.full(n, -1.0 / dt))
        T = [
            _csr([diag_dt, (node[:, None], gcol, w)], (n, n))
            for w in b.transpose(0, 2, 1)[..., None] * gval
        ]

        def v_slot(k):
            return k

        def mu_slot(k):
            return K + 1 + k

        kf = coup.kernel_f_factors(grid, m[1:])
        kg = coup.kernel_g_factors(grid, m[K])
        backward = [
            [
                (v_slot(k), self._diag),
                (v_slot(k + 1), T[k + 1]),
                (mu_slot(k + 1), KernelFactors(-kf.c, -kf.U[k], kf.W[k])),
            ]
            for k in range(K)
        ]
        forward = [
            [(mu_slot(k + 1), self._diag), (mu_slot(k), T[k].T), (v_slot(k), E[k])]
            for k in range(K)
        ]
        initial = [(mu_slot(0), eye)]
        terminal = [(v_slot(K), eye), (mu_slot(K), KernelFactors(-kg.c, -kg.U, kg.W))]
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
    def lu_bytes_estimate(self) -> int:
        """Predicted bytes of the bordered sparse LU (see LU_BYTES_PER_UNIT)."""
        return int(LU_BYTES_PER_UNIT * (self.K + 1) * (2 * self.n) ** 2)

    def _check_lu_size(self) -> None:
        estimate = self.lu_bytes_estimate()
        if estimate > LU_BYTES_GUARD:
            raise MemoryError(
                f"sparse LU on grid {_signature(self.grid)} ({self.n_unknowns} "
                f"unknowns) needs about {estimate / 2**20:.0f} MiB, over the "
                f"{LU_BYTES_GUARD / 2**20:.0f} MiB guard; use the matrix-free "
                "products instead"
            )

    def _split(self) -> tuple[sp.csr_matrix, sp.csr_matrix, sp.csr_matrix]:
        """(A0, U~, W~^T) with A = A0 + U~ W~^T: A0 holds every block with
        each kernel block cut to its c I part; each rank-one kernel term
        owns one column of U~ and one row of W~^T (a moment unknown)."""
        if self._parts is None:
            n, M = self.n, self.n_unknowns
            nodes = np.arange(n)
            a0, u_t, w_t = [], [], []
            r_border = 0
            for r, terms in enumerate(self.rows):
                for s, B in terms:
                    if not isinstance(B, KernelFactors):
                        rows, cols, vals = _triplets(B)
                        a0.append((rows + r * n, cols + s * n, vals))
                        continue
                    if B.c:
                        a0.append((r * n + nodes, s * n + nodes, np.full(n, B.c)))
                    moments = r_border + np.arange(B.U.shape[1])
                    u_t.append(((r * n + nodes)[:, None], moments, B.U))
                    w_t.append((moments, (s * n + nodes)[:, None], B.W))
                    r_border += B.U.shape[1]
            self._parts = (
                _csr(a0, (M, M)),
                _csr(u_t, (M, r_border)),
                _csr(w_t, (r_border, M)),
            )
        return self._parts

    def to_sparse(self) -> sp.csr_matrix:
        """The unbordered matrix A = A0 + U~ W~^T, kernel blocks dense: an
        oracle for tests; certificates and solves use `factorize`."""
        self._check_lu_size()
        A0, U, Wt = self._split()
        return (A0 + U @ Wt).tocsr()

    def row_scaling(self) -> np.ndarray:
        """Boundary rows weighted 1/sqrt(dt): fields measured in L2(dx dt),
        boundary data in L2(dx), equation rows in raw PDE units."""
        K, n, dt = self.K, self.n, self.grid.dt
        w = np.ones(self.n_unknowns)
        w[2 * K * n :] = 1.0 / math.sqrt(dt)
        return w

    def scaled_sparse(self) -> sp.csr_matrix:
        return sp.diags(self.row_scaling()) @ self.to_sparse()

    def factorize(self) -> "BorderedLU":
        """One sparse LU of the row-scaled operator D A, bordered by its
        moment unknowns s = W~^T x:

            [[D A0, D U~], [W~^T, -I]] [x; s] = [D b; 0]  <=>  A x = b.

        Row blocks are permuted so that each row's pivot slot sits on the
        diagonal (the border's -I already does), which lets the symmetric
        minimum-degree ordering of A + A^T see the block-banded structure.
        """
        if self._lu is None:
            self._check_lu_size()
            A0, U, Wt = self._split()
            r_border = Wt.shape[0]
            bordered = sp.bmat([[A0, U], [Wt, -sp.identity(r_border)]], format="csr")
            # D on the operator's rows, scaling the stored entries: a sparse
            # product would drop the zeros that keep the pattern fixed
            w = np.concatenate([self.row_scaling(), np.ones(r_border)])
            bordered.data *= np.repeat(w, np.diff(bordered.indptr))
            blocks = np.argsort([terms[0][0] for terms in self.rows])
            order = np.concatenate(
                [
                    (blocks[:, None] * self.n + np.arange(self.n)).ravel(),
                    self.n_unknowns + np.arange(r_border),
                ]
            )
            lu = spla.splu(bordered[order].tocsc(), permc_spec="MMD_AT_PLUS_A")
            self._lu = BorderedLU(lu, order, self.n_unknowns)
        return self._lu

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
        return self.factorize().solve(self.row_scaling() * self.rhs_vector(problem))


class BorderedLU:
    """The LU that `AssembledOperator.factorize` returns: solve(b) =
    (D A)^-1 b and solve(b, "T") = (D A)^-T b for b of the operator's size,
    through the bordered LU with b padded by zeros on the moment rows."""

    def __init__(self, lu, order: np.ndarray, size: int):
        self._lu, self._order, self.size = lu, order, size
        self.nnz = int(lu.nnz)  # fill of L + U, read without forming them
        self.border = len(order) - size

    def solve(self, b: np.ndarray, trans: str = "N") -> np.ndarray:
        padded = np.zeros(len(self._order))
        padded[: self.size] = b
        if trans == "N":
            return self._lu.solve(padded[self._order])[: self.size]
        out = np.empty_like(padded)
        out[self._order] = self._lu.solve(padded, trans="T")
        return out[: self.size]


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
    flux_v = np.stack([B @ v.reshape(-1) for B, v in zip(op.flux_v, v_values)])
    z = -(
        op.drift * mu_values.reshape(K + 1, -1, 1)
        + flux_v.reshape(K + 1, grid.dim, -1).transpose(0, 2, 1)
    )
    return z.reshape(K + 1, *grid.spatial_shape, grid.dim)


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
    lu_nnz: int  # nonzeros of the sparse LU's factors
    border: int  # moment unknowns bordering the operator
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
                "lu_nnz": self.lu_nnz,
                "border": self.border,
                "witness_residual": self.witness_residual,
                "witness_file": witness_file,
            },
            sort_keys=True,
        )


def _inverse_power_sigma_min(
    lu: BorderedLU, iters: int = 200, tol: float = 1e-11, seed: int = 0
) -> tuple[float, np.ndarray, int, bool]:
    """Smallest singular value and right singular vector of the scaled
    operator via (A^T A)^-1 power iteration with its sparse LU, plus the
    iterations run and whether the eigenvalue estimate settled to `tol`
    before the cap."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(lu.size)
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
    lu = op.factorize()
    sigma, x, iterations, converged = _inverse_power_sigma_min(lu, seed=seed)
    w = op.row_scaling()
    ax = w * op.matvec(x)
    gap = op.rmatvec(w * ax) - sigma**2 * x
    eigen_residual = float(np.linalg.norm(gap) / sigma**2)
    cert = StabilityCertificate(
        sigma_min=sigma,
        grid_signature=_signature(op.grid),
        tolerance=tol,
        verdict="STABLE",
        method="inverse-power",
        n_unknowns=op.n_unknowns,
        t1_index=t1_index,
        iterations=iterations,
        converged=converged,
        eigen_residual=eigen_residual,
        lu_nnz=lu.nnz,
        border=lu.border,
    )
    if converged and sigma > tol:
        return cert
    resid = float(np.linalg.norm(ax))
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
