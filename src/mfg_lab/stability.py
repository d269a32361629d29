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
base density.  `AssembledOperator` keeps these rows as the arrays they are
made of, stacked over the slices: the drift b and m A of every slice, the
kernel factors, the initial-row block and the heat solver.  Its four block
kinds are applied to whole stacks through the per-axis difference products
of the sweeps (`pde`; the stencils of `grid` to roundoff):

    T_k = -I/dt + b^k.G,    T_k^T = -I/dt - div(b^k .),
    E_k = -div(m^k A^k G .) = E_k^T,    D0 = I/dt - Lap,

and a kernel block is the coupling's kernel in the factored form c I + U W^T
of small rank r (`models.KernelFactors`).  The matrix-free products, the
residuals, the factorization that `solve_linearized` and the certificates
use, and the backward sweep of `backward_response` (D0 inverted by
`pde.PeriodicHeatSolver`) all call these applies; no matrix of the operator
is formed, except in `to_sparse`, the sparse matrix kept as a test oracle
and built from the applies on identity blocks.

Stability is decided by the smallest singular value of the assembled
homogeneous operator (uniqueness of solutions of a finite linear system is
injectivity), after row scaling that makes sigma_min approximate a
grid-independent quantity: measuring fields in the L2(dx dt) norm turns the
equation rows into their raw PDE units and weights the boundary rows by
1/sqrt(dt).  sigma_min comes from block inverse iteration with a
Rayleigh-Ritz step per round (`_block_inverse_sigma_min`, BLOCK_WIDTH
columns, wider than the tight cluster at the bottom of the spectrum) on one
factorization of the operator (`AssembledOperator.factorize`, shared with
`solve_linearized`): block elimination forward in time, the scheme's own
structure (v solved backward, mu forward), with dense n x n Schur blocks per
slice and pivoting only inside them (`TimeBlockLU`, which solves a block of
right-hand sides as one).  It stores D0^-1 and two dense n x n blocks per
slice, M_k^-1 and P_k, and nothing else: a solve's two recursions over the
slices apply T_k, T_k^T and the kernel block B_k from the coefficient stacks
to the slice they carry.  The iteration stops on the residual of the
smallest Ritz pair, so the witness vector is as settled as sigma_min; one
that stops at its cap without converging never certifies STABLE, and the
bytes the factorization stores are checked against a guard before any is
allocated.  A Schur block singular to working precision leaves no
factorization to iterate with; its null vector, back-substituted through
the earlier slices by the backward recursion of the solves, is the witness
instead, so such an operator is never certified STABLE either.

scipy is imported by the first call that needs it, never with this module:
LAPACK and BLAS (scipy.linalg) by the first `TimeBlockLU`, scipy.sparse by
the oracle `to_sparse`.  The products, the backward sweep and everything
else in the package run on numpy alone, so a process that only solves,
plays or searches never loads scipy.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np

from .grid import (
    ScalarField,
    TorusGrid,
    divergence,
    gradient,
    strict_json,
)
from .mfg import MfgSolution, solution_distance, solve_picard
from .models import KernelFactors, MfgModel
from .pde import PeriodicHeatSolver, _check_finite, _difference_matrix
from .perturb import perturb_density_values, spawn_rngs

__all__ = [
    "LinearizedSolution",
    "StabilityCertificate",
    "AssembledOperator",
    "SingularSchurBlock",
    "solve_linearized",
    "assemble_operator",
    "certify_stability",
    "isolation_experiment",
    "backward_response",
    "flux_from_value_direction",
]


def __getattr__(name: str):
    """`sp` and `spla`, scipy's sparse modules, imported on first access.

    Nothing in the package reads them: `to_sparse` and `scaled_sparse`
    import scipy.sparse themselves.  perfbench/tracing.py reads and rebinds
    `stability.spla` to trace a sparse LU that no solve calls any more; the
    names stay until the tracer drops that hook."""
    if name == "sp":
        import scipy.sparse

        return scipy.sparse
    if name == "spla":
        import scipy.sparse.linalg

        return scipy.sparse.linalg
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# Memory guard of the block factorization, checked against the bytes of the
# dense blocks it stores before any is allocated (and before the sparse
# oracle `to_sparse`, which stores fewer).
LU_BYTES_GUARD = 2 * 2**30


def _signature(grid: TorusGrid) -> str:
    return f"d{grid.dim}-N{grid.n_space}-K{grid.n_time}-t0{grid.t0:.6g}-T{grid.T:.6g}"


# ---------------------------------------------------------------------------
# the block kinds, applied to stacks of n-vectors (..., n) through the
# per-axis difference products of the sweeps; a vector field is a list of
# its d components, and coefficient stacks (..., d, n) and (..., d, d, n)
# broadcast against the leading axes
# ---------------------------------------------------------------------------


def _diff(grid: TorusGrid, x: np.ndarray, axis: int) -> np.ndarray:
    """Centered difference of each n-vector of x (..., n) along a spatial
    axis: component `axis` of ``gradient``, and a term of ``divergence``.
    On a matrix, ``ndarray.dot`` gives the bits of ``@`` with less call
    overhead (the solves apply it to one p x n slice at a time); ``@``
    broadcasts over a stack."""
    c = _difference_matrix(grid.n_space)
    if grid.dim == 1:
        return x.dot(c) if x.ndim == 2 else x @ c
    xs = x.reshape(*x.shape[:-1], grid.n_space, grid.n_space)
    return (c.T @ xs if axis == 0 else xs @ c).reshape(x.shape)


def _grad(grid: TorusGrid, x: np.ndarray) -> list:
    return [_diff(grid, x, a) for a in range(grid.dim)]


def _div(grid: TorusGrid, w: list) -> np.ndarray:
    y = _diff(grid, w[0], 0)
    for a in range(1, grid.dim):
        y += _diff(grid, w[a], a)
    return y


def _d0(grid: TorusGrid, x: np.ndarray) -> np.ndarray:
    """D0 x = x/dt - Lap x, symmetric."""
    y = _div(grid, _grad(grid, x))
    y -= x / grid.dt
    return np.negative(y, out=y)


def _transport(grid: TorusGrid, b: np.ndarray, x: np.ndarray, trans: bool = False) -> np.ndarray:
    """T x = -x/dt + b.G x, or T^T x = -x/dt - div(b x) with `trans`."""
    y = x / -grid.dt
    for a in range(grid.dim):
        if trans:
            y -= _diff(grid, b[..., a, :] * x, a)
        else:
            g = _diff(grid, x, a)
            g *= b[..., a, :]
            y += g
    return y


def _times_mA(mA: np.ndarray, g: list) -> list:
    """m A g per node, g given by its components."""
    out = []
    for a in range(len(g)):
        w = mA[..., a, 0, :] * g[0]
        for c in range(1, len(g)):
            w += mA[..., a, c, :] * g[c]
        out.append(w)
    return out


def _diffusion(grid: TorusGrid, mA: np.ndarray, x: np.ndarray) -> np.ndarray:
    """E x = -div(m A G x); m A = m D2_ppH is symmetric, so E^T = E bit for bit."""
    y = _div(grid, _times_mA(mA, _grad(grid, x)))
    return np.negative(y, out=y)


def _coefficients(
    model: MfgModel, base: MfgSolution, t1_index: int
) -> tuple[TorusGrid, np.ndarray, np.ndarray]:
    """The grid restricted to [t1, T], and on every slice of it the drift
    b = D_pH(x, Du), shape (K'+1, d, n), and m A = m D2_ppH(x, Du), shape
    (K'+1, d, d, n)."""
    grid = base.grid.restrict(t1_index)
    ham = model.hamiltonian
    coords = grid.coordinates()
    du = gradient(grid, base.u.values[t1_index:])
    m = base.m.values[t1_index:]
    K, n, d = grid.n_time, grid.n_nodes, grid.dim
    b = ham.grad_p(coords, du).reshape(K + 1, n, d)
    mA = (m[..., None, None] * ham.hess_pp(coords, du)).reshape(K + 1, n, d, d)
    return grid, np.moveaxis(b, 1, -1).copy(), np.moveaxis(mA, 1, -1).copy()


# ---------------------------------------------------------------------------
# the linearized solution
# ---------------------------------------------------------------------------


def _require_converged(base: MfgSolution) -> None:
    """Linearized solves and certificates need a solution; an operator alone does not."""
    if not base.converged:
        raise ValueError("linearization requires a converged base solution")


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


# ---------------------------------------------------------------------------
# the linearized operator
# ---------------------------------------------------------------------------


class AssembledOperator:
    """Space-time operator of the homogeneous linearized system, as stacked
    slice coefficients.

    Unknowns are stacked [v^0..v^K', mu^0..mu^K'] with one spatial block of
    n = N^d nodes per slice.  Rows are stacked the same way: the backward
    rows k = 0..K'-1 (D0 v^k + T_{k+1} v^{k+1} + B_{k+1} mu^{k+1}), the
    forward rows k = 0..K'-1 (D0 mu^{k+1} + T_k^T mu^k + E_k v^k), the
    initial rows (`initial` mu^0) and the terminal rows (v^K' + B_g mu^K'),
    with B_k = -Kf^k and B_g = -Kg the kernel blocks.

    Held: `drift` b (K'+1, d, n) and `mA` (K'+1, d, d, n) of every slice,
    the kernel blocks `kernel_f` (B_1..B_K', one `KernelFactors` stack) and
    `kernel_g`, and the initial-row block `initial` I.  Products apply the
    blocks to whole stacks at any size; the factorization and the sparse
    oracle are guarded.
    """

    def __init__(self, model: MfgModel, base: MfgSolution, t1_index: int = 0):
        grid, self.drift, self.mA = _coefficients(model, base, t1_index)
        self.grid = grid
        self.n = n = grid.n_nodes
        self.K = K = grid.n_time
        self.n_unknowns = 2 * (K + 1) * n
        self._heat = PeriodicHeatSolver(grid)
        m = base.m.values[t1_index:]
        kf = model.coupling.kernel_f(grid, m[1:])
        kg = model.coupling.kernel_g(grid, m[K])
        self.kernel_f = KernelFactors(-kf.c, -kf.U, kf.W)
        self.kernel_g = KernelFactors(-kg.c, -kg.U, kg.W)
        self.initial = 1.0

    # -- layout helpers ----------------------------------------------------
    def unstack(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        K, n = self.K, self.n
        v = x[: (K + 1) * n].reshape(K + 1, *self.grid.spatial_shape)
        mu = x[(K + 1) * n :].reshape(K + 1, *self.grid.spatial_shape)
        return v.copy(), mu.copy()

    def stack(self, v_values: np.ndarray, mu_values: np.ndarray) -> np.ndarray:
        return np.concatenate([v_values.reshape(-1), mu_values.reshape(-1)])

    # -- products, residuals, the backward sweep ------------------------------
    def matvec(self, x: np.ndarray) -> np.ndarray:
        g, K, b = self.grid, self.K, self.drift
        v, mu = x.reshape(2, K + 1, self.n)
        rows = (
            _d0(g, v[:K]) + _transport(g, b[1:], v[1:]) + self.kernel_f @ mu[1:],
            _d0(g, mu[1:]) + _transport(g, b[:K], mu[:K], True)
            + _diffusion(g, self.mA[:K], v[:K]),
            self.initial * mu[0],
            v[K] + self.kernel_g @ mu[K],
        )
        return np.concatenate([r.reshape(-1) for r in rows])

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        g, K, b = self.grid, self.K, self.drift
        Y = y.reshape(-1, self.n)
        back, fwd = Y[:K], Y[K : 2 * K]
        out = np.zeros((2, K + 1, self.n))
        ov, om = out
        # E_k is symmetric (`_diffusion`), so E^T is E
        ov[:K] += _d0(g, back) + _diffusion(g, self.mA[:K], fwd)
        ov[1:] += _transport(g, b[1:], back, True)
        ov[K] += Y[2 * K + 1]
        om[1:] += self.kernel_f.T @ back + _d0(g, fwd)
        om[:K] += _transport(g, b[:K], fwd)
        om[0] += self.initial * Y[2 * K]
        om[K] += self.kernel_g.T @ Y[2 * K + 1]
        return out.reshape(-1)

    def _residuals(self, x: np.ndarray, rhs: np.ndarray) -> dict:
        """Sup of A x - rhs per row kind, and the drift of the mass of mu."""
        K, n = self.K, self.n
        r = np.abs(self.matvec(x) - rhs).reshape(-1, n)
        mass = self.grid.cell_volume * x.reshape(-1, n)[K + 1 :].sum(axis=1)
        return {
            "backward": float(r[:K].max()),
            "forward": float(r[K : 2 * K].max()),
            "initial": float(r[2 * K].max()),
            "terminal": float(r[2 * K + 1].max()),
            "mass_drift": float(np.max(np.abs(mass - mass[0]))),
        }

    def _backward_sweep(self, x: np.ndarray) -> None:
        """v^K' .. v^0 in place from the homogeneous terminal and backward
        rows, mu held fixed: v^K' = -B_g mu^K', then v^k = -D0^-1 (T v^{k+1}
        + B mu^{k+1}) with D0^-1 = dt (I - dt Lap)^-1."""
        g, K = self.grid, self.K
        v, mu = x.reshape(2, K + 1, self.n)
        v[K] = -(self.kernel_g @ mu[K])
        coupled = self.kernel_f @ mu[1:]
        for k in range(K - 1, -1, -1):
            val = -(_transport(g, self.drift[k + 1], v[k + 1]) + coupled[k])
            rhs = (g.dt * val).reshape(g.spatial_shape)
            self._heat.apply(rhs, out=v[k].reshape(g.spatial_shape))
        _check_finite(v, "linearized backward sweep")

    # -- materialization -----------------------------------------------------
    def lu_bytes_estimate(self) -> int:
        """Bytes of the dense blocks `factorize` stores, from their shapes."""
        return 8 * TimeBlockLU.stored_entries(self.K, self.n)

    def _check_lu_size(self) -> None:
        estimate = self.lu_bytes_estimate()
        if estimate > LU_BYTES_GUARD:
            raise MemoryError(
                f"block factorization on grid {_signature(self.grid)} ({self.n_unknowns} "
                f"unknowns) needs {estimate / 2**20:.0f} MiB, over the "
                f"{LU_BYTES_GUARD / 2**20:.0f} MiB guard; use the matrix-free "
                "products instead"
            )

    def to_sparse(self) -> "scipy.sparse.csr_matrix":
        """The assembled matrix A, kernel blocks dense: an oracle for tests
        and the benchmark's references; certificates and solves use
        `factorize`.  Each block is its apply to the identity, whose row j
        is the block's column j."""
        import scipy.sparse as sp

        self._check_lu_size()
        g, K, n = self.grid, self.K, self.n
        eye = np.eye(n)
        d0 = sp.csr_matrix(_d0(g, eye).T)
        blocks = [[None] * (2 * K + 2) for _ in range(2 * K + 2)]
        for k in range(K):
            blocks[k][k] = blocks[K + k][K + 2 + k] = d0
            blocks[k][k + 1] = sp.csr_matrix(_transport(g, self.drift[k + 1], eye).T)
            blocks[k][K + 2 + k] = sp.csr_matrix(self.kernel_f[k].toarray())
            blocks[K + k][K + 1 + k] = sp.csr_matrix(_transport(g, self.drift[k], eye, True).T)
            blocks[K + k][k] = sp.csr_matrix(_diffusion(g, self.mA[k], eye).T)
        blocks[2 * K][K + 1] = sp.csr_matrix(self.initial * eye)
        blocks[2 * K + 1][K] = sp.identity(n, format="csr")
        blocks[2 * K + 1][2 * K + 1] = sp.csr_matrix(self.kernel_g.toarray())
        return sp.bmat(blocks, format="csr")

    @property
    def boundary_weight(self) -> float:
        """Row weight of the initial and terminal rows, 1/sqrt(dt)."""
        return 1.0 / math.sqrt(self.grid.dt)

    def row_scaling(self) -> np.ndarray:
        """Boundary rows weighted 1/sqrt(dt): fields measured in L2(dx dt),
        boundary data in L2(dx), equation rows in raw PDE units."""
        w = np.ones(self.n_unknowns)
        w[2 * self.K * self.n :] = self.boundary_weight
        return w

    def scaled_sparse(self) -> "scipy.sparse.csr_matrix":
        import scipy.sparse as sp

        return sp.diags(self.row_scaling()) @ self.to_sparse()

    def factorize(self) -> "TimeBlockLU":
        """The row-scaled operator D A factored by block elimination forward
        in time (`TimeBlockLU`), after the memory guard."""
        self._check_lu_size()
        return TimeBlockLU(self)

    def rhs_vector(self, a=None, b_src=None, c=None, mu0=None) -> np.ndarray:
        """The inhomogeneities of `solve_linearized` stacked in the row order,
        each zero when None; a wrong shape raises ValueError."""
        g, K = self.grid, self.K
        sshape = g.spatial_shape
        rows = (
            _shaped(a, (K + 1, *sshape))[1:],
            divergence(g, _shaped(b_src, (K + 1, *sshape, g.dim))[:K]),
            _shaped(mu0, sshape),
            _shaped(c, sshape),
        )
        return np.concatenate([r.reshape(-1) for r in rows])


class SingularSchurBlock(np.linalg.LinAlgError):
    """A Schur block of `TimeBlockLU` that is singular to working precision.

    `null_vector` is the block's right singular vector of least singular
    value.  `TimeBlockLU` adds `witness`, that vector back-substituted
    through the earlier slices by the backward recursion of its solves, and
    `factor_s`, the CPU seconds spent before the block."""

    def __init__(self, slice_index: int, rcond: float, null_vector: np.ndarray):
        super().__init__(
            f"Schur block of time slice {slice_index} is singular "
            f"(reciprocal condition number {rcond:.3g})"
        )
        self.slice_index = slice_index
        self.null_vector = null_vector
        self.witness: Optional[np.ndarray] = None
        self.factor_s = 0.0


class TimeBlockLU:
    """(D A)^-1 of the row-scaled operator by block elimination forward in
    time: what `AssembledOperator.factorize` returns.

    Slice k holds the unknowns (v^k, mu^k) and the two rows that pivot on
    them: backward row k (the terminal row at K') and forward row k-1 (the
    initial row at 0).  The operator is then block tridiagonal in time, with
    upper blocks [[T_{k+1}, B_{k+1}], [0, 0]] (B_k the kernel block of mu^k
    in backward row k-1) and lower blocks [[0, 0], [E_k, T_k^T]].  Forward
    elimination leaves Schur complements that are block lower triangular,
    D0 = I/dt - Lap on the v rows and one dense M_k on the mu rows:

        H_k = E_{k-1} D0^-1 + T_{k-1}^T P_{k-1},    M_k = D0 - H_k B_k,
        P_k = M_k^-1 H_k T_k D0^-1,

    with M_0 the scaled initial block and P_0 = 0.  At K' the terminal row
    s (v + B_g mu), s the boundary weight, pivots on v with s I; eliminating
    v adds H T_K' B_g to M_K' and makes P_K' = M_K'^-1 H T_K' / s.

    Stored, all n x n: D0^-1, M_k^-1 and P_k, (2K'+3) n^2 entries.  The
    blocks T_k, E_k and B_k are not stored: the factorization and the solves
    apply them from the operator's coefficient stacks.  While factoring, the
    gradient of D0^-1 is formed once, so E_{k-1} D0^-1 is one divergence and
    T_k D0^-1 elementwise per slice, and no temporary spans all slices of
    n x n blocks.  A solve takes p right-hand sides at once and runs two
    recursions over the slices, forward and backward in time.  A step reads
    the stored blocks its slice of the result needs, one gemm each, and
    applies T_k, T_k^T or B_k to the p-wide slice it carries (the stencils
    of the drift, the low-rank kernel factors); the products with E_k, and
    those that act on the right-hand side alone, are batched over the
    slices.  A solve so streams three stacks: M^-1 once and P twice.  The
    transposed solve carries the right-hand sides as rows, so that every
    gemm reads a stored block in its own order.
    Pivoting happens inside each n x n block (LAPACK) and nowhere else; a
    Schur block singular to working precision raises `SingularSchurBlock`.
    LAPACK and BLAS come from scipy.linalg, imported by the first
    factorization: the rest of the package runs on numpy alone.
    """

    @staticmethod
    def stored_shapes(K: int, n: int) -> dict:
        return {"d0_inv": (n, n), "m_inv": (K + 1, n, n), "p": (K + 1, n, n)}

    @staticmethod
    def stored_entries(K: int, n: int) -> int:
        return sum(math.prod(s) for s in TimeBlockLU.stored_shapes(K, n).values())

    def __init__(self, op: AssembledOperator):
        from scipy.linalg import lapack
        from scipy.linalg.blas import dgemm

        K, n = op.K, op.n
        self._lapack, self._dgemm = lapack, dgemm
        # dgetri's optimal workspace: scipy's default, 3n, makes LAPACK invert
        # a block of n > 64 in column panels of 3
        self._lwork = int(lapack.dgetri_lwork(n)[0])
        start = time.process_time()
        self.K, self.n, self.size = K, n, op.n_unknowns
        self._s = s = op.boundary_weight
        # the operator's coefficient stacks, which the solves apply as well,
        # and per-slice views of them for the recursions of the solves
        self._grid, self._mA = g, mA = op.grid, op.mA
        self._kf, self._kg = kf, kg = op.kernel_f, op.kernel_g
        b = op.drift
        self._b_k = list(b)
        self._u = list(kf.U)
        self._wt = [w.T for w in kf.W]

        shapes = self.stored_shapes(K, n)
        # D0^-1 = dt (I - dt Lap)^-1 from the heat step applied to the
        # identity (rows of the result are columns of D0^-1), symmetrized
        d0_inv = op._heat.step((g.dt * np.eye(n)).reshape(n, *g.spatial_shape))
        d0_inv = d0_inv.reshape(shapes["d0_inv"])
        self._d0_inv = d0_inv = 0.5 * (d0_inv + d0_inv.T)
        self._m_inv = m_inv = np.empty(shapes["m_inv"])
        self._p = p = np.empty(shapes["p"])
        # the Fortran-ordered transposes of the stored blocks, per slice: the
        # layout BLAS reads in place; built first, so that a factorization
        # stopped by a singular block back-substitutes through them
        self._m_inv_f = [a.T for a in m_inv]
        self._p_f = [a.T for a in p]
        self._d0_f = d0_inv.T
        d0_t = _d0(g, np.eye(n))  # D0^T: its rows are the columns of D0
        # G D0^-1 and -D0^-1/dt, the parts of E_{k-1} D0^-1 and T_k D0^-1
        # that are the same on every slice
        grad_d0 = _grad(g, d0_inv)
        d0_dt = d0_inv / -g.dt
        # One slice at a time.  A block kind applied to the rows of Y gives
        # Y times the block's transpose, so H_k^T and M_k^T come out in C
        # order and are kept so; D0^-1 is symmetric, and LAPACK returns
        # M_k^-1 in Fortran order.
        try:
            m_inv[0] = self._inverse(s * op.initial * np.eye(n), 0)
            p[0] = 0.0
            for k in range(1, K + 1):
                h_t = _div(g, _times_mA(mA[k - 1], grad_d0))  # (E_{k-1} D0^-1)^T
                np.negative(h_t, out=h_t)
                if k > 1:
                    h_t += _transport(g, b[k - 1], np.ascontiguousarray(p[k - 1].T), True)
                U, W = kf.U[k - 1], kf.W[k - 1]  # B_k
                m_t = d0_t - kf.c * h_t - W @ (U.T @ h_t)
                if k < K:
                    tr = d0_dt + grad_d0[0] * b[k, 0]  # (T_k D0^-1)^T
                    for a in range(1, g.dim):
                        tr += grad_d0[a] * b[k, a]
                    x = h_t.T @ tr.T
                else:
                    h_tk = _transport(g, b[K], np.ascontiguousarray(h_t.T), True)  # H T_K'
                    m_t += _times_rows(h_tk, kg).T
                    x = h_tk / s
                m_inv[k] = self._inverse(m_t.T, k)
                np.matmul(m_inv[k], x, out=p[k])
        except SingularSchurBlock as err:
            # the stacked unknowns, zero after slice k, that solve the homogeneous
            # rows of slices 0..k: mu^k the block's null vector, back-substituted.
            # At k = K' a null vector of the operator; before it the rows of
            # slice k+1 are left over, and matvec shows by how much.
            k = err.slice_index
            z = np.zeros((2, K + 1, n, 1))
            z[1, k, :, 0] = err.null_vector
            err.witness = self._back_substitute(z, k).reshape(-1)
            err.factor_s = time.process_time() - start
            raise
        self.factor_s = time.process_time() - start

    def _inverse(self, a: np.ndarray, slice_index: int) -> np.ndarray:
        """a^-1 through LAPACK's partially pivoted LU; a block that is singular
        to working precision raises `SingularSchurBlock` naming its time slice.

        The Schur block of slice k comes out of k elimination steps on n x n
        blocks, so it carries rounding of order (k+1) n eps relative to its
        norm; a reciprocal condition number below that cannot be told from
        zero.  (At the closed-form critical horizons of the uniform state of
        antimonotone_symmetric, theta=64, N=16, K=32, rcond of the last block
        reads anywhere from 2e-17 to 2e-14 within three ulps of a horizon, and
        1e-8 a relative 1e-9 away from it.)"""
        lapack = self._lapack
        lu, piv, info = lapack.dgetrf(a)
        rcond = lapack.dgecon(lu, np.linalg.norm(a, 1))[0] if info == 0 else 0.0
        if not rcond > (slice_index + 1) * len(a) * np.finfo(float).eps:
            raise SingularSchurBlock(slice_index, rcond, np.linalg.svd(a)[2][-1])
        return lapack.dgetri(lu, piv, lwork=self._lwork)[0]

    def solve(self, b: np.ndarray, trans: str = "N") -> np.ndarray:
        """(D A)^-1 b, or (D A)^-T b for trans="T"; b of shape (N,) or (N, p),
        whose columns are solved together."""
        cols = b.reshape(2 * (self.K + 1), self.n, -1)
        if trans == "N":
            x = self._solve(cols)
        else:
            x = np.swapaxes(self._solve_t(np.swapaxes(cols, 1, 2)), 1, 2)
        return x.reshape(b.shape)

    # The recursions below accumulate with BLAS in place: dgemm(alpha, a, b,
    # beta, c, 0, 0, 1) overwrites c with alpha a b + beta c when c is
    # Fortran-ordered, as the transpose of a C-ordered slice is.  A column
    # slice y (n, p) takes y += M x as y^T += x^T M^T, with M^T the
    # Fortran-ordered view (`_f`) of a stored block, and a row slice y (p, n)
    # takes y += x M as y^T += M^T x^T: either way BLAS reads the block in
    # its storage order.  Arguments are positional: keywords double the cost
    # of a call on small slices.

    def _solve(self, b: np.ndarray) -> np.ndarray:
        """(D A)^-1 b for b of shape (2K'+2, n, p), one (n, p) block per row
        block of the operator: the backward rows, the forward rows, the
        initial and the terminal row."""
        K, s, g, b_k, m_inv_f = self.K, self._s, self._grid, self._b_k, self._m_inv_f
        dgemm = self._dgemm
        x = np.empty((2, K + 1, self.n, b.shape[-1]))
        zv, zm = list(x[0]), list(x[1])
        # forward: zv_k = D0^-1 bv_k, t_k = c_k - E_{k-1} zv_{k-1} - T_{k-1}^T zm_{k-1}
        # and zm_k = M_k^-1 t_k + P_k bv_k, with (bv_k, c_k) the rows of slice k
        np.matmul(self._d0_inv, b[:K], out=x[0, :K])
        t = np.concatenate([b[2 * K : 2 * K + 1], b[K : 2 * K]])
        ez = _diffusion(g, self._mA[:K, None], np.ascontiguousarray(np.swapaxes(x[0, :K], 1, 2)))
        t[1:] -= np.swapaxes(ez, 1, 2)
        t = list(t)
        np.matmul(self._p[:K], b[:K], out=x[1, :K])
        np.matmul(self._p[K], b[2 * K + 1], out=zm[K])
        for k in range(K + 1):
            if k:
                t[k] -= _transport(g, b_k[k - 1], zm[k - 1].T, True).T
            dgemm(1.0, t[k].T, m_inv_f[k], 1.0, zm[k].T, 0, 0, 1)
        zv[K][...] = b[2 * K + 1] / s
        return self._back_substitute(x, K)

    def _back_substitute(self, x: np.ndarray, k: int) -> np.ndarray:
        """The backward recursion of `_solve`, in place on x (2, K'+1, n, p)
        that holds z on slices 0..k, from slice k: at k = K' the terminal row
        subtracts B_g zm_K' from zv_K', then w_{j+1} = T_{j+1} xv_{j+1} +
        B_{j+1} xm_{j+1} and x_j = z_j - (D0^-1, P_j) w_{j+1} for j < k."""
        g, b_k, kc, u, wt = self._grid, self._b_k, self._kf.c, self._u, self._wt
        p_f, d0_f, dgemm = self._p_f, self._d0_f, self._dgemm
        zv, zm = list(x[0]), list(x[1])
        if k == self.K:
            zv[k] -= _times(self._kg, zm[k])
        for j in range(k - 1, -1, -1):
            xm = zm[j + 1]
            w = _transport(g, b_k[j + 1], zv[j + 1].T).T
            w += kc * xm
            w += u[j].dot(wt[j].dot(xm))
            dgemm(-1.0, w.T, d0_f, 1.0, zv[j].T, 0, 0, 1)
            if j:
                dgemm(-1.0, w.T, p_f[j], 1.0, zm[j].T, 0, 0, 1)
        return x

    def _solve_t(self, b: np.ndarray) -> np.ndarray:
        """(D A)^-T b with the columns as rows: b of shape (2K'+2, p, n), one
        (p, n) block per unknown slot, and so is the result (its rows in the
        operator's row order).  Every product is then x^T P instead of P^T x,
        which reads each stored block in its own order, and x^T B for a block
        kind B is B^T applied to the rows."""
        K, s, g = self.K, self._s, self._grid
        b_k, kc, u, wt = self._b_k, self._kf.c, self._u, self._wt
        m_inv_f, p_f, dgemm = self._m_inv_f, self._p_f, self._dgemm
        bv, bm = b.reshape(2, K + 1, -1, self.n)
        y = np.empty((2, *bv.shape))
        yv, ym = list(y[0]), list(y[1])
        # forward: yv_k = rv_k D0^-1 + rm_k P_k with rv_k = bv_k - yv_{k-1} T_k
        # and rm_k = bm_k - yv_{k-1} B_k; at K' rv/s, and rm takes -rv B_g
        rm = list(bm.copy())
        np.matmul(bv[0], self._d0_inv, out=yv[0])
        for k in range(1, K + 1):
            yk = yv[k - 1]
            rv = bv[k] - _transport(g, b_k[k], yk, True)
            rm[k] -= kc * yk
            rm[k] -= yk.dot(u[k - 1]).dot(wt[k - 1])
            if k < K:
                rv.dot(self._d0_inv, out=yv[k])
            else:
                rm[K] -= _times_rows(rv, self._kg)
                np.divide(rv, s, out=yv[K])
            dgemm(1.0, p_f[k], rm[k].T, 1.0, yv[k].T, 0, 0, 1)
        # backward: xm_k = (rm_k - xm_{k+1} T_k^T) M_k^-1, and
        # xv_k = yv_k - (xm_{k+1} E_k) D0^-1 - (xm_{k+1} T_k^T) P_k, where
        # x E_k is E_k applied to the rows, E_k being symmetric
        dgemm(1.0, m_inv_f[K], rm[K].T, 0.0, ym[K].T, 0, 0, 1)
        for k in range(K - 1, -1, -1):
            tx = _transport(g, b_k[k], ym[k + 1])
            rm[k] -= tx
            dgemm(1.0, m_inv_f[k], rm[k].T, 0.0, ym[k].T, 0, 0, 1)
            if k:
                dgemm(-1.0, p_f[k], tx.T, 1.0, yv[k].T, 0, 0, 1)
        y[0, :K] -= _diffusion(g, self._mA[:K, None], y[1, 1:]) @ self._d0_inv
        # back to the row order: backward rows, forward rows, initial, terminal
        return np.concatenate([y[0, :K], y[1, 1:], y[1, :1], y[0, K:]])


def _times(f: KernelFactors, x: np.ndarray) -> np.ndarray:
    """(c I + U W^T) x for x of shape (..., n, p), slice by slice of a stack."""
    return f.c * x + f.U @ (np.swapaxes(f.W, -1, -2) @ x)


def _times_rows(x: np.ndarray, f: KernelFactors) -> np.ndarray:
    """x (c I + U W^T) for x of shape (..., p, n), slice by slice of a stack."""
    return f.c * x + (x @ f.U) @ np.swapaxes(f.W, -1, -2)


def assemble_operator(
    model: MfgModel, base: MfgSolution, t1_index: int = 0
) -> AssembledOperator:
    return AssembledOperator(model, base, t1_index)


# ---------------------------------------------------------------------------
# linearized solves
# ---------------------------------------------------------------------------


def solve_linearized(
    model: MfgModel,
    base: MfgSolution,
    t1_index: int = 0,
    a: Optional[np.ndarray] = None,
    b_src: Optional[np.ndarray] = None,
    c: Optional[np.ndarray] = None,
    mu0: Optional[np.ndarray] = None,
) -> LinearizedSolution:
    """The linearized system around the converged `base` on [t_{t1_index}, T],
    solved with the operator's block factorization: the one direct solve of
    the system.  Returns v, mu and the residuals of the solution; a singular
    operator raises `SingularSchurBlock`.

    Inhomogeneities, each zero by default: a sources the backward equation
    (slices 1..K'), b_src enters the forward equation as div(b_src) (slices
    0..K'-1), c shifts the terminal condition, mu0 is the initial
    perturbation.
    """
    _require_converged(base)
    op = assemble_operator(model, base, t1_index)
    rhs = op.rhs_vector(a=a, b_src=b_src, c=c, mu0=mu0)
    x = op.factorize().solve(op.row_scaling() * rhs)
    v, mu = op.unstack(x)
    return LinearizedSolution(
        v=ScalarField(op.grid, v),
        mu=ScalarField(op.grid, mu),
        residuals=op._residuals(x, rhs),
    )


def backward_response(
    model: MfgModel,
    base: MfgSolution,
    t1_index: int,
    mu_values: np.ndarray,
) -> np.ndarray:
    """Backward linear solve for v given a density direction mu, with the
    homogeneous backward and terminal rows; the base must be converged, as
    for every linearization."""
    _require_converged(base)
    op = assemble_operator(model, base, t1_index)
    x = op.stack(np.zeros_like(mu_values), mu_values)
    op._backward_sweep(x)
    return op.unstack(x)[0]


def flux_from_value_direction(
    model: MfgModel,
    base: MfgSolution,
    t1_index: int,
    v_values: np.ndarray,
    mu_values: np.ndarray,
) -> np.ndarray:
    """z = -(b mu + m A Dv) on every slice of [t1, T], with the operator's
    drift b = D_pH(x,Du) and m A = m D2_ppH(x,Du)."""
    grid, b, mA = _coefficients(model, base, t1_index)
    K, n, d = grid.n_time, grid.n_nodes, grid.dim
    dv = gradient(grid, v_values).reshape(K + 1, n, d)
    mu = mu_values.reshape(K + 1, n)
    flux = _times_mA(mA, [dv[..., c] for c in range(d)])
    z = np.stack([-(b[:, a] * mu + f_a) for a, f_a in enumerate(flux)], axis=-1)
    return z.reshape(K + 1, *grid.spatial_shape, d)


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
    iterations: int  # block inverse iteration rounds run
    converged: bool  # the iteration met its tolerance before its cap
    # |A^T A x - sigma^2 x| / sigma^2 of the final unit Ritz vector x: how
    # far (sigma, x) is from a singular pair of the scaled operator A (nan
    # when no iteration ran)
    eigen_residual: float
    lu_nnz: int  # entries the block factorization stores
    factor_s: float  # CPU seconds of the factorization
    iterate_s: float  # CPU seconds of the block inverse iteration (0 when none ran)
    cause: Optional[str] = None  # why no iteration ran: the singular block
    witness_residual: Optional[float] = None
    witness_v: Optional[np.ndarray] = field(default=None, repr=False)
    witness_mu: Optional[np.ndarray] = field(default=None, repr=False)

    def to_json(self, witness_file: Optional[str] = None) -> str:
        """Every field but the witness arrays, and the witness file's name, as
        `grid.strict_json` (a nan eigen_residual, when no iteration ran, is null)."""
        payload = {f.name: getattr(self, f.name) for f in fields(self)}
        del payload["witness_v"], payload["witness_mu"]
        return strict_json({**payload, "witness_file": witness_file})


# Columns of the block inverse iteration.  The smallest singular values of
# the scaled operator come in a tight cluster: 4 in 1D (1.122, 1.288, 1.288,
# 1.465 on the stability_monotone grid), then 5.84 four times; 8 in 2D at
# N=16, K=24 (monotone_local: 1.116 x3, 1.282, 1.282, 1.458 x3; then 5.40;
# monotone_smoothed: all 8 within 1e-4 of 1.2817, then 5.38).  A block wider
# than the cluster converges at (sigma_1/sigma_9)^2 ~ 0.04-0.06 per round; a
# width of 6 splits the 2D cluster (42 rounds on one variant of the
# benchmark's pool, and no convergence within the cap on monotone_smoothed).
BLOCK_WIDTH = 8
# Stop when |Z_0 - theta_0 (X V)_0| <= RTOL theta_0.  On the benchmark's
# certify pool this takes 8-10 rounds in 1D and 9 in 2D and leaves an
# eigen_residual of at most 2.3e-9 (1e-9 would leave 3.4e-8, and 1e-11 buys
# 1.2e-10 for one more round), and sigma_min agrees with the pool's stored
# reference values to 5.5e-12 on a 2-vCPU Intel Xeon host (three 2D values
# sit 5.00-5.49e-12 away).
RTOL = 1e-10
# Cap on the rounds; one that stops here is not converged and never
# certifies STABLE.  A well-conditioned short restriction needs more than the
# pool's 8-10: the uniform state of antimonotone_symmetric, theta=64, N=16,
# K=32, T=0.06, restricted at t1=30 (K'=2), converges at round 62 to
# sigma_min 12.154893949305121 (a dense SVD gives 12.15489395), and a cap of
# 50 left it INCONCLUSIVE with eigen_residual 1.16e-8.
MAX_ROUNDS = 100


def _block_inverse_sigma_min(lu: TimeBlockLU) -> tuple[float, np.ndarray, int, bool]:
    """Smallest singular value and right singular vector of the scaled
    operator A by subspace iteration on (A^T A)^-1 with a Rayleigh-Ritz step
    per round (Saad, Numerical Methods for Large Eigenvalue Problems, ch. 5),
    plus the rounds run and whether the smallest Ritz pair's residual met
    RTOL within MAX_ROUNDS.  A round is one transposed and one plain block
    solve with the factorization: Y = A^-T X, eigh(Y^T Y) = (theta, V) with
    theta descending, Z = A^-1 Y V = (A^T A)^-1 X V; it stops when
    |Z_0 - theta_0 (X V)_0| <= RTOL theta_0, else X = qr(Z)."""
    rng = np.random.default_rng(0)
    x = np.linalg.qr(rng.standard_normal((lu.size, min(BLOCK_WIDTH, lu.size))))[0]
    for it in range(1, MAX_ROUNDS + 1):
        y = lu.solve(x, trans="T")
        theta, v = np.linalg.eigh(y.T @ y)
        theta, v = theta[::-1], v[:, ::-1]
        ritz = x @ v[:, 0]
        z = lu.solve(y @ v)
        converged = bool(np.linalg.norm(z[:, 0] - theta[0] * ritz) <= RTOL * theta[0])
        if converged:
            break
        x = np.linalg.qr(z)[0]
    return 1.0 / math.sqrt(theta[0]), ritz, it, converged


def certify_stability(
    model: MfgModel,
    base: MfgSolution,
    t1_index: int = 0,
    tol: float = 1e-6,
) -> StabilityCertificate:
    """Certificate from sigma_min of the scaled homogeneous operator.

    STABLE requires a converged block inverse iteration with sigma_min > tol;
    otherwise its last Ritz vector is the witness, and the verdict is
    UNSTABLE-DIRECTION-FOUND when the witness's (scaled) equation residual is
    itself below tol, INCONCLUSIVE when even that cannot be certified.
    Discretization cannot prove continuum instability, so no stronger claim
    is made.

    A Schur block singular to working precision stops the factorization
    (`SingularSchurBlock`, named in `cause`).  The witness is then its null
    vector back-substituted through the earlier slices, normalized, and
    sigma_min reports that witness's scaled residual, an upper bound; the
    verdict follows the same rule, so it is never STABLE.  tol must be
    positive: at tol <= 0 every converged estimate would pass as STABLE.
    The base must be converged, as for every linearization.
    """
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    _require_converged(base)
    op = assemble_operator(model, base, t1_index)
    w = op.row_scaling()
    cert = StabilityCertificate(
        sigma_min=math.nan,
        grid_signature=_signature(op.grid),
        tolerance=tol,
        verdict="STABLE",
        method="block-inverse-iteration",
        n_unknowns=op.n_unknowns,
        t1_index=t1_index,
        iterations=0,
        converged=False,
        eigen_residual=math.nan,
        lu_nnz=TimeBlockLU.stored_entries(op.K, op.n),
        factor_s=0.0,
        iterate_s=0.0,
    )
    try:
        lu = op.factorize()
    except SingularSchurBlock as err:
        x = err.witness / np.linalg.norm(err.witness)
        ax = w * op.matvec(x)
        cert.sigma_min = float(np.linalg.norm(ax))
        cert.method, cert.cause, cert.factor_s = "singular-schur-block", str(err), err.factor_s
    else:
        start = time.process_time()
        sigma, x, cert.iterations, cert.converged = _block_inverse_sigma_min(lu)
        cert.iterate_s = time.process_time() - start
        ax = w * op.matvec(x)
        gap = op.rmatvec(w * ax) - sigma**2 * x
        cert.sigma_min, cert.factor_s = sigma, lu.factor_s
        cert.eigen_residual = float(np.linalg.norm(gap) / sigma**2)
        if cert.converged and sigma > tol:
            return cert
    resid = float(np.linalg.norm(ax))
    cert.witness_residual = resid
    cert.witness_v, cert.witness_mu = op.unstack(x)
    cert.verdict = "UNSTABLE-DIRECTION-FOUND" if resid <= tol else "INCONCLUSIVE"
    return cert


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------


# Picard runs per isolation trial, and the distance above which two
# converged runs count as distinct solutions
RUNS_PER_TRIAL = 2
DISTINCT_TOL = 1e-7


def isolation_experiment(
    model: MfgModel,
    base: MfgSolution,
    eta_list,
    trials: int,
    seed,
    damping: float = 0.5,
    tol: float = 1e-10,
    max_iter: int = 400,
) -> dict:
    """Search for distinct solutions near a (certified stable) base:
    {"eta_records", "distinct_pairs_total"}.

    Each trial fixes one initial density perturbed within eta (C0), then
    runs Picard RUNS_PER_TRIAL times from random iterates within eta of the
    base.  Distinct converged solutions (farther apart than DISTINCT_TOL) of
    that same problem inside the eta-ball around the base would falsify
    local uniqueness; each eta's record counts them.
    """
    grid = base.grid
    records = []
    total = 0
    eta_list = list(eta_list)
    rngs = iter(spawn_rngs(seed, len(eta_list) * trials * (RUNS_PER_TRIAL + 1)))
    for eta in eta_list:
        converged_runs = 0
        in_ball_total = 0
        pairs = 0
        max_pair = 0.0
        max_to_base = 0.0
        for _ in range(trials):
            rng_m0 = next(rngs)
            if eta == 0.0:
                m0_new = base.m.values[0].copy()
            else:
                m0_new = perturb_density_values(grid, base.m.values[:1], eta, rng_m0)[0]
            in_ball = []
            for r in range(RUNS_PER_TRIAL):
                rng_init = next(rngs)
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
                dist = solution_distance(run, base.u.values, base.m.values)
                if eta == 0.0 or dist <= max(5.0 * eta, 1e-6):
                    in_ball.append(run)
                    max_to_base = max(max_to_base, dist)
            in_ball_total += len(in_ball)
            for i, a in enumerate(in_ball):
                for b in in_ball[i + 1 :]:
                    d = solution_distance(a, b.u.values, b.m.values)
                    max_pair = max(max_pair, d)
                    if d > DISTINCT_TOL:
                        pairs += 1
        total += pairs
        records.append(
            {
                "eta": float(eta),
                "trials": trials,
                "runs_per_trial": RUNS_PER_TRIAL,
                "converged": converged_runs,
                "in_ball": in_ball_total,
                "distinct_pairs": pairs,
                "max_pairwise_distance": max_pair,
                "max_distance_to_base": max_to_base,
            }
        )
    return {"eta_records": records, "distinct_pairs_total": total}
