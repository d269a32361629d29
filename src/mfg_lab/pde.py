"""Backward HJB and forward Kolmogorov sweeps on the torus grid.

Time scheme: backward Euler for diffusion (solved exactly per step in the
real orthonormal Fourier basis of each axis, which diagonalizes the periodic
stencil), explicit evaluation of the Hamiltonian / transport flux at the
previous-in-sweep slice.  Concretely, with G the centered gradient, div its
exact negative adjoint and Lap = div G:

backward sweep, k = K-1 .. 0:
    (I - dt Lap) u^k = u^{k+1} - dt H(x, G u^{k+1}) + dt r^{k+1}

forward sweep, k = 0 .. K-1, drift b^k = D_pH(x, G u^k):
    (I - dt Lap) m^{k+1} = m^k + dt div(m^k b^k)

Keeping the Hamiltonian term centered (no upwinding) makes the discrete
linearization of the backward equation the exact transpose of the forward
one, which the stability certificates and the variational identities rely
on.  The price is a Kolmogorov step that is not monotone: the explicit
centered transport step gives a neighbour a negative weight for every dt,
so no step-size bound keeps the density nonnegative.  What guards it is the
sweep's own sign test, which raises when a value falls below
-grid.NEG_TOL, the bound every density container holds.

Each step of a sweep is a few small dense products on one slice: the
per-axis difference matrix C (``grid.gradient`` of the identity) for G and
div, and the basis Q with the inverse heat symbol for the implicit solve
(in 1D, the one symmetric matrix S they fold into).  A step does only its
products and updates.  What depends on the whole trajectory is formed once
per sweep: for the backward sweep dt r and a(x)/2, where every
Hamiltonian has the form H(x, p) = a(x)|p|^2/2 and
``Hamiltonian.coefficient`` gives a; for the forward sweep one contiguous
stack per drift component; row views of u and m for both.  The heat solve
writes each new slice in place (``PeriodicHeatSolver.apply(rhs, out=...)``).

A backward step writes the per-axis products of u^{k+1} with C into the
sweep's stack of G u, forms |G u^{k+1}|^2 from them, summing the components
in order, multiplies it by a/2 and then by -dt, adds u^{k+1} and then
dt r^{k+1}, and solves.  After the last step the stack gets G u^0, and the
returned drift is ``Hamiltonian.grad_p`` of the whole stack, one call per
sweep: the sweep differentiates u once.  A forward step multiplies m^k by
each drift component.  In 2D it differences the products, multiplies by
dt, adds m^k and solves.  In 1D the solve is folded into the flux product,
m^k S + (m^k b^k)(dt C S), two products with S and the cached dt C S.  The
drift-free forward sweep (`solve_heat`, the heat flow that starts Picard
and fictitious play) runs the heat solves alone: a zero flux adds +-0 to
m^k, which leaves its bits.  The contract is bitwise: a sweep returns the
same bits as the plain loops

    u^k     = heat(u^{k+1} - dt H(x, grad u^{k+1}) + dt r^{k+1})
    b       = D_pH(x, [grad u^0, .., grad u^K])
    m^{k+1} = heat(m^k + dt div(m^k b^k))             (2D)
    m^{k+1} = m^k S + (m^k b^k)(dt C S)               (1D)
    m^{k+1} = heat(m^k - dt div(w^k))                 (`solve_continuity`)

with grad, div and heat per-slice ``@`` products with C, C^T and the heat
operators, and H the Hamiltonian's ``value``, evaluated as written
(products first, then left to right).  The backward step's order gives
these bits because ``value`` computes (a/2)|p|^2 the same way, and
x (-dt) = -(dt x) and y + (-z) = y - z hold exactly.  The residuals call
``value`` and the whole-trajectory stencils of ``grid``, which stay the
definition.  To roundoff, the sweeps' products agree with the stencils, the
returned drift with `drift_field`, and the folded 1D step with
heat(m^k + dt div(m^k b^k)).

The forward sweep is conservative: the heat solve leaves the constant mode
untouched and the divergence telescopes (in 1D, dt C S maps the constant
to zero, S 1 = 1 and C 1 = 0), so the discrete mass of m is preserved to
roundoff at every step.
"""

from __future__ import annotations

import functools

import numpy as np

from .grid import (
    NEG_TOL,
    DensityField,
    TorusGrid,
    divergence,
    gradient,
    laplacian,
    laplacian_symbol,
)
from .models import MfgModel

__all__ = [
    "SolverError",
    "PeriodicHeatSolver",
    "solve_hjb",
    "solve_kolmogorov",
    "solve_heat",
    "solve_continuity",
    "hjb_residual",
    "kolmogorov_residual",
    "continuity_residual",
    "drift_field",
]


class SolverError(RuntimeError):
    """Linear-solve failure or invariant violation inside a sweep."""


def _frozen(a: np.ndarray) -> np.ndarray:
    """a made read-only: the caches below hand one array to every caller."""
    a.setflags(write=False)
    return a


@functools.lru_cache(maxsize=16)
def _fourier_basis(n: int) -> np.ndarray:
    """Real orthonormal Fourier basis of one periodic axis of n nodes.

    Columns: the constant, then cos/sin pairs of wavenumbers 1..(n-1)//2,
    then the Nyquist mode (-1)^j for even n.  Column c has wavenumber
    (c + 1) // 2.  Angles are 2 pi (k j mod n) / n with k j reduced in
    integers, so every entry is accurate to the last bit.
    """
    j = np.arange(n)
    wave = (np.arange(n) + 1) // 2
    angle = 2.0 * np.pi * (np.outer(j, wave) % n) / n
    q = np.sqrt(2.0 / n) * np.where(np.arange(n) % 2 == 1, np.cos(angle), np.sin(angle))
    q[:, 0] = 1.0 / np.sqrt(n)
    if n % 2 == 0:
        q[:, -1] = (1.0 - 2.0 * (j % 2)) / np.sqrt(n)
    return _frozen(q)


@functools.lru_cache(maxsize=16)
def _difference_matrix(n: int) -> np.ndarray:
    """Per-axis centered difference C as a right factor: row i is
    ``gradient`` of the i-th unit vector, so u @ C differentiates the last
    axis of u and C^T @ u the second to last."""
    return _frozen(gradient(TorusGrid(1, n, 2), np.eye(n))[..., 0])


@functools.lru_cache(maxsize=64)
def _heat_operators(n: int, dt: float, dim: int) -> tuple:
    """(Q, 1/(1 - dt lambda), S, dt C S) of one axis and grid shape
    (dx = 1/n), lambda the symbol of Lap on the basis Q.  In 1D S is the
    symmetric Q diag(1/(1 - dt lambda)) Q^T and dt C S the flux term of the
    folded forward step (C the difference matrix); in 2D both are None."""
    q = _fourier_basis(n)
    wave = (np.arange(n) + 1) // 2
    lam = laplacian_symbol(TorusGrid(dim, n, 2))[np.ix_(*(wave,) * dim)]
    inv_symbol = 1.0 / (1.0 - dt * lam)
    if dim != 1:
        return q, _frozen(inv_symbol), None, None
    s = (q * inv_symbol) @ q.T
    s = _frozen(0.5 * (s + s.T))
    return q, _frozen(inv_symbol), s, _frozen((dt * _difference_matrix(n)) @ s)


class PeriodicHeatSolver:
    """Applies (I - dt*Lap)^(-1) exactly in the real Fourier basis; reused
    across sweeps.

    The basis Q of one axis diagonalizes the periodic stencil, so the solve
    is Q^T along each spatial axis, the inverse heat symbol, then Q.  In 1D
    the three fold into one symmetric n x n matrix.  Any leading stack is
    carried along.
    """

    def __init__(self, grid: TorusGrid):
        self.grid = grid
        self._q, self._inv_symbol, self._s, _ = _heat_operators(
            grid.n_space, grid.dt, grid.dim
        )

    def apply(self, rhs: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The solve without a finiteness check; sweeps check their whole
        trajectory once instead.  A C-contiguous ``out`` of the result's
        shape receives the result in place, with the same bits."""
        if self._s is not None:
            return rhs.dot(self._s, out)
        q = self._q
        return np.matmul(q @ ((q.T @ rhs @ q) * self._inv_symbol), q.T, out=out)

    def step(self, rhs: np.ndarray) -> np.ndarray:
        """The solve; non-finite output raises SolverError."""
        out = self.apply(rhs)
        _check_finite(out, "implicit diffusion")
        return out


def _slice_stencils(grid: TorusGrid):
    """|G u|^2, div(w) and the forward step of one slice (or a stack), as
    products with C and the heat operators.

    ``sq_grad(u, out)`` sums the squared components of G u in order, the
    bits of `models.squared_norm` of the gradient, and writes component a of
    G u into out[a] where that is a C-contiguous array of u's shape.  The
    vector fields come as their components: ``div(w)`` reads w[0], ..,
    w[d-1], and ``forward(m, b, out)`` multiplies m by each b[a] and returns
    the next forward slice, heat(m + dt div(m b)), in ``out`` when given.
    In 1D it folds the heat solve into the flux product,
    m S + (m b[0]) (dt C S); in 2D it solves.  Products on the right use
    ``ndarray.dot``, which gives the bits of ``@`` with less call overhead;
    C^T on the left keeps ``matmul``, which broadcasts over a stack where
    ``dot`` would not.
    """
    c = _difference_matrix(grid.n_space)
    if grid.dim == 1:
        _, _, s, dt_cs = _heat_operators(grid.n_space, grid.dt, 1)

        def sq_grad(u, out=(None,)):
            g = u.dot(c, out[0])
            return g * g

        def forward(m, b, out=None):
            out = m.dot(s, out)
            out += (m * b[0]).dot(dt_cs)
            return out

        return sq_grad, (lambda w: w[0].dot(c)), forward
    ct = c.T
    heat = PeriodicHeatSolver(grid)
    dt = np.asarray(grid.dt)  # 0-d: see solve_hjb

    def sq_grad(u, out=(None, None)):
        g = np.matmul(ct, u, out=out[0])
        sq = g * g
        g = u.dot(c, out[1])
        sq += g * g
        return sq

    def div(w):
        return ct @ w[0] + w[1].dot(c)

    def forward(m, b, out=None):
        rhs = ct @ (m * b[0]) + (m * b[1]).dot(c)
        rhs *= dt
        rhs += m
        return heat.apply(rhs, out)

    return sq_grad, div, forward


def _check_finite(values: np.ndarray, what: str) -> None:
    if not np.isfinite(values).all():
        raise SolverError(f"{what} produced non-finite values")


def drift_field(model: MfgModel, grid: TorusGrid, u_values: np.ndarray) -> np.ndarray:
    """D_pH(x, Du) on every time slice; shape (K+1, *spatial, d)."""
    return model.hamiltonian.grad_p(grid.coordinates(), gradient(grid, u_values))


def solve_hjb(
    model: MfgModel, grid: TorusGrid, source: np.ndarray, terminal: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Backward problem -du/dt - Lap u + H(x, Du) = r, u(., T) = terminal.

    source r has shape (K+1, *spatial), of which slices 1..K feed the sweep;
    terminal has shape (*spatial,).  Returns the value u, shape
    (K+1, *spatial), and the drift D_pH(x, Du) it induces on every slice,
    shape (K+1, *spatial, d), which the forward leg plays; Du is the
    sweep's own per-slice gradient products.
    """
    source = np.asarray(source, dtype=float)
    if source.shape != (grid.n_time + 1, *grid.spatial_shape):
        raise ValueError("source shape mismatch")
    if np.shape(terminal) != grid.spatial_shape:
        raise ValueError("terminal shape mismatch")
    heat = PeriodicHeatSolver(grid)
    sq_grad, _, _ = _slice_stencils(grid)
    K, dt, coords = grid.n_time, grid.dt, grid.coordinates()
    # factors as arrays (0-d where constant): numpy multiplies by an array
    # faster than by a scalar, with the same bits
    half_a = np.asarray(0.5 * model.hamiltonian.coefficient(coords))
    minus_dt = np.asarray(-dt)

    u = np.empty((K + 1, *grid.spatial_shape))
    u[K] = terminal
    # G u by component; each step writes the rows of the slice it differentiates
    du = np.empty((grid.dim, *u.shape))
    dt_source = dt * source
    # u^k from u^{k+1}, dt r^{k+1} and the rows of G u^{k+1}, k = K-1 .. 0,
    # as row views
    for u_k, u_next, dt_r, du_next in zip(
        u[-2::-1], u[:0:-1], dt_source[:0:-1], zip(*du[:, :0:-1])
    ):
        rhs = sq_grad(u_next, du_next)
        rhs *= half_a
        rhs *= minus_dt
        rhs += u_next
        rhs += dt_r
        heat.apply(rhs, out=u_k)
    _check_finite(u, "HJB sweep")
    sq_grad(u[0], du[:, 0])  # G u^0, which no step reads
    return u, model.hamiltonian.grad_p(coords, np.moveaxis(du, 0, -1))


def _checked_m0(grid: TorusGrid, m0) -> np.ndarray:
    """m0 as a float array of spatial shape, finite, nonnegative and of unit
    mass; ValueError otherwise."""
    m0 = np.asarray(m0, dtype=float)
    if m0.shape != grid.spatial_shape:
        raise ValueError("m0 shape mismatch")
    if not np.isfinite(m0).all():  # NaN passes the sign and mass tests
        raise ValueError("m0 must be finite")
    if m0.min() < 0:
        raise ValueError("m0 must be nonnegative")
    mass = grid.cell_volume * m0.sum()
    if abs(mass - 1.0) > 1e-12:
        raise ValueError(f"m0 mass {mass} != 1")
    return m0


def _checked_density(grid: TorusGrid, m: np.ndarray, what: str) -> DensityField:
    """A forward sweep's output, finite and above -NEG_TOL; SolverError
    otherwise."""
    _check_finite(m, what)  # before the sign test, which NaN passes
    low = float(m.min())
    if low < -NEG_TOL:
        raise SolverError(f"density went negative: min = {low:.3e}")
    return DensityField(grid, m)


def solve_kolmogorov(grid: TorusGrid, drift: np.ndarray, m0: np.ndarray) -> DensityField:
    """Forward problem dm/dt - Lap m - div(m b) = 0, m(., t0) = m0.

    drift b has shape (K+1, *spatial, d), of which slices 0..K-1 feed the
    sweep; m0 has shape (*spatial,), is finite, nonnegative and has unit
    mass.
    """
    drift = np.asarray(drift, dtype=float)
    if drift.shape != (grid.n_time + 1, *grid.spatial_shape, grid.dim):
        raise ValueError("drift shape mismatch")
    m0 = _checked_m0(grid, m0)
    if not np.all(np.isfinite(drift)):
        raise ValueError("drift must be finite")
    _, _, forward = _slice_stencils(grid)
    # one contiguous stack per drift component, b_a^0 .. b_a^{K-1}
    components = np.ascontiguousarray(np.moveaxis(drift[:-1], -1, 0))
    m = np.empty((grid.n_time + 1, *grid.spatial_shape))
    m[0] = m0
    # m^{k+1} from m^k and the components of b^k, k = 0 .. K-1, as row views
    for m_k, m_next, b_k in zip(m[:-1], m[1:], zip(*components)):
        forward(m_k, b_k, m_next)
    return _checked_density(grid, m, "Kolmogorov sweep")


def solve_heat(grid: TorusGrid, m0: np.ndarray) -> DensityField:
    """Forward problem dm/dt - Lap m = 0, m(., t0) = m0: the Kolmogorov
    sweep under a zero drift, whose flux adds only +-0, so the same bits
    from the heat steps alone.  m0 is checked as `solve_kolmogorov` checks
    it."""
    heat = PeriodicHeatSolver(grid)
    m = np.empty((grid.n_time + 1, *grid.spatial_shape))
    m[0] = _checked_m0(grid, m0)
    for m_k, m_next in zip(m[:-1], m[1:]):
        heat.apply(m_k, out=m_next)
    return _checked_density(grid, m, "heat flow")


def solve_continuity(
    grid: TorusGrid, w_values: np.ndarray, m0_slice: np.ndarray
) -> np.ndarray:
    """Solve dm/dt - Lap m + div(w) = 0 forward with the scheme's stencils.

    Same staggering as the Kolmogorov sweep (flux at the old slice, diffusion
    implicit), so outputs have continuity residual at roundoff level.
    """
    heat = PeriodicHeatSolver(grid)
    _, div, _ = _slice_stencils(grid)
    K, dt = grid.n_time, grid.dt
    # components on the leading axis; indexing raises if w has too few slices
    w_comps = np.moveaxis(w_values, -1, 0)
    m = np.empty((K + 1, *grid.spatial_shape))
    m[0] = np.asarray(m0_slice, dtype=float)
    for k in range(K):
        heat.apply(m[k] - dt * div(w_comps[:, k]), out=m[k + 1])
    _check_finite(m, "continuity sweep")
    return m


# ---------------------------------------------------------------------------
# residuals (same stencils as the solvers)
# ---------------------------------------------------------------------------


def hjb_residual(
    model: MfgModel, grid: TorusGrid, u_values: np.ndarray, source: np.ndarray
) -> float:
    """Sup over steps of the discrete backward defect of u under source r."""
    coords = grid.coordinates()
    u_old, u_new = u_values[:-1], u_values[1:]
    defect = (
        -(u_new - u_old) / grid.dt
        - laplacian(grid, u_old)
        + model.hamiltonian.value(coords, gradient(grid, u_new))
        - source[1:]
    )
    return float(np.max(np.abs(defect)))


def kolmogorov_residual(
    grid: TorusGrid, m_values: np.ndarray, drift: np.ndarray
) -> float:
    """Sup over steps of the discrete forward defect of m under drift b: the
    continuity defect of the flux w = -m b."""
    return continuity_residual(grid, m_values, -m_values[..., None] * drift)


def continuity_residual(
    grid: TorusGrid, m_values: np.ndarray, w_values: np.ndarray
) -> float:
    """Sup over steps of dm/dt - Lap m + div(w) in the scheme's staggering."""
    m_old, m_new = m_values[:-1], m_values[1:]
    defect = (
        (m_new - m_old) / grid.dt
        - laplacian(grid, m_new)
        + divergence(grid, w_values[:-1])
    )
    return float(np.max(np.abs(defect)))
