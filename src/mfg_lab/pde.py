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
(in 1D, the one symmetric matrix S they fold into).  What depends on the
whole trajectory is formed once per sweep: dt r, and a(x) from
``Hamiltonian.coefficient``, read once, since every Hamiltonian has the
form H(x, p) = a(x)|p|^2/2.  Steps write into row views of arrays
allocated once per sweep.

The forward step is written once per dimension, for the Kolmogorov sweep,
the heat flow and the continuity solve alike: m^{k+1} = heat(m^k + dt div
f^k), with the flux f^k held beside m^k in the step's input row.  The
Kolmogorov sweep fills f^k = m^k b^k at each step, `solve_continuity`
fills in f = -w before the loop, and the heat flow leaves f zero.  So the
continuity solve of w = -m b is the Kolmogorov sweep bit for bit, and the
heat flow the drift-free one.

In 1D the linear part of a step is one product with a stacked matrix.  One
buffer per sweep holds every slice's input row, and each product writes
straight into the next step's input.  A backward step writes
G u^{k+1} = u^{k+1} C into the sweep's stack of G u and its square into
the row, then multiplies [u^{k+1}, |G u^{k+1}|^2, dt r^{k+1}] by
[S; diag(-dt a/2) S; S], formed once per sweep: 3 numpy calls.  A forward
step multiplies [m^k, f^k] by [S; dt C S], cached with S, after writing
m^k b^k into the row in the Kolmogorov sweep: 2 calls.  The stacks trade
arithmetic for calls: a backward step takes about 4n^2 multiply-adds where
separate products took 2n^2, and a heat step 2n^2 for n^2.  Below about 96
nodes the saved calls win; above it the arithmetic does (one BLAS thread:
a Picard solve at n = 128 runs about 15% slower than with separate
products, at n = 64 about 13% faster).

In 2D a backward step writes the per-axis products of u^{k+1} with C into
the stack of G u, sums their squares in order, multiplies by a/2 and then
by -dt, adds u^{k+1} and then dt r^{k+1}, and solves.  A forward step
writes m^k times each drift component into the row in the Kolmogorov
sweep, differences the flux components (C^T f_0 + f_1 C), multiplies by
dt, adds m^k and solves.  A zero flux adds +-0 to m^k, which leaves its
bits.

After the last backward step the stack of G u gets G u^0, and the returned
drift is ``Hamiltonian.grad_p`` of the whole stack, one call per sweep:
the sweep differentiates u once.  The contract is bitwise: a sweep returns
the same bits as the plain loops

    u^k     = [u^{k+1}, (u^{k+1} C)^2, dt r^{k+1}] @ [S; diag(-dt a/2) S; S]  (1D)
    u^k     = heat(u^{k+1} - dt H(x, grad u^{k+1}) + dt r^{k+1})             (2D)
    b       = D_pH(x, [grad u^0, .., grad u^K])
    m^{k+1} = [m^k, f^k] @ [S; dt C S]                                      (1D)
    m^{k+1} = heat(m^k + dt div(f^k))                                       (2D)

with f^k = m^k b^k in the Kolmogorov sweep, -w^k in `solve_continuity`
and 0 in the heat flow, [..] the concatenation of the blocks,
diag(-dt a/2) S the rows of S scaled by ((-0.5 dt) a), grad, div and heat
per-slice ``@`` products with C, C^T and the heat operators, and H the
Hamiltonian's ``value``, evaluated as written (products first, then left
to right).  The 2D backward step's order gives these bits because
``value`` computes (a/2)|p|^2 the same way, and x (-dt) = -(dt x) and
y + (-z) = y - z hold exactly.  The residuals call ``value`` and the
whole-trajectory stencils of ``grid``, which stay the definition.  To
roundoff, the sweeps' products agree with the stencils, the returned drift
with `drift_field`, and the 1D stacked steps with
heat(u - dt H(x, grad u) + dt r) and heat(m^k + dt div(f^k)).

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
    """(Q, 1/(1 - dt lambda), S, [S; dt C S]) of one axis and grid shape
    (dx = 1/n), lambda the symbol of Lap on the basis Q.  In 1D S is the
    symmetric Q diag(1/(1 - dt lambda)) Q^T and [S; dt C S] the (2n x n)
    stack of the forward step, m^{k+1} = [m^k, f^k] . [S; dt C S]
    (C the difference matrix, f^k the flux); in 2D both are None."""
    q = _fourier_basis(n)
    wave = (np.arange(n) + 1) // 2
    lam = laplacian_symbol(TorusGrid(dim, n, 2))[np.ix_(*(wave,) * dim)]
    inv_symbol = 1.0 / (1.0 - dt * lam)
    if dim != 1:
        return q, _frozen(inv_symbol), None, None
    s = (q * inv_symbol) @ q.T
    s = _frozen(0.5 * (s + s.T))
    forward = np.concatenate((s, (dt * _difference_matrix(n)) @ s))
    return q, _frozen(inv_symbol), s, _frozen(forward)


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


def _check_finite(values: np.ndarray, what: str) -> None:
    if not np.isfinite(values).all():
        raise SolverError(f"{what} produced non-finite values")


def _checked(arr, shape, name: str, kind: str) -> np.ndarray:
    """arr as floats, refused with a ValueError that names the argument
    unless it has `shape` and finite entries: checked before any work."""
    arr = np.asarray(arr, dtype=float)
    if arr.shape != shape:
        raise ValueError(f"{kind} shape {arr.shape} != {shape} for {name}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{kind} {name} has non-finite entries")
    return arr


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
    coords = grid.coordinates()
    a = np.asarray(model.hamiltonian.coefficient(coords))
    sweep = _hjb_sweep_1d if grid.dim == 1 else _hjb_sweep_2d
    u, du = sweep(grid, a, source, terminal)
    return u, model.hamiltonian.grad_p(coords, np.moveaxis(du, 0, -1))


def _hjb_sweep_1d(grid: TorusGrid, a, source, terminal):
    """u and its stack of G u, shape (1, K+1, n): per step the products of
    the input row [u^{k+1}, |G u^{k+1}|^2, dt r^{k+1}] with C and with
    [S; diag(-dt a/2) S; S]."""
    K, n = grid.n_time, grid.n_space
    c = _difference_matrix(n)
    s = _heat_operators(n, grid.dt, 1)[2]
    stack = np.concatenate((s, ((-0.5 * grid.dt) * a)[..., None] * s, s))
    # row k holds u^k, |G u^k|^2 and dt r^k; the step from k writes u^{k-1}
    rows = np.empty((K + 1, 3, n))
    np.multiply(grid.dt, source, out=rows[:, 2])
    rows[K, 0] = terminal
    du = np.empty((1, K + 1, n))
    for row, u_next, sq, g, u_k in zip(
        rows.reshape(K + 1, 3 * n)[:0:-1],
        rows[:0:-1, 0],
        rows[:0:-1, 1],
        du[0, :0:-1],
        rows[-2::-1, 0],
    ):
        u_next.dot(c, g)
        np.multiply(g, g, out=sq)
        row.dot(stack, u_k)
    u = rows[:, 0].copy()
    _check_finite(u, "HJB sweep")
    u[0].dot(c, du[0, 0])  # G u^0, which no step reads
    return u, du


def _hjb_sweep_2d(grid: TorusGrid, a, source, terminal):
    """u and its stack of G u, shape (2, K+1, *spatial): per step
    |G u^{k+1}|^2 from the per-axis products, then the right-hand side and
    the heat solve."""
    heat = PeriodicHeatSolver(grid)
    c = _difference_matrix(grid.n_space)
    ct = c.T

    def sq_grad(u, out):
        """|G u|^2, the squared components summed in order (the bits of
        `models.squared_norm` of the gradient); component a of G u goes
        into out[a], a C-contiguous array of u's shape."""
        g = np.matmul(ct, u, out=out[0])
        sq = g * g
        g = u.dot(c, out[1])
        sq += g * g
        return sq

    # factors as arrays (0-d where constant): numpy multiplies by an array
    # faster than by a scalar, with the same bits
    half_a = np.asarray(0.5 * a)
    minus_dt = np.asarray(-grid.dt)
    u = np.empty((grid.n_time + 1, *grid.spatial_shape))
    u[-1] = terminal
    # G u by component; each step writes the rows of the slice it differentiates
    du = np.empty((2, *u.shape))
    # u^k from u^{k+1}, dt r^{k+1} and the rows of G u^{k+1}, k = K-1 .. 0,
    # as row views
    for u_k, u_next, dt_r, du_next in zip(
        u[-2::-1], u[:0:-1], (grid.dt * source)[:0:-1], zip(*du[:, :0:-1])
    ):
        rhs = sq_grad(u_next, du_next)
        rhs *= half_a
        rhs *= minus_dt
        rhs += u_next
        rhs += dt_r
        heat.apply(rhs, out=u_k)
    _check_finite(u, "HJB sweep")
    sq_grad(u[0], du[:, 0])  # G u^0, which no step reads
    return u, du


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
    return _checked_density(grid, _forward(grid, m0, drift=drift), "Kolmogorov sweep")


def _forward(grid: TorusGrid, m0: np.ndarray, drift=None, w=None) -> np.ndarray:
    """m of the forward step m^{k+1} = heat(m^k + dt div f^k), k = 0 .. K-1.

    Row k of one buffer holds m^k and the components of the flux f^k, and
    step k writes m^{k+1} into row k+1.  A drift b fills f^k = m^k b^k at
    step k, a flux w fills f = -w before the loop, and with neither f stays
    zero: the heat flow.  In 1D a step is the product of the row [m^k, f^k]
    with [S; dt C S]; in 2D it is heat(m^k + dt (C^T f_0^k + f_1^k C)).
    """
    K, n = grid.n_time, grid.n_space
    rows = np.zeros((K + 1, 1 + grid.dim, *grid.spatial_shape))
    rows[0, 0] = m0
    if w is not None:
        np.negative(np.moveaxis(w[:-1], -1, 1), out=rows[:-1, 1:])
    m, f = rows[:, 0], rows[:, 1:]
    if grid.dim == 1:
        stack = _heat_operators(n, grid.dt, 1)[3]
        # per step (m^k, b^k, f^k), or None where the flux is given
        fluxes = [None] * K if drift is None else zip(m[:-1], drift[:-1, :, 0], f[:-1, 0])
        for row, flux, m_next in zip(rows.reshape(K + 1, 2 * n)[:-1], fluxes, m[1:]):
            if flux is not None:
                m_k, b_k, out = flux
                np.multiply(m_k, b_k, out=out)
            row.dot(stack, m_next)
    else:
        c = _difference_matrix(n)
        ct = c.T
        heat = PeriodicHeatSolver(grid)
        dt = np.asarray(grid.dt)  # 0-d: numpy multiplies by an array faster
        # per step the components of b^k, each from one contiguous stack
        # b_a^0 .. b_a^{K-1}, or None where the flux is given
        drifts = (
            [None] * K
            if drift is None
            else zip(*np.ascontiguousarray(np.moveaxis(drift[:-1], -1, 0)))
        )
        for m_k, f_0, f_1, b_k, m_next in zip(m[:-1], f[:-1, 0], f[:-1, 1], drifts, m[1:]):
            if b_k is not None:
                np.multiply(m_k, b_k[0], out=f_0)
                np.multiply(m_k, b_k[1], out=f_1)
            rhs = ct @ f_0 + f_1.dot(c)
            rhs *= dt
            rhs += m_k
            heat.apply(rhs, m_next)
    return m.copy()


def solve_heat(grid: TorusGrid, m0: np.ndarray) -> DensityField:
    """Forward problem dm/dt - Lap m = 0, m(., t0) = m0: the forward step
    of the Kolmogorov sweep with its flux left zero, so the zero-drift
    Kolmogorov sweep bit for bit.  m0 is checked as `solve_kolmogorov`
    checks it."""
    return _checked_density(grid, _forward(grid, _checked_m0(grid, m0)), "heat flow")


def solve_continuity(
    grid: TorusGrid, w_values: np.ndarray, m0_slice: np.ndarray
) -> np.ndarray:
    """Solve dm/dt - Lap m + div(w) = 0 forward from m0_slice: the forward
    step of the Kolmogorov sweep with the flux -w filled in, so for
    w = -m b the Kolmogorov sweep bit for bit, and outputs have continuity
    residual at roundoff level.

    w_values has shape (K+1, *spatial, d), of which slices 0..K-1 feed the
    sweep; m0_slice has shape (*spatial,).  Either one misshaped or not
    finite raises a ValueError that names it.
    """
    w = _checked(
        w_values, (grid.n_time + 1, *grid.spatial_shape, grid.dim), "w_values", "flux"
    )
    m0 = _checked(m0_slice, grid.spatial_shape, "m0_slice", "initial slice")
    m = _forward(grid, m0, w=w)
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
