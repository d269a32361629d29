"""Backward HJB and forward Kolmogorov sweeps on the torus grid.

Time scheme: backward Euler for diffusion (solved exactly per step through
the real-FFT diagonalization of the periodic stencil), explicit evaluation of
the Hamiltonian / transport flux at the previous-in-sweep slice.  Concretely,
with G the centered gradient, div its exact negative adjoint and Lap = div G:

backward sweep, k = K-1 .. 0:
    (I - dt Lap) u^k = u^{k+1} - dt H(x, G u^{k+1}) + dt r^{k+1}

forward sweep, k = 0 .. K-1, drift b^k = D_pH(x, G u^k):
    (I - dt Lap) m^{k+1} = m^k + dt div(m^k b^k)

Keeping the Hamiltonian term centered (no upwinding) makes the discrete
linearization of the backward equation the exact transpose of the forward
one, which the stability certificates and the variational identities rely
on; monotonicity is instead recovered through a step-size restriction
dt <= dx^2 / (2 d + dx max|b|), reported as a quality flag rather than
enforced.

The forward sweep is conservative: the FFT solve leaves the zero mode
untouched and the divergence telescopes, so the discrete mass of m is
preserved to roundoff at every step.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .grid import (
    DensityField,
    ScalarField,
    TorusGrid,
    divergence,
    gradient,
    laplacian,
    laplacian_symbol,
)
from .models import MfgModel

__all__ = [
    "HjbProblem",
    "KolmogorovProblem",
    "HjbResult",
    "KolmogorovResult",
    "SolverError",
    "PeriodicHeatSolver",
    "solve_hjb",
    "solve_kolmogorov",
    "solve_continuity",
    "hjb_residual",
    "kolmogorov_residual",
    "continuity_residual",
    "kolmogorov_step_limit",
]

NEG_DENSITY_ERROR = -1e-10


class SolverError(RuntimeError):
    """Linear-solve failure or invariant violation inside a sweep."""


@functools.lru_cache(maxsize=64)
def _heat_symbol(grid: TorusGrid, dt: float) -> np.ndarray:
    """Symbol of I - dt*Lap on the half spectrum of the real FFT (last axis)."""
    return 1.0 - dt * laplacian_symbol(grid)[..., : grid.n_space // 2 + 1]


class PeriodicHeatSolver:
    """Applies (I - dt*Lap)^(-1) exactly via the real FFT; reused across sweeps.

    The last spatial axis goes through rfft/irfft, the other spatial axes
    (2D) through a complex FFT; any leading stack is carried along.
    """

    def __init__(self, grid: TorusGrid, dt: float | None = None):
        self.grid = grid
        self.dt = grid.dt if dt is None else dt
        self._denom = _heat_symbol(grid, self.dt)
        self._complex_axes = grid.spatial_axes[:-1]

    def step(self, rhs: np.ndarray) -> np.ndarray:
        spec = np.fft.rfft(rhs, axis=-1)
        for axis in self._complex_axes:
            spec = np.fft.fft(spec, axis=axis)
        spec /= self._denom
        for axis in self._complex_axes:
            spec = np.fft.ifft(spec, axis=axis)
        out = np.fft.irfft(spec, n=self.grid.n_space, axis=-1)
        if not np.isfinite(out).all():
            raise SolverError("implicit diffusion produced non-finite values")
        return out


@dataclass
class HjbProblem:
    """Backward problem -du/dt - Lap u + H(x,Du) = r, u(.,T) = terminal."""

    model: MfgModel
    grid: TorusGrid
    source: np.ndarray  # (K+1, *spatial); slices 1..K feed the sweep
    terminal: np.ndarray  # (*spatial,)

    def __post_init__(self):
        self.source = np.asarray(self.source, dtype=float)
        self.terminal = np.asarray(self.terminal, dtype=float)
        if self.source.shape != (self.grid.n_time + 1, *self.grid.spatial_shape):
            raise ValueError("source shape mismatch")
        if self.terminal.shape != self.grid.spatial_shape:
            raise ValueError("terminal shape mismatch")


@dataclass
class KolmogorovProblem:
    """Forward problem dm/dt - Lap m - div(m b) = 0, m(.,t0) = m0."""

    grid: TorusGrid
    drift: np.ndarray  # (K+1, *spatial, d); slices 0..K-1 feed the sweep
    m0: np.ndarray  # (*spatial,)

    def __post_init__(self):
        self.drift = np.asarray(self.drift, dtype=float)
        self.m0 = np.asarray(self.m0, dtype=float)
        g = self.grid
        if self.drift.shape != (g.n_time + 1, *g.spatial_shape, g.dim):
            raise ValueError("drift shape mismatch")
        if self.m0.shape != g.spatial_shape:
            raise ValueError("m0 shape mismatch")
        if not np.all(np.isfinite(self.drift)):
            raise ValueError("drift must be finite")
        if self.m0.min() < 0:
            raise ValueError("m0 must be nonnegative")
        mass = g.cell_volume * self.m0.sum()
        if abs(mass - 1.0) > 1e-12:
            raise ValueError(f"m0 mass {mass} != 1")


@dataclass
class HjbResult:
    u: ScalarField
    drift: np.ndarray  # D_pH(x, Du) on every slice, the forward leg's drift
    dt_drift_lipschitz: float  # dt * Lip(D_pH(., Du)); > 1 flags CFL quality
    warnings: list = field(default_factory=list)


@dataclass
class KolmogorovResult:
    m: DensityField
    min_value: float
    step_size_ok: bool
    warnings: list = field(default_factory=list)


def solve_hjb(problem: HjbProblem) -> HjbResult:
    grid = problem.grid
    model = problem.model
    coords = grid.coordinates()
    heat = PeriodicHeatSolver(grid)
    K, dt = grid.n_time, grid.dt

    u = np.empty((K + 1, *grid.spatial_shape))
    u[K] = problem.terminal
    for k in range(K - 1, -1, -1):
        du = gradient(grid, u[k + 1])
        ham = model.hamiltonian.value(coords, du)
        rhs = u[k + 1] - dt * ham + dt * problem.source[k + 1]
        u[k] = heat.step(rhs)
    if not np.all(np.isfinite(u)):
        raise SolverError("HJB sweep produced non-finite values")

    # CFL-quality indicator: dt * Lipschitz constant of the induced drift
    b = model.hamiltonian.grad_p(coords, gradient(grid, u))
    lip = float(np.max(np.abs(gradient(grid, np.moveaxis(b, -1, 0)))))
    warns = []
    if dt * lip > 1.0:
        warns.append(f"hjb cfl quality: dt*Lip(drift) = {dt * lip:.3g} > 1")
    return HjbResult(
        u=ScalarField(grid, u), drift=b, dt_drift_lipschitz=dt * lip, warnings=warns
    )


def kolmogorov_step_limit(grid: TorusGrid, drift: np.ndarray) -> float:
    """Step bound dx^2 / (2 d + dx max|b|) for monotone transport quality."""
    bmax = float(np.max(np.abs(drift))) if drift.size else 0.0
    return grid.dx**2 / (2.0 * grid.dim + grid.dx * bmax)


def solve_kolmogorov(problem: KolmogorovProblem) -> KolmogorovResult:
    grid = problem.grid
    heat = PeriodicHeatSolver(grid)
    K, dt = grid.n_time, grid.dt

    warns = []
    limit = kolmogorov_step_limit(grid, problem.drift)
    ok = dt <= limit
    if not ok:
        warns.append(
            f"kolmogorov step size: dt = {dt:.3g} exceeds monotone bound {limit:.3g}"
        )

    m = np.empty((K + 1, *grid.spatial_shape))
    m[0] = problem.m0
    for k in range(K):
        w = m[k][..., None] * problem.drift[k]
        rhs = m[k] + dt * divergence(grid, w)
        m[k + 1] = heat.step(rhs)
    low = float(m.min())
    if low < NEG_DENSITY_ERROR:
        raise SolverError(f"density went negative: min = {low:.3e}")
    return KolmogorovResult(
        m=DensityField(grid, m), min_value=low, step_size_ok=ok, warnings=warns
    )


def solve_continuity(
    grid: TorusGrid, w_values: np.ndarray, m0_slice: np.ndarray
) -> np.ndarray:
    """Solve dm/dt - Lap m + div(w) = 0 forward with the scheme's stencils.

    Same staggering as the Kolmogorov sweep (flux at the old slice, diffusion
    implicit), so outputs have continuity residual at roundoff level.
    """
    heat = PeriodicHeatSolver(grid)
    K, dt = grid.n_time, grid.dt
    m = np.empty((K + 1, *grid.spatial_shape))
    m[0] = np.asarray(m0_slice, dtype=float)
    for k in range(K):
        m[k + 1] = heat.step(m[k] - dt * divergence(grid, w_values[k]))
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
