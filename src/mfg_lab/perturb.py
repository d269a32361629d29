"""Seeded low-frequency perturbations of densities and iterates.

All experiment randomness flows through numpy Philox generators spawned from
a single master seed, so concurrent trials are reproducible regardless of
scheduling.
"""

from __future__ import annotations

import numpy as np

from .grid import TorusGrid

__all__ = ["spawn_rngs", "low_frequency_field", "perturb_density_values"]


def spawn_rngs(seed, n: int) -> list[np.random.Generator]:
    seq = np.random.SeedSequence(seed)
    return [np.random.Generator(np.random.Philox(child)) for child in seq.spawn(n)]


# Fourier modes per axis of a low-frequency field
N_MODES = 3


def low_frequency_field(grid: TorusGrid, rng: np.random.Generator) -> np.ndarray:
    """Zero-mean random combination of the first N_MODES Fourier modes per axis."""
    coords = grid.coordinates()
    out = np.zeros(grid.spatial_shape)
    for axis in range(grid.dim):
        x = coords[axis]
        for j in range(1, N_MODES + 1):
            cj, sj = rng.standard_normal(2)
            out += cj * np.cos(2.0 * np.pi * j * x) + sj * np.sin(2.0 * np.pi * j * x)
    peak = np.max(np.abs(out))
    return out / peak if peak > 0 else out


def perturb_density_values(
    grid: TorusGrid,
    m_values: np.ndarray,
    amplitude: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """m * (1 + small low-frequency modes), clipped at 0, renormalized.

    The multiplicative field is time-independent, so the sup-over-time
    distance to m is controlled by construction; the result is rescaled so
    sup_t sup_x |out - m| matches `amplitude` to ~1%.
    """
    if amplitude == 0.0:
        return m_values.copy()
    phi = low_frequency_field(grid, rng)
    vol = grid.cell_volume
    scale = amplitude / max(float(np.max(np.abs(m_values))), 1e-12)
    for _ in range(8):
        out = np.clip(m_values * (1.0 + scale * phi), 0.0, None)
        masses = out.reshape(out.shape[0], -1).sum(axis=1) * vol
        out = out / masses.reshape(-1, *([1] * grid.dim))
        dist = float(np.max(np.abs(out - m_values)))
        if dist <= 0:
            break
        if abs(dist - amplitude) <= 0.01 * amplitude:
            break
        scale *= amplitude / dist
    return out
