"""Solver verification drivers: manufactured backward solution and the exact
heat-flow reference for the forward solver.

Used by the convergence-study experiment; the acceptance suite reuses the
same drivers and checks the fitted orders.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import TorusGrid, l2_norm, write_lines
from .models import builtin_quadratic
from .pde import solve_hjb, solve_kolmogorov

__all__ = [
    "manufactured_hjb_error",
    "heat_flow_error",
    "spatial_order_fit",
    "ConvergenceStudy",
    "run_convergence_study",
]


def manufactured_hjb_error(n_space: int, n_time: int) -> float:
    """Sup error of the backward sweep against u*(x,t) = cos(2 pi x)(T - t)
    on [0, T], T = 0.25.

    The source is the analytic defect of u* under -d_t u - Lap u + |Du|^2/2,
    so the discrete error is pure scheme truncation, O(dt + dx^2).
    """
    T = 0.25
    model = builtin_quadratic(0.0, coupling="none", T=T)
    grid = model.make_grid(n_space, n_time)
    x = grid.axis_coordinates()
    times = grid.times

    def exact(t):
        return np.cos(2.0 * np.pi * x) * (T - t)

    source = np.stack(
        [
            np.cos(2.0 * np.pi * x) * (1.0 + 4.0 * math.pi**2 * (T - t))
            + 2.0 * math.pi**2 * np.sin(2.0 * np.pi * x) ** 2 * (T - t) ** 2
            for t in times
        ]
    )
    u, _ = solve_hjb(model, grid, source, np.zeros(n_space))
    exact_field = np.stack([exact(t) for t in times])
    return float(np.max(np.abs(u - exact_field)))


def heat_flow_error(
    n_space: int, n_time: int, horizon: float = 0.25
) -> tuple[float, float]:
    """(final-slice l2 error vs the exact Fourier decay, max mass defect) of
    the forward solver with zero drift and m0 = 1 + cos(2 pi x)/2."""
    grid = TorusGrid(1, n_space, n_time, 0.0, horizon)
    x = grid.axis_coordinates()
    m0 = 1.0 + 0.5 * np.cos(2.0 * np.pi * x)
    drift = np.zeros((n_time + 1, n_space, 1))
    res = solve_kolmogorov(grid, drift, m0)
    exact_T = 1.0 + 0.5 * math.exp(-4.0 * math.pi**2 * horizon) * np.cos(
        2.0 * np.pi * x
    )
    err = l2_norm(grid, res.values[-1] - exact_T)
    mass_defect = float(np.max(np.abs(res.mass() - 1.0)))
    return err, mass_defect


def spatial_order_fit(n_list, errors) -> float:
    """Least-squares slope of log(err) against log(dx), over at least two
    distinct resolutions."""
    if len(set(n_list)) < 2:
        raise ValueError(f"an order fit needs two distinct resolutions, got {list(n_list)!r}")
    logs_dx = np.log([1.0 / n for n in n_list])
    logs_e = np.log(errors)
    return float(np.polyfit(logs_dx, logs_e, 1)[0])


@dataclass
class ConvergenceStudy:
    n_list: list
    k_list: list
    hjb_errors: list
    spatial_order: float
    heat_l2_error: float
    heat_mass_defect: float

    def to_csv(self, path) -> None:
        lines = ["n_space,n_time,hjb_sup_error"]
        for n, k, e in zip(self.n_list, self.k_list, self.hjb_errors):
            lines.append(f"{n},{k},{e!r}")
        write_lines(path, lines)


def run_convergence_study(
    n_list=(32, 64, 128),
    heat_n: int = 64,
    heat_k: int = 256,
    heat_horizon: float = 0.25,
) -> ConvergenceStudy:
    """Manufactured-solution refinement with n_time tied to n_space^2 so the
    first-order time error refines with the second-order spatial one."""
    n_list = list(n_list)
    k_list = [max(4, n * n // 4) for n in n_list]
    errors = [manufactured_hjb_error(n, k) for n, k in zip(n_list, k_list)]
    heat_err, heat_mass = heat_flow_error(heat_n, heat_k, heat_horizon)
    return ConvergenceStudy(
        n_list=n_list,
        k_list=k_list,
        hjb_errors=errors,
        spatial_order=spatial_order_fit(n_list, errors),
        heat_l2_error=heat_err,
        heat_mass_defect=heat_mass,
    )
