"""Fictitious play: best responses against the running average density.

Each round solves the backward problem against the current average belief
mu^n, plays the induced forward flow from the fixed initial density, and
updates the belief by the averaging rule

    mu^{n+1} = n/(n+1) mu^n + 1/(n+1) m^{n+1}.

The average is stored as a running sum divided on read, so the unrolled
identity mu^n = (1/n) sum_k m^k holds to rounding regardless of n, and
||mu^{n+1} - mu^n|| = gap_n / (n+1) exactly with gap_n = ||m^{n+1} - mu^n||.

Each round is one `mfg.best_response` against mu^n, the map Picard iterates
too.  Fixed points are discrete MFG solutions: a round with zero gap is a
Picard fixed point, and the returned pair is the last round's record with
the same residual diagnostics as the direct solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .grid import TorusGrid, max_slice_l2_norm, write_lines
from .mfg import (
    BestResponse,
    MfgSolution,
    _package_solution,
    best_response,
    heat_flow_of_initial,
    solution_distance,
)
from .models import MfgModel
from .pde import SolverError
from .perturb import perturb_density_values, spawn_rngs

__all__ = [
    "FpState",
    "FpTrace",
    "fp_start",
    "fp_step",
    "run_fp",
    "local_attractor_experiment",
]


@dataclass
class FpState:
    """Iteration count, running sum of played flows, and the last round."""

    model: MfgModel
    grid: TorusGrid
    m0: np.ndarray
    mu0: np.ndarray  # initial belief; weight 0 in every average
    n: int = 0
    sum_m: np.ndarray | None = None
    last: BestResponse | None = None  # the round played against mu^(n-1)

    @property
    def mu(self) -> np.ndarray:
        if self.n == 0:
            return self.mu0
        return self.sum_m / self.n


def fp_start(model: MfgModel, grid: TorusGrid, mu0=None) -> FpState:
    m0_slice = model.initial_density_slice(grid)
    if mu0 is None:
        mu0 = heat_flow_of_initial(model, grid, m0_slice)
    mu0 = np.asarray(mu0, dtype=float)
    if mu0.shape != (grid.n_time + 1, *grid.spatial_shape):
        raise ValueError("mu0 shape mismatch")
    if not np.isfinite(mu0).all():
        raise ValueError("mu0 must be finite")
    return FpState(model=model, grid=grid, m0=m0_slice, mu0=mu0)


def fp_step(state: FpState) -> FpState:
    """One round: best response to mu^n, play it, average it in."""
    played = best_response(state.model, state.grid, state.mu, state.m0)
    sum_m = played.m.copy() if state.sum_m is None else state.sum_m + played.m
    return replace(state, n=state.n + 1, sum_m=sum_m, last=played)


@dataclass
class FpTrace:
    gaps: list
    mu_step_norms: list  # ||mu^{n+1} - mu^n||, same norm as the gap
    errors: list  # vs reference, when given
    n_iterations: int
    converged: bool
    final: MfgSolution

    def to_csv(self, path) -> None:
        """Columns n, gap_n, mu_step, err_n, plus final residuals in a header
        comment; rows are decimated past 50 to every 10th iterate."""
        lines = [
            "# residuals: "
            + " ".join(f"{k}={v:.6e}" for k, v in self.final.residuals.items()),
            "n,gap,mu_step,err",
        ]
        for i, g in enumerate(self.gaps):
            if i >= 50 and (i + 1) % 10 != 0 and i != len(self.gaps) - 1:
                continue
            err = repr(self.errors[i]) if self.errors else ""
            lines.append(f"{i},{g!r},{self.mu_step_norms[i]!r},{err}")
        write_lines(path, lines)


def run_fp(
    model: MfgModel,
    grid: TorusGrid,
    mu0=None,
    n_max: int = 500,
    gap_tol: float = 0.0,
    reference: Optional[MfgSolution] = None,
) -> FpTrace:
    """Iterate fp_step until gap_n <= gap_tol or n_max rounds.

    Non-convergence is data, not an error.  With a reference solution the
    per-round error ||u^n - u||_{C^{1,0}} + ||m^n - m||_sup is recorded
    (`mfg.solution_distance` of the reference to the round's (u^n, m^n)).
    """
    if n_max < 1:
        raise ValueError(f"n_max must be at least 1, got {n_max}")
    state = fp_start(model, grid, mu0=mu0)
    gaps, steps, errors = [], [], []
    converged = False
    for _ in range(n_max):
        mu_before = state.mu.copy()
        state = fp_step(state)
        played = state.last
        gaps.append(played.gap)
        steps.append(max_slice_l2_norm(grid, state.mu - mu_before))
        if reference is not None:
            errors.append(solution_distance(reference, played.u, played.m))
        if played.gap <= gap_tol:
            converged = True
            break
    return FpTrace(
        gaps=gaps,
        mu_step_norms=steps,
        errors=errors,
        n_iterations=state.n,
        converged=converged,
        final=_package_solution(model, grid, state.last, state.n, converged, []),
    )


def local_attractor_experiment(
    model: MfgModel,
    grid: TorusGrid,
    stable_ref: MfgSolution,
    delta_list,
    trials: int,
    seed,
    n_max: int = 300,
    success_err: float = 5e-4,
) -> dict:
    """Basin probe around a certified-stable equilibrium: {"records",
    "failures"}, one record per delta.

    For each delta, fictitious play starts from beliefs within sup-distance
    delta of the reference flow; a trial succeeds when the final error is
    below success_err.  The tail-monotonicity flag records whether err_n
    was non-increasing (within 5%) over the last third of the rounds.  A
    trial whose run raises SolverError (a density gone negative, say) has
    failed: it is neither a success nor eventually monotone, and it goes to
    `failures` as {"delta", "trial", "cause"}.
    """
    deltas = list(delta_list)
    rngs = iter(spawn_rngs(seed, len(deltas) * trials))
    records = []
    failures = []
    for delta in deltas:
        successes = 0
        monotone_flags = []
        final_errors = []
        for trial in range(trials):
            rng = next(rngs)
            if delta == 0.0:
                mu0 = stable_ref.m.values.copy()
            else:
                mu0 = perturb_density_values(grid, stable_ref.m.values, delta, rng)
            try:
                trace = run_fp(
                    model, grid, mu0=mu0, n_max=n_max, gap_tol=0.0, reference=stable_ref
                )
            except SolverError as err:
                failures.append({"delta": float(delta), "trial": trial, "cause": str(err)})
                monotone_flags.append(False)
                continue
            err_final = trace.errors[-1]
            final_errors.append(err_final)
            if err_final <= success_err:
                successes += 1
            tail = trace.errors[-max(2, len(trace.errors) // 3) :]
            monotone_flags.append(
                all(b <= a * 1.05 for a, b in zip(tail, tail[1:]))
            )
        records.append(
            {
                "delta": float(delta),
                "trials": trials,
                "success_rate": successes / trials,
                "max_final_error": max(final_errors, default=math.inf),
                "eventually_monotone_fraction": sum(monotone_flags) / trials,
            }
        )
    return {"records": records, "failures": failures}
