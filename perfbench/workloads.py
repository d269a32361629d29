"""The three benchmark workloads: inputs, one task, and its output check.

Every workload is a closed loop of independent tasks.  A task's inputs come
only from its own generator (``spawn_rngs(seed, MAX_TASKS)[i]``, run.py) and
its index ``i``, the package receives nothing but those inputs, and
``check`` decides whether the outputs are correct.  ``run`` holds exactly the
calls into the package that the task time measures; input generation and
checks stay outside it.

Why each workload exists, and which layer each one exercises or bypasses,
is written down in ``perfbench/README.md``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from mfg_lab.grid import TorusGrid
from mfg_lab.mfg import solve_picard
from mfg_lab.models import builtin_quadratic
from mfg_lab.nonuniqueness import make_branch_pair
from mfg_lab.perturb import perturb_density_values
from mfg_lab.potential import AdmissiblePair, evaluate_J
from mfg_lab.stability import certify_stability

REFERENCE_FILE = Path(__file__).with_name("certify_reference.json")

# certify draws its bases from a fixed pool so that every sigma_min can be
# checked against a value stored with the benchmark (make_reference.py)
CERTIFY_POOL_SEED = 20161206
CERTIFY_POOL = 16
CERTIFY_T1 = (0, 3, 8, 16)
SIGMA_RTOL = 1e-6

# branch_pair_1d: THETA_RANGE is cut into len(THETA_STRATA) equal strata, and
# task i draws theta uniformly from stratum THETA_STRATA[i % 5], so every
# theta is still U[48, 72] over a cycle of tasks and the five or so tasks of a
# 30 s run cover the range evenly.  Task time falls by about 15% from theta 48
# to 72, and with independent draws a run's median followed the thetas its
# seed happened to draw.  The cycle starts in the middle stratum, so the sixth
# task of a run, which the faster runs reach, has a middle theta too.
THETA_RANGE = (48.0, 72.0)
THETA_STRATA = (2, 0, 4, 1, 3)

# host_sensitivity (each workload class): the power of the host speed around
# a task (calibration.py) that its CPU seconds are multiplied by.  Chosen from
# {0.5, 1} on three sets of ten 30 s runs per workload, by the quartile spread
# of the run medians over seeds (unscaled -> 0.5 -> 1, per set):
#   picard_1d       0.072/0.203/0.218 -> 0.051/0.138/0.129 -> 0.050/0.032/0.035
#   branch_pair_1d  0.075/0.102/0.229 -> 0.015/0.085/0.089 -> 0.140/0.059/0.086
#   certify         0.103/0.063/0.091 -> 0.049/0.050/0.048 -> 0.101/0.059/0.106
# A picard_1d task takes about a second, so the gauge on either side of it
# sees the conditions it ran in; the gauge next to a 5-10 s task sees only
# its ends, and the full correction overshoots.


def perturbed_m0(model, grid, rng, amplitude=0.05):
    """The model's m0 times (1 + low-frequency noise), renormalised."""
    m0 = model.initial_density_slice(grid)
    return perturb_density_values(grid, m0[None], amplitude, rng)[0]


def _shape(grid, t1=0):
    """dim, N, K and unknown count of the coupled system on [t_t1, T]."""
    K = grid.n_time - t1
    return {"dim": grid.dim, "N": grid.n_space, "K": K, "t1": t1,
            "n_unknowns": 2 * (K + 1) * grid.n_nodes}


class PicardWorkload:
    """solve_picard on monotone_local (the solve_monotone grid), then J."""

    name = "picard_1d"
    host_sensitivity = 1.0

    def __init__(self):
        self.model = builtin_quadratic(coupling="monotone_local", m0="cosine", T=0.5)
        self.grid = self.model.make_grid(64, 128)

    def shapes(self):
        return [_shape(self.grid)]

    def make_inputs(self, rng, task):
        return {"model": self.model, "m0": perturbed_m0(self.model, self.grid, rng)}

    def run(self, inp):
        sol = solve_picard(
            inp["model"], self.grid, m0=inp["m0"], damping=0.5, tol=1e-10, max_iter=400
        )
        return sol, evaluate_J(inp["model"], AdmissiblePair.from_solution(sol))

    def check(self, inp, out):
        sol, jb = out
        mass_defect = float(np.max(np.abs(sol.m.mass() - 1.0)))
        return (
            sol.converged
            and all(v <= 1e-9 for v in sol.residuals.values())
            and mass_defect <= 1e-12
            and float(sol.m.values.min()) >= 0.0
            and jb.finite
            and math.isfinite(jb.total)
        )


class BranchPairWorkload:
    """make_branch_pair for antimonotone_symmetric, theta ~ U[48, 72] (stratified)."""

    name = "branch_pair_1d"
    host_sensitivity = 0.5

    def __init__(self):
        self.grid = TorusGrid(dim=1, n_space=24, n_time=128, T=1.0)

    def shapes(self):
        return [_shape(self.grid)]

    def make_inputs(self, rng, task):
        lo, hi = THETA_RANGE
        n = len(THETA_STRATA)
        theta = lo + (hi - lo) / n * (THETA_STRATA[task % n] + float(rng.uniform()))
        model = builtin_quadratic(
            theta=theta, coupling="antimonotone_symmetric", T=1.0, m0="uniform"
        )
        return {"model": model}

    def run(self, inp):
        return make_branch_pair(inp["model"], self.grid, tol=1e-6, fp_rounds=100)

    def check(self, inp, out):
        pair, _reason = out
        if pair is None:
            return False
        residuals = [*pair.symmetric.residuals.values(), *pair.asymmetric.residuals.values()]
        return (
            all(v <= 1e-6 for v in residuals)
            and pair.separation >= 1e-2
            and pair.j_asymmetric.total < pair.j_symmetric.total
        )


class CertifyWorkload:
    """(a) 1D base at the stability_monotone config, certified at four t1;
    (b) 2D monotone_local base, certified at t1 = 0.

    (a) stays under certify_stability's dense limit and (b) goes over it, so
    every task runs both the dense-SVD and the sparse-LU/inverse-power side.
    2D restrictions with t1 > 0 are left out on purpose: at N=16, K=24 they
    fall back under the dense limit (9,728 unknowns), and that dense SVD
    alone takes minutes.
    """

    name = "certify"
    host_sensitivity = 0.5

    def __init__(self, reference_file=REFERENCE_FILE):
        self.model_1d = builtin_quadratic(coupling="monotone_local", m0="cosine", T=0.5)
        self.grid_1d = self.model_1d.make_grid(24, 32)
        self.model_2d = builtin_quadratic(
            coupling="monotone_local", m0="cosine", T=0.5, dim=2
        )
        self.grid_2d = self.model_2d.make_grid(16, 24)
        self.pool = np.random.SeedSequence(CERTIFY_POOL_SEED).spawn(CERTIFY_POOL)
        self.reference = None
        if reference_file is not None:
            self.reference = json.loads(Path(reference_file).read_text(encoding="utf-8"))

    def shapes(self):
        return [_shape(self.grid_1d, t1) for t1 in CERTIFY_T1] + [_shape(self.grid_2d)]

    def variant_inputs(self, variant):
        rng = np.random.Generator(np.random.Philox(self.pool[variant]))
        return {
            "variant": variant,
            "model_1d": self.model_1d,
            "m0_1d": perturbed_m0(self.model_1d, self.grid_1d, rng),
            "model_2d": self.model_2d,
            "m0_2d": perturbed_m0(self.model_2d, self.grid_2d, rng),
        }

    def make_inputs(self, rng, task):
        return self.variant_inputs(int(rng.integers(CERTIFY_POOL)))

    def run(self, inp):
        m1, m2 = inp["model_1d"], inp["model_2d"]
        base_1d = solve_picard(m1, self.grid_1d, m0=inp["m0_1d"], tol=1e-11)
        certs = {f"1d_t1_{t1}": certify_stability(m1, base_1d, t1) for t1 in CERTIFY_T1}
        base_2d = solve_picard(m2, self.grid_2d, m0=inp["m0_2d"], tol=1e-11)
        certs["2d_t1_0"] = certify_stability(m2, base_2d, 0)
        return base_1d, base_2d, certs

    def check(self, inp, out):
        base_1d, base_2d, certs = out
        if not (base_1d.converged and base_2d.converged):
            return False
        ref = self.reference[str(inp["variant"])]
        for key, cert in certs.items():
            want = ref[key]
            if cert.verdict != "STABLE" or abs(cert.sigma_min - want) > SIGMA_RTOL * abs(want):
                return False
        return True


WORKLOADS = {w.name: w for w in (PicardWorkload, BranchPairWorkload, CertifyWorkload)}
