"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test records a PASS/FAIL line with the measured quantities (printed in
the terminal summary and written to acceptance_report.txt) and its runtime
(printed only).
Shared solves are module-scoped so criteria reuse the same base solutions.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import legendre_defects, record_acceptance, rng_from_seed

from mfg_lab.config import load_config
from mfg_lab.cli import run_experiment
from mfg_lab.fictitious_play import local_attractor_experiment, run_fp
from mfg_lab.grid import TorusGrid, divergence, gradient, inner, laplacian, sup_norm
from mfg_lab.mfg import (
    drift_field,
    heat_flow_of_initial,
    probe_uniqueness_given_gradient,
    solve_picard,
)
from mfg_lab.models import (
    antimonotone_symmetric_coupling,
    builtin_quadratic,
    check_symmetry_relation,
    monotone_local_coupling,
    monotone_smoothed_coupling,
    quadratic_hamiltonian,
    zero_coupling,
)
from mfg_lab.nonuniqueness import build_competitor, sweep_nonuniqueness, _sweep_cell
from mfg_lab.pde import continuity_residual
from mfg_lab.perturb import perturb_density_values, spawn_rngs
from mfg_lab.potential import (
    admissible_direction,
    criticality_defect,
    evaluate_J,
    first_variation,
    perturbed_nonsolution_pair,
    second_variation_parts,
)
from mfg_lab.stability import (
    backward_response,
    certify_stability,
    flux_from_value_direction,
    solve_linearized,
)
from mfg_lab.verification import run_convergence_study

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _report(num, name, ok, detail, t0):
    line = f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    record_acceptance(line, time.perf_counter() - t0)
    assert ok, line


# --- shared heavy solves ----------------------------------------------------


@pytest.fixture(scope="module")
def acc_model():
    return builtin_quadratic(coupling="monotone_local", T=0.5, m0="cosine")


@pytest.fixture(scope="module")
def acc_grid(acc_model):
    return acc_model.make_grid(64, 128)


@pytest.fixture(scope="module")
def picard_runs(acc_model, acc_grid):
    base = heat_flow_of_initial(acc_model, acc_grid)
    rngs = spawn_rngs(505, 3)
    sols = []
    for r in rngs:
        init = perturb_density_values(acc_grid, base, 0.3, r)
        sols.append(
            solve_picard(
                acc_model, acc_grid, init_m=init, damping=0.5, tol=1e-10, max_iter=500
            )
        )
    return sols


@pytest.fixture(scope="module")
def fp_runs(acc_model, acc_grid):
    # the averaging rule leaves a C/n belief lag, so the round count is what
    # buys the 1e-6 residual; 1200 rounds puts it at ~7e-7 from these starts
    base = heat_flow_of_initial(acc_model, acc_grid)
    rngs = spawn_rngs(606, 2)
    traces = []
    for r in rngs:
        mu0 = perturb_density_values(acc_grid, base, 0.04, r)
        traces.append(run_fp(acc_model, acc_grid, mu0=mu0, n_max=1200))
    return traces


@pytest.fixture(scope="module")
def sweep_result():
    return sweep_nonuniqueness(
        thetas=(1.0, 4.0, 16.0, 64.0),
        horizons=(0.5, 1.0, 2.0, 4.0, 8.0),
        n_space=32,
        steps_per_unit_time=128,
        tol=1e-6,
        refine_best=True,
    )


# --- criteria ----------------------------------------------------------------


def test_criterion_01_discrete_calculus():
    t0 = time.perf_counter()
    rng = rng_from_seed(1)
    worst_adj = worst_lap = 0.0
    for grid in (TorusGrid(1, 64, 8), TorusGrid(2, 16, 8)):
        for _ in range(100 if grid.dim == 1 else 25):
            u = rng.standard_normal(grid.spatial_shape)
            w = rng.standard_normal((*grid.spatial_shape, grid.dim))
            lhs = grid.cell_volume * np.sum(gradient(grid, u) * w)
            rhs = -inner(grid, u, divergence(grid, w))
            worst_adj = max(worst_adj, abs(lhs - rhs))
            worst_lap = max(
                worst_lap,
                float(np.max(np.abs(divergence(grid, gradient(grid, u)) - laplacian(grid, u)))),
            )
    ok = worst_adj <= 1e-12 and worst_lap <= 1e-12
    _report(
        1,
        "discrete calculus",
        ok,
        f"adjointness {worst_adj:.2e} <= 1e-12, div(grad)-lap {worst_lap:.2e} <= 1e-12",
        t0,
    )


def test_criterion_02_solver_verification():
    t0 = time.perf_counter()
    study = run_convergence_study(n_list=(32, 64, 128))
    ok = (
        study.spatial_order >= 1.8
        and study.heat_l2_error <= 5e-4
        and study.heat_mass_defect <= 1e-12
    )
    _report(
        2,
        "solver verification",
        ok,
        f"manufactured spatial order {study.spatial_order:.3f} >= 1.8, "
        f"heat-flow l2 error {study.heat_l2_error:.2e} <= 5e-4 at N=64 K=256 T=0.25, "
        f"mass defect {study.heat_mass_defect:.2e} <= 1e-12",
        t0,
    )


def test_criterion_03_legendre_hessian_identities():
    t0 = time.perf_counter()
    worst_conj = worst_prod = 0.0
    for eps in (0.0, 0.1):
        ham = quadratic_hamiltonian(eps)
        for dim in (1, 2):
            conj, prod, _ = legendre_defects(ham, dim, samples=200, seed=3)
            worst_conj = max(worst_conj, conj)
            worst_prod = max(worst_prod, prod)
    ok = worst_conj <= 1e-8 and worst_prod <= 1e-8
    _report(
        3,
        "conjugacy + hessian product identities",
        ok,
        f"conjugacy {worst_conj:.2e} <= 1e-8, product identity {worst_prod:.2e} <= 1e-8, "
        f"200 samples per shipped Hamiltonian",
        t0,
    )


def test_criterion_04_kernel_symmetry_relation():
    t0 = time.perf_counter()
    grid = TorusGrid(1, 16, 2)
    rng = rng_from_seed(4)
    couplings = [
        zero_coupling(),
        monotone_local_coupling(),
        monotone_smoothed_coupling(),
        antimonotone_symmetric_coupling(2.5),
    ]
    worst = 0.0
    for coup in couplings:
        for _ in range(3):
            m = np.abs(rng.standard_normal(16)) + 0.3
            m /= grid.cell_volume * m.sum()
            worst = max(worst, check_symmetry_relation(coup, grid, m))
    ok = worst <= 1e-10
    _report(
        4,
        "kernel symmetry relation",
        ok,
        f"max defect {worst:.2e} <= 1e-10, all grid pairs at N=16, "
        f"{len(couplings)} shipped potential couplings",
        t0,
    )


def test_criterion_05_monotone_uniqueness_regime(acc_grid, picard_runs, fp_runs):
    t0 = time.perf_counter()
    sols = list(picard_runs) + [tr.final for tr in fp_runs]
    worst_pair = 0.0
    for i in range(len(sols)):
        for j in range(i + 1, len(sols)):
            d = max(
                sup_norm(sols[i].u.values - sols[j].u.values),
                sup_norm(sols[i].m.values - sols[j].m.values),
            )
            worst_pair = max(worst_pair, d)
    worst_resid = max(max(tr.final.residuals.values()) for tr in fp_runs)
    worst_resid = max(
        worst_resid, max(max(s.residuals.values()) for s in picard_runs)
    )
    mass = max(np.max(np.abs(s.m.mass() - 1.0)) for s in sols)
    ok = (
        all(s.converged for s in picard_runs)
        and worst_pair <= 1e-5
        and worst_resid <= 1e-6
        and mass <= 1e-12
    )
    _report(
        5,
        "monotone uniqueness regime",
        ok,
        f"3 Picard + 2 fictitious-play runs agree to {worst_pair:.2e} <= 1e-5 sup-norm, "
        f"residuals {worst_resid:.2e} <= 1e-6, mass defect {mass:.2e}",
        t0,
    )


def test_criterion_06_variational_consistency(acc_model, picard_runs):
    t0 = time.perf_counter()
    sol = picard_runs[0]
    rng = rng_from_seed(6)
    rep = criticality_defect(acc_model, sol, probes=20, rng=rng)
    pert = perturbed_nonsolution_pair(acc_model, sol, 1e-2, rng)
    pert_defect = 0.0
    for _ in range(10):
        mu, z = admissible_direction(sol.grid, rng)
        pert_defect = max(pert_defect, abs(first_variation(acc_model, pert, mu, z)))
    ok = (
        rep.max_fd_mismatch <= 1e-5
        and rep.max_defect <= 1e-6
        and pert_defect >= 1e-4
        and pert_defect >= 10.0 * rep.max_defect
    )
    _report(
        6,
        "variational consistency",
        ok,
        f"analytic-vs-FD {rep.max_fd_mismatch:.2e} <= 1e-5 on 20 directions, "
        f"criticality at solution {rep.max_defect:.2e} <= 1e-6, "
        f"perturbed pair {pert_defect:.2e} >= 1e-4 (>{10 * rep.max_defect:.1e})",
        t0,
    )


def test_criterion_07_linearized_second_variation(
    monotone_model, monotone_solution, decoupled_model, decoupled_solution
):
    t0 = time.perf_counter()
    rng = rng_from_seed(7)
    worst_j2_zero = worst_identity = worst_cont = worst_zrec = 0.0
    cases = [(monotone_model, monotone_solution)] * 3 + [
        (decoupled_model, decoupled_solution)
    ] * 2
    # five homogeneous solves: the quadratic form must vanish
    for model, base in cases:
        out = solve_linearized(model, base)
        z = flux_from_value_direction(model, base, 0, out.v.values, out.mu.values)
        kin, run, term = second_variation_parts(model, base, out.mu.values, z)
        worst_j2_zero = max(worst_j2_zero, abs(kin + run + term))
        worst_cont = max(worst_cont, continuity_residual(base.grid, out.mu.values, z))
    # five initial-value solves: the discrete energy identity must hold
    for model, base in cases:
        grid = base.grid
        mu0 = perturb_density_values(grid, base.m.values[:1], 0.1, rng)[0] - base.m.values[0]
        mu0 -= mu0.mean()
        out = solve_linearized(model, base, mu0=mu0)
        z = flux_from_value_direction(model, base, 0, out.v.values, out.mu.values)
        worst_cont = max(worst_cont, continuity_residual(grid, out.mu.values, z))
        kin, run, term = second_variation_parts(model, base, out.mu.values, z)
        b0 = drift_field(model, grid, base.u.values)[0]
        gv0 = gradient(grid, out.v.values[0])
        boundary = inner(grid, out.v.values[0], mu0) - grid.dt * inner(
            grid, mu0, np.sum(b0 * gv0, axis=-1)
        )
        worst_identity = max(worst_identity, abs(kin + run + term - boundary))
        v_hat = backward_response(model, base, 0, out.mu.values)
        z_hat = flux_from_value_direction(model, base, 0, v_hat, out.mu.values)
        worst_zrec = max(worst_zrec, sup_norm(z_hat - z))
    ok = (
        worst_j2_zero <= 1e-6
        and worst_identity <= 1e-6
        and worst_cont <= 1e-8
        and worst_zrec <= 1e-6
    )
    _report(
        7,
        "second variation on linearized solutions",
        ok,
        f"10 linearized solves: |J2| {worst_j2_zero:.2e} <= 1e-6 (homogeneous), "
        f"energy identity defect {worst_identity:.2e} <= 1e-6 (initial-value), "
        f"continuity {worst_cont:.2e} <= 1e-8, z reconstruction {worst_zrec:.2e} <= 1e-6",
        t0,
    )


def test_criterion_08_stability_certification():
    t0 = time.perf_counter()
    model = builtin_quadratic(coupling="monotone_local", T=0.5, m0="cosine")
    grid = model.make_grid(48, 96)
    trace = run_fp(model, grid, n_max=250)
    limit = solve_picard(
        model, grid, init_m=trace.final.m.values, damping=0.5, tol=1e-11, max_iter=400
    )
    assert limit.converged
    certs = {}
    for frac in (0.10, 0.25, 0.50):
        t1 = int(round(frac * grid.n_time))
        certs[frac] = certify_stability(model, limit, t1)
    base_cert = certify_stability(model, limit, 0)
    dm = builtin_quadratic(0.0, coupling="none", T=0.5, m0="cosine")
    dsol = solve_picard(dm, grid, damping=1.0, tol=1e-12, max_iter=20)
    dec_cert = certify_stability(dm, dsol, 0)
    # one refinement of the 25% restriction certificate
    fine = model.make_grid(96, 192)
    fine_sol = solve_picard(model, fine, damping=0.5, tol=1e-11, max_iter=400)
    fine_cert = certify_stability(model, fine_sol, int(round(0.25 * fine.n_time)))
    change = abs(fine_cert.sigma_min - certs[0.25].sigma_min) / certs[0.25].sigma_min
    all_stable = (
        all(c.verdict == "STABLE" and c.sigma_min > 1e-6 for c in certs.values())
        and base_cert.verdict == "STABLE"
        and dec_cert.verdict == "STABLE"
    )
    ok = all_stable and change <= 0.30
    sig = ", ".join(f"{f:.0%}:{c.sigma_min:.3f}" for f, c in sorted(certs.items()))
    _report(
        8,
        "stability certification",
        ok,
        f"restrictions of the learning limit STABLE (sigma_min {sig}), "
        f"monotone base {base_cert.sigma_min:.3f}, decoupled {dec_cert.sigma_min:.3f} "
        f"> 1e-6; refinement change {change:.1%} <= 30%",
        t0,
    )


def test_criterion_09_nonuniqueness(sweep_result):
    t0 = time.perf_counter()
    res = sweep_result
    found = [c for c in res.cells if c["found"]]
    best = res.best
    ok = bool(found) and best is not None
    detail = f"{len(found)}/{len(res.cells)} cells with a verified branch pair"
    if ok:
        resid = max(
            max(best.symmetric.residuals.values()),
            max(best.asymmetric.residuals.values()),
        )
        comp_model, comp_grid = _sweep_cell(best.theta, best.horizon, 1, 32, 128)
        comp = build_competitor(comp_model, comp_grid)
        j_comp = evaluate_J(comp_model, comp).total
        ok = (
            resid <= 1e-6
            and best.separation >= 1e-2
            and res.separation_change is not None
            and res.separation_change <= 0.30
            and best.j_asymmetric.total < best.j_symmetric.total
            and j_comp < best.j_symmetric.total
        )
        detail += (
            f"; best (theta={best.theta:g}, T={best.horizon:g}): residuals {resid:.2e} <= 1e-6, "
            f"separation {best.separation:.3f} >= 1e-2 "
            f"(refinement change {res.separation_change:.1%} <= 30%), "
            f"J(asym) {best.j_asymmetric.total:.2f} < J(sym) {best.j_symmetric.total:.2f}, "
            f"J(competitor) {j_comp:.2f} < J(sym)"
        )
    _report(9, "non-uniqueness experiment", ok, detail, t0)


def test_sweep_cells_keep_their_flags_and_reasons(sweep_result):
    # criterion 09 counts the found cells; this pins each cell, so a change
    # to the branch search cannot trade one cell's outcome for another's
    got = {(c["theta"], c["horizon"]): (c["found"], c["reason"]) for c in sweep_result.cells}
    want = {
        (theta, horizon): (True, "ok")
        if theta == 64.0
        else (False, "converged to the symmetric branch")
        for theta in (1.0, 4.0, 16.0, 64.0)
        for horizon in (0.5, 1.0, 2.0, 4.0, 8.0)
    }
    assert got == want


def test_criterion_10_local_attractor():
    t0 = time.perf_counter()
    model = builtin_quadratic(coupling="monotone_local", T=0.5, m0="cosine")
    grid = model.make_grid(32, 64)
    ref = solve_picard(model, grid, damping=0.5, tol=1e-11, max_iter=400)
    cert = certify_stability(model, ref, 0)
    assert cert.verdict == "STABLE"
    delta = 1e-2  # discovered radius: success rate 1.0 at this value
    report = local_attractor_experiment(
        model, grid, ref, delta_list=[delta], trials=10, seed=10, n_max=250
    )
    (record,) = report["records"]
    rate = record["success_rate"]
    # exact averaging-rule identity along one full trace
    trace = run_fp(model, grid, n_max=100)
    rule_defect = max(
        abs(trace.mu_step_norms[i] - trace.gaps[i] / (i + 1))
        for i in range(len(trace.gaps))
    )
    ok = rate >= 0.9 and rule_defect <= 1e-13
    _report(
        10,
        "local attractor for learning",
        ok,
        f"stable reference (sigma_min {cert.sigma_min:.3f}), delta={delta:g}: "
        f"success rate {rate:.0%} >= 90% at err <= 5e-4; "
        f"averaging identity defect {rule_defect:.2e} <= 1e-13",
        t0,
    )


def test_criterion_11_uniqueness_given_gradient(picard_runs, fp_runs, sweep_result):
    t0 = time.perf_counter()
    sols = list(picard_runs) + [tr.final for tr in fp_runs]
    implication_ok = True
    tightest = None
    for i in range(len(sols)):
        for j in range(i + 1, len(sols)):
            rep = probe_uniqueness_given_gradient(sols[i], sols[j])
            implication_ok &= rep.verdict == "CONSISTENT"
            if rep.d_grad <= 1e-8:
                implication_ok &= rep.d_sol <= 1e-5
                if tightest is None or rep.d_sol > tightest:
                    tightest = rep.d_sol
    best = sweep_result.best
    branch_rep = probe_uniqueness_given_gradient(best.symmetric, best.asymmetric)
    ok = implication_ok and branch_rep.d_grad > 1e-3
    _report(
        11,
        "uniqueness given initial gradient",
        ok,
        f"equal-gradient pairs stay within d_sol {tightest if tightest is not None else 0:.2e} <= 1e-5; "
        f"branch pair separates with d_grad {branch_rep.d_grad:.3f} > 1e-3",
        t0,
    )


def test_criterion_12_determinism(tmp_path):
    t0 = time.perf_counter()
    identical = True
    names = []
    for cfg_path in sorted(CONFIG_DIR.glob("*.cfg")):
        cfg = load_config(cfg_path)
        out_a = tmp_path / (cfg_path.stem + "_a")
        out_b = tmp_path / (cfg_path.stem + "_b")
        run_experiment(cfg, out_a)
        run_experiment(cfg, out_b)
        same = (out_a / "summary.json").read_bytes() == (out_b / "summary.json").read_bytes()
        identical &= same
        names.append(f"{cfg_path.stem}:{'ok' if same else 'DIFFERS'}")
    _report(
        12,
        "determinism of shipped configs",
        identical,
        f"byte-identical summary.json on re-run for {len(names)} configs "
        f"({', '.join(names)})",
        t0,
    )
