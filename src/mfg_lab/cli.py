"""Experiment runner: config ingestion, dispatch, deterministic outputs.

Every run writes manifest.json (the fully resolved config) and summary.json
(key scalars, stable key order); identical config + seed reproduce
summary.json byte for byte.  Plots are not rendered here; traces and sweeps
are emitted as plot-ready CSV.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import KINDS, SCHEMA, ConfigError, ExperimentConfig, load_config
from .grid import ScalarField, TorusGrid, field_to_csv, write_field_binary, write_json, write_lines
from .models import check_coupling_normalization, check_symmetry_relation

__all__ = ["main", "run_experiment", "validate_config"]


class ComputeError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# validation (no solve)
# ---------------------------------------------------------------------------


def validate_config(cfg: ExperimentConfig):
    """Model-level checks that a parsed config can fail: the m0 invariants
    and the coupling's kernel relations.

    Returns (ok, report_lines); failures name the violated invariant.
    """
    lines = []
    ok = True
    dim = cfg["grid.dim"]
    model = cfg.make_model()

    probe_grid = TorusGrid(dim, 16, 2, 0.0, 1.0)
    try:
        m0 = model.initial_density_slice(probe_grid)
        lines.append("initial density nonnegativity + unit mass: PASS")
    except ValueError as exc:
        ok = False
        m0 = None
        lines.append(
            f"initial density invariant: FAIL ({exc}; densities must be "
            f"nonnegative with unit mass after grid projection)"
        )

    if m0 is not None and cfg["model.name"] != "decoupled":
        coup = model.coupling
        sym = check_symmetry_relation(coup, probe_grid, m0)
        f_norm, k_norm = check_coupling_normalization(coup, probe_grid, m0)
        c_ok = sym <= 1e-10 and f_norm <= 1e-10 and k_norm <= 1e-10
        ok = ok and c_ok
        lines.append(
            f"coupling kernel symmetry relation + normalization: "
            f"{'PASS' if c_ok else 'FAIL'} "
            f"(symmetry defect {sym:.3g}, f normalization {f_norm:.3g}, "
            f"kernel normalization {k_norm:.3g})"
        )
    return ok, lines


# ---------------------------------------------------------------------------
# experiment runners
# ---------------------------------------------------------------------------


def _write_solution_fields(outdir: Path, sol) -> None:
    write_field_binary(sol.u, outdir / "u.bin")
    write_field_binary(sol.m, outdir / "m.bin")
    write_field_binary(sol.w, outdir / "w.bin")
    field_to_csv(sol.m, outdir / "m.csv")
    field_to_csv(sol.u, outdir / "u.csv")


def _solve_base(cfg: ExperimentConfig):
    from .mfg import solve_picard

    model = cfg.make_model()
    grid = cfg.make_grid()
    sol = solve_picard(
        model,
        grid,
        damping=cfg["solver.damping"],
        tol=cfg["solver.tol"],
        max_iter=cfg["solver.max_iter"],
    )
    return model, grid, sol


def _converged_base(cfg: ExperimentConfig):
    """`_solve_base`, refusing a base that did not converge: no run
    certifies it or measures against it."""
    model, grid, sol = _solve_base(cfg)
    if not sol.converged:
        raise ComputeError(f"base solve did not converge in {sol.iterations} rounds")
    return model, grid, sol


def _stable_base(cfg: ExperimentConfig):
    """The converged base certified STABLE at t1 = 0, and its certificate:
    the reference of the isolation and attractor runs, before any round."""
    from .stability import certify_stability

    model, grid, sol = _converged_base(cfg)
    cert = certify_stability(model, sol, 0, tol=cfg["stability.tol"])
    if cert.verdict != "STABLE":
        raise ComputeError(f"the {cfg.kind} run needs a STABLE base, got {cert.verdict}")
    return model, grid, sol, cert


def _run_solve(cfg, outdir: Path, seed: int) -> dict:
    from .potential import AdmissiblePair, evaluate_J

    model, grid, sol = _solve_base(cfg)
    summary = {
        "kind": "solve",
        "converged": sol.converged,
        "iterations": sol.iterations,
        "residuals": sol.residuals,
        "mass_defect": float(np.max(np.abs(sol.m.mass() - 1.0))),
        "min_density": float(sol.m.values.min()),
    }
    jb = evaluate_J(model, AdmissiblePair.from_solution(sol))
    summary["j"] = {
        "kinetic": jb.kinetic,
        "running_potential": jb.running_potential,
        "terminal_potential": jb.terminal_potential,
        "total": jb.total,
    }
    _write_solution_fields(outdir, sol)
    return summary


def _run_fictitious_play(cfg, outdir: Path, seed: int) -> dict:
    from .fictitious_play import local_attractor_experiment, run_fp

    deltas = cfg.lists["fp.attractor_deltas"]
    if deltas:  # parse_config refuses deltas without fp.reference = picard
        model, grid, reference, cert = _stable_base(cfg)
    elif cfg["fp.reference"] == "picard":
        model, grid, reference = _converged_base(cfg)
    else:
        model, grid, reference = cfg.make_model(), cfg.make_grid(), None
    trace = run_fp(
        model,
        grid,
        n_max=cfg["fp.n_max"],
        gap_tol=cfg["fp.gap_tol"],
        reference=reference,
    )
    trace.to_csv(outdir / "fp_trace.csv")
    summary = {
        "kind": "fictitious-play",
        "rounds": trace.n_iterations,
        "converged": trace.converged,
        "final_gap": trace.gaps[-1],
        "residuals": trace.final.residuals,
    }
    if trace.errors:
        summary["final_error_vs_reference"] = trace.errors[-1]
    if deltas:
        report = local_attractor_experiment(
            model,
            grid,
            reference,
            deltas,
            trials=cfg["fp.attractor_trials"],
            seed=seed,
            n_max=cfg["fp.n_max"],
            success_err=cfg["fp.success_err"],
        )
        summary["attractor"] = report["records"]
        if report["failures"]:
            summary["attractor_failures"] = report["failures"]
        summary["reference_sigma_min"] = cert.sigma_min
    _write_solution_fields(outdir, trace.final)
    return summary


def _run_stability(cfg, outdir: Path, seed: int) -> dict:
    from .stability import certify_stability

    model, grid, sol = _converged_base(cfg)
    fracs = cfg.lists["stability.t1_fractions"]
    K = grid.n_time
    # a restriction keeps at least two time steps (`TorusGrid.restrict`)
    t1s = sorted({min(int(round(f * K)), K - 2) for f in fracs})

    summary = {"kind": "stability", "base_residuals": sol.residuals, "certificates": {}}
    for t1 in t1s:
        cert = certify_stability(model, sol, t1, tol=cfg["stability.tol"])
        name = f"t1_index_{t1}"
        witness_file = None
        if cert.witness_v is not None:
            rgrid = grid.restrict(t1)
            witness_file = f"witness_{t1}.bin"
            write_field_binary(
                ScalarField(rgrid, cert.witness_mu), outdir / witness_file
            )
        write_lines(outdir / f"certificate_{t1}.json", [cert.to_json(witness_file)])
        summary["certificates"][name] = {
            "sigma_min": cert.sigma_min,
            "verdict": cert.verdict,
            "n_unknowns": cert.n_unknowns,
            "method": cert.method,
        }
    return summary


def _run_isolation(cfg, outdir: Path, seed: int) -> dict:
    from .stability import isolation_experiment

    model, grid, sol, cert = _stable_base(cfg)
    report = isolation_experiment(
        model,
        sol,
        cfg.lists["isolation.etas"],
        trials=cfg["isolation.trials"],
        seed=seed,
        damping=cfg["solver.damping"],
        tol=cfg["solver.tol"],
        max_iter=cfg["solver.max_iter"],
    )
    return {
        "kind": "isolation",
        "sigma_min": cert.sigma_min,
        "base_residuals": sol.residuals,
        **report,
    }


def _run_nonuniqueness(cfg, outdir: Path, seed: int) -> dict:
    from .nonuniqueness import build_competitor, sweep_nonuniqueness
    from .potential import evaluate_J

    res = sweep_nonuniqueness(
        thetas=cfg.lists["nonuniqueness.thetas"],
        horizons=cfg.lists["nonuniqueness.horizons"],
        dim=cfg["grid.dim"],
        n_space=cfg["grid.n_space"],
        steps_per_unit_time=cfg["nonuniqueness.steps_per_unit_time"],
        tol=cfg["nonuniqueness.tol"],
        refine_best=cfg["nonuniqueness.refine"] == 1,
    )
    res.to_csv(outdir / "sweep.csv")
    summary = {
        "kind": "nonuniqueness",
        "cells": res.cells,
        "n_found": sum(1 for c in res.cells if c["found"]),
    }
    if res.best is not None:
        summary["best"] = res.best.summary()
        summary["separation_change_under_refinement"] = res.separation_change
        write_lines(outdir / "branch_pair.json", [res.best.to_json()])
        write_field_binary(res.best.symmetric.m, outdir / "m_symmetric.bin")
        write_field_binary(res.best.asymmetric.m, outdir / "m_asymmetric.bin")
        if res.best.horizon > 1.0:
            model = res.best.symmetric.model
            comp = build_competitor(model, res.best.symmetric.grid)
            summary["competitor_j"] = evaluate_J(model, comp).total
    return summary


def _run_convergence_study(cfg, outdir: Path, seed: int) -> dict:
    from .verification import run_convergence_study

    study = run_convergence_study(
        n_list=[int(round(n)) for n in cfg.lists["study.n_list"]],
        heat_n=cfg["study.heat_n"],
        heat_k=cfg["study.heat_k"],
        heat_horizon=cfg["study.heat_horizon"],
    )
    study.to_csv(outdir / "convergence.csv")
    return {"kind": "convergence-study", **vars(study)}


_RUNNERS = {
    "solve": _run_solve,
    "fictitious-play": _run_fictitious_play,
    "stability": _run_stability,
    "isolation": _run_isolation,
    "nonuniqueness": _run_nonuniqueness,
    "convergence-study": _run_convergence_study,
}


def run_experiment(cfg: ExperimentConfig, outdir, seed=None) -> dict:
    """Run one experiment; writes manifest, summary, and artifact files."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    seed = cfg["seed"] if seed is None else int(seed)
    manifest = {
        "config": dict(cfg.values),
        "seed": seed,
        "version": __version__,
        "status": "running",
    }
    write_json(outdir / "manifest.json", manifest)
    try:
        summary = _RUNNERS[cfg.kind](cfg, outdir, seed)
    except Exception:
        manifest["status"] = "failed"
        write_json(outdir / "manifest.json", manifest)
        raise
    summary["seed"] = seed
    write_json(outdir / "summary.json", summary)
    manifest["status"] = "complete"
    write_json(outdir / "manifest.json", manifest)
    return summary


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mfg-lab",
        description="numerical laboratory for mean field games on the torus",
    )
    parser.add_argument("kind", choices=(*KINDS, "validate"))
    parser.add_argument("--config", required=True)
    parser.add_argument("--output", default="mfg_lab_out")
    parser.add_argument("--seed", type=int, default=None)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    in_bound, bound = SCHEMA["seed"].bound
    if args.seed is not None and not in_bound(args.seed):
        print(f"config error: --seed must be {bound}, got {args.seed}", file=sys.stderr)
        return 2
    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 2

    if args.kind == "validate":
        ok, lines = validate_config(cfg)
        for line in lines:
            print(line)
        print("validation:", "PASS" if ok else "FAIL")
        return 0 if ok else 2

    if cfg.kind != args.kind:
        print(
            f"config error: experiment.kind = {cfg.kind!r} does not match "
            f"command {args.kind!r}",
            file=sys.stderr,
        )
        return 2
    try:
        run_experiment(cfg, args.output, seed=args.seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ComputeError as exc:
        print(f"compute error: {exc} (partial outputs flagged in manifest)", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(
            f"compute error: {type(exc).__name__}: {exc} "
            f"(partial outputs flagged in manifest)",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
