"""Config parsing, validation, experiment runs, determinism."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from mfg_lab.cli import main, run_experiment, validate_config
from mfg_lab.config import SCHEMA, ConfigError, ExperimentConfig, load_config, parse_config
from mfg_lab.grid import _jsonable, read_field_binary

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

SOLVE_SMALL = """
experiment.kind = solve
model.name = decoupled
model.m0 = cosine
grid.n_space = 16
grid.n_time = 16
grid.T = 0.25
solver.damping = 1.0
solver.tol = 1e-12
"""


def test_parse_defaults_and_types():
    cfg = parse_config(SOLVE_SMALL)
    assert cfg.kind == "solve"
    assert cfg["grid.n_space"] == 16
    assert cfg["solver.damping"] == 1.0
    assert cfg["seed"] == 0  # default materialized
    assert cfg.lists["stability.t1_fractions"] == [0.0, 0.1, 0.25, 0.5]


def test_parse_rejects_unknown_key_with_line():
    bad = "experiment.kind = solve\nnot.a.key = 3\n"
    with pytest.raises(ConfigError, match="line 2"):
        parse_config(bad)


def test_parse_rejects_bad_type_and_choice():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config("experiment.kind = solve\ngrid.n_space = many\n")
    with pytest.raises(ConfigError, match="grid.dim"):
        parse_config("experiment.kind = solve\ngrid.dim = 3\n")


def test_parse_rejects_duplicates_and_missing_kind():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("experiment.kind = solve\nseed = 1\nseed = 2\n")
    with pytest.raises(ConfigError, match="experiment.kind"):
        parse_config("seed = 1\n")


def test_shipped_configs_parse_and_validate():
    for path in sorted(CONFIG_DIR.glob("*.cfg")):
        cfg = load_config(path)
        ok, lines = validate_config(cfg)
        assert ok, f"{path.name}: {lines}"


def test_validation_flags_negative_density():
    # amplitudes in [-1, 1] keep the cosine m0 nonnegative and pass, the
    # edges included; the config refuses any other, and validate_config
    # still flags one in a config built without the parser
    text = "experiment.kind = solve\nmodel.m0 = cosine\nmodel.m0_amplitude = {}\n"
    for amplitude in (-1.0, 1.0):
        ok, lines = validate_config(parse_config(text.format(amplitude)))
        assert ok and "initial density nonnegativity + unit mass: PASS" in lines
    with pytest.raises(ConfigError, match=r"'model.m0_amplitude' must be in \[-1, 1\]"):
        parse_config(text.format(1.5))
    edge = parse_config(text.format(1.0))
    cfg = ExperimentConfig({**edge.values, "model.m0_amplitude": 1.5}, edge.lists)
    ok, lines = validate_config(cfg)
    assert not ok
    assert any("density" in ln and "FAIL" in ln for ln in lines)


def test_cli_validate_exit_codes(tmp_path, capsys):
    good = tmp_path / "good.cfg"
    good.write_text(SOLVE_SMALL)
    assert main(["validate", "--config", str(good)]) == 0
    bad = tmp_path / "bad.cfg"
    bad.write_text("experiment.kind = solve\nmodel.m0_amplitude = 1.5\n")
    assert main(["validate", "--config", str(bad)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("line", ["grid.n_space = 2", "grid.n_time = 1"])
def test_cli_rejects_a_bad_grid_before_running(tmp_path, capsys, line):
    # a grid TorusGrid refuses is a config error (exit 2) under validate
    # and under a run, which then writes no manifest
    path = tmp_path / "c.cfg"
    path.write_text(f"experiment.kind = solve\n{line}\n")
    out = tmp_path / "out"
    for kind in ("validate", "solve"):
        assert main([kind, "--config", str(path), "--output", str(out)]) == 2
        assert "config error: grid" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize(
    "kind, lines",
    [
        ("solve", "model.theta = -1"),
        ("solve", "model.hamiltonian = abs"),
        ("solve", "model.m0_amplitude = 1.5"),
        ("nonuniqueness", "nonuniqueness.thetas = 4,-1"),
        ("nonuniqueness", "nonuniqueness.horizons = 0.5,0"),
        ("nonuniqueness", "nonuniqueness.tol = 0"),
        ("solve", "solver.damping = 0"),
        ("solve", "solver.damping = 1.5"),
        ("solve", "solver.max_iter = 0"),
        ("solve", "solver.tol = 0"),
        ("solve", "solver.tol = nan"),
        ("fictitious-play", "fp.gap_tol = -1e-9"),
        ("fictitious-play", "fp.success_err = 0"),
        ("fictitious-play", "fp.n_max = 0"),
        ("fictitious-play", "fp.attractor_deltas = 0.01\nfp.attractor_trials = 0"),
        ("isolation", "isolation.trials = 0"),
        ("isolation", "seed = -1"),
        ("stability", "stability.tol = 0"),
        ("solve", "solver.tol = inf"),
        ("stability", "stability.tol = inf"),
        ("nonuniqueness", "nonuniqueness.tol = inf"),
        ("fictitious-play", "fp.gap_tol = inf"),
        ("fictitious-play", "fp.success_err = inf"),
        ("nonuniqueness", "nonuniqueness.steps_per_unit_time = 0"),
        ("convergence-study", "study.n_list = 32,3"),
        ("convergence-study", "study.n_list = 32,inf"),
        # an order fit needs two distinct resolutions, rounded to ints
        ("convergence-study", "study.n_list = 32"),
        ("convergence-study", "study.n_list = 32,32.2"),
        ("convergence-study", "study.n_list ="),
        ("stability", "stability.t1_fractions = nan"),
        ("stability", "stability.t1_fractions = 0.5,inf"),
        ("stability", "stability.t1_fractions = -3,0.5"),
        ("stability", "stability.t1_fractions = 1.5"),
        ("isolation", "isolation.etas = nan"),
        ("isolation", "isolation.etas = inf"),
        ("isolation", "isolation.etas = -0.01"),
        ("fictitious-play", "fp.attractor_deltas = nan"),
        ("fictitious-play", "fp.attractor_deltas = -0.01"),
        ("convergence-study", "study.heat_n = 3"),
        ("convergence-study", "study.heat_k = 1"),
        ("convergence-study", "study.heat_horizon = 0"),
        # an infinite strength, horizon or time would overflow mid-run
        ("solve", "model.theta = inf"),
        ("nonuniqueness", "nonuniqueness.thetas = 4,inf"),
        ("nonuniqueness", "nonuniqueness.horizons = 0.5,inf"),
        ("convergence-study", "study.heat_horizon = inf"),
        ("solve", "grid.T = inf"),
        ("solve", "grid.t0 = -inf"),
    ],
)
def test_cli_rejects_an_out_of_range_value_before_running(tmp_path, capsys, kind, lines):
    # a value outside its schema bound is a config error (exit 2) under
    # validate and under a run, which then writes no manifest
    path = tmp_path / "c.cfg"
    path.write_text(
        f"experiment.kind = {kind}\nmodel.name = monotone_local\n"
        f"grid.n_space = 8\ngrid.n_time = 4\n{lines}\n"
    )
    out = tmp_path / "out"
    for command in ("validate", kind):
        assert main([command, "--config", str(path), "--output", str(out)]) == 2
        assert "must be" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


def test_cli_refuses_a_negative_seed_override_before_running(tmp_path, capsys):
    # a seed must be >= 0 (numpy's SeedSequence refuses any other): --seed -1
    # is a config error (exit 2) before a manifest is written
    path = tmp_path / "c.cfg"
    path.write_text(SOLVE_SMALL)
    out = tmp_path / "out"
    assert main(["solve", "--config", str(path), "--output", str(out), "--seed", "-1"]) == 2
    assert "--seed must be >= 0" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize(
    "kind, key",
    [
        ("stability", "stability.t1_fractions"),
        ("isolation", "isolation.etas"),
        ("fictitious-play", "fp.attractor_deltas"),
        ("convergence-study", "study.n_list"),
    ],
)
def test_cli_rejects_a_malformed_list_before_running(tmp_path, capsys, kind, key):
    # every list key is parsed with the config: a malformed entry is a
    # config error naming its line (exit 2) under validate and under a run,
    # which then writes no manifest
    path = tmp_path / "c.cfg"
    path.write_text(f"experiment.kind = {kind}\nmodel.name = monotone_local\n{key} = 0,x\n")
    out = tmp_path / "out"
    for command in ("validate", kind):
        assert main([command, "--config", str(path), "--output", str(out)]) == 2
        assert f"line 3: '{key}' is not a comma-separated float list" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


def test_cli_refuses_attractor_deltas_without_a_picard_reference(tmp_path, capsys):
    # the attractor experiment measures its trials against the Picard
    # reference: without one the config is refused (exit 2) under validate
    # and under a run, before any round is played or manifest written
    path = tmp_path / "c.cfg"
    path.write_text(
        "experiment.kind = fictitious-play\nmodel.name = monotone_local\n"
        "grid.n_space = 16\ngrid.n_time = 16\nfp.n_max = 20\n"
        "fp.reference = none\nfp.attractor_deltas = 0.0,0.01\n"
    )
    out = tmp_path / "out"
    for command in ("validate", "fictitious-play"):
        assert main([command, "--config", str(path), "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert "line 7: 'fp.attractor_deltas' needs fp.reference = picard" in err
    assert not out.exists()
    # either key alone passes
    parse_config(path.read_text().replace("fp.reference = none\n", ""))
    parse_config(path.read_text().replace("fp.attractor_deltas = 0.0,0.01\n", ""))


def test_schema_doc_lists_every_key_with_its_default():
    # configs/schema.txt documents config.SCHEMA: the same keys, in its
    # table, each with its type and default (compared as values), and the
    # notes of a bounded key (continuation lines included) state its bound
    rows, notes = {}, {}
    text = (CONFIG_DIR / "schema.txt").read_text(encoding="utf-8")
    for line in text.split("-" * 35, 1)[1].splitlines():
        if line and not line[0].isspace():
            key, typ, default, *rest = line.split(None, 3)
            rows[key] = (typ, default)
            notes[key] = " ".join(rest)
        elif notes and line.strip():
            notes[key] += " " + line.strip()
    assert set(rows) == set(SCHEMA)
    for key, entry in SCHEMA.items():
        typ, default = rows[key]
        assert typ == entry.type.__name__, key
        if entry.bound is not None:
            assert entry.bound[1] in notes[key], key
        if entry.required:
            assert default == "(required)", key
        elif entry.type is str:
            assert default.strip('"') == entry.default, key
        else:
            assert entry.type(default) == entry.default, key


def test_cli_kind_mismatch(tmp_path, capsys):
    path = tmp_path / "c.cfg"
    path.write_text(SOLVE_SMALL)
    assert main(["stability", "--config", str(path)]) == 2
    assert "does not match" in capsys.readouterr().err


def test_cli_bad_config_exit(tmp_path, capsys):
    path = tmp_path / "c.cfg"
    path.write_text("nonsense\n")
    assert main(["solve", "--config", str(path)]) == 2
    assert "config error" in capsys.readouterr().err
    assert main(["solve", "--config", str(tmp_path / "missing.cfg")]) == 2
    capsys.readouterr()


def test_run_solve_outputs(tmp_path):
    cfg = parse_config(SOLVE_SMALL)
    outdir = tmp_path / "run"
    summary = run_experiment(cfg, outdir)
    for name in ("manifest.json", "summary.json", "u.bin", "m.bin", "w.bin", "m.csv"):
        assert (outdir / name).exists()
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["status"] == "complete"
    assert manifest["config"]["grid.n_space"] == 16
    assert summary["converged"] is True
    assert summary["residuals"]["hjb"] <= 1e-10
    m = read_field_binary(outdir / "m.bin")
    assert np.max(np.abs(m.mass() - 1.0)) <= 1e-12


def test_cli_main_runs_solve(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text(SOLVE_SMALL)
    out = tmp_path / "out"
    assert main(["solve", "--config", str(path), "--output", str(out)]) == 0
    assert (out / "summary.json").exists()


def test_summary_byte_identical(tmp_path):
    cfg = load_config(CONFIG_DIR / "isolation_monotone.cfg")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run_experiment(cfg, out1)
    run_experiment(cfg, out2)
    assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()


def test_shipped_configs_write_strict_json(tmp_path):
    # NaN and Infinity are not JSON: every file a shipped config writes
    # (manifest, summary, certificates, branch pair) parses without them
    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")

    for path in sorted(CONFIG_DIR.glob("*.cfg")):
        out = tmp_path / path.stem
        run_experiment(load_config(path), out)
        written = sorted(out.glob("*.json"))
        assert {"manifest.json", "summary.json"} <= {f.name for f in written}
        for f in written:
            json.loads(f.read_text(), parse_constant=refuse)


def test_non_finite_summary_values_are_null():
    # max_final_error is inf when every attractor trial fails
    payload = {"inf": math.inf, "nan": np.float64("nan"), "list": [-math.inf, 1.5]}
    assert _jsonable(payload) == {"inf": None, "nan": None, "list": [None, 1.5]}


def test_seed_changes_are_reflected(tmp_path):
    cfg = load_config(CONFIG_DIR / "isolation_monotone.cfg")
    s1 = run_experiment(cfg, tmp_path / "a", seed=1)
    s2 = run_experiment(cfg, tmp_path / "b", seed=2)
    assert s1["seed"] == 1 and s2["seed"] == 2


def test_run_convergence_study(tmp_path):
    cfg = parse_config(
        "experiment.kind = convergence-study\nstudy.n_list = 16,32\n"
        "study.heat_n = 32\nstudy.heat_k = 64\n"
    )
    summary = run_experiment(cfg, tmp_path / "out")
    assert summary["spatial_order"] >= 1.8
    assert (tmp_path / "out" / "convergence.csv").exists()


def test_run_stability_writes_certificates(tmp_path):
    cfg = parse_config(
        "experiment.kind = stability\nmodel.name = monotone_local\n"
        "model.m0 = cosine\ngrid.n_space = 16\ngrid.n_time = 16\ngrid.T = 0.5\n"
        "solver.tol = 1e-11\nstability.t1_fractions = 0.0,0.5\n"
    )
    out = tmp_path / "out"
    summary = run_experiment(cfg, out)
    for t1 in (0, 8):
        cert = json.loads((out / f"certificate_{t1}.json").read_text())
        assert cert["eigen_residual"] >= 0.0
        # 2K'+3 dense 16 x 16 blocks of the block factorization, and the
        # K'+1 transport blocks it stores in 1D
        assert cert["lu_nnz"] == (3 * (16 - t1) + 4) * 16**2
        assert cert["factor_s"] >= 0.0
        # CPU seconds of the block inverse iteration, which ran
        assert cert["iterate_s"] > 0.0
        assert "border" not in cert
    for rec in summary["certificates"].values():
        assert rec["verdict"] == "STABLE"
        assert rec["sigma_min"] > 1e-6
        for key in ("eigen_residual", "lu_nnz", "factor_s", "iterate_s"):
            assert key not in rec


def test_stability_at_the_horizon_certifies_the_last_restriction(tmp_path):
    # t1 fraction 1.0 is clamped to K-2, the shortest restriction (K' = 2)
    path = tmp_path / "c.cfg"
    path.write_text(
        "experiment.kind = stability\nmodel.name = monotone_local\n"
        "model.m0 = cosine\ngrid.n_space = 16\ngrid.n_time = 16\ngrid.T = 0.5\n"
        "solver.tol = 1e-11\nstability.t1_fractions = 0.0,1.0\n"
    )
    out = tmp_path / "out"
    assert main(["stability", "--config", str(path), "--output", str(out)]) == 0
    cert = json.loads((out / "certificate_14.json").read_text())
    assert cert["t1_index"] == 14 and cert["verdict"] == "STABLE"
    assert json.loads((out / "manifest.json").read_text())["status"] == "complete"


def test_nonuniqueness_off_a_unit_time_node_builds_its_competitor(tmp_path):
    # K = 294 steps on [0, 2.3] has no node at t = 1: the competitor's
    # transition takes the nearest number of steps, 128
    path = tmp_path / "c.cfg"
    path.write_text(
        "experiment.kind = nonuniqueness\nmodel.name = antimonotone_symmetric\n"
        "grid.n_space = 24\nnonuniqueness.thetas = 64\nnonuniqueness.horizons = 2.3\n"
        "nonuniqueness.steps_per_unit_time = 128\nnonuniqueness.refine = 0\nseed = 3\n"
    )
    out = tmp_path / "out"
    assert main(["nonuniqueness", "--config", str(path), "--output", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["competitor_j"] < summary["best"]["j_symmetric"]
    assert json.loads((out / "manifest.json").read_text())["status"] == "complete"


@pytest.mark.parametrize(
    "kind, lines", [("isolation", ""), ("fictitious-play", "fp.attractor_deltas = 0.01\n")]
)
def test_cli_refuses_to_certify_an_unconverged_base(tmp_path, capsys, kind, lines):
    # the isolation and attractor experiments certify their reference first:
    # a base stopped at solver.max_iter exits 1 before any certificate,
    # trial or round, and leaves only the failed manifest
    path = tmp_path / "c.cfg"
    path.write_text(
        f"experiment.kind = {kind}\nmodel.name = monotone_local\nmodel.m0 = cosine\n"
        f"grid.n_space = 16\ngrid.n_time = 16\ngrid.T = 0.5\nsolver.max_iter = 2\n{lines}"
    )
    out = tmp_path / "out"
    assert main([kind, "--config", str(path), "--output", str(out)]) == 1
    assert "base solve did not converge in 2 rounds" in capsys.readouterr().err
    assert json.loads((out / "manifest.json").read_text())["status"] == "failed"
    assert [p.name for p in out.iterdir()] == ["manifest.json"]


def test_cli_refuses_an_unconverged_fictitious_play_reference(tmp_path, capsys):
    # fp.reference = picard measures every round against the base solve: a
    # base stopped at solver.max_iter exits 1 before any round, with no
    # fp_trace.csv and only the failed manifest
    path = tmp_path / "c.cfg"
    path.write_text(
        "experiment.kind = fictitious-play\nmodel.name = monotone_local\nmodel.m0 = cosine\n"
        "grid.n_space = 16\ngrid.n_time = 16\ngrid.T = 0.5\nsolver.max_iter = 2\n"
        "fp.n_max = 5\n"
    )
    out = tmp_path / "out"
    assert main(["fictitious-play", "--config", str(path), "--output", str(out)]) == 1
    assert "base solve did not converge in 2 rounds" in capsys.readouterr().err
    assert json.loads((out / "manifest.json").read_text())["status"] == "failed"
    assert [p.name for p in out.iterdir()] == ["manifest.json"]


def test_failed_run_flags_manifest(tmp_path):
    # stability on a non-converged base must fail and mark the manifest
    cfg = parse_config(
        "experiment.kind = stability\nmodel.name = monotone_local\n"
        "model.m0 = cosine\n"
        "grid.n_space = 16\ngrid.n_time = 8\ngrid.T = 0.25\nsolver.max_iter = 1\n"
        "solver.tol = 1e-14\n"
    )
    out = tmp_path / "out"
    with pytest.raises(Exception):
        run_experiment(cfg, out)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "failed"
    assert not (out / "summary.json").exists()
