"""Picard's belief update: the QR-updated Anderson mixer against the
least-squares form it replaces.

The oracle re-differences the last ANDERSON_DEPTH + 1 rounds and fits the
residual with ``np.linalg.lstsq``; the mixer keeps the differences and the
QR factors of the residual differences and updates them one column at a
time.  Both give the type-II update m + damping f - (dX + damping dF) gamma.
"""

import importlib.util
from collections import deque
from pathlib import Path

import numpy as np
import pytest

import mfg_lab.mfg as mfg
from mfg_lab.mfg import ANDERSON_DEPTH, _AndersonMixer, solve_picard
from mfg_lab.perturb import spawn_rngs

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _lstsq_belief(history, x, played, damping):
    """The next belief by re-differencing `history`, a deque of the last
    ANDERSON_DEPTH + 1 (belief, residual) pairs, to which this round's pair
    is appended; the damped update while it holds one pair."""
    f = played - x
    history.append((x, f))
    if len(history) == 1:
        return (1.0 - damping) * x + damping * played
    xs, fs = zip(*history)
    d_x, d_f = np.diff(xs, axis=0), np.diff(fs, axis=0)  # one row per pair
    gamma = np.linalg.lstsq(d_f.T, f)[0]
    return x + damping * f - gamma @ (d_x + damping * d_f)


class _OracleMixer:
    """`_AndersonMixer`'s interface over the least-squares form, recording
    every round it is given."""

    def __init__(self, size, damping):
        self.damping = damping
        self.history = deque(maxlen=ANDERSON_DEPTH + 1)
        self.rounds = []

    def next_belief(self, x, played):
        self.rounds.append((x, played))
        return _lstsq_belief(self.history, x, played, self.damping)


def _relative_gap(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


@pytest.mark.parametrize("damping", [0.5, 1.0])
def test_mixer_matches_least_squares_past_the_depth(damping):
    # 12 rounds: from round ANDERSON_DEPTH + 2 on, every round drops the
    # oldest column
    rng = np.random.default_rng(29)
    size = 300
    mixer, history = _AndersonMixer(size, damping), deque(maxlen=ANDERSON_DEPTH + 1)
    for _ in range(12):
        x, played = rng.standard_normal(size), rng.standard_normal(size)
        want = _lstsq_belief(history, x, played, damping)
        assert _relative_gap(mixer.next_belief(x, played), want) <= 1e-12
    assert mixer.cols == ANDERSON_DEPTH


@pytest.fixture(scope="module")
def picard_workload():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS["picard_1d"]()


def _picard_1d_solve(monkeypatch, workload, task, mixer_class):
    """The benchmark's Picard solve of seed 0, task `task`, with the given
    mixer class; returns the solution and the mixers it made."""
    made = []

    def make(size, damping):
        made.append(mixer_class(size, damping))
        return made[-1]

    inputs = workload.make_inputs(spawn_rngs(0, task + 1)[task], task)
    with monkeypatch.context() as patch:
        patch.setattr(mfg, "_AndersonMixer", make)
        sol = solve_picard(
            inputs["model"], workload.grid, m0=inputs["m0"], damping=0.5, tol=1e-10,
            max_iter=400,
        )
    return sol, made


def test_mixer_matches_least_squares_on_a_picard_history(monkeypatch, picard_workload):
    # the rounds the least-squares Picard plays on the benchmark's task 0,
    # replayed through both updates; the last residual differences are
    # ill-conditioned (about 1e7), which a normal-equations solve would not
    # survive
    _, (oracle,) = _picard_1d_solve(monkeypatch, picard_workload, 0, _OracleMixer)
    assert len(oracle.rounds) > 2
    mixer = _AndersonMixer(oracle.rounds[0][0].size, 0.5)
    history = deque(maxlen=ANDERSON_DEPTH + 1)
    for x, played in oracle.rounds:
        want = _lstsq_belief(history, x, played, 0.5)
        assert _relative_gap(mixer.next_belief(x, played), want) <= 1e-12


def test_mixer_skips_a_repeated_round():
    # a repeated round adds a zero difference: the mixer keeps no column for
    # it, and its fit leaves the residual least squares leaves
    rng = np.random.default_rng(5)
    size = 200
    rounds = [(rng.standard_normal(size), rng.standard_normal(size)) for _ in range(4)]
    rounds.insert(2, rounds[1])
    mixer, history = _AndersonMixer(size, 0.5), deque(maxlen=ANDERSON_DEPTH + 1)
    for x, played in rounds:
        belief = mixer.next_belief(x, played)
        _lstsq_belief(history, x, played, 0.5)
    assert np.isfinite(belief).all()
    assert mixer.cols == 3  # 4 differences, one of them zero
    f = played - x
    q = mixer.q[: mixer.cols]
    fitted = f - (q @ f) @ q
    d_f = np.diff([pair[1] for pair in history], axis=0)
    want = f - np.linalg.lstsq(d_f.T, f)[0] @ d_f
    assert np.max(np.abs(fitted - want)) <= 1e-12 * np.max(np.abs(f))


def test_picard_plays_the_least_squares_round_counts(monkeypatch, picard_workload):
    for task in range(20):
        sol, _ = _picard_1d_solve(monkeypatch, picard_workload, task, _AndersonMixer)
        oracle, _ = _picard_1d_solve(monkeypatch, picard_workload, task, _OracleMixer)
        assert sol.converged and oracle.converged
        assert sol.iterations == oracle.iterations, task
