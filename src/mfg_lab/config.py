"""Experiment configuration: flat dotted key = value text files.

Format: one `section.key = value` assignment per line; blank lines and
lines starting with '#' are ignored.  Unknown keys are rejected with the
offending line number, as are type, choice and bound violations and malformed
list entries.  The shipped schema documentation lives in configs/schema.txt;
this module is the authoritative definition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Optional

from .grid import GridError, TorusGrid
from .models import COUPLINGS, HAMILTONIANS, M0_PRESETS, builtin_quadratic

__all__ = ["ConfigError", "ExperimentConfig", "parse_config", "SCHEMA", "KINDS"]


class ConfigError(ValueError):
    pass


KINDS = (
    "solve",
    "fictitious-play",
    "stability",
    "isolation",
    "nonuniqueness",
    "convergence-study",
)

MODEL_NAMES = ("decoupled", *COUPLINGS.keys())


@dataclass(frozen=True)
class _Key:
    type: type
    default: Any
    choices: Optional[tuple] = None
    required: bool = False
    # (test, text) of the values a run accepts; a list key's entries each pass
    bound: Optional[tuple[Callable, str]] = None


# every float key is finite: at an infinite tolerance every check passes,
# after one round or at once, and an infinite strength, horizon or time
# overflows a sweep after the run has started
_FINITE = (math.isfinite, "finite")
_FINITE_NONNEGATIVE = (lambda v: 0 <= v < math.inf, "finite and >= 0")
_FINITE_POSITIVE = (lambda v: 0 < v < math.inf, "finite and > 0")
# int keys, finite by their type
_NONNEGATIVE = (lambda v: v >= 0, ">= 0")
_COUNT = (lambda v: v >= 1, ">= 1")
# the least n_space of a `TorusGrid`; a list entry is rounded to an int
_N_SPACE = (lambda v: 4 <= v < math.inf, "finite and >= 4")

SCHEMA: dict[str, _Key] = {
    "experiment.kind": _Key(str, None, KINDS, required=True),
    "model.name": _Key(str, "decoupled", MODEL_NAMES),
    "model.theta": _Key(float, 0.0, bound=_FINITE_NONNEGATIVE),
    "model.hamiltonian": _Key(str, "quadratic", tuple(HAMILTONIANS.keys())),
    "model.m0": _Key(str, "uniform", tuple(M0_PRESETS.keys())),
    # the amplitudes that keep the cosine profile 1 + a cos(2 pi x) nonnegative
    "model.m0_amplitude": _Key(float, 0.5, bound=(lambda v: abs(v) <= 1, "in [-1, 1]")),
    "grid.dim": _Key(int, 1, (1, 2)),
    "grid.n_space": _Key(int, 32),
    "grid.n_time": _Key(int, 64),
    "grid.t0": _Key(float, 0.0, bound=_FINITE),
    "grid.T": _Key(float, 1.0, bound=_FINITE),
    "solver.damping": _Key(float, 0.5, bound=(lambda v: 0 < v <= 1, "in (0, 1]")),
    "solver.tol": _Key(float, 1e-9, bound=_FINITE_POSITIVE),
    "solver.max_iter": _Key(int, 300, bound=_COUNT),
    "fp.n_max": _Key(int, 300, bound=_COUNT),
    "fp.gap_tol": _Key(float, 1e-9, bound=_FINITE_NONNEGATIVE),
    "fp.reference": _Key(str, "picard", ("picard", "none")),
    "fp.attractor_deltas": _Key(str, "", bound=_FINITE_NONNEGATIVE),
    "fp.attractor_trials": _Key(int, 10, bound=_COUNT),
    "fp.success_err": _Key(float, 5e-4, bound=_FINITE_POSITIVE),
    "stability.t1_fractions": _Key(
        str, "0.0,0.1,0.25,0.5", bound=(lambda v: 0 <= v <= 1, "in [0, 1]")
    ),
    "stability.tol": _Key(float, 1e-6, bound=_FINITE_POSITIVE),
    "isolation.etas": _Key(str, "0.0,0.01", bound=_FINITE_NONNEGATIVE),
    "isolation.trials": _Key(int, 5, bound=_COUNT),
    "nonuniqueness.thetas": _Key(str, "1,4,16,64", bound=_FINITE_NONNEGATIVE),
    "nonuniqueness.horizons": _Key(str, "0.5,1,2,4,8", bound=_FINITE_POSITIVE),
    "nonuniqueness.steps_per_unit_time": _Key(int, 128, bound=_COUNT),
    "nonuniqueness.tol": _Key(float, 1e-6, bound=_FINITE_POSITIVE),
    "nonuniqueness.refine": _Key(int, 1, (0, 1)),
    "study.n_list": _Key(str, "32,64,128", bound=_N_SPACE),
    "study.heat_n": _Key(int, 64, bound=_N_SPACE),
    "study.heat_k": _Key(int, 256, bound=(lambda v: v >= 2, ">= 2")),
    "study.heat_horizon": _Key(float, 0.25, bound=_FINITE_POSITIVE),
    "seed": _Key(int, 0, bound=_NONNEGATIVE),
}


def _convert(key: str, raw: str, line_no: int) -> Any:
    entry = SCHEMA[key]
    try:
        if entry.type is int:
            value: Any = int(raw)
        elif entry.type is float:
            value = float(raw)
        else:
            value = raw
    except ValueError as exc:
        raise ConfigError(
            f"line {line_no}: invalid {entry.type.__name__} for '{key}': {raw!r}"
        ) from exc
    if entry.choices is not None and value not in entry.choices:
        raise ConfigError(
            f"line {line_no}: '{key}' must be one of {entry.choices}, got {value!r}"
        )
    return value


@dataclass
class ExperimentConfig:
    values: dict  # typed; a list key keeps its text, which manifest.json echoes
    lists: dict  # the list keys' floats, parsed by parse_config

    def __getitem__(self, key: str) -> Any:
        return self.values[key]

    @property
    def kind(self) -> str:
        return self.values["experiment.kind"]

    def make_model(self):
        name = self.values["model.name"]
        coupling = "none" if name == "decoupled" else name
        return builtin_quadratic(
            theta=self.values["model.theta"],
            coupling=coupling,
            dim=self.values["grid.dim"],
            t0=self.values["grid.t0"],
            T=self.values["grid.T"],
            m0=self.values["model.m0"],
            hamiltonian=self.values["model.hamiltonian"],
            m0_amplitude=self.values["model.m0_amplitude"],
        )

    def make_grid(self):
        return TorusGrid(
            dim=self.values["grid.dim"],
            n_space=self.values["grid.n_space"],
            n_time=self.values["grid.n_time"],
            t0=self.values["grid.t0"],
            T=self.values["grid.T"],
        )


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate config text, with the entries of every list key,
    the bounds of its values, the grid it describes, that the convergence
    study has two resolutions to fit, and that an attractor experiment has
    its Picard reference."""
    values: dict[str, Any] = {}
    seen: dict[str, int] = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {line_no}: expected 'key = value', got {line!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in SCHEMA:
            raise ConfigError(f"line {line_no}: unknown key '{key}'")
        if key in seen:
            raise ConfigError(
                f"line {line_no}: duplicate key '{key}' (first set on line {seen[key]})"
            )
        seen[key] = line_no
        values[key] = _convert(key, raw, line_no)
    lists = {}
    for key, entry in SCHEMA.items():
        if key not in values:
            if entry.required:
                raise ConfigError(f"missing required key '{key}'")
            values[key] = entry.default
        raw = values[key]
        if entry.type is str and entry.choices is None:  # comma-separated floats
            try:
                lists[key] = [float(tok) for tok in raw.split(",")] if raw.strip() else []
            except ValueError as exc:
                raise ConfigError(
                    f"line {seen[key]}: '{key}' is not a comma-separated float list: {raw!r}"
                ) from exc
        if entry.bound is not None:
            test, text = entry.bound
            for v in lists.get(key, [raw]):
                if not test(v):
                    raise ConfigError(f"line {seen[key]}: '{key}' must be {text}, got {v!r}")
    if len({round(n) for n in lists["study.n_list"]}) < 2:
        raise ConfigError(
            f"line {seen['study.n_list']}: 'study.n_list' must be two or more distinct "
            f"resolutions to fit an order, got {values['study.n_list']!r}"
        )
    if lists["fp.attractor_deltas"] and values["fp.reference"] != "picard":
        raise ConfigError(
            f"line {seen['fp.attractor_deltas']}: 'fp.attractor_deltas' needs "
            "fp.reference = picard, the solution its trials are measured against"
        )
    cfg = ExperimentConfig(values, lists)
    try:
        cfg.make_grid()
    except GridError as exc:
        raise ConfigError(f"grid: {exc}") from exc
    return cfg


def load_config(path) -> ExperimentConfig:
    with open(path, encoding="utf-8") as fh:
        return parse_config(fh.read())
