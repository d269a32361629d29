"""Spans and counts around the package's public calls, for the traced run.

The package is instrumented from outside: every public function of interest
is replaced by a timing wrapper at each place it is bound.  ``mfg``,
``fictitious_play``, ``nonuniqueness`` and others import names such as
``solve_hjb`` with ``from .pde import ...``, so rebinding the defining module
alone would miss most calls; ``install`` rebinds the name in every loaded
``mfg_lab`` module that holds the same object.  Methods are wrapped on their
class, the model's Hamiltonian and coupling callables on a copy of the
model, and scipy's ``splu`` on a proxy of ``scipy.sparse.linalg`` that only
``mfg_lab.stability`` sees.

Spans (name, start, end, parent, task) are kept in compact arrays in memory
and written out by ``save``.  A span's self time is its duration minus the
time covered by its child spans; children never overlap, since the package
runs on one thread.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import statistics
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

import mfg_lab.fictitious_play as fictitious_play
import mfg_lab.grid as grid
import mfg_lab.mfg as mfg
import mfg_lab.nonuniqueness as nonuniqueness
import mfg_lab.pde as pde
import mfg_lab.potential as potential
import mfg_lab.stability as stability
from mfg_lab.models import Coupling, MfgModel

# Per-layer metrics, with the unit each is reported in.  Values are per-task
# means over the traced tasks, except round_s_p50 (median over all rounds)
# and trace.overhead_s (run.py).
PER_LAYER = {
    "grid.stencil_calls": "count",
    "grid.stencil_s": "s",
    "grid.norm_s": "s",
    "models.hamiltonian_s": "s",
    "models.coupling_s": "s",
    "models.kernel_bytes": "bytes",
    "pde.hjb_sweeps": "count",
    "pde.hjb_s": "s",
    "pde.kolmogorov_sweeps": "count",
    "pde.kolmogorov_s": "s",
    "pde.heat_steps": "count",
    "pde.heat_step_s": "s",
    "pde.residual_s": "s",
    "mfg.picard_solves": "count",
    "mfg.picard_iterations": "count",
    "mfg.picard_converged_ratio": "ratio",
    "mfg.picard_self_s": "s",
    "mfg.drift_s": "s",
    "potential.evaluate_J_s": "s",
    "stability.certificates": "count",
    "stability.n_unknowns": "count",
    "stability.assemble_s": "s",
    "stability.operator_nnz": "count",
    "stability.certify_dense_s": "s",
    "stability.certify_sparse_s": "s",
    "stability.lu_s": "s",
    "stability.lu_fill_nnz": "count",
    "fictitious_play.rounds": "count",
    "fictitious_play.round_s_p50": "s",
    "fictitious_play.self_s": "s",
    "nonuniqueness.symmetric_s": "s",
    "nonuniqueness.asymmetric_self_s": "s",
    "nonuniqueness.pairs_found_ratio": "ratio",
    "trace.coverage": "ratio",
    "trace.overhead_s": "s",
}


# -- hooks that turn a call's result into counts --------------------------


def _kernel_bytes(tr, own_s, result):
    tr.add("models.kernel_bytes", np.asarray(result).nbytes)


def _picard(tr, own_s, sol):
    tr.add("mfg.picard_iterations", sol.iterations)
    tr.add("mfg.picard_converged", int(sol.converged))


def _certificate(tr, own_s, cert):
    tr.add("stability.n_unknowns", cert.n_unknowns)
    side = "dense" if cert.method.startswith("dense") else "sparse"
    tr.add(f"stability.certify_{side}_s", own_s)


def _operator(tr, own_s, mat):
    tr.add("stability.operator_nnz", mat.nnz)


def _lu(tr, own_s, lu):
    tr.add("stability.lu_fill_nnz", lu.L.nnz + lu.U.nnz)


def _pair(tr, own_s, out):
    tr.add("nonuniqueness.pairs_found", int(out[0] is not None))


# (module, attribute, group, hook): a group's time is the inclusive time of
# its outermost spans, so nested members (laplacian -> gradient) count once
FUNCTIONS = [
    (grid, "gradient", "grid.stencil", None),
    (grid, "divergence", "grid.stencil", None),
    (grid, "laplacian", "grid.stencil", None),
    *((grid, n, "grid.norm", None) for n in (
        "integrate", "inner", "l2_norm", "sup_norm", "h1_norm", "c10_norm",
        "c10_norm_field")),
    (pde, "solve_hjb", "pde.hjb", None),
    (pde, "solve_kolmogorov", "pde.kolmogorov", None),
    (pde, "solve_continuity", "pde.continuity", None),
    *((pde, n, "pde.residual", None) for n in (
        "hjb_residual", "kolmogorov_residual", "continuity_residual")),
    (mfg, "solve_picard", "mfg.picard", _picard),
    (mfg, "drift_field", "mfg.drift", None),
    (mfg, "heat_flow_of_initial", "mfg.heat_flow", None),
    (mfg, "solution_distance", "mfg.distance", None),
    (potential, "evaluate_J", "potential.evaluate_J", None),
    (stability, "assemble_operator", "stability.operator", None),
    (stability, "certify_stability", "stability.certify", _certificate),
    (fictitious_play, "fp_start", "fictitious_play", None),
    (fictitious_play, "fp_step", "fictitious_play", None),
    (fictitious_play, "run_fp", "fictitious_play", None),
    (nonuniqueness, "find_symmetric_branch", "nonuniqueness.symmetric", None),
    (nonuniqueness, "find_asymmetric_branch", "nonuniqueness.asymmetric", None),
    (nonuniqueness, "make_branch_pair", "nonuniqueness.pair", _pair),
]

METHODS = [
    (pde.PeriodicHeatSolver, "step", "pde.heat_step", None),
    (Coupling, "f_field", "models.coupling", None),
    (stability.AssembledOperator, "to_sparse", "stability.assemble", _operator),
]

HAMILTONIAN_FIELDS = ("value", "grad_p", "hess_pp", "grad_x")
COUPLING_FIELDS = {"f": None, "F": None, "g": None, "G": None,
                   "kernel_f": _kernel_bytes, "kernel_g": _kernel_bytes}


class _ModuleProxy:
    """A module seen through a few replaced attributes."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    """Spans of the traced tasks, and per-task counts; one task at a time."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._group_ids: dict[str, int] = {}
        # one entry per closed span: (index, name id, parent index, task) and
        # (start, end, self time); the index orders spans by their start
        self._ints = array("i")
        self._floats = array("d")
        self._next_index = itertools.count()
        self._stack: list[list] = []
        # accumulators of the current task, by name id or group id
        self._calls: list[int] = []
        self._self_s: list[float] = []
        self._depth: list[int] = []
        self._incl_s: list[float] = []
        self._root_s = [0.0]
        self._extra: dict[str, float] = defaultdict(float)
        self.task_id = -1
        self._undo: list = []

    def add(self, key, value):
        self._extra[key] += value

    # -- wrapping -------------------------------------------------------------
    def wrap(self, fn, name, group, hook=None):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
            self._calls.append(0)
            self._self_s.append(0.0)
        if group not in self._group_ids:
            self._group_ids[group] = len(self._depth)
            self._depth.append(0)
            self._incl_s.append(0.0)
        nid, gid = self._name_ids[name], self._group_ids[group]
        stack, depth, root_s = self._stack, self._depth, self._root_s
        calls, self_s, incl_s = self._calls, self._self_s, self._incl_s
        ints, floats, next_index = self._ints, self._floats, self._next_index
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [next(next_index), 0.0]
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            depth[gid] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                depth[gid] -= 1
                dur = t1 - t0
                own = dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                else:
                    root_s[0] += dur
                ints.extend((frame[0], nid, parent, self.task_id))
                floats.extend((t0, t1, own))
                calls[nid] += 1
                self_s[nid] += own
                if not depth[gid]:
                    incl_s[gid] += dur
            if hook is not None:
                hook(self, own, result)
            return result

        return traced

    def _rebind(self, owner, attr, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self, callers=()):
        """Wrap every target at each of its import sites: the package's
        modules and the given calling modules."""
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "mfg_lab"]
        modules += callers
        for module, attr, group, hook in FUNCTIONS:
            original = getattr(module, attr)
            wrapped = self.wrap(original, f"{module.__name__.split('.')[-1]}.{attr}", group, hook)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, key, wrapped)
        for cls, attr, group, hook in METHODS:
            original = cls.__dict__[attr]
            self._rebind(cls, attr, self.wrap(original, f"{cls.__name__}.{attr}", group, hook))
        splu = self.wrap(stability.spla.splu, "scipy.splu", "stability.lu", _lu)
        self._rebind(stability, "spla", _ModuleProxy(stability.spla, splu=splu))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def instrument_model(self, model: MfgModel) -> MfgModel:
        """A copy of the model whose Hamiltonian and coupling callables are traced."""
        ham = model.hamiltonian
        ham = dataclasses.replace(ham, **{
            f: self.wrap(getattr(ham, f), f"Hamiltonian.{f}", "models.hamiltonian")
            for f in HAMILTONIAN_FIELDS})
        coup = model.coupling
        coup = dataclasses.replace(coup, **{
            f: self.wrap(getattr(coup, f), f"Coupling.{f}", "models.coupling", hook)
            for f, hook in COUPLING_FIELDS.items() if getattr(coup, f) is not None})
        return dataclasses.replace(model, hamiltonian=ham, coupling=coup)

    # -- per task -----------------------------------------------------------------
    def begin_task(self, task_id: int) -> None:
        self.task_id = task_id
        for acc in (self._calls, self._self_s, self._incl_s):
            acc[:] = [0] * len(acc)
        self._root_s[0] = 0.0
        self._extra.clear()

    def end_task(self, wall_s: float) -> dict:
        """Per-layer values of the current task, whose timed region took wall_s."""
        ids, groups, c = self._name_ids, self._group_ids, self._extra

        def calls(*names):
            return sum(self._calls[ids[n]] for n in names if n in ids)

        def self_s(*names):
            return sum(self._self_s[ids[n]] for n in names if n in ids)

        def incl(group):
            return self._incl_s[groups[group]] if group in groups else 0.0

        solves = calls("mfg.solve_picard")
        pairs = calls("nonuniqueness.make_branch_pair")
        return {
            "grid.stencil_calls": calls("grid.gradient", "grid.divergence", "grid.laplacian"),
            "grid.stencil_s": incl("grid.stencil"),
            "grid.norm_s": incl("grid.norm"),
            "models.hamiltonian_s": incl("models.hamiltonian"),
            "models.coupling_s": incl("models.coupling"),
            "models.kernel_bytes": c["models.kernel_bytes"],
            "pde.hjb_sweeps": calls("pde.solve_hjb"),
            "pde.hjb_s": incl("pde.hjb"),
            "pde.kolmogorov_sweeps": calls("pde.solve_kolmogorov"),
            "pde.kolmogorov_s": incl("pde.kolmogorov"),
            "pde.heat_steps": calls("PeriodicHeatSolver.step"),
            "pde.heat_step_s": incl("pde.heat_step"),
            "pde.residual_s": incl("pde.residual"),
            "mfg.picard_solves": solves,
            "mfg.picard_iterations": c["mfg.picard_iterations"],
            "mfg.picard_converged_ratio": c["mfg.picard_converged"] / solves if solves else 0.0,
            "mfg.picard_self_s": self_s("mfg.solve_picard"),
            "mfg.drift_s": incl("mfg.drift"),
            "potential.evaluate_J_s": incl("potential.evaluate_J"),
            "stability.certificates": calls("stability.certify_stability"),
            "stability.n_unknowns": c["stability.n_unknowns"],
            "stability.assemble_s": incl("stability.assemble"),
            "stability.operator_nnz": c["stability.operator_nnz"],
            "stability.certify_dense_s": c["stability.certify_dense_s"],
            "stability.certify_sparse_s": c["stability.certify_sparse_s"],
            "stability.lu_s": incl("stability.lu"),
            "stability.lu_fill_nnz": c["stability.lu_fill_nnz"],
            "fictitious_play.rounds": calls("fictitious_play.fp_step"),
            "fictitious_play.self_s": self_s(
                "fictitious_play.fp_start", "fictitious_play.fp_step", "fictitious_play.run_fp"),
            "nonuniqueness.symmetric_s": incl("nonuniqueness.symmetric"),
            "nonuniqueness.asymmetric_self_s": self_s("nonuniqueness.find_asymmetric_branch"),
            "nonuniqueness.pairs_found_ratio": c["nonuniqueness.pairs_found"] / pairs if pairs else 0.0,
            "trace.coverage": self._root_s[0] / wall_s,
        }

    # -- whole run ----------------------------------------------------------------
    def _columns(self):
        ints = np.array(self._ints, dtype=np.int32).reshape(-1, 4)
        floats = np.array(self._floats, dtype=np.float64).reshape(-1, 3)
        return ints, floats

    def round_s_p50(self) -> float:
        """Median duration of the fp_step spans of every traced task."""
        if "fictitious_play.fp_step" not in self._name_ids:
            return 0.0
        ints, floats = self._columns()
        sel = ints[:, 1] == self._name_ids["fictitious_play.fp_step"]
        durs = floats[sel, 1] - floats[sel, 0]
        return float(statistics.median(durs)) if durs.size else 0.0

    def save(self, path) -> None:
        ints, floats = self._columns()
        order = np.argsort(ints[:, 0])
        ints, floats = ints[order], floats[order]
        np.savez_compressed(
            path, names=np.array(self.names), name_id=ints[:, 1], parent=ints[:, 2],
            task=ints[:, 3], start=floats[:, 0], end=floats[:, 1], self_time=floats[:, 2])
