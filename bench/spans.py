"""Outside-in layer trace for lpgreedy.

Each layer is one module of ``src/lpgreedy``.  ``Tracer.install`` wraps the
module-level functions listed below at every place they are bound (the
defining module, each module that imported them, and the package), so calls
between modules and within one module pass through the wrapper.  No source
file of the package changes.

A span's self time is its duration minus the time its child spans cover.
Spans are grouped under the benchmark's own root spans (``setup``, ``run``,
``audit``), so the self times under a root add up to the root's duration.
Functions called far too often for a timed span (``pnorm`` and friends) are
counted only; their time stays with their caller.

Each span also belongs to one of the four phases of a greedy iteration
(select, step, measure, audit): the phase of its outermost phase-carrying
ancestor, else its own.  So ``min_along_ray`` inside the norm scan counts as
select, inside a projection as step, and ``line_search`` inside the
error-reduction reference counts as measure.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# layer -> phase (None: no phase of its own)
SPANNED = {
    "solvers.chebyshev_project": "step",
    "solvers.min_along_ray": "step",
    "solvers.line_search": "step",
    "solvers.bracket_minimum": "step",
    "solvers.minimize_2d": "step",
    "solvers.dense_line_min": "measure",
    "algorithms.run_greedy": None,
    "algorithms._functional": "select",
    "algorithms._xgreedy_scan": "select",
    "algorithms._rescale": "step",
    "algorithms._two_dir_solve": "step",
    "algorithms._er_reference": "measure",
    "algorithms._grid_margins": "measure",
    "algorithms._measured_bo": "measure",
    "dictionary.greedy_select": "select",
    "dictionary.build_dictionary": None,
    "dictionary.make_target": None,
    "space.dict_dual_norm": "select",
    "perturbation.perturbed_functional": "select",
    "perturbation.relaxed_minimize": "step",
    "perturbation.run_awbga": None,
    "harness.emit_csv": None,
    "harness.summarize": None,
    "diagnostics.audit_conditions": "audit",
    "diagnostics.error_reduction_margins": "audit",
    "diagnostics.verify_rates": "audit",
}
COUNTED = ("space.pnorm", "space.pnorm_rows", "space.functional_coords")
# RunReport's JSON methods are one layer: the report format of the harness
REPORT_JSON = "harness.report_json"
PHASES = ("select", "step", "measure", "audit")
UNTRACED = "(untraced)"  # a root's self time: work outside every layer


def _lp_modules() -> dict:
    return {name: mod for name, mod in list(sys.modules.items())
            if name == "lpgreedy" or name.startswith("lpgreedy.")}


class Tracer:
    """Span and call aggregates, keyed by (root, layer)."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.phase_ns = defaultdict(int)
        self.counts = defaultdict(int)   # extra counters, e.g. solver iterations
        self.root_ns = defaultdict(int)
        self._stack = []                 # frames: [child_ns, phase]
        self._root = None

    # -- installation --

    def install(self) -> None:
        """Wrap every listed function of the currently imported lpgreedy."""
        mods = _lp_modules()
        for label, phase in SPANNED.items():
            mod, fn = label.split(".")
            orig = getattr(mods["lpgreedy." + mod], fn)
            post = self._projection_counts if label == "solvers.chebyshev_project" else None
            self._rebind(mods, orig, self._span(label, phase, orig, post))
        for label in COUNTED:
            mod, fn = label.split(".")
            orig = getattr(mods["lpgreedy." + mod], fn)
            self._rebind(mods, orig, self._count(label, orig))
        report = mods["lpgreedy.algorithms"].RunReport
        report.to_json = self._span(REPORT_JSON, None, report.to_json)
        report.from_json = staticmethod(
            self._span(REPORT_JSON, None, report.__dict__["from_json"].__func__))

    @staticmethod
    def _rebind(mods: dict, orig, wrapper) -> None:
        for mod in mods.values():
            for name, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, name, wrapper)

    def _span(self, label: str, phase, fn, post=None):
        stack = self._stack

        def wrapper(*args, **kwargs):
            frame = [0, (stack[-1][1] if stack else None) or phase]
            stack.append(frame)
            t0 = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter_ns() - t0
                stack.pop()
                own = dt - frame[0]
                key = (self._root, label)
                self.calls[key] += 1
                self.self_ns[key] += own
                if frame[1]:
                    self.phase_ns[(self._root, frame[1])] += own
                if stack:
                    stack[-1][0] += dt
            if post is not None:
                post(out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, label: str, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[(self._root, label)] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _projection_counts(self, result) -> None:
        self.counts[(self._root, "solvers.chebyshev_project.iters")] += result.iterations
        if not result.converged:
            self.counts[(self._root, "solvers.chebyshev_project.unconverged")] += 1

    # -- the benchmark's own spans --

    @contextmanager
    def root(self, name: str):
        """Top-level span around the benchmark's calls into the program."""
        frame = [0, None]
        self._root = name
        self._stack.append(frame)
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            dt = time.perf_counter_ns() - t0
            self._stack.pop()
            self.root_ns[name] += dt
            self.self_ns[(name, UNTRACED)] += dt - frame[0]
            self._root = None

    def add(self, root: str, name: str, value: int) -> None:
        self.counts[(root, name)] += value

    # -- results --

    def per_layer(self, per: dict) -> dict:
        """Per-layer figures, each root's totals divided by ``per[root]``
        (set-ups for the set-up root, rounds for the others)."""

        def total(table, name):
            return sum(table[(root, name)] / n for root, n in per.items())

        out = {}
        for label in list(SPANNED) + [REPORT_JSON]:
            out[label + ".self_s"] = total(self.self_ns, label) / 1e9
            out[label + ".calls"] = total(self.calls, label)
        for label in COUNTED:
            out[label + ".calls"] = total(self.calls, label)
        for name in ("solvers.chebyshev_project.iters",
                     "solvers.chebyshev_project.unconverged",
                     "algorithms.iterations"):
            out[name] = total(self.counts, name)
        for phase in PHASES:
            out[f"phase.{phase}_s"] = total(self.phase_ns, phase) / 1e9
        return out

    def accounting(self, per: dict) -> dict:
        """For each root: its duration and the sum of the self times under
        it, both per set-up or per round; the two agree by construction."""
        out = {}
        for root, n in per.items():
            under = sum(v for (r, _), v in self.self_ns.items() if r == root)
            out[root] = {"duration_s": self.root_ns[root] / n / 1e9,
                         "self_sum_s": under / n / 1e9,
                         "untraced_s": self.self_ns[(root, UNTRACED)] / n / 1e9}
        return out
