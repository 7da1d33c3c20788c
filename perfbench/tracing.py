"""Layer-boundary tracing for the benchmark's traced run.

The tracer replaces a layer's public functions at the name their caller
looks up (``synapsim.engine.mna.drain_current_and_grads``, because
``mna`` imports that function by name) with wrappers that record one
span per call: name, start, end, parent span and op id.  Spans stay in
memory, in flat arrays that the garbage collector does not scan, until
the run writes them out.  Nothing in the package changes;
``uninstall`` puts every original object back.

A boundary whose target no longer exists is reported as absent rather
than raising, so the benchmark keeps working across refactors that
remove an internal name.
"""

from __future__ import annotations

import gzip
import importlib
import json
import time
import types
from array import array
from collections import Counter
from dataclasses import dataclass

# boundary name -> (module, attribute path, method) targets.  A method
# name wraps that method of a class through a subclass; a dotted
# attribute path wraps a function reached through a module global (the
# engine calls ``np.linalg.solve``).  "workloads" is the benchmark's own
# module, where the benchmark looks up the functions it calls.
BOUNDARIES = {
    "mosfet.solve": [("workloads", "solve_charge_householder", None)],
    "mosfet.current": [("workloads", "current_from_charges", None)],
    "mosfet.partition": [("workloads", "terminal_charges_grid", None)],
    "mosfet.stamp": [("synapsim.engine.mna", "drain_current_and_grads", None)],
    "rram.stamp": [("synapsim.engine.mna", "rram_current_and_grads", None),
                   ("synapsim.engine.mna", "state_rate_and_grads", None)],
    "floatgate.stamp": [("synapsim.engine.mna", "fn_current_and_grad", None)],
    "engine.layout": [("synapsim.engine.analysis", "SystemLayout", None)],
    "engine.assemble": [("synapsim.engine.mna", "Assembler", "assemble")],
    "engine.linsolve": [("synapsim.engine.mna", "np.linalg.solve", None)],
    "engine.newton": [("synapsim.engine.mna", "newton_solve", None),
                      ("synapsim.engine.analysis", "newton_solve", None)],
    "engine.op": [("synapsim.engine", "operating_point", None),
                  ("synapsim.neuro.crossbar", "operating_point", None)],
    "engine.tran": [("synapsim.engine", "transient", None),
                    ("synapsim.neuro.crossbar", "transient", None)],
    "neuro.read": [("workloads", "read_outputs", None),
                   ("synapsim.neuro.crossbar", "read_outputs", None)],
    "neuro.program": [("synapsim.neuro.crossbar", "program_weights", None)],
    "neuro.train": [("workloads", "train_and_gate", None)],
}


# counts read off a boundary's return value
def _newton_hook(counts, out):
    if not out[1]:
        counts["engine.newton_failed"] += 1


def _layout_hook(counts, out):
    counts["engine.unknowns_max"] = max(counts["engine.unknowns_max"],
                                        out.size)


def _tran_hook(counts, out):
    counts["engine.tran_steps"] += out.data.shape[0] - 1


def _program_hook(counts, out):
    counts["neuro.pulses"] += out.total_pulses
    counts["neuro.devices"] += len(out.devices)
    counts["neuro.converged"] += sum(d.converged for d in out.devices)


def _train_hook(counts, out):
    counts["neuro.epochs"] += out.epochs_used


HOOKS = {
    "engine.newton": _newton_hook,
    "engine.layout": _layout_hook,
    "engine.tran": _tran_hook,
    "neuro.program": _program_hook,
    "neuro.train": _train_hook,
}


def _namespace_with(target, name: str, value):
    """Copy of a module's namespace with one attribute replaced; plain
    attribute lookups on it cost what they cost on the module."""
    ns = types.SimpleNamespace(**vars(target))
    setattr(ns, name, value)
    return ns


@dataclass
class LayerStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """Records spans at the layer boundaries while installed."""

    def __init__(self):
        self.names: list[str] = list(BOUNDARIES)
        # one entry per span: boundary index, parent span (-1 at top
        # level), op id, start and end times
        self.name_ids, self.parents, self.ops = (array("i"), array("q"),
                                                 array("q"))
        self.starts, self.ends = array("d"), array("d")
        self._stack: list = []
        self.op_id = -1
        self.counts: Counter = Counter()
        self.hook_errors: Counter = Counter()
        self.present: set = set()
        self.absent: set = set()
        self._restore: list = []

    # -- wrapping -------------------------------------------------------
    def _wrap(self, name: str, fn):
        name_id = self.names.index(name)
        stack, clock = self._stack, time.perf_counter
        name_ids, parents, ops = self.name_ids, self.parents, self.ops
        starts, ends = self.starts, self.ends
        hook = HOOKS.get(name)

        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                try:
                    hook(self.counts, out)
                except (AttributeError, TypeError, IndexError):
                    self.hook_errors[name] += 1
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for name, targets in BOUNDARIES.items():
            found = False
            for modname, path, method in targets:
                try:
                    mod = importlib.import_module(modname)
                except ImportError:
                    continue
                head, *rest = path.split(".")
                obj = getattr(mod, head, None)
                leaf = obj
                for part in rest:
                    leaf = getattr(leaf, part, None)
                if leaf is None or (method and not hasattr(leaf, method)):
                    continue
                found = True
                if method:
                    replacement = type(leaf.__name__, (leaf,), {
                        method: self._wrap(name, getattr(leaf, method))})
                elif rest:
                    replacement = self._proxy_chain(obj, rest,
                                                    self._wrap(name, leaf))
                else:
                    replacement = self._wrap(name, leaf)
                self._restore.append((mod, head, obj))
                setattr(mod, head, replacement)
            (self.present if found else self.absent).add(name)

    @staticmethod
    def _proxy_chain(obj, parts, leaf):
        if len(parts) == 1:
            return _namespace_with(obj, parts[0], leaf)
        inner = getattr(obj, parts[0])
        return _namespace_with(obj, parts[0],
                               Tracer._proxy_chain(inner, parts[1:], leaf))

    def uninstall(self) -> None:
        for mod, head, obj in reversed(self._restore):
            setattr(mod, head, obj)
        self._restore.clear()

    # -- results --------------------------------------------------------
    def layer_stats(self) -> dict[str, LayerStats]:
        """Calls, total time and self time per boundary name.

        Self time is a span's duration minus the time its child spans
        cover; spans nest strictly because the benchmark is one thread.
        """
        durations = [e - s for s, e in zip(self.starts, self.ends)]
        child = [0.0] * len(durations)
        for parent, d in zip(self.parents, durations):
            if parent >= 0:
                child[parent] += d
        stats = [LayerStats() for _ in self.names]
        for name_id, d, c in zip(self.name_ids, durations, child):
            st = stats[name_id]
            st.calls += 1
            st.total_s += d
            st.self_s += d - c
        return dict(zip(self.names, stats))

    def write(self, path, meta: dict) -> None:
        """Write the recorded spans as gzipped JSON."""
        doc = {**meta, "names": self.names,
               "fields": ["name", "start_s", "end_s", "parent", "op"],
               "spans": [list(row) for row in zip(
                   self.name_ids, self.starts, self.ends, self.parents,
                   self.ops)]}
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(doc, fh)
