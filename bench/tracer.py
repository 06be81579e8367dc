"""In-memory span tracer for apobench's layers.

The tracer replaces the public functions of each layer module with timing
wrappers, from outside the program: every module attribute that refers to a
wrapped function (``forward`` is bound by name in ``apo``, ``tasks``,
``oracles``, ``harness.runner`` and ``harness.ppmdemo``) is patched, and every
patch is undone when the ``installed()`` block ends.  Spans live in flat
arrays while the program runs; self time, per-layer totals and ancestry
counts are computed afterwards.

A span name is the function's module path below ``apobench`` plus its name,
e.g. ``diffnet.forward`` or ``harness.runner.run``; its first component is
the layer.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time
from array import array
from collections import Counter

import numpy as np

LAYER_MODULES = ("apobench.diffnet", "apobench.baseopt", "apobench.kronprecond",
                 "apobench.apo", "apobench.tasks", "apobench.oracles",
                 "apobench.numkit", "apobench.harness.config",
                 "apobench.harness.runner", "apobench.harness.ppmdemo")
LAYERS = ("diffnet", "baseopt", "kronprecond", "apo", "tasks", "oracles",
          "numkit", "harness")
# ParamSet methods are counted, not timed: they are the per-layer container
# operations a flat parameter buffer would remove.
PARAMSET_OPS = ("map", "map2", "copy", "dot", "sq_norm", "to_flat", "from_flat")
# Per-task closures built by tasks.build_task; wrapped on each returned Task.
TASK_CALLABLES = ("sample_batch", "eval_loss", "init_theta")


def _first_matrix_shape(args, kwargs):
    for value in (*args, *kwargs.values()):
        if isinstance(value, np.ndarray) and value.ndim == 2:
            return value.shape
    return None


def _forward_rows(counts, args, kwargs):
    shape = _first_matrix_shape(args, kwargs)
    counts["diffnet.forward.rows"] += shape[0] if shape else 0


def _kron_flops(per_mn):
    """Matmul flop count of a Kronecker-factored product on an m x n
    gradient: per_mn * m * n * (m + n), counted from the gradient's shape."""

    def hook(counts, args, kwargs):
        shape = _first_matrix_shape(args, kwargs)
        if shape:
            m, n = shape
            counts["kronprecond.matmul_flops"] += per_mn * m * n * (m + n)

    return hook


# precond_vjp: six (m x m)(m x n) and six (m x n)(n x n) products, 2 flops per
# multiply-add; apply_precond: two of each.
COUNT_HOOKS = {
    "diffnet.forward": _forward_rows,
    "kronprecond.precond_vjp": _kron_flops(12),
    "kronprecond.apply_precond": _kron_flops(4),
}


def qualified_name(module_name, attr):
    return f"{module_name.removeprefix('apobench.')}.{attr}"


class Tracer:
    """Spans (name, parent, start, end) and exact counters for one process."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = []
        self.counts = Counter()
        self._patches = []

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn, hook=None):
        """Return fn wrapped so that each call records one span."""
        nid = self._name_id(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        counts = self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if hook is not None:
                hook(counts, args, kwargs)
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def _counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _traced_build_task(self, build_task):
        def build_task_with_traced_closures(*args, **kwargs):
            task = build_task(*args, **kwargs)
            for attr in TASK_CALLABLES:
                setattr(task, attr, self.wrap(f"tasks.{attr}", getattr(task, attr)))
            return task

        return functools.wraps(build_task)(build_task_with_traced_closures)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer is already installed")
        wrappers = {}
        for module_name in LAYER_MODULES:
            module = importlib.import_module(module_name)
            for attr, obj in vars(module).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != module_name):
                    continue
                name = qualified_name(module_name, attr)
                target = (self._traced_build_task(obj) if name == "tasks.build_task"
                          else obj)
                wrappers[id(obj)] = (obj, self.wrap(name, target, COUNT_HOOKS.get(name)))
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("apobench"):
                continue
            for attr, obj in list(vars(module).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._patch(module, attr, entry[1])
        paramset = importlib.import_module("apobench.diffnet").ParamSet
        for op in PARAMSET_OPS:
            if op in vars(paramset):
                self._patch(paramset, op,
                            self._counted(f"diffnet.ParamSet.{op}", vars(paramset)[op]))

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()

    # ----- analysis -------------------------------------------------------

    def arrays(self):
        """Copies of the span columns: name id, parent index, start, end."""
        return (np.array(self.span_name, dtype=np.int32),
                np.array(self.span_parent, dtype=np.int32),
                np.array(self.span_start, dtype=np.float64),
                np.array(self.span_end, dtype=np.float64))

    def self_time(self):
        """Per span: its duration minus the time its child spans cover."""
        _, parent, start, end = self.arrays()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        return dur - child

    def name_mask(self, predicate):
        """Per span: whether its name satisfies predicate(name)."""
        hits = np.array([bool(predicate(n)) for n in self.names] + [False])
        name = self.arrays()[0]
        return hits[name] if len(name) else np.zeros(0, dtype=bool)

    def under(self, root):
        """Per span: whether a proper ancestor is marked in the bool array root."""
        marked = root.tolist()
        flags = [False] * len(marked)
        for i, p in enumerate(self.span_parent):
            if p >= 0 and (flags[p] or marked[p]):
                flags[i] = True
        return np.array(flags, dtype=bool)

    def table(self, mask=None):
        """Per span name: calls, total seconds and self seconds, over the
        spans selected by the bool array mask (all spans by default)."""
        name, _, start, end = self.arrays()
        dur = end - start
        own = self.self_time()
        if mask is not None:
            name, dur, own = name[mask], dur[mask], own[mask]
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=dur, minlength=k)
        self_s = np.bincount(name, weights=own, minlength=k)
        return {n: {"calls": int(calls[i]), "total_s": float(total[i]),
                    "self_s": float(self_s[i])} for i, n in enumerate(self.names)}

    def save(self, path):
        """Write every span and the name table to a compressed .npz file."""
        name, parent, start, end = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name=name,
                            parent=parent, start=start, end=end)
