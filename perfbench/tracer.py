"""Span tracer that wraps plumefront's public functions from outside the package.

A traced run replaces each listed function (or method) by a timing wrapper in
every ``plumefront`` module that holds a reference to it, so calls made
through ``montecarlo``'s by-name imports or through the ``np.vectorize``
lambdas in ``estimation`` (which look ``kummer_m`` up in the module globals)
are seen as well.  Every original is put back when the tracer is closed, so
an untraced run executes unpatched code.

Spans (id, name, start, end, parent, operation id) are kept in memory and
written out when the run ends.  Leaf functions that are called tens of
thousands of times are not recorded one span per call: their calls and total
time are aggregated per parent, keyed by the nearest recorded span and the
chain of aggregated frames below it, which keeps the call tree exact.

A node's self time is its duration minus the durations of its direct
children.  Calls never overlap in one thread, so the self times of all nodes
plus the time no root span covers add up to the traced wall time.
"""

from __future__ import annotations

import array
import importlib
import json
import sys
import time
from dataclasses import dataclass
from typing import Callable

PACKAGE = "plumefront"

@dataclass(frozen=True)
class Target:
    """One public function or method to trace.

    module    module name below the package, e.g. "specfun"
    qualname  "kummer_m" or "GaussianField.value"
    aggregate count per parent instead of one span per call
    observe   optional hook (tracer, args, kwargs, result, exc, seconds) -> None,
              for span targets
    """

    module: str
    qualname: str
    aggregate: bool = False
    observe: Callable | None = None

    @property
    def name(self) -> str:
        return f"{self.module}.{self.qualname}"


class _Span:
    __slots__ = ("id", "name", "start", "end", "parent", "op", "children")

    def __init__(self, span_id, name, parent, op):
        self.id, self.name, self.parent, self.op = span_id, name, parent, op
        self.start = self.end = 0.0
        self.children = {}  # aggregated child name -> _Agg


class _Agg:
    __slots__ = ("key", "calls", "total", "children")

    def __init__(self, key):
        self.key = key  # (anchor span id or None, (name, ...))
        self.calls = 0
        self.total = 0.0
        self.children = {}


class Tracer:
    """Patch targets on enter, restore them on close; record the call tree."""

    def __init__(self, targets, clock=time.perf_counter):
        self.targets = list(targets)
        self.clock = clock
        self.op = None
        self.counters: dict[str, float] = {}
        self.max_rel_err: dict[str, float] = {}
        self._spans: list[_Span] = []
        self._aggs: dict[tuple, _Agg] = {}
        self._root = _Span(None, "", None, None)
        self._stack: list = [self._root]
        self._patches: list[tuple] = []  # (holder, attr, original)
        self._arg_buffers: dict[str, array.array] = {}
        self._arg_checkers: dict[str, Callable] = {}

    # -- patching ----------------------------------------------------------

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    def install(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        try:
            for target in self.targets:
                self._install_one(target, modules)
        except BaseException:
            self.close()
            raise

    def _install_one(self, target: Target, modules):
        home = importlib.import_module(f"{PACKAGE}.{target.module}")
        owner_name, _, attr = target.qualname.rpartition(".")
        if owner_name:
            owner = getattr(home, owner_name)
            original = owner.__dict__[attr]
            self._patch(owner, attr, original, self._wrap(target, original))
            return
        original = getattr(home, attr)
        wrapper = self._wrap(target, original)
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, name, original, wrapper)

    def _patch(self, holder, attr, original, wrapper):
        setattr(holder, attr, wrapper)
        self._patches.append((holder, attr, original))

    def close(self):
        """Put every original back (last patch first) and finish pending checks."""
        while self._patches:
            holder, attr, original = self._patches.pop()
            setattr(holder, attr, original)
        for name in list(self._arg_buffers):
            self._flush_args(name)

    def flush_args(self):
        """Check the buffered arguments, each name in a root span `trace.argcheck`.

        Call it between operations, when no traced function is running, so
        the check is charged to no layer.
        """
        for name, buf in list(self._arg_buffers.items()):
            if len(buf):
                self.timed("trace.argcheck", self._flush_args, name)

    # -- recording ---------------------------------------------------------

    def record_args(self, name: str, checker: Callable):
        """Keep the positional arguments and value of every call to `name`
        until the next flush_args() or close().

        checker(flat float buffer) -> max relative error over those calls.
        """
        self._arg_buffers[name] = array.array("d")
        self._arg_checkers[name] = checker
        self.max_rel_err.setdefault(name, 0.0)

    def _flush_args(self, name: str):
        buf = self._arg_buffers[name]
        if len(buf):
            self._arg_buffers[name] = array.array("d")
            self.max_rel_err[name] = max(self.max_rel_err[name], self._arg_checkers[name](buf))

    def count(self, key: str, amount: float = 1.0):
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def _child_agg(self, parent, name: str) -> _Agg:
        if isinstance(parent, _Span):
            key = (parent.id, (name,))
        else:
            key = (parent.key[0], parent.key[1] + (name,))
        agg = parent.children[name] = self._aggs[key] = _Agg(key)
        return agg

    def _wrap(self, target: Target, fn):
        name = target.name
        if target.aggregate:
            wrapper = self._leaf_wrapper(name, fn)
        else:
            wrapper = self._span_wrapper(target, fn)
        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def _leaf_wrapper(self, name, fn):
        tracer, stack, clock = self, self._stack, self.clock
        buffers = self._arg_buffers

        def leaf(*args, **kwargs):
            parent = stack[-1]
            agg = parent.children.get(name) or tracer._child_agg(parent, name)
            stack.append(agg)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                agg.total += clock() - start
                agg.calls += 1
                stack.pop()
            buf = buffers.get(name)
            if buf is not None:
                buf.extend(args)
                buf.append(getattr(result, "value", result))
            return result

        return leaf

    def _span_wrapper(self, target: Target, fn):
        tracer, name, observe = self, target.name, target.observe

        def spanned(*args, **kwargs):
            node = tracer._open(name)
            start = tracer.clock()
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                end = tracer.clock()
                tracer._finish(node, start, end)
                if observe is not None:
                    observe(tracer, args, kwargs, result, exc, end - start)

        return spanned

    def _open(self, name) -> _Span:
        node = _Span(len(self._spans), name, self._anchor(), self.op)
        self._spans.append(node)
        self._stack.append(node)
        return node

    def _finish(self, node: _Span, start, end):
        self._stack.pop()
        node.start, node.end = start, end

    def _anchor(self) -> int | None:
        for node in reversed(self._stack):
            if isinstance(node, _Span):
                return node.id
        return None

    def timed(self, name: str, fn, *args):
        """Run fn as a recorded span of its own (used for tracer bookkeeping)."""
        node = self._open(name)
        start = self.clock()
        try:
            return fn(*args)
        finally:
            self._finish(node, start, self.clock())

    # -- results -----------------------------------------------------------

    @property
    def spans(self) -> list[list]:
        """[id, name, start, end, parent, op] for every recorded span."""
        return [[s.id, s.name, s.start, s.end, s.parent, s.op] for s in self._spans]

    @property
    def aggregates(self) -> dict[tuple, list]:
        """(anchor span id or None, name path) -> [calls, total_s]."""
        return {key: [a.calls, a.total] for key, a in self._aggs.items()}

    def dump(self, path, extra=None):
        payload = {
            "spans": self.spans,
            "aggregates": [[k[0], list(k[1]), v[0], v[1]] for k, v in self.aggregates.items()],
            "counters": self.counters,
            "max_rel_err": self.max_rel_err,
        }
        payload.update(extra or {})
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


def self_times(spans, aggregates, wall: float):
    """Per-name calls and self time, plus the wall time no root span covers.

    spans       iterable of [id, name, start, end, parent, op]
    aggregates  mapping (anchor span id or None, name path) -> [calls, total_s]

    Returns ({name: {"calls": n, "self_s": s}}, unattributed_s).
    """
    child_total: dict = {}
    root_total = 0.0
    per_name: dict[str, dict] = {}

    def add(name, calls, self_s):
        entry = per_name.setdefault(name, {"calls": 0, "self_s": 0.0})
        entry["calls"] += calls
        entry["self_s"] += self_s

    for _, _, start, end, parent, _ in spans:
        if parent is None:
            root_total += end - start
        else:
            child_total[("span", parent)] = child_total.get(("span", parent), 0.0) + end - start
    for (anchor, path), (_, total) in aggregates.items():
        if len(path) > 1:
            parent = ("agg", anchor, tuple(path[:-1]))
        elif anchor is not None:
            parent = ("span", anchor)
        else:
            root_total += total
            continue
        child_total[parent] = child_total.get(parent, 0.0) + total

    for span_id, name, start, end, _, _ in spans:
        add(name, 1, (end - start) - child_total.get(("span", span_id), 0.0))
    for (anchor, path), (calls, total) in aggregates.items():
        add(path[-1], calls, total - child_total.get(("agg", anchor, tuple(path)), 0.0))
    return per_name, wall - root_total
