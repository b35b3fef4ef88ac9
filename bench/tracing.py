"""Outside-in tracing: time the program's layers without editing its source.

A hook replaces a function at the binding its callers look it up through
(a module global such as `bbranching.greedy.contract`, or a class attribute
such as `Digraph.__init__`) with a wrapper that records a span, and puts the
original back on `uninstall`.  Spans stay in memory as lists
`[name, op, start, end, parent]`; `summary` turns them into per-name call
counts, inclusive time and self time.

A hook whose target a later version renames or removes is recorded in
`Tracer.absent` instead of failing, and an observer that cannot read a
changed return value is recorded in `Tracer.broken`; the metrics that
depend on either are reported as -1.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Optional

perf_counter = time.perf_counter


@dataclass(frozen=True)
class Hook:
    """One wrapped binding.

    `target` is "module:attr" or "module:Class.attr".  `observe(tracer,
    args, result)` runs after each call to update counters; `adapt(tracer,
    args)` may return replacement positional arguments.  An `aggregate` hook
    keeps only a call count and busy time, for functions called too often
    to keep a span per call.  `top` hooks are the handful the end-to-end
    metrics need; the untraced run installs only those.
    """

    target: str
    name: str
    observe: Optional[Callable] = None
    adapt: Optional[Callable] = None
    aggregate: bool = False
    top: bool = False


def _resolve(target: str):
    """(owner, attr) for a hook target, or None when any part is missing."""
    module_name, _, path = target.partition(":")
    try:
        owner: Any = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not hasattr(owner, attr):
        return None
    return owner, attr


class Tracer:
    """Span and counter store plus the hooks that feed it."""

    def __init__(self):
        self.active = False
        self.absent: list[str] = []
        self.broken: set[str] = set()
        self._installed: list[tuple[Any, str, Any, bool]] = []
        self.reset()

    def reset(self) -> None:
        self.spans: list[list] = []
        self.calls: Counter = Counter()
        self.busy: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.maxima: Counter = Counter()
        self.op = 0
        self._stack: list[int] = []

    # -- installing ---------------------------------------------------------

    def install(self, hooks) -> None:
        for hook in hooks:
            found = _resolve(hook.target)
            if found is None:
                if hook.target not in self.absent:
                    self.absent.append(hook.target)
                continue
            owner, attr = found
            own = isinstance(owner, type) and attr in vars(owner)
            raw = vars(owner)[attr] if own else getattr(owner, attr)
            self._installed.append((owner, attr, raw, own or not isinstance(owner, type)))
            setattr(owner, attr, self._wrap(getattr(owner, attr), hook))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, raw, restore = self._installed.pop()
            if restore:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)

    def _wrap(self, original, hook: Hook):
        tracer = self
        name = hook.name
        if hook.aggregate:

            def counted(*args, **kwargs):
                if not tracer.active:
                    return original(*args, **kwargs)
                start = perf_counter()
                try:
                    return original(*args, **kwargs)
                finally:
                    tracer.busy[name] += perf_counter() - start
                    tracer.calls[name] += 1

            return counted

        observe, adapt = hook.observe, hook.adapt

        def traced(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            if adapt is not None:
                args = tracer._guard(name, adapt, args, default=args)
            stack = tracer._stack
            span = [name, tracer.op, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[2] = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()
            if observe is not None:
                tracer._guard(name, observe, args, result)
            return result

        return traced

    def _guard(self, name, func, *args, default=None):
        try:
            return func(self, *args)
        except Exception:  # a changed signature or result must not fail the op
            self.broken.add(name)
            return default

    # -- recording ------------------------------------------------------------

    @contextmanager
    def op_span(self, name: str):
        """Span opened by the benchmark around one op: a fresh op id, and
        tracing active inside it only.  Yields the span record."""
        self.op += 1
        record = [name, self.op, 0.0, 0.0, -1]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        self.active = True
        record[2] = perf_counter()
        try:
            yield record
        finally:
            record[3] = perf_counter()
            self.active = False
            self._stack.pop()

    # -- reading --------------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds.

        A span nested inside a span of the same name adds to the count but
        not to the inclusive time, so recursion is not counted twice.
        Aggregate hooks appear with their busy time as both figures; that
        time is not taken off the self time of the spans around them.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        out: dict[str, dict[str, float]] = {}
        for name, _, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for idx, (name, _, start, end, parent) in enumerate(spans):
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += (end - start) - child_time[idx]
            ancestor = parent
            while ancestor >= 0 and spans[ancestor][0] != name:
                ancestor = spans[ancestor][4]
            if ancestor < 0:
                entry["total_s"] += end - start
        for name, calls in self.calls.items():
            out[name] = {"calls": calls, "total_s": self.busy[name], "self_s": self.busy[name]}
        return out
