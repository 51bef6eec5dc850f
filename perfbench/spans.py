"""In-memory span recorder that wraps a library's functions from outside.

A span is [name, start, end, parent index]; parent is -1 for a root.  Spans
stay in a list until the run ends.  A span's self time is its duration minus
the durations of its child spans, so the self times in one root's subtree add
up to that root's duration exactly when every child lies inside its parent.
"""

import functools
import inspect
import time
from collections import Counter, defaultdict

# Spans, ops and set-up are timed on the process's CPU clock, not the wall
# clock.  On a shared virtual machine the host's CPU steal stretched wall time
# by up to 40 % for minutes at a time, and CPU time excludes it.  The
# measured program runs in one thread and does not wait on I/O, so its CPU
# time is the wall time it takes on an uncontended machine.
clock = time.process_time


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, clock(), None, parent])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, index: int) -> None:
        self.spans[index][2] = clock()
        if self._open.pop() != index:
            raise RuntimeError("spans closed out of order")

    def _wrap(self, fn, name, count):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.begin(name(args) if callable(name) else name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end(index)
            if count is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                count(self.counts, bound.arguments, out)
            return out

        return traced

    def install(self, modules, targets) -> None:
        """Replace, in every given module, each attribute bound to a target.

        targets is a list of (function, span name or name(args), count or
        None); count(counts, arguments, result) runs after each call.
        Catching every alias matters because modules call each other through
        names they imported.
        """
        wrapped = {id(fn): (fn, self._wrap(fn, name, count)) for fn, name, count in targets}
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        while self._restore:
            module, attr, value = self._restore.pop()
            setattr(module, attr, value)

    def _durations(self) -> tuple[list[float], list[float]]:
        """Per span: duration and self time."""
        duration = [end - start for _, start, end, _ in self.spans]
        own = list(duration)
        for i, (_, _, _, parent) in enumerate(self.spans):
            if parent >= 0:
                own[parent] -= duration[i]
        return duration, own

    def totals(self) -> tuple[dict[str, float], dict[str, float]]:
        """Per span name: summed duration and summed self time, in seconds."""
        duration, own = self._durations()
        total, self_total = defaultdict(float), defaultdict(float)
        for i, (name, _, _, _) in enumerate(self.spans):
            total[name] += duration[i]
            self_total[name] += own[i]
        return dict(total), dict(self_total)

    def nesting_errors(self) -> list[str]:
        """Spans that end outside their parent or overlap a sibling."""
        errors = []
        last_end: dict[int, float] = {}
        for i, (name, start, end, parent) in enumerate(self.spans):
            if end is None or end < start:
                errors.append(f"span {i} ({name}) is not closed")
                continue
            if parent < 0:
                continue
            _, p_start, p_end, _ = self.spans[parent]
            if start < p_start or end > p_end:
                errors.append(f"span {i} ({name}) lies outside its parent")
            if start < last_end.get(parent, p_start):
                errors.append(f"span {i} ({name}) overlaps an earlier sibling")
            last_end[parent] = end
        return errors

    def root_self_sums(self) -> list[tuple[int, float]]:
        """Per root span: its index and the self times of its subtree, summed."""
        _, own = self._durations()
        root_of = []
        sums: dict[int, float] = defaultdict(float)
        for i, (_, _, _, parent) in enumerate(self.spans):
            root_of.append(i if parent < 0 else root_of[parent])
            sums[root_of[i]] += own[i]
        return sorted(sums.items())
