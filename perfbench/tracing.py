"""Spans and counters recorded around the benchmark's calls into wittmat.

A span is (name, start, end, parent, op id).  Spans are kept in memory and
written out when the run ends.  A layer's self time is its span's duration
minus the part covered by its child spans; single-threaded spans nest, so
that part is the sum of the children's durations.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager, nullcontext


class NoTrace:
    """Stand-in used for untraced passes: spans cost one `with` and no clock reads."""

    tracing = False
    _null = nullcontext()

    def __call__(self, name):
        return self._null

    def add(self, key, amount):
        pass


class Tracer:
    tracing = True

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or None, op id]
        self.counts: Counter = Counter()
        self.op_id = None
        self._stack: list[int] = []

    @contextmanager
    def __call__(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op_id])
        self._stack.append(idx)
        try:
            yield
        finally:
            self.spans[idx][2] = time.perf_counter()
            self._stack.pop()

    def add(self, key, amount):
        self.counts[key] += amount

    def graft(self, child_spans):
        """Attach spans recorded by a child process under the innermost open span.

        The child's spans come as [name, start, end, parent-within-child];
        perf_counter is the system-wide monotonic clock, so times line up.
        """
        base = len(self.spans)
        parent_idx = self._stack[-1] if self._stack else None
        for name, start, end, parent in child_spans:
            self.spans.append([name, start, end, parent_idx if parent is None else base + parent, self.op_id])

    def self_times(self) -> dict[str, tuple[int, float]]:
        """Per span name: (calls, total self time in seconds)."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out: dict[str, list] = {}
        for (name, start, end, _, _), child in zip(self.spans, covered):
            entry = out.setdefault(name, [0, 0.0])
            entry[0] += 1
            entry[1] += (end - start) - child
        return {name: (calls, busy) for name, (calls, busy) in out.items()}

    def dump(self):
        return [
            {"name": n, "start": s, "end": e, "parent": p, "op": op}
            for n, s, e, p, op in self.spans
        ]


def coeff_bits(values) -> int:
    """Total numerator and denominator bit length of GaussianRational values."""
    total = 0
    for x in values:
        for part in (x.re, x.im):
            if part:
                total += part.numerator.bit_length() + part.denominator.bit_length()
    return total
