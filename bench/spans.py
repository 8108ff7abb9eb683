"""In-memory spans and counters for the traced benchmark run.

A span is ``[name, start, end, parent]`` with ``parent`` the index of the
span that was open when it began (``None`` for a root).  The benchmark opens
its own root spans (``setup`` around ``initialize``, ``window`` around each
streamed window) and wraps the engine's public functions at the module
attributes its callers look them up through, so every call into a layer
becomes a child span.  Counters are attributed to the root span open when
they are bumped.  Nothing is written while the run measures; ``summary``
folds the spans into per-root totals when it ends.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)   # (root span index, name) -> amount
        self._open = []
        self._patches = []

    @contextmanager
    def span(self, name):
        parent = self._open[-1] if self._open else None
        record = [name, time.perf_counter(), None, parent]
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def count(self, name, amount=1):
        root = self._open[0] if self._open else None
        self.counts[(root, name)] += amount

    def wrap(self, owner, attr, name, after=None):
        """Replace ``owner.attr`` by a spanned call; ``after(tracer, args, result)``
        runs inside the span once the call has returned."""
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            with self.span(name):
                result = original(*args, **kwargs)
                if after is not None:
                    after(self, args, result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def wrap_count(self, owner, attr, name, amount):
        """Replace ``owner.attr`` by a call that only bumps counter ``name``."""
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            self.count(name, amount(args))
            return original(*args, **kwargs)

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def discard_since(self, mark):
        """Forget the spans from index ``mark`` on and the counts under them."""
        del self.spans[mark:]
        for key in [key for key in self.counts if key[0] is not None and key[0] >= mark]:
            del self.counts[key]

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def summary(self):
        """Fold spans by their root's name.

        Returns ``(roots, totals, counts)``: ``roots[root_name]`` is how many
        root spans had that name; ``totals[(root_name, parent_name, name)]``
        is ``[inclusive seconds, self seconds, calls]``; ``counts[(root_name,
        counter)]`` sums the counters.  A span's self time is its duration
        minus that of its direct children.
        """
        child_time = [0.0] * len(self.spans)
        root_of = [0] * len(self.spans)
        for i, (_, start, end, parent) in enumerate(self.spans):
            # Parents precede their children in the list.
            root_of[i] = i if parent is None else root_of[parent]
            if parent is not None:
                child_time[parent] += end - start
        roots = defaultdict(int)
        totals = defaultdict(lambda: [0.0, 0.0, 0])
        for i, (name, start, end, parent) in enumerate(self.spans):
            root_name = self.spans[root_of[i]][0]
            if parent is None:
                roots[name] += 1
            parent_name = None if parent is None else self.spans[parent][0]
            entry = totals[(root_name, parent_name, name)]
            entry[0] += end - start
            entry[1] += end - start - child_time[i]
            entry[2] += 1
        counts = defaultdict(float)
        for (root, name), amount in self.counts.items():
            if root is not None:
                counts[(self.spans[root][0], name)] += amount
        return dict(roots), dict(totals), dict(counts)
