"""In-memory timing spans around calls into the package's layers.

The tracer wraps public functions by replacing module attributes (and a few
guiding-state methods), so spans are recorded at layer boundaries without
any change inside the package. Each full span is (id, name, start, end,
parent). Calls that happen once per sampled chain or per amplitude query are
far too frequent to keep one record each, so those wrappers aggregate a call
count and a total time per (name, enclosing span) instead.
"""

import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans = []  # [id, name, start, end, parent]
        self.aggregates = {}  # (name, parent) -> [calls, seconds]
        self.samples = {}  # span id -> samples drawn inside it
        self._stack = [None]
        self._active = set()  # names of aggregated calls in progress
        self._patches = []

    @contextmanager
    def span(self, name):
        record = [len(self.spans), name, time.perf_counter(), None, self._stack[-1]]
        self.spans.append(record)
        self._stack.append(record[0])
        try:
            yield record[0]
        finally:
            self._stack.pop()
            record[3] = time.perf_counter()

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def wrap_aggregate(self, name, fn):
        """Count and time calls; a call made from inside another call of the
        same name (a state's query delegating to its query_many) is not counted
        again."""
        clock = time.perf_counter
        aggregates = self.aggregates
        stack = self._stack
        active = self._active

        def traced(*args, **kwargs):
            if name in active:
                return fn(*args, **kwargs)
            active.add(name)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                active.discard(name)
                slot = aggregates.get((name, stack[-1]))
                if slot is None:
                    slot = aggregates[(name, stack[-1])] = [0, 0.0]
                slot[0] += 1
                slot[1] += clock() - start

        return traced

    def wrap_sampler(self, name, fn):
        def traced(rng, count):
            with self.span(name) as sid:
                self.samples[sid] = int(count)
                return fn(rng, count)

        return traced

    def patch(self, owner, attr, wrapper):
        """Register owner.attr to be replaced by wrapper(original) while installed."""
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original, wrapper(original)))

    def install(self):
        for owner, attr, _, traced in self._patches:
            setattr(owner, attr, traced)

    def uninstall(self):
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")
            for (name, parent), (calls, seconds) in self.aggregates.items():
                fh.write(json.dumps({"name": name, "parent": parent,
                                     "calls": calls, "seconds": seconds}) + "\n")

    # -- summaries ---------------------------------------------------------

    def roots(self, name):
        """Ids of top-level spans with the given name."""
        return [s[0] for s in self.spans if s[4] is None and s[1] == name]

    def _root_of(self):
        root = {}
        for sid, _, _, _, parent in self.spans:
            root[sid] = sid if parent is None else root[parent]
        return root

    def under(self, root_ids):
        """Per-name totals (seconds, count, samples) of spans inside the roots."""
        root_ids = set(root_ids)
        root = self._root_of()
        totals = {}
        for sid, name, start, end, parent in self.spans:
            if parent is None or root[sid] not in root_ids:
                continue
            entry = totals.setdefault(name, [0.0, 0, 0])
            entry[0] += end - start
            entry[1] += 1
            entry[2] += self.samples.get(sid, 0)
        for (name, parent), (calls, seconds) in self.aggregates.items():
            if parent is None or root[parent] not in root_ids:
                continue
            entry = totals.setdefault(name, [0.0, 0, 0])
            entry[0] += seconds
            entry[1] += calls
        return totals

    def self_time(self, name, root_ids):
        """Total self time of spans called `name` inside the roots.

        Self time is the span's duration minus the time covered by its direct
        children, full or aggregated.
        """
        root_ids = set(root_ids)
        root = self._root_of()
        chosen = {s[0]: s[3] - s[2] for s in self.spans
                  if s[1] == name and root[s[0]] in root_ids}
        for sid, _, start, end, parent in self.spans:
            if parent in chosen:
                chosen[parent] -= end - start
        for (_, parent), (_, seconds) in self.aggregates.items():
            if parent in chosen:
                chosen[parent] -= seconds
        return sum(chosen.values())
