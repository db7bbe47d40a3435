"""Lightweight counters for sampling and recursion cost claims.

The estimators report what they spend through the module-level add(), which
goes to the Counters of the active recorder and does nothing when none is
active. A recorder is installed by

    with recording() as counters:
        ...

which yields a fresh Counters (or the one passed in) and restores the
previous recorder on exit. Recorders nest, and the innermost one wins: an
outer recorder sees nothing that runs inside an inner one. The active
recorder is held in a contextvars variable, so each thread and each copied
context sees its own; state_access.median_of runs pooled repetitions in copies
of the caller's context, so they report to the caller's recorder. Counters.add
holds a lock, so those threads share one object without losing counts.
"""

import contextlib
import contextvars
import threading

_active = contextvars.ContextVar("eigensampler_counters", default=None)


class Counters:
    __slots__ = (
        "psi_samples",
        "psi_queries",
        "vector_queries",
        "leaf_queries",
        "chain_samples",
        "max_depth",
        "_lock",
    )

    def __init__(self):
        self.psi_samples = 0
        self.psi_queries = 0
        self.vector_queries = 0
        self.leaf_queries = 0
        self.chain_samples = 0
        self.max_depth = 0
        self._lock = threading.Lock()

    def add(self, depth=0, **counts):
        """Add each named count, and raise max_depth to at least depth."""
        with self._lock:
            for name, value in counts.items():
                setattr(self, name, getattr(self, name) + value)
            if depth > self.max_depth:
                self.max_depth = depth

    def as_dict(self):
        return {
            "psi_samples": self.psi_samples,
            "psi_queries": self.psi_queries,
            "vector_queries": self.vector_queries,
            "leaf_queries": self.leaf_queries,
            "chain_samples": self.chain_samples,
            "max_depth": self.max_depth,
        }

    def __repr__(self):
        inner = ", ".join(f"{k}={v}" for k, v in self.as_dict().items())
        return f"Counters({inner})"


@contextlib.contextmanager
def recording(counters=None):
    """Make counters (a fresh Counters when None) the active recorder.

    Yields it, and restores the previous recorder on exit.
    """
    counters = Counters() if counters is None else counters
    token = _active.set(counters)
    try:
        yield counters
    finally:
        _active.reset(token)


def add(depth=0, **counts):
    """Counters.add on the active recorder; a no-op when none is active."""
    counters = _active.get()
    if counters is not None:
        counters.add(depth=depth, **counts)
