"""Lightweight counters for sampling and recursion cost claims.

A Counters object is threaded through the estimators so tests can assert the
advertised leaf-query and sample counts instead of trusting asymptotics.
Updates go through add(), which holds a lock, so the worker threads of a
median amplification can share one object without losing counts.
"""

import threading


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
