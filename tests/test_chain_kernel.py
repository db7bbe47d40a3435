"""Property tests of the frontier chain kernel over every handle class."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigensampler import DenseState, LocalTerm, imm, recording
from eigensampler.hamiltonian import (
    BlockTermHandle,
    ExplicitSparseHandle,
    IdentityHandle,
    PauliTermHandle,
)
from eigensampler.imm import ChainKernel
from eigensampler.oracle import dense_term

from helpers import random_state_vector

CLASSES = ("pauli", "identity", "block", "scaled", "explicit")


def maybe_zero(rng, value):
    return 0.0 if rng.random() < 0.15 else value


def make_handle(kind, rng, n):
    dim = 2**n
    if kind == "pauli":
        string = "".join(rng.choice(list("IXYZ"), size=n))
        return PauliTermHandle(string, maybe_zero(rng, rng.uniform(-1, 1)), n)
    if kind == "identity":
        return IdentityHandle(dim, maybe_zero(rng, complex(*rng.uniform(-1, 1, 2))))
    if kind == "block":
        k = int(rng.integers(1, n + 1))
        qubits = rng.choice(n, size=k, replace=False).tolist()
        raw = rng.uniform(-1, 1, (2**k, 2**k)) + 1j * rng.uniform(-1, 1, (2**k, 2**k))
        keep = rng.random((2**k, 2**k)) < 0.6
        keep = keep & keep.T
        block = np.where(keep, (raw + raw.conj().T) / 2, 0.0)
        return BlockTermHandle(LocalTerm.from_block(qubits, block), n)
    if kind == "scaled":
        inner = make_handle(str(rng.choice(CLASSES[:3] + CLASSES[4:])), rng, n)
        return inner.scaled(maybe_zero(rng, complex(*rng.uniform(-1, 1, 2))))
    rows = []
    for _ in range(dim):
        nnz = int(rng.integers(0, min(3, dim) + 1))
        cols = rng.choice(dim, size=nnz, replace=False)
        vals = [maybe_zero(rng, complex(*rng.uniform(-1, 1, 2))) for _ in range(nnz)]
        rows.append((cols.tolist(), vals))
    return ExplicitSparseHandle(rows, dimension=dim)


def reference_entry(ell, mats, phi, depth=0):
    """(value, leaf count, deepest level) of one entry, by recursion over
    rows, one rows_many call per row."""
    if not mats:
        return complex(phi.query(ell)), 1, depth
    total, leaves, deepest = 0j, 0, depth
    _, cols, vals = mats[-1].rows_many([ell])
    for col, val in zip(cols.tolist(), vals.tolist()):
        v, c, d = reference_entry(col, mats[:-1], phi, depth + 1)
        total += val * v
        leaves += c
        deepest = max(deepest, d)
    return total, leaves, deepest


def dense_diagonal(terms, chains, rows):
    """<a|B_x|a> of each chain x and start row a, from dense products."""
    dense = [dense_term(h) for h in terms]
    out = []
    for picks, a in zip(chains, rows):
        product = np.eye(terms[0].dimension, dtype=complex)
        for k in picks:
            product = dense[k] @ product
        out.append(product[a, a])
    return np.array(out)


@st.composite
def chain_problems(draw):
    n = draw(st.integers(1, 3))
    kinds = draw(st.lists(st.sampled_from(CLASSES), min_size=1, max_size=5))
    r = draw(st.integers(0, 4))
    t = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    terms = [make_handle(kind, rng, n) for kind in kinds]
    chains = rng.integers(0, len(terms), size=(t, r))
    rows = rng.integers(0, 2**n, size=t)
    phi = DenseState(random_state_vector(rng, 2**n))
    return terms, chains, rows, phi


@settings(max_examples=150, deadline=None)
@given(chain_problems(), st.integers(1, 7))
def test_kernel_matches_dense_and_recursion(problem, limit):
    terms, chains, rows, phi = problem
    with recording() as counters:
        got = ChainKernel(terms).values(chains, rows, phi)

    dense = [dense_term(h) for h in terms]
    phi_v = phi.query_many(np.arange(phi.dimension))
    want, leaves, deepest = [], 0, 0
    for picks, ell in zip(chains, rows):
        vec = phi_v
        for k in picks:
            vec = dense[k] @ vec
        want.append(vec[ell])
        _, c, d = reference_entry(int(ell), [terms[k] for k in picks], phi)
        leaves += c
        deepest = max(deepest, d)
    assert np.allclose(got, want, rtol=0, atol=1e-12)
    assert counters.leaf_queries == counters.vector_queries == leaves
    assert counters.max_depth == deepest

    with mock.patch.object(imm, "FRONTIER_LIMIT", limit), recording() as small:
        split = ChainKernel(terms).values(chains, rows, phi)
    assert np.allclose(split, got, rtol=0, atol=1e-12)
    assert small.as_dict() == counters.as_dict()


class RecordingState(DenseState):
    """Dense state that remembers the largest batch it was queried with."""

    largest = 0

    def query_many(self, idx):
        self.largest = max(self.largest, np.size(idx))
        return super().query_many(idx)


@pytest.mark.parametrize("t", [10, 400])
def test_frontier_stays_under_limit(monkeypatch, t):
    """Peak frontier size is set by FRONTIER_LIMIT, not by t or s^r."""
    rng = np.random.default_rng(9)
    n, r, limit = 6, 5, 40
    terms = [
        BlockTermHandle(LocalTerm.from_block(q, np.full((4, 4), 0.5)), n)
        for q in [(0, 1), (2, 3), (4, 5), (1, 4)]
    ] + [PauliTermHandle("XYZIZX", 0.5, n)]
    chains = rng.integers(0, len(terms), size=(t, r))
    rows = rng.integers(0, 2**n, size=t)
    phi = RecordingState(random_state_vector(rng, 2**n))
    want = ChainKernel(terms).values(chains, rows, phi)

    sizes = []
    expand = imm.ChainKernel._expand

    def recording_expand(self, *args):
        out = expand(self, *args)
        sizes.append(out[1].size)
        return out

    monkeypatch.setattr(imm.ChainKernel, "_expand", recording_expand)
    monkeypatch.setattr(imm, "FRONTIER_LIMIT", limit)
    phi.largest = 0
    with recording() as counters:
        got = ChainKernel(terms).values(chains, rows, phi)
    assert np.allclose(got, want, rtol=0, atol=1e-12)
    # every sample touches up to 4^5 leaves; the frontier never exceeds the limit
    assert counters.leaf_queries > 10 * limit
    assert max(sizes) <= limit
    assert phi.largest <= limit


@settings(max_examples=100, deadline=None)
@given(chain_problems(), st.integers(1, 7))
def test_trace_guide_reads_the_diagonal_entry(problem, limit):
    # phi = None: sample i is <a|B_x|a> at a = rows[i], split or not
    terms, chains, rows, _ = problem
    want = dense_diagonal(terms, chains, rows)
    got = ChainKernel(terms).values(chains, rows, None)
    assert np.allclose(got, want, rtol=0, atol=1e-12)
    with mock.patch.object(imm, "FRONTIER_LIMIT", limit):
        split = ChainKernel(terms).values(chains, rows, None)
    assert np.allclose(split, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("kind", ["pauli", "block"])
def test_trace_guide_on_pauli_and_block_chains(kind):
    rng = np.random.default_rng(17)
    terms = [make_handle(kind, rng, 3) for _ in range(4)]
    chains = rng.integers(0, len(terms), size=(200, 3))
    rows = rng.integers(0, 8, size=200)
    got = ChainKernel(terms).values(chains, rows, None)
    want = dense_diagonal(terms, chains, rows)
    assert np.count_nonzero(want) > 0
    assert np.allclose(got, want, rtol=0, atol=1e-12)


def test_empty_input_and_power_zero():
    phi = DenseState(random_state_vector(np.random.default_rng(2), 4))
    h = PauliTermHandle("XZ", 1.0, 2)
    empty = ChainKernel([h]).values(np.empty((0, 2), dtype=np.int64), [], phi)
    assert empty.shape == (0,)
    with recording() as counters:
        vals = ChainKernel([h]).values(np.empty((3, 0), dtype=np.int64), [0, 3, 1], phi)
    assert np.array_equal(vals, phi.query_many([0, 3, 1]))
    assert counters.leaf_queries == 3 and counters.max_depth == 0
