"""Shared builders for the test suite: dense Pauli algebra and random instances."""

import functools
from contextlib import contextmanager
from unittest import mock

import numpy as np

from eigensampler import LocalTerm, build_decomposition, state_access
from eigensampler.hamiltonian import ExplicitSparseHandle, Decomposition

I2 = np.eye(2, dtype=complex)
PAULI = {
    "I": I2,
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def pauli_matrix(string):
    """Dense matrix of a Pauli string; character q acts on bit q of the index."""
    mats = [PAULI[ch] for ch in string]
    return functools.reduce(np.kron, reversed(mats))


def term_matrix(term, n):
    """Dense embedding of a LocalTerm into the full 2^n dimension."""
    if term.pauli is not None:
        return term.coeff * pauli_matrix(term.pauli)
    out = np.zeros((2**n, 2**n), dtype=complex)
    rest = [q for q in range(n) if q not in term.support]
    for i in range(2**n):
        for j in range(2**n):
            if any((i >> q) & 1 != (j >> q) & 1 for q in rest):
                continue
            row = tuple((i >> q) & 1 for q in term.support)
            col = tuple((j >> q) & 1 for q in term.support)
            # block convention: local bit b of qubit support[t] is bit t
            ridx = sum(b << t for t, b in enumerate(row))
            cidx = sum(b << t for t, b in enumerate(col))
            out[i, j] = term.block[ridx, cidx]
    return out


def hamiltonian_matrix(n, terms):
    out = np.zeros((2**n, 2**n), dtype=complex)
    for t in terms:
        out += term_matrix(t, n)
    return out


def random_pauli_terms(rng, n, m, coeff_scale=1.0):
    terms = []
    for _ in range(m):
        string = "".join(rng.choice(list("IXYZ")) for _ in range(n))
        if set(string) == {"I"}:
            string = "Z" + string[1:]
        coeff = coeff_scale * float(rng.uniform(-1.0, 1.0))
        if coeff == 0.0:
            coeff = 0.5 * coeff_scale
        terms.append(LocalTerm.from_pauli(coeff, string))
    return terms


def random_block_term(rng, n, k):
    qubits = sorted(rng.choice(n, size=k, replace=False).tolist())
    raw = rng.normal(size=(2**k, 2**k)) + 1j * rng.normal(size=(2**k, 2**k))
    block = (raw + raw.conj().T) / 2
    return LocalTerm.from_block(qubits, block)


def random_normalized_decomposition(rng, n, m):
    """Pauli-term decomposition whose norm bounds sum to exactly 1."""
    terms = random_pauli_terms(rng, n, m)
    total = sum(abs(t.coeff) for t in terms)
    terms = [LocalTerm.from_pauli(t.coeff / total, t.pauli) for t in terms]
    return build_decomposition(n, terms)


def random_state_vector(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_sparse_handle(rng, dim, s):
    """Explicit handle with at most s nonzeros per row; returns (handle, dense)."""
    rows = []
    dense = np.zeros((dim, dim), dtype=complex)
    for i in range(dim):
        nnz = int(rng.integers(1, s + 1))
        cols = rng.choice(dim, size=nnz, replace=False)
        vals = rng.normal(size=nnz) + 1j * rng.normal(size=nnz)
        rows.append((cols.tolist(), vals.tolist()))
        dense[i, cols] = vals
    return ExplicitSparseHandle(rows, dimension=dim), dense


def all_rows_s_handle(rng, dim, s):
    """Every row has exactly s nonzero entries."""
    rows = []
    dense = np.zeros((dim, dim), dtype=complex)
    for i in range(dim):
        cols = rng.choice(dim, size=s, replace=False)
        vals = rng.normal(size=s) + 1j * rng.normal(size=s)
        rows.append((cols.tolist(), vals.tolist()))
        dense[i, cols] = vals
    return ExplicitSparseHandle(rows, dimension=dim), dense


def sparse_decomposition(handles, kappa_i):
    return Decomposition(list(handles), [float(k) for k in kappa_i])


@contextmanager
def forced_pool(cpus=3):
    """Let median_amplify see `cpus` usable CPUs and pool batches of any size."""
    with mock.patch.object(state_access, "POOL_MIN_SAMPLES", 1), \
            mock.patch.object(state_access, "_usable_cpus", lambda: cpus):
        yield
