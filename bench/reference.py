"""Dense reference computations and seeded inputs for the benchmark.

Nothing here imports the package under test: the exact spectra that the
benchmark checks the program against are built from Kronecker products of
2x2 Pauli matrices and from explicit block embeddings, and diagonalized with
numpy.linalg.eigh. Instance selection only needs the lowest two eigenvalues
and uses Lanczos on the sparse matrix for the larger systems. The input
files (Hamiltonian text, dense state files) are written by this module in
the package's documented formats.

Terms are plain tuples: ("pauli", coeff, string) with the leftmost character
acting on qubit 0, or ("block", qubits, matrix) where local bit t of the
block index is qubit qubits[t]. Basis indices are little endian: bit q of an
index is qubit q.
"""

import functools
import struct

import numpy as np
from scipy import sparse
from scipy.sparse import linalg as sparse_linalg

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def pauli_matrix(string):
    """Sparse matrix of a Pauli string; qubit 0 is the last Kronecker factor."""
    return functools.reduce(
        lambda a, b: sparse.kron(a, b, format="csr"),
        [sparse.csr_matrix(PAULI[ch]) for ch in reversed(string)],
    )


def embed_block(block, qubits, n):
    """Sparse 2^n matrix of a block acting on `qubits`, identity elsewhere.

    Row i has one entry per local column c: the column index keeps the bits
    of i outside `qubits` and takes the bits of c on them.
    """
    block = np.asarray(block, dtype=complex)
    idx = np.arange(2**n)
    local = np.zeros(2**n, dtype=np.int64)
    mask = 0
    for t, q in enumerate(qubits):
        local |= ((idx >> q) & 1) << t
        mask |= 1 << q
    scatter = np.zeros(block.shape[1], dtype=np.int64)
    for c in range(block.shape[1]):
        for t, q in enumerate(qubits):
            scatter[c] |= ((c >> t) & 1) << q
    rows = np.repeat(idx, block.shape[1])
    cols = ((idx & ~mask)[:, None] | scatter[None, :]).ravel()
    vals = block[local].ravel()
    return sparse.csr_matrix((vals, (rows, cols)), shape=(2**n, 2**n))


def term_matrix(term, n):
    kind, a, b = term
    if kind == "pauli":
        return a * pauli_matrix(b)
    return embed_block(b, a, n)


def hamiltonian_matrix(n, terms):
    """Sparse matrix of the sum of the terms."""
    out = sparse.csr_matrix((2**n, 2**n), dtype=complex)
    for term in terms:
        out = out + term_matrix(term, n)
    return out


def dense_hamiltonian(n, terms):
    return hamiltonian_matrix(n, terms).toarray()


def term_norm(term):
    kind, a, b = term
    if kind == "pauli":
        return abs(a)
    return float(np.linalg.norm(np.asarray(b, dtype=complex), 2))


def kappa(terms):
    """Sum of the exact per-term spectral norms."""
    return float(sum(term_norm(t) for t in terms))


def product_vector(pairs):
    """Amplitudes of a product state; pairs[q] = (amp of 0, amp of 1) on qubit q."""
    return functools.reduce(np.kron, [np.asarray(p, dtype=complex) for p in reversed(pairs)])


def filter_weight(hamiltonian, kappa_total, vector, cheb):
    """<v| P(A') |v> with A' = (I + H/kappa)/2, P given by Chebyshev coefficients."""
    evals, evecs = np.linalg.eigh(hamiltonian)
    shifted = 0.5 * (1.0 + evals / kappa_total)
    weights = np.abs(evecs.conj().T @ vector) ** 2
    return float(np.sum(weights * np.polynomial.chebyshev.chebval(shifted, cheb)))


# ---------------------------------------------------------------------------
# Seeded instances


def random_block(rng, k, scale=1.0):
    """Random dense Hermitian 2^k x 2^k block with spectral norm `scale`."""
    d = 2**k
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    h = a + a.conj().T
    return h * (scale / np.linalg.norm(h, 2))


def random_pauli_string(rng, n, weight):
    string = ["I"] * n
    for q in rng.choice(n, size=weight, replace=False):
        string[q] = "XYZ"[rng.integers(3)]
    return "".join(string)


def ising_chain(rng, n, field, blocks):
    """Random-sign ZZ chain, transverse fields and 2-local blocks on n qubits."""
    terms = []
    for q in range(n - 1):
        string = "I" * q + "ZZ" + "I" * (n - q - 2)
        terms.append(("pauli", float(rng.choice([-1, 1]) * rng.uniform(0.5, 1.5)), string))
    for q in range(n):
        string = "I" * q + "X" + "I" * (n - q - 1)
        terms.append(("pauli", float(rng.uniform(-field, field)), string))
    for _ in range(blocks):
        qubits = tuple(int(q) for q in rng.choice(n, size=2, replace=False))
        terms.append(("block", qubits, random_block(rng, 2, rng.uniform(0.3, 0.8))))
    return terms


def random_pauli_hamiltonian(rng, n, m):
    """m random Pauli terms of weight 1..min(n, 3) with coefficients in +-[0.2, 1]."""
    terms = []
    for _ in range(m):
        weight = int(rng.integers(1, min(n, 3) + 1))
        coeff = float(rng.choice([-1, 1]) * rng.uniform(0.2, 1.0))
        terms.append(("pauli", coeff, random_pauli_string(rng, n, weight)))
    return terms


def random_block_hamiltonian(rng, n, m):
    """m random 2-local blocks on random qubit pairs."""
    terms = []
    for _ in range(m):
        qubits = tuple(int(q) for q in rng.choice(n, size=2, replace=False))
        terms.append(("block", qubits, random_block(rng, 2, rng.uniform(0.5, 1.5))))
    return terms


def random_pairs(rng, n):
    """Per-qubit amplitude pairs of a random product state."""
    theta = rng.uniform(0.2 * np.pi, 0.8 * np.pi, size=n)
    phi = rng.uniform(0.0, 2.0 * np.pi, size=n)
    return [
        (float(np.cos(t / 2.0)), complex(np.exp(1j * p) * np.sin(t / 2.0)))
        for t, p in zip(theta, phi)
    ]


def random_unit_vector(rng, dimension):
    v = rng.normal(size=dimension) + 1j * rng.normal(size=dimension)
    return v / np.linalg.norm(v)


def shifted_spectrum(n, terms, rng):
    """Lowest two eigenvalues of (I + H/kappa)/2, ascending.

    Up to 64 dimensions the matrix is diagonalized densely; above that the
    Lanczos solver is used, started from a vector drawn from `rng` so the
    result depends on the seed alone.
    """
    matrix = hamiltonian_matrix(n, terms)
    if matrix.shape[0] <= 64:
        evals = np.linalg.eigvalsh(matrix.toarray())[:2]
    else:
        start = rng.normal(size=matrix.shape[0]) + 0j
        evals = np.sort(sparse_linalg.eigsh(matrix, k=2, which="SA", v0=start, tol=1e-12,
                                            return_eigenvectors=False))
    return 0.5 * (1.0 + evals / kappa(terms))


def in_window(spectrum, epsilon, t_target, lowest_gap):
    """Whether the scan is expected to stop exactly at test t_target.

    The ground value of A' must sit within 0.3 widths of the boundary
    t_target * epsilon/4, away from the filters' half-height points, and the
    next eigenvalue at least `lowest_gap` widths above it, so that neither a
    near-degenerate pair nor the seed moves the stopping test.
    """
    width = epsilon / 4.0
    low = spectrum[0]
    if abs(low - t_target * width) > 0.3 * width:
        return False
    return spectrum[1] - low >= lowest_gap * width


# ---------------------------------------------------------------------------
# File writers, in the package's documented input formats


def hamiltonian_text(n, terms):
    lines = [f"n={n}"]
    for kind, a, b in terms:
        if kind == "pauli":
            lines.append(f"{a!r} {b}")
        else:
            entries = " ".join(
                f"{float(z.real)!r},{float(z.imag)!r}"
                for z in np.asarray(b, dtype=complex).ravel()
            )
            lines.append(f"BLOCK q={','.join(str(q) for q in a)} {entries}")
    return "\n".join(lines) + "\n"


def write_dense_state(path, values):
    """Binary state file: u64 count, then little-endian f64 (re, im) pairs."""
    values = np.asarray(values, dtype=complex)
    interleaved = np.empty(2 * values.shape[0], dtype="<f8")
    interleaved[0::2] = values.real
    interleaved[1::2] = values.imag
    with open(path, "wb") as fh:
        fh.write(struct.pack("<Q", values.shape[0]))
        fh.write(interleaved.tobytes())


def product_spec(pairs):
    return "product:" + ";".join(f"{complex(a)!r},{complex(b)!r}".replace(" ", "") for a, b in pairs)
