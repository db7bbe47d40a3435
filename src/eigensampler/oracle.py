"""Exact ground truth for small instances.

Everything here assembles explicit matrices, so the sampled estimators can
be checked against exact values; it also backs the oracle-exact policy,
which replaces the stochastic inner layer entirely. That policy is the one
performance path here. A solve reconstructs its normalized operator A' once,
as a sparse CSR matrix, and reads every threshold test <psi| P(A') |psi> off
one ChebyshevMoments sequence mu_k = <psi|T_k(A')|psi> as sum_k c_k mu_k,
where c_k are the filter's Chebyshev coefficients. The sequence is extended
on demand by sparse matrix-vector products, ceil(d/2) of them for moments up
to degree d, so a whole scan costs ceil(max_t d_t / 2) products. The dense
matrix and the eigendecomposition are built on first use, for the spectral
queries (ground energy, ground vector, overlap, polynomial_matrix), and
cached.
"""

import numpy as np

from .errors import DenseLimitError, ValidationError
from .hamiltonian import Decomposition
from .imm import MatrixChain
from .state_access import VectorAccessor

# n <= 12 qubits: the O(N^3) eigendecomposition stays in the seconds range.
DENSE_DIMENSION_LIMIT = 2**12
_HERMITIAN_TOL = 1e-8
_RECON_TOL = 1e-8
_DEGENERACY_TOL = 1e-9


class DenseOperator:
    """A Hermitian operator held as a CSR matrix, with lazy dense forms.

    Construction takes a dense array or a scipy.sparse matrix, checks
    squareness, the dimension limit and Hermiticity (so the spectrum is real
    and eigh applies) on the CSR form, and never diagonalizes. Every product
    goes through apply, on the CSR matrix. The dense matrix is built on first
    access of .matrix, and the eigenvalues (ascending) and eigenvectors on
    first access, where the reconstruction residual is verified; both are
    cached.
    """

    def __init__(self, matrix):
        from scipy import sparse

        if not sparse.issparse(matrix):
            matrix = np.asarray(matrix, dtype=complex)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValidationError(f"operator must be square, got {matrix.shape}")
        if matrix.shape[0] > DENSE_DIMENSION_LIMIT:
            raise DenseLimitError(
                f"dense operator dimension {matrix.shape[0]} exceeds "
                f"{DENSE_DIMENSION_LIMIT}"
            )
        csr = sparse.csr_matrix(matrix, dtype=complex, copy=True)
        herm_gap = float(abs(csr - csr.conj().T).max())
        if herm_gap > _HERMITIAN_TOL:
            raise ValidationError(
                f"operator is not Hermitian (max |A - A*| = {herm_gap:.3e}); "
                f"a real spectrum is required"
            )
        self.csr = csr
        self.dimension = csr.shape[0]
        self._matrix = None
        self._eigenpairs = None

    def apply(self, vec):
        """The operator applied to a vector: one CSR matrix-vector product."""
        return self.csr @ vec

    @property
    def matrix(self):
        """The dense matrix, built from the CSR form on first access."""
        if self._matrix is None:
            matrix = self.csr.toarray()
            matrix.flags.writeable = False
            self._matrix = matrix
        return self._matrix

    def _diagonalize(self):
        if self._eigenpairs is None:
            eigenvalues, eigenvectors = np.linalg.eigh(self.matrix)
            recon = (eigenvectors * eigenvalues) @ eigenvectors.conj().T
            recon_gap = float(np.max(np.abs(recon - self.matrix)))
            if recon_gap > _RECON_TOL:
                raise ValidationError(
                    f"eigendecomposition fails to reconstruct the operator "
                    f"(max residual {recon_gap:.3e})"
                )
            eigenvalues.flags.writeable = False
            eigenvectors.flags.writeable = False
            self._eigenpairs = (eigenvalues, eigenvectors)
        return self._eigenpairs

    @property
    def eigenvalues(self):
        return self._diagonalize()[0]

    @property
    def eigenvectors(self):
        return self._diagonalize()[1]

    def __repr__(self):
        return f"DenseOperator(N={self.dimension})"


def _sum_csr(handles, n):
    """CSR matrix of a sum of row-query handles, accumulated in handle order.

    Every handle answers all its rows at once, and np.add.at adds the
    entries that land on one position one after another, in handle order,
    so each entry is the same floating-point sum that a dense accumulation
    of the terms in order gives, and one term's values equal its row
    queries' exactly.
    """
    from scipy import sparse

    every_row = np.arange(n, dtype=np.int64)
    keys, vals = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=complex)]
    for handle in handles:
        # rows_many returns positions in every_row, which are the rows
        rows, cols, values = handle.rows_many(every_row)
        keys.append(rows * n + cols)
        vals.append(values)
    positions, slot = np.unique(np.concatenate(keys), return_inverse=True)
    data = np.zeros(positions.size, dtype=complex)
    np.add.at(data, slot, np.concatenate(vals))
    stored = data != 0
    rows, cols = np.divmod(positions[stored], n)
    indptr = np.searchsorted(rows, np.arange(n + 1))
    return sparse.csr_matrix((data[stored], cols, indptr), shape=(n, n))


def sparse_term(handle):
    """CSR matrix of one row-query handle."""
    n = handle.dimension
    if n > DENSE_DIMENSION_LIMIT:
        raise DenseLimitError(
            f"term dimension {n} exceeds {DENSE_DIMENSION_LIMIT}"
        )
    return _sum_csr([handle], n)


def dense_term(handle):
    """Dense matrix of one row-query handle."""
    return sparse_term(handle).toarray()


def reconstruct(decomp):
    """Assemble the sum of a decomposition's terms, in term order, as CSR."""
    if decomp.dimension > DENSE_DIMENSION_LIMIT:
        raise DenseLimitError(
            f"decomposition dimension {decomp.dimension} exceeds "
            f"{DENSE_DIMENSION_LIMIT}"
        )
    return DenseOperator(_sum_csr(decomp.terms, decomp.dimension))


class ChebyshevMoments:
    """The moments mu_k = <psi|T_k(A)|phi> of one operator, extended on demand.

    The vectors v_k = T_k(A) phi follow the three-term recurrence
    v_0 = phi, v_1 = A phi, v_{k+1} = 2 A v_k - v_{k-1}, one product each.
    For psi != phi, mu_k = <psi|v_k>, so moments up to degree d cost d
    products. For psi == phi the operator's Hermiticity gives the doubling
    identities (from T_m T_n = (T_{m+n} + T_{|m-n|})/2)

        mu_{2k}   = 2 <v_k|v_k>     - mu_0,
        mu_{2k+1} = 2 <v_{k+1}|v_k> - mu_1,

    so they cost ceil(d/2) products. dot(cheb) evaluates sum_k cheb[k] mu_k
    = <psi| P(A) |phi> for the polynomial with those Chebyshev coefficients,
    reading moments already taken and extending the sequence only past them.
    """

    def __init__(self, op, psi, phi=None):
        self.operator = _as_operator(op)
        self.psi = _as_dense_vector(psi, self.operator.dimension)
        self.phi = self.psi if phi is None else _as_dense_vector(
            phi, self.operator.dimension
        )
        self._doubling = np.array_equal(self.psi, self.phi)
        self._previous = None
        self._current = self.phi
        self._index = 0
        self._moments = [complex(np.vdot(self.psi, self.phi))]

    @property
    def dimension(self):
        return self.operator.dimension

    @property
    def products(self):
        """Operator products taken so far."""
        return self._index

    def _step(self):
        product = self.operator.apply(self._current)
        if self._previous is not None:
            product = 2.0 * product - self._previous
        self._previous, self._current = self._current, product
        self._index += 1

    def extend(self, degree):
        """Take every moment up to the given degree."""
        moments = self._moments
        while len(moments) <= degree:
            self._step()
            if not self._doubling:
                moments.append(complex(np.vdot(self.psi, self._current)))
                continue
            cross = complex(np.vdot(self._current, self._previous))
            if self._index == 1:
                moments.append(cross)
            else:
                moments.append(2.0 * cross - moments[1])
            norm = complex(np.vdot(self._current, self._current))
            moments.append(2.0 * norm - moments[0])

    def dot(self, cheb):
        """sum_k cheb[k] mu_k, extending the sequence to len(cheb) - 1."""
        cheb = np.asarray(cheb)
        self.extend(len(cheb) - 1)
        return complex(np.dot(cheb, self._moments[:len(cheb)]))

    def __repr__(self):
        return (f"ChebyshevMoments(N={self.dimension}, "
                f"moments={len(self._moments)}, products={self._index})")


def _as_operator(op):
    if isinstance(op, DenseOperator):
        return op
    if isinstance(op, Decomposition):
        return reconstruct(op)
    return DenseOperator(op)


def _as_dense_vector(vec, dimension):
    if isinstance(vec, np.ndarray):
        out = np.asarray(vec, dtype=complex)
    elif hasattr(vec, "to_array"):
        out = vec.to_array()
    elif isinstance(vec, VectorAccessor):
        out = np.asarray(
            vec.query_many(np.arange(dimension, dtype=np.int64)), dtype=complex
        )
    else:
        out = np.asarray(vec, dtype=complex)
    if out.shape != (dimension,):
        raise ValidationError(
            f"vector has shape {out.shape}, expected ({dimension},)"
        )
    return out


def exact_ground_energy(op):
    """Smallest eigenvalue of the operator."""
    return float(_as_operator(op).eigenvalues[0])


def ground_vector(op):
    """An eigenvector attaining the smallest eigenvalue."""
    op = _as_operator(op)
    return op.eigenvectors[:, 0].copy()


def exact_overlap(op, w, sigma):
    """Norm of the projection of w onto the low-energy eigenspace.

    The eigenspace collects eigenvalues within sigma of the smallest; the
    cutoff carries a 1e-9 slack so exactly degenerate eigenvalues that
    scatter at machine precision stay grouped.
    """
    if sigma < 0:
        raise ValidationError(f"sigma must be nonnegative, got {sigma}")
    op = _as_operator(op)
    w = _as_dense_vector(w, op.dimension)
    cutoff = op.eigenvalues[0] + sigma + _DEGENERACY_TOL
    members = op.eigenvalues <= cutoff
    components = op.eigenvectors[:, members].conj().T @ w
    return float(np.linalg.norm(components))


def polynomial_matrix(op, P):
    """Dense P(A) through the eigenbasis, using the stable Chebyshev form."""
    op = _as_operator(op)
    values = P.eval_stable(op.eigenvalues)
    return (op.eigenvectors * values) @ op.eigenvectors.conj().T


def exact_sandwich(psi, op, phi, power=None, polynomial=None):
    """Exact <psi| f(op) |phi> by sparse matrix-vector products.

    op may be a MatrixChain (or plain list of handles), a Decomposition, a
    DenseOperator, a raw matrix, or a ChebyshevMoments sequence built on psi
    and phi. The operator is applied to phi: r products for power=r (r = 1
    when neither keyword is given), and for polynomial=P the moments of a
    ChebyshevMoments sequence, summed against P.cheb, the Chebyshev form
    P.eval_stable evaluates. Given a sequence, only polynomial=P applies,
    and the moments it already holds are reused, so a scan that passes one
    sequence to every test pays for the highest degree only. Nothing is
    diagonalized. A chain is applied factor by factor and accepts neither
    keyword.
    """
    if power is not None and polynomial is not None:
        raise ValidationError("pass at most one of power and polynomial")
    if isinstance(op, MatrixChain) or isinstance(op, (list, tuple)):
        if power is not None or polynomial is not None:
            raise ValidationError(
                "power/polynomial do not apply to a matrix chain"
            )
        handles = op.matrices if isinstance(op, MatrixChain) else list(op)
        dims = {h.dimension for h in handles}
        if len(dims) > 1:
            raise ValidationError(
                f"chain matrices disagree on dimension: {sorted(dims)}"
            )
        dimension = dims.pop() if dims else None
        if dimension is None:
            dimension = np.asarray(phi).shape[0] if isinstance(phi, np.ndarray) \
                else phi.dimension
        left = _as_dense_vector(psi, dimension)
        value = _as_dense_vector(phi, dimension)
        for handle in handles:
            value = sparse_term(handle) @ value
        return complex(np.vdot(left, value))
    if isinstance(op, ChebyshevMoments):
        if polynomial is None:
            raise ValidationError("a moment sequence takes polynomial=P only")
        left = _as_dense_vector(psi, op.dimension)
        right = _as_dense_vector(phi, op.dimension)
        if not (np.array_equal(left, op.psi) and np.array_equal(right, op.phi)):
            raise ValidationError(
                "psi and phi differ from the vectors the moment sequence "
                "was built on"
            )
        return op.dot(polynomial.cheb)
    if polynomial is not None:
        return ChebyshevMoments(op, psi, phi).dot(polynomial.cheb)
    op = _as_operator(op)
    left = _as_dense_vector(psi, op.dimension)
    value = _as_dense_vector(phi, op.dimension)
    power = 1 if power is None else int(power)
    if power < 0:
        raise ValidationError(f"power must be nonnegative, got {power}")
    for _ in range(power):
        value = op.apply(value)
    return complex(np.vdot(left, value))
