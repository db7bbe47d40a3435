"""Exact dense ground truth for small instances.

Everything here assembles explicit matrices, so the sampled estimators can
be checked against exact values; it also backs the oracle-exact policy,
which replaces the stochastic inner layer entirely. That policy is the one
performance path here: a solve reconstructs its normalized operator once and
evaluates every threshold test as <psi| P(A') |psi> by a Clenshaw recurrence
on the filter's Chebyshev coefficients, using only matrix-vector products.
The eigendecomposition is computed on first use, for the spectral queries
(ground energy, ground vector, overlap, polynomial_matrix), and cached.
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
    """A dense Hermitian matrix with a lazily cached eigendecomposition.

    Construction checks squareness, the dimension limit and Hermiticity (so
    the spectrum is real and eigh applies) and never diagonalizes. The
    eigenvalues (ascending) and eigenvectors are computed on first access,
    where the reconstruction residual is verified, and cached.
    """

    def __init__(self, matrix):
        matrix = np.asarray(matrix, dtype=complex)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValidationError(f"operator must be square, got {matrix.shape}")
        if matrix.shape[0] > DENSE_DIMENSION_LIMIT:
            raise DenseLimitError(
                f"dense operator dimension {matrix.shape[0]} exceeds "
                f"{DENSE_DIMENSION_LIMIT}"
            )
        herm_gap = float(np.max(np.abs(matrix - matrix.conj().T)))
        if herm_gap > _HERMITIAN_TOL:
            raise ValidationError(
                f"operator is not Hermitian (max |A - A*| = {herm_gap:.3e}); "
                f"a real spectrum is required"
            )
        self.matrix = matrix.copy()
        self.matrix.flags.writeable = False
        self.dimension = matrix.shape[0]
        self._eigenpairs = None

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


def _add_term(out, handle):
    # Every row at once; the values equal the row queries' exactly.
    rows, cols, vals = handle.rows_many(np.arange(handle.dimension, dtype=np.int64))
    np.add.at(out, (rows, cols), vals)


def dense_term(handle):
    """Dense matrix of one row-query handle."""
    n = handle.dimension
    if n > DENSE_DIMENSION_LIMIT:
        raise DenseLimitError(
            f"term dimension {n} exceeds {DENSE_DIMENSION_LIMIT}"
        )
    mat = np.zeros((n, n), dtype=complex)
    _add_term(mat, handle)
    return mat


def reconstruct(decomp):
    """Assemble the dense sum of a decomposition's terms, in term order."""
    if decomp.dimension > DENSE_DIMENSION_LIMIT:
        raise DenseLimitError(
            f"decomposition dimension {decomp.dimension} exceeds "
            f"{DENSE_DIMENSION_LIMIT}"
        )
    total = np.zeros((decomp.dimension, decomp.dimension), dtype=complex)
    for handle in decomp.terms:
        _add_term(total, handle)
    return DenseOperator(total)


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
    """Exact <psi| f(op) |phi> by dense linear algebra.

    op may be a MatrixChain (or plain list of handles), a Decomposition, a
    DenseOperator, or a raw matrix. The operator is applied to phi: r
    matrix-vector products for power=r (r = 1 when neither keyword is
    given), and the Clenshaw recurrence on P.cheb for polynomial=P, the same
    Chebyshev form P.eval_stable evaluates. Nothing is diagonalized. A chain
    is applied factor by factor and accepts neither keyword.
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
            value = dense_term(handle) @ value
        return complex(np.vdot(left, value))
    op = _as_operator(op)
    left = _as_dense_vector(psi, op.dimension)
    right = _as_dense_vector(phi, op.dimension)
    if polynomial is not None:
        value = _clenshaw(op.matrix, polynomial.cheb, right)
    else:
        power = 1 if power is None else int(power)
        if power < 0:
            raise ValidationError(f"power must be nonnegative, got {power}")
        value = right
        for _ in range(power):
            value = op.matrix @ value
    return complex(np.vdot(left, value))


def _clenshaw(matrix, cheb, vec):
    """sum_k cheb[k] T_k(matrix) vec, by the Clenshaw recurrence."""
    d = len(cheb) - 1
    if d == 0:
        return cheb[0] * vec
    b1 = cheb[d] * vec
    b2 = np.zeros_like(vec)
    for k in range(d - 1, 0, -1):
        b1, b2 = cheb[k] * vec + 2.0 * (matrix @ b1) - b2, b1
    return cheb[0] * vec + matrix @ b1 - b2
