"""Local Hamiltonians as sums of row-sparse terms with norm bounds.

A Hamiltonian on n qubits is a list of local terms, each either a real
coefficient times a Pauli string or a dense Hermitian block on a few qubits.
Every term embeds into the full 2^n dimension as a row-query handle that never
materializes the big matrix: a Pauli term is a signed permutation (one nonzero
per row), a k-qubit block has at most 2^k nonzeros per row.

Qubit convention is little-endian: qubit q corresponds to bit q of the basis
index, and the leftmost character of a Pauli string acts on qubit 0.
"""

import copy
import json
import math
import os
import re

import numpy as np

from .errors import (
    DenseLimitError,
    HamiltonianFormatError,
    ValidationError,
    ZeroKappaError,
)

# Dense eigendecomposition of a single term is allowed up to this many qubits.
DENSE_TERM_LIMIT = 12

# Basis indices, masks and rows are int64 throughout, so bit 63 is out of reach.
MAX_QUBITS = 63

# A normalized decomposition's bounds sum to 1 within this (they are rounded).
KAPPA_TOL = 1e-9

_PAULI_CHARS = "IXYZ"


class LocalTerm:
    """One term of a local Hamiltonian.

    Exactly one of the two shapes is populated:
      * pauli: real coefficient times a length-n string over I, X, Y, Z;
      * block: dense Hermitian 2^k x 2^k matrix acting on `support`.

    kappa_override, when given, replaces the computed spectral norm as the
    term's norm bound; it may only loosen the bound, never undercut it. It
    keeps the bits it was given: one up to 1e-9 below the norm is accepted
    here, and build_decomposition records the norm for it.
    """

    __slots__ = ("support", "block", "pauli", "coeff", "kappa_override")

    def __init__(self, support, block, pauli, coeff, kappa_override=None):
        self.support = tuple(support)
        self.block = block
        self.pauli = pauli
        self.coeff = coeff
        self.kappa_override = kappa_override

    @classmethod
    def from_pauli(cls, coeff, string, kappa=None):
        coeff = _finite(coeff, "coefficient")
        for ch in string:
            if ch not in _PAULI_CHARS:
                raise HamiltonianFormatError(
                    f"unexpected character {ch!r} in Pauli string {string!r}"
                )
        support = tuple(q for q, ch in enumerate(string) if ch != "I")
        if kappa is not None:
            kappa = _check_kappa_override(kappa, abs(coeff))
        return cls(support, None, string, coeff, kappa)

    @classmethod
    def from_block(cls, qubits, block, kappa=None):
        qubits = tuple(int(q) for q in qubits)
        if len(set(qubits)) != len(qubits):
            raise ValidationError(f"duplicate qubits in block support {qubits}")
        if any(q < 0 for q in qubits):
            raise ValidationError(f"negative qubit index in support {qubits}")
        k = len(qubits)
        block = np.asarray(block, dtype=complex)
        if block.shape != (2**k, 2**k):
            raise ValidationError(
                f"block on {k} qubits must be {2**k}x{2**k}, got {block.shape}"
            )
        if not np.isfinite(block).all():
            raise ValidationError(f"block on qubits {qubits} has a non-finite entry")
        herm_gap = np.max(np.abs(block - block.conj().T)) if block.size else 0.0
        if herm_gap > 1e-10:
            raise ValidationError(
                f"block on qubits {qubits} is not Hermitian "
                f"(max |B - B*| = {herm_gap:.3e})"
            )
        block = block.copy()
        block.flags.writeable = False
        if kappa is not None:
            norm = float(np.linalg.norm(block, 2)) if k <= DENSE_TERM_LIMIT else None
            kappa = _check_kappa_override(kappa, norm)
        return cls(qubits, block, None, 1.0, kappa)

    @property
    def is_pauli(self):
        return self.pauli is not None

    def __repr__(self):
        if self.is_pauli:
            return f"LocalTerm({self.coeff!r} * {self.pauli!r})"
        return f"LocalTerm(block on qubits {self.support})"


def _finite(value, what):
    """value as a finite float, or a ValidationError that names it."""
    try:
        value = float(value)
    except (TypeError, ValueError):
        raise ValidationError(f"{what} must be a real number, got {value!r}") from None
    if not math.isfinite(value):
        raise ValidationError(f"{what} must be finite, got {value}")
    return value


def _check_kappa_override(kappa, norm):
    """The override as a finite float, checked against norm unless it is None."""
    kappa = _finite(kappa, "norm bound override")
    if norm is not None and kappa < norm - 1e-9:
        raise ValidationError(
            f"norm bound override {kappa} is below the term norm {norm}"
        )
    return kappa


def compute_term_norm(term):
    """Spectral norm of a single term.

    |coefficient| for a Pauli term; the largest singular value of the dense
    block otherwise. Blocks beyond DENSE_TERM_LIMIT qubits are refused.
    """
    if term.is_pauli:
        return abs(term.coeff)
    k = len(term.support)
    if k > DENSE_TERM_LIMIT:
        raise DenseLimitError(
            f"term acts on {k} qubits; dense norm limited to {DENSE_TERM_LIMIT}"
        )
    return float(np.linalg.norm(term.block, 2))


class SparseTermHandle:
    """Row-query access to one N x N term.

    Subclasses fill in dimension, sparsity (a bound on nonzeros per row),
    rows_many(rows), which answers a batch of rows in one call, and
    scaled(factor), which returns the same term times a scalar as a handle
    of its own shape, with the factor folded into its values. Handles are
    immutable and queries are pure.

    rows_many returns the nonzero entries of the rows as (parent, cols, vals)
    arrays: entry e sits in row rows[parent[e]], entries come row by row, in
    the handle's storage order, and stored zeros are left out.
    """

    dimension = None
    sparsity = None

    def rows_many(self, rows):
        raise NotImplementedError

    def scaled(self, factor):
        raise NotImplementedError


def _parity(v):
    """Parity of the set bits of each entry of an int64 array."""
    return np.bitwise_count(v) & 1


def _scale(vals, factor):
    """vals times the complex factor as a new array, rounded as Python's val *
    factor rounds each entry (numpy's vectorized complex multiply may not)."""
    out = np.empty(vals.shape, dtype=complex)
    out.real = vals.real * factor.real - vals.imag * factor.imag
    out.imag = vals.real * factor.imag + vals.imag * factor.real
    return out


class PermutationHandle(SparseTermHandle):
    """A signed permutation: at most one nonzero per row.

    Row i holds perm_phase * (-1)^parity(i & perm_signmask) at column
    i XOR perm_xmask; a phase of 0 leaves every row empty. The chain kernel
    reads the three fields directly.
    """

    def __init__(self, dimension, xmask, signmask, phase):
        self.dimension = dimension
        self.sparsity = 1
        self.perm_xmask = xmask
        self.perm_signmask = signmask
        self.perm_phase = complex(phase)

    def rows_many(self, rows):
        rows = np.asarray(rows, dtype=np.int64)
        if self.perm_phase == 0:
            rows = rows[:0]
        signs = 1.0 - 2.0 * _parity(rows & self.perm_signmask)
        return (np.arange(rows.size, dtype=np.int64), rows ^ self.perm_xmask,
                self.perm_phase * signs)

    def scaled(self, factor):
        return PermutationHandle(self.dimension, self.perm_xmask, self.perm_signmask,
                                 self.perm_phase * complex(factor))


class PauliTermHandle(PermutationHandle):
    """coeff times a Pauli string, as a signed permutation."""

    def __init__(self, string, coeff, n):
        if len(string) != n:
            raise ValidationError(
                f"Pauli string length {len(string)} does not match n={n}"
            )
        for ch in string:
            if ch not in _PAULI_CHARS:
                raise ValidationError(f"unexpected character {ch!r} in Pauli string")
        xmask = sum(1 << q for q, ch in enumerate(string) if ch in "XY")
        signmask = sum(1 << q for q, ch in enumerate(string) if ch in "YZ")
        phase = complex(float(coeff)) * (-1j) ** string.count("Y")
        super().__init__(2**n, xmask, signmask, phase)


class IdentityHandle(PermutationHandle):
    """scale times the identity, as a diagonal signed permutation."""

    def __init__(self, dimension, scale=1.0):
        super().__init__(dimension, 0, 0, scale)


class BlockTermHandle(SparseTermHandle):
    """Embedding of a dense k-qubit block into the full 2^n dimension.

    Row i touches only columns that agree with i outside the support, so the
    handle answers queries from the precomputed nonzero pattern of the small
    block without ever forming the Kronecker product.
    """

    def __init__(self, term, n):
        support = term.support
        k = len(support)
        if any(q >= n for q in support):
            raise ValidationError(
                f"support {support} does not fit in {n} qubits"
            )
        self.n = n
        self.dimension = 2**n
        self.support = support
        # scatter[b] = bits of the small index b placed at the support qubits
        small = np.arange(2**k, dtype=np.int64)
        scatter = np.zeros(2**k, dtype=np.int64)
        for p, q in enumerate(support):
            scatter |= ((small >> p) & 1) << q
        self._support_mask = int(scatter[-1]) if k else 0
        # Row a of the small block as padded tables: its nonzero columns,
        # placed at the support qubits, and their values (padding holds 0).
        nonzero = [np.flatnonzero(term.block[a]) for a in range(2**k)]
        self.sparsity = max((len(cols) for cols in nonzero), default=0)
        self._col_table = np.zeros((2**k, self.sparsity), dtype=np.int64)
        self._val_table = np.zeros((2**k, self.sparsity), dtype=complex)
        for a, cols in enumerate(nonzero):
            self._col_table[a, :len(cols)] = scatter[cols]
            self._val_table[a, :len(cols)] = term.block[a, cols]

    def _small_row(self, rows):
        """Small-block row read by each of rows (an int64 array)."""
        a = rows & 0
        for p, q in enumerate(self.support):
            a = a | (((rows >> q) & 1) << p)
        return a

    def rows_many(self, rows):
        rows = np.asarray(rows, dtype=np.int64)
        small = self._small_row(rows)
        parent, pos = np.nonzero(self._val_table[small])
        a = small[parent]
        cols = (rows[parent] & ~self._support_mask) | self._col_table[a, pos]
        return parent, cols, self._val_table[a, pos]

    def scaled(self, factor):
        # Same pattern, scaled values; an entry that scales to 0 stays in the
        # pattern, and rows_many leaves it out as a stored zero.
        out = copy.copy(self)
        out._val_table = _scale(self._val_table, complex(factor))
        return out


class ExplicitSparseHandle(SparseTermHandle):
    """Handle over explicit per-row (columns, values) data.

    The rows are held as padded tables, as BlockTermHandle holds its small
    block: row i's columns and values fill the front of row i of each table,
    and the padding holds 0, so rows_many is one gather.
    """

    def __init__(self, rows, dimension=None):
        rows = [(np.asarray(cols, dtype=np.int64), np.asarray(vals, dtype=complex))
                for cols, vals in rows]
        self.dimension = dimension if dimension is not None else len(rows)
        if len(rows) != self.dimension:
            raise ValidationError("row data does not cover the stated dimension")
        self.sparsity = max((len(cols) for cols, _ in rows), default=0)
        self._col_table = np.zeros((len(rows), self.sparsity), dtype=np.int64)
        self._val_table = np.zeros((len(rows), self.sparsity), dtype=complex)
        for i, (cols, vals) in enumerate(rows):
            self._col_table[i, :len(cols)] = cols
            self._val_table[i, :len(vals)] = vals

    def rows_many(self, rows):
        rows = np.asarray(rows, dtype=np.int64)
        parent, pos = np.nonzero(self._val_table[rows])
        i = rows[parent]
        return parent, self._col_table[i, pos], self._val_table[i, pos]

    def scaled(self, factor):
        out = copy.copy(self)
        out._val_table = _scale(self._val_table, complex(factor))
        return out


def term_to_sparse(term, n):
    """Embed one local term into the full 2^n dimension as a row handle."""
    if term.is_pauli:
        return PauliTermHandle(term.pauli, term.coeff, n)
    return BlockTermHandle(term, n)


class Decomposition:
    """A matrix as a sum of row-sparse terms with per-term norm bounds.

    kappa_i[i] upper-bounds the spectral norm of term i, kappa is their sum,
    and s is the largest per-row nonzero count over the terms. The dimension
    is the terms'; with no terms it is the given one.
    """

    def __init__(self, terms, kappa_i, dimension=0):
        terms = list(terms)
        kappa_i = [float(k) for k in kappa_i]
        if len(terms) != len(kappa_i):
            raise ValidationError("one norm bound per term required")
        if any(k < 0 for k in kappa_i):
            raise ValidationError("norm bounds must be nonnegative")
        dims = {t.dimension for t in terms}
        if len(dims) > 1:
            raise ValidationError(f"terms disagree on dimension: {sorted(dims)}")
        self.terms = terms
        self.kappa_i = kappa_i
        self.kappa = float(sum(kappa_i))
        if not math.isfinite(self.kappa):
            raise ValidationError(
                f"the norm bounds sum to {self.kappa}, not a finite kappa")
        self.s = max((t.sparsity for t in terms), default=0)
        self.dimension = dims.pop() if dims else dimension

    @property
    def m(self):
        return len(self.terms)

    def __repr__(self):
        return (
            f"Decomposition(m={self.m}, s={self.s}, kappa={self.kappa:.6g}, "
            f"N={self.dimension})"
        )


def build_decomposition(n, local_terms):
    """Embed local terms on n qubits into a Decomposition.

    Norm bounds are the exact per-term spectral norms unless a term carries an
    override, which has been validated to lie at most 1e-9 below the norm;
    the bound is then max(override, norm), so no bound undercuts a norm the
    package computes. A block past DENSE_TERM_LIMIT qubits has no computed
    norm and keeps its override. At most MAX_QUBITS qubits are accepted.
    """
    if n > MAX_QUBITS:
        raise ValidationError(
            f"{n} qubits exceed the limit of {MAX_QUBITS}: basis indices are "
            f"64-bit signed integers"
        )
    handles = []
    bounds = []
    for idx, term in enumerate(local_terms):
        try:
            handles.append(term_to_sparse(term, n))
        except ValidationError as exc:
            raise ValidationError(f"term {idx}: {exc}") from None
        bound = term.kappa_override
        if bound is None or term.is_pauli or len(term.support) <= DENSE_TERM_LIMIT:
            norm = compute_term_norm(term)
            bound = norm if bound is None else max(bound, norm)
        bounds.append(bound)
    return Decomposition(handles, bounds, 2**n)


def shift_rescale(decomp):
    """Decomposition of (I + A/kappa)/2, whose spectrum lies in [0, 1].

    Puts the identity first, as its own 1-sparse term with scale and bound
    1/2, then each original term scaled by 1/(2 kappa) (h.scaled, so each
    keeps its own shape) with its bound scaled alike; the bounds sum to 1.
    """
    if decomp.kappa <= 0:
        raise ZeroKappaError("shift/rescale requires kappa > 0")
    half = 1.0 / (2.0 * decomp.kappa)
    terms = [IdentityHandle(decomp.dimension, 0.5)]
    bounds = [0.5]
    for handle, ki in zip(decomp.terms, decomp.kappa_i):
        terms.append(handle.scaled(half))
        bounds.append(ki * half)
    return Decomposition(terms, bounds)


def shifted_operator(decomp_prime, c):
    """Decomposition of (c I - y)/(1 + |c|) = c/(1 + |c|) I - (2/(1 + |c|))(A' - I/2).

    Built from shift_rescale's decomposition of A' (y = 2A' - I = A/kappa):
    the head identity gets scale c/(1 + |c|) and bound |c|/(1 + |c|), and
    every other term is scaled by -2/(1 + |c|), its bound b_i becoming
    2 b_i/(1 + |c|); those b_i sum to 1/2, so the new bounds sum to 1. c must
    lie in [-1, 1]; for c in [0, 1] |c| is c, and at c = 0 and c = 1 the
    factor is -2 or -1, so the terms are those of A' times it bit for bit.
    Any other shape is refused.
    """
    terms, bounds = decomp_prime.terms, decomp_prime.kappa_i
    head = terms[0] if terms else None
    if (not isinstance(head, IdentityHandle) or head.perm_phase != 0.5
            or bounds[0] != 0.5 or abs(decomp_prime.kappa - 1.0) > KAPPA_TOL):
        raise ValidationError(
            "shifted_operator needs shift_rescale's decomposition: the "
            "identity with scale and bound 1/2 first, and bounds summing to 1"
        )
    c = float(c)
    if not -1.0 <= c <= 1.0:
        raise ValidationError(f"shift c must be in [-1, 1], got {c}")
    scale = 1.0 + abs(c)
    head = IdentityHandle(decomp_prime.dimension, c / scale)
    flipped = [h.scaled(-2.0 / scale) for h in terms[1:]]
    scaled = [abs(c) / scale] + [2.0 * b / scale for b in bounds[1:]]
    return Decomposition([head] + flipped, scaled)


# ---------------------------------------------------------------------------
# File formats


def load_hamiltonian(source):
    """Parse a Hamiltonian from a file path or raw text.

    Text format: one header line ``n=<int>``, then per line either
    ``<coeff> <IXYZ string>`` or ``BLOCK q=<comma list> <re,im pairs>``,
    each optionally suffixed ``KAPPA_I=<real>``; ``#`` starts a comment.
    Files named ``*.json`` (or text whose first character is ``{``) use the
    JSON equivalent. Returns (n, list of LocalTerm).
    """
    text, is_json = _read_source(source)
    if is_json:
        return _load_json(text)
    return _load_text(text)


def _read_source(source):
    source = os.fspath(source) if hasattr(source, "__fspath__") else source
    if isinstance(source, str) and "\n" not in source and os.path.exists(source):
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
        return text, source.endswith(".json")
    if not isinstance(source, str):
        raise HamiltonianFormatError(f"cannot read Hamiltonian from {type(source)}")
    stripped = source.lstrip()
    return source, stripped.startswith("{")


def _load_text(text):
    n = None
    terms = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if n is None:
            match = re.fullmatch(r"n\s*=\s*([0-9]+)", line)
            if match is None:
                raise HamiltonianFormatError(
                    f"expected header 'n=<int>', got {line!r}", line=lineno
                )
            n = int(match.group(1))
            if n < 1:
                raise HamiltonianFormatError("qubit count must be >= 1", line=lineno)
            continue
        try:
            terms.append(_term(n, _text_entry(line.split())))
        except ValueError as exc:  # float's, int's, and both package errors
            raise HamiltonianFormatError(str(exc), line=lineno) from None
    if n is None:
        raise HamiltonianFormatError("empty input: missing 'n=<int>' header")
    return n, terms


def _text_entry(tokens):
    """The JSON entry of one text line's tokens, its block as one array.
    A token that is no number raises float's or int's ValueError."""
    entry = {}
    if tokens and tokens[-1].startswith("KAPPA_I="):
        entry["kappa"] = float(tokens.pop()[len("KAPPA_I="):])
    if tokens and tokens[0] == "BLOCK":
        if len(tokens) < 2 or not tokens[1].startswith("q="):
            raise HamiltonianFormatError("BLOCK line must start 'BLOCK q=<comma list>'")
        entry["qubits"] = [int(part) for part in tokens[1][2:].split(",") if part]
        pairs = [token.split(",") for token in tokens[2:]]
        if any(len(pair) != 2 for pair in pairs):
            raise HamiltonianFormatError("block entries must be 're,im' pairs")
        # each (re, im) row of floats is one complex value, bit for bit
        values = np.array(pairs, dtype=float).reshape(-1, 2).view(complex)[:, 0]
        side = math.isqrt(values.size)
        # a count that is no square stays one row, which _term refuses
        entry["block"] = (values.reshape(side, side) if side * side == values.size
                          else values[None])
        return entry
    if len(tokens) != 2:
        raise HamiltonianFormatError(
            f"expected '<coeff> <Pauli string>', got {' '.join(tokens)!r}"
        )
    entry.update(coeff=float(tokens[0]), pauli=tokens[1])
    return entry


def _load_json(text):
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise HamiltonianFormatError(f"invalid JSON: {exc}") from None
    if not isinstance(data, dict) or "n" not in data or not isinstance(
            data.get("terms"), list):
        raise HamiltonianFormatError("JSON Hamiltonian needs 'n' and a list of 'terms'")
    n = data["n"]
    if type(n) is not int or n < 1:  # a JSON true or false is no number
        raise HamiltonianFormatError(f"'n' must be a positive integer, got {n!r}")
    terms = []
    for idx, entry in enumerate(data["terms"]):
        try:
            terms.append(_term(n, entry))
        except (ValidationError, HamiltonianFormatError) as exc:
            raise HamiltonianFormatError(f"term {idx}: {exc}") from None
    return n, terms


def _term(n, entry):
    """The LocalTerm of one entry on n qubits, from either format.

    entry holds exactly one of a Pauli string ("pauli", with an optional real
    "coeff", 1 by default) and a square block ("block", on a nonempty list of
    distinct "qubits" in [0, n)), and an optional real "kappa" override. The
    block is an array (text) or a list of rows of numbers and [re, im] pairs
    (JSON). A real is an int or a float, never a bool or a string.
    LocalTerm.from_pauli and from_block check the rest.
    """
    if not isinstance(entry, dict):
        raise HamiltonianFormatError("a term must be an object")
    if ("pauli" in entry) == ("block" in entry):
        raise HamiltonianFormatError("a term needs exactly one of 'pauli' and 'block'")
    kappa = entry.get("kappa")
    if kappa is not None:
        kappa = _number(kappa, "kappa")
    if "pauli" in entry:
        string = entry["pauli"]
        if not isinstance(string, str) or len(string) != n:
            raise HamiltonianFormatError(
                f"Pauli string {string!r} must have length n={n}"
            )
        return LocalTerm.from_pauli(_number(entry.get("coeff", 1.0), "coefficient"),
                                    string, kappa)
    qubits = entry.get("qubits")
    if not (isinstance(qubits, list) and qubits
            and all(type(q) is int and 0 <= q < n for q in qubits)):
        raise HamiltonianFormatError(
            f"qubits {qubits!r} must be a nonempty list of integers in [0, {n})"
        )
    rows = entry["block"]
    if not isinstance(rows, np.ndarray):
        if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
            raise HamiltonianFormatError("block must be a list of rows")
        rows = [[_scalar(x) for x in row] for row in rows]
    if any(len(row) != len(rows) for row in rows):
        raise HamiltonianFormatError("block must be square")
    return LocalTerm.from_block(qubits, np.asarray(rows, dtype=complex), kappa)


def _number(value, what):
    """value, an int or a float, as a float."""
    if type(value) not in (int, float):
        raise HamiltonianFormatError(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # a JSON integer past the largest float
        raise HamiltonianFormatError(f"{what} overflows a float") from None


def _scalar(entry):
    """One JSON block entry, a number or an [re, im] pair, as a complex."""
    if isinstance(entry, list) and len(entry) == 2:
        return complex(_number(entry[0], "block entry"), _number(entry[1], "block entry"))
    return complex(_number(entry, "block entry"))
