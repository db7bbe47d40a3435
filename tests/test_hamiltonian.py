import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigensampler import (
    Decomposition,
    LocalTerm,
    ValidationError,
    build_decomposition,
    compute_term_norm,
    load_hamiltonian,
    shift_rescale,
    term_to_sparse,
)
from eigensampler.hamiltonian import (
    BlockTermHandle,
    ExplicitSparseHandle,
    HamiltonianFormatError,
    IdentityHandle,
    PauliTermHandle,
    PermutationHandle,
    _scale,
)

from helpers import (
    PAULI,
    hamiltonian_matrix,
    pauli_matrix,
    random_block_term,
    term_matrix,
)


def dense_of_handle(handle):
    """Dense matrix of a handle, from one rows_many call over every row."""
    dim = handle.dimension
    parent, cols, vals = handle.rows_many(np.arange(dim))
    out = np.zeros((dim, dim), dtype=complex)
    np.add.at(out, (parent, cols), vals)
    return out


def row_entries(handle, i):
    """(column, value) pairs of row i, in the order rows_many gives them."""
    _, cols, vals = handle.rows_many([i])
    return list(zip(cols.tolist(), vals.tolist()))


class TestPauliHandle:
    def test_single_qubit_rows(self):
        """Character q of the string acts on bit q of the index."""
        h = PauliTermHandle("X", 1.0, 1)
        assert row_entries(h, 0) == [(1, 1.0 + 0j)]
        assert row_entries(h, 1) == [(0, 1.0 + 0j)]
        h = PauliTermHandle("Z", 2.0, 1)
        assert row_entries(h, 0) == [(0, 2.0 + 0j)]
        assert row_entries(h, 1) == [(1, -2.0 + 0j)]
        h = PauliTermHandle("Y", 1.0, 1)
        assert row_entries(h, 0) == [(1, -1j)]
        assert row_entries(h, 1) == [(0, 1j)]

    def test_leftmost_character_is_qubit_zero(self):
        # "XI" flips bit 0, "IX" flips bit 1
        h = PauliTermHandle("XI", 1.0, 2)
        assert row_entries(h, 0)[0][0] == 1
        h = PauliTermHandle("IX", 1.0, 2)
        assert row_entries(h, 0)[0][0] == 2

    @pytest.mark.parametrize("string", ["XZ", "YY", "ZIY", "XYZ", "IZX"])
    def test_rows_match_kronecker_product(self, string):
        coeff = -0.7
        h = PauliTermHandle(string, coeff, len(string))
        assert np.allclose(dense_of_handle(h), coeff * pauli_matrix(string))

    def test_pauli_is_one_sparse(self):
        h = PauliTermHandle("XYZI", 0.3, 4)
        assert h.sparsity == 1
        parent, _, _ = h.rows_many(np.arange(16))
        assert parent.tolist() == list(range(16))

    def test_bad_character_rejected(self):
        with pytest.raises(HamiltonianFormatError):
            LocalTerm.from_pauli(1.0, "XQ")


class TestBlockHandle:
    def test_block_embedding_matches_dense(self):
        rng = np.random.default_rng(11)
        n = 3
        term = random_block_term(rng, n, 2)
        h = term_to_sparse(term, n)
        assert np.allclose(dense_of_handle(h), hamiltonian_matrix(n, [term]))

    def test_rows_only_touch_support(self):
        rng = np.random.default_rng(5)
        n = 4
        term = random_block_term(rng, n, 2)
        h = term_to_sparse(term, n)
        off_support = sum(1 << q for q in range(n) if q not in term.support)
        rows = np.arange(2**n)
        parent, cols, _ = h.rows_many(rows)
        assert parent.size > 0
        assert np.array_equal(cols & off_support, rows[parent] & off_support)

    def test_non_hermitian_block_rejected(self):
        bad = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValidationError):
            LocalTerm.from_block([0], bad)

    def test_support_must_fit(self):
        term = LocalTerm.from_block([3], np.eye(2))
        with pytest.raises(ValidationError):
            term_to_sparse(term, 2)


EXPLICIT_ROWS = [([1, 5], [1.0, 0.0]), ([], []), ([7, 0, 2], [2j, -1.0, 0.5])] + \
    [([3], [1.0])] * 5


def explicit_dense(rows):
    out = np.zeros((len(rows), len(rows)), dtype=complex)
    for i, (cols, vals) in enumerate(rows):
        out[i, cols] = vals
    return out


def one_handle_of_each_shape(rng):
    """Handles of every class on 3 qubits, zero phases and stored zeros
    included, each paired with its dense matrix, built from the Pauli
    matrices, helpers.term_matrix or the row data, not from a handle."""
    n = 3
    block = np.diag([1.0, 0.0, 2.0, -1.0]).astype(complex)
    block[0, 3] = block[3, 0] = -0.5
    random_term = random_block_term(rng, n, 2)
    zero_block = LocalTerm.from_block((2, 0), block)
    return [
        (PauliTermHandle("XYZ", -0.7, n), -0.7 * pauli_matrix("XYZ")),
        (PauliTermHandle("ZIY", 0.0, n), 0.0 * pauli_matrix("ZIY")),
        (IdentityHandle(2**n, 0.25j), 0.25j * np.eye(2**n)),
        (IdentityHandle(2**n, 0.0), np.zeros((2**n, 2**n))),
        (BlockTermHandle(random_term, n), term_matrix(random_term, n)),
        (BlockTermHandle(zero_block, n), term_matrix(zero_block, n)),
        (ExplicitSparseHandle(EXPLICIT_ROWS), explicit_dense(EXPLICIT_ROWS)),
    ]


def test_rows_many_matches_dense_rows():
    """rows_many gives the nonzeros of each asked row of an independently
    built dense matrix, row by row, as many times as the row is asked."""
    rng = np.random.default_rng(31)
    n = 3
    pairs = one_handle_of_each_shape(rng)
    pairs += [(h.scaled(f), f * dense) for h, dense in pairs for f in (0.3 - 1.2j, 0.0)]
    rows = rng.integers(0, 2**n, size=40)
    for h, dense in pairs:
        parent, cols, vals = h.rows_many(rows)
        assert parent.dtype == cols.dtype == np.int64 and vals.dtype == complex
        assert np.all(np.diff(parent) >= 0) and np.all(vals != 0), h
        for p, i in enumerate(rows.tolist()):
            mine = parent == p
            assert sorted(cols[mine].tolist()) == np.flatnonzero(dense[i]).tolist(), h
            assert np.allclose(vals[mine], dense[i, cols[mine]], rtol=1e-14, atol=0), h


@pytest.mark.parametrize("factor", [0.3 - 1.2j, 0.0, 1.0])
def test_scaled_rows_are_the_rows_times_the_factor(factor):
    """h.scaled(f) answers h's rows with every value passed through _scale,
    entries that scale to zero left out, and the same class of handle."""
    rng = np.random.default_rng(32)
    rows = rng.integers(0, 8, size=40)
    for h, _ in one_handle_of_each_shape(rng):
        scaled = h.scaled(factor)
        parent, cols, vals = h.rows_many(rows)
        vals = _scale(vals, complex(factor))
        keep = vals != 0
        got = scaled.rows_many(rows)
        for have, want in zip(got, (parent[keep], cols[keep], vals[keep])):
            assert have.dtype == want.dtype
            assert np.array_equal(have, want), h
        assert scaled is not h
        assert scaled.dimension == h.dimension
        assert scaled.sparsity == h.sparsity
        shape = PermutationHandle if isinstance(h, PermutationHandle) else type(h)
        assert type(scaled) is shape


def test_compute_term_norm_matches_numpy():
    rng = np.random.default_rng(2)
    term = random_block_term(rng, 2, 2)
    want = np.linalg.norm(np.asarray(term.block), 2)
    assert abs(compute_term_norm(term) - want) <= 1e-12
    p = LocalTerm.from_pauli(-0.4, "XZ")
    assert abs(compute_term_norm(p) - 0.4) <= 1e-15


def test_kappa_override_must_dominate_norm():
    LocalTerm.from_pauli(0.5, "Z", kappa=0.7)  # loosening is fine
    with pytest.raises(ValidationError):
        LocalTerm.from_pauli(0.5, "Z", kappa=0.4)


def test_build_decomposition_totals():
    rng = np.random.default_rng(3)
    terms = [
        LocalTerm.from_pauli(0.25, "XZ"),
        LocalTerm.from_pauli(-0.5, "ZI"),
        random_block_term(rng, 2, 2),
    ]
    d = build_decomposition(2, terms)
    assert d.m == 3
    assert d.dimension == 4
    norms = [compute_term_norm(t) for t in terms]
    assert np.allclose(d.kappa_i, norms)
    assert abs(d.kappa - sum(norms)) <= 1e-12
    assert d.s == max(h.sparsity for h in d.terms)


def test_decomposition_without_terms_keeps_its_qubits_dimension():
    empty = build_decomposition(2, [])
    assert (empty.m, empty.kappa, empty.dimension) == (0, 0.0, 4)
    assert Decomposition([], []).dimension == 0


def test_build_decomposition_refuses_64_qubits():
    # basis indices and masks are int64, so bit 63 cannot be addressed
    top = [LocalTerm.from_pauli(1.0, "I" * 62 + "X")]
    assert build_decomposition(63, top).dimension == 2**63
    with pytest.raises(ValidationError, match="64 qubits"):
        build_decomposition(64, [LocalTerm.from_pauli(1.0, "I" * 63 + "X")])


def test_kappa_override_propagates_to_bounds():
    terms = [LocalTerm.from_pauli(0.5, "Z", kappa=0.9)]
    d = build_decomposition(1, terms)
    assert d.kappa_i == [0.9]
    assert d.kappa == 0.9


TEXT = """
# two-term instance
n=2
0.5 XZ
-0.25 ZI KAPPA_I=0.3
BLOCK q=0,1 1,0 0,0 0,0 0,0 0,0 0,0 0,0 0,0 0,0 0,0 0,0 0,0 0,0 0,0 0,0 1,0
"""


def test_load_text_format():
    n, terms = load_hamiltonian(TEXT)
    assert n == 2
    assert len(terms) == 3
    assert terms[0].pauli == "XZ" and terms[0].coeff == 0.5
    assert terms[1].kappa_override == 0.3
    assert terms[2].block is not None
    assert terms[2].support == (0, 1)


def test_load_json_equivalent():
    doc = {
        "n": 2,
        "terms": [
            {"coeff": 0.5, "pauli": "XZ"},
            {"coeff": -0.25, "pauli": "ZI", "kappa": 0.3},
            {
                "qubits": [0, 1],
                "block": [
                    [1, 0, 0, 0],
                    [0, 0, 0, 0],
                    [0, 0, 0, 0],
                    [0, 0, 0, [1, 0]],
                ],
            },
        ],
    }
    n_t, terms_t = load_hamiltonian(TEXT)
    n_j, terms_j = load_hamiltonian(json.dumps(doc))
    assert n_j == n_t
    H_t = hamiltonian_matrix(n_t, terms_t)
    H_j = hamiltonian_matrix(n_j, terms_j)
    assert np.allclose(H_t, H_j)


@st.composite
def hamiltonians(draw):
    """(n, terms) with terms as (coeff, pauli, support, block, kappa) tuples:
    Pauli strings and Hermitian blocks on up to 2 qubits, optional overrides."""
    n = draw(st.integers(1, 6))
    terms = []
    for _ in range(draw(st.integers(0, 5))):
        if draw(st.booleans()):
            coeff = draw(st.floats(allow_nan=False, allow_infinity=False))
            pauli = draw(st.text("IXYZ", min_size=n, max_size=n))
            support, block, norm = None, None, abs(coeff)
        else:
            coeff, pauli = 1.0, None
            support = tuple(draw(st.lists(st.integers(0, n - 1), min_size=1,
                                          max_size=min(2, n), unique=True)))
            dim = 2 ** len(support)
            # Bounded, so the norm an override is checked against stays finite.
            entry = st.floats(-1e100, 1e100, allow_nan=False)
            block = np.zeros((dim, dim), dtype=complex)
            for i in range(dim):
                block[i, i] = draw(entry)
                for j in range(i + 1, dim):
                    block[i, j] = complex(draw(entry), draw(entry))
                    block[j, i] = block[i, j].conjugate()
            norm = float(np.linalg.norm(block, 2))
        kappa = None
        if draw(st.booleans()):
            kappa = norm + draw(st.floats(0.0, 10.0))
        terms.append((coeff, pauli, support, block, kappa))
    return n, terms


def render_text(n, terms):
    lines = [f"n={n}"]
    for coeff, pauli, support, block, kappa in terms:
        if pauli is not None:
            line = f"{coeff!r} {pauli}"
        else:
            entries = " ".join(f"{float(v.real)!r},{float(v.imag)!r}"
                               for v in block.ravel())
            line = f"BLOCK q={','.join(map(str, support))} {entries}"
        if kappa is not None:
            line += f" KAPPA_I={kappa!r}"
        lines.append(line)
    return "\n".join(lines) + "\n"


def render_json(n, terms):
    entries = []
    for coeff, pauli, support, block, kappa in terms:
        if pauli is not None:
            entry = {"coeff": coeff, "pauli": pauli}
        else:
            entry = {"qubits": list(support),
                     "block": [[[float(v.real), float(v.imag)] for v in row]
                               for row in block]}
        if kappa is not None:
            entry["kappa"] = kappa
        entries.append(entry)
    return json.dumps({"n": n, "terms": entries})


def same_bits(a, b):
    return (a is None and b is None) or (
        a is not None and b is not None
        and np.asarray(a).shape == np.asarray(b).shape
        and np.asarray(a).tobytes() == np.asarray(b).tobytes())


@settings(max_examples=150, deadline=None)
@given(hamiltonians())
def test_both_parsers_round_trip_bit_for_bit(drawn):
    n, terms = drawn
    for text in (render_text(n, terms), render_json(n, terms)):
        got_n, got = load_hamiltonian(text)
        assert got_n == n and len(got) == len(terms)
        for term, (coeff, pauli, support, block, kappa) in zip(got, terms):
            assert same_bits(term.coeff, coeff)
            assert term.pauli == pauli
            if pauli is None:
                assert term.support == support
            else:
                assert term.support == tuple(q for q, c in enumerate(pauli) if c != "I")
            assert same_bits(term.block, block)
            assert same_bits(term.kappa_override, kappa)


def test_load_from_file(tmp_path):
    p = tmp_path / "h.txt"
    p.write_text("n=1\n1.0 Z\n")
    n, terms = load_hamiltonian(str(p))
    assert n == 1 and terms[0].pauli == "Z"


@pytest.mark.parametrize(
    "text",
    [
        "1.0 Z\n",  # missing header
        "n=1\n1.0 Q\n",  # bad pauli character
        "n=1\nfoo Z\n",  # bad coefficient
        "n=2\n1.0 Z\n",  # string length disagrees with n
        "n=0\n",  # no qubits
    ],
)
def test_load_rejects_malformed_text(text):
    with pytest.raises((HamiltonianFormatError, ValidationError)):
        load_hamiltonian(text)


# The same malformed term in both formats, on n = 2 after one good term:
# (text line, JSON entry, what the message says).
MALFORMED_TERMS = [
    ("1.0 ZZZ", {"coeff": 1.0, "pauli": "ZZZ"}, "must have length n=2"),
    ("1.0 ZQ", {"coeff": 1.0, "pauli": "ZQ"}, "unexpected character 'Q'"),
    ("nan ZZ", {"coeff": float("nan"), "pauli": "ZZ"}, "coefficient must be finite"),
    ("1.0 ZZ KAPPA_I=0.5", {"coeff": 1.0, "pauli": "ZZ", "kappa": 0.5},
     "below the term norm"),
    ("BLOCK q= 2,0", {"qubits": [], "block": [[2.0]]}, "nonempty list"),
    ("BLOCK q=2 1,0 0,0 0,0 1,0", {"qubits": [2], "block": [[1, 0], [0, 1]]},
     "integers in [0, 2)"),
    ("BLOCK q=0 1,0 0,0 0,0", {"qubits": [0], "block": [[1, 0], [0]]},
     "block must be square"),
    ("BLOCK q=0,1 1,0 0,0 0,0 1,0", {"qubits": [0, 1], "block": [[1, 0], [0, 1]]},
     "block on 2 qubits must be 4x4"),
    ("BLOCK q=0,0 " + " ".join(["1,0"] * 16),
     {"qubits": [0, 0], "block": [[1] * 4] * 4}, "duplicate qubits"),
    ("BLOCK q=0 0,0 1,0 0,0 0,0", {"qubits": [0], "block": [[0, 1], [0, 0]]},
     "not Hermitian"),
    ("BLOCK q=0 1,0 0,0 0,0 inf,0", {"qubits": [0], "block": [[1, 0], [0, 1e400]]},
     "non-finite entry"),
]


@pytest.mark.parametrize("line, entry, message", MALFORMED_TERMS,
                         ids=[line for line, _, _ in MALFORMED_TERMS])
def test_both_formats_refuse_a_malformed_term_alike(line, entry, message):
    with pytest.raises(HamiltonianFormatError, match=r"^line 3: .*" + re.escape(message)):
        load_hamiltonian(f"n=2\n0.5 XZ\n{line}\n")
    doc = {"n": 2, "terms": [{"coeff": 0.5, "pauli": "XZ"}, entry]}
    with pytest.raises(HamiltonianFormatError, match=r"^term 1: .*" + re.escape(message)):
        load_hamiltonian(json.dumps(doc))


@pytest.mark.parametrize("entry", [
    {"coeff": 1.0, "pauli": "Z", "qubits": [0], "block": [[1, 0], [0, 1]]},
    {"coeff": 1.0},
    {"pauli": "Z", "coeff": 10 ** 400},
])
def test_json_term_holds_exactly_one_of_pauli_and_block(entry):
    # a term with both is refused, not read as its Pauli string alone; an
    # integer past the largest float is refused, not an OverflowError
    with pytest.raises(HamiltonianFormatError, match="^term 0: "):
        load_hamiltonian(json.dumps({"n": 1, "terms": [entry]}))


def test_shift_rescale_spectrum_in_unit_interval():
    rng = np.random.default_rng(7)
    for _ in range(5):
        n = int(rng.integers(1, 4))
        strings = ["".join(rng.choice(list("IXYZ"), size=n)) for _ in range(3)]
        strings = [s if set(s) != {"I"} else "Z" + s[1:] for s in strings]
        terms = [
            LocalTerm.from_pauli(float(rng.uniform(-1, 1)) or 0.5, s) for s in strings
        ]
        d = build_decomposition(n, terms)
        dp = shift_rescale(d)
        assert abs(sum(dp.kappa_i) - 1.0) <= 1e-12
        H = hamiltonian_matrix(n, terms)
        Hp = np.zeros_like(H)
        for h in dp.terms:
            Hp += dense_of_handle(h)
        want = (H + d.kappa * np.eye(2**n)) / (2 * d.kappa)
        assert np.allclose(Hp, want, atol=1e-12)
        evals = np.linalg.eigvalsh(Hp)
        assert evals.min() >= -1e-12 and evals.max() <= 1 + 1e-12


def test_explicit_sparse_handle():
    h = ExplicitSparseHandle([([1], [2.0]), ([0, 2], [1j, -1.0]), ([], [])])
    assert h.dimension == 3
    assert h.sparsity == 2
    assert row_entries(h, 2) == []
    assert row_entries(h, 1) == [(0, 1j), (2, -1.0 + 0j)]
    parent, cols, vals = h.rows_many([1, 0, 1])
    assert parent.tolist() == [0, 0, 1, 2, 2]
    assert cols.tolist() == [0, 2, 1, 0, 2]
    assert vals.tolist() == [1j, -1.0, 2.0, 1j, -1.0]
    with pytest.raises(ValidationError):
        ExplicitSparseHandle([([0], [1.0])], dimension=4)
