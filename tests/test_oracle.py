import ast
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import chebyshev

from eigensampler import (
    BasisState,
    DenseLimitError,
    DenseOperator,
    DenseState,
    LocalTerm,
    MaxEntState,
    ValidationError,
    build_decomposition,
    build_rectangle_polynomial,
    exact_ground_energy,
    exact_overlap,
    exact_sandwich,
    reconstruct,
    shift_rescale,
)
from eigensampler.eigensolve import _test_polynomial, doubled_terms
from eigensampler.hamiltonian import (
    BlockTermHandle,
    IdentityHandle,
    PauliTermHandle,
)
from eigensampler import oracle
from eigensampler.oracle import (
    ChebyshevMoments,
    dense_term,
    ground_vector,
    polynomial_matrix,
)
from eigensampler.polyfilter import DEGREE_CAP

from helpers import (
    PAULI,
    hamiltonian_matrix,
    pauli_matrix,
    random_block_term,
    random_pauli_terms,
    random_sparse_handle,
    random_state_vector,
    term_matrix,
)


def assert_same_matrix(got, want):
    """got holds nonzeros exactly where want does, equal to rounding."""
    assert np.array_equal(got != 0, want != 0)
    assert np.allclose(got, want, rtol=1e-14, atol=0)


def random_mixed_terms(rng, n, m_pauli, m_block):
    terms = random_pauli_terms(rng, n, m_pauli)
    terms += [random_block_term(rng, n, int(rng.integers(1, min(n, 3) + 1)))
              for _ in range(m_block)]
    return terms


def random_mixed_decomposition(rng, n, m_pauli, m_block):
    return build_decomposition(n, random_mixed_terms(rng, n, m_pauli, m_block))


class TestDenseOperator:
    def test_diagonalization_is_ascending_and_faithful(self):
        rng = np.random.default_rng(0)
        raw = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        herm = (raw + raw.conj().T) / 2
        op = DenseOperator(herm)
        assert np.all(np.diff(op.eigenvalues) >= 0)
        recon = (op.eigenvectors * op.eigenvalues) @ op.eigenvectors.conj().T
        assert np.max(np.abs(recon - herm)) <= 1e-8

    def test_rejects_non_square(self):
        with pytest.raises(ValidationError):
            DenseOperator(np.zeros((2, 3)))

    @pytest.mark.parametrize("bad", [{"a": 1}, [[1.0, 2.0], [3.0]], "abc"])
    def test_rejects_non_matrix(self, bad):
        with pytest.raises(ValidationError, match="matrix of numbers"):
            DenseOperator(bad)

    def test_sandwich_refuses_a_list_of_handles(self):
        d = build_decomposition(2, [LocalTerm.from_pauli(1.0, "XZ")])
        with pytest.raises(ValidationError):
            exact_sandwich(BasisState(0, 4), list(d.terms), BasisState(0, 4))

    def test_sandwich_refuses_a_state_of_another_dimension(self):
        op = DenseOperator(np.diag([1.0, -1.0, 0.5, 0.0]))
        with pytest.raises(ValidationError, match="dimension 8, expected 4"):
            exact_sandwich(BasisState(0, 8), op, BasisState(0, 4))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValidationError):
            DenseOperator(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_normal_but_complex_spectrum(self):
        # a rotation is normal yet has complex eigenvalues
        c, s = math.cos(0.3), math.sin(0.3)
        with pytest.raises(ValidationError):
            DenseOperator(np.array([[c, -s], [s, c]]))

    def test_dimension_limit(self):
        with pytest.raises(DenseLimitError):
            DenseOperator(np.eye(2**12 + 1))

    def test_construction_does_not_diagonalize(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("eigh called")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        op = DenseOperator(np.diag([1.0, 2.0]))
        assert op.dimension == 2
        with pytest.raises(AssertionError, match="eigh called"):
            op.eigenvalues

    def test_eigenpairs_are_cached(self, monkeypatch):
        op = DenseOperator(np.diag([2.0, 1.0]))
        first = op.eigenvalues
        monkeypatch.setattr(np.linalg, "eigh", None)
        assert op.eigenvalues is first
        assert op.eigenvectors.shape == (2, 2)

    def test_residual_checked_when_eigenpairs_used(self, monkeypatch):
        monkeypatch.setattr(
            np.linalg, "eigh", lambda m: (np.array([0.0, 5.0]), np.eye(2))
        )
        op = DenseOperator(np.array([[1.0, 1.0], [1.0, 1.0]]))
        with pytest.raises(ValidationError, match="reconstruct"):
            op.eigenvectors


class TestDenseTerm:
    """The row queries of every handle class build the term's dense matrix.

    The references come from the Pauli matrices, helpers.term_matrix and the
    dense matrix random_sparse_handle returns, never from a handle's tables.
    """

    @staticmethod
    def handles(rng, n):
        """(handle, reference dense matrix) of each class, scaled ones too."""
        string = "".join(rng.choice(list("IXYZ"), size=n))
        coeff = float(rng.normal())
        scale = complex(rng.normal(), rng.normal())
        block_term = random_block_term(rng, n, int(rng.integers(1, n + 1)))
        explicit, explicit_dense = random_sparse_handle(rng, 2**n, min(3, 2**n))
        base = [
            (PauliTermHandle(string, coeff, n), coeff * pauli_matrix(string)),
            (IdentityHandle(2**n, scale), scale * np.eye(2**n)),
            (BlockTermHandle(block_term, n), term_matrix(block_term, n)),
            (explicit, explicit_dense),
        ]
        factor = complex(rng.normal(), rng.normal())
        return base + [(h.scaled(factor), factor * dense) for h, dense in base]

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_handle_class_matches_row_queries(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(5):
            for handle, want in self.handles(rng, n):
                assert_same_matrix(dense_term(handle), want)

    def test_block_with_zero_entries(self):
        block = np.diag([1.0, -1.0, 2.0, 0.0]).astype(complex)
        block[0, 3] = block[3, 0] = 0.5
        term = LocalTerm.from_block((2, 0), block)
        got = dense_term(BlockTermHandle(term, 3))
        assert np.array_equal(got, term_matrix(term, 3))

    def test_reconstruct_sums_terms_in_order(self):
        """Each entry is the sum of the terms' entries in term order, bit for
        bit, and the sum is (H + kappa I) / (2 kappa)."""
        rng = np.random.default_rng(3)
        terms = random_mixed_terms(rng, 4, 5, 3)
        d = build_decomposition(4, terms)
        prime = shift_rescale(d)
        in_order = np.zeros((16, 16), dtype=complex)
        for handle in prime.terms:
            in_order += dense_term(handle)
        got = reconstruct(prime).matrix
        assert np.array_equal(got, in_order)
        want = (hamiltonian_matrix(4, terms) + d.kappa * np.eye(16)) / (2 * d.kappa)
        assert np.allclose(got, want, rtol=0, atol=1e-14)


def test_reconstruct_pauli_sum():
    terms = [LocalTerm.from_pauli(0.5, "XZ"), LocalTerm.from_pauli(-0.25, "ZI")]
    d = build_decomposition(2, terms)
    want = 0.5 * pauli_matrix("XZ") - 0.25 * pauli_matrix("ZI")
    assert np.allclose(reconstruct(d).matrix, want, atol=1e-12)


def test_ground_energy_examples():
    d = build_decomposition(1, [LocalTerm.from_pauli(1.0, "Z")])
    assert exact_ground_energy(reconstruct(d)) == pytest.approx(-1.0)
    heis = [LocalTerm.from_pauli(1.0, p) for p in ("XX", "YY", "ZZ")]
    d2 = build_decomposition(2, heis)
    assert exact_ground_energy(reconstruct(d2)) == pytest.approx(-3.0)


def test_ground_vector_is_unit_eigenvector():
    terms = random_pauli_terms(np.random.default_rng(1), 2, 3)
    op = reconstruct(build_decomposition(2, terms))
    v = ground_vector(op)
    assert np.linalg.norm(v) == pytest.approx(1.0)
    H = hamiltonian_matrix(2, terms)
    assert np.allclose(H @ v, op.eigenvalues[0] * v, atol=1e-10)


class TestExactOverlap:
    def test_projection_norm(self):
        op = DenseOperator(np.diag([0.0, 0.0, 1.0, 2.0]).astype(complex))
        w = np.array([0.6, 0.0, 0.8, 0.0])
        # sigma = 0: only the two degenerate ground coordinates count
        assert exact_overlap(op, w, 0.0) == pytest.approx(0.6)
        # widening sigma to 1 brings in the third coordinate
        assert exact_overlap(op, w, 1.0) == pytest.approx(1.0)

    def test_degenerate_eigenvalues_stay_grouped(self):
        # machine-precision scatter below the 1e-9 slack must not split a level
        op = DenseOperator(np.diag([0.0, 1e-12, 1.0]).astype(complex))
        w = np.array([0.0, 1.0, 0.0])
        assert exact_overlap(op, w, 0.0) == pytest.approx(1.0)

    def test_accepts_state_accessors(self):
        op = DenseOperator(np.diag([0.0, 1.0]).astype(complex))
        assert exact_overlap(op, BasisState(0, 2), 0.0) == pytest.approx(1.0)

    def test_maxent_overlap_with_doubled_ground_space(self):
        n = 2
        terms = random_pauli_terms(np.random.default_rng(5), n, 3)
        doubled = doubled_terms(terms, n)
        op = reconstruct(build_decomposition(2 * n, doubled))
        got = exact_overlap(op, MaxEntState(n), 0.0)
        assert got >= 2 ** (-n / 2) - 1e-12
        # the trace guide gives the same overlap from the n-qubit operator
        single = reconstruct(build_decomposition(n, terms))
        assert abs(exact_overlap(single, None, 0.0) - got) <= 1e-15

    @pytest.mark.parametrize("sigma", [-0.5, math.nan])
    def test_bad_window_is_refused(self, sigma):
        op = DenseOperator(np.diag([0.0, 1.0]).astype(complex))
        with pytest.raises(ValidationError):
            exact_overlap(op, BasisState(0, 2), sigma)
        with pytest.raises(ValidationError):
            exact_overlap(op, None, sigma)

    def test_maxent_overlap_matches_the_doubled_operator(self):
        # gate-08-style instances, Pauli terms and blocks, at several windows
        rng = np.random.default_rng(808)
        for _ in range(12):
            n = int(rng.integers(1, 4))
            terms = random_pauli_terms(rng, n, 3)
            if n > 1:
                terms.append(random_block_term(rng, n, 2))
            decomp = build_decomposition(n, terms)
            op = reconstruct(decomp)
            doubled = reconstruct(build_decomposition(2 * n, doubled_terms(terms, n)))
            for sigma in (0.0, 0.1 * decomp.kappa, 0.25 * decomp.kappa, decomp.kappa):
                want = exact_overlap(doubled, MaxEntState(n), sigma)
                assert abs(exact_overlap(op, None, sigma) - want) <= 1e-15


class TestExactSandwich:
    def test_matrix_elements(self):
        x_term = build_decomposition(1, [LocalTerm.from_pauli(1.0, "X")])
        assert exact_sandwich(BasisState(1, 2), x_term, BasisState(0, 2)) == pytest.approx(1.0)
        z_term = build_decomposition(1, [LocalTerm.from_pauli(1.0, "Z")])
        plus = DenseState(np.array([1.0, 1.0]) / math.sqrt(2))
        assert exact_sandwich(plus, z_term, plus) == pytest.approx(0.0, abs=1e-12)

    def test_power_kwarg(self):
        terms = random_pauli_terms(np.random.default_rng(7), 2, 3)
        d = build_decomposition(2, terms)
        psi_v = random_state_vector(np.random.default_rng(8), 4)
        psi = DenseState(psi_v)
        H = hamiltonian_matrix(2, terms)
        for r in range(4):
            want = np.vdot(psi_v, np.linalg.matrix_power(H, r) @ psi_v)
            assert exact_sandwich(psi, d, psi, power=r) == pytest.approx(want, abs=1e-10)

    def test_polynomial_kwarg_t2(self):
        d = build_decomposition(1, [LocalTerm.from_pauli(1.0, "Z")])
        dp = shift_rescale(d)
        P = build_rectangle_polynomial(0.0, 0.25, 1 / 12)
        psi = BasisState(1, 2)  # eigenvalue 0 of the rescaled operator
        got = exact_sandwich(psi, dp, psi, polynomial=P)
        assert got == pytest.approx(P.eval_stable(0.0), abs=1e-12)

    def test_polynomial_matches_horner_matrix(self):
        terms = random_pauli_terms(np.random.default_rng(9), 2, 3)
        d = build_decomposition(2, terms)
        dp = shift_rescale(d)
        op = reconstruct(dp)
        P = build_rectangle_polynomial(0.25, 0.25, 1 / 12)
        eig_mat = polynomial_matrix(op, P)
        horner = np.zeros_like(eig_mat)
        for a in reversed(P.coeffs):
            horner = horner @ op.matrix + a * np.eye(4)
        assert np.max(np.abs(eig_mat - horner)) <= 1e-7

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_power_and_polynomial_match_eigenbasis(self, n):
        rng = np.random.default_rng(20 + n)
        op = reconstruct(shift_rescale(random_mixed_decomposition(rng, n, 6, 2)))
        psi_v = random_state_vector(rng, 2**n)
        phi_v = random_state_vector(rng, 2**n)
        lam, vecs = op.eigenvalues, op.eigenvectors
        left, right = vecs.conj().T @ psi_v, vecs.conj().T @ phi_v
        for r in (0, 1, 2, 5):
            want = np.sum(np.conj(left) * lam**r * right)
            got = exact_sandwich(psi_v, op, phi_v, power=r)
            assert abs(got - want) <= 1e-12
        for P in (build_rectangle_polynomial(0.25, 0.25, 1 / 12),
                  build_rectangle_polynomial(0.5, 0.125, 0.05)):
            want = np.sum(np.conj(left) * P.eval_stable(lam) * right)
            got = exact_sandwich(psi_v, op, phi_v, polynomial=P)
            assert abs(got - want) <= 1e-12
            via_matrix = np.vdot(psi_v, polynomial_matrix(op, P) @ phi_v)
            assert abs(got - via_matrix) <= 1e-12

    def test_unguided_filter_matches_eigenbasis(self):
        # the 4-qubit unguided scan at epsilon 0.35: chi = 1/4, degree 176
        n = 4
        rng = np.random.default_rng(31)
        terms = random_pauli_terms(rng, n, 6) + [random_block_term(rng, n, 2)]
        decomp = build_decomposition(2 * n, doubled_terms(terms, n))
        op = reconstruct(shift_rescale(decomp))
        psi = MaxEntState(n)
        psi_v = psi.query_many(np.arange(2 ** (2 * n)))
        P = _test_polynomial(1, 0.35, 2.0 ** (-n / 2))
        assert P.degree >= 150
        lam, vecs = op.eigenvalues, op.eigenvectors
        comps = vecs.conj().T @ psi_v
        want = np.sum(np.abs(comps) ** 2 * P.eval_stable(lam))
        got = exact_sandwich(psi, op, psi, polynomial=P)
        assert abs(got - want) <= 1e-12
        assert abs(got - np.vdot(psi_v, polynomial_matrix(op, P) @ psi_v)) <= 1e-12
        # the trace guide reads the same filter off the n-qubit operator
        single = reconstruct(shift_rescale(build_decomposition(n, terms)))
        assert abs(exact_sandwich(None, single, None, polynomial=P) - got) <= 1e-15

    def test_trace_guide_is_the_normalized_trace(self):
        # psi = phi = None gives tr f(A)/N: mean(P(lambda)) and mean(lambda^r)
        rng = np.random.default_rng(32)
        for n in (1, 2, 3, 4):
            op = reconstruct(shift_rescale(random_mixed_decomposition(rng, n, 4, 1)))
            lam = op.eigenvalues
            for P in (_test_polynomial(1, 0.35, 2.0 ** (-n / 2)),
                      build_rectangle_polynomial(0.25, 0.25, 1 / 12)):
                got = exact_sandwich(None, op, None, polynomial=P)
                assert abs(got - np.mean(P.eval_stable(lam))) <= 1e-12
            for r in range(4):
                got = exact_sandwich(None, op, None, power=r)
                assert abs(got - np.mean(lam ** r)) <= 1e-12

    def test_sandwich_does_not_diagonalize(self, monkeypatch):
        rng = np.random.default_rng(4)
        d = shift_rescale(random_mixed_decomposition(rng, 3, 4, 1))
        psi = random_state_vector(rng, 8)
        phi = random_state_vector(rng, 8)
        P = build_rectangle_polynomial(0.25, 0.25, 1 / 12)

        def refuse(self):
            raise AssertionError("dense matrix built")

        monkeypatch.setattr(np.linalg, "eigh", None)
        monkeypatch.setattr(DenseOperator, "matrix", property(refuse))
        exact_sandwich(psi, d, psi, polynomial=P)
        exact_sandwich(psi, d, phi, polynomial=P)
        exact_sandwich(psi, d, psi, power=3)
        exact_sandwich(psi, ChebyshevMoments(d, psi), psi, polynomial=P)
        exact_sandwich(None, d, None, polynomial=P)
        exact_sandwich(None, ChebyshevMoments(d, None), None, polynomial=P)


class TestChebyshevMoments:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 6),
        degree=st.integers(0, DEGREE_CAP),
        same=st.booleans(),
    )
    def test_matches_eigenbasis(self, seed, n, degree, same):
        # Random Chebyshev coefficients, odd ones included, so both doubling
        # identities and the plain recurrence are exercised.
        rng = np.random.default_rng(seed)
        d = random_mixed_decomposition(
            rng, n, int(rng.integers(1, 7)), int(rng.integers(0, 3))
        )
        op = reconstruct(shift_rescale(d))
        cheb = rng.normal(size=degree + 1)
        psi_v = random_state_vector(rng, 2**n)
        phi_v = psi_v if same else random_state_vector(rng, 2**n)
        lam, vecs = op.eigenvalues, op.eigenvectors
        left, right = vecs.conj().T @ psi_v, vecs.conj().T @ phi_v
        want = np.sum(np.conj(left) * chebyshev.chebval(lam, cheb) * right)
        moments = ChebyshevMoments(op, psi_v, None if same else phi_v)
        got = moments.dot(cheb)
        assert abs(got - want) <= 1e-12 * np.sum(np.abs(cheb))
        assert moments.products == (math.ceil(degree / 2) if same else degree)

    def test_moments_are_reused(self):
        # Later, lower-degree reads take no products; the values match a
        # fresh sequence's exactly.
        rng = np.random.default_rng(40)
        op = reconstruct(shift_rescale(random_mixed_decomposition(rng, 3, 4, 1)))
        psi = random_state_vector(rng, 8)
        moments = ChebyshevMoments(op, psi)
        for cheb, products in ((rng.normal(size=11), 5), (rng.normal(size=7), 5),
                               (rng.normal(size=14), 7)):
            got = moments.dot(cheb)
            assert moments.products == products
            assert got == ChebyshevMoments(op, psi).dot(cheb)

    def test_sandwich_checks_the_sequence_vectors(self):
        rng = np.random.default_rng(41)
        d = shift_rescale(random_mixed_decomposition(rng, 3, 4, 1))
        psi = random_state_vector(rng, 8)
        other = random_state_vector(rng, 8)
        P = build_rectangle_polynomial(0.25, 0.25, 1 / 12)
        moments = ChebyshevMoments(d, psi)
        want = exact_sandwich(psi, d, psi, polynomial=P)
        assert exact_sandwich(DenseState(psi), moments, psi, polynomial=P) == want
        with pytest.raises(ValidationError, match="moment sequence"):
            exact_sandwich(other, moments, psi, polynomial=P)
        with pytest.raises(ValidationError, match="polynomial=P only"):
            exact_sandwich(psi, moments, psi, power=2)
        with pytest.raises(ValidationError, match="moment sequence"):
            exact_sandwich(None, moments, None, polynomial=P)

    def test_trace_sequence_is_matched_without_its_block(self, monkeypatch):
        rng = np.random.default_rng(42)
        d = shift_rescale(random_mixed_decomposition(rng, 3, 4, 1))
        P = build_rectangle_polynomial(0.25, 0.25, 1 / 12)
        trace = ChebyshevMoments(d, None)
        want = exact_sandwich(None, d, None, polynomial=P)
        psi = random_state_vector(rng, 8)
        with pytest.raises(ValidationError, match="moment sequence"):
            exact_sandwich(psi, trace, psi, polynomial=P)
        with pytest.raises(ValidationError, match="moment sequence"):
            exact_sandwich(None, trace, psi, polynomial=P)
        built = []
        monkeypatch.setattr(oracle, "_as_dense_vector",
                            lambda *args: built.append(args))
        assert exact_sandwich(None, trace, None, polynomial=P) == want
        assert built == []


def test_shift_rescale_spectrum_relation():
    terms = random_pauli_terms(np.random.default_rng(10), 2, 4)
    d = build_decomposition(2, terms)
    dp = shift_rescale(d)
    lam = np.linalg.eigvalsh(hamiltonian_matrix(2, terms))
    lam_prime = reconstruct(dp).eigenvalues
    want = (lam + d.kappa) / (2 * d.kappa)
    assert np.max(np.abs(np.sort(lam_prime) - np.sort(want))) <= 1e-10


def test_reconstruct_respects_dense_limit():
    # 13 qubits would require a 8192^2 dense matrix above the configured cap
    terms = [LocalTerm.from_pauli(1.0, "Z" + "I" * 12)]
    d = build_decomposition(13, terms)
    with pytest.raises(DenseLimitError):
        reconstruct(d)


def test_oracle_imports_nothing_from_the_sampled_layers():
    # The exact oracle checks the sampled estimators, so it must not share
    # their chain code; every import, module level or local, is read.
    with open(oracle.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    sampled = {"imm", "transform"}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            parts += [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            parts = [p for alias in node.names for p in alias.name.split(".")]
        else:
            continue
        found += sorted(sampled.intersection(parts))
    assert found == []


def test_only_the_transform_raises_the_cost_cap():
    # One preflight behind every sampled estimate: transform._preflight
    # checks the cap against the plan the sampler then draws, from the one
    # raise site, and every other module only passes its CostCapExceeded on.
    package = os.path.dirname(oracle.__file__)
    raisers = []
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if getattr(exc, "id", getattr(exc, "attr", None)) == "CostCapExceeded":
                    raisers.append(name)
    assert raisers == ["transform.py"]


def test_only_the_solver_names_the_doubling():
    # Only eigensolve builds H (x) I and its maximally entangled guide; every
    # other module, the CLI's oracle check included, works on n qubits.
    package = os.path.dirname(oracle.__file__)
    allowed = {"eigensolve.py", "state_access.py", "__init__.py"}
    doubling = {"doubled_terms", "MaxEntState"}
    found = []
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py") or name in allowed:
            continue
        with open(os.path.join(package, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [alias.name for alias in node.names]
            else:
                continue
            found += [(name, n) for n in names if n in doubling]
    assert found == []
