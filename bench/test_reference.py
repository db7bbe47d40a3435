"""Tests of the benchmark's reference computation on analytic cases.

Run with `python3 -m pytest bench/test_reference.py`.
"""

import numpy as np
import pytest

import reference as ref


def ground(n, terms):
    return np.linalg.eigh(ref.dense_hamiltonian(n, terms))[0][0]


def test_single_z_ground_energy():
    assert ground(1, [("pauli", 1.0, "Z")]) == pytest.approx(-1.0, abs=1e-12)


def test_heisenberg_pair_ground_energy():
    terms = [("pauli", 1.0, s) for s in ("XX", "YY", "ZZ")]
    assert ground(2, terms) == pytest.approx(-3.0, abs=1e-12)


def test_pauli_string_acts_on_little_endian_qubits():
    # X on qubit 0 flips bit 0 of the index: |0> = index 0 -> index 1.
    matrix = ref.dense_hamiltonian(3, [("pauli", 1.0, "XII")])
    assert matrix[1, 0] == 1.0 and matrix[4, 0] == 0.0


def test_block_on_non_adjacent_qubits_matches_permuted_kronecker():
    rng = np.random.default_rng(7)
    n, qubits = 4, (3, 1)
    block = ref.random_block(rng, 2)
    # kron(block, I, I) acts on tensor axes (a1, a0, r1, r0) where local bit
    # t is a_t; move those axes onto the qubit axes of a 4-qubit index.
    dense = np.kron(block, np.eye(4)).reshape([2] * 8)
    # axis k of the row half is bit (n-1-k) of the row index of this ordering:
    # bits [a1, a0, r1, r0] -> qubits [qubits[1], qubits[0], rest[1], rest[0]]
    rest = [q for q in range(n) if q not in qubits]
    order = [qubits[1], qubits[0], rest[1], rest[0]]
    # target axis for qubit q in a little-endian index is n-1-q
    perm = [0] * n
    for axis, q in enumerate(order):
        perm[n - 1 - q] = axis
    expected = dense.transpose(perm + [p + n for p in perm]).reshape(2**n, 2**n)
    np.testing.assert_allclose(ref.embed_block(block, qubits, n).toarray(), expected,
                               atol=1e-14)


def test_block_of_pauli_product_matches_pauli_string():
    block = np.kron(ref.PAULI["Y"], ref.PAULI["X"])  # local bit 0 -> X, bit 1 -> Y
    np.testing.assert_allclose(
        ref.embed_block(block, (0, 2), 3).toarray(),
        ref.dense_hamiltonian(3, [("pauli", 1.0, "XIY")]), atol=1e-14)


def test_kappa_and_filter_weight_of_a_diagonal_case():
    terms = [("pauli", -0.5, "Z"), ("block", (0,), np.diag([0.25, -0.25]))]
    assert ref.kappa(terms) == pytest.approx(0.75)
    # H = diag(-0.25, 0.25): A' = (I + H/0.75)/2 = diag(1/3, 2/3); P(x) = x.
    vector = np.array([0.6, 0.8])
    weight = ref.filter_weight(ref.dense_hamiltonian(1, terms), 0.75, vector, [0.0, 1.0])
    assert weight == pytest.approx(0.36 / 3 + 0.64 * 2 / 3)


def test_lanczos_screening_matches_dense_spectrum():
    rng = np.random.default_rng(3)
    terms = ref.ising_chain(rng, 7, 0.6, 2)
    dense = np.linalg.eigvalsh(ref.dense_hamiltonian(7, terms))[:2]
    expected = 0.5 * (1.0 + dense / ref.kappa(terms))
    np.testing.assert_allclose(ref.shifted_spectrum(7, terms, rng), expected, atol=1e-10)


def test_written_inputs_round_trip(tmp_path):
    vector = ref.random_unit_vector(np.random.default_rng(1), 8)
    path = tmp_path / "state.bin"
    ref.write_dense_state(path, vector)
    raw = path.read_bytes()
    assert int.from_bytes(raw[:8], "little") == 8
    back = np.frombuffer(raw[8:], dtype="<f8")
    np.testing.assert_array_equal(back[0::2] + 1j * back[1::2], vector)
    text = ref.hamiltonian_text(2, [("pauli", 0.1, "XZ"), ("block", (1,), np.eye(2))])
    assert text.splitlines() == ["n=2", "0.1 XZ", "BLOCK q=1 1.0,0.0 0.0,0.0 0.0,0.0 1.0,0.0"]
