import numpy as np
import pytest

from eigensampler import (
    BasisState,
    Counters,
    DenseState,
    ValidationError,
    chain_entry,
    recording,
)
from eigensampler import instrument
from eigensampler.hamiltonian import PauliTermHandle
from eigensampler.imm import ChainKernel

from helpers import (
    all_rows_s_handle,
    pauli_matrix,
    random_sparse_handle,
    random_state_vector,
)


def dense_chain_product(denses):
    """Product B_r ... B_1 for matrices listed first-applied-first."""
    out = np.eye(denses[0].shape[0], dtype=complex)
    for d in denses:
        out = d @ out
    return out


def test_single_pauli_entries():
    x = PauliTermHandle("X", 1.0, 1)
    z = PauliTermHandle("Z", 1.0, 1)
    phi = BasisState(0, 2)
    # <0|X|0> = 0, <1|X|0> = 1
    assert chain_entry(0, [x], phi) == 0
    assert chain_entry(1, [x], phi) == 1
    # <0|ZX|0> applies X first, then Z: Z|1> = -|1>
    assert chain_entry(1, [x, z], phi) == -1


def test_empty_chain_is_state_query():
    phi = DenseState(random_state_vector(np.random.default_rng(0), 4))
    assert chain_entry(2, [], phi) == phi.query(2)


def test_pauli_chain_squares_to_identity():
    z = PauliTermHandle("Z", 1.0, 1)
    phi = DenseState(random_state_vector(np.random.default_rng(1), 2))
    for ell in range(2):
        assert chain_entry(ell, [z, z], phi) == pytest.approx(
            complex(phi.query(ell))
        )


@pytest.mark.parametrize("seed", range(8))
def test_chain_entry_matches_dense_product(seed):
    rng = np.random.default_rng(200 + seed)
    dim = int(rng.integers(3, 20))
    r = int(rng.integers(1, 5))
    handles, denses = [], []
    for _ in range(r):
        h, d = random_sparse_handle(rng, dim, int(rng.integers(1, 4)))
        handles.append(h)
        denses.append(d)
    phi_v = random_state_vector(rng, dim)
    phi = DenseState(phi_v)
    want_vec = dense_chain_product(denses) @ phi_v
    for ell in rng.integers(0, dim, size=4):
        got = chain_entry(int(ell), handles, phi)
        assert got == pytest.approx(want_vec[int(ell)], abs=1e-10)


def test_list_of_handles_accepted():
    x = PauliTermHandle("X", 2.0, 1)
    phi = BasisState(0, 2)
    assert chain_entry(1, [x], phi) == 2.0


def test_leaf_count_and_depth_on_uniform_rows():
    rng = np.random.default_rng(77)
    for s, r in [(2, 3), (3, 2), (1, 5)]:
        h, _ = all_rows_s_handle(rng, 16, s)
        chain = [h] * r
        phi = DenseState(random_state_vector(rng, 16))
        with recording() as c:
            chain_entry(0, chain, phi)
        assert c.leaf_queries == s**r
        assert c.max_depth == r


def test_mismatched_dimensions_rejected():
    a = PauliTermHandle("X", 1.0, 1)
    b = PauliTermHandle("XI", 1.0, 2)
    with pytest.raises(ValidationError):
        chain_entry(0, [a, b], BasisState(0, 2))


def test_chain_vector_fast_path_matches_recursion():
    """Batched entries of a signed-permutation chain vector B_3 B_2 B_1 phi
    match one-entry chain_entry calls and the dense product."""
    rng = np.random.default_rng(13)
    n = 3
    handles = [
        PauliTermHandle("XZY", -0.5, n),
        PauliTermHandle("ZZI", 1.5, n),
        PauliTermHandle("IYX", 0.25, n),
    ]
    phi = DenseState(random_state_vector(rng, 8))
    idx = np.arange(8)
    picks = np.broadcast_to(np.arange(3), (8, 3))
    fast = ChainKernel(handles).values(picks, idx, phi)
    slow = np.array([chain_entry(i, handles, phi) for i in range(8)])
    assert np.allclose(fast, slow, atol=1e-12)
    # handles are listed first-applied-first, so the dense product reverses
    want_mat = dense_chain_product([
        -0.5 * pauli_matrix("XZY"),
        1.5 * pauli_matrix("ZZI"),
        0.25 * pauli_matrix("IYX"),
    ])
    assert np.allclose(fast, want_mat @ np.asarray([phi.query(i) for i in range(8)]),
                       atol=1e-12)


def test_recording_nests_and_restores():
    instrument.add(leaf_queries=1)  # no active recorder: counted nowhere
    with recording() as outer:
        instrument.add(leaf_queries=1)
        with recording(Counters()) as inner:
            instrument.add(leaf_queries=2, depth=3)
        instrument.add(leaf_queries=4)
    instrument.add(leaf_queries=8)
    assert (outer.leaf_queries, outer.max_depth) == (5, 0)
    assert (inner.leaf_queries, inner.max_depth) == (2, 3)
    given = Counters()
    with recording(given) as got:
        assert got is given


def test_counters_add_is_safe_across_threads():
    import sys
    from concurrent.futures import ThreadPoolExecutor

    c = Counters()

    def bump(depth):
        for _ in range(5000):
            c.add(leaf_queries=1, vector_queries=2, depth=depth)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(bump, range(8), timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert c.leaf_queries == 40000 and c.vector_queries == 80000
    assert c.max_depth == 7
