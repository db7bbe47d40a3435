import functools
import math
import os
import struct
import tempfile
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigensampler import (
    BasisState,
    DenseState,
    DenseVector,
    MaxEntState,
    ProductState,
    StateSpecError,
    UndefinedRatioError,
    ValidationError,
    estimate_inner_product,
    make_state,
    median_amplify,
    recording,
    spawn_streams,
)
from eigensampler import state_access
from eigensampler.state_access import (
    read_dense_state_file,
    sample_ratios,
    samples_per_batch,
    write_dense_state_file,
)

from helpers import forced_pool, random_state_vector


def test_basis_state_queries_and_samples():
    st = BasisState(3, 8)
    assert st.dimension == 8
    assert st.query(3) == 1.0
    assert st.query(0) == 0.0
    assert st.norm == 1.0
    rng = np.random.default_rng(0)
    assert np.all(st.sample_many(rng, 50) == 3)


def test_dense_state_requires_normalization():
    with pytest.raises(StateSpecError):
        DenseState(np.array([1.0, 1.0]))


def test_dense_state_born_rule_frequencies():
    rng = np.random.default_rng(42)
    v = np.array([0.6, 0.0, 0.8, 0.0])
    st = DenseState(v)
    draws = st.sample_many(rng, 20000)
    assert set(np.unique(draws)) <= {0, 2}
    freq = np.mean(draws == 2)
    assert abs(freq - 0.64) < 0.02


def test_product_state_amplitudes_factorize():
    pairs = [(0.6, 0.8), (1 / math.sqrt(2), 1 / math.sqrt(2))]
    st = ProductState(pairs)
    assert st.dimension == 4
    for idx in range(4):
        want = 1.0
        for q, (a0, a1) in enumerate(pairs):
            want *= a1 if (idx >> q) & 1 else a0
        assert abs(st.query(idx) - want) <= 1e-15


def product_amplitudes(pairs):
    """The amplitude vector of a product state: qubit q is bit q of the index."""
    return functools.reduce(np.kron, [np.array(pair) for pair in reversed(pairs)])


def test_product_state_query_equals_query_many():
    """query(j) and query_many read the product state's amplitude vector."""
    rng = np.random.default_rng(12)
    pairs = []
    for _ in range(7):
        a, b = rng.normal(size=2) + 1j * rng.normal(size=2)
        nrm = math.sqrt(abs(a) ** 2 + abs(b) ** 2)
        pairs.append((a / nrm, b / nrm))
    st = ProductState(pairs)
    want = product_amplitudes(pairs)
    idx = rng.integers(0, st.dimension, size=200)
    batch = st.query_many(idx)
    scalar = np.array([st.query(j) for j in idx])
    assert np.allclose(batch, want[idx], rtol=1e-14, atol=0)
    assert np.array_equal(scalar, batch)
    assert isinstance(st.query(np.int64(idx[0])), complex)


@pytest.mark.parametrize("n", [3, 11, 20])
def test_product_state_byte_tables_match_query(n):
    """query_many gathers from one table per byte of the index; an n that is
    not a multiple of 8 leaves a short last table. The amplitudes are
    checked against per-qubit products taken bit by bit."""
    rng = np.random.default_rng(100 + n)
    a, b = rng.normal(size=(2, n)) + 1j * rng.normal(size=(2, n))
    nrm = np.sqrt(np.abs(a) ** 2 + np.abs(b) ** 2)
    a, b = a / nrm, b / nrm
    st = ProductState(list(zip(a, b)))
    idx = rng.integers(0, st.dimension, size=(40, 5))
    batch = st.query_many(idx)
    assert batch.shape == idx.shape
    bits = (idx[..., None] >> np.arange(n)) & 1
    want = np.prod(np.where(bits == 1, b, a), axis=-1)
    assert np.allclose(batch, want, rtol=1e-13, atol=0)


@pytest.mark.parametrize("st, amps", [
    (DenseVector(np.array([0.5, -1j, 0.0, 2.0])), [0.5, -1j, 0.0, 2.0]),
    (BasisState(2, 4), [0, 0, 1, 0]),
    (ProductState([(0.6, 0.8j), (0.0, 1.0)]), [0, 0, 0.6, 0.8j]),
    (DenseState(np.array([0.5, 0.5j, -0.5, 0.5])), [0.5, 0.5j, -0.5, 0.5]),
    (MaxEntState(1), [2 ** -0.5, 0, 0, 2 ** -0.5]),
], ids=["dense-vector", "basis", "product", "dense", "maxent"])
def test_query_reads_the_amplitude_vector(st, amps):
    """Every state class answers query and query_many from one vector."""
    amps = np.array(amps, dtype=complex)
    idx = np.array([[3, 0], [1, 2]])
    assert np.allclose(st.query_many(idx), amps[idx], rtol=1e-15, atol=0)
    for j in range(4):
        got = st.query(j)
        assert type(got) is complex
        assert abs(got - amps[j]) <= 1e-15


def test_maxent_state_amplitudes():
    st = MaxEntState(2)
    assert st.dimension == 16
    amp = 0.5  # 2^{-n/2} for n=2
    for i in range(4):
        paired = i | (i << 2)
        assert abs(st.query(paired) - amp) <= 1e-15
    assert st.query(0b0001) == 0.0
    assert abs(st.norm - 1.0) <= 1e-12


def test_product_state_takes_at_most_63_qubits():
    # 63 qubits fill a nonnegative int64 index; a 64th would wrap it
    st = ProductState([(0, 1)] * 62 + [(0.6, 0.8)])
    j = st.sample_many(np.random.default_rng(3), 16)
    low = (1 << 62) - 1
    assert (j >= 0).all() and ((j & low) == low).all()
    top = (j >> 62) == 1
    assert top.any() and not top.all()
    assert np.array_equal(st.query_many(j), np.where(top, 0.8, 0.6) + 0j)
    with pytest.raises(StateSpecError, match="limit of 63"):
        ProductState([(0, 1)] * 64)
    with pytest.raises(StateSpecError, match="limit of 63"):
        make_state("product:" + ";".join(["0,1"] * 64))


def test_basis_state_takes_at_most_63_qubits():
    # the index is an int64, so 2^63 - 1 is the largest it can name
    top = (1 << 63) - 1
    st = BasisState(top, 1 << 63)
    assert np.array_equal(st.sample_many(np.random.default_rng(5), 3), [top] * 3)
    assert st.query(top) == 1.0
    assert make_state(f"basis:{top}", 63).index == top
    for index in (1 << 63, 0):
        with pytest.raises(StateSpecError, match="limit of 63"):
            BasisState(index, 1 << 64)
        with pytest.raises(StateSpecError, match="limit of 63"):
            make_state(f"basis:{index}", 64)


def test_maxent_state_takes_at_most_31_qubits_a_register():
    st = MaxEntState(31)
    j = st.sample_many(np.random.default_rng(4), 16)
    half = (1 << 31) - 1
    assert (j >= 0).all() and ((j & half) == (j >> 31)).all()
    assert st.query_many(j) == pytest.approx(np.full(16, 2.0 ** -15.5), rel=1e-15)
    for n in (32, 40):
        with pytest.raises(StateSpecError, match="limit of 63"):
            MaxEntState(n)
    with pytest.raises(StateSpecError, match="limit of 63"):
        make_state("maxent", 40)


class TestMakeState:
    def test_grammar_variants(self, tmp_path):
        st = make_state("basis:3", 2)
        assert isinstance(st, BasisState) and st.index == 3
        st = make_state("maxent", 2)
        assert isinstance(st, MaxEntState)
        assert isinstance(make_state(" MaxEnt ", 2), MaxEntState)
        st = make_state("product:1,0;0.6,0.8")
        assert isinstance(st, ProductState)
        path = tmp_path / "state.txt"
        write_dense_state_file(str(path), random_state_vector(np.random.default_rng(1), 4))
        st = make_state(f"dense:{path}")
        assert st.dimension == 4

    def test_maxent_predicate(self):
        # the one test of the unguided spec, shared by the CLI and the solvers
        for spec in ("maxent", " MaxEnt\n", "MAXENT", MaxEntState(2)):
            assert state_access.is_maxent(spec)
        for spec in ("basis:0", "maxent:2", "", None, 0, BasisState(0, 4)):
            assert not state_access.is_maxent(spec)

    def test_raw_objects(self):
        st = make_state(2, 2)
        assert isinstance(st, BasisState)
        v = random_state_vector(np.random.default_rng(0), 8)
        st = make_state(v)
        assert st.dimension == 8

    def test_rejects_bool_spec(self):
        # bool is an int subclass; True is no basis index
        for spec in (True, False):
            with pytest.raises(StateSpecError):
                make_state(spec, 2)

    def test_rejects_unknown_spec(self):
        with pytest.raises(StateSpecError):
            make_state("wibble:3", 2)
        with pytest.raises(StateSpecError):
            make_state("basis:x", 2)

    def test_basis_index_out_of_range(self):
        with pytest.raises((StateSpecError, ValidationError)):
            make_state("basis:4", 1)


def test_dense_state_file_round_trip(tmp_path):
    v = random_state_vector(np.random.default_rng(9), 16)
    path = tmp_path / "v.txt"
    write_dense_state_file(str(path), v)
    got = read_dense_state_file(str(path))
    assert np.allclose(got, v, atol=1e-15)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.floats(), st.floats()), max_size=12))
def test_dense_state_file_round_trip_is_bit_identical(pairs):
    # (re, im) pairs of any floats, nan payloads, infinities and -0.0 included
    v = np.array(pairs, dtype=float).reshape(-1, 2).view(complex).ravel()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "v.bin")
        write_dense_state_file(path, v)
        got = read_dense_state_file(path)
    assert got.dtype == complex and got.shape == v.shape
    assert got.view(np.uint64).tobytes() == v.view(np.uint64).tobytes()


@pytest.mark.parametrize("count, payload_bytes", [
    (2, 32 + 24),  # trailing bytes after the declared entries
    (2, 24),  # truncated
    (2**64 - 1, 32),  # a count no file could hold
])
def test_dense_state_file_size_must_match_header(tmp_path, count, payload_bytes):
    path = tmp_path / "v.bin"
    path.write_bytes(struct.pack("<Q", count) + bytes(payload_bytes))
    with pytest.raises(StateSpecError):
        read_dense_state_file(str(path))


def test_inner_product_refuses_an_uncountable_batch():
    psi = DenseState(random_state_vector(np.random.default_rng(4), 4))
    # ceil(8 / eps^2) samples per batch: eps^2 underflows to 0
    with pytest.raises(ValidationError):
        estimate_inner_product(psi, psi, 1.0, 1e-200, 0.1, np.random.default_rng(0))


def test_samples_per_batch_is_the_least_exact_count():
    # t eps^2 >= scale for t = samples_per_batch(scale, eps), and not for
    # t - 1, in exact arithmetic: the float quotient of scale / eps^2 misses
    # the count by one in either direction for some eps
    for eps in np.geomspace(1e-140, 1.0, 30001).tolist():
        for scale in (8.0, 64.0):
            t = samples_per_batch(scale, eps, "eps")
            assert Fraction(t) * Fraction(eps) ** 2 >= scale
            assert Fraction(t - 1) * Fraction(eps) ** 2 < scale
    # the float quotient 64 / (0.2/3)^2 rounds down to 14400, one short
    assert samples_per_batch(64.0, 0.2 / 3.0, "err") == 14401
    with pytest.raises(ValidationError, match="^err = 1e-155 needs"):
        samples_per_batch(64.0, 1e-155, "err")


def test_sample_ratios_moments():
    """E[X] is the inner product and E[|X|^2] is ||w||^2 exactly."""
    rng = np.random.default_rng(31)
    psi_v = random_state_vector(rng, 32)
    w_v = 0.7 * random_state_vector(rng, 32)
    psi = DenseState(psi_v)
    w = DenseVector(w_v)
    xs = sample_ratios(psi, w, 200_000, rng)
    want = np.vdot(psi_v, w_v)
    got = xs.mean()
    se = xs.std() / math.sqrt(len(xs))
    assert abs(got - want) <= 5 * se + 1e-12
    second = np.mean(np.abs(xs) ** 2)
    norm2 = np.linalg.norm(w_v) ** 2
    assert second <= 1.05 * norm2


def test_sample_ratios_dead_amplitude():
    psi = DenseState(np.array([1.0, 0.0]))
    w_bad = DenseVector(np.array([0.0, 0.5]))
    # index 1 is never drawn, so the undefined ratio never surfaces
    rng = np.random.default_rng(0)
    xs = sample_ratios(psi, w_bad, 100, rng)
    assert np.all(xs == 0.0)


def test_sample_ratios_zero_amplitude_is_undefined():
    # a state vector that samples an index where its own amplitude rounds to zero
    # cannot happen through Born sampling; force the path through a stub accessor
    class Stub:
        dimension = 2

        def sample_many(self, rng, count):
            return np.zeros(count, dtype=np.int64)

        def query_many(self, idx):
            return np.zeros(len(idx), dtype=complex)

    w = DenseVector(np.array([0.5, 0.0]))
    with pytest.raises(UndefinedRatioError):
        sample_ratios(Stub(), w, 10, np.random.default_rng(0))


def test_estimate_inner_product_within_tolerance():
    rng = np.random.default_rng(5)
    failures = 0
    for _ in range(25):
        psi_v = random_state_vector(rng, 16)
        w_v = 1.3 * random_state_vector(rng, 16)
        est = estimate_inner_product(
            DenseState(psi_v), DenseVector(w_v), 1.3, 0.15, 0.05, rng
        )
        if abs(est - np.vdot(psi_v, w_v)) > 0.15 * 1.3:
            failures += 1
    assert failures <= 2


def test_estimate_inner_product_validates_arguments():
    psi = DenseState(np.array([1.0, 0.0]))
    w = DenseVector(np.array([1.0, 0.0]))
    rng = np.random.default_rng(0)
    with pytest.raises(ValidationError):
        estimate_inner_product(psi, w, 1.0, 0.0, 0.05, rng)
    with pytest.raises(ValidationError):
        estimate_inner_product(psi, w, 1.0, 0.1, 1.5, rng)


def test_median_amplify_bimodal_majority():
    """Median of repetitions recovers the majority value of a bimodal estimator."""
    hits = 0
    for trial in range(100):
        rng = np.random.default_rng(1000 + trial)

        def run(child):
            return 1.0 + 0j if child.uniform() < 0.75 else 5.0 + 0j

        if median_amplify(run, 0.01, rng, 1) == 1.0 + 0j:
            hits += 1
    assert hits >= 99


def test_median_amplify_repetition_count():
    calls = []

    def run(child):
        calls.append(1)
        return 0j

    median_amplify(run, 0.01, np.random.default_rng(0), 1)
    assert len(calls) == math.ceil(18 * math.log(100))
    calls.clear()
    median_amplify(run, 0.999, np.random.default_rng(0), 1)
    assert len(calls) == 1  # clamped to at least one repetition


@pytest.mark.parametrize("delta", [1e-310, 5e-324, 0.0])
def test_median_reps_refuses_delta_whose_inverse_overflows(delta):
    # 1/delta is inf, so ln(1/delta) repetitions cannot be counted
    with pytest.raises(ValidationError, match="delta"):
        state_access.median_reps(delta)


def test_median_reps_keeps_its_count_down_to_the_smallest_normal_delta():
    for delta in (0.999, 0.05, 1e-9, 1e-300, 2.2250738585072014e-308):
        want = max(1, math.ceil(18.0 * math.log(1.0 / delta)))
        assert state_access.median_reps(delta) == want
    assert state_access.median_reps(2.2250738585072014e-308) == 12752


def test_median_amplify_coordinatewise():
    # real and imaginary parts are amplified independently
    vals = iter([1 + 9j, 2 + 8j, 3 + 7j])

    def run(child):
        return next(vals)

    out = median_amplify(run, 0.9, np.random.default_rng(0), 1)
    # with delta=0.9 the count is ceil(18*ln(1/0.9)) = 2: median of first two
    assert out == 1.5 + 8.5j


def test_spawn_streams_deterministic_and_distinct():
    a = spawn_streams(np.random.default_rng(7), 4)
    b = spawn_streams(np.random.default_rng(7), 4)
    seqs_a = [g.integers(0, 2**63, 5).tolist() for g in a]
    seqs_b = [g.integers(0, 2**63, 5).tolist() for g in b]
    assert seqs_a == seqs_b
    flat = [tuple(s) for s in seqs_a]
    assert len(set(flat)) == 4


def test_pool_does_not_change_inner_product():
    psi = DenseState(random_state_vector(np.random.default_rng(8), 8))
    w = DenseVector(random_state_vector(np.random.default_rng(9), 8))
    runs = []
    for cpus in (1, 3):
        with forced_pool(cpus), recording() as c:
            est = estimate_inner_product(psi, w, 1.0, 0.2, 0.1, np.random.default_rng(3))
        runs.append((est, c.as_dict()))
    assert runs[0] == runs[1]
    assert runs[0][1]["psi_samples"] == 42 * 200  # ceil(18 ln 10) reps of t = 200


@pytest.mark.parametrize("samples, cpus, delta, threads", [
    (state_access.POOL_MIN_SAMPLES - 1, 4, 0.1, None),
    (state_access.POOL_MIN_SAMPLES, 1, 0.1, None),
    (state_access.POOL_MIN_SAMPLES, 4, 0.999, None),  # one repetition
    (state_access.POOL_MIN_SAMPLES, 2, 0.1, 2),
    (10 * state_access.POOL_MIN_SAMPLES, 64, 0.1, 42),  # 42 repetitions
])
def test_pool_selection(samples, cpus, delta, threads):
    """A pool of min(CPUs, repetitions) threads, only from POOL_MIN_SAMPLES
    samples per repetition and with two or more threads to run."""
    pools = []
    real = state_access.ThreadPoolExecutor

    def spy(max_workers):
        pools.append(max_workers)
        return real(max_workers=max_workers)

    with mock.patch.object(state_access, "ThreadPoolExecutor", spy), \
            mock.patch.object(state_access, "_usable_cpus", lambda: cpus):
        median_amplify(lambda child: 0j, delta, np.random.default_rng(0), samples)
    assert pools == ([] if threads is None else [threads])


def test_usable_cpus_follow_affinity():
    # taskset -c 0 leaves one CPU in the affinity set
    with mock.patch.object(state_access.os, "sched_getaffinity", lambda pid: {0},
                           create=True):
        assert state_access._usable_cpus() == 1
