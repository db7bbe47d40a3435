import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest

from eigensampler import (
    ChainSampler,
    CostCapExceeded,
    Counters,
    DenseState,
    ValidationError,
    build_decomposition,
    build_rectangle_polynomial,
    chain_entry,
    estimate_polynomial_transform,
    estimate_power,
    exact_sandwich,
    predict_cost,
    reconstruct,
    sample_chain,
    shift_rescale,
)
from eigensampler.hamiltonian import shifted_operator
from eigensampler.imm import MatrixChain
from eigensampler.transform import POLICIES, power_error_budget

from helpers import (
    forced_pool,
    random_block_term,
    random_normalized_decomposition,
    random_pauli_terms,
    random_state_vector,
)

T2 = SimpleNamespace(coeffs=np.array([-1.0, 0.0, 2.0]), degree=2)
LINEAR = SimpleNamespace(coeffs=np.array([0.0, 1.0]), degree=1)
CONST = SimpleNamespace(coeffs=np.array([1.0]), degree=0)


def dense_of(decomp):
    return reconstruct(decomp).matrix


class TestChainSampler:
    def test_requires_normalized_bounds(self):
        rng = np.random.default_rng(0)
        d = random_normalized_decomposition(rng, 2, 3)
        ChainSampler(d, 2)  # fine
        from eigensampler import LocalTerm, build_decomposition

        d_raw = build_decomposition(1, [LocalTerm.from_pauli(0.7, "Z")])
        with pytest.raises(ValidationError):
            ChainSampler(d_raw, 2)

    def test_probability_is_product_of_weights(self):
        rng = np.random.default_rng(1)
        d = random_normalized_decomposition(rng, 2, 3)
        w = np.asarray(d.kappa_i)
        for x in [(0, 0), (1, 2), (2, 1)]:
            assert ChainSampler(d, 2).probability(x) == pytest.approx(
                w[x[0]] * w[x[1]]
            )

    def test_chain_mass_sums_to_one(self):
        rng = np.random.default_rng(2)
        d = random_normalized_decomposition(rng, 2, 3)
        for r in range(4):
            s = ChainSampler(d, r)
            total = sum(
                s.probability(x) for x in itertools.product(range(d.m), repeat=r)
            )
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_sample_frequencies_track_probabilities(self):
        rng = np.random.default_rng(3)
        d = random_normalized_decomposition(rng, 2, 3)
        s = ChainSampler(d, 1)
        draws = s.sample_many(np.random.default_rng(7), 40_000)
        for i in range(d.m):
            freq = np.mean(draws[:, 0] == i)
            assert abs(freq - d.kappa_i[i]) < 0.01

    def test_shapes_and_edge_cases(self):
        rng = np.random.default_rng(4)
        d = random_normalized_decomposition(rng, 2, 3)
        out = ChainSampler(d, 3).sample_many(np.random.default_rng(0), 5)
        assert out.shape == (5, 3) and out.dtype == np.int64
        empty = ChainSampler(d, 0).sample_many(np.random.default_rng(0), 5)
        assert empty.shape == (5, 0)
        one = sample_chain(ChainSampler(d, 2), np.random.default_rng(0))
        assert one.shape == (2,)

    def test_counters_record_chain_draws(self):
        rng = np.random.default_rng(5)
        d = random_normalized_decomposition(rng, 2, 3)
        c = Counters()
        ChainSampler(d, 2).sample_many(np.random.default_rng(0), 10, counters=c)
        assert c.chain_samples == 10


def single_sample_values(decomp, psi_v, r, count, seed):
    """Raw single-draw estimator values X, computed through the public pieces."""
    rng = np.random.default_rng(seed)
    sampler = ChainSampler(decomp, r)
    chains = sampler.sample_many(rng, count)
    psi = DenseState(psi_v)
    js = psi.sample_many(rng, count)
    cache = {}
    xs = np.empty(count, dtype=complex)
    for i in range(count):
        key = (tuple(int(k) for k in chains[i]), int(js[i]))
        if key not in cache:
            mats = [decomp.terms[k] for k in key[0]]
            w = chain_entry(key[1], MatrixChain(mats), psi)
            q = sampler.probability(key[0])
            cache[key] = w / (psi_v[key[1]] * q)
        xs[i] = cache[key]
    return xs


class TestPowerEstimator:
    def test_power_zero_is_overlap(self):
        rng = np.random.default_rng(0)
        d = random_normalized_decomposition(rng, 2, 3)
        psi_v = random_state_vector(rng, 4)
        phi_v = random_state_vector(rng, 4)
        est = estimate_power(
            DenseState(psi_v), DenseState(phi_v), d, 0, 0.1, 0.05,
            np.random.default_rng(1),
        )
        assert abs(est - np.vdot(psi_v, phi_v)) <= 0.1

    def test_diagonal_term_is_exact(self):
        # A = Z, psi = |1>: every sampled ratio equals (-1)^r
        from eigensampler import LocalTerm, build_decomposition

        d = build_decomposition(1, [LocalTerm.from_pauli(1.0, "Z")])
        from eigensampler.state_access import BasisState

        psi = BasisState(1, 2)
        for r in (1, 2, 3):
            est = estimate_power(psi, psi, d, r, 1.0, 0.5, np.random.default_rng(r))
            assert est == pytest.approx((-1.0) ** r, abs=1e-12)

    def test_random_instances_against_dense(self):
        gen = np.random.default_rng(321)
        hits = 0
        for i in range(100):
            d = random_normalized_decomposition(gen, 2, 3)
            r = int(gen.integers(1, 4))
            psi_v = random_state_vector(gen, 4)
            want = np.vdot(
                psi_v, np.linalg.matrix_power(dense_of(d), r) @ psi_v
            )
            est = estimate_power(
                DenseState(psi_v), DenseState(psi_v), d, r, 0.15, 0.05,
                np.random.default_rng(9000 + i),
            )
            if abs(est - want) <= 0.15:
                hits += 1
        assert hits >= 95

    def test_single_sample_mean_and_second_moment(self):
        gen = np.random.default_rng(11)
        d = random_normalized_decomposition(gen, 2, 4)
        psi_v = random_state_vector(gen, 4)
        r = 2
        xs = single_sample_values(d, psi_v, r, 20_000, seed=5)
        want = np.vdot(psi_v, np.linalg.matrix_power(dense_of(d), r) @ psi_v)
        se = xs.std() / math.sqrt(len(xs))
        assert abs(xs.mean() - want) <= 5 * se + 1e-12
        assert np.mean(np.abs(xs) ** 2) <= 1.05

    def test_pool_does_not_change_result(self):
        gen = np.random.default_rng(14)
        d = random_normalized_decomposition(gen, 2, 3)
        psi = DenseState(random_state_vector(gen, 4))
        runs = []
        for cpus in (1, 3):
            c = Counters()
            with forced_pool(cpus):
                est = estimate_power(psi, psi, d, 2, 0.3, 0.2, np.random.default_rng(6),
                                     counters=c)
            runs.append((est, c.as_dict()))
        assert runs[0] == runs[1]

    def test_pool_shares_counters_on_block_terms(self):
        gen = np.random.default_rng(16)
        d = shift_rescale(build_decomposition(3, [random_block_term(gen, 3, 2)
                                                  for _ in range(3)]))
        psi = DenseState(random_state_vector(gen, 8))
        runs = []
        for cpus in (1, 3):
            c = Counters()
            with forced_pool(cpus):
                est = estimate_power(psi, psi, d, 2, 0.3, 0.05,
                                     np.random.default_rng(6), counters=c)
            runs.append((est, c.as_dict()))
        assert runs[0] == runs[1]
        assert runs[0][1]["leaf_queries"] > 0

    def test_argument_validation(self):
        gen = np.random.default_rng(15)
        d = random_normalized_decomposition(gen, 2, 3)
        psi = DenseState(random_state_vector(gen, 4))
        rng = np.random.default_rng(0)
        with pytest.raises(ValidationError):
            estimate_power(psi, psi, d, 1, 1.5, 0.1, rng)
        with pytest.raises(ValidationError):
            estimate_power(psi, psi, d, -1, 0.5, 0.1, rng)


class TestErrorBudget:
    def test_strict_uses_degree(self):
        assert power_error_budget(T2, 0.32, "strict") == pytest.approx(0.32 / 16)
        assert power_error_budget(CONST, 0.5, "strict") == pytest.approx(0.5)

    def test_tight_uses_coefficient_mass(self):
        assert power_error_budget(T2, 0.3, "tight") == pytest.approx(0.1)

    def test_budget_clamped_to_one(self):
        assert power_error_budget(CONST, 0.9, "tight") == pytest.approx(0.9)
        big = SimpleNamespace(coeffs=np.array([0.0]), degree=0)
        assert power_error_budget(big, 5.0, "tight") == 1.0

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValidationError):
            power_error_budget(T2, 0.3, "loose")


class TestPredictCost:
    def make(self, seed=0):
        return random_normalized_decomposition(np.random.default_rng(seed), 2, 3)

    def test_tight_never_exceeds_strict(self):
        d = self.make()
        for P in (T2, LINEAR):
            tight, _ = predict_cost(d, P, 0.2, 0.05, policy="tight")
            strict, _ = predict_cost(d, P, 0.2, 0.05, policy="strict")
            assert tight <= strict

    def test_breakdown_structure(self):
        d = self.make()
        total, br = predict_cost(d, T2, 0.2, 0.05, policy="tight")
        assert br["policy"] == "tight"
        assert br["degree"] == 2
        assert set(br["per_power"]) == {0, 2}  # zero coefficient at power 1
        assert isinstance(br["chains_per_batch"], float)
        # strata in proportion to |a_r|: 1/3 and 2/3 of t, at err = eta / L1
        err = 0.2 / 3.0
        assert br["err_per_power"] == err
        t = math.ceil(64.0 / (err * err))
        assert br["chains_per_power"] == {0: math.ceil(t / 3), 2: math.ceil(2 * t / 3)}
        assert br["chains_per_batch"] == sum(br["chains_per_power"].values())
        assert total == pytest.approx(sum(br["per_power"].values()))

    def test_cost_grows_with_power(self):
        rng = np.random.default_rng(5)
        # block terms give sparsity > 1 so the per-chain factor grows with r
        from eigensampler import build_decomposition
        from helpers import random_block_term

        terms = [random_block_term(rng, 2, 2)]
        d0 = build_decomposition(2, terms)
        from eigensampler.hamiltonian import Decomposition

        d = Decomposition(d0.terms, [1.0])
        cubic = SimpleNamespace(coeffs=np.array([0.1, 0.2, 0.3, 0.4]), degree=3)
        _, br = predict_cost(d, cubic, 0.5, 0.1, policy="strict")
        costs = [br["per_power"][r] for r in sorted(br["per_power"])]
        assert all(a < b for a, b in zip(costs, costs[1:]))

    def test_rectangle_cost_is_astronomical_under_strict(self):
        d = self.make()
        P = build_rectangle_polynomial(0.0, 0.0625, 1 / 12)
        total, _ = predict_cost(d, P, 1 / 48, 0.0125, policy="strict")
        assert total > 1e12


class TestPolynomialTransform:
    def test_constant_polynomial_gives_overlap(self):
        gen = np.random.default_rng(20)
        d = random_normalized_decomposition(gen, 2, 3)
        psi_v = random_state_vector(gen, 4)
        phi_v = random_state_vector(gen, 4)
        est = estimate_polynomial_transform(
            DenseState(psi_v), DenseState(phi_v), d, CONST, 0.2, 0.1,
            np.random.default_rng(0),
        )
        assert abs(est - np.vdot(psi_v, phi_v)) <= 0.2

    def test_linear_polynomial_gives_expectation(self):
        gen = np.random.default_rng(21)
        d = random_normalized_decomposition(gen, 2, 3)
        psi_v = random_state_vector(gen, 4)
        want = np.vdot(psi_v, dense_of(d) @ psi_v)
        est = estimate_polynomial_transform(
            DenseState(psi_v), DenseState(psi_v), d, LINEAR, 0.2, 0.1,
            np.random.default_rng(1),
        )
        assert abs(est - want) <= 0.2

    def test_chebyshev_t2_batch(self):
        gen = np.random.default_rng(22)
        hits = 0
        for i in range(20):
            d = random_normalized_decomposition(gen, 2, 3)
            psi_v = random_state_vector(gen, 4)
            A = dense_of(d)
            want = np.vdot(psi_v, (2 * A @ A - np.eye(4)) @ psi_v)
            est = estimate_polynomial_transform(
                DenseState(psi_v), DenseState(psi_v), d, T2, 0.2, 0.05,
                np.random.default_rng(7000 + i),
            )
            if abs(est - want) <= 0.2:
                hits += 1
        assert hits >= 19

    def test_cost_cap_aborts_before_sampling(self):
        gen = np.random.default_rng(24)
        d = random_normalized_decomposition(gen, 2, 3)
        psi = DenseState(random_state_vector(gen, 4))
        with pytest.raises(CostCapExceeded) as info:
            estimate_polynomial_transform(
                psi, psi, d, T2, 0.2, 0.05, np.random.default_rng(0),
                cost_cap=10.0,
            )
        err = info.value
        assert err.predicted > err.cap == 10.0
        assert "per_power" in err.breakdown

    def test_leaf_queries_within_predicted_cost_on_block_terms(self):
        gen = np.random.default_rng(26)
        d = shift_rescale(build_decomposition(4, [random_block_term(gen, 4, 2)
                                                  for _ in range(4)]))
        psi = DenseState(random_state_vector(gen, 16))
        for P in (T2, LINEAR):
            c = Counters()
            estimate_polynomial_transform(
                psi, psi, d, P, 0.5, 0.2, np.random.default_rng(1),
                policy="tight", counters=c,
            )
            predicted, _ = predict_cost(d, P, 0.5, 0.2, policy="tight")
            assert 0 < c.leaf_queries <= predicted

    def test_counters_accumulate(self):
        gen = np.random.default_rng(25)
        d = random_normalized_decomposition(gen, 2, 3)
        psi = DenseState(random_state_vector(gen, 4))
        c = Counters()
        estimate_polynomial_transform(
            psi, psi, d, LINEAR, 0.5, 0.5, np.random.default_rng(0), counters=c
        )
        assert c.chain_samples > 0
        assert c.psi_samples > 0


# estimate_power(psi, psi, shifted_operator(d, 1.0), 3, 0.3, 0.05,
# default_rng(77)) on the instance of test_one_stratum_is_estimate_power, as
# float.hex of (real, imag), recorded from the per-power estimator that the
# stratified one replaced (on I - A', which shifted_operator at c = 1 is bit
# for bit).
RECORDED_POWER_3 = ("0x1.02037aed2a404p-3", "0x1.238bfbcaabe42p-8")


def zero_gap_polynomial(coeffs):
    """Monomial coefficients with their Chebyshev form, for the dense oracle."""
    coeffs = np.array(coeffs, dtype=float)
    return SimpleNamespace(coeffs=coeffs, degree=len(coeffs) - 1,
                           cheb=np.polynomial.chebyshev.poly2cheb(coeffs))


def mixed_decomposition(gen, i):
    """A 2-3-qubit normalized decomposition: Pauli terms, or 2-local blocks."""
    n = 2 + i % 2
    if i % 4 < 2:
        return random_normalized_decomposition(gen, n, 3)
    return shift_rescale(build_decomposition(n, [random_block_term(gen, n, 2)
                                                 for _ in range(2)]))


class TestStratifiedEstimator:
    """One estimator for the whole polynomial: c_r = ceil(t |a_r| / L1)
    chains of each power per batch, one median amplification."""

    @pytest.mark.parametrize("policy, coeffs, eta", [
        ("tight", [0.9, 0.0, -0.1, 0.0, -0.7], 0.2),
        ("tight", [0.0, -0.6, 0.0, 0.5], 0.2),
        ("strict", [0.5, 0.0, -0.4], 0.8),
    ])
    def test_accuracy_against_dense_oracle(self, policy, coeffs, eta):
        gen = np.random.default_rng(len(coeffs) * 10 + len(policy))
        P = zero_gap_polynomial(coeffs)
        hits = 0
        for i in range(20):
            d = mixed_decomposition(gen, i)
            psi = DenseState(random_state_vector(gen, d.dimension))
            want = exact_sandwich(psi, d, psi, polynomial=P)
            est = estimate_polynomial_transform(
                psi, psi, d, P, eta, 0.5, np.random.default_rng(500 + i),
                policy=policy,
            )
            hits += abs(est - want) <= eta
        assert hits >= 19

    def test_counters_match_the_strata(self):
        gen = np.random.default_rng(31)
        d = shift_rescale(build_decomposition(3, [random_block_term(gen, 3, 2)
                                                  for _ in range(3)]))
        psi = DenseState(random_state_vector(gen, 8))
        P = zero_gap_polynomial([0.9, 0.0, -0.1, 0.0, -0.7])
        c = Counters()
        estimate_polynomial_transform(psi, psi, d, P, 0.5, 0.1,
                                      np.random.default_rng(2), counters=c)
        predicted, br = predict_cost(d, P, 0.5, 0.1, policy="tight")
        per_batch = sum(br["chains_per_power"].values())
        assert set(br["chains_per_power"]) == {0, 2, 4}
        assert c.chain_samples == br["reps_per_power"] * per_batch
        assert c.psi_samples == c.chain_samples
        assert 0 < c.leaf_queries <= predicted

    def test_counts_are_proportional_to_coefficients(self):
        d = random_normalized_decomposition(np.random.default_rng(32), 2, 3)
        P = zero_gap_polynomial([0.9, 0.0, -0.1, 0.0, -0.7])
        total, br = predict_cost(d, P, 0.17, 0.05, policy="tight")
        t = math.ceil(64.0 / (0.1 * 0.1))
        assert br["err_per_power"] == pytest.approx(0.1)
        counts = br["chains_per_power"]
        assert counts[0] == math.ceil(t * 0.9 / 1.7)
        assert counts[2] == math.ceil(t * 0.1 / 1.7)
        assert counts[4] == math.ceil(t * 0.7 / 1.7)
        # Pauli terms have s = 1: each chain is charged max(r, 1) draws
        reps = br["reps_per_power"]
        assert br["per_power"] == {r: float(reps) * c * max(r, 1)
                                   for r, c in counts.items()}
        assert total == sum(br["per_power"].values())

    def test_one_stratum_is_estimate_power(self):
        """A single power runs the stream it ran before the polynomial
        became one estimator: value recorded from that version."""
        gen = np.random.default_rng(2024)
        d = shift_rescale(build_decomposition(
            3, [random_block_term(gen, 3, 2) for _ in range(3)]
            + random_pauli_terms(gen, 3, 2)))
        psi = DenseState(random_state_vector(gen, 8))
        c = Counters()
        est = estimate_power(psi, psi, shifted_operator(d, 1.0), 3, 0.3, 0.05,
                             np.random.default_rng(77), counters=c)
        assert (est.real.hex(), est.imag.hex()) == RECORDED_POWER_3
        assert c.chain_samples == c.psi_samples == 38448  # 54 reps of t = 712
        P = SimpleNamespace(coeffs=np.array([0.0, 0.0, 0.0, 1.0]), degree=3)
        again = estimate_polynomial_transform(psi, psi, shifted_operator(d, 1.0), P,
                                              0.3, 0.05, np.random.default_rng(77))
        # the polynomial path spends no stream on skipped powers
        assert again == est

    def test_pool_does_not_change_a_polynomial(self):
        gen = np.random.default_rng(33)
        d = shift_rescale(build_decomposition(3, [random_block_term(gen, 3, 2)
                                                  for _ in range(3)]))
        psi = DenseState(random_state_vector(gen, 8))
        P = zero_gap_polynomial([0.9, 0.0, -0.1, 0.0, -0.7])
        runs = []
        for cpus in (1, 3):
            c = Counters()
            with forced_pool(cpus):
                est = estimate_polynomial_transform(psi, psi, d, P, 0.5, 0.05,
                                                    np.random.default_rng(4), counters=c)
            runs.append((est, c.as_dict()))
        assert runs[0] == runs[1]

    def test_zero_polynomial_costs_nothing(self):
        d = random_normalized_decomposition(np.random.default_rng(34), 2, 3)
        psi = DenseState(random_state_vector(np.random.default_rng(0), 4))
        P = zero_gap_polynomial([0.0, 0.0])
        c = Counters()
        assert estimate_polynomial_transform(psi, psi, d, P, 0.5, 0.5,
                                             np.random.default_rng(0), counters=c) == 0
        assert predict_cost(d, P, 0.5, 0.5)[0] == 0.0
        assert c.chain_samples == 0


def test_chain_entry_stays_patchable_by_name():
    from eigensampler import imm, transform

    assert transform.chain_entry is imm.chain_entry


def test_module_constant_tuples():
    assert POLICIES == ("strict", "tight", "oracle-exact")
