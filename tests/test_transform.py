import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest

from eigensampler import (
    BasisState,
    ChainSampler,
    CostCapExceeded,
    Counters,
    DenseLimitError,
    DenseState,
    ValidationError,
    build_rectangle_polynomial,
    chain_entry,
    estimate_polynomial_transform,
    estimate_power,
    predict_cost,
    reconstruct,
    sample_chain,
)
from eigensampler.imm import MatrixChain
from eigensampler.transform import CHAIN_MODES, POLICIES, power_error_budget

from helpers import random_normalized_decomposition, random_state_vector

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

    def test_exact_mode_matches_dense_tightly(self):
        gen = np.random.default_rng(12)
        d = random_normalized_decomposition(gen, 2, 3)
        psi_v = random_state_vector(gen, 4)
        want = np.vdot(psi_v, np.linalg.matrix_power(dense_of(d), 2) @ psi_v)
        est = estimate_power(
            DenseState(psi_v), DenseState(psi_v), d, 2, 0.05, 0.05,
            np.random.default_rng(0), chain_mode="exact",
        )
        assert abs(est - want) <= 0.05

    def test_exact_mode_respects_dense_limit(self):
        d = random_normalized_decomposition(np.random.default_rng(16), 13, 2)
        psi = BasisState(0, 2**13)
        with pytest.raises(DenseLimitError):
            estimate_power(psi, psi, d, 1, 0.5, 0.5, np.random.default_rng(0),
                           chain_mode="exact")

    def test_nested_mode_agrees(self):
        # the two-layer estimator is orders of magnitude costlier per unit of
        # precision, so it is exercised at its loosest legal setting
        gen = np.random.default_rng(13)
        d = random_normalized_decomposition(gen, 2, 3)
        psi_v = random_state_vector(gen, 4)
        want = np.vdot(psi_v, dense_of(d) @ psi_v)
        est = estimate_power(
            DenseState(psi_v), DenseState(psi_v), d, 1, 1.0, 0.9,
            np.random.default_rng(2), chain_mode="nested",
        )
        assert abs(est - want) <= 0.35

    def test_workers_do_not_change_result(self):
        gen = np.random.default_rng(14)
        d = random_normalized_decomposition(gen, 2, 3)
        psi_v = random_state_vector(gen, 4)
        psi = DenseState(psi_v)
        a = estimate_power(psi, psi, d, 2, 0.3, 0.2, np.random.default_rng(6), workers=1)
        b = estimate_power(psi, psi, d, 2, 0.3, 0.2, np.random.default_rng(6), workers=3)
        assert a == b

    def test_argument_validation(self):
        gen = np.random.default_rng(15)
        d = random_normalized_decomposition(gen, 2, 3)
        psi = DenseState(random_state_vector(gen, 4))
        rng = np.random.default_rng(0)
        with pytest.raises(ValidationError):
            estimate_power(psi, psi, d, 1, 1.5, 0.1, rng)
        with pytest.raises(ValidationError):
            estimate_power(psi, psi, d, -1, 0.5, 0.1, rng)
        with pytest.raises(ValidationError):
            estimate_power(psi, psi, d, 1, 0.5, 0.1, rng, chain_mode="bogus")


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
        assert br["chain_mode"] == "single"
        assert br["degree"] == 2
        assert set(br["per_power"]) == {0, 2}  # zero coefficient at power 1
        assert isinstance(br["chains_per_batch"], float)
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

    def test_exact_mode_drops_leaf_factor(self):
        d = self.make()
        t_single, _ = predict_cost(d, T2, 0.2, 0.05, chain_mode="single")
        t_exact, _ = predict_cost(d, T2, 0.2, 0.05, chain_mode="exact")
        assert t_exact <= t_single

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

    def test_exact_mode_per_power_linearity(self):
        """Per-power estimates ride on reserved child streams, so results
        combine linearly across polynomials with the same degree."""
        gen = np.random.default_rng(23)
        d = random_normalized_decomposition(gen, 2, 3)
        psi_v = random_state_vector(gen, 4)
        psi = DenseState(psi_v)

        def run(coeffs):
            P = SimpleNamespace(coeffs=np.array(coeffs), degree=1)
            return estimate_polynomial_transform(
                psi, psi, d, P, 0.9, 0.9, np.random.default_rng(99),
                policy="strict", chain_mode="exact",
            )

        e0 = run([1.0, 0.0])
        e1 = run([0.0, 1.0])
        combined = run([2.0, -0.5])
        assert combined == 2.0 * e0 + (-0.5) * e1

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


def test_module_constant_tuples():
    assert CHAIN_MODES == ("single", "nested", "exact")
    assert POLICIES == ("strict", "tight", "oracle-exact")
