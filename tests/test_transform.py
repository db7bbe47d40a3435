import importlib
import inspect
import itertools
import math
from fractions import Fraction
import pkgutil
from types import SimpleNamespace

import numpy as np
import pytest

import eigensampler
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
    recording,
    shift_rescale,
)
from eigensampler.hamiltonian import shifted_operator
from eigensampler.imm import ChainKernel
from eigensampler.polyfilter import coefficient_l1
from eigensampler.transform import (
    POLICIES,
    batch_shape,
    decision_shape,
    log_test_cost,
    power_error_budget,
)

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
        chains = np.array([(0, 0), (1, 2), (2, 1)])
        assert ChainSampler(d, 2).masses(chains) == pytest.approx(
            w[chains[:, 0]] * w[chains[:, 1]]
        )
        # The empty chain has mass 1.
        empty = np.empty((3, 0), dtype=np.int64)
        assert np.array_equal(ChainSampler(d, 0).masses(empty), np.ones(3))

    def test_chain_mass_sums_to_one(self):
        rng = np.random.default_rng(2)
        d = random_normalized_decomposition(rng, 2, 3)
        for r in range(4):
            chains = np.array(list(itertools.product(range(d.m), repeat=r)),
                              dtype=np.int64)
            total = ChainSampler(d, r).masses(chains).sum()
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

    def test_counters_record_chain_draws(self):
        rng = np.random.default_rng(5)
        d = random_normalized_decomposition(rng, 2, 3)
        with recording() as c:
            ChainSampler(d, 2).sample_many(np.random.default_rng(0), 10)
        assert c.chain_samples == 10


class TestFactorChains:
    """Chains whose columns cycle through several factors, each column
    drawing from its own factor's bounds."""

    def factors(self, seed):
        rng = np.random.default_rng(seed)
        terms = random_pauli_terms(rng, 2, 3) + [random_block_term(rng, 2, 1)]
        prime = shift_rescale(build_decomposition(2, terms))
        return [shifted_operator(prime, c) for c in (0.7, -0.4, 0.1)]

    def test_power_chains_draw_one_choice_call(self):
        # One factor: every column in one rng.choice call, as before factors
        rng = np.random.default_rng(8)
        d = random_normalized_decomposition(rng, 2, 3)
        probs = np.asarray(d.kappa_i) / np.sum(d.kappa_i)
        for r in (1, 4):
            got = ChainSampler(d, r).sample_many(np.random.default_rng(9), 50)
            want = np.random.default_rng(9).choice(d.m, size=(50, r), p=probs)
            assert np.array_equal(got, want)
            assert np.array_equal(ChainSampler([d], r).sample_many(
                np.random.default_rng(9), 50), want)

    def test_columns_draw_from_their_own_factor(self):
        factors = self.factors(10)
        sizes = [f.m for f in factors]
        offsets = np.cumsum([0] + sizes[:-1])
        sampler = ChainSampler(factors, 7)
        assert sampler.terms == [h for f in factors for h in f.terms]
        chains = sampler.sample_many(np.random.default_rng(11), 4000)
        stream = np.random.default_rng(11)
        for f, factor in enumerate(factors):
            columns = chains[:, f::3] - offsets[f]
            assert np.all((0 <= columns) & (columns < sizes[f]))
            # the columns of one factor come from one rng.choice call, in
            # factor order
            probs = np.asarray(factor.kappa_i) / np.sum(factor.kappa_i)
            want = stream.choice(sizes[f], size=columns.shape, p=probs)
            assert np.array_equal(columns, want)
        kappa = [np.asarray(f.kappa_i) for f in factors]
        want = np.ones(len(chains))
        for j in range(7):
            want *= kappa[j % 3][chains[:, j] - offsets[j % 3]]
        assert np.array_equal(sampler.masses(chains), want)

    def test_chains_sum_to_the_dense_product(self):
        # Over every chain: the masses sum to 1, and the chain products sum
        # to F_2 F_1 F_3 F_2 F_1 (r = 5 columns over 3 factors)
        factors = self.factors(12)
        r = 5
        sampler = ChainSampler(factors, r)
        offsets = np.cumsum([0] + [f.m for f in factors[:-1]])
        chains = np.array(list(itertools.product(
            *[range(offsets[j % 3], offsets[j % 3] + factors[j % 3].m)
              for j in range(r)])), dtype=np.int64)
        masses = sampler.masses(chains)
        assert masses.sum() == pytest.approx(1.0, abs=1e-12)
        mats = [dense_of(f) for f in factors]
        want = np.eye(4)
        for j in range(r):
            want = mats[j % 3] @ want
        phi_v = random_state_vector(np.random.default_rng(13), 4)
        kernel = ChainKernel(sampler.terms)
        for row in range(4):
            values = kernel.values(chains, np.full(len(chains), row), DenseState(phi_v))
            # E_x[value / mass] over the sampler's own distribution
            assert np.sum(masses * (values / masses)) == pytest.approx(
                (want @ phi_v)[row], abs=1e-12)

    def test_needs_a_factor(self):
        with pytest.raises(ValidationError):
            ChainSampler([], 2)


def single_sample_values(decomp, psi_v, r, count, seed):
    """Raw single-draw estimator values X, computed through the public pieces."""
    rng = np.random.default_rng(seed)
    sampler = ChainSampler(decomp, r)
    chains = sampler.sample_many(rng, count)
    masses = sampler.masses(chains)
    psi = DenseState(psi_v)
    js = psi.sample_many(rng, count)
    cache = {}
    xs = np.empty(count, dtype=complex)
    for i in range(count):
        key = (tuple(int(k) for k in chains[i]), int(js[i]))
        if key not in cache:
            mats = [decomp.terms[k] for k in key[0]]
            w = chain_entry(key[1], mats, psi)
            cache[key] = w / (psi_v[key[1]] * masses[i])
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
            with forced_pool(cpus), recording() as c:
                est = estimate_power(psi, psi, d, 2, 0.3, 0.2, np.random.default_rng(6))
            runs.append((est, c.as_dict()))
        assert runs[0] == runs[1]

    def test_pool_shares_counters_on_block_terms(self):
        gen = np.random.default_rng(16)
        d = shift_rescale(build_decomposition(3, [random_block_term(gen, 3, 2)
                                                  for _ in range(3)]))
        psi = DenseState(random_state_vector(gen, 8))
        runs = []
        for cpus in (1, 3):
            with forced_pool(cpus), recording() as c:
                est = estimate_power(psi, psi, d, 2, 0.3, 0.05,
                                     np.random.default_rng(6))
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
        t = math.ceil(Fraction(64) / Fraction(err) ** 2)
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


class TestUncountableBatches:
    """An err whose ceil(64 / err^2) chains overflow a float is refused."""

    def make(self):
        d = random_normalized_decomposition(np.random.default_rng(0), 2, 3)
        return d, DenseState(random_state_vector(np.random.default_rng(1), 4))

    def test_single_power(self):
        d, psi = self.make()
        with pytest.raises(ValidationError):
            estimate_power(psi, psi, d, 1, 1e-200, 0.1, np.random.default_rng(0))
        with pytest.raises(ValidationError):
            batch_shape(1e-200, 0.1)

    # strict divides eta by 4^degree: at degree 12, 64 / err^2 overflows to
    # inf; at degree 20, err^2 underflows to 0
    @pytest.mark.parametrize("degree", [12, 20])
    def test_strict_polynomial(self, degree):
        d, psi = self.make()
        P = SimpleNamespace(coeffs=np.eye(degree + 1)[degree], degree=degree)
        with pytest.raises(ValidationError):
            predict_cost(d, P, 1e-150, 0.1, policy="strict")
        with pytest.raises(ValidationError):
            estimate_polynomial_transform(psi, psi, d, P, 1e-150, 0.1,
                                          np.random.default_rng(0), policy="strict")


class TestDecisionShape:
    """decision_shape(gap, delta) = (K, t): K = ceil(ln(1/delta) /
    D(1/2 || 1/9)) batches of t = ceil(8/e^2) chains at margin e = gap/2."""

    def test_median_of_the_batches_is_wrong_at_most_delta(self):
        # P(Bin(K, 1/9) >= K/2) exactly, in integers: np.median of an even
        # K averages the two middle batches, so K/2 wrong batches suffice
        evens = 0
        deltas = ([10.0 ** -k for k in range(1, 301, 3)] + [1e-300]
                  + [j / 100 for j in range(1, 100)])
        for delta in deltas:
            k = decision_shape(0.5, delta)[0]
            assert k == max(1, math.ceil(math.log(1 / delta) / (math.log(81 / 32) / 2)))
            wrong = sum(math.comb(k, j) * 8 ** (k - j) for j in range((k + 1) // 2, k + 1))
            num, den = delta.as_integer_ratio()
            assert wrong * den <= num * 9 ** k  # wrong / 9^k <= delta
            evens += k % 2 == 0
        assert evens > 50
        assert decision_shape(0.5, 1e-300)[0] == 1488
        assert decision_shape(0.5, 0.99)[0] == 1

    def test_one_batch_is_wrong_at_most_one_ninth(self):
        # Cantelli: Var(Re mean) <= 1/t, so a batch is e or more off on one
        # side with probability at most 1/(1 + t e^2) <= 1/9: t e^2 >= 8,
        # exactly, with no chain to spare at any t
        for gap in np.geomspace(1e-140, 1.0, 30001).tolist() + [0.5, 0.1, 2.0 ** -30]:
            t = decision_shape(gap, 0.1)[1]
            e = gap / 2
            assert Fraction(t) * Fraction(e) ** 2 >= 8
            assert 1 / (1 + Fraction(t) * Fraction(e) ** 2) <= Fraction(1, 9)
            assert Fraction(t - 1) * Fraction(e) ** 2 < 8

    def test_ranked_count_is_within_one_chain_of_the_charged_count(self):
        # log_test_cost ranks by the float ceil(8 exp(-2 log e)), decision_shape
        # charges the exact least count; below 2^40 chains they differ by at
        # most one chain per batch, at every ratio no/yes of the bounds
        compared = 0
        for ratio in (0.0, 1e-3, 0.5, 0.9):
            yes = 2.0 * np.geomspace(2e-6, 0.5, 10001) / (1.0 - ratio)
            yes = yes[yes <= 1.0]
            no = yes * ratio
            with np.errstate(divide="ignore"):
                ranked = np.exp(log_test_cost(np.log(yes), np.log(no / yes), 0, 1))
            for got, gap in zip(np.rint(ranked).tolist(), (yes - no).tolist()):
                charged = decision_shape(gap, 0.1)[1]
                if charged < 2 ** 40:
                    assert abs(int(got) - charged) <= 1, gap
                    compared += 1
        assert compared > 30000

    @pytest.mark.parametrize("delta", [1e-310, 5e-324, 0.0])
    def test_refuses_a_delta_whose_inverse_overflows(self, delta):
        with pytest.raises(ValidationError, match="^delta = "):
            decision_shape(0.5, delta)

    def test_refuses_a_margin_whose_count_overflows(self):
        with pytest.raises(ValidationError, match="^margin = "):
            decision_shape(1e-200, 0.1)

    def test_estimates_keep_their_shape(self):
        # The estimate path did not move: a rectangle under tight draws
        # ceil(18 ln(1/delta)) batches of c_r = ceil(t |a_r| / L1) chains,
        # t = ceil(64/err^2), err = eta / L1
        gen = np.random.default_rng(35)
        d = shift_rescale(build_decomposition(2, random_pauli_terms(gen, 2, 3)))
        psi = DenseState(random_state_vector(gen, 4))
        P = build_rectangle_polynomial(0.25, 0.5, 0.2)
        coeffs = P.coeffs[:P.degree + 1]
        l1 = coefficient_l1(P)
        t = math.ceil(64 / (1.0 / l1) ** 2)
        chains = sum(max(1, math.ceil(t * abs(a) / l1)) for a in coeffs if a != 0)
        reps = math.ceil(18 * math.log(1 / 0.5))
        with recording() as c:
            estimate_polynomial_transform(psi, psi, d, P, 1.0, 0.5,
                                          np.random.default_rng(0), policy="tight")
        assert c.chain_samples == reps * chains
        with recording() as c:
            estimate_power(psi, psi, d, 2, 0.25, 0.5, np.random.default_rng(0))
        assert c.chain_samples == reps * math.ceil(64 / 0.25 ** 2)


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
            with recording() as c:
                estimate_polynomial_transform(
                    psi, psi, d, P, 0.5, 0.2, np.random.default_rng(1),
                    policy="tight",
                )
            predicted, _ = predict_cost(d, P, 0.5, 0.2, policy="tight")
            assert 0 < c.leaf_queries <= predicted

    def test_counters_accumulate(self):
        gen = np.random.default_rng(25)
        d = random_normalized_decomposition(gen, 2, 3)
        psi = DenseState(random_state_vector(gen, 4))
        # the counters parameter is an inner recorder: it wins over an outer one
        c = Counters()
        with recording() as outer:
            estimate_polynomial_transform(
                psi, psi, d, LINEAR, 0.5, 0.5, np.random.default_rng(0), counters=c
            )
        assert c.chain_samples > 0
        assert c.psi_samples > 0
        assert outer.as_dict() == Counters().as_dict()


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
        with recording() as c:
            estimate_polynomial_transform(psi, psi, d, P, 0.5, 0.1,
                                          np.random.default_rng(2))
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
        with recording() as c:
            est = estimate_power(psi, psi, shifted_operator(d, 1.0), 3, 0.3, 0.05,
                                 np.random.default_rng(77))
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
            with forced_pool(cpus), recording() as c:
                est = estimate_polynomial_transform(psi, psi, d, P, 0.5, 0.05,
                                                    np.random.default_rng(4))
            runs.append((est, c.as_dict()))
        assert runs[0] == runs[1]

    def test_zero_polynomial_costs_nothing(self):
        d = random_normalized_decomposition(np.random.default_rng(34), 2, 3)
        psi = DenseState(random_state_vector(np.random.default_rng(0), 4))
        P = zero_gap_polynomial([0.0, 0.0])
        with recording() as c:
            assert estimate_polynomial_transform(psi, psi, d, P, 0.5, 0.5,
                                                 np.random.default_rng(0)) == 0
        assert predict_cost(d, P, 0.5, 0.5)[0] == 0.0
        assert c.chain_samples == 0


# Every attribute that bench/measure.py replaces by name while it traces, as
# (owner, attribute, where it is defined). A traced run reaches the solver
# only while each name stays bound to the object its callers use; a rename
# would break nothing but `bench/run.py --trace 1`.
BENCH_PATCHES = [
    ("eigensolve", "build_decomposition", "hamiltonian"),
    ("eigensolve", "shift_rescale", "hamiltonian"),
    ("eigensolve", "make_state", "state_access"),
    ("eigensolve", "build_rectangle_polynomial", "polyfilter"),
    ("eigensolve", "exact_sandwich", "oracle"),
    ("oracle", "reconstruct", "oracle"),
    ("transform", "estimate_power", "transform"),
    ("transform", "chain_entry", "imm"),
] + [
    # guide states are patched per instance, for each class a workload uses
    (f"state_access.{cls}", attr, f"state_access.{cls}")
    for cls in ("DenseState", "MaxEntState", "ProductState")
    for attr in ("sample_many", "query", "query_many")
]


def _eigensampler_object(path):
    module, _, name = path.partition(".")
    owner = importlib.import_module(f"eigensampler.{module}")
    return getattr(owner, name) if name else owner


@pytest.mark.parametrize("owner, attr, home", BENCH_PATCHES,
                         ids=[f"{owner}.{attr}" for owner, attr, _ in BENCH_PATCHES])
def test_bench_patch_target_stays_patchable_by_name(owner, attr, home):
    target = getattr(_eigensampler_object(owner), attr)
    assert callable(target)
    assert target is getattr(_eigensampler_object(home), attr)


def test_only_the_polynomial_transform_takes_counters():
    """Costs reach the active recorder (instrument.recording), not a parameter.

    estimate_polynomial_transform keeps counters= for its existing callers.
    recording() is the recorder itself, and EnergyEstimate's counters field
    is the dict a scan reports.
    """
    found = set()
    for info in pkgutil.iter_modules(eigensampler.__path__):
        module = importlib.import_module(f"eigensampler.{info.name}")
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            members = [(name, obj)]
            if inspect.isclass(obj):
                members = [(f"{name}.{attr}", getattr(value, "__func__", value))
                           for attr, value in vars(obj).items()]
            for qualname, fn in members:
                if inspect.isfunction(fn) and "counters" in inspect.signature(fn).parameters:
                    found.add(f"{info.name}.{qualname}")
    assert found == {
        "transform.estimate_polynomial_transform",
        "instrument.recording",
        "eigensolve.EnergyEstimate.__init__",
    }


def test_one_query_form_per_layer():
    """Handles answer rows_many and states answer query_many, with no scalar
    second form: no class of hamiltonian defines row_nnz, row_entry or row,
    and of the classes of state_access only VectorAccessor defines query,
    once, through query_many."""
    found = {"row_nnz": set(), "row_entry": set(), "row": set(), "query": set()}
    for module in (eigensampler.hamiltonian, eigensampler.state_access):
        for name, obj in vars(module).items():
            if inspect.isclass(obj) and obj.__module__ == module.__name__:
                for attr in found.keys() & vars(obj).keys():
                    found[attr].add(name)
    assert found == {"row_nnz": set(), "row_entry": set(), "row": set(),
                     "query": {"VectorAccessor"}}


def test_module_constant_tuples():
    assert POLICIES == ("strict", "tight", "oracle-exact")
