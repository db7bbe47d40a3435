import math
from dataclasses import replace

import numpy as np
import pytest

from eigensampler import (
    BasisState,
    CostCapExceeded,
    Counters,
    DegreeOverflowError,
    DenseState,
    GapError,
    LocalTerm,
    SolverConfig,
    ValidationError,
    build_decomposition,
    decide,
    estimate_smallest_eigenvalue,
    exact_ground_energy,
    reconstruct,
    shift_rescale,
    solve_guided,
    solve_unguided,
)
from eigensampler import eigensolve, oracle, polyfilter
from eigensampler import test_threshold as threshold_test
from eigensampler.eigensolve import _test_polynomial, doubled_terms, low_pass_test
from eigensampler.hamiltonian import low_pass
from eigensampler.rng import spawn_streams
from eigensampler.oracle import ground_vector

from helpers import (
    hamiltonian_matrix,
    random_block_term,
    random_pauli_terms,
    sparse_decomposition,
)

Z_TERMS = [LocalTerm.from_pauli(1.0, "Z")]
X_NEG_TERMS = [LocalTerm.from_pauli(-1.0, "X")]
HEISENBERG = [
    LocalTerm.from_pauli(1.0, "XX"),
    LocalTerm.from_pauli(1.0, "YY"),
    LocalTerm.from_pauli(1.0, "ZZ"),
]


def oracle_cfg(**kw):
    kw.setdefault("policy", "oracle-exact")
    return SolverConfig(**kw)


class TestSolverConfig:
    def test_defaults(self):
        cfg = SolverConfig()
        assert cfg.epsilon == 0.25
        assert cfg.chi == 1.0
        assert cfg.delta == 0.05
        assert cfg.sigma is None
        assert cfg.policy == "tight"
        assert cfg.cost_cap == 1e9

    def test_interval_count(self):
        assert SolverConfig(epsilon=0.25).interval_count == 16
        assert SolverConfig(epsilon=0.5).interval_count == 8
        assert SolverConfig(epsilon=0.3).interval_count == math.ceil(4 / 0.3)
        assert SolverConfig(epsilon=1.0).interval_count == 4

    def test_resolved_sigma(self):
        assert SolverConfig(epsilon=0.5).resolved_sigma(2.0) == pytest.approx(0.5)
        assert SolverConfig(sigma=0.1).resolved_sigma(2.0) == pytest.approx(0.1)

    @pytest.mark.parametrize(
        "kw",
        [
            {"epsilon": 0.0},
            {"epsilon": 1.5},
            {"chi": 0.0},
            {"chi": 1.2},
            {"delta": 0.0},
            {"delta": 1.0},
            {"policy": "bogus"},
            {"cost_cap": 0.0},
            {"sigma": -0.5},
        ],
    )
    def test_rejects_bad_fields(self, kw):
        with pytest.raises(ValidationError):
            SolverConfig(**kw)

    def test_frozen(self):
        cfg = SolverConfig()
        with pytest.raises(Exception):
            cfg.epsilon = 0.5


class TestThresholdTest:
    def test_ground_state_accepts_first_interval(self):
        d = build_decomposition(1, Z_TERMS)
        dp = shift_rescale(d)
        psi = BasisState(1, 2)  # ground state of Z
        cfg = oracle_cfg(epsilon=0.25)
        assert threshold_test(0, dp, psi, cfg, np.random.default_rng(0)) is True

    def test_excited_state_rejects_low_intervals(self):
        d = build_decomposition(1, Z_TERMS)
        dp = shift_rescale(d)
        psi = BasisState(0, 2)  # top of the spectrum
        cfg = oracle_cfg(epsilon=0.25)
        for t in range(4):
            assert threshold_test(t, dp, psi, cfg, np.random.default_rng(t)) is False

    def test_index_bounds(self):
        d = build_decomposition(1, Z_TERMS)
        dp = shift_rescale(d)
        cfg = oracle_cfg(epsilon=0.5)
        psi = BasisState(1, 2)
        with pytest.raises(ValidationError):
            threshold_test(-1, dp, psi, cfg, np.random.default_rng(0))
        with pytest.raises(ValidationError):
            threshold_test(8, dp, psi, cfg, np.random.default_rng(0))


class TestEstimate:
    def test_diagonal_instance_is_exact(self):
        d = build_decomposition(1, Z_TERMS)
        est = estimate_smallest_eigenvalue(
            d, BasisState(1, 2), oracle_cfg(epsilon=0.25), np.random.default_rng(0)
        )
        assert est.e_star == pytest.approx(-1.0)
        assert est.t_star == 0
        assert est.T == 16
        assert est.no_yes_found is False

    def test_off_diagonal_instance(self):
        d = build_decomposition(1, X_NEG_TERMS)
        plus = DenseState(np.array([1.0, 1.0]) / math.sqrt(2))
        est = estimate_smallest_eigenvalue(
            d, plus, oracle_cfg(epsilon=0.5), np.random.default_rng(0)
        )
        assert abs(est.e_star - (-1.0)) <= 0.5 * d.kappa

    def test_heisenberg_singlet(self):
        d = build_decomposition(2, HEISENBERG)
        gv = ground_vector(reconstruct(d))
        est = estimate_smallest_eigenvalue(
            d, DenseState(gv), oracle_cfg(epsilon=0.5), np.random.default_rng(0)
        )
        assert est.e_star == pytest.approx(-3.0)
        assert est.kappa == pytest.approx(3.0)

    def test_estimate_reconstruction_identity(self):
        d = build_decomposition(2, HEISENBERG)
        gv = ground_vector(reconstruct(d))
        est = estimate_smallest_eigenvalue(
            d, DenseState(gv), oracle_cfg(epsilon=0.3), np.random.default_rng(0)
        )
        want = est.t_star * (est.epsilon / 2) * est.kappa - est.kappa
        assert est.e_star == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("epsilon", [1.0, 0.5, 0.4, 0.3, 0.25])
    def test_interval_count_formula(self, epsilon):
        d = build_decomposition(1, Z_TERMS)
        est = estimate_smallest_eigenvalue(
            d, BasisState(1, 2), oracle_cfg(epsilon=epsilon), np.random.default_rng(0)
        )
        assert est.T == math.ceil(4 / epsilon)

    def test_transcript_scans_bottom_up(self):
        d = build_decomposition(2, HEISENBERG)
        # the uniform-superposition state has overlap 0 with the singlet, so
        # the scan climbs past a few intervals before accepting
        psi = DenseState(np.full(4, 0.5))
        est = estimate_smallest_eigenvalue(
            d, psi, oracle_cfg(epsilon=0.5, chi=0.9), np.random.default_rng(0)
        )
        ts = [rec.t for rec in est.transcript]
        assert ts == list(range(est.t_star + 1))
        assert all(not rec.yes for rec in est.transcript[:-1])
        assert est.transcript[-1].yes

    def test_all_no_sets_flag(self):
        d = build_decomposition(1, Z_TERMS)
        psi = BasisState(0, 2)  # orthogonal to the ground state
        est = estimate_smallest_eigenvalue(
            d, psi, oracle_cfg(epsilon=0.25), np.random.default_rng(0)
        )
        assert est.no_yes_found is True
        assert est.t_star == est.T - 1
        assert est.e_star == pytest.approx((est.T - 1) * 0.125 - 1.0)

    def test_case_separation_at_yes_boundary(self):
        """Exact filter values split cleanly across the accept threshold."""
        d = build_decomposition(1, Z_TERMS)
        est = estimate_smallest_eigenvalue(
            d, BasisState(1, 2), oracle_cfg(epsilon=0.25), np.random.default_rng(0)
        )
        yes_rec = est.transcript[-1]
        assert yes_rec.estimate.real >= 11 / 12  # chi = 1
        d2 = build_decomposition(1, Z_TERMS)
        est2 = estimate_smallest_eigenvalue(
            d2, BasisState(0, 2), oracle_cfg(epsilon=0.25), np.random.default_rng(0)
        )
        for rec in est2.transcript:
            assert abs(rec.estimate) <= 1 / 12 + 1e-12

    def test_sigma_bounds_enforced(self):
        d = build_decomposition(1, Z_TERMS)
        cfg = oracle_cfg(epsilon=0.25, sigma=0.3)  # >= epsilon * kappa
        with pytest.raises(ValidationError):
            estimate_smallest_eigenvalue(d, BasisState(1, 2), cfg, np.random.default_rng(0))

    def test_dimension_mismatch_rejected(self):
        d = build_decomposition(2, HEISENBERG)
        with pytest.raises(ValidationError):
            estimate_smallest_eigenvalue(
                d, BasisState(0, 2), oracle_cfg(), np.random.default_rng(0)
            )

    def test_sampling_policies_abort_on_cost_cap(self):
        # tight runs the low-pass tests, whose cost fits under the default
        # cap; strict still pays the rectangle's 4^degree worst case, and a
        # tight run under a cap below its first test's prediction aborts
        # before sampling with the low-pass breakdown.
        d = build_decomposition(1, Z_TERMS)
        tight = SolverConfig(epsilon=1.0, chi=1.0, delta=0.5, policy="tight")
        est = estimate_smallest_eigenvalue(
            d, BasisState(1, 2), tight, np.random.default_rng(0)
        )
        assert abs(est.e_star - (-1.0)) <= tight.epsilon * d.kappa
        assert est.samples_used > 0
        for cfg in (replace(tight, policy="strict"), replace(tight, cost_cap=1e3)):
            with pytest.raises(CostCapExceeded) as info:
                estimate_smallest_eigenvalue(
                    d, BasisState(1, 2), cfg, np.random.default_rng(0)
                )
            assert info.value.predicted > cfg.cost_cap
            assert "per_power" in info.value.breakdown
        assert info.value.breakdown["filter"] == "low-pass"
        assert info.value.breakdown["degree"] == est.transcript[0].degree

    def test_oracle_exact_uses_no_samples(self):
        d = build_decomposition(1, Z_TERMS)
        est = estimate_smallest_eigenvalue(
            d, BasisState(1, 2), oracle_cfg(epsilon=0.5), np.random.default_rng(0)
        )
        assert est.samples_used == 0


class TestSolveEntryPoints:
    def test_solve_guided_accepts_pairs(self):
        est = solve_guided((1, Z_TERMS), BasisState(1, 2), oracle_cfg(epsilon=0.5))
        assert est.e_star == pytest.approx(-1.0)
        assert est.seed == 0

    def test_solve_guided_zero_hamiltonian(self):
        est = solve_guided((2, []), BasisState(0, 4), oracle_cfg())
        assert est.e_star == 0.0
        assert est.kappa == 0.0
        assert est.t_star == 0

    def test_solve_guided_seed_controls_run(self):
        a = solve_guided((1, Z_TERMS), BasisState(1, 2), oracle_cfg(seed=5))
        b = solve_guided((1, Z_TERMS), BasisState(1, 2), oracle_cfg(seed=5))
        assert a.to_dict() == b.to_dict()

    def test_solve_unguided_diagonal(self):
        est = solve_unguided((1, Z_TERMS), oracle_cfg(epsilon=0.5))
        assert abs(est.e_star - (-1.0)) <= 0.5
        assert est.chi == pytest.approx(2**-0.5)

    def test_solve_unguided_ignores_configured_chi(self):
        est = solve_unguided((1, Z_TERMS), oracle_cfg(epsilon=0.5, chi=0.123))
        assert est.chi == pytest.approx(2**-0.5)

    def test_doubled_terms_embed_identity_factor(self):
        n = 2
        terms = random_pauli_terms(np.random.default_rng(3), n, 3)
        doubled = doubled_terms(terms, n)
        assert all(len(t.pauli) == 2 * n for t in doubled if t.pauli is not None)
        H = hamiltonian_matrix(n, terms)
        HD = hamiltonian_matrix(2 * n, doubled)
        want = np.kron(np.eye(2**n), H)  # fresh qubits are the high bits
        assert np.allclose(HD, want, atol=1e-12)

    def test_unguided_matches_guided_answer(self):
        terms = random_pauli_terms(np.random.default_rng(8), 2, 3)
        d = build_decomposition(2, terms)
        lam = exact_ground_energy(reconstruct(d))
        est = solve_unguided((2, terms), oracle_cfg(epsilon=0.5))
        assert abs(est.e_star - lam) <= 0.5 * d.kappa


def watch_oracle(monkeypatch):
    """Count oracle.reconstruct calls; refuse eigh and the monomial conversion."""
    calls = []
    real = oracle.reconstruct

    def counting(decomp):
        calls.append(decomp)
        return real(decomp)

    def refuse(*args, **kwargs):
        raise AssertionError("diagonalization or monomial conversion called")

    polyfilter.build_rectangle_polynomial.cache_clear()
    monkeypatch.setattr(oracle, "reconstruct", counting)
    monkeypatch.setattr(np.linalg, "eigh", refuse)
    monkeypatch.setattr(polyfilter, "_cheb_to_monomial_extended", refuse)
    return calls


class TestOracleExactScan:
    """An oracle-exact scan reconstructs once and never diagonalizes."""

    def test_guided_scan_reads_one_moment_sequence(self, monkeypatch):
        # ceil(max degree / 2) sparse products in all, against the sum of the
        # degrees for a recurrence rerun per test; no dense matrix is built.
        rng = np.random.default_rng(12)
        terms = random_pauli_terms(rng, 3, 4) + [random_block_term(rng, 3, 2)]
        guide = DenseState(np.linalg.eigh(hamiltonian_matrix(3, terms))[1][:, 0])
        calls = watch_oracle(monkeypatch)
        products = []
        apply = oracle.DenseOperator.apply

        def counting(self, vec):
            products.append(vec.shape)
            return apply(self, vec)

        def refuse(self):
            raise AssertionError("dense matrix built")

        monkeypatch.setattr(oracle.DenseOperator, "apply", counting)
        monkeypatch.setattr(oracle.DenseOperator, "matrix", property(refuse))
        est = solve_guided((3, terms), guide, oracle_cfg(epsilon=0.25))
        degrees = [record.degree for record in est.transcript]
        assert len(calls) == 1
        assert len(degrees) > 1
        assert len(products) == math.ceil(max(degrees) / 2)
        assert len(products) < sum(degrees)

    def test_guided(self, monkeypatch):
        rng = np.random.default_rng(12)
        terms = random_pauli_terms(rng, 3, 4) + [random_block_term(rng, 3, 2)]
        guide = DenseState(np.linalg.eigh(hamiltonian_matrix(3, terms))[1][:, 0])
        calls = watch_oracle(monkeypatch)
        est = solve_guided((3, terms), guide, oracle_cfg(epsilon=0.25))
        assert len(calls) == 1
        assert len(est.transcript) > 1

    def test_unguided(self, monkeypatch):
        # the loose norm bound lifts the ground energy of A' to about 0.3
        terms = [LocalTerm.from_pauli(1.0, "ZX", kappa=3.0),
                 LocalTerm.from_pauli(0.5, "XI")]
        calls = watch_oracle(monkeypatch)
        est = solve_unguided((2, terms), oracle_cfg(epsilon=0.5))
        assert len(calls) == 1
        assert len(est.transcript) > 1


class TestDecide:
    def test_low_side(self):
        out = decide((1, Z_TERMS), BasisState(1, 2), -0.9, 0.1, oracle_cfg(epsilon=0.25))
        assert out.decision == "LOW"
        assert out.midpoint_energy == pytest.approx(-0.4)

    def test_high_side(self):
        out = decide((1, Z_TERMS), BasisState(0, 2), -0.9, 0.1, oracle_cfg(epsilon=0.25))
        assert out.decision == "HIGH"

    def test_gap_must_exceed_epsilon(self):
        with pytest.raises(GapError):
            decide((1, Z_TERMS), BasisState(1, 2), -0.2, 0.0, oracle_cfg(epsilon=0.25))
        with pytest.raises(GapError):
            decide((1, Z_TERMS), BasisState(1, 2), 0.5, -0.5, oracle_cfg(epsilon=0.25))

    def test_maxent_spec_routes_to_unguided(self):
        out = decide((1, Z_TERMS), "maxent", -0.8, 0.2, oracle_cfg(epsilon=0.4))
        assert out.decision == "LOW"
        assert out.estimate.chi == pytest.approx(2**-0.5)

    def test_outcome_serializes(self):
        out = decide((1, Z_TERMS), BasisState(1, 2), -0.9, 0.1, oracle_cfg(epsilon=0.25))
        doc = out.to_dict()
        assert doc["decision"] == "LOW"
        assert doc["a"] == -0.9 and doc["b"] == 0.1
        assert "estimate" in doc


def test_energy_estimate_to_dict_round_trips_through_json():
    import json

    est = solve_guided((1, Z_TERMS), BasisState(1, 2), oracle_cfg(epsilon=0.5))
    doc = est.to_dict()
    again = json.loads(json.dumps(doc, sort_keys=True))
    assert again["e_star"] == est.e_star
    assert again["t_star"] == est.t_star
    doc_t = est.to_dict(include_transcript=True)
    assert len(doc_t["transcript"]) == est.t_star + 1


def shifted_to(n, terms, target):
    """terms plus c*I, with c chosen so that lambda_0 of A' equals target."""
    d = build_decomposition(n, terms)
    lam, kappa = exact_ground_energy(reconstruct(d)), d.kappa
    num = (2.0 * target - 1.0) * kappa - lam
    c = num / (2.0 - 2.0 * target) if num >= 0 else num / (2.0 * target)
    return terms + [LocalTerm.from_pauli(c, "I" * n)]


def guide_with_overlap(op, chi, rng):
    """chi times a ground vector plus an excited part orthogonal to the ground space."""
    vals, vecs = op.eigenvalues, op.eigenvectors
    ground = vals <= vals[0] + 1e-9
    excited = vecs[:, ~ground] @ (rng.normal(size=(~ground).sum())
                                  + 1j * rng.normal(size=(~ground).sum()))
    v = chi * vecs[:, 0] + math.sqrt(1 - chi * chi) * excited / np.linalg.norm(excited)
    return DenseState(v / np.linalg.norm(v))


class TestLowPass:
    """The tight scan's low-pass test (I - A')^r."""

    def test_choice_of_r(self):
        # r comes in closed form; it must be the smallest separating r, or
        # a DegreeOverflowError when that r passes the degree cap
        cap = polyfilter.DEGREE_CAP
        refused = 0
        for epsilon in (1.0, 0.5, 0.3, 0.25, 0.1, 0.05):
            for chi in (1.0, 0.5, 0.1, 0.03):
                for t in range(math.ceil(4 / epsilon)):
                    tau, theta = t * epsilon / 4, epsilon / 4
                    if tau + theta > 1:
                        test = low_pass_test(t, epsilon, chi)
                        assert (test.r, test.yes_bound, test.no_bound) == (0, chi * chi, 0.0)
                        continue
                    b = max(0.0, 1 - tau - theta)

                    def separated(r):
                        return chi * chi * (1 - tau) ** r >= 2 * b ** r

                    smallest = next(r for r in range(1, cap + 2) if separated(r)
                                    or r == cap + 1)
                    if smallest > cap:
                        with pytest.raises(DegreeOverflowError):
                            low_pass_test(t, epsilon, chi)
                        refused += 1
                        continue
                    test = low_pass_test(t, epsilon, chi)
                    assert test.r == smallest
                    assert test.yes_bound == chi * chi * (1 - tau) ** test.r
                    assert test.no_bound == b ** test.r
                    assert test.err == (test.yes_bound - test.no_bound) / 4 > 0
        assert refused > 0

    def test_gap_below_float_resolution_is_refused(self):
        # tau = 0.95 and theta = 2.5e-4 give r = 139, under the degree cap,
        # and a yes bound 0.05^139 of about 1e-181
        with pytest.raises(ValidationError, match="float resolution"):
            low_pass_test(3800, 0.001, 1.0)

    def test_power_above_the_degree_cap_is_refused(self):
        # The chain masses are products of r bounds of at most 1/2, so an
        # unbounded r would underflow them to 0 and turn the estimate into
        # nan. r is closed-form, so epsilon 1e-9 (r about 2.8e9) is refused
        # without a search.
        for t, epsilon, chi in ((0, 0.002, 1.0), (0, 1e-5, 1.0), (0, 1e-9, 1.0),
                                (0, 0.5, 1e-200), (195, 0.02, 1e-20)):
            with pytest.raises(DegreeOverflowError) as info:
                low_pass_test(t, epsilon, chi)
            assert info.value.degree_cap == polyfilter.DEGREE_CAP

    def test_single_z_at_small_epsilon_stops_at_the_degree_cap(self):
        # r about 1387 at test 0; before the cap this run returned an
        # answer from a 0/0 estimate
        cfg = SolverConfig(epsilon=0.002, policy="tight")
        with pytest.raises(DegreeOverflowError):
            solve_guided((1, Z_TERMS), BasisState(1, 2), cfg)

    def test_scan_spawns_streams_as_it_goes(self):
        # T = 4e9 here; spawning every test's stream before test 0 took
        # hours. Streams spawned one per test are those of spawning all T.
        with pytest.raises(DegreeOverflowError):
            solve_guided((1, Z_TERMS), BasisState(1, 2),
                         SolverConfig(epsilon=1e-9, policy="tight"))
        d = build_decomposition(2, [
            LocalTerm.from_pauli(0.5, "XZ"),
            LocalTerm.from_pauli(-0.25, "ZI"),
            LocalTerm.from_pauli(0.3, "IX"),
        ])
        psi = DenseState(ground_vector(reconstruct(d)))
        cfg = SolverConfig(epsilon=0.5, policy="tight", seed=5)
        est = estimate_smallest_eigenvalue(d, psi, cfg, np.random.default_rng(5))
        assert len(est.transcript) > 1
        streams = spawn_streams(np.random.default_rng(5), cfg.interval_count)
        prime = shift_rescale(d)
        for rec in est.transcript:
            again = eigensolve._threshold_detail(
                rec.t, prime, psi, cfg, streams[rec.t], cfg.interval_count
            )
            assert again == rec

    def test_long_pauli_chain_stops_at_the_preflight(self):
        # A Pauli-only operator has s = 1, so only the chain length makes
        # the cost grow with r: r = 139 here, 139 draws per chain
        cfg = SolverConfig(epsilon=0.02, policy="tight", cost_cap=1e7)
        prime = shift_rescale(build_decomposition(1, Z_TERMS))
        assert prime.s == 1
        with pytest.raises(CostCapExceeded) as info:
            threshold_test(0, prime, BasisState(1, 2), cfg, np.random.default_rng(0))
        b = info.value.breakdown
        assert b["degree"] == low_pass_test(0, 0.02, 1.0).r == 139
        assert info.value.predicted == (
            b["reps_per_power"] * b["chains_per_batch"] * 139
        )

    def test_decomposition_reconstructs_identity_minus_a_prime(self):
        rng = np.random.default_rng(61)
        for n in (3, 4, 5, 6):
            terms = random_pauli_terms(rng, n, 4) + [random_block_term(rng, n, 2)]
            prime = shift_rescale(build_decomposition(n, terms))
            low = low_pass(prime)
            assert low.kappa_i == prime.kappa_i
            want = np.eye(2**n) - reconstruct(prime).matrix
            assert np.max(np.abs(reconstruct(low).matrix - want)) <= 1e-12

    def test_decomposition_refuses_other_shapes(self):
        d = build_decomposition(2, HEISENBERG)
        prime = shift_rescale(d)
        for bad in (d, sparse_decomposition(prime.terms[1:], prime.kappa_i[1:]),
                    sparse_decomposition(prime.terms[:1] + d.terms,
                                         prime.kappa_i[:1] + d.kappa_i)):
            with pytest.raises(ValidationError):
                low_pass(bad)

    def test_bounds_hold_at_both_band_edges(self, monkeypatch):
        # exact_sandwich(power=r) stands in for the sampled estimate, so the
        # test's decision is checked along with the bounds it rests on
        exact_calls = []

        def exact_power(psi, phi, low, r, err, delta, rng, **kw):
            exact_calls.append(r)
            return oracle.exact_sandwich(psi, low, phi, power=r)

        monkeypatch.setattr(eigensolve, "estimate_power", exact_power)
        rng = np.random.default_rng(62)
        checked = 0
        for k in range(16):
            n = 3 + k % 4
            terms = random_pauli_terms(rng, n, 3) + [random_block_term(rng, n, 2)]
            chi = (0.9, 0.6, 0.3)[k % 3]
            epsilon = (1.0, 0.5, 0.3)[k % 3]
            # both edges inside (0, 1): lambda_0' = 1 would need A' = I
            t = int(rng.integers(1, math.ceil(4 / epsilon)))
            while (t + 1) * epsilon / 4 > 0.99:
                t -= 1
            tau, theta = t * epsilon / 4, epsilon / 4
            for edge, yes in ((tau, True), (tau + theta, False)):
                shifted = shifted_to(n, terms, edge)
                prime = shift_rescale(build_decomposition(n, shifted))
                op = reconstruct(prime)
                assert op.eigenvalues[0] == pytest.approx(edge, abs=1e-12)
                psi = guide_with_overlap(op, chi, rng)
                test = low_pass_test(t, epsilon, chi)
                value = oracle.exact_sandwich(psi, low_pass(prime), psi, power=test.r)
                assert abs(value.imag) <= 1e-12
                if yes:
                    assert value.real >= test.yes_bound - 1e-12
                else:
                    assert value.real <= test.no_bound + 1e-12
                cfg = SolverConfig(epsilon=epsilon, chi=chi, policy="tight",
                                   cost_cap=None)
                assert threshold_test(t, prime, psi, cfg, None) is yes
                checked += 1
        assert checked == 32 and len(exact_calls) == 32

    def test_every_test_predicts_under_a_unit_cap(self):
        d = shift_rescale(build_decomposition(2, HEISENBERG))
        cfg = SolverConfig(epsilon=0.3, chi=0.5, policy="tight", cost_cap=1.0)
        for t in range(cfg.interval_count):
            with pytest.raises(CostCapExceeded) as info:
                threshold_test(t, d, BasisState(0, 4), cfg, np.random.default_rng(0))
            b = info.value.breakdown
            test = low_pass_test(t, cfg.epsilon, cfg.chi)
            assert b["filter"] == "low-pass" and b["policy"] == "tight"
            assert b["degree"] == test.r
            assert b["err_per_power"] == test.err
            assert b["per_power"] == {test.r: info.value.predicted}
            assert info.value.predicted == (
                b["reps_per_power"] * b["chains_per_batch"]
                * max(test.r, 1) * d.s ** test.r
            )

    def test_leaf_queries_within_prediction_in_a_tight_scan(self):
        rng = np.random.default_rng(63)
        terms = random_pauli_terms(rng, 3, 3) + [random_block_term(rng, 3, 2)]
        prime = shift_rescale(build_decomposition(3, terms))
        psi = guide_with_overlap(reconstruct(prime), 0.8, rng)
        cfg = SolverConfig(epsilon=1.0, chi=0.8, delta=0.5, policy="tight")
        capped = replace(cfg, cost_cap=1.0)
        streams = spawn_streams(np.random.default_rng(0), cfg.interval_count)
        ran = 0
        for t in range(cfg.interval_count):
            with pytest.raises(CostCapExceeded) as info:
                threshold_test(t, prime, psi, capped, streams[t])
            counters = Counters()
            yes = threshold_test(t, prime, psi, cfg, streams[t], counters=counters)
            assert 0 < counters.leaf_queries <= info.value.predicted
            ran += 1
            if yes:
                break
        assert ran >= 1

    def test_transcript_names_the_filter(self):
        d = build_decomposition(2, HEISENBERG)
        psi = DenseState(ground_vector(reconstruct(d)))
        runs = {}
        for policy in ("tight", "oracle-exact"):
            cfg = SolverConfig(epsilon=0.5, policy=policy, seed=3)
            runs[policy] = estimate_smallest_eigenvalue(
                d, psi, cfg, np.random.default_rng(3)
            )
        for rec in runs["tight"].transcript:
            assert rec.filter == "low-pass"
            assert rec.degree == low_pass_test(rec.t, 0.5, 1.0).r
        for rec in runs["oracle-exact"].transcript:
            assert rec.filter == "rectangle"
            assert rec.degree == _test_polynomial(rec.t, 0.5, 1.0).degree
            assert rec.to_dict()["degree"] == rec.degree
