import math

import numpy as np
import pytest

from eigensampler import (
    BasisState,
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
from eigensampler import oracle, polyfilter
from eigensampler import test_threshold as threshold_test
from eigensampler.eigensolve import doubled_terms
from eigensampler.oracle import ground_vector

from helpers import hamiltonian_matrix, random_block_term, random_pauli_terms

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
        # the rectangle filter's coefficient mass forces >= 1e15 samples per
        # threshold test even at the loosest legal accuracy, so every sampled
        # policy must hit the preflight cap instead of silently running
        from eigensampler import CostCapExceeded

        d = build_decomposition(1, Z_TERMS)
        for policy in ("tight", "strict"):
            cfg = SolverConfig(epsilon=1.0, chi=1.0, delta=0.5, policy=policy)
            with pytest.raises(CostCapExceeded) as info:
                estimate_smallest_eigenvalue(
                    d, BasisState(1, 2), cfg, np.random.default_rng(0)
                )
            assert info.value.predicted > cfg.cost_cap

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
