import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from eigensampler import (
    BasisState,
    CostCapExceeded,
    Decomposition,
    DegreeOverflowError,
    DenseState,
    GapError,
    LocalTerm,
    MaxEntState,
    SolverConfig,
    StateSpecError,
    ValidationError,
    build_decomposition,
    decide,
    estimate_smallest_eigenvalue,
    exact_ground_energy,
    reconstruct,
    recording,
    shift_rescale,
    solve_guided,
    solve_unguided,
)
from eigensampler import eigensolve, oracle, polyfilter, transform
from eigensampler import test_threshold as threshold_test
from eigensampler.eigensolve import (
    _test_polynomial,
    chebyshev_test,
    doubled_terms,
    shifted_test,
    tight_test,
)
from eigensampler.hamiltonian import shifted_operator
from eigensampler.rng import make_generator, spawn_streams
from eigensampler.oracle import dense_term, ground_vector

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
        assert cfg.policy == "tight"
        assert cfg.cost_cap == 1e9

    def test_interval_count(self):
        assert SolverConfig(epsilon=0.25).interval_count == 16
        assert SolverConfig(epsilon=0.5).interval_count == 8
        assert SolverConfig(epsilon=0.3).interval_count == math.ceil(4 / 0.3)
        assert SolverConfig(epsilon=1.0).interval_count == 4

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
            {"epsilon": float("nan")},
            {"epsilon": 1e-310},  # 4/epsilon overflows
            {"epsilon": 5e-324},
            {"seed": -1},
            {"seed": None},
            {"seed": 1.5},
            {"seed": "3"},
            {"epsilon": "0.5"},
            {"delta": None},
            {"cost_cap": "1e9"},
            {"epsilon": [0.5]},
            {"epsilon": True},
            {"chi": True},
            {"cost_cap": True},
            {"seed": True},
            {"seed": False},
        ],
    )
    def test_rejects_bad_fields(self, kw):
        with pytest.raises(ValidationError):
            SolverConfig(**kw)

    def test_refuses_a_delta_whose_per_test_share_underflows(self):
        # delta / T is what each of the T tests runs at; 5e-324 / 4 is 0
        with pytest.raises(ValidationError, match=r"^delta = 5e-324 is too small"):
            SolverConfig(epsilon=1.0, delta=5e-324)
        assert SolverConfig(epsilon=0.5, delta=1e-310).delta == 1e-310

    def test_accepts_numpy_integer_seed(self):
        assert SolverConfig(seed=np.int64(7)).seed == 7
        # kept as a Python int: a numpy one made json.dumps of a report raise
        cfg = SolverConfig(seed=np.int64(3), policy="oracle-exact")
        est = solve_guided((1, Z_TERMS), BasisState(1, 2), cfg)
        assert type(cfg.seed) is type(est.to_dict()["seed"]) is int

    def test_accepts_real_numbers_and_no_cap(self):
        cfg = SolverConfig(epsilon=np.float64(0.5), chi=1, delta=np.float32(0.1),
                           cost_cap=math.inf)
        assert (cfg.epsilon, cfg.chi, cfg.cost_cap) == (0.5, 1, math.inf)
        assert SolverConfig(cost_cap=None).cost_cap is None

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

    def test_dimension_mismatch_rejected(self):
        d = build_decomposition(2, HEISENBERG)
        with pytest.raises(ValidationError):
            estimate_smallest_eigenvalue(
                d, BasisState(0, 2), oracle_cfg(), np.random.default_rng(0)
            )

    def test_sampling_policies_abort_on_cost_cap(self):
        # tight runs the shifted tests, whose cost fits under the default
        # cap; strict still pays the rectangle's 4^degree worst case, and a
        # tight run under a cap below its first test's prediction aborts
        # before sampling with the shifted test's breakdown.
        d = build_decomposition(1, Z_TERMS)
        tight = SolverConfig(epsilon=1.0, chi=1.0, delta=0.5, policy="tight")
        est = estimate_smallest_eigenvalue(
            d, BasisState(1, 2), tight, np.random.default_rng(0)
        )
        assert abs(est.e_star - (-1.0)) <= tight.epsilon * d.kappa
        assert est.samples_used > 0
        # test 0 is predicted at 82 leaf operations
        for cfg in (replace(tight, policy="strict"), replace(tight, cost_cap=10.0)):
            with pytest.raises(CostCapExceeded) as info:
                estimate_smallest_eigenvalue(
                    d, BasisState(1, 2), cfg, np.random.default_rng(0)
                )
            assert info.value.predicted > cfg.cost_cap
            assert "per_power" in info.value.breakdown
        assert info.value.breakdown["filter"] == "shifted"
        assert info.value.breakdown["degree"] == est.transcript[0].degree
        assert info.value.breakdown["shift"] == est.transcript[0].shift

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

    @pytest.mark.parametrize("terms", [[], [LocalTerm.from_pauli(0.0, "ZI")]],
                             ids=["no-terms", "zero-term"])
    def test_solve_unguided_zero_hamiltonian_reports_its_chi(self, terms):
        est = solve_unguided((2, terms), oracle_cfg(chi=0.9))
        assert est.e_star == 0.0
        assert est.chi == 0.5

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
    monkeypatch.setattr(polyfilter, "_cheb_to_monomial_exact", refuse)
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


def mixed_terms(n, seed):
    rng = np.random.default_rng(seed)
    terms = random_pauli_terms(rng, n, 3)
    return terms + ([random_block_term(rng, n, 2)] if n > 1 else [])


def doubled_scan(n, terms, cfg):
    """The reference scan: H (x) I on 2n qubits, guided by MaxEntState."""
    decomp = build_decomposition(2 * n, doubled_terms(terms, n))
    cfg = replace(cfg, chi=2.0 ** (-n / 2.0))
    return estimate_smallest_eigenvalue(decomp, MaxEntState(n), cfg,
                                        make_generator(cfg.seed))


class TestUnguidedOnNQubits:
    """The unguided scan runs on H's n-qubit decomposition with psi = None."""

    # a whole tight scan runs in seconds only at n = 1
    @pytest.mark.parametrize("n, policy", [(1, "tight"), (2, "strict"),
                                           (2, "oracle-exact")])
    def test_builds_only_n_qubit_decompositions(self, monkeypatch, n, policy):
        terms = mixed_terms(n, 61)
        qubits, dimensions = [], []
        build, init = eigensolve.build_decomposition, Decomposition.__init__

        def recording_build(count, local_terms):
            qubits.append(count)
            return build(count, local_terms)

        def recording_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            dimensions.append(self.dimension)

        monkeypatch.setattr(eigensolve, "build_decomposition", recording_build)
        monkeypatch.setattr(Decomposition, "__init__", recording_init)
        cfg = SolverConfig(epsilon=1.0, policy=policy)
        if policy == "strict":  # the rectangle's 4^degree mass is past any run
            with pytest.raises(CostCapExceeded):
                solve_unguided((n, terms), cfg)
        else:
            solve_unguided((n, terms), cfg)
        assert qubits == [n]
        assert dimensions and set(dimensions) == {2**n}

    @pytest.mark.parametrize("n, policy, epsilon", [
        (1, "tight", 1.0), (1, "oracle-exact", 0.35), (2, "oracle-exact", 0.35),
        (3, "oracle-exact", 0.35), (3, "oracle-exact", 0.5),
    ])
    def test_matches_the_doubled_scan(self, n, policy, epsilon):
        terms = mixed_terms(n, 70 + n)
        cfg = SolverConfig(epsilon=epsilon, policy=policy, seed=9)
        got, want = solve_unguided((n, terms), cfg), doubled_scan(n, terms, cfg)
        assert ((got.t_star, got.e_star, got.chi, got.samples_used, got.counters)
                == (want.t_star, want.e_star, want.chi, want.samples_used,
                    want.counters))
        assert len(got.transcript) == len(want.transcript) > 1
        for a, b in zip(got.transcript, want.transcript):
            assert ((a.t, a.yes, a.filter, a.degree, a.shift)
                    == (b.t, b.yes, b.filter, b.degree, b.shift))
            assert abs(a.estimate - b.estimate) <= 1e-12

    @pytest.mark.parametrize("n", [2, 3])
    def test_tight_stops_where_the_doubled_scan_stops(self, n):
        # under a 1e7 cap both scans stop at the same test, with one plan:
        # test 1 (2.4e7 leaf operations) at n = 2, test 0 (6.1e7) at n = 3
        terms = mixed_terms(n, 70 + n)
        cfg = SolverConfig(epsilon=1.0, policy="tight", seed=9, cost_cap=1e7)
        with pytest.raises(CostCapExceeded) as got:
            solve_unguided((n, terms), cfg)
        with pytest.raises(CostCapExceeded) as want:
            doubled_scan(n, terms, cfg)
        assert got.value.predicted == want.value.predicted
        assert got.value.breakdown == want.value.breakdown

    @pytest.mark.parametrize("n", [2, 3])
    def test_sampled_trace_draws_what_the_doubled_guide_draws(self, n):
        # one shifted power of a tight test, at a loose err so it runs
        terms = mixed_terms(n, 80 + n)
        single = shifted_operator(shift_rescale(build_decomposition(n, terms)), 0.5)
        doubled = shifted_operator(
            shift_rescale(build_decomposition(2 * n, doubled_terms(terms, n))), 0.5)
        psi = MaxEntState(n)
        for r in (1, 2, 4):
            with recording() as got_counts:
                got = transform.estimate_power(None, None, single, r, 0.1, 0.3,
                                               make_generator(r))
            with recording() as want_counts:
                want = transform.estimate_power(psi, psi, doubled, r, 0.1, 0.3,
                                                make_generator(r))
            assert abs(got - want) <= 1e-12
            assert got_counts.as_dict() == want_counts.as_dict()


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
        for spec in ("maxent", " MaxEnt ", MaxEntState(1)):
            out = decide((1, Z_TERMS), spec, -0.8, 0.2, oracle_cfg(epsilon=0.4))
            assert out.decision == "LOW"
            assert out.estimate.chi == pytest.approx(2**-0.5)

    def test_guided_solver_refuses_the_maxent_spec(self):
        # The unguided spec is the maxent state of H (x) I, which
        # solve_unguided scans on H's own qubits; solve_guided names it
        # rather than compare dimensions 4^n and 2^n
        for spec in ("maxent", " MAXENT", MaxEntState(1)):
            with pytest.raises(StateSpecError, match="solve_unguided"):
                solve_guided((1, Z_TERMS), spec, oracle_cfg(epsilon=0.5))

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


def dense_chain(factors, r):
    """The dense product of r chain columns that cycle through the factors,
    column 0 applied first."""
    mats = [reconstruct(f).matrix for f in factors]
    out = np.eye(mats[0].shape[0], dtype=complex)
    for j in range(r):
        out = mats[j % len(mats)] @ out
    return out


def band_edges(t, epsilon):
    """(y_tau, y_h): the test's band edges on the scale y = 2A' - I."""
    tau, theta = t * epsilon / 4, epsilon / 4
    return 2 * tau - 1, 2 * (tau + theta) - 1


def shifted_bounds(c, r, t, epsilon, chi):
    """(yes, no) bounds of the shifted power r at shift c, as TightTest
    proves them: chi^2 ((c - y_tau)/(1 + c))^r, (max(c - y_h, 1 - c)/(1 + c))^r."""
    y_tau, y_h = band_edges(t, epsilon)
    return (chi * chi * ((c - y_tau) / (1 + c)) ** r,
            (np.maximum(c - y_h, 1 - c) / (1 + c)) ** r)


def log_cost(margin, r, s):
    """log of ceil(8/margin^2) * max(r, 1) * s^r, the test's cost over reps."""
    return (math.log(math.ceil(8 / (margin * margin))) + math.log(max(r, 1))
            + r * math.log(s))


class TestLowPass:
    """The tight scan's threshold tests: one power r of the shifted operator
    (c - y)/(1 + c), y = 2A' - I, whose c = 1 case is the low-pass I - A'."""

    def test_choice_of_r(self):
        # The pick must cost no more than the best (c, r) of a 4,000-point
        # shift grid over [max(y_h, 0), 1] at every r (odd r at c = 1 only),
        # recomputed here from the bounds, or raise DegreeOverflowError when
        # no grid candidate separates them
        cap = polyfilter.DEGREE_CAP
        r = np.arange(1, cap + 1)
        refused = shifted = 0
        for epsilon in (1.0, 0.3, 0.1):
            for chi in (1.0, 0.1, 0.003):
                for s in (1, 4):
                    T = math.ceil(4 / epsilon)
                    for t in (0, T // 2, T - 1):
                        tau, theta = t * epsilon / 4, epsilon / 4
                        if tau + theta > 1:
                            test = shifted_test(t, epsilon, chi, s)
                            assert (test.shift, test.r, test.yes_bound,
                                    test.no_bound) == (1.0, 0, chi * chi, 0.0)
                            continue
                        y_h = band_edges(t, epsilon)[1]
                        c = np.linspace(max(y_h, 0.0), 1.0, 4000)[:, None]
                        yes, no = shifted_bounds(c, r, t, epsilon, chi)
                        margin = (yes - no) / 2
                        margin[:-1, ::2] = 0.0  # odd r runs at c = 1 alone
                        # for a fixed r the cost falls as the margin rises
                        best = min((log_cost(e, k, s) for e, k in zip(margin.max(axis=0), r)
                                    if e > 1e-150), default=math.inf)
                        if best == math.inf:
                            with pytest.raises(DegreeOverflowError):
                                shifted_test(t, epsilon, chi, s)
                            refused += 1
                            continue
                        test = shifted_test(t, epsilon, chi, s)
                        assert log_cost(test.margin, test.r, s) <= best + 1e-9
                        assert test.r % 2 == 0 or test.shift == 1.0
                        assert 1 <= test.r <= cap
                        shifted += test.shift < 1.0
        assert refused > 0 and shifted > 0

    def test_derived_shift_at_the_float_edges(self):
        # Each runs without a RuntimeWarning (tier-1 makes them errors).
        # t = 0: rho = 0, so every even power runs at c = tau + theta = theta
        assert np.all(eigensolve._best_shifts(0, 0.3, 0.5)[1::2] == 0.075)
        # tau + theta = 1.0000000000000002 leaves c = 1, whose no bound is 0
        test = shifted_test(3124, 0.00128, 1.0)
        assert (test.shift, test.r, test.no_bound) == (1.0, 1, 0.0)
        # the band edges are equal as floats and rho = 1: no shift separates
        assert band_edges(2 * 10**16, 1e-16)[0] == band_edges(2 * 10**16, 1e-16)[1]
        with pytest.raises(DegreeOverflowError):
            shifted_test(2 * 10**16, 1e-16, 1.0)

    def test_gap_below_float_resolution_is_refused(self):
        # tau + theta = 1 leaves only c = 1, whose no bound is 0; the yes
        # bound 1e-160 * 0.25^r never gets the margin above 1e-150
        with pytest.raises(ValidationError, match="float resolution"):
            shifted_test(3, 1.0, 1e-80)

    def test_power_above_the_degree_cap_is_refused(self):
        # The chain masses are products of r bounds of at most 1/2, so an
        # unbounded r would underflow them to 0 and turn the estimate into
        # nan. At chi 0.5 and epsilon 0.002 test 0 separates only past
        # r = 1386, whatever the shift.
        for t, epsilon, chi in ((0, 0.002, 0.5), (0, 1e-5, 0.5), (0, 1e-9, 0.5),
                                (0, 0.5, 1e-200), (195, 0.02, 1e-20)):
            with pytest.raises(DegreeOverflowError) as info:
                shifted_test(t, epsilon, chi)
            assert info.value.degree_cap == polyfilter.DEGREE_CAP
        # At t = 0 the yes ratio is 1 for every shift, so chi = 1 always
        # separates, even at epsilon 1e-9
        assert shifted_test(0, 1e-9, 1.0).yes_bound == 1.0

    def test_single_z_at_small_epsilon_stops_at_the_degree_cap(self):
        # r above 1386 at test 0; before the cap this run returned an
        # answer from a 0/0 estimate
        cfg = SolverConfig(epsilon=0.002, chi=0.5, policy="tight")
        with pytest.raises(DegreeOverflowError):
            solve_guided((1, Z_TERMS), BasisState(1, 2), cfg)

    def test_scan_spawns_streams_as_it_goes(self):
        # T = 4e9 here; spawning every test's stream before test 0 took
        # hours. Test 0 stops at its cost preflight. Streams spawned one per
        # test are those of spawning all T.
        with pytest.raises(CostCapExceeded):
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
                rec.t, prime, psi, cfg, streams[rec.t]
            )
            assert again == rec

    def test_long_pauli_chain_stops_at_the_preflight(self):
        # A Pauli-only operator has s = 1, so only the chain length makes
        # the cost grow with r: r = 120 here, 120 draws per chain, in one
        # batch of 136 chains (a basis guide's samples are bounded)
        cfg = SolverConfig(epsilon=0.02, policy="tight", cost_cap=1e4)
        prime = shift_rescale(build_decomposition(1, Z_TERMS))
        assert prime.s == 1
        with pytest.raises(CostCapExceeded) as info:
            threshold_test(0, prime, BasisState(1, 2), cfg, np.random.default_rng(0))
        b = info.value.breakdown
        test = tight_test(0, 0.02, 1.0, 1, cfg.per_test_delta)
        assert b["degree"] == test.r == 120
        assert b["shift"] == test.shift == 0.005
        assert (b["reps_per_power"], b["chains_per_batch"]) == (1, 136)
        assert info.value.predicted == 136 * 120

    def test_decomposition_reconstructs_identity_minus_a_prime(self):
        # (c I - y)/(1 + c) with y = 2A' - I; c = 1 is I - A' with the bounds
        # of A', and c = 0 gives the identity bound 0
        rng = np.random.default_rng(61)
        for n in (3, 4, 5, 6):
            terms = random_pauli_terms(rng, n, 4) + [random_block_term(rng, n, 2)]
            prime = shift_rescale(build_decomposition(n, terms))
            a_prime = reconstruct(prime).matrix
            y = 2 * a_prime - np.eye(2**n)
            for c in (1.0, 0.0, 0.5, float(rng.uniform())):
                op = shifted_operator(prime, c)
                assert op.kappa == pytest.approx(1.0, abs=1e-12)
                assert op.kappa_i[0] == c / (1 + c)
                if c == 1.0:
                    assert op.kappa_i == prime.kappa_i
                    want = np.eye(2**n) - a_prime
                else:
                    want = (c * np.eye(2**n) - y) / (1 + c)
                assert np.max(np.abs(reconstruct(op).matrix - want)) <= 1e-12
                if c in (0.0, 1.0):
                    # -2/(1 + c) is -2 or -1, so every term is exactly the
                    # term of A' times it
                    for mine, theirs in zip(op.terms[1:], prime.terms[1:]):
                        assert np.array_equal(dense_term(mine),
                                              -2.0 / (1 + c) * dense_term(theirs))
                    assert op.kappa_i[1:] == [2.0 * b / (1 + c) for b in prime.kappa_i[1:]]
            assert shifted_operator(prime, 0.0).kappa_i[0] == 0.0

    def test_decomposition_refuses_other_shapes(self):
        d = build_decomposition(2, HEISENBERG)
        prime = shift_rescale(d)
        for bad in (d, sparse_decomposition(prime.terms[1:], prime.kappa_i[1:]),
                    sparse_decomposition(prime.terms[:1] + d.terms,
                                         prime.kappa_i[:1] + d.kappa_i)):
            with pytest.raises(ValidationError):
                shifted_operator(bad, 1.0)
        for c in (-1.5, 1.5, math.nan):
            with pytest.raises(ValidationError):
                shifted_operator(prime, c)

    def test_bounds_hold_at_both_band_edges(self, monkeypatch):
        # exact_sandwich(power=r) stands in for the sampled estimate, so the
        # test's decision is checked along with the bounds it rests on
        exact_calls = []

        def exact_test(psi, decomp_prime, test, delta, rng, **kw):
            exact_calls.append(test.degree)
            return oracle.exact_sandwich(
                psi, dense_chain(test.base(decomp_prime), test.degree), psi)

        monkeypatch.setattr(eigensolve, "estimate_threshold_test", exact_test)
        rng = np.random.default_rng(62)
        checked = 0
        shifts = []
        filters = []
        for k in range(16):
            n = 3 + k % 4
            terms = random_pauli_terms(rng, n, 3) + [random_block_term(rng, n, 2)]
            chi = (0.9, 0.6, 0.3)[k % 3]
            epsilon = (1.0, 0.5, 0.3, 0.1)[k % 4]
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
                test = shifted_test(t, epsilon, chi, prime.s)
                shifts.append(test.shift)
                value = oracle.exact_sandwich(
                    psi, shifted_operator(prime, test.shift), psi, power=test.r
                )
                assert abs(value.imag) <= 1e-12
                if yes:
                    assert value.real >= test.yes_bound - 1e-12
                else:
                    assert value.real <= test.no_bound + 1e-12
                cfg = SolverConfig(epsilon=epsilon, chi=chi, policy="tight",
                                   cost_cap=None)
                assert threshold_test(t, prime, psi, cfg, None) is yes
                filters.append(tight_test(t, epsilon, chi, prime.s).filter)
                checked += 1
        assert checked == 32 and len(exact_calls) == 32
        assert sum(c < 1.0 for c in shifts) >= 8
        assert 0 < filters.count("chebyshev") < 32

    def test_bounds_hold_for_every_shift(self):
        # The proof does not depend on the chosen (c, r): at any shift in
        # [max(y_h, 0), 1] and any even r both bounds hold, c = 0 included
        rng = np.random.default_rng(64)
        terms = random_pauli_terms(rng, 3, 3) + [random_block_term(rng, 3, 2)]
        chi = 0.5
        for t, epsilon in ((1, 0.5), (1, 1.0), (10, 0.3)):
            tau, theta = t * epsilon / 4, epsilon / 4
            y_tau, y_h = band_edges(t, epsilon)
            lo = max(y_h, 0.0)
            for c in (lo, (lo + 1) / 2, 1.0):
                for r in (2, 6):
                    yes_bound = chi * chi * ((c - y_tau) / (1 + c)) ** r
                    no_bound = (max(c - y_h, 1 - c) / (1 + c)) ** r
                    for edge, yes in ((tau, True), (tau + theta, False)):
                        prime = shift_rescale(build_decomposition(
                            3, shifted_to(3, terms, edge)))
                        psi = guide_with_overlap(reconstruct(prime), chi, rng)
                        value = oracle.exact_sandwich(
                            psi, shifted_operator(prime, c), psi, power=r
                        ).real
                        if yes:
                            assert value >= yes_bound - 1e-12
                        else:
                            assert value <= no_bound + 1e-12
        assert band_edges(1, 0.5)[1] < 0  # so c = 0 was among the shifts

    def test_every_test_predicts_under_a_unit_cap(self):
        d = shift_rescale(build_decomposition(2, HEISENBERG))
        cfg = SolverConfig(epsilon=0.3, chi=0.5, policy="tight", cost_cap=1.0)
        filters = []
        for t in range(cfg.interval_count):
            with pytest.raises(CostCapExceeded) as info:
                threshold_test(t, d, BasisState(0, 4), cfg, np.random.default_rng(0))
            b = info.value.breakdown
            test = tight_test(t, cfg.epsilon, cfg.chi, d.s)
            filters.append(test.filter)
            assert b["filter"] == test.filter and b["policy"] == "tight"
            assert b["shift"] == test.shift
            if test.filter == "shifted":
                assert test == shifted_test(t, cfg.epsilon, cfg.chi, d.s)
            else:
                assert test.shift is None and test.r == 2 * len(test.shifts)
            assert b["degree"] == test.r
            assert b["err_per_power"] == test.margin
            assert b["per_power"] == {test.r: info.value.predicted}
            assert info.value.predicted == (
                b["reps_per_power"] * b["chains_per_batch"]
                * max(test.r, 1) * d.s ** test.r
            )
        assert filters.count("chebyshev") == 7

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
            with recording() as counters:
                yes = threshold_test(t, prime, psi, cfg, streams[t])
            assert 0 < counters.leaf_queries <= info.value.predicted
            ran += 1
            if yes:
                break
        assert ran >= 1

    def test_transcript_names_the_filter(self):
        d = build_decomposition(2, HEISENBERG)
        psi = DenseState(ground_vector(reconstruct(d)))
        s = shift_rescale(d).s
        runs = {}
        for policy in ("tight", "oracle-exact"):
            cfg = SolverConfig(epsilon=0.5, policy=policy, seed=3)
            runs[policy] = estimate_smallest_eigenvalue(
                d, psi, cfg, np.random.default_rng(3)
            )
        for rec in runs["tight"].transcript:
            test = shifted_test(rec.t, 0.5, 1.0, s)
            assert rec.filter == "shifted"
            assert (rec.degree, rec.shift) == (test.r, test.shift)
            assert rec.to_dict()["shift"] == test.shift
        for rec in runs["oracle-exact"].transcript:
            assert rec.filter == "rectangle"
            assert rec.degree == _test_polynomial(rec.t, 0.5, 1.0).degree
            assert rec.to_dict()["degree"] == rec.degree
            assert rec.shift is None and rec.to_dict()["shift"] is None


def reference_chebyshev_log_cost(t, epsilon, chi, s, m):
    """log of ceil(8/margin^2) * 2m * s^(2m) for the m-root Chebyshev test,
    from its bounds recomputed root by root, or inf where they do not
    separate above margin 1e-150."""
    y_tau, y_h = band_edges(t, epsilon)
    roots = [(1 + y_h) / 2 + (1 - y_h) / 2 * math.cos((2 * i - 1) * math.pi / (2 * m))
             for i in range(1, m + 1)]
    log_scale = sum(math.log1p(abs(c)) for c in roots)
    log_yes = 2 * math.log(chi) + 2 * sum(math.log(c - y_tau) for c in roots) - 2 * log_scale
    log_no = math.log(4) + 2 * m * math.log((1 - y_h) / 4) - 2 * log_scale
    if log_no >= log_yes:
        return math.inf
    log_margin = log_yes + math.log1p(-math.exp(log_no - log_yes)) - math.log(2)
    if log_margin <= math.log(1e-150):
        return math.inf
    return log_cost(math.exp(log_margin), 2 * m, s)


class TestChebyshev:
    """tight's second filter: q(y)^2 for m factors (c_i - y)/(1 + |c_i|) at
    the Chebyshev roots c_i of the blocked band [y_h, 1]."""

    def test_shifted_operator_at_negative_shifts(self):
        # (c I - y)/(1 + |c|) for c in [-1, 0); for c in [0, 1] the terms and
        # bounds are bit for bit those of the scale 1 + c
        rng = np.random.default_rng(74)
        for n in (2, 3):
            terms = random_pauli_terms(rng, n, 3) + [random_block_term(rng, n, 2)]
            prime = shift_rescale(build_decomposition(n, terms))
            y = 2 * reconstruct(prime).matrix - np.eye(2**n)
            for c in (-1.0, -0.5, -0.05, -float(rng.uniform())):
                op = shifted_operator(prime, c)
                assert op.kappa == pytest.approx(1.0, abs=1e-12)
                assert op.kappa_i[0] == -c / (1 - c)
                assert op.terms[0].perm_phase == c / (1 - c)
                want = (c * np.eye(2**n) - y) / (1 - c)
                assert np.max(np.abs(reconstruct(op).matrix - want)) <= 1e-12
            for c in (0.0, 0.25, 0.5, 1.0, float(rng.uniform())):
                op = shifted_operator(prime, c)
                assert op.kappa_i == [c / (1 + c)] + [2.0 * b / (1 + c)
                                                      for b in prime.kappa_i[1:]]
                assert op.terms[0].perm_phase == c / (1 + c)
                for mine, theirs in zip(op.terms[1:], prime.terms[1:]):
                    assert np.array_equal(dense_term(mine),
                                          dense_term(theirs.scaled(-2.0 / (1 + c))))

    def test_bounds_hold_at_both_band_edges(self):
        # chi < 1, and roots below 0 wherever y_h < 0; checked against the
        # exact sandwich of the dense product of the factors
        rng = np.random.default_rng(71)
        negative = 0
        for k in range(12):
            n = 3 + k % 2
            terms = random_pauli_terms(rng, n, 3) + [random_block_term(rng, n, 2)]
            chi = (0.5, 0.3, 0.1)[k % 3]
            epsilon = (1.0, 0.5, 0.3, 0.2)[k % 4]
            t = int(rng.integers(1, max(2, math.ceil(2 / epsilon))))
            m = int(rng.integers(1, 7))
            tau, theta = t * epsilon / 4, epsilon / 4
            test = chebyshev_test(t, epsilon, chi, m)
            assert test.r == 2 * m and len(test.shifts) == m
            negative += min(test.shifts) < 0
            for edge, yes in ((tau, True), (tau + theta, False)):
                prime = shift_rescale(build_decomposition(n, shifted_to(n, terms, edge)))
                op = reconstruct(prime)
                assert op.eigenvalues[0] == pytest.approx(edge, abs=1e-12)
                f = dense_chain(test.base(prime), test.r)
                y = 2 * op.matrix - np.eye(2**n)
                q = np.eye(2**n)
                for c in test.shifts:
                    q = q @ (c * np.eye(2**n) - y) / (1 + abs(c))
                assert np.max(np.abs(f - q @ q)) <= 1e-12
                psi = guide_with_overlap(op, chi, rng)
                value = oracle.exact_sandwich(psi, f, psi)
                assert abs(value.imag) <= 1e-12
                if yes:
                    assert value.real >= test.yes_bound * (1 - 1e-9)
                else:
                    assert value.real <= test.no_bound * (1 + 1e-9) + 1e-300
        assert negative >= 3

    def test_tight_takes_the_cheaper_filter(self):
        # The choice is the cheapest of the shifted power and every m-root
        # product, recomputed here root by root; ties go to the power
        chebyshev = 0
        for epsilon in (1.0, 0.5, 0.35, 0.25):
            for chi in (0.5, 2.0 ** -2, 2.0 ** -2.5):
                for s in (1, 4):
                    T = math.ceil(4 / epsilon)
                    for t in range(T):
                        if band_edges(t, epsilon)[1] >= 1:
                            assert tight_test(t, epsilon, chi, s) == shifted_test(
                                t, epsilon, chi, s)
                            continue
                        shifted = shifted_test(t, epsilon, chi, s)
                        product = [reference_chebyshev_log_cost(t, epsilon, chi, s, m)
                                   for m in range(1, eigensolve.MAX_ROOTS + 1)]
                        shifted_cost = log_cost(shifted.margin, shifted.r, s)
                        test = tight_test(t, epsilon, chi, s)
                        if test.filter == "chebyshev":
                            chebyshev += 1
                            m = len(test.shifts)
                            assert product[m - 1] <= min(product) + 1e-9
                            assert product[m - 1] < shifted_cost + 1e-9
                            assert test == chebyshev_test(t, epsilon, chi, m)
                        else:
                            assert test == shifted
                            assert shifted_cost <= min(product) + 1e-9
        assert chebyshev > 50

    def test_chi_one_keeps_the_shifted_power(self):
        # At chi = 1 the product wins no test, so chi = 1 scans keep their
        # transcripts
        for epsilon in (1.0, 0.3, 0.25, 0.1):
            for s in (1, 4):
                for t in range(math.ceil(4 / epsilon)):
                    assert tight_test(t, epsilon, 1.0, s) == shifted_test(t, epsilon, 1.0, s)

    def test_first_unguided_test_keeps_the_shifted_power(self):
        # At t = 0 the yes edge is y = -1, where the product is far smaller
        # than the shifted power: 2.4e7 against about 7.2e13 leaf operations
        # at epsilon 0.25 and n = 5
        chi = 2.0 ** -2.5
        test = tight_test(0, 0.25, chi)
        assert (test.filter, test.shift, test.r) == ("shifted", 0.0625, 48)
        rows = SimpleNamespace(s=1)
        T = math.ceil(4 / 0.25)
        best_m = min(range(1, eigensolve.MAX_ROOTS + 1),
                     key=lambda m: reference_chebyshev_log_cost(0, 0.25, chi, 1, m))
        product = chebyshev_test(0, 0.25, chi, best_m)
        gap = product.yes_bound - product.no_bound
        cost = transform.power_cost(rows, product.r,
                                    *transform.decision_shape(gap, 0.05 / T))
        assert cost == pytest.approx(7.2e13, rel=0.05)

    def test_refusals_of_the_shifted_power_stand(self):
        # The product separates test 0 at chi 0.5 and epsilon 0.002 (m = 30,
        # 2.4e69 leaf operations predicted), but the test is refused as before
        with pytest.raises(DegreeOverflowError):
            tight_test(0, 0.002, 0.5)
        with pytest.raises(ValidationError, match="float resolution"):
            tight_test(3, 1.0, 1e-80)

    def test_float_roots_are_refused_where_rounding_moves_the_maximum(self):
        # Bands 2e-5 and 2.2e-16 wide (epsilon 0.99999 and 1 - 2^-53 at
        # t = 3), where the float roots broke the closed-form band maximum
        for epsilon, m in ((0.99999, 20), (0.99999, 4), (1 - 2.0 ** -53, 3),
                           (1 - 2.0 ** -53, 1)):
            with pytest.raises(ValidationError, match="rounding"):
                chebyshev_test(3, epsilon, 0.5, m)
        assert chebyshev_test(3, 0.99999, 0.5, 3).r == 6
        # A band 1.5 wide (t = 0 at epsilon 1) keeps m up to 81, and none
        # keeps MAX_ROOTS; the benchmark's narrowest, 1 - y_h = 0.075
        # (epsilon 0.35, t = 10), keeps m up to 51
        assert 1 - band_edges(10, 0.35)[1] == pytest.approx(0.075)
        for t, epsilon, largest in ((0, 1.0, 81), (10, 0.35, 51)):
            assert chebyshev_test(t, epsilon, 0.5, largest).r == 2 * largest
            with pytest.raises(ValidationError, match="rounding"):
                chebyshev_test(t, epsilon, 0.5, largest + 1)
        with pytest.raises(ValidationError, match="rounding"):
            chebyshev_test(0, 1.0, 0.5, eigensolve.MAX_ROOTS)

    def test_tight_skips_a_refused_m(self, monkeypatch):
        # With its cheapest m refused, tight_test takes the next cheapest
        # accepted product, or the shifted power, and never raises
        t, epsilon, chi, s = 5, 0.35, 2.0 ** -1.5, 1
        first = tight_test(t, epsilon, chi, s)
        assert first.filter == "chebyshev"
        m = first.r // 2
        moves = eigensolve._rounding_moves

        def refuse_m(y_h):
            out = moves(y_h).copy()
            out[m - 1] = math.inf
            return out

        monkeypatch.setattr(eigensolve, "_rounding_moves", refuse_m)
        with pytest.raises(ValidationError, match="rounding"):
            chebyshev_test(t, epsilon, chi, m)
        second = tight_test(t, epsilon, chi, s)
        assert second != first
        shifted = shifted_test(t, epsilon, chi, s)
        costs = {k: reference_chebyshev_log_cost(t, epsilon, chi, s, k)
                 for k in range(1, eigensolve.MAX_ROOTS + 1) if k != m}
        if second.filter == "chebyshev":
            assert second.r // 2 == min(costs, key=costs.get)
        else:
            assert second == shifted

    def test_sampled_factor_chain_lands_within_err(self):
        # A direct estimate of the m = 2 product at t = 0 (roots 0.78 and
        # -0.28), guided and as a normalized trace, at a loose err
        rng = np.random.default_rng(72)
        terms = random_pauli_terms(rng, 3, 3) + [random_block_term(rng, 3, 2)]
        prime = shift_rescale(build_decomposition(3, terms))
        op = reconstruct(prime)
        test = chebyshev_test(0, 1.0, 0.5, 2)
        assert min(test.shifts) < 0 < max(test.shifts)
        factors = test.base(prime)
        f = dense_chain(factors, test.r)
        psi = guide_with_overlap(op, 0.5, rng)
        for guide, seed in ((psi, 1), (None, 2)):
            want = oracle.exact_sandwich(guide, f, guide)
            got = transform.estimate_power(guide, guide, factors, test.r, 0.25, 0.1,
                                           np.random.default_rng(seed))
            assert abs(got - want) <= 0.25

    def test_tight_test_is_a_one_monomial_transform(self):
        # A tight test runs as the polynomial e_r of its factor chain, whose
        # mass 1 keeps its err, so it draws what estimate_power draws
        rng = np.random.default_rng(74)
        terms = random_pauli_terms(rng, 2, 3) + [random_block_term(rng, 2, 2)]
        prime = shift_rescale(build_decomposition(2, terms))
        psi = guide_with_overlap(reconstruct(prime), 0.8, rng)
        tests = (shifted_test(0, 1.0, 1.0), chebyshev_test(0, 1.0, 1.0, 2))
        assert [test.filter for test in tests] == ["shifted", "chebyshev"]
        for test in tests:
            factors = test.base(prime)
            e_r = SimpleNamespace(coeffs=np.eye(test.r + 1)[test.r], degree=test.r)
            got = transform.estimate_polynomial_transform(
                psi, psi, factors, e_r, test.margin / 2, 0.5,
                np.random.default_rng(5), policy="tight")
            want = transform.estimate_power(psi, psi, factors, test.r, test.margin / 2,
                                            0.5, np.random.default_rng(5))
            assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())

    def test_sampled_tight_test_picks_the_product(self):
        # The cheapest seeded case in which tight runs the product: epsilon
        # 1, chi 0.5, delta 0.5, test 1 (m = 2, about 4.2e5 leaf operations)
        rng = np.random.default_rng(73)
        terms = random_pauli_terms(rng, 3, 4)
        t, epsilon, chi = 1, 1.0, 0.5
        tau = t * epsilon / 4
        prime = shift_rescale(build_decomposition(3, shifted_to(3, terms, tau)))
        assert prime.s == 1
        op = reconstruct(prime)
        psi = guide_with_overlap(op, chi, rng)
        cfg = SolverConfig(epsilon=epsilon, chi=chi, delta=0.5, policy="tight",
                           cost_cap=1.0)
        with pytest.raises(CostCapExceeded) as info:
            threshold_test(t, prime, psi, cfg, np.random.default_rng(0))
        b = info.value.breakdown
        test = tight_test(t, epsilon, chi, prime.s)
        assert (b["filter"], b["degree"], b["shift"]) == ("chebyshev", 4, None)
        assert info.value.predicted == pytest.approx(4.2e5, rel=0.05)
        with recording() as counters:
            record = eigensolve._threshold_detail(
                t, prime, psi, replace(cfg, cost_cap=None), np.random.default_rng(0))
        assert (record.filter, record.degree, record.shift) == ("chebyshev", 4, None)
        want = oracle.exact_sandwich(psi, dense_chain(test.base(prime), test.r), psi)
        assert abs(record.estimate - want) <= test.margin / 2
        assert want.real >= test.yes_bound * (1 - 1e-9) and record.yes
        assert 0 < counters.leaf_queries <= info.value.predicted
        assert record.to_dict()["filter"] == "chebyshev"


def binomial_tail_at_half(k, p):
    """P(Bin(k, p) >= k/2): the chance that np.median of k batches, each
    wrong with probability p, is wrong (an even k averages the two middle
    batches, so k/2 wrong ones suffice)."""
    return sum(math.comb(k, j) * p ** j * (1 - p) ** (k - j)
               for j in range((k + 1) // 2, k + 1))


class TestDecisionCounts:
    """A tight test draws K = ceil(ln(1/delta) / D(1/2 || 1/9)) batches of
    t = ceil(8/e^2) chains at margin e = (yes - no)/2, and its median lands
    on the wrong side of the midpoint with probability at most delta."""

    def test_wrong_answers_at_both_band_edges_stay_within_delta(self):
        # The ground energy of A' sits exactly at tau (yes) or tau + theta
        # (no), and the guide puts the filtered weight on the bounds: in the
        # yes case chi on the ground state and the rest on the top one, in
        # the no case all on the ground state. delta 0.7 gives K = 1 batch,
        # wrong with probability at most 1/9 (Cantelli); delta 0.25 gives
        # K = 3, wrong at most P(Bin(3, 1/9) >= 2) = 25/729 <= delta.
        divergence = math.log(81 / 32) / 2  # D(1/2 || 1/9)
        runs = wrong = 0
        expected = 0.0  # the sum of the per-run bounds on a wrong answer
        filters = set()
        for seed, t, chi in ((73, 1, 0.5), (92, 2, 0.8)):
            terms = random_pauli_terms(np.random.default_rng(seed), 3, 4)
            tau, theta = t / 4, 1 / 4  # epsilon 1
            test = tight_test(t, 1.0, chi, 1)
            filters.add(test.filter)
            for edge, yes in ((tau, True), (tau + theta, False)):
                prime = shift_rescale(build_decomposition(3, shifted_to(3, terms, edge)))
                assert prime.s == 1
                op = reconstruct(prime)
                assert op.eigenvalues[0] == pytest.approx(edge, abs=1e-12)
                weight = chi if yes else 1.0
                psi = DenseState(weight * op.eigenvectors[:, 0]
                                 + math.sqrt(1 - weight ** 2) * op.eigenvectors[:, -1])
                truth = oracle.exact_sandwich(
                    psi, dense_chain(test.base(prime), test.r), psi).real
                if yes:
                    assert test.yes_bound * (1 - 1e-9) <= truth <= 1.1 * test.yes_bound
                else:
                    assert truth == pytest.approx(test.no_bound, rel=1e-9)
                for delta in (0.7, 0.25):
                    k = math.ceil(math.log(1 / delta) / divergence)
                    per_batch = math.ceil(8 / test.margin ** 2)
                    bound = binomial_tail_at_half(k, 1 / 9)
                    assert bound <= delta
                    for run in range(30):
                        with recording() as counters:
                            estimate = transform.estimate_threshold_test(
                                psi, prime, test, delta, np.random.default_rng(run))
                        assert counters.chain_samples == k * per_batch
                        wrong += (estimate.real >= test.midpoint) is not yes
                        expected += bound
                        runs += 1
        assert filters == {"shifted", "chebyshev"} and runs == 240
        # wrong answers are a sum of independent indicators, each with
        # probability at most its bound: allow 4 standard deviations of a
        # binomial count with that mean
        assert wrong <= expected + 4 * math.sqrt(expected)

    @pytest.mark.parametrize("guide", ["trace", "basis"])
    def test_bounded_batch_is_wrong_within_delta_at_both_band_edges(self, guide):
        # The trace and a basis guide bound every sample by B, so a test
        # draws one batch of t = ceil(2 B^2 ln(1/delta) / e^2) chains, on the
        # wrong side with probability at most delta (Hoeffding). On one
        # qubit, Z + c I has y = 1 at |0> and y* = (c - 1)/(c + 1) at |1>,
        # and c puts y* at y_tau (yes) or y_h (no); the identity alone puts
        # it at y_h = 1. The basis guide |1> (chi 1) weighs f(y*) alone,
        # exactly on the bounds; the trace (chi^2 = 1/2) weighs
        # (f(y*) + f(1))/2, on both bounds for the c = 1 power and on the no
        # bound for the even power at c = tau + theta, whose band maximum is
        # at both ends.
        basis = guide == "basis"
        chi = 1.0 if basis else 2.0 ** -0.5
        runs = wrong = 0
        expected = 0.0
        picks = set()
        for t in ((0, 1) if basis else (0, 3)):
            test = tight_test(t, 1.0, chi, 1, 0.25)
            picks.add((test.r, test.shift))
            tau, theta = t / 4, 1 / 4
            for edge, yes in ((tau, True), (tau + theta, False)):
                y = 2 * edge - 1
                if y == 1:
                    terms = [LocalTerm.from_pauli(1.0, "I")]
                else:
                    c = (1 + y) / (1 - y)
                    terms = Z_TERMS + ([LocalTerm.from_pauli(c, "I")] if c else [])
                prime = shift_rescale(build_decomposition(1, terms))
                f = dense_chain(test.base(prime), test.r)
                truth = (f[1, 1] if basis else np.trace(f) / 2).real
                if yes:
                    assert truth >= test.yes_bound * (1 - 1e-9)
                else:
                    assert truth <= test.no_bound * (1 + 1e-9) + 1e-12
                if basis or not yes or test.shift == 1.0:
                    bound = test.yes_bound if yes else test.no_bound
                    assert truth == pytest.approx(bound, rel=1e-9, abs=1e-12)
                psi = BasisState(1, 2) if basis else None
                for delta in (0.7, 0.25):
                    reps, per_batch = transform.decision_shape(
                        2 * test.margin, delta, transform.sample_bound(test.r, 1))
                    assert reps == 1
                    assert abs(per_batch - 2 * math.log(1 / delta) / test.margin ** 2) <= 1
                    for run in range(30):
                        with recording() as counters:
                            estimate = transform.estimate_threshold_test(
                                psi, prime, test, delta, np.random.default_rng(run))
                        assert counters.chain_samples == per_batch
                        wrong += (estimate.real >= test.midpoint) is not yes
                        expected += delta
                        runs += 1
        assert picks == ({(2, 0.25), (1, 1.0)} if basis else {(6, 0.25), (1, 1.0)})
        assert runs == 240
        assert wrong <= expected + 4 * math.sqrt(expected)


def smallest_separating_power(t, epsilon, chi):
    """(r, margin) of the reference low-pass (c = 1) test: the smallest r
    with chi^2 (1 - tau)^r >= 2 (1 - tau - theta)^r, or None past the cap."""
    tau, theta = t * epsilon / 4, epsilon / 4
    b = max(0.0, 1 - tau - theta)
    for r in range(1, polyfilter.DEGREE_CAP + 1):
        yes, no = chi * chi * (1 - tau) ** r, b ** r
        if yes >= 2 * no:
            return r, (yes - no) / 2
    return None


@settings(max_examples=60, deadline=None)
@given(
    epsilon=st.floats(0.02, 1.0),
    place=st.floats(0.0, 1.0, exclude_max=True),
    chi=st.floats(1e-3, 1.0),
    s=st.integers(1, 16),
    delta=st.floats(1e-3, 0.5),
)
# the c = 1 power separates only at margin 4.4e-168, too small to be counted
@example(epsilon=0.0234375, place=0.9375, chi=0.001953125, s=1, delta=0.5)
# at c = 1 the no ratio taken as (1 + c - 2 tau) - 2 theta rounded twice, to
# 9.999999999926734e-06, below the exact 1 - epsilon
@example(epsilon=0.99999, place=0.75, chi=1.0, s=1, delta=0.5)
def test_shifted_bounds_properties(epsilon, place, chi, s, delta):
    T = math.ceil(4 / epsilon)
    t = min(int(place * T), T - 1)
    tau, theta = t * epsilon / 4, epsilon / 4
    assume(tau + theta <= 1)
    reference = smallest_separating_power(t, epsilon, chi)
    try:
        test = shifted_test(t, epsilon, chi, s)
    except (DegreeOverflowError, ValidationError):
        # the c = 1 power is always a candidate, so nothing it passes is refused
        assert reference is None or reference[1] <= 1e-150
        return
    y_tau, y_h = band_edges(t, epsilon)
    c, r = test.shift, test.r
    assert max(y_h, 0.0) <= c <= 1.0
    assert r % 2 == 0 or c == 1.0
    # no more expensive than the c = 1 test under the preflight's own formula
    if reference is not None:
        rows = SimpleNamespace(s=s)  # all power_cost reads of an operator
        chosen = transform.power_cost(
            rows, r, *transform.decision_shape(2 * test.margin, delta / T))
        try:
            reference_cost = transform.power_cost(
                rows, reference[0], *transform.decision_shape(2 * reference[1], delta / T))
        except ValidationError:
            # ceil(8 / margin^2) of the c = 1 power alone overflows a float,
            # so it costs more than the chosen test's float cost
            reference_cost = math.inf
        assert chosen <= reference_cost * (1 + 1e-9)
    # the yes bound is chi^2 ((c - y_tau)/(1 + c))^r
    assert test.yes_bound == pytest.approx(
        chi * chi * ((c - y_tau) / (1 + c)) ** r, rel=1e-12)
    # the no bound dominates |(c - y)/(1 + c)|^r on the band [y_h, 1]
    ys = np.linspace(y_h, 1.0, 2001)
    assert np.all(np.abs((c - ys) / (1 + c)) ** r <= test.no_bound * (1 + 1e-12))
    assert test.margin > 0


def rounding_move(y_h, m):
    """The bound chebyshev_test's docstring derives on how far rounding the m
    roots to floats moves the log band maximum: -log(1 - e) for
    e = (1 + m^2 eta)^m - 1, eta = 4u/(1 - y_h) + 14u, u = 2^-53."""
    if y_h >= 1:
        return math.inf
    eta = 4 * 2.0 ** -53 / (1 - y_h) + 14 * 2.0 ** -53
    e = math.expm1(m * math.log1p(m * m * eta))
    return -math.log1p(-e) if e < 1 else math.inf


@settings(max_examples=60, deadline=None)
@given(
    epsilon=st.floats(0.02, 1.0),
    place=st.floats(0.0, 1.0, exclude_max=True),
    m=st.integers(1, eigensolve.MAX_ROOTS),
    chi=st.floats(1e-3, 1.0),
)
# band width 2e-5: the float roots' product fell 1.54e-9 short of the closed
# form at the extrema
@example(epsilon=0.99999, place=0.75, m=20, chi=0.5)
# band width 2.2e-16: the float roots rounded onto the band's ends, and the
# product reached about twice the closed form
@example(epsilon=1 - 2.0 ** -53, place=0.75, m=3, chi=0.5)
def test_chebyshev_band_maximum(epsilon, place, m, chi):
    # |prod (c_i - y)| peaks on [y_h, 1] at 2((1 - y_h)/4)^m, reached at the
    # m + 1 extrema of T_m; compared in logarithms, on a dense grid plus the
    # extrema, for the roots as rounded to floats, wherever chebyshev_test
    # accepts m. It refuses m where rounding may move the maximum by 1e-9.
    T = math.ceil(4 / epsilon)
    t = min(int(place * T), T - 1)
    y_tau, y_h = band_edges(t, epsilon)
    assume(y_h < 1)
    if rounding_move(y_h, m) > 1e-9:
        with pytest.raises(ValidationError, match="rounding"):
            chebyshev_test(t, epsilon, chi, m)
        return
    test = chebyshev_test(t, epsilon, chi, m)
    c = np.array(test.shifts)
    assert np.all((y_h <= c) & (c <= 1))
    extrema = (1 + y_h) / 2 + (1 - y_h) / 2 * np.cos(np.arange(m + 1) * np.pi / m)
    ys = np.concatenate((np.linspace(y_h, 1.0, 4001), extrema))
    with np.errstate(divide="ignore"):
        logs = np.log(np.abs(c[None, :] - ys[:, None])).sum(axis=1)
    closed = math.log(2) + m * math.log((1 - y_h) / 4)
    assert logs.max() <= closed + 1e-9
    assert logs[-(m + 1):].min() >= closed - 1e-9
    # the recorded bounds are the closed forms
    scale = np.prod(1 + np.abs(c))
    assert test.no_bound == pytest.approx(
        4 * ((1 - y_h) / 4) ** (2 * m) / scale ** 2, rel=1e-12, abs=1e-300)
    assert test.yes_bound == pytest.approx(
        chi * chi * np.prod((c - y_tau) / (1 + np.abs(c))) ** 2, rel=1e-12, abs=1e-300)


@settings(max_examples=100, deadline=None)
@given(
    epsilon=st.floats(1e-3, 1.0),
    place=st.floats(0.0, 1.0, exclude_max=True),
    chi=st.floats(1e-4, 1.0),
    half=st.integers(1, polyfilter.DEGREE_CAP // 2),
)
@example(epsilon=0.3, place=0.0, chi=0.5, half=3)  # t = 0: rho = 0
@example(epsilon=0.00128, place=0.9999, chi=1.0, half=1)  # tau + theta > 1 by an ulp
def test_derived_shift_maximizes_the_gap(epsilon, place, chi, half):
    # g(c) = yes - no of the shifted power r = 2 half peaks at the derived
    # c_r over a 2,001-point grid of [max(y_h, 0), 1], up to a relative 1e-12
    # of the bounds
    T = math.ceil(4 / epsilon)
    t = min(int(place * T), T - 1)
    r = 2 * half
    y_h = band_edges(t, epsilon)[1]
    c_r = eigensolve._best_shifts(t, epsilon, chi)[r - 1]
    lo = min(max(y_h, 0.0), 1.0)
    assert lo <= c_r <= 1.0
    yes, no = shifted_bounds(np.linspace(lo, 1.0, 2001), r, t, epsilon, chi)
    best_yes, best_no = shifted_bounds(c_r, r, t, epsilon, chi)
    assert np.all(best_yes - best_no >= yes - no - 1e-12 * (yes + no + best_yes + best_no))


@settings(max_examples=60, deadline=None)
@given(
    epsilon=st.floats(0.02, 1.0),
    place=st.floats(0.0, 1.0, exclude_max=True),
    chi=st.floats(1e-3, 1.0),
    s=st.integers(1, 16),
    bounded=st.booleans(),
)
def test_tight_test_is_the_cheapest_under_the_preflight(epsilon, place, chi, s,
                                                        bounded):
    # power_cost, the cost the cap checks, of tight_test's pick is at
    # most that of every c = 1 power, every even power at its derived shift
    # and every accepted Chebyshev m >= 2, for the median's shape and for
    # one batch of bounded samples. The slack: one chain on each side,
    # since the choice rounds the counts up in logarithms
    T = math.ceil(4 / epsilon)
    t = min(int(place * T), T - 1)
    delta = 0.05 / T
    try:
        pick = tight_test(t, epsilon, chi, s, delta if bounded else None)
    except (DegreeOverflowError, ValidationError):
        return
    rows = SimpleNamespace(s=s)
    reps = 1 if bounded else transform.decision_shape(1.0, delta)[0]

    def preflight(r, margin):
        bound = float(transform.sample_bound(r, s)) if bounded else None
        try:
            return transform.power_cost(
                rows, r, *transform.decision_shape(2 * margin, delta, bound))
        except ValidationError:  # the count overflows a float
            return math.inf

    def chain(r):
        return reps * max(r, 1) * float(s) ** r

    tau, theta = t * epsilon / 4, epsilon / 4
    rivals = []
    for r in range(1, polyfilter.DEGREE_CAP + 1):
        margin = (chi * chi * (1 - tau) ** r - max(0.0, 1 - tau - theta) ** r) / 2
        if margin > 1e-150:
            rivals.append((r, preflight(r, margin)))
    shifts = eigensolve._best_shifts(t, epsilon, chi)
    for r in range(2, polyfilter.DEGREE_CAP + 1, 2):
        yes, no = shifted_bounds(shifts[r - 1], r, t, epsilon, chi)
        if (yes - no) / 2 > 1e-150:
            rivals.append((r, preflight(r, (yes - no) / 2)))
    if band_edges(t, epsilon)[1] < 1:
        for m in range(2, eigensolve.MAX_ROOTS + 1):
            try:
                product = chebyshev_test(t, epsilon, chi, m)
            except ValidationError:
                continue
            if product.margin > 1e-150:
                rivals.append((product.r, preflight(product.r, product.margin)))
    chosen = preflight(pick.r, pick.margin)
    for r, cost in rivals:
        assert chosen <= cost + chain(pick.r) + chain(r)
