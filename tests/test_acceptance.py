"""End-to-end acceptance gates.

Each gate prints a single PASS/FAIL line on the terminal (bypassing pytest's
capture) so a full run yields one verdict per gate. Gate 7 exercises the fully
stochastic guided solve at its stated parameter point: the tight scan's
shifted tests, each one sampled power of (c - y)/(1 + c) with y = 2A' - I,
on 100 random instances.
"""

import json
import math
import time

import numpy as np
import pytest

from eigensampler import (
    BasisState,
    CostCapExceeded,
    Counters,
    DenseState,
    DenseVector,
    LocalTerm,
    MatrixChain,
    MaxEntState,
    SolverConfig,
    build_decomposition,
    build_rectangle_polynomial,
    chain_entry,
    coefficient_l1,
    estimate_inner_product,
    estimate_smallest_eigenvalue,
    exact_ground_energy,
    exact_overlap,
    reconstruct,
    solve_guided,
    solve_unguided,
)
from eigensampler.cli import main as cli_main
from eigensampler.eigensolve import doubled_terms
from eigensampler.oracle import ground_vector
from eigensampler.polyfilter import band_report
from eigensampler.state_access import sample_ratios
from eigensampler.transform import ChainSampler

from helpers import (
    all_rows_s_handle,
    random_normalized_decomposition,
    random_pauli_terms,
    random_sparse_handle,
    random_state_vector,
)


def report(capsys, gate, ok, detail):
    with capsys.disabled():
        verdict = "PASS" if ok else "FAIL"
        print(f"[gate {gate:02d}] {verdict}  {detail}", flush=True)


def single_sample_values(decomp, psi_v, r, count, seed):
    """Raw single-draw power-estimator values, built from the public pieces."""
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


def test_gate_01_chain_entries_match_dense(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        dim = int(rng.integers(2, 65))
        r = int(rng.integers(1, 7))
        handles = []
        acc = None
        phi_v = random_state_vector(rng, dim)
        acc = phi_v.copy()
        for _ in range(r):
            s = int(rng.integers(1, 5))
            handle, dense = random_sparse_handle(rng, dim, s)
            handles.append(handle)
            acc = dense @ acc
        ell = int(np.argmax(np.abs(acc)))
        est = chain_entry(ell, MatrixChain(handles), DenseState(phi_v))
        worst = max(worst, abs(est - acc[ell]) / abs(acc[ell]))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 10.0
    report(capsys, 1, ok,
           f"100 random chains, max relative error {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-9
    assert elapsed < 10.0


def test_gate_02_leaf_count_and_recursion_depth(capsys):
    rng = np.random.default_rng(202)
    checked = []
    for s, r in ((1, 6), (2, 4), (3, 3), (4, 2)):
        dim = 8
        handles = [all_rows_s_handle(rng, dim, s)[0] for _ in range(r)]
        phi = DenseState(random_state_vector(rng, dim))
        counters = Counters()
        chain_entry(3, MatrixChain(handles), phi, counters=counters)
        assert counters.leaf_queries == s**r
        assert counters.max_depth == r
        checked.append(f"s={s},r={r}")
    report(capsys, 2, True,
           "leaf count = s^r and depth = r on " + "; ".join(checked))


def test_gate_03_inner_product_calibration(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(303)
    runs = 500
    failures = 0
    for k in range(runs):
        dim = int(rng.integers(2, 65))
        psi_v = random_state_vector(rng, dim)
        w_v = random_state_vector(rng, dim) * float(rng.uniform(0.5, 2.0))
        w_norm = float(np.linalg.norm(w_v))
        true = np.vdot(psi_v, w_v)
        est = estimate_inner_product(
            DenseState(psi_v), DenseVector(w_v), w_norm, 0.1, 0.05,
            np.random.default_rng(9000 + k),
        )
        if abs(est - true) > 0.1 * w_norm:
            failures += 1
    worst_m2 = 0.0
    for k in range(5):
        psi_v = random_state_vector(rng, 64)
        w_v = random_state_vector(rng, 64) * float(rng.uniform(0.5, 2.0))
        xs = sample_ratios(
            DenseState(psi_v), DenseVector(w_v), 200_000,
            np.random.default_rng(7000 + k),
        )
        m2 = float(np.mean(np.abs(xs) ** 2)) / float(np.linalg.norm(w_v) ** 2)
        worst_m2 = max(worst_m2, m2)
    elapsed = time.perf_counter() - t0
    ok = failures <= int(0.08 * runs) and worst_m2 <= 1.05 and elapsed < 30.0
    report(capsys, 3, ok,
           f"{failures}/{runs} misses (allowed {int(0.08 * runs)}), "
           f"worst second moment {worst_m2:.3f}x bound, {elapsed:.1f}s")
    assert failures <= int(0.08 * runs)
    assert worst_m2 <= 1.05
    assert elapsed < 30.0


def test_gate_04_rectangle_certification(capsys):
    t0 = time.perf_counter()
    combos = 0
    max_degree = 0
    for tau in (0.0, 0.25, 0.5):
        for theta in (0.125, 0.25):
            for xi in (1 / 12, 0.05):
                poly = build_rectangle_polynomial(tau, theta, xi)
                bands = band_report(poly, grid_points=100001)
                assert bands["low_min"] >= 1 - xi - 1e-9
                assert bands["high_max"] <= xi + 1e-9
                assert bands["max_abs"] <= 1 + 1e-9
                assert coefficient_l1(poly) <= 4.0**poly.degree
                combos += 1
                max_degree = max(max_degree, poly.degree)
    elapsed = time.perf_counter() - t0
    ok = combos == 12 and elapsed < 10.0
    report(capsys, 4, ok,
           f"{combos} band profiles certified on 1e5-point grids "
           f"(max degree {max_degree}), {elapsed:.1f}s")
    assert combos == 12
    assert elapsed < 10.0


def test_gate_05_power_estimator_statistics(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(505)
    worst_pull = 0.0
    worst_m2 = 0.0
    for k in range(20):
        decomp = random_normalized_decomposition(rng, 2, 3)
        r = 1 + k % 3
        psi_v = random_state_vector(rng, 4)
        dense = reconstruct(decomp).matrix
        true = complex(np.vdot(psi_v, np.linalg.matrix_power(dense, r) @ psi_v))
        xs = single_sample_values(decomp, psi_v, r, 100_000, 6000 + k)
        se = float(xs.std()) / math.sqrt(len(xs))
        pull = abs(xs.mean() - true) / max(se, 1e-12)
        m2 = float(np.mean(np.abs(xs) ** 2))
        worst_pull = max(worst_pull, pull)
        worst_m2 = max(worst_m2, m2)
        assert abs(xs.mean() - true) <= max(4.0 * se, 1e-9)
        assert m2 <= 1.05
    elapsed = time.perf_counter() - t0
    ok = elapsed < 60.0
    report(capsys, 5, ok,
           f"20 instances x 1e5 draws: worst mean pull {worst_pull:.2f} SE, "
           f"worst second moment {worst_m2:.3f}, {elapsed:.1f}s")
    assert elapsed < 60.0


def test_gate_06_oracle_exact_claim_suite(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(606)
    case_a = case_b = 0
    for k in range(100):
        eps = 0.5 if k < 50 else 0.25
        n = int(rng.integers(1, 4))
        decomp = random_normalized_decomposition(rng, n, 3)
        op = reconstruct(decomp)
        lam = float(op.eigenvalues[0])
        psi = DenseState(ground_vector(op))
        cfg = SolverConfig(epsilon=eps, chi=1.0, delta=0.05,
                           policy="oracle-exact", seed=k)
        est = estimate_smallest_eigenvalue(
            decomp, psi, cfg, np.random.default_rng(k)
        )
        assert abs(est.e_star - lam) <= eps * decomp.kappa + 1e-9
        lam_prime = (1 + lam / decomp.kappa) / 2
        for rec in est.transcript:
            low_edge = rec.t * eps / 4
            high_edge = (rec.t + 1) * eps / 4
            if lam_prime <= low_edge - 1e-9:
                case_a += 1
                assert rec.estimate.real >= 11 / 12 - 1e-9
            elif lam_prime >= high_edge + 1e-9:
                case_b += 1
                assert abs(rec.estimate) <= 1 / 12 + 1e-9
    elapsed = time.perf_counter() - t0
    ok = case_a > 0 and case_b > 0 and elapsed < 60.0
    report(capsys, 6, ok,
           f"100/100 estimates within eps*kappa; filter sandwich checked on "
           f"{case_a} low-band and {case_b} high-band records, {elapsed:.1f}s")
    assert case_a > 0 and case_b > 0
    assert elapsed < 60.0


@pytest.mark.slow
def test_gate_07_stochastic_guided_tight(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(707)
    cap = 1e12
    successes = 0
    aborted = 0
    predicted_floor = math.inf
    for k in range(100):
        decomp = random_normalized_decomposition(rng, 4, 4)
        op = reconstruct(decomp)
        lam = float(op.eigenvalues[0])
        psi = DenseState(ground_vector(op))
        cfg = SolverConfig(epsilon=0.3, chi=1.0, delta=0.05, policy="tight",
                           seed=k, cost_cap=cap)
        try:
            est = estimate_smallest_eigenvalue(
                decomp, psi, cfg, np.random.default_rng(k)
            )
        except CostCapExceeded as exc:
            aborted += 1
            predicted_floor = min(predicted_floor, exc.predicted)
            continue
        if abs(est.e_star - lam) <= 0.3 * decomp.kappa:
            successes += 1
    elapsed = time.perf_counter() - t0
    frac = successes / 100
    ok = frac >= 0.92 and elapsed < 600.0
    report(capsys, 7, ok,
           f"success fraction {frac:.2f} (needed 0.92); {aborted}/100 stopped "
           f"at the cost preflight, cheapest predicted {predicted_floor:.1e} "
           f"leaf ops vs cap {cap:.0e}, {elapsed:.1f}s")
    if not ok:
        pytest.fail(
            f"success fraction {frac:.2f} (needed 0.92) with {aborted}/100 "
            f"instances stopped at the cost preflight (cheapest predicted "
            f"{predicted_floor:.1e} leaf ops against the {cap:.0e} cap), "
            f"in {elapsed:.1f}s (limit 600s)"
        )


def test_gate_08_unguided_doubling(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(808)
    worst_margin = math.inf
    for k in range(20):
        n = int(rng.integers(1, 4))
        terms = random_pauli_terms(rng, n, 3)
        decomp = build_decomposition(n, terms)
        lam = exact_ground_energy(reconstruct(decomp))
        cfg = SolverConfig(epsilon=0.5, policy="oracle-exact", seed=k)
        est = solve_unguided((n, terms), cfg)
        assert abs(est.e_star - lam) <= 0.5 * decomp.kappa + 1e-9
        assert est.chi == pytest.approx(2 ** (-n / 2))
        doubled = reconstruct(build_decomposition(2 * n, doubled_terms(terms, n)))
        overlap = exact_overlap(doubled, MaxEntState(n), 0.0)
        worst_margin = min(worst_margin, overlap - 2 ** (-n / 2))
        assert overlap >= 2 ** (-n / 2) - 1e-9
    elapsed = time.perf_counter() - t0
    ok = elapsed < 60.0
    report(capsys, 8, ok,
           f"20/20 unguided solves within eps*kappa; entangled-state overlap "
           f"exceeds 2^(-n/2) with slack >= {worst_margin:.2e}, {elapsed:.1f}s")
    assert elapsed < 60.0


def test_gate_09_strict_cost_honesty(capsys, tmp_path):
    with pytest.raises(CostCapExceeded) as info:
        solve_guided(
            (1, [LocalTerm.from_pauli(1.0, "Z")]),
            BasisState(1, 2),
            SolverConfig(epsilon=0.25, chi=1.0, policy="strict", cost_cap=1e12),
        )
    assert info.value.predicted > 1e12

    path = tmp_path / "z.txt"
    path.write_text("n=1\n1.0 Z\n")
    code = cli_main([
        "estimate", "--hamiltonian", str(path), "--state", "basis:1",
        "--epsilon", "0.25", "--chi", "1.0", "--policy", "strict",
        "--cost-cap", "1e12", "--json",
    ])
    captured = capsys.readouterr()
    assert code == 2
    err = json.loads(captured.err)["error"]
    assert err["type"] == "CostCapExceeded"
    assert err["cap"] == 1e12
    assert err["predicted"] > err["cap"]
    assert "per_power" in err["breakdown"]
    report(capsys, 9, True,
           f"strict preflight predicts {info.value.predicted:.1e} ops > 1e12 "
           f"cap; exit code 2 with cost report")


def test_gate_10_reproducibility(capsys, tmp_path):
    instances = [
        ("z.txt", "n=1\n1.0 Z\n", "basis:1"),
        ("pair.txt", "n=2\n0.5 XZ\n-0.25 ZI\n0.3 IX\n", "basis:0"),
    ]
    for name, text, state in instances:
        path = tmp_path / name
        path.write_text(text)
        argv = [
            "estimate", "--hamiltonian", str(path), "--state", state,
            "--policy", "oracle-exact", "--seed", "77", "--transcript", "--json",
        ]
        code1 = cli_main(argv)
        out1 = capsys.readouterr().out
        code2 = cli_main(argv)
        out2 = capsys.readouterr().out
        assert code1 == code2 == 0
        assert out1 == out2
    report(capsys, 10, True,
           "repeated seeded runs are byte-identical on 2 instances")
