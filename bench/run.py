"""Benchmark of the eigensampler package: one command, four workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The command generates the workload's inputs from the seed (Hamiltonian text
files and guiding-state files, plus the exact dense reference), runs the
measured process bench/measure.py on them, checks every output against the
reference, and prints one JSON line with the end-to-end metrics (--trace 0)
or the per-layer metrics (--trace 1). Inputs, results and trace files go to
bench/out/. See bench/README.md for the workloads and the metrics.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

# One BLAS thread everywhere: the dense 10-qubit oracle otherwise takes every
# core, and its timings then depend on what else the machine runs.
BLAS_ENV = {name: "1" for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(BLAS_ENV)

import numpy as np  # noqa: E402

import reference as ref  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEADLINE_S = 170.0

# Unguided scan configurations: (qubits, Pauli terms, epsilon, stopping test).
UNGUIDED_CONFIGS = (
    (3, 9, 0.5, 2), (3, 9, 0.42, 2), (3, 9, 0.35, 2),
    (4, 8, 0.5, 2), (4, 8, 0.42, 2), (4, 8, 0.35, 2),
)

WORKLOADS = ("oracle-guided", "oracle-unguided", "sampled-pauli", "sampled-block")


def make_inputs(workload, seed, out_dir):
    """Write the workload's input files; return (plan, reference data)."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    plan = {"workload": workload, "seed": seed, "instances": []}
    refs = []

    def add(n, terms, guide, epsilon, extra):
        path = os.path.join(out_dir, f"h{len(refs)}.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(ref.hamiltonian_text(n, terms))
        plan["instances"].append({"hamiltonian": path, "guide": guide, "epsilon": epsilon})
        refs.append(dict(extra, n=n, terms=terms, epsilon=epsilon, kappa=ref.kappa(terms)))

    if workload == "oracle-guided":
        # Stops at test 2 of 16: three dense rebuilds per solve.
        plan.update(kind="guided", calls_per_round=1)
        for _ in range(2):
            terms = _draw(rng, lambda: ref.ising_chain(rng, 10, 0.6, 2),
                          lambda s: ref.in_window(s, 0.25, 2, 0.0), 10)
            evals, evecs = np.linalg.eigh(ref.dense_hamiltonian(10, terms))
            path = os.path.join(out_dir, f"guide{len(refs)}.bin")
            ref.write_dense_state(path, evecs[:, 0])
            add(10, terms, f"dense:{path}", 0.25, {"ground": float(evals[0])})
    elif workload == "oracle-unguided":
        plan.update(kind="unguided", calls_per_round=len(UNGUIDED_CONFIGS))
        for n, m, epsilon, stop in UNGUIDED_CONFIGS:
            terms = _draw(rng, lambda: ref.random_pauli_hamiltonian(rng, n, m),
                          lambda s: ref.in_window(s, epsilon, stop, 0.5), n)
            ground = float(np.linalg.eigvalsh(ref.dense_hamiltonian(n, terms))[0])
            add(n, terms, "maxent", epsilon, {"ground": ground})
    elif workload == "sampled-pauli":
        plan.update(kind="transform", calls_per_round=1, predict_epsilon=1.0,
                    transform={"tau": 0.5, "theta": 0.5, "xi": 0.25, "eta": 0.1,
                               "delta": 0.05, "cost_cap": 1e9})
        terms = ref.random_pauli_hamiltonian(rng, 10, 30)
        vector = ref.random_unit_vector(rng, 2**10)
        path = os.path.join(out_dir, "guide0.bin")
        ref.write_dense_state(path, vector)
        add(10, terms, f"dense:{path}", 1.0, {"vector": vector})
    elif workload == "sampled-block":
        plan.update(kind="transform", calls_per_round=1, predict_epsilon=1.0,
                    transform={"tau": 0.5, "theta": 0.5, "xi": 0.5, "eta": 1.0,
                               "delta": 0.5, "cost_cap": 1e9})
        terms = ref.random_block_hamiltonian(rng, 8, 10)
        pairs = ref.random_pairs(rng, 8)
        add(8, terms, ref.product_spec(pairs), 1.0, {"vector": ref.product_vector(pairs)})
    return plan, refs


def _draw(rng, generate, accept, n, tries=2000):
    """First generated Hamiltonian whose shifted spectrum passes `accept`."""
    for _ in range(tries):
        terms = generate()
        if accept(ref.shifted_spectrum(n, terms, rng)):
            return terms
    raise RuntimeError(f"no instance accepted in {tries} draws")


def check(plan, refs, result):
    """Compare every output of the measured process with the reference."""
    problems = []
    if plan["kind"] == "transform":
        eta = plan["transform"]["eta"]
        weights = [ref.filter_weight(ref.dense_hamiltonian(r["n"], r["terms"]), r["kappa"],
                                     r["vector"], result["filter_cheb"]) for r in refs]
    for i, call in enumerate(result["calls"]):
        r = refs[call["instance"]]
        if plan["kind"] == "transform":
            error = abs(complex(*call["estimate"]) - weights[call["instance"]])
            if not error <= eta:
                problems.append(f"call {i}: estimate off by {error:.3g} > eta {eta}")
            if not 0.0 < call["predicted"] < math.inf:
                problems.append(f"call {i}: predicted cost {call['predicted']}")
            if not call["leaf_ops"] <= call["predicted"]:
                problems.append(f"call {i}: {call['leaf_ops']} leaf ops exceed "
                                f"the prediction {call['predicted']}")
            continue
        bound = r["epsilon"] * r["kappa"]
        if not abs(call["e_star"] - r["ground"]) <= bound * (1 + 1e-12):
            problems.append(f"call {i}: E* {call['e_star']} vs ground {r['ground']}")
        if call["no_yes_found"]:
            problems.append(f"call {i}: no test answered yes")
        if not math.isclose(call["kappa"], r["kappa"], rel_tol=1e-9):
            problems.append(f"call {i}: kappa {call['kappa']} vs {r['kappa']}")
        if plan["kind"] == "unguided" and not math.isclose(
                call["chi"], 2.0 ** (-r["n"] / 2.0), rel_tol=1e-12):
            problems.append(f"call {i}: chi {call['chi']} for n={r['n']}")
    for value in result["predicted"]:
        if not 0.0 < value < math.inf:
            problems.append(f"predicted leaf ops {value}")
    return problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    if not os.path.isfile(os.path.join(ROOT, "src", "eigensampler", "__init__.py")):
        print(f"bench: no package source under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    out_dir = os.path.join(HERE, "out", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    plan, refs = make_inputs(args.workload, args.seed, out_dir)
    plan.update(seconds=args.seconds, trace=bool(args.trace),
                result_path=os.path.join(out_dir, "result.json"),
                spans_path=os.path.join(out_dir, "spans.jsonl"))
    plan_path = os.path.join(out_dir, "plan.json")
    with open(plan_path, "w", encoding="utf-8") as fh:
        json.dump(plan, fh, indent=1)

    spawned = time.monotonic()
    child = subprocess.Popen([sys.executable, os.path.join(HERE, "measure.py"), plan_path],
                             stdout=sys.stderr)
    try:
        code = child.wait(timeout=max(1.0, DEADLINE_S - (spawned - started)))
    except subprocess.TimeoutExpired:
        print("bench: measured process ran past the deadline", file=sys.stderr)
        return 1
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
    if code != 0:
        print(f"bench: measured process exited with {code}", file=sys.stderr)
        return 1
    with open(plan["result_path"], encoding="utf-8") as fh:
        result = json.load(fh)

    problems = check(plan, refs, result)
    for line in problems:
        print(f"bench: check failed: {line}", file=sys.stderr)
    if args.trace:
        layers = result["layers"]
        with open(os.path.join(out_dir, "layers.json"), "w", encoding="utf-8") as fh:
            json.dump(layers, fh, indent=1, sort_keys=True)
        metrics = {name: {"value": value, "unit": LAYER_UNITS[name]}
                   for name, value in layers.items()}
    else:
        # The mean over the whole run, not a median of calls: the machine's
        # speed moves in phases of 10-20 s, and a median of calls jumps to
        # whichever phase covered most of the run.
        solve_s = sum(r["seconds"] for r in result["rounds"]) / max(1, len(result["calls"]))
        metrics = {
            "setup_s": {"value": result["setup_end"] - spawned, "unit": "s"},
            "solve_s": {"value": solve_s, "unit": "s"},
            "predicted_leaf_ops": {"value": statistics.fmean(result["predicted"]),
                                   "unit": "leaf_ops"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps({
        "correct": not problems,
        "attempted": len(result["calls"]) + result["failed"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


LAYER_UNITS = {
    "hamiltonian.load_s": "s",
    "hamiltonian.decompose_s": "s",
    "state_access.build_s": "s",
    "state_access.samples_per_s": "1/s",
    "state_access.query_s": "s",
    "polyfilter.build_s": "s",
    "polyfilter.builds": "count",
    "polyfilter.max_degree": "count",
    "polyfilter.max_coeff_l1": "ratio",
    "oracle.sandwich_s": "s",
    "oracle.reconstruct_s": "s",
    "oracle.reconstruct_calls": "count",
    "eigensolve.tests_run": "count",
    "eigensolve.self_s": "s",
    "eigensolve.max_test_predicted_leaf_ops": "leaf_ops",
    "transform.power_s": "s",
    "transform.chains": "count",
    "transform.leaf_ops": "leaf_ops",
    "transform.leaf_ops_per_s": "leaf_ops/s",
    "transform.predicted_leaf_ops": "leaf_ops",
    "transform.actual_over_predicted": "ratio",
    "imm.chain_entry_calls": "count",
    "imm.chain_entry_s": "s",
    "trace.overhead_s": "s",
}


if __name__ == "__main__":
    sys.exit(main())
