"""Measured process of the benchmark: set-up, timed calls, cost prediction.

Run by run.py as `python3 bench/measure.py PLAN.json`, in a fresh process so
that its set-up is cold and its peak memory is the program's own. It reads
the plan that run.py wrote, imports the package from the checkout's `src/`,
and writes everything run.py needs to check and report into the plan's
result file. It does no checking itself.
"""

import json
import os
import resource
import statistics
import sys
import time
from contextlib import nullcontext

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from tracing import Tracer  # noqa: E402


def main(plan_path):
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    tracer = Tracer() if plan["trace"] else None
    span = tracer.span if tracer else (lambda name: nullcontext())

    with span("setup"):
        import eigensampler as es
        from eigensampler import eigensolve, oracle, polyfilter, transform

        instances = []
        for spec in plan["instances"]:
            with span("hamiltonian.load"):
                n, terms = es.load_hamiltonian(spec["hamiltonian"])
            with span("hamiltonian.decompose"):
                if plan["kind"] == "unguided":
                    decomp = es.build_decomposition(2 * n, eigensolve.doubled_terms(terms, n))
                else:
                    decomp = es.build_decomposition(n, terms)
                prime = es.shift_rescale(decomp)
            with span("state_access.build"):
                guide = es.make_state(spec["guide"], n)
            instances.append({"n": n, "terms": terms, "prime": prime,
                              "guide": guide, "epsilon": spec["epsilon"]})
        if plan["kind"] == "transform":
            tf = plan["transform"]
            with span("polyfilter.build"):
                poly = es.build_rectangle_polynomial(tf["tau"], tf["theta"], tf["xi"])
    setup_end = time.monotonic()

    if plan["kind"] == "transform":
        call = _transform_call(es, plan, instances, poly)
    else:
        call = _solve_call(es, plan, instances, polyfilter)

    if tracer:
        _register_patches(tracer, instances, eigensolve, oracle, polyfilter, transform)

    # Whole rounds only; a round is not started if it would end past the
    # deadline, so a run stays within its seconds (after its first round).
    calls, rounds, failed = [], [], 0
    per_round = plan["calls_per_round"]
    min_rounds = 2 if tracer else 1
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.install()
        round_start = time.perf_counter()
        seconds = 0.0
        for _ in range(per_round):
            index = len(calls) + failed
            try:
                outcome, elapsed = call(index, tracer if traced else None)
            except es.EigensamplerError as exc:
                failed += 1
                print(f"call {index} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
                continue
            seconds += elapsed
            calls.append(outcome)
        if traced:
            tracer.uninstall()
        rounds.append({"seconds": seconds, "traced": traced,
                       "wall": time.perf_counter() - round_start})
        typical = statistics.median(r["wall"] for r in rounds)
        if (len(rounds) >= min_rounds
                and time.perf_counter() - start + typical > plan["seconds"]):
            break

    predicted = [_predicted_pass(es, plan, inst) for inst in instances]
    result = {
        "setup_end": setup_end,
        "calls": calls,
        "failed": failed,
        "rounds": rounds,
        "predicted": [p["total"] for p in predicted],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if plan["kind"] == "transform":
        result["filter_cheb"] = [float(c) for c in poly.cheb]
    if tracer:
        tracer.write_jsonl(plan["spans_path"])
        result["layers"] = _layer_metrics(tracer, rounds, calls, per_round)
        result["layers"].update({
            "polyfilter.max_degree": max(p["max_degree"] for p in predicted),
            "polyfilter.max_coeff_l1": max(p["max_coeff_l1"] for p in predicted),
            "eigensolve.max_test_predicted_leaf_ops": max(p["max_test"] for p in predicted),
        })
    with open(plan["result_path"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


def _solve_call(es, plan, instances, polyfilter):
    """One timed solve; the filter cache is emptied first, as in a fresh CLI run."""
    unguided = plan["kind"] == "unguided"

    def call(index, tracer):
        inst = instances[index % len(instances)]
        cfg = es.SolverConfig(epsilon=inst["epsilon"], policy="oracle-exact",
                              seed=plan["seed"])
        hamiltonian = (inst["n"], inst["terms"])
        polyfilter.build_rectangle_polynomial.cache_clear()
        span = tracer.span("eigensolve.solve") if tracer else nullcontext()
        with span:
            t0 = time.perf_counter()
            if unguided:
                est = es.solve_unguided(hamiltonian, cfg)
            else:
                est = es.solve_guided(hamiltonian, inst["guide"], cfg)
            elapsed = time.perf_counter() - t0
        return {
            "instance": index % len(instances),
            "e_star": est.e_star,
            "kappa": est.kappa,
            "chi": est.chi,
            "t_star": est.t_star,
            "tests": len(est.transcript),
            "no_yes_found": est.no_yes_found,
        }, elapsed

    return call


def _transform_call(es, plan, instances, poly):
    tf = plan["transform"]

    def call(index, tracer):
        inst = instances[index % len(instances)]
        counters = es.Counters()
        rng = es.make_generator([plan["seed"], index])
        span = tracer.span("transform.polynomial") if tracer else nullcontext()
        with span:
            t0 = time.perf_counter()
            value = es.estimate_polynomial_transform(
                inst["guide"], inst["guide"], inst["prime"], poly, tf["eta"],
                tf["delta"], rng, policy="tight", cost_cap=tf["cost_cap"],
                counters=counters,
            )
            elapsed = time.perf_counter() - t0
        predicted, _ = es.predict_cost(inst["prime"], poly, tf["eta"], tf["delta"],
                                       policy="tight")
        return {
            "instance": index % len(instances),
            "estimate": [value.real, value.imag],
            "leaf_ops": counters.leaf_queries,
            "chains": counters.chain_samples,
            "predicted": predicted,
        }, elapsed

    return call


def _predicted_pass(es, plan, inst):
    """Leaf ops a tight sampled solve of this instance would be predicted to need.

    Each threshold test t in [0, T) is run under a unit cost cap, so it stops
    at its preflight and the CostCapExceeded carries the prediction.
    """
    epsilon = plan.get("predict_epsilon", inst["epsilon"])
    chi = 2.0 ** (-inst["n"] / 2.0) if plan["kind"] == "unguided" else 1.0
    cfg = es.SolverConfig(epsilon=epsilon, chi=chi, policy="tight", cost_cap=1.0)
    eta = chi * chi / 4.0
    out = {"total": 0.0, "max_test": 0.0, "max_degree": 0, "max_coeff_l1": 0.0}
    for t in range(cfg.interval_count):
        try:
            es.test_threshold(t, inst["prime"], inst["guide"], cfg, es.make_generator(0))
        except es.CostCapExceeded as exc:
            out["total"] += exc.predicted
            out["max_test"] = max(out["max_test"], exc.predicted)
            out["max_degree"] = max(out["max_degree"], exc.breakdown["degree"])
            # tight policy: err_per_power = eta / (monomial coefficient mass)
            mass = eta / exc.breakdown["err_per_power"]
            out["max_coeff_l1"] = max(out["max_coeff_l1"], mass)
        else:
            raise RuntimeError(f"test {t} ran past a unit cost cap")
    return out


def _register_patches(tracer, instances, eigensolve, oracle, polyfilter, transform):
    wrap, agg = tracer.wrap, tracer.wrap_aggregate
    tracer.patch(eigensolve, "build_decomposition", lambda f: wrap("hamiltonian.decompose", f))
    tracer.patch(eigensolve, "shift_rescale", lambda f: wrap("hamiltonian.decompose", f))
    tracer.patch(eigensolve, "make_state", lambda f: wrap("state_access.build", f))
    tracer.patch(eigensolve, "build_rectangle_polynomial", lambda f: wrap("polyfilter.build", f))
    tracer.patch(eigensolve, "exact_sandwich", lambda f: wrap("oracle.sandwich", f))
    tracer.patch(oracle, "reconstruct", lambda f: wrap("oracle.reconstruct", f))
    tracer.patch(transform, "estimate_power", lambda f: wrap("transform.power", f))
    tracer.patch(transform, "chain_entry", lambda f: agg("imm.chain_entry", f))
    for guide in {id(inst["guide"]): inst["guide"] for inst in instances}.values():
        tracer.patch(guide, "sample_many", lambda f: tracer.wrap_sampler("state_access.sample", f))
        tracer.patch(guide, "query", lambda f: agg("state_access.query", f))
        tracer.patch(guide, "query_many", lambda f: agg("state_access.query", f))


def _layer_metrics(tracer, rounds, calls, per_round):
    """Per-layer figures; times and counts are per timed call of a traced round."""
    setup = tracer.under(tracer.roots("setup"))
    traced_calls = tracer.roots("eigensolve.solve") + tracer.roots("transform.polynomial")
    inside = tracer.under(traced_calls)
    ncalls = max(1, len(traced_calls))

    def total(table, name, field=0):
        return table.get(name, [0.0, 0, 0])[field]

    def per_call(name, field=0):
        return total(inside, name, field) / ncalls

    sample_s = total(inside, "state_access.sample")
    samples = total(inside, "state_access.sample", 2)
    power_s = total(inside, "transform.power")

    def mean(key):
        values = [c[key] for c in calls if key in c]
        return statistics.fmean(values) if values else 0.0

    leaf_ops = mean("leaf_ops")
    predicted = mean("predicted")

    # Round 0 is untraced and also pays the process's first-touch costs; it
    # is left out once later rounds hold both kinds.
    compared = rounds[1:] if len(rounds) >= 3 else rounds

    def mean_call(traced):
        chosen = [r["seconds"] / per_round for r in compared if r["traced"] == traced]
        return statistics.fmean(chosen)

    return {
        "hamiltonian.load_s": total(setup, "hamiltonian.load"),
        "hamiltonian.decompose_s": total(setup, "hamiltonian.decompose"),
        "state_access.build_s": total(setup, "state_access.build"),
        "state_access.samples_per_s": samples / sample_s if sample_s else 0.0,
        "state_access.query_s": per_call("state_access.query"),
        "polyfilter.build_s": per_call("polyfilter.build"),
        "polyfilter.builds": per_call("polyfilter.build", 1),
        "oracle.sandwich_s": per_call("oracle.sandwich"),
        "oracle.reconstruct_s": per_call("oracle.reconstruct"),
        "oracle.reconstruct_calls": per_call("oracle.reconstruct", 1),
        "eigensolve.tests_run": mean("tests"),
        "eigensolve.self_s": tracer.self_time("eigensolve.solve", traced_calls) / ncalls,
        "transform.power_s": power_s / ncalls,
        "transform.chains": mean("chains"),
        "transform.leaf_ops": leaf_ops,
        "transform.leaf_ops_per_s": leaf_ops * ncalls / power_s if power_s else 0.0,
        "transform.predicted_leaf_ops": predicted,
        "transform.actual_over_predicted": leaf_ops / predicted if predicted else 0.0,
        "imm.chain_entry_calls": per_call("imm.chain_entry", 1),
        "imm.chain_entry_s": per_call("imm.chain_entry"),
        "trace.overhead_s": mean_call(True) - mean_call(False),
    }


if __name__ == "__main__":
    main(sys.argv[1])
