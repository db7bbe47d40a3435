"""Command-line front end.

Subcommands:
  estimate   ground-energy estimate (guided, or unguided via --state maxent)
  decide     LOW/HIGH promise decision for thresholds a < b
  oracle     exact diagnostics for small instances
  bench      random-instance harness with optional oracle comparison
  poly       build and report one rectangle filter polynomial

Reports are printed as text by default and as JSON with --json; JSON output
is byte-identical across runs for the same command line (wall-clock timings
appear only in the text rendering). Errors are written to stderr as one JSON
object. Exit codes: 0 success, 1 invalid input or out of memory, 2
predicted-cost cap exceeded.
"""

import argparse
import hashlib
import json
import math
import sys
import time
from dataclasses import replace

import numpy as np

from .eigensolve import SolverConfig, decide, solve_guided, solve_unguided
from .errors import CostCapExceeded, EigensamplerError, ValidationError
from .hamiltonian import LocalTerm, build_decomposition, load_hamiltonian
from .oracle import (
    DENSE_DIMENSION_LIMIT,
    check_window,
    exact_ground_energy,
    exact_overlap,
    ground_vector,
    reconstruct,
)
from .polyfilter import band_report, build_rectangle_polynomial, coefficient_l1
from .rng import make_generator
from .state_access import DenseState, is_maxent, make_state
from .transform import POLICIES


class CliUsageError(EigensamplerError):
    """Raised for malformed command lines instead of argparse's exit(2)."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage, which this CLI reserves for
    # cost-cap aborts; route usage problems through the normal error path.
    def error(self, message):
        raise CliUsageError(message)


class RunReport:
    """One command's outcome: inputs, config echo, result, optional oracle."""

    def __init__(self, command, input_digest, config, result,
                 oracle=None, wall_clock_s=None):
        self.command = command
        self.input_digest = input_digest
        self.config = config
        self.result = result
        self.oracle = oracle
        self.wall_clock_s = wall_clock_s

    def to_json_dict(self):
        # Wall-clock time stays out: JSON reports are reproducible byte for
        # byte under a fixed seed, and timings would break that.
        out = {
            "command": self.command,
            "input_digest": self.input_digest,
            "config": self.config,
            "result": self.result,
        }
        if self.oracle is not None:
            out["oracle"] = self.oracle
        return out

    def to_text(self):
        lines = [f"eigensampler {self.command}"]
        lines.append(f"  input digest : {self.input_digest}")
        for key in sorted(self.config):
            lines.append(f"  {key:<12} : {self.config[key]}")
        lines.extend(_text_block("result", self.result))
        if self.oracle is not None:
            lines.extend(_text_block("oracle", self.oracle))
        if self.wall_clock_s is not None:
            lines.append(f"  wall clock   : {self.wall_clock_s:.3f} s")
        return "\n".join(lines)


def _text_block(title, mapping, indent="  "):
    lines = [f"{indent}{title}:"]
    for key in sorted(mapping):
        value = mapping[key]
        if key == "transcript":
            lines.append(f"{indent}  transcript   : {len(value)} tests")
            continue
        if isinstance(value, dict):
            lines.extend(_text_block(key, value, indent + "  "))
        else:
            lines.append(f"{indent}  {key:<12} : {value}")
    return lines


def _dump(obj):
    return json.dumps(obj, indent=2, sort_keys=True)


def _print_report(report, as_json):
    print(_dump(report.to_json_dict()) if as_json else report.to_text())


def _error_json(exc):
    # numpy raises MemoryError subclasses with private names
    name = "MemoryError" if isinstance(exc, MemoryError) else type(exc).__name__
    payload = {"type": name, "message": str(exc)}
    if isinstance(exc, CostCapExceeded):
        breakdown = dict(exc.breakdown)
        for key in ("per_power", "chains_per_power"):
            if key in breakdown:
                breakdown[key] = {str(k): v for k, v in breakdown[key].items()}
        payload.update(
            predicted=exc.predicted, cap=exc.cap, breakdown=breakdown
        )
    return _dump({"error": payload})


# ---------------------------------------------------------------------------
# Shared argument plumbing


def _add_common(parser):
    parser.add_argument("--json", action="store_true",
                        help="emit the report as JSON on stdout")
    parser.add_argument("--seed", type=int, default=0, help="master RNG seed")


def _add_solver(parser):
    parser.add_argument("--epsilon", type=float, default=0.25,
                        help="target accuracy, in units of kappa")
    parser.add_argument("--chi", type=float, default=1.0,
                        help="guiding-state overlap lower bound")
    parser.add_argument("--delta", type=float, default=0.05,
                        help="total failure probability")
    parser.add_argument("--policy", choices=POLICIES, default="tight",
                        help="error-budget policy")
    parser.add_argument("--cost-cap", type=float, default=1e9,
                        help="predicted leaf-operation cap (inf disables)")


def _add_report(parser):
    parser.add_argument("--transcript", action="store_true",
                        help="include the per-test transcript in the report")
    parser.add_argument("--oracle-check", action="store_true",
                        help="append an exact-diagonalization comparison "
                             "when the dimension permits")
    parser.add_argument("--sigma", type=float, default=None,
                        help="the oracle check's low-energy window width "
                             "(default epsilon/2 * kappa of the run)")


def _add_input(parser, state_required=True):
    parser.add_argument("--hamiltonian", required=True,
                        help="Hamiltonian file (text or JSON)")
    parser.add_argument("--state", required=state_required,
                        help="guiding state spec (basis:/product:/dense:/maxent)")


def _config_echo(args, cfg, extra=None):
    echo = {
        "hamiltonian": args.hamiltonian,
        "state": getattr(args, "state", None),
        "epsilon": cfg.epsilon,
        "chi": cfg.chi,
        "sigma": args.sigma,
        "delta": cfg.delta,
        "policy": cfg.policy,
        "seed": cfg.seed,
        "cost_cap": cfg.cost_cap,
    }
    if extra:
        echo.update(extra)
    return echo


def _make_config(args):
    if getattr(args, "sigma", None) is not None:  # refused before the run
        check_window(args.sigma)
    return SolverConfig(
        epsilon=args.epsilon,
        chi=args.chi,
        delta=args.delta,
        policy=args.policy,
        seed=args.seed,
        cost_cap=None if args.cost_cap == math.inf else args.cost_cap,
    )


def _load_input(args):
    with open(args.hamiltonian, "rb") as fh:
        raw = fh.read()
    n, terms = load_hamiltonian(args.hamiltonian)
    digest = hashlib.sha256(
        raw + b"\x00" + str(getattr(args, "state", "")).encode()
    ).hexdigest()
    return n, terms, digest


def _exact_guide(spec, n):
    """The guide an exact overlap reads: None, the normalized trace, for the
    unguided spec (the maxent state of H (x) I, read on H's own n qubits)."""
    return None if is_maxent(spec) else make_state(spec, n)


def _oracle_block(args, n, terms, estimate):
    """Exact check of a run, on its n-qubit operator, at the run's epsilon and chi."""
    tolerance = estimate.epsilon * estimate.kappa
    sigma = 0.5 * tolerance if args.sigma is None else args.sigma
    if estimate.kappa > 0.0 and sigma >= tolerance:
        raise ValidationError(f"sigma={sigma} must stay below "
                              f"epsilon*kappa={tolerance}")
    if 2**n > DENSE_DIMENSION_LIMIT:
        return {"skipped": f"dimension {2**n} exceeds the dense oracle limit"}
    op = reconstruct(build_decomposition(n, terms))
    lam = exact_ground_energy(op)
    overlap = exact_overlap(op, _exact_guide(args.state, n), sigma)
    abs_error = abs(estimate.e_star - lam)
    return {
        "lambda_min": lam,
        "abs_error": abs_error,
        "tolerance": tolerance,
        "within_tolerance": bool(abs_error <= tolerance + 1e-12),
        "overlap": overlap,
        "overlap_promise": estimate.chi,
    }


# ---------------------------------------------------------------------------
# Subcommands


def run_estimate(args):
    """Execute the guided or unguided solver per flags; returns a RunReport."""
    n, terms, digest = _load_input(args)
    cfg = _make_config(args)
    unguided = is_maxent(args.state)
    start = time.perf_counter()
    if unguided:
        estimate = solve_unguided((n, terms), cfg)
    else:
        estimate = solve_guided((n, terms), args.state, cfg)
    wall = time.perf_counter() - start
    oracle = None
    if args.oracle_check:
        oracle = _oracle_block(args, n, terms, estimate)
    return RunReport(
        command="estimate",
        input_digest=digest,
        config=_config_echo(args, cfg, {"mode": "unguided" if unguided else "guided"}),
        result=estimate.to_dict(include_transcript=args.transcript),
        oracle=oracle,
        wall_clock_s=wall,
    )


def run_decide(args):
    """Execute the LOW/HIGH decision; returns a RunReport."""
    n, terms, digest = _load_input(args)
    cfg = _make_config(args)
    start = time.perf_counter()
    outcome = decide((n, terms), args.state, args.a, args.b, cfg)
    wall = time.perf_counter() - start
    oracle = None
    if args.oracle_check:
        oracle = _oracle_block(args, n, terms, outcome.estimate)
        if "lambda_min" in oracle:
            lam, kappa = oracle["lambda_min"], outcome.estimate.kappa
            oracle["promise_side"] = ("LOW" if lam <= args.a * kappa else
                                      "HIGH" if lam > args.b * kappa else "violated")
    return RunReport(
        command="decide",
        input_digest=digest,
        config=_config_echo(args, cfg, {"a": args.a, "b": args.b}),
        result=outcome.to_dict(include_transcript=args.transcript),
        oracle=oracle,
        wall_clock_s=wall,
    )


def run_oracle(args):
    """Exact diagnostics: ground energy, optional spectrum and overlap."""
    n, terms, digest = _load_input(args)
    decomp = build_decomposition(n, terms)
    op = reconstruct(decomp)
    result = {
        "n": n,
        "kappa": decomp.kappa,
        "lambda_min": exact_ground_energy(op),
    }
    if args.spectrum:
        result["spectrum"] = [float(v) for v in op.eigenvalues]
    if args.state is not None:
        sigma = args.sigma if args.sigma is not None else 0.0
        result["overlap"] = exact_overlap(op, _exact_guide(args.state, n), sigma)
        result["sigma"] = sigma
    config = {"hamiltonian": args.hamiltonian, "state": args.state,
              "sigma": args.sigma, "spectrum": args.spectrum}
    return RunReport("oracle", digest, config, result)


def run_poly(args):
    """Build one rectangle filter and report its certification."""
    P = build_rectangle_polynomial(args.tau, args.theta, args.xi)
    result = {
        "degree": P.degree,
        "coefficient_l1": coefficient_l1(P),
        "verified": P.verified,
        "grid_points": P.grid_points,
        "bands": band_report(P),
    }
    config = {"tau": args.tau, "theta": args.theta, "xi": args.xi}
    digest = hashlib.sha256(
        f"{args.tau}:{args.theta}:{args.xi}".encode()
    ).hexdigest()
    return RunReport("poly", digest, config, result)


def _random_pauli_term(rng, n, k):
    weight = int(rng.integers(1, min(k, n) + 1))
    qubits = rng.choice(n, size=weight, replace=False)
    chars = ["I"] * n
    for q in qubits:
        chars[int(q)] = "XYZ"[int(rng.integers(3))]
    coeff = float(rng.uniform(-1.0, 1.0))
    return LocalTerm.from_pauli(coeff, "".join(chars))


def _random_block_term(rng, n, k):
    size = int(rng.integers(1, min(k, n) + 1))
    qubits = sorted(int(q) for q in rng.choice(n, size=size, replace=False))
    dim = 2**size
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return LocalTerm.from_block(qubits, (raw + raw.conj().T) / 2.0)


def run_bench(args):
    """Yield ("instance", dict) per run, then one ("summary", dict)."""
    if args.count < 0:
        raise CliUsageError(f"--count must be nonnegative, got {args.count}")
    if args.n < 1 or args.k < 1 or args.m < 1:
        raise CliUsageError("--n, --k and --m must all be at least 1")
    cfg = _make_config(args)
    gen = make_generator(args.seed)
    seed_words = np.random.SeedSequence(args.seed).generate_state(
        max(1, args.count), np.uint64
    )
    max_n = DENSE_DIMENSION_LIMIT.bit_length() - 1  # the dense oracle's qubits
    oracle_ok = args.n <= max_n
    successes = 0
    compared = 0
    aborted = 0
    samples = []
    walls = []
    for index in range(args.count):
        terms = []
        for _ in range(args.m):
            if args.pauli_only or gen.random() < 0.5:
                terms.append(_random_pauli_term(gen, args.n, args.k))
            else:
                terms.append(_random_block_term(gen, args.n, args.k))
        instance_seed = int(seed_words[index])
        instance_cfg = replace(cfg, seed=instance_seed)
        record = {"index": index, "seed": instance_seed, "n": args.n,
                  "m": len(terms)}
        lam = None
        if oracle_ok:
            decomp = build_decomposition(args.n, terms)
            op = reconstruct(decomp)
            lam = exact_ground_energy(op)
            guide = DenseState(ground_vector(op))
        start = time.perf_counter()
        try:
            if oracle_ok:
                estimate = solve_guided((args.n, terms), guide, instance_cfg)
            else:
                estimate = solve_unguided((args.n, terms), instance_cfg)
        except CostCapExceeded as exc:
            aborted += 1
            record.update(aborted="cost-cap", predicted=exc.predicted,
                          cap=exc.cap)
            yield "instance", record
            continue
        walls.append(time.perf_counter() - start)
        record.update(
            kappa=estimate.kappa,
            e_star=estimate.e_star,
            t_star=estimate.t_star,
            samples_used=estimate.samples_used,
            no_yes_found=estimate.no_yes_found,
        )
        samples.append(estimate.samples_used)
        if lam is not None:
            error = abs(estimate.e_star - lam)
            tol = cfg.epsilon * estimate.kappa
            success = bool(error <= tol + 1e-12)
            record.update(lambda_min=lam, abs_error=error, success=success)
            compared += 1
            successes += int(success)
        yield "instance", record
    summary = {
        "count": args.count,
        "epsilon": cfg.epsilon,
        "policy": cfg.policy,
        "aborted": aborted,
        "mean_samples": float(np.mean(samples)) if samples else 0.0,
    }
    if oracle_ok:
        summary["compared"] = compared
        summary["success_fraction"] = (
            successes / compared if compared else None
        )
    else:
        summary["notice"] = f"oracle disabled for n > {max_n}; success fraction omitted"
    if walls:
        summary["_mean_wall_s"] = float(np.mean(walls))
    yield "summary", summary


def _cmd_simple(run, args):
    report = run(args)
    _print_report(report, args.json)
    return 0


def _cmd_bench(args):
    instances = []
    summary = None
    for kind, payload in run_bench(args):
        if kind == "summary":
            summary = payload
        else:
            instances.append(payload)
            if not args.json:
                print(f"instance {payload['index']:>3}: " + ", ".join(
                    f"{k}={payload[k]}" for k in sorted(payload) if k != "index"
                ))
    mean_wall = summary.pop("_mean_wall_s", None)
    if args.json:
        print(_dump({"command": "bench", "instances": instances,
                     "summary": summary}))
    else:
        for key in sorted(summary):
            print(f"{key:<16} : {summary[key]}")
        if mean_wall is not None:
            print(f"{'mean_wall_s':<16} : {mean_wall:.3f}")
    return 0


def build_parser():
    parser = _Parser(prog="eigensampler",
                     description="Sampled ground-energy estimation for "
                                 "decomposed Hermitian operators.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_est = sub.add_parser("estimate", help="ground-energy estimate")
    _add_input(p_est)
    _add_solver(p_est)
    _add_report(p_est)
    _add_common(p_est)
    p_est.set_defaults(func=lambda a: _cmd_simple(run_estimate, a))

    p_dec = sub.add_parser("decide", help="LOW/HIGH promise decision")
    _add_input(p_dec)
    p_dec.add_argument("--a", type=float, required=True,
                       help="lower threshold, in units of kappa")
    p_dec.add_argument("--b", type=float, required=True,
                       help="upper threshold, in units of kappa")
    _add_solver(p_dec)
    _add_report(p_dec)
    _add_common(p_dec)
    p_dec.set_defaults(func=lambda a: _cmd_simple(run_decide, a))

    p_orc = sub.add_parser("oracle", help="exact diagnostics (small N)")
    _add_input(p_orc, state_required=False)
    p_orc.add_argument("--sigma", type=float, default=None,
                       help="window width for the overlap report")
    p_orc.add_argument("--spectrum", action="store_true",
                       help="include the full spectrum")
    _add_common(p_orc)
    p_orc.set_defaults(func=lambda a: _cmd_simple(run_oracle, a))

    p_bench = sub.add_parser("bench", help="random-instance harness")
    p_bench.add_argument("--count", type=int, default=10)
    p_bench.add_argument("--n", type=int, default=3, help="qubits per instance")
    p_bench.add_argument("--k", type=int, default=2, help="locality bound")
    p_bench.add_argument("--m", type=int, default=3, help="terms per instance")
    p_bench.add_argument("--pauli-only", action="store_true")
    _add_solver(p_bench)
    _add_common(p_bench)
    p_bench.set_defaults(func=_cmd_bench)

    p_poly = sub.add_parser("poly", help="build one rectangle filter")
    p_poly.add_argument("--tau", type=float, required=True)
    p_poly.add_argument("--theta", type=float, required=True)
    p_poly.add_argument("--xi", type=float, required=True)
    _add_common(p_poly)
    p_poly.set_defaults(func=lambda a: _cmd_simple(run_poly, a))

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except CliUsageError as exc:
        print(_error_json(exc), file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except CostCapExceeded as exc:
        print(_error_json(exc), file=sys.stderr)
        return 2
    except (EigensamplerError, OSError, MemoryError) as exc:
        print(_error_json(exc), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
