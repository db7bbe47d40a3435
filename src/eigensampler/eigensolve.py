"""Smallest-eigenvalue localization by a scan of spectral threshold tests.

The operator is shifted and rescaled to A' = (I + A/kappa)/2 with spectrum in
[0, 1], which splits into T = ceil(4/epsilon) intervals of width epsilon/4.
Test(t) applies a rectangle filter that passes [0, t*epsilon/4] and blocks
above (t+1)*epsilon/4; a guiding state with ground-space overlap chi makes
the filtered expectation large (at least 11 chi^2/12) once the interval
reaches the ground energy and small (at most chi^2/12) while it is still
strictly below, so the first accepted interval pins the ground energy of A
to within epsilon*kappa.

The guided solver builds the decomposition from local terms; the unguided
solver doubles the system to H (x) I and guides with the maximally entangled
state, whose ground-space overlap is at least 2^(-n/2) regardless of H.
"""

import math
from dataclasses import dataclass, field, replace

from . import oracle
from .errors import GapError, ValidationError
from .hamiltonian import LocalTerm, build_decomposition, shift_rescale
from .instrument import Counters
from .oracle import exact_sandwich
from .polyfilter import build_rectangle_polynomial, constant_one_polynomial
from .rng import make_generator, spawn_streams
from .state_access import MaxEntState, make_state
from .transform import POLICIES, estimate_polynomial_transform


@dataclass(frozen=True)
class SolverConfig:
    """Knobs shared by every solver entry point.

    sigma is the absolute width of the low-energy window backing the overlap
    promise; None means the default (epsilon/2)*kappa, resolved once kappa is
    known. It parameterizes verification only, never the scan itself.
    """

    epsilon: float = 0.25
    chi: float = 1.0
    delta: float = 0.05
    sigma: float = None
    policy: str = "tight"
    seed: int = 0
    cost_cap: float = 1e9

    def __post_init__(self):
        if not 0.0 < self.epsilon <= 1.0:
            raise ValidationError(f"epsilon must be in (0, 1], got {self.epsilon}")
        if not 0.0 < self.chi <= 1.0:
            raise ValidationError(f"chi must be in (0, 1], got {self.chi}")
        if not 0.0 < self.delta < 1.0:
            raise ValidationError(f"delta must be in (0, 1), got {self.delta}")
        if self.sigma is not None and self.sigma < 0.0:
            raise ValidationError(f"sigma must be nonnegative, got {self.sigma}")
        if self.policy not in POLICIES:
            raise ValidationError(
                f"policy must be one of {', '.join(POLICIES)}, got {self.policy!r}"
            )
        if self.cost_cap is not None and self.cost_cap <= 0.0:
            raise ValidationError(f"cost cap must be positive, got {self.cost_cap}")

    @property
    def interval_count(self):
        return math.ceil(4.0 / self.epsilon)

    def resolved_sigma(self, kappa):
        if self.sigma is not None:
            return self.sigma
        return 0.5 * self.epsilon * kappa


@dataclass
class TestRecord:
    t: int
    estimate: complex
    yes: bool

    def to_dict(self):
        return {
            "t": self.t,
            "estimate": [float(self.estimate.real), float(self.estimate.imag)],
            "yes": self.yes,
        }


@dataclass
class EnergyEstimate:
    """Outcome of one scan, with enough context to re-audit the decision."""

    e_star: float
    t_star: int
    T: int
    kappa: float
    epsilon: float
    chi: float
    policy: str
    seed: int
    samples_used: int
    no_yes_found: bool
    transcript: tuple = ()
    counters: dict = field(default_factory=dict)

    def to_dict(self, include_transcript=True):
        out = {
            "e_star": float(self.e_star),
            "t_star": int(self.t_star),
            "T": int(self.T),
            "kappa": float(self.kappa),
            "epsilon": float(self.epsilon),
            "chi": float(self.chi),
            "policy": self.policy,
            "seed": self.seed,
            "samples_used": int(self.samples_used),
            "no_yes_found": bool(self.no_yes_found),
            "counters": dict(self.counters),
        }
        if include_transcript:
            out["transcript"] = [record.to_dict() for record in self.transcript]
        return out


@dataclass
class DecisionOutcome:
    decision: str
    estimate: EnergyEstimate
    a: float
    b: float
    midpoint_energy: float

    def to_dict(self, include_transcript=True):
        return {
            "decision": self.decision,
            "a": float(self.a),
            "b": float(self.b),
            "midpoint_energy": float(self.midpoint_energy),
            "estimate": self.estimate.to_dict(include_transcript),
        }


def _test_polynomial(t, epsilon, chi):
    tau = t * epsilon / 4.0
    theta = epsilon / 4.0
    xi = chi * chi / 12.0
    if tau + theta > 1.0 + 1e-12:
        # The blocked band is empty: every eigenvalue of A' already lies in
        # the passed band, so the filter degenerates to the constant 1.
        return constant_one_polynomial(tau, theta, xi)
    return build_rectangle_polynomial(tau, theta, xi)


def _threshold_detail(t, decomp_prime, psi, cfg, rng, T,
                      workers=1, counters=None):
    """One test's (yes, estimate).

    Under oracle-exact, decomp_prime may already be the dense reconstruction
    of the normalized operator, so a scan builds it only once.
    """
    P = _test_polynomial(t, cfg.epsilon, cfg.chi)
    precision = cfg.chi * cfg.chi / 4.0
    per_test_delta = cfg.delta / T
    if cfg.policy == "oracle-exact":
        estimate = exact_sandwich(psi, decomp_prime, psi, polynomial=P)
    else:
        estimate = estimate_polynomial_transform(
            psi, psi, decomp_prime, P, precision, per_test_delta, rng,
            policy=cfg.policy, cost_cap=cfg.cost_cap,
            workers=workers, counters=counters,
        )
    yes = abs(estimate) >= cfg.chi * cfg.chi / 2.0
    return yes, estimate


def test_threshold(t, decomp_prime, psi, cfg, rng, workers=1, counters=None):
    """Decide whether the ground energy of A' falls below t*epsilon/4.

    decomp_prime must be the normalized (shifted/rescaled) decomposition.
    Returns True for yes.
    """
    T = cfg.interval_count
    t = int(t)
    if not 0 <= t < T:
        raise ValidationError(f"interval index {t} outside [0, {T})")
    yes, _ = _threshold_detail(
        t, decomp_prime, psi, cfg, rng, T, workers=workers, counters=counters
    )
    return yes


def estimate_smallest_eigenvalue(decomp, psi, cfg, rng, workers=1):
    """Scan the T intervals bottom-up and return the first accepted one.

    The returned estimate E* = t*(epsilon/2)*kappa - kappa is within
    epsilon*kappa of the smallest eigenvalue with probability 1 - delta,
    provided psi meets the overlap promise. If every test says no (possible
    only through stochastic failure), the top interval is reported and
    no_yes_found is set.
    """
    if psi.dimension != decomp.dimension:
        raise ValidationError(
            f"guiding state dimension {psi.dimension} does not match "
            f"operator dimension {decomp.dimension}"
        )
    kappa = decomp.kappa
    if cfg.sigma is not None and cfg.sigma >= cfg.epsilon * kappa:
        raise ValidationError(
            f"sigma={cfg.sigma} must stay below epsilon*kappa="
            f"{cfg.epsilon * kappa}"
        )
    prime = shift_rescale(decomp)
    if cfg.policy == "oracle-exact":
        # Looked up on the module at call time, so the benchmark's tracer
        # (bench/measure.py) counts this one reconstruction per solve.
        prime = oracle.reconstruct(prime)
    T = cfg.interval_count
    counters = Counters()
    streams = spawn_streams(rng, T)
    transcript = []
    t_star = None
    for t in range(T):
        yes, estimate = _threshold_detail(
            t, prime, psi, cfg, streams[t], T, workers=workers, counters=counters
        )
        transcript.append(TestRecord(t, estimate, yes))
        if yes:
            t_star = t
            break
    no_yes_found = t_star is None
    if no_yes_found:
        t_star = T - 1
    return EnergyEstimate(
        e_star=t_star * (cfg.epsilon / 2.0) * kappa - kappa,
        t_star=t_star,
        T=T,
        kappa=kappa,
        epsilon=cfg.epsilon,
        chi=cfg.chi,
        policy=cfg.policy,
        seed=cfg.seed,
        samples_used=counters.psi_samples,
        no_yes_found=no_yes_found,
        transcript=tuple(transcript),
        counters=counters.as_dict(),
    )


def _coerce_hamiltonian(H):
    if isinstance(H, tuple) and len(H) == 2:
        n, terms = H
        return int(n), list(terms)
    raise ValidationError(
        "expected a (qubit count, local terms) pair; "
        "load_hamiltonian produces one"
    )


def _zero_hamiltonian_estimate(cfg):
    # kappa = 0 pins every eigenvalue to 0; the reconstruction identity
    # e_star = t_star*(epsilon/2)*kappa - kappa holds with e_star = 0.
    return EnergyEstimate(
        e_star=0.0,
        t_star=0,
        T=cfg.interval_count,
        kappa=0.0,
        epsilon=cfg.epsilon,
        chi=cfg.chi,
        policy=cfg.policy,
        seed=cfg.seed,
        samples_used=0,
        no_yes_found=False,
        transcript=(),
        counters=Counters().as_dict(),
    )


def solve_guided(H, psi, cfg, workers=1):
    """Ground-energy estimate of a local Hamiltonian with a guiding state.

    H is a (qubit count, local terms) pair; psi is a StateAccessor or any
    spec make_state accepts. Accuracy is epsilon times the sum of term
    norms, at confidence 1 - delta.
    """
    n, terms = _coerce_hamiltonian(H)
    if not terms:
        return _zero_hamiltonian_estimate(cfg)
    decomp = build_decomposition(n, terms)
    if decomp.kappa == 0.0:
        return _zero_hamiltonian_estimate(cfg)
    psi = make_state(psi, n)
    rng = make_generator(cfg.seed)
    return estimate_smallest_eigenvalue(decomp, psi, cfg, rng, workers=workers)


def doubled_terms(terms, n):
    """Embed n-qubit terms into the 2n-qubit doubled system H (x) I.

    The identity factor acts on the added high qubits, so Pauli strings are
    padded and block supports pass through unchanged.
    """
    out = []
    for term in terms:
        if term.is_pauli:
            out.append(
                LocalTerm.from_pauli(
                    term.coeff, term.pauli + "I" * n, kappa=term.kappa_override
                )
            )
        else:
            out.append(term)
    return out


def solve_unguided(H, cfg, workers=1):
    """Ground-energy estimate with no guiding state.

    Doubles the system to H (x) I on 2n qubits and guides with the maximally
    entangled pairing of the registers, which overlaps every eigenspace of
    the doubled operator with weight at least 2^(-n/2). The configured chi
    is replaced by that bound.
    """
    n, terms = _coerce_hamiltonian(H)
    if not terms:
        return _zero_hamiltonian_estimate(cfg)
    decomp = build_decomposition(2 * n, doubled_terms(terms, n))
    if decomp.kappa == 0.0:
        return _zero_hamiltonian_estimate(cfg)
    cfg = replace(cfg, chi=2.0 ** (-n / 2.0))
    psi = MaxEntState(n)
    rng = make_generator(cfg.seed)
    return estimate_smallest_eigenvalue(decomp, psi, cfg, rng, workers=workers)


def decide(H, psi, a, b, cfg, workers=1):
    """LOW/HIGH decision for the promise E0 <= a*kappa or E0 > b*kappa.

    Runs the estimator at accuracy just under (b-a)/2 and thresholds the
    estimate at the midpoint (a+b)/2*kappa. psi may be "maxent" (or a
    MaxEntState) to request the unguided reduction.
    """
    a = float(a)
    b = float(b)
    if b - a <= cfg.epsilon:
        raise GapError(
            f"gap b - a = {b - a!r} must exceed epsilon = {cfg.epsilon}"
        )
    eps_dec = min(1.0, (b - a) / 2.0 - 1e-9)
    if eps_dec <= 0.0:
        raise GapError(f"gap b - a = {b - a!r} is too small to decide")
    cfg_dec = replace(cfg, epsilon=eps_dec)
    unguided = isinstance(psi, MaxEntState) or (
        isinstance(psi, str) and psi.strip().lower() == "maxent"
    )
    if unguided:
        estimate = solve_unguided(H, cfg_dec, workers=workers)
    else:
        estimate = solve_guided(H, psi, cfg_dec, workers=workers)
    midpoint = (a + b) / 2.0 * estimate.kappa
    decision = "LOW" if estimate.e_star <= midpoint else "HIGH"
    return DecisionOutcome(
        decision=decision,
        estimate=estimate,
        a=a,
        b=b,
        midpoint_energy=midpoint,
    )
