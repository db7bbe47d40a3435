"""Smallest-eigenvalue localization by a scan of spectral threshold tests.

The operator is shifted and rescaled to A' = (I + A/kappa)/2 with spectrum in
[0, 1], which splits into T = ceil(4/epsilon) intervals of width epsilon/4.
Test(t) asks whether the ground energy of A' lies at or below
tau = t*epsilon/4 or at or above tau + epsilon/4. A guiding state with
ground-space overlap chi separates the two cases, so the first accepted
interval pins the ground energy of A to within epsilon*kappa.

How a test filters the spectrum depends on the policy. Under `tight` it
estimates one power <psi|((c - y)/(1 + c))^r|psi> of a shifted operator,
where y = 2A' - I = A/kappa and c is a shift in [0, 1]. That operator's
monomial coefficient mass is 1, so its sampled cost is
reps * ceil(64/err^2) * max(r, 1) * s^r (the one-stratum case of the
stratified estimator in transform). Each test picks its own (c, r) to
minimize that cost, with r bounded by the filter degree cap; c = 1 is the
low-pass operator I - A' (see ShiftedTest). Under `strict` and
`oracle-exact` it applies a rectangle polynomial that passes [0, tau] and
blocks above tau + epsilon/4: the filtered expectation is at least
11 chi^2/12 in the first case and at most chi^2/12 in the second.

The guided solver builds the decomposition from local terms; the unguided
solver doubles the system to H (x) I and guides with the maximally entangled
state, whose ground-space overlap is at least 2^(-n/2) regardless of H.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import oracle
from .errors import (
    CostCapExceeded,
    DegreeOverflowError,
    GapError,
    ValidationError,
)
from .hamiltonian import (
    LocalTerm,
    build_decomposition,
    shift_rescale,
    shifted_operator,
)
from .instrument import Counters
from .oracle import exact_sandwich
from .polyfilter import (
    DEGREE_CAP,
    build_rectangle_polynomial,
    constant_one_polynomial,
)
from .rng import make_generator, spawn_streams
from .state_access import MaxEntState, make_state
from .transform import (
    POLICIES,
    estimate_polynomial_transform,
    estimate_power,
    predict_power_cost,
)


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
    """One threshold test: its estimate, its answer, and the filter it ran.

    filter is "shifted" (degree = the power r of (c - y)/(1 + c), shift = c;
    see ShiftedTest) or "rectangle" (degree = the polynomial's degree,
    shift = None).
    """

    t: int
    estimate: complex
    yes: bool
    filter: str
    degree: int
    shift: float = None

    def to_dict(self):
        return {
            "t": self.t,
            "estimate": [float(self.estimate.real), float(self.estimate.imag)],
            "yes": self.yes,
            "filter": self.filter,
            "degree": int(self.degree),
            "shift": self.shift,
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


def _bands(t, epsilon):
    """(tau, theta, empty) for test t; empty when the blocked band is."""
    tau = t * epsilon / 4.0
    theta = epsilon / 4.0
    # With tau + theta above 1 every eigenvalue of A' already lies in the
    # passed band, so the test has nothing to block.
    return tau, theta, tau + theta > 1.0 + 1e-12


def _test_polynomial(t, epsilon, chi):
    tau, theta, empty = _bands(t, epsilon)
    xi = chi * chi / 12.0
    if empty:
        return constant_one_polynomial(tau, theta, xi)
    return build_rectangle_polynomial(tau, theta, xi)


# Shifts searched per test: c = 1, then c = lo + (1 - lo) k / SHIFT_GRID for
# k < SHIFT_GRID. c = 1 is its own entry, exact rather than a rounded
# lo + (1 - lo).
SHIFT_GRID = 400
# Below this the batch size ceil(64/err^2) is no longer a finite float.
_MIN_ERR = 1e-150


@dataclass(frozen=True)
class ShiftedTest:
    """Test t as one power r of the shifted operator (c - y)/(1 + c).

    Write y = 2A' - I = A/kappa, with spectrum in [-1, 1], and
    y_tau = 2 tau - 1, y_h = 2 (tau + theta) - 1 for tau = t*epsilon/4 and
    theta = epsilon/4. The shift c lies in [max(y_h, 0), 1]. Expand
    psi = sum_j a_j |v_j> over eigenvectors of y with eigenvalues y_j. Then

        <psi|((c - y)/(1 + c))^r|psi> = sum_j |a_j|^2 ((c - y_j)/(1 + c))^r,

    whose weights |a_j|^2 sum to 1.

    * Yes bound: if lambda_0' <= tau, then y_0 <= y_tau < y_h <= c, so every
      ground-space factor is at least (c - y_tau)/(1 + c) > 0, and psi has
      weight at least chi^2 there: those terms give at least
      yes_bound = chi^2 ((c - y_tau)/(1 + c))^r. Every other term is
      nonnegative, because r is even, or because c = 1 >= y_j.
    * No bound: if every eigenvalue of A' is at least tau + theta, every y_j
      lies in the band [y_h, 1]. |c - y| is convex in y, so on the band it
      is at most its larger end value, max(c - y_h, 1 - c) (c >= y_h). Each
      term is at most that over 1 + c, to the power r, so the sum is at
      most no_bound = (max(c - y_h, 1 - c)/(1 + c))^r.

    A shift c < 0 would make the no ratio 1 - c over 1 + c at least 1, so
    it never helps. An estimate within err = gap/4 of the expectation, with
    gap = yes_bound - no_bound > 0, lies at or above the midpoint in the yes
    case and below it in the no case. When the blocked band is empty the no
    case cannot occur: r = 0, c = 1, no_bound = 0, and the test is the
    constant-1 test (err chi^2/4, threshold chi^2/2). At c = 1 the operator
    is the low-pass I - A' and the bounds are chi^2 (1 - tau)^r and
    (1 - tau - theta)^r.
    """

    shift: float
    r: int
    yes_bound: float
    no_bound: float

    @property
    def err(self):
        return (self.yes_bound - self.no_bound) / 4.0

    @property
    def midpoint(self):
        return (self.yes_bound + self.no_bound) / 2.0


def _shift_factors(shifts, tau, theta):
    """(yes ratio, no ratio) of each shift c: (c - y_tau)/(1 + c) and
    max(c - y_h, 1 - c)/(1 + c). Works on floats and on numpy arrays; at
    c = 1 the ratios are exactly 1 - tau and max(0, 1 - tau - theta)."""
    scale = 1.0 + shifts
    yes = scale - 2.0 * tau
    no = yes - 2.0 * theta
    return yes / scale, np.maximum(no, 1.0 - shifts) / scale


def _log_costs(shifts, powers, tau, theta, chi, s):
    """Log predicted cost ceil(64/err^2) * r * s^r of each (shift c, power r).

    Returns a (shifts, powers) array, inf where the bounds do not separate
    or err is at most _MIN_ERR, and whether any pair separates. The bounds
    are compared as logarithms, so s^r and the powers never overflow.
    """
    yes_ratio, no_ratio = _shift_factors(shifts[:, None], tau, theta)
    log_chi2 = 2.0 * math.log(chi)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # log(no_bound / yes_bound): the bounds separate where it is below 0
        log_ratio = powers * np.log(no_ratio / yes_ratio) - log_chi2
        separated = log_ratio < 0.0
        log_err = log_chi2 + powers * np.log(yes_ratio)
        log_err += np.log1p(-np.exp(log_ratio))
        log_err -= math.log(4.0)
        usable = separated & (log_err > math.log(_MIN_ERR))
        # from here on the buffer holds ceil(64/err^2), then the log cost
        cost = np.exp(-2.0 * log_err, out=log_err)
        cost *= 64.0
        np.log(np.ceil(cost, out=cost), out=cost)
        cost += np.log(powers) + powers * math.log(max(s, 1))
    cost[~usable] = np.inf
    return cost, bool(separated.any())


def shifted_test(t, epsilon, chi, s=1):
    """The ShiftedTest of interval t at accuracy epsilon and overlap chi.

    Picks (c, r) to minimize the test's predicted cost
    reps * ceil(64/err^2) * max(r, 1) * s^r for row sparsity s, over r in
    [1, DEGREE_CAP] (even unless c = 1) and over the shifts of SHIFT_GRID.
    reps is the same for every candidate, so it drops out. The costs are
    compared as logarithms, so s^r never overflows, and ties go to c = 1,
    then to the smaller r. The candidate c = 1 at the smallest r with
    chi^2 (1 - tau)^r >= 2 (1 - tau - theta)^r is always searched, so no
    choice costs more than that low-pass test.

    Raises DegreeOverflowError when no candidate separates the bounds (the
    test would need a power above the cap: the chain masses are products of
    r bounds of at most 1/2, so past the cap they head for float underflow),
    and ValidationError when every separating candidate's err is below float
    resolution.
    """
    tau, theta, empty = _bands(t, epsilon)
    chi2 = chi * chi
    if empty:
        return ShiftedTest(1.0, 0, chi2, 0.0)
    lo = min(max(2.0 * (tau + theta) - 1.0, 0.0), 1.0)
    grid = lo + (1.0 - lo) * np.arange(SHIFT_GRID) / SHIFT_GRID
    powers = np.arange(1, DEGREE_CAP + 1)
    # In tie-break order: c = 1 at every r, then each grid shift at every
    # even r.
    low_pass, low_pass_separated = _log_costs(np.ones(1), powers, tau, theta, chi, s)
    shifted, shifted_separated = _log_costs(grid, powers[1::2], tau, theta, chi, s)
    costs = np.concatenate((low_pass.ravel(), shifted.ravel()))
    best = int(np.argmin(costs))
    if costs[best] == np.inf:
        if not (low_pass_separated or shifted_separated):
            raise DegreeOverflowError(
                f"test {t}: the shifted test needs a power above the degree "
                f"cap {DEGREE_CAP} (epsilon {epsilon}, chi {chi})",
                degree_cap=DEGREE_CAP,
            )
        raise ValidationError(
            f"test {t}: the shifted test's gap is below float resolution at "
            f"every power up to {DEGREE_CAP} (epsilon {epsilon}, chi {chi})"
        )
    if best < DEGREE_CAP:
        shift, r = 1.0, best + 1
    else:
        row, column = divmod(best - DEGREE_CAP, shifted.shape[1])
        shift, r = float(grid[row]), 2 * (column + 1)
    yes_ratio, no_ratio = _shift_factors(shift, tau, theta)
    test = ShiftedTest(shift, r, chi2 * float(yes_ratio) ** r, float(no_ratio) ** r)
    # the choice compared logarithms; the recorded bounds are powers
    if not test.err > _MIN_ERR:
        raise ValidationError(
            f"test {t}: the shifted gap at c = {shift}, r = {r} is below float "
            f"resolution (epsilon {epsilon}, chi {chi})"
        )
    return test


def _threshold_detail(t, decomp_prime, psi, cfg, rng, T, counters=None):
    """One test's TestRecord.

    Under tight the test is one estimate_power call on the shifted operator
    of its ShiftedTest, refused before any sampling when its predicted cost
    exceeds the cost cap. A cost-cap breakdown names the test's filter:
    "shifted" with its shift under tight, "rectangle" with shift None under
    strict. Under oracle-exact, decomp_prime may be the scan's
    ChebyshevMoments sequence of psi on the normalized operator, so the test
    takes only the moments that earlier tests of the scan have not taken
    already.
    """
    per_test_delta = cfg.delta / T
    if cfg.policy == "tight":
        test = shifted_test(t, cfg.epsilon, cfg.chi, decomp_prime.s)
        base = shifted_operator(decomp_prime, test.shift)
        if cfg.cost_cap is not None:
            predicted, breakdown = predict_power_cost(
                base, test.r, test.err, per_test_delta
            )
            if predicted > cfg.cost_cap:
                breakdown.update(policy=cfg.policy, filter="shifted",
                                 shift=test.shift)
                raise CostCapExceeded(predicted, cfg.cost_cap, breakdown)
        estimate = estimate_power(
            psi, psi, base, test.r, test.err, per_test_delta, rng,
            counters=counters,
        )
        yes = estimate.real >= test.midpoint
        return TestRecord(t, estimate, yes, "shifted", test.r, test.shift)
    P = _test_polynomial(t, cfg.epsilon, cfg.chi)
    precision = cfg.chi * cfg.chi / 4.0
    if cfg.policy == "oracle-exact":
        estimate = exact_sandwich(psi, decomp_prime, psi, polynomial=P)
    else:
        try:
            estimate = estimate_polynomial_transform(
                psi, psi, decomp_prime, P, precision, per_test_delta, rng,
                policy=cfg.policy, cost_cap=cfg.cost_cap, counters=counters,
            )
        except CostCapExceeded as exc:
            exc.breakdown.update(filter="rectangle", shift=None)
            raise
    yes = abs(estimate) >= cfg.chi * cfg.chi / 2.0
    return TestRecord(t, estimate, yes, "rectangle", P.degree)


def test_threshold(t, decomp_prime, psi, cfg, rng, counters=None):
    """Decide whether the ground energy of A' falls below t*epsilon/4.

    decomp_prime must be the normalized (shifted/rescaled) decomposition.
    Returns True for yes.
    """
    T = cfg.interval_count
    t = int(t)
    if not 0 <= t < T:
        raise ValidationError(f"interval index {t} outside [0, {T})")
    record = _threshold_detail(t, decomp_prime, psi, cfg, rng, T, counters=counters)
    return record.yes


def estimate_smallest_eigenvalue(decomp, psi, cfg, rng):
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
        # One reconstruction and one moment sequence per scan: every test
        # reads its filter's moments from it, so the scan costs
        # ceil(max_t d_t / 2) products. reconstruct is looked up on the module
        # at call time, so the benchmark's tracer (bench/measure.py) counts it.
        prime = oracle.ChebyshevMoments(oracle.reconstruct(prime), psi)
    T = cfg.interval_count
    counters = Counters()
    transcript = []
    t_star = None
    for t in range(T):
        # Spawned as the scan reaches test t: the child streams of spawning
        # all T up front, without their O(T) cost (T = 4e9 at epsilon 1e-9).
        (stream,) = spawn_streams(rng, 1)
        record = _threshold_detail(t, prime, psi, cfg, stream, T, counters=counters)
        transcript.append(record)
        if record.yes:
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


def solve_guided(H, psi, cfg):
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
    return estimate_smallest_eigenvalue(decomp, psi, cfg, rng)


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


def solve_unguided(H, cfg):
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
    return estimate_smallest_eigenvalue(decomp, psi, cfg, rng)


def decide(H, psi, a, b, cfg):
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
        estimate = solve_unguided(H, cfg_dec)
    else:
        estimate = solve_guided(H, psi, cfg_dec)
    midpoint = (a + b) / 2.0 * estimate.kappa
    decision = "LOW" if estimate.e_star <= midpoint else "HIGH"
    return DecisionOutcome(
        decision=decision,
        estimate=estimate,
        a=a,
        b=b,
        midpoint_energy=midpoint,
    )
