"""Smallest-eigenvalue localization by a scan of spectral threshold tests.

The operator is shifted and rescaled to A' = (I + A/kappa)/2 with spectrum in
[0, 1], which splits into T = ceil(4/epsilon) intervals of width epsilon/4.
Test(t) asks whether the ground energy of A' lies at or below
tau = t*epsilon/4 or at or above tau + epsilon/4. A guiding state with
ground-space overlap chi separates the two cases, so the first accepted
interval pins the ground energy of A to within epsilon*kappa.

How a test filters the spectrum depends on the policy. Under `tight` it
estimates <psi|f(y)|psi> for y = 2A' - I = A/kappa and a TightTest f: a
product of r shifted factors (c - y)/(1 + |c|) of monomial coefficient mass
1, either a power ((c - y)/(1 + c))^r (c = 1 is the low-pass I - A') or the
square of m factors at the Chebyshev roots of the blocked band, r = 2m, far
cheaper than any power when chi < 1. Each power runs at the shift that
maximizes its gap, derived in closed form (TightTest), and tight_test runs
whichever filter has the lower predicted cost, with r bounded by the filter
degree cap. Under `strict` and `oracle-exact` it applies a rectangle
polynomial that passes [0, tau] and blocks above tau + epsilon/4: the
filtered expectation is at least 11 chi^2/12 in the first case and at most
chi^2/12 in the second.

The guided solver builds the decomposition from local terms. The unguided
solver guides H (x) I with the maximally entangled state Phi (ground-space
overlap at least 2^(-n/2) for every H), but since <Phi|B (x) I|Phi> =
tr(B)/2^n it scans H itself with psi = None, which every layer reads as
that normalized trace: a uniform start row a and the diagonal entry
<a|B_x|a> when sampled, the (N, N) block I/sqrt(N) (Phi reshaped) exactly.
"""

import math
import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from . import oracle
from .errors import (
    CostCapExceeded,
    DegreeOverflowError,
    GapError,
    StateSpecError,
    ValidationError,
)
from .hamiltonian import (
    LocalTerm,
    build_decomposition,
    shift_rescale,
    shifted_operator,
)
from .instrument import Counters, recording
from .oracle import exact_sandwich
from .polyfilter import (
    DEGREE_CAP,
    build_rectangle_polynomial,
    constant_one_polynomial,
)
from .rng import make_generator, spawn_streams
from .state_access import is_maxent, make_state
from .transform import (
    MIN_ERR,
    POLICIES,
    estimate_polynomial_transform,
    log_test_cost,
)


@dataclass(frozen=True)
class SolverConfig:
    """Knobs shared by every solver entry point."""

    epsilon: float = 0.25
    chi: float = 1.0
    delta: float = 0.05
    policy: str = "tight"
    seed: int = 0
    cost_cap: float = 1e9

    def __post_init__(self):
        for name in ("epsilon", "chi", "delta", "cost_cap"):
            value = getattr(self, name)
            if isinstance(value, bool) or not (isinstance(value, numbers.Real) or
                                               name == "cost_cap" and value is None):
                raise ValidationError(f"{name} must be a real number, got {value!r}")
        if not 0.0 < self.epsilon <= 1.0:
            raise ValidationError(f"epsilon must be in (0, 1], got {self.epsilon}")
        if 4.0 / self.epsilon == math.inf:
            raise ValidationError(
                f"epsilon = {self.epsilon!r} is too small: the scan's "
                f"ceil(4 / epsilon) intervals overflow a float"
            )
        if not 0.0 < self.chi <= 1.0:
            raise ValidationError(f"chi must be in (0, 1], got {self.chi}")
        if not 0.0 < self.delta < 1.0:
            raise ValidationError(f"delta must be in (0, 1), got {self.delta}")
        if self.policy not in POLICIES:
            raise ValidationError(
                f"policy must be one of {', '.join(POLICIES)}, got {self.policy!r}"
            )
        if self.cost_cap is not None and not self.cost_cap > 0.0:
            raise ValidationError(f"cost cap must be positive, got {self.cost_cap}")
        if (isinstance(self.seed, bool) or not isinstance(self.seed, numbers.Integral)
                or self.seed < 0):
            raise ValidationError(
                f"seed must be a nonnegative integer, got {self.seed!r}"
            )
        # a Python int, which json can write (numpy integers it cannot)
        object.__setattr__(self, "seed", int(self.seed))

    @property
    def interval_count(self):
        return math.ceil(4.0 / self.epsilon)


@dataclass
class TestRecord:
    """One threshold test: its estimate, its answer, and the filter it ran.

    filter is a TightTest's ("shifted" or "chebyshev", with its r as degree
    and its shift) or "rectangle" (degree = the polynomial's degree, shift =
    None).
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


# Largest root count of a Chebyshev product, so that its degree 2m stays
# within the filter degree cap.
MAX_ROOTS = DEGREE_CAP // 2
# Largest move of the log band maximum that rounding a product's roots may
# cause (see chebyshev_test).
_ROOT_ROUNDING = 1e-9


@dataclass(frozen=True)
class TightTest:
    """Test t under tight: a product of r factors (c - y)/(1 + |c|), each the
    shifted_operator at a c in [-1, 1] with bounds summing to 1, whose chain
    cycles through shifts. Its mass is 1, so it costs
    reps * ceil(64/err^2) * max(r, 1) * s^r (transform.log_test_cost) at
    err = gap/4, gap = yes_bound - no_bound > 0, and an estimate within err
    lies at or above the midpoint in the yes case and below it in the no.

    Write y = 2A' - I = A/kappa, with spectrum in [-1, 1], and
    y_tau = 2 tau - 1, y_h = 2 (tau + theta) - 1 for tau = t*epsilon/4 and
    theta = epsilon/4. Expand psi = sum_j a_j |v_j> over eigenvectors of y
    with eigenvalues y_j, whose weights |a_j|^2 sum to 1.

    filter "shifted" is one power of one shift c in [max(y_h, 0), 1]
    (shifts = (c,)):

        <psi|((c - y)/(1 + c))^r|psi> = sum_j |a_j|^2 ((c - y_j)/(1 + c))^r.

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
    it never helps. When the blocked band is empty the no case cannot
    occur: r = 0, c = 1, no_bound = 0, and the test is the constant-1 test
    (err chi^2/4, threshold chi^2/2). At c = 1 the operator is the low-pass
    I - A' and the bounds are chi^2 (1 - tau)^r and (1 - tau - theta)^r.

    For a fixed r the cost falls as the gap rises. An odd r runs at c = 1,
    an even r at the maximum of g(c) = chi^2 Y^r - N^r, Y = (c - y_tau)/(1 + c),
    N = (c - y_h)/(1 + c): with rho = (chi^2 tau/(tau + theta))^(1/(r - 1)),
    c_r = min(max((y_h - rho y_tau)/(1 - rho), tau + theta), 1), 1 if rho = 1.

    * Below tau + theta = (1 + y_h)/2 the no ratio (1 - c)/(1 + c) falls and
      Y rises, so g rises there.
    * On [tau + theta, 1], c - y_h >= 1 - c, so N is the no ratio, and
      g' = r (1 + c)^-2 [chi^2 (1 + y_tau) Y^(r-1) - (1 + y_h) N^(r-1)] with
      1 + y_tau = 2 tau, 1 + y_h = 2 (tau + theta): g' > 0 exactly where
      N/Y < rho. N/Y = (c - y_h)/(c - y_tau) rises in c, so g' changes sign
      once, where N/Y = rho, at (y_h - rho y_tau)/(1 - rho).

    filter "chebyshev" is f = q^2 for q(y) = prod_{i<=m} (c_i - y)/(1 + |c_i|)
    at the roots c_i = (1 + y_h)/2 + ((1 - y_h)/2) cos((2i - 1) pi/(2m)) of
    the Chebyshev polynomial T_m moved onto the blocked band [y_h, 1]
    (shifts = the m roots, r = 2m: the chain cycles twice through them).

    * Yes bound: every c_i is at least y_h > y_tau, so below y_tau each
      factor is positive and decreasing. If lambda_0' <= tau, the ground
      space has y_0 <= y_tau and f(y_0) >= q(y_tau)^2, and psi has weight at
      least chi^2 there; f is a square, so no other term is negative:
      yes_bound = chi^2 q(y_tau)^2. Negative roots change nothing here.
    * No bound: prod_i (y - c_i) is the monic 2((1 - y_h)/4)^m T_m of the
      band, so its largest size on [y_h, 1] is 2((1 - y_h)/4)^m. If every
      y_j lies in the band, the sum is at most
      no_bound = 4((1 - y_h)/4)^(2m) / prod_i (1 + |c_i|)^2.

    The ratio yes_bound/no_bound is chi^2 T_m(x_tau)^2, where
    x_tau = -1 - 4 theta/(1 - y_h) is y_tau in the band's coordinate. No
    polynomial of degree m bounded by 1 on [-1, 1] is larger outside it than
    T_m, and T_m(x_tau)^2 grows about like exp(2m sqrt(8 theta/(1 - y_h))),
    so the degree at which the bounds separate grows like
    log(1/chi)/sqrt(theta), against log(1/chi)/theta for a shifted power.
    """

    filter: str
    shifts: tuple
    r: int
    yes_bound: float
    no_bound: float

    @property
    def shift(self):
        """The transcript's shift: c of a shifted power, None for a product."""
        return self.shifts[0] if self.filter == "shifted" else None

    @property
    def degree(self):
        return self.r

    @property
    def coeffs(self):
        """e_r: f is the single monomial of degree r in its factor chain."""
        return np.eye(1, self.r + 1, self.r)[0]

    @property
    def err(self):
        return (self.yes_bound - self.no_bound) / 4.0

    @property
    def midpoint(self):
        return (self.yes_bound + self.no_bound) / 2.0

    def base(self, decomp_prime):
        """The factors whose chain the test's estimate cycles through, as
        estimate_polynomial_transform's decomp with this test as P."""
        return [shifted_operator(decomp_prime, c) for c in self.shifts]

    def log_cost(self, s):
        """log_test_cost of the recorded bounds at row sparsity s."""
        with np.errstate(divide="ignore"):
            log_yes, log_no = np.log([[self.yes_bound], [self.no_bound]])
        return float(log_test_cost(log_yes, log_no - log_yes, self.r, s)[0])


def _edges(t, epsilon):
    """(y_tau, y_h, empty): test t's band edges on the scale y, _bands's empty."""
    tau, theta, empty = _bands(t, epsilon)
    return 2.0 * tau - 1.0, 2.0 * (tau + theta) - 1.0, empty


def _best_shifts(t, epsilon, chi):
    """The shift c_r of every power r in [1, DEGREE_CAP] of test t, as
    TightTest derives it: 1 for odd r, the maximum of the gap for even r."""
    tau, theta, _ = _bands(t, epsilon)
    y_tau, y_h, _ = _edges(t, epsilon)
    shifts = np.ones(DEGREE_CAP)
    rho = (chi * chi * tau / (tau + theta)) ** (1.0 / np.arange(1, DEGREE_CAP, 2))
    # g rises on all of [tau + theta, 1] when rho = 1
    peak = np.divide(y_h - rho * y_tau, 1.0 - rho, out=np.ones_like(rho),
                     where=rho < 1.0)
    shifts[1::2] = np.minimum(np.maximum(peak, tau + theta), 1.0)
    return shifts


def shifted_test(t, epsilon, chi, s=1):
    """The shifted TightTest of interval t at accuracy epsilon and overlap chi.

    Each power r in [1, DEGREE_CAP] runs at its best shift c_r, the derived
    one of TightTest for even r and c = 1 for odd r. Picks the r that
    minimizes log_test_cost for row sparsity s, ties going to the smaller r,
    so no choice costs more than the low-pass test at c = 1.

    Raises DegreeOverflowError when no candidate separates the bounds (the
    test would need a power above the cap: the chain masses are products of
    r bounds of at most 1/2, so past the cap they head for float underflow),
    and ValidationError when every separating candidate's err is below float
    resolution.
    """
    y_tau, y_h, empty = _edges(t, epsilon)
    chi2 = chi * chi
    if empty:
        return TightTest("shifted", (1.0,), 0, chi2, 0.0)
    powers = np.arange(1, DEGREE_CAP + 1)
    shifts = _best_shifts(t, epsilon, chi)
    # each numerator one difference of c and a band edge, as TightTest proves
    # the bounds: c - y_h alone can round below 1 - c at c = tau + theta
    yes_ratio = (shifts - y_tau) / (1.0 + shifts)
    no_ratio = np.maximum(shifts - y_h, 1.0 - shifts) / (1.0 + shifts)
    log_chi2 = 2.0 * math.log(chi)
    with np.errstate(divide="ignore"):
        log_yes = log_chi2 + powers * np.log(yes_ratio)
        log_ratio = powers * np.log(no_ratio / yes_ratio) - log_chi2
    costs = log_test_cost(log_yes, log_ratio, powers, s)
    best = int(np.argmin(costs))
    if costs[best] == np.inf:
        if not (log_ratio < 0).any():
            raise DegreeOverflowError(
                f"test {t}: the shifted test needs a power above the degree "
                f"cap {DEGREE_CAP} (epsilon {epsilon}, chi {chi})",
                degree_cap=DEGREE_CAP,
            )
        raise ValidationError(
            f"test {t}: the shifted test's gap is below float resolution at "
            f"every power up to {DEGREE_CAP} (epsilon {epsilon}, chi {chi})"
        )
    shift, r = float(shifts[best]), best + 1
    test = TightTest("shifted", (shift,), r, chi2 * float(yes_ratio[best]) ** r,
                     float(no_ratio[best]) ** r)
    # the choice compared logarithms; the recorded bounds are powers
    if not test.err > MIN_ERR:
        raise ValidationError(
            f"test {t}: the shifted gap at c = {shift}, r = {r} is below float "
            f"resolution (epsilon {epsilon}, chi {chi})"
        )
    return test


def _root_table(y_h):
    """(roots, used): row m - 1 of roots holds the m roots
    c_i = (1 + y_h)/2 + ((1 - y_h)/2) cos((2i - 1) pi/(2m)), largest first,
    in the columns where used is True, for every m <= MAX_ROOTS."""
    m = np.arange(1, MAX_ROOTS + 1)[:, None]
    i = np.arange(1, MAX_ROOTS + 1)[None, :]
    angles = (2 * i - 1) * np.pi / (2 * m)
    return (1.0 + y_h) / 2.0 + ((1.0 - y_h) / 2.0) * np.cos(angles), i <= m


def _rounding_moves(y_h):
    """For every m <= MAX_ROOTS, the bound -log(1 - e) (inf for e >= 1) that
    chebyshev_test derives on how far float roots move the log band maximum."""
    eta = (2.0 ** -51 / (1.0 - y_h) if y_h < 1.0 else math.inf) + 14 * 2.0 ** -53
    m = np.arange(1, MAX_ROOTS + 1)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        spread = np.expm1(m * np.log1p(m * m * eta))
        return np.where(spread < 1.0, -np.log1p(-spread), np.inf)


def _chebyshev_log_costs(y_tau, y_h, chi, s):
    """log_test_cost of the Chebyshev product of each m in [1, MAX_ROOTS],
    inf where chebyshev_test refuses m."""
    roots, used = _root_table(y_h)
    m = np.arange(1, MAX_ROOTS + 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_scale = np.where(used, np.log1p(np.abs(roots)), 0.0).sum(axis=1)
        log_q = np.where(used, np.log(roots - y_tau), 0.0).sum(axis=1) - log_scale
    log_yes = 2.0 * math.log(chi) + 2.0 * log_q
    log_no = math.log(4.0) + 2.0 * m * math.log((1.0 - y_h) / 4.0) - 2.0 * log_scale
    cost = log_test_cost(log_yes, log_no - log_yes, 2 * m, s)
    cost[_rounding_moves(y_h) > _ROOT_ROUNDING] = np.inf
    return cost


def chebyshev_test(t, epsilon, chi, m):
    """The Chebyshev TightTest of interval t with m in [1, MAX_ROOTS] roots.

    The no bound holds for the exact roots; the factors run at float ones.
    With u = 2^-53, a = (1 + y_h)/2 and b = (1 - y_h)/2, the float root
    a + b cos(angle) takes eight roundings of at most u (cos within 2u): the
    angle (2i - 1) pi/(2m) lands within 3.01 u pi < 9.5u, its cosine within
    11.5u, b times that within 13.6u b, the centre and the sum within u
    each. So in the band's coordinate x = (y - a)/b each float root is
    within eta = 4u/(1 - y_h) + 14u of its node x_i, where
    p(x) = prod_i (x - x_i) = 2^(1-m) T_m(x) has ||p|| = 2^(1-m) on [-1, 1].
    Round the roots one at a time, p_0 = p, ..., p_m: p_k - p_(k-1) is the
    root's move times p_(k-1)(x)/(x - x_k) = p_(k-1)'(xi) for a xi in
    [-1, 1], x_k being a root of p_(k-1), so Markov's inequality
    |p'| <= m^2 ||p|| gives ||p_k|| <= (1 + m^2 eta) ||p_(k-1)||. Then
    ||p_m - p|| <= e ||p|| for e = (1 + m^2 eta)^m - 1: the float product
    stays below (1 + e) ||p|| on the band and above (1 - e) ||p|| at the
    m + 1 extrema of T_m, so its log band maximum moves by at most
    -log(1 - e). Where that exceeds _ROOT_ROUNDING, ValidationError refuses
    m, as shifted_test refuses a gap below float resolution: every m past
    82, and more as the band narrows (past 51 at 1 - y_h = 0.075, past 3 at
    2e-5, all at width 0). An accepted no bound is within a factor e^(2e-9)
    of the float product's largest value on the band.
    """
    y_tau, y_h, _ = _edges(t, epsilon)
    if _rounding_moves(y_h)[m - 1] > _ROOT_ROUNDING:
        raise ValidationError(
            f"test {t}: rounding the {m} Chebyshev roots of the band "
            f"[{y_h}, 1] to floats can move the log of its largest product by "
            f"more than {_ROOT_ROUNDING} (epsilon {epsilon})"
        )
    roots, used = _root_table(y_h)
    roots = roots[m - 1][used[m - 1]]
    scale = 1.0 + np.abs(roots)
    q_tau = float(np.prod((roots - y_tau) / scale))
    no = 4.0 * ((1.0 - y_h) / 4.0) ** (2 * m) / float(np.prod(scale)) ** 2
    return TightTest("chebyshev", tuple(roots.tolist()), 2 * m,
                     chi * chi * q_tau * q_tau, no)


def tight_test(t, epsilon, chi, s=1):
    """The TightTest of interval t: shifted_test's power or the cheapest
    chebyshev_test over the m in [2, MAX_ROOTS] it accepts, whichever has
    the lower log_test_cost of its recorded bounds, what the preflight
    charges (reps is shared, so it drops out); ties go to the power.

    m = 1 is left out: its one root (1 + y_h)/2 = tau + theta makes it the
    shifted square at c = tau + theta, which the derived shift of r = 2
    never does worse than. shifted_test's refusals stand, so the product
    only ever replaces a runnable test by a cheaper one.
    """
    shifted = shifted_test(t, epsilon, chi, s)
    y_tau, y_h, _ = _edges(t, epsilon)
    if shifted.r == 0 or y_h >= 1.0:
        return shifted
    costs = _chebyshev_log_costs(y_tau, y_h, chi, s)[1:]
    m = int(np.argmin(costs)) + 2
    if costs[m - 2] < np.inf:
        product = chebyshev_test(t, epsilon, chi, m)
        if product.log_cost(s) < shifted.log_cost(s):
            return product
    return shifted


def _threshold_detail(t, decomp_prime, psi, cfg, rng):
    """One test's TestRecord.

    Every sampled test is one estimate_polynomial_transform call, which
    refuses it before any sampling when its plan exceeds the cost cap; the
    breakdown then also names the filter and shift. Under tight the filter
    is tight_test's TightTest, the one-monomial polynomial e_r of its factor
    chain (mass 1, so the budget err is the test's err); otherwise it is the
    rectangle polynomial. Under oracle-exact, decomp_prime may be the scan's
    ChebyshevMoments sequence of psi, so the test takes only the moments
    that earlier tests of the scan have not taken already.
    """
    name, shift = "rectangle", None
    if cfg.policy == "tight":
        P = tight_test(t, cfg.epsilon, cfg.chi, decomp_prime.s)
        factors, eta, name, shift = P.base(decomp_prime), P.err, P.filter, P.shift
    else:
        P = _test_polynomial(t, cfg.epsilon, cfg.chi)
        factors, eta = decomp_prime, cfg.chi * cfg.chi / 4.0
    if cfg.policy == "oracle-exact":
        estimate = exact_sandwich(psi, decomp_prime, psi, polynomial=P)
    else:
        try:
            estimate = estimate_polynomial_transform(
                psi, psi, factors, P, eta, cfg.delta / cfg.interval_count, rng,
                policy=cfg.policy, cost_cap=cfg.cost_cap,
            )
        except CostCapExceeded as exc:
            exc.breakdown.update(filter=name, shift=shift)
            raise
    yes = (estimate.real >= P.midpoint if cfg.policy == "tight"
           else abs(estimate) >= cfg.chi * cfg.chi / 2.0)
    return TestRecord(t, estimate, yes, name, P.degree, shift)


def test_threshold(t, decomp_prime, psi, cfg, rng):
    """Decide whether the ground energy of A' falls below t*epsilon/4.

    decomp_prime must be the normalized (shifted/rescaled) decomposition.
    Returns True for yes.
    """
    T = cfg.interval_count
    t = int(t)
    if not 0 <= t < T:
        raise ValidationError(f"interval index {t} outside [0, {T})")
    return _threshold_detail(t, decomp_prime, psi, cfg, rng).yes


def estimate_smallest_eigenvalue(decomp, psi, cfg, rng):
    """Scan the T intervals bottom-up and return the first accepted one.

    The returned estimate E* = t*(epsilon/2)*kappa - kappa is within
    epsilon*kappa of the smallest eigenvalue with probability 1 - delta,
    provided psi meets the overlap promise. If every test says no (possible
    only through stochastic failure), the top interval is reported and
    no_yes_found is set. psi = None is the normalized trace.
    """
    if psi is not None and psi.dimension != decomp.dimension:
        raise ValidationError(
            f"guiding state dimension {psi.dimension} does not match "
            f"operator dimension {decomp.dimension}"
        )
    kappa = decomp.kappa
    if kappa == 0.0:  # the zero operator: every eigenvalue, and so E*, is 0
        return _estimate_at(cfg, 0.0, 0, samples_used=0, no_yes_found=False,
                            counters=Counters().as_dict())
    prime = shift_rescale(decomp)
    if cfg.policy == "oracle-exact":
        # One reconstruction and one moment sequence per scan: every test
        # reads its filter's moments from it, so the scan costs
        # ceil(max_t d_t / 2) products. reconstruct is looked up on the module
        # at call time, so the benchmark's tracer (bench/measure.py) counts it.
        prime = oracle.ChebyshevMoments(oracle.reconstruct(prime), psi)
    transcript = []
    with recording() as counters:
        for t in range(cfg.interval_count):
            # Spawned as the scan reaches test t: the child streams of spawning
            # all T up front, without their O(T) cost (T = 4e9 at epsilon 1e-9).
            (stream,) = spawn_streams(rng, 1)
            transcript.append(_threshold_detail(t, prime, psi, cfg, stream))
            if transcript[-1].yes:
                break
    # a scan without a yes ends at t = T - 1, the top interval
    return _estimate_at(cfg, kappa, t, samples_used=counters.psi_samples,
                        no_yes_found=not transcript[-1].yes,
                        transcript=tuple(transcript), counters=counters.as_dict())


def _estimate_at(cfg, kappa, t_star, **fields):
    """The EnergyEstimate of a scan that stopped at t_star, with
    E* = t_star*(epsilon/2)*kappa - kappa and the fields it echoes from cfg."""
    return EnergyEstimate(
        e_star=t_star * (cfg.epsilon / 2.0) * kappa - kappa,
        t_star=t_star,
        T=cfg.interval_count,
        kappa=kappa,
        epsilon=cfg.epsilon,
        chi=cfg.chi,
        policy=cfg.policy,
        seed=cfg.seed,
        **fields,
    )


def _coerce_hamiltonian(H):
    if isinstance(H, tuple) and len(H) == 2:
        n, terms = H
        return int(n), list(terms)
    raise ValidationError("expected a (qubit count, local terms) pair; "
                          "load_hamiltonian produces one")


def solve_guided(H, psi, cfg):
    """Ground-energy estimate of a local Hamiltonian with a guiding state.

    H is a (qubit count, local terms) pair; psi is a StateAccessor or any
    spec make_state accepts but the unguided "maxent". Accuracy is epsilon
    times the sum of term norms, at confidence 1 - delta.
    """
    if is_maxent(psi):
        raise StateSpecError("the maxent guide asks for the unguided mode: "
                             "call solve_unguided")
    n, terms = _coerce_hamiltonian(H)
    decomp = build_decomposition(n, terms)
    psi = make_state(psi, n)
    return estimate_smallest_eigenvalue(decomp, psi, cfg, make_generator(cfg.seed))


def doubled_terms(terms, n):
    """Embed n-qubit terms into the 2n-qubit doubled system H (x) I.

    The identity factor acts on the added high qubits, so Pauli strings are
    padded and block supports pass through unchanged.
    """
    return [LocalTerm.from_pauli(term.coeff, term.pauli + "I" * n,
                                 kappa=term.kappa_override)
            if term.is_pauli else term for term in terms]


def solve_unguided(H, cfg):
    """Ground-energy estimate with no guiding state.

    The scan of H (x) I guided by the maximally entangled state, run on H's
    own n-qubit decomposition with psi = None (see the module docstring), so
    it takes n up to build_decomposition's 63. chi is replaced by 2^(-n/2).
    """
    n, terms = _coerce_hamiltonian(H)
    cfg = replace(cfg, chi=2.0 ** (-n / 2.0))
    decomp = build_decomposition(n, terms)
    return estimate_smallest_eigenvalue(decomp, None, cfg, make_generator(cfg.seed))


def decide(H, psi, a, b, cfg):
    """LOW/HIGH decision for the promise E0 <= a*kappa or E0 > b*kappa.

    Runs the estimator at accuracy just under (b-a)/2 and thresholds the
    estimate at the midpoint (a+b)/2*kappa. psi may be "maxent" (or a
    MaxEntState) to request the unguided reduction.
    """
    a, b = float(a), float(b)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise GapError(f"thresholds must be finite, got a = {a!r}, b = {b!r}")
    if b - a <= cfg.epsilon:
        raise GapError(
            f"gap b - a = {b - a!r} must exceed epsilon = {cfg.epsilon}"
        )
    eps_dec = min(1.0, (b - a) / 2.0 - 1e-9)
    if eps_dec <= 0.0:
        raise GapError(f"gap b - a = {b - a!r} is too small to decide")
    cfg_dec = replace(cfg, epsilon=eps_dec)
    if is_maxent(psi):
        estimate = solve_unguided(H, cfg_dec)
    else:
        estimate = solve_guided(H, psi, cfg_dec)
    midpoint = (a + b) / 2.0 * estimate.kappa
    decision = "LOW" if estimate.e_star <= midpoint else "HIGH"
    return DecisionOutcome(decision, estimate, a, b, midpoint)
