"""Sampled estimation of polynomials of a decomposed matrix.

Given a normalized decomposition A = sum_i A_i with sum_i kappa_i = 1, a power
r is sampled by drawing an index chain x in [m]^r with mass
q(x) = kappa_{x_1} ... kappa_{x_r} and one guiding-state index j with
probability |psi_j|^2. The single-chain sample

    Y_r = (A_{x_r} ... A_{x_1} phi)_j / (psi_j q(x))

has mean <psi| A^r |phi> and second moment at most 1 for a unit phi, because
each ||A_i|| <= kappa_i. Its numerator is one entry of a sparse chain
product, evaluated by imm.ChainKernel from at most s^r leaf queries of phi.

Every chain on this path is a row of term indices: ChainSampler draws them
as a (t, r) array and gives their masses, and ChainKernel evaluates them.
The columns may also cycle through several normalized factors F_1, ..., F_k,
each column drawing from its own factor's bounds; the same argument, factor
by factor, makes the sample unbiased for <psi| F_k ... F_1 |phi> (for
r = k) with second moment at most 1.

A polynomial P(A) = sum_r a_r A^r is estimated by one stratified estimator:
every batch gives power r a fixed number of chains, proportional to |a_r|,
and returns sum_r a_r times the mean of that stratum. One median
amplification covers the whole polynomial; estimate_polynomial_transform
proves the bound. A single power is the one-stratum case (estimate_power).
One preflight plans every sampled estimate before it draws: it sizes the
strata, charges them (predict_cost returns that plan), refuses a plan past
the cost cap, and the sampler then draws exactly its chain counts.

A tight threshold test is one power too, but it only makes a decision: is
Re <psi|f|psi> at or above the midpoint of bounds yes > no, when the truth
is at least yes or at most no? The midpoint sits e = (yes - no)/2 from
both bounds, so estimate_threshold_test sizes the test for that one-sided
margin (decision_shape), the median-of-means argument of Jerrum, Valiant and
Vazirani (1986), with the constants of Lugosi and Mendelson (2019):

* One batch. Var(Re Y) <= E|Y|^2 <= 1, so the real part of a mean of
  t = ceil(8/e^2) chains has variance at most 1/t, and by Cantelli's
  inequality it lands at least e from the truth on the wrong side with
  probability at most (1/t)/(1/t + e^2) = 1/(1 + t e^2) <= 1/9.
* The median. np.median of K batches is on the wrong side only if at least
  K/2 batches are (for even K it averages the two middle ones, so one of
  them is). The batches are independent, so by the Chernoff bound on the
  binomial tail that has probability at most exp(-K D(1/2 || 1/9)), at most
  delta for K = ceil(ln(1/delta) / D(1/2 || 1/9)), D(1/2 || 1/9) =
  ln(81/32)/2, about 2.154 ln(1/delta) batches.

That is about 260 times fewer chains than a complex estimate within
(yes - no)/4, whose batches median_reps and ceil(64/err^2) size.

For some guides every sample is bounded, and then one batch and a one-sided
Hoeffding bound (Hoeffding 1963) do with about 8.6 times fewer chains
(state_access.bounded_samples says which pairs of guide and
decomposition qualify):

* The guides. Under psi = None, the normalized trace, Y = (F_x)_aa / q(x)
  for a uniform start row a. Under a BasisState |b>, j = b and phi = psi,
  so Y = (F_x)_bb / q(x). Under a MaxEntState on the doubled system, with
  j = i + (i << n), Y = (F_x)_ii / q(x) when every term acts on the first
  register only: each leaf then keeps the high half i, and its amplitude is
  nonzero only where its low half is i too, with the ratio 1. A term that
  touches the second register moves the high half, the leaves reach other
  diagonal pairs, and Y can grow to about 2^(n/2); such a pair, and every
  other guide, keeps the median count.
* The bound. No entry of F_x exceeds prod_j ||F_{x_j}||, and each stored
  bound kappa_i is at least its term's computed norm (build_decomposition),
  so |Re Y| <= |Y| <= 1 in exact arithmetic, and |Re Y| <= B =
  sample_bound(r, s) in floats (its docstring accounts for the rounding).
* The count. The t samples of one batch are independent and lie in
  [-B, B], so by Hoeffding's inequality their mean lands e or more below
  its expectation (or above it) with probability at most
  exp(-t e^2 / (2 B^2)), at most delta for the least t with
  t e^2 / (2 B^2) >= ln(1/delta), which decision_shape computes exactly.
  That is about 2 ln(1/delta)/e^2 chains against the median's
  K ceil(8/e^2), about 17.2 ln(1/delta)/e^2. One batch has no median, so
  it runs on one thread and holds all of its (t, r) chain indices at once.
"""

import itertools
import math
from contextlib import nullcontext

import numpy as np

from . import instrument
from .errors import CostCapExceeded, ValidationError
from .hamiltonian import KAPPA_TOL, Decomposition
# chain_entry stays a module attribute, so instrumentation can patch it.
from .imm import ChainKernel, chain_entry  # noqa: F401
from .polyfilter import coefficient_l1
from .state_access import (
    bounded_samples,
    clear_dead_amplitudes,
    hoeffding_samples,
    median_of,
    median_reps,
    repetitions,
    samples_per_batch,
)


POLICIES = ("strict", "tight", "oracle-exact")


class ChainSampler:
    """Product distribution over index chains of normalized factors.

    A chain is a row of r term indices (0-based), column 0 applied first, as
    imm.ChainKernel reads it, into the concatenated terms of the factors
    (self.terms). factors is one normalized Decomposition, or a list
    F_1, ..., F_k of them that the columns cycle through: column j draws from
    F_(j mod k)+1, with P(i) = kappa_i of that factor, offset by the term
    counts of the factors before it. A chain x has mass
    q(x) = prod_j kappa_{x_j}, and the masses sum to 1. One factor is the
    power A^r. sample_many draws chains as the rows of a (t, r) array, and
    masses gives their q(x).
    """

    def __init__(self, factors, r):
        factors = [factors] if isinstance(factors, Decomposition) else list(factors)
        if not factors:
            raise ValidationError("chain sampling needs at least one factor")
        for decomp in factors:
            if abs(decomp.kappa - 1.0) > KAPPA_TOL:
                raise ValidationError(
                    f"chain sampling needs normalized decompositions "
                    f"(kappa = {decomp.kappa!r})"
                )
        r = int(r)
        if r < 0:
            raise ValidationError(f"power must be nonnegative, got {r}")
        self.factors = factors
        self.r = r
        self.dimension = factors[0].dimension
        self.terms = [h for decomp in factors for h in decomp.terms]
        kappas = [np.asarray(decomp.kappa_i, dtype=float) for decomp in factors]
        self._kappa = np.concatenate(kappas)
        self._probs = [k / k.sum() for k in kappas]
        self._offsets = np.cumsum([0] + [k.size for k in kappas[:-1]])

    def masses(self, chains):
        """Masses q(x) of a (t, r) array of chains: 1 each when r = 0."""
        return np.prod(self._kappa[chains], axis=1)

    def sample_many(self, rng, count):
        """Draw `count` chains as a (count, r) index array. The columns of one
        factor are drawn together, in one rng.choice call per factor."""
        instrument.add(chain_samples=count)
        k = len(self.factors)
        chains = np.empty((count, self.r), dtype=np.int64)
        for f, (probs, offset) in enumerate(zip(self._probs, self._offsets)):
            columns = chains[:, f::k]
            if columns.shape[1]:
                draws = rng.choice(probs.size, size=columns.shape, p=probs)
                np.add(draws, offset, out=columns)
        return chains


def _check_budget(name, value):
    if not 0 < value <= 1:
        raise ValidationError(f"{name} must be in (0, 1], got {value}")


def estimate_power(psi, phi, decomp, r, err, delta, rng):
    """Estimate <psi| A^r |phi> within err with probability >= 1 - delta.

    decomp is a normalized decomposition (kappa = 1) of A, or a list of
    normalized factors F_1, ..., F_k whose r chain columns cycle through them
    (see ChainSampler), so that r = p k estimates <psi|(F_k ... F_1)^p|phi>.
    This is the one-stratum case of the stratified estimator: each batch
    draws t = ceil(64 / err^2) chains of length r, then t guiding-state
    indices, and the batches are median-combined.
    """
    _check_budget("err", err)
    _check_budget("delta", delta)
    coeffs = {int(r): 1.0}
    _, plan = _preflight(decomp, coeffs, batch_shape(err, delta), {})
    return _estimate_strata(psi, phi, decomp, coeffs, plan, rng)


def _estimate_strata(psi, phi, decomp, coeffs, plan, rng):
    """Median of reps batches of sum_r a_r * mean(Y_r over c_r chains).

    coeffs maps each power r to its coefficient a_r, and the plan of
    _preflight gives each nonzero one's c_r (chains_per_power) and the reps
    batches (reps_per_power, state_access.median_of). decomp is one
    decomposition or a list of factors, as ChainSampler takes it; every
    stratum indexes the same concatenated terms. A batch draws every
    stratum's chains in order of r, then one guiding-state index per chain
    (uniform for psi = None, see eigensolve). Raises ValidationError, before
    drawing anything, when a stratum's index array is past numpy's size
    limit.
    """
    counts, reps = plan["chains_per_power"], plan["reps_per_power"]
    if not counts:
        return 0j
    for r, c in counts.items():
        # The int64 index array of a stratum, (c, r) chains or c draws.
        size = c * max(r, 1) * 8
        if size > np.iinfo(np.intp).max:
            raise ValidationError(
                f"a batch of {c} chains of power {r} needs a {size}-byte "
                f"index array, past the largest array numpy can hold"
            )
    strata = [(ChainSampler(decomp, r), float(coeffs[r]), c) for r, c in counts.items()]
    bounds = list(itertools.accumulate(counts.values(), initial=0))
    spans = list(zip(bounds, bounds[1:]))
    total = bounds[-1]
    kernel = ChainKernel(strata[0][0].terms)
    dimension = strata[0][0].dimension

    def one_batch(stream):
        chains = [sampler.sample_many(stream, c) for sampler, _, c in strata]
        if psi is None:  # the normalized trace: a uniform start row, weight 1
            j = stream.integers(0, dimension, size=total)
            amps = np.ones(total, dtype=complex)
        else:
            j = psi.sample_many(stream, total)
            amps = np.asarray(psi.query_many(j), dtype=complex)
        instrument.add(psi_samples=total, psi_queries=total)
        vals = np.concatenate([kernel.values(x, j[lo:hi], phi)
                               for x, (lo, hi) in zip(chains, spans)])
        masses = np.concatenate([sampler.masses(x)
                                 for (sampler, _, _), x in zip(strata, chains)])
        amps, vals = clear_dead_amplitudes(j, amps, vals)
        ys = vals / (amps * masses)
        value = None
        for (_, a, _), (lo, hi) in zip(strata, spans):
            mean = np.mean(ys[lo:hi])
            # Scale each part on its own, so a == 1 leaves the mean bit for bit.
            term = complex(a * mean.real, a * mean.imag)
            value = term if value is None else value + term
        return value

    return median_of(one_batch, reps, rng, total)


def _power_pow(base, exponent):
    try:
        return float(base) ** int(exponent)
    except OverflowError:
        return math.inf


def power_error_budget(P, eta, policy):
    """Error target err of the strata, for the given budget policy.

    The stratified estimate lands within coefficient_l1(P) * err: tight sets
    err = eta / coefficient_l1(P); strict divides by the worst-case mass
    4^degree instead.
    """
    if policy == "strict":
        denom = _power_pow(4.0, P.degree)
    elif policy == "tight":
        denom = coefficient_l1(P)
    else:
        raise ValidationError(f"unknown policy {policy!r}")
    if denom == 0:
        return 1.0
    return min(1.0, eta / denom)


# Chains per batch of a power: ceil(CHAIN_SCALE / err^2) for an estimate,
# ceil(DECISION_SCALE / e^2) for a decision at margin e; no finite float
# below MIN_ERR for either.
CHAIN_SCALE = 64.0
DECISION_SCALE = 8.0
MIN_ERR = 1e-150
# D(1/2 || 1/9) = ln(81/32)/2, the Chernoff exponent of the median of
# decision batches that each fail with probability at most 1/9.
DECISION_DIVERGENCE = 0.5 * math.log(81.0 / 32.0)


def batch_shape(err, delta):
    """(reps, t): the median repetitions, and the chains per batch of a
    single power. Raises ValidationError when t overflows a float."""
    return median_reps(delta), samples_per_batch(CHAIN_SCALE, err, "err")


def decision_shape(gap, delta, bound=None):
    """(reps, t) of a threshold test whose bounds are gap apart, wrong with
    probability at most delta (see the module docstring), at margin
    e = gap/2. With bound None, K = ceil(ln(1/delta) / D(1/2 || 1/9))
    batches of t = ceil(8/e^2) chains; with samples bounded by B = bound
    (sample_bound), one batch of the least t >= 1 with
    t e^2 / (2 B^2) >= ln(1/delta). Raises ValidationError when 1/delta or
    t overflows a float."""
    if bound is not None:
        return 1, hoeffding_samples(bound, gap / 2.0, delta, "margin")
    reps = repetitions(delta, 1.0 / DECISION_DIVERGENCE,
                       "ceil(ln(1/delta) / D(1/2 || 1/9))")
    return reps, samples_per_batch(DECISION_SCALE, gap / 2.0, "margin")


def sample_bound(r, s):
    """B = exp(r 2^-32) (1 + (s^r - 1) s^r 2^-50), at least |Y| for every
    chain of r factors of row sparsity at most s under a bounded guide
    (state_access.bounded_samples), float rounding included; elementwise for an array r,
    inf where s^r overflows.

    In exact arithmetic |Y| <= 1 (the module docstring). With u = 2^-53:
    * Each factor gets a relative slack of 2^-32, far above what rounding
      adds per factor: the stored entries and bounds, scaled by at most
      three rounded factors (shift_rescale, shifted_operator), move a norm
      by at most 2^(k/2) 4u <= 2^-45 for a block of k <= DENSE_TERM_LIMIT
      qubits; LAPACK puts a block's computed norm within a small multiple of
      its dimension 2^k <= 2^12 times u of the true one; a leaf takes at
      most two complex products per factor, each within 2^1.5 u; the mass
      q(x) and the final division take one rounding per factor. A block
      past DENSE_TERM_LIMIT qubits has no computed norm, and its KAPPA_I
      override is taken on trust.
    * A chain has at most s^r leaves, each at most prod_j ||F_{x_j}|| in
      size, as no entry exceeds the norm. Summing them adds at most
      (s^r - 1) u s^r times that, and their products' own rounding at most
      6 r u s^r times it, which for s >= 2 is below 6 (s^r - 1) u s^r. With
      s = 1 there is one leaf and nothing is summed.
    """
    r = np.asarray(r, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        leaves = float(max(s, 1)) ** r
        return np.exp(r * 2.0 ** -32) * (1.0 + (leaves - 1.0) * leaves * 2.0 ** -50)


def chain_counts(coeffs, t):
    """Chains per batch of each power: c_r = ceil(t |a_r| / L1), at least 1.

    coeffs maps each power r to a_r; zero coefficients get no stratum.
    With L1 = sum_r |a_r|, a single power gets exactly t chains.
    """
    coeffs = {r: abs(float(a)) for r, a in coeffs.items() if a != 0}
    l1 = sum(coeffs.values())
    return {r: max(1, math.ceil(t * a / l1)) for r, a in sorted(coeffs.items())}


def _sparsity(decomp):
    """Row sparsity s of a decomposition, the largest of a factor list's."""
    return max(f.s for f in decomp) if isinstance(decomp, (list, tuple)) else decomp.s


def power_cost(decomp, r, reps, count):
    """Planned leaf operations of the power-r stratum: reps batches of count
    chains, each charged max(r, 1) * s^r (r index draws, at most s^r leaves,
    s the row sparsity, the largest of a factor list's). Saturates to inf."""
    return float(reps) * float(count) * max(r, 1) * _power_pow(max(_sparsity(decomp), 1), r)


def log_test_cost(log_yes, log_ratio, r, s, bounded_delta=None):
    """log(ceil(c/e^2) * max(r, 1) * s^r), what power_cost charges a
    threshold test of power r and row sparsity s per repetition under
    decision_shape, at margin e = (yes - no)/2 for float arrays
    log_yes = log(yes) and log_ratio = log(no/yes) of one shape, in
    logarithms so nothing overflows; inf where the bounds do not separate
    or e <= MIN_ERR. With bounded_delta None the scale c is 8, and the
    repetitions K, the same for every test of a scan, drop out of any
    comparison. For samples bounded by B = sample_bound(r, s), tested at
    delta = bounded_delta, c = 2 B^2 ln(1/delta) and there is one batch.

    The count is the decision's, not an estimate's (the module docstring
    proves it). It is the float ceil(c exp(-2 log e)), so it may differ from
    the exact count that decision_shape charges: by at most one chain per
    batch, either way, while that count is below 2^40, and by float
    rounding's relative share above it.
    """
    usable = log_ratio < 0.0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        scale = DECISION_SCALE
        if bounded_delta is not None:
            scale = 2.0 * sample_bound(r, s) ** 2 * -math.log(bounded_delta)
        # one buffer holds log(e), then ceil(8/e^2), then the log cost
        cost = np.log1p(-np.exp(log_ratio))
        cost += log_yes
        cost -= math.log(2.0)
        usable &= cost > math.log(MIN_ERR)
        cost *= -2.0
        np.exp(cost, out=cost)
        cost *= scale
        np.ceil(cost, out=cost)
        np.log(cost, out=cost)
        cost += np.log(np.maximum(r, 1)) + r * math.log(max(s, 1))
    cost[~usable] = np.inf
    return cost


def _preflight(decomp, coeffs, shape, header, cost_cap=None):
    """The plan of a stratified estimate of batch shape (reps, t), made once
    before any sampling: (predicted leaf ops, breakdown). The breakdown is
    header followed by reps_per_power, chains_per_batch, chains_per_power and
    per_power; _estimate_strata draws exactly its reps_per_power batches of
    chains_per_power chains. Raises CostCapExceeded, carrying the breakdown,
    when the total is past cost_cap: the one cap check of every sampled
    estimate."""
    reps, t = shape
    counts = chain_counts(coeffs, t)
    per_power = {r: power_cost(decomp, r, reps, c) for r, c in counts.items()}
    plan = {**header, "reps_per_power": reps,
            "chains_per_batch": float(sum(counts.values())),
            "chains_per_power": counts, "per_power": per_power}
    predicted = sum(per_power.values(), 0.0)
    if cost_cap is not None and predicted > cost_cap:
        raise CostCapExceeded(predicted, cost_cap, plan)
    return predicted, plan


def predict_cost(decomp, P, eta, delta_total, policy="tight"):
    """Planned leaf-operation count for a polynomial transform, pre-run.

    Returns (total, breakdown). The total is reps * sum_r c_r * max(r, 1) *
    s^r over the strata of estimate_polynomial_transform; the breakdown
    records the error target, the shared repetitions, the chains per batch
    in all and per power, and each power's share of the total. Powers with
    zero coefficient cost nothing. Values saturate to inf rather than
    overflow.
    """
    err = power_error_budget(P, eta, policy)
    return _preflight(decomp, _coefficients(P), batch_shape(err, delta_total),
                      {"policy": policy, "degree": P.degree, "err_per_power": err})


def _coefficients(P):
    return dict(enumerate(P.coeffs[:P.degree + 1]))


def estimate_polynomial_transform(psi, phi, decomp, P, eta, delta_total, rng,
                                  policy="tight", cost_cap=None, counters=None):
    """Estimate <psi| P(A) |phi> within eta with probability >= 1 - delta_total.

    P is evaluated through its monomial coefficients a_r by one stratified
    estimator. With err = power_error_budget(P, eta, policy),
    t = ceil(64 / err^2) and L1 = sum_r |a_r|, every batch draws
    c_r = ceil(t |a_r| / L1) single-chain samples Y_r of each power with
    a_r != 0 and returns Z = sum_r a_r * mean(stratum r). The
    median_reps(delta_total) batches are median-combined coordinate-wise
    (state_access.median_of), once for the whole polynomial.

    Why this keeps the guarantee. Each Y_r is unbiased for <psi|A^r|phi>,
    so Z is unbiased for <psi|P(A)|phi>. The strata are independent and
    E|Y_r|^2 <= 1, so

        Var Z <= sum_r a_r^2 / c_r <= sum_r a_r^2 L1 / (t |a_r|) = L1^2 / t
              <= (L1 err)^2 / 64,

    the total error L1 err that separate per-power estimates at error err
    would add up to. By Chebyshev, Z lands within L1 err / sqrt(2) with
    probability at least 31/32, so the coordinate-wise median of
    median_reps(delta_total) batches lands within L1 err except with
    probability delta_total. L1 err is at most eta: equal under tight, and
    below it under strict whenever L1 <= 4^degree. The strata are fixed,
    not drawn, so the cost
    reps * sum_r c_r * max(r, 1) * s^r that predict_cost charges is known
    before sampling and does not depend on luck.

    The plan is made once: cost_cap, when given, is checked against its
    total (CostCapExceeded carries its breakdown), and the sampler draws
    exactly its counts. decomp may be a factor list, as ChainSampler takes
    it. When counters is given, the run records into it (instrument.recording);
    otherwise it records into the active recorder, if any.
    """
    _check_budget("eta", eta)
    _check_budget("delta_total", delta_total)
    err = power_error_budget(P, eta, policy)
    coeffs = _coefficients(P)
    _, plan = _preflight(decomp, coeffs, batch_shape(err, delta_total),
                         {"policy": policy, "degree": P.degree, "err_per_power": err},
                         cost_cap)
    with nullcontext() if counters is None else instrument.recording(counters):
        return _estimate_strata(psi, phi, decomp, coeffs, plan, rng)


def estimate_threshold_test(psi, decomp_prime, test, delta, rng, cost_cap=None):
    """Estimate <psi| f |psi> for a tight threshold test f, so that its real
    part lies on the right side of test.midpoint with probability at least
    1 - delta (the decision of the module docstring).

    test is an eigensolve.TightTest with bounds yes_bound > no_bound: the
    power r = test.r of its factor chain test.base(decomp_prime), one
    stratum. It is planned once at decision_shape(yes_bound - no_bound,
    delta, bound), with bound = sample_bound(r, s) when bounded_samples(psi,
    decomp_prime) and None otherwise: cost_cap, when given, is checked
    against the plan's total (CostCapExceeded carries its breakdown, whose
    err_per_power is the margin e), and the sampler draws exactly its
    counts.
    """
    _check_budget("delta", delta)
    factors = test.base(decomp_prime)
    coeffs = {test.r: 1.0}
    bound = (float(sample_bound(test.r, _sparsity(factors)))
             if bounded_samples(psi, decomp_prime) else None)
    _, plan = _preflight(factors, coeffs,
                         decision_shape(test.yes_bound - test.no_bound, delta, bound),
                         {"policy": "tight", "degree": test.degree,
                          "err_per_power": test.margin}, cost_cap)
    return _estimate_strata(psi, psi, factors, coeffs, plan, rng)
