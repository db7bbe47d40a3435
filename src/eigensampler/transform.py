"""Sampled estimation of polynomials of a decomposed matrix.

Given a normalized decomposition A = sum_i A_i with sum_i kappa_i = 1, a power
r is sampled by drawing an index chain x in [m]^r with mass
q(x) = kappa_{x_1} ... kappa_{x_r} and one guiding-state index j with
probability |psi_j|^2. The single-chain sample

    Y_r = (A_{x_r} ... A_{x_1} phi)_j / (psi_j q(x))

has mean <psi| A^r |phi> and second moment at most 1 for a unit phi, because
each ||A_i|| <= kappa_i. Its numerator is one entry of a sparse chain
product, evaluated by imm.ChainKernel from at most s^r leaf queries of phi.

A polynomial P(A) = sum_r a_r A^r is estimated by one stratified estimator:
every batch gives power r a fixed number of chains, proportional to |a_r|,
and returns sum_r a_r times the mean of that stratum. One median
amplification covers the whole polynomial; estimate_polynomial_transform
proves the bound. A single power is the one-stratum case (estimate_power),
and predict_cost charges the same strata before any sampling starts.
"""

import itertools
import math

import numpy as np

from .errors import CostCapExceeded, UndefinedRatioError, ValidationError
# chain_entry stays a module attribute, so instrumentation can patch it.
from .imm import ChainKernel, chain_entry  # noqa: F401
from .polyfilter import coefficient_l1
from .state_access import median_amplify, median_reps

_KAPPA_TOL = 1e-9

POLICIES = ("strict", "tight", "oracle-exact")


class ChainSampler:
    """Product distribution over index chains of a normalized decomposition.

    Each of the r coordinates is drawn independently with P(i) = kappa_i, so
    a chain x has mass q(x) = prod_j kappa_{x_j} and the masses sum to 1.
    Indices are 0-based.
    """

    def __init__(self, decomp, r):
        if abs(decomp.kappa - 1.0) > _KAPPA_TOL:
            raise ValidationError(
                f"chain sampling needs a normalized decomposition "
                f"(kappa = {decomp.kappa!r})"
            )
        r = int(r)
        if r < 0:
            raise ValidationError(f"power must be nonnegative, got {r}")
        self.decomp = decomp
        self.r = r
        probs = np.asarray(decomp.kappa_i, dtype=float)
        self._probs = probs / probs.sum()

    @property
    def m(self):
        return self.decomp.m

    def probability(self, x):
        """Mass q(x) of one chain, from the exact norm bounds."""
        kappas = self.decomp.kappa_i
        out = 1.0
        for idx in np.asarray(x, dtype=np.int64).ravel():
            out *= kappas[int(idx)]
        return out

    def sample_many(self, rng, count, counters=None):
        """Draw `count` chains as a (count, r) index array."""
        if counters is not None:
            counters.add(chain_samples=count)
        if self.r == 0:
            return np.empty((count, 0), dtype=np.int64)
        draws = rng.choice(self.m, size=(count, self.r), p=self._probs)
        return draws.astype(np.int64, copy=False)


def sample_chain(sampler, rng):
    """One index chain x in [m]^r under the product distribution."""
    return sampler.sample_many(rng, 1)[0]


def _chain_masses(decomp, chains):
    if chains.shape[1] == 0:
        return np.ones(chains.shape[0])
    kappas = np.asarray(decomp.kappa_i, dtype=float)
    return np.prod(kappas[chains], axis=1)


def _check_budget(name, value):
    if not 0 < value <= 1:
        raise ValidationError(f"{name} must be in (0, 1], got {value}")


def estimate_power(psi, phi, decomp, r, err, delta, rng, counters=None):
    """Estimate <psi| A^r |phi> within err with probability >= 1 - delta.

    Requires the normalized decomposition (kappa = 1). This is the
    one-stratum case of the stratified estimator: each batch draws
    t = ceil(64 / err^2) chains of length r, then t guiding-state indices,
    and the batches are median-combined.
    """
    _check_budget("err", err)
    _check_budget("delta", delta)
    return _estimate_strata(psi, phi, decomp, {int(r): 1.0}, err, delta, rng,
                            counters)


def _estimate_strata(psi, phi, decomp, coeffs, err, delta, rng, counters):
    """Median of batches of sum_r a_r * mean(Y_r over c_r chains).

    coeffs maps each power r to its nonzero coefficient a_r, and c_r comes
    from chain_counts. A batch draws every stratum's chains in order of r,
    then one guiding-state index per chain.
    """
    _, t = batch_shape(err, delta)
    counts = chain_counts(coeffs, t)
    if not counts:
        return 0j
    strata = [(ChainSampler(decomp, r), float(coeffs[r]), c) for r, c in counts.items()]
    bounds = list(itertools.accumulate(counts.values(), initial=0))
    spans = list(zip(bounds, bounds[1:]))
    total = bounds[-1]
    kernel = ChainKernel(decomp.terms)

    def one_batch(stream):
        chains = [sampler.sample_many(stream, c, counters) for sampler, _, c in strata]
        j = psi.sample_many(stream, total)
        amps = np.asarray(psi.query_many(j), dtype=complex)
        if counters is not None:
            counters.add(psi_samples=total, psi_queries=total)
        vals = np.concatenate([kernel.values(x, j[lo:hi], phi, counters)
                               for x, (lo, hi) in zip(chains, spans)])
        masses = np.concatenate([_chain_masses(decomp, x) for x in chains])
        dead = amps == 0
        if np.any(dead):
            bad = dead & (vals != 0)
            if np.any(bad):
                raise UndefinedRatioError(int(j[np.argmax(bad)]))
            amps = np.where(dead, 1.0, amps)
            vals = np.where(dead, 0.0, vals)
        ys = vals / (amps * masses)
        value = None
        for (_, a, _), (lo, hi) in zip(strata, spans):
            mean = np.mean(ys[lo:hi])
            # Scale each part on its own, so a == 1 leaves the mean bit for bit.
            term = complex(a * mean.real, a * mean.imag)
            value = term if value is None else value + term
        return value

    return median_amplify(one_batch, delta, rng, total)


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


def batch_shape(err, delta):
    """(reps, t): the median repetitions, and the chains per batch of a
    single power."""
    return median_reps(delta), math.ceil(64.0 / (err * err))


def chain_counts(coeffs, t):
    """Chains per batch of each power: c_r = ceil(t |a_r| / L1), at least 1.

    coeffs maps each power r to a_r; zero coefficients get no stratum.
    With L1 = sum_r |a_r|, a single power gets exactly t chains.
    """
    coeffs = {r: abs(float(a)) for r, a in coeffs.items() if a != 0}
    l1 = sum(coeffs.values())
    return {r: max(1, math.ceil(t * a / l1)) for r, a in sorted(coeffs.items())}


def power_cost(decomp, r, reps, count):
    """Planned leaf operations of the power-r stratum: reps batches of count
    chains, each charged max(r, 1) * s^r (r index draws, and a frontier of
    at most s^r leaves). Saturates to inf."""
    return float(reps) * float(count) * max(r, 1) * _power_pow(max(decomp.s, 1), r)


def _predict_strata(decomp, coeffs, err, delta):
    reps, t = batch_shape(err, delta)
    counts = chain_counts(coeffs, t)
    per_power = {r: power_cost(decomp, r, reps, c) for r, c in counts.items()}
    breakdown = {
        "err_per_power": err,
        "reps_per_power": reps,
        "chains_per_batch": float(sum(counts.values())),
        "chains_per_power": counts,
        "per_power": per_power,
    }
    return sum(per_power.values(), 0.0), breakdown


def predict_power_cost(decomp, r, err, delta):
    """Planned leaf operations of one estimate_power call.

    Returns (total, breakdown), with the breakdown in predict_cost's shape
    for a polynomial whose only power is r. Because each chain is charged
    its r index draws, the cap also bounds the (t, r) chain arrays a batch
    holds.
    """
    total, breakdown = _predict_strata(decomp, {int(r): 1.0}, err, delta)
    return total, {"degree": r, **breakdown}


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
    total, breakdown = _predict_strata(decomp, _coefficients(P), err, delta_total)
    return total, {"policy": policy, "degree": P.degree, **breakdown}


def _coefficients(P):
    return dict(enumerate(P.coeffs[:P.degree + 1]))


def estimate_polynomial_transform(psi, phi, decomp, P, eta, delta_total, rng,
                                  policy="tight", cost_cap=None, counters=None):
    """Estimate <psi| P(A) |phi> within eta with probability >= 1 - delta_total.

    P is evaluated through its monomial coefficients a_r by one stratified
    estimator. With err = power_error_budget(P, eta, policy),
    t = ceil(64 / err^2) and L1 = sum_r |a_r|, every batch draws
    c_r = ceil(t |a_r| / L1) single-chain samples Y_r of each power with
    a_r != 0 and returns Z = sum_r a_r * mean(stratum r). The batches are
    median-combined by median_amplify at delta_total, once for the whole
    polynomial.

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

    When cost_cap is given, the predicted leaf-operation count is checked
    first and CostCapExceeded carries the full breakdown.
    """
    _check_budget("eta", eta)
    _check_budget("delta_total", delta_total)
    if cost_cap is not None:
        predicted, breakdown = predict_cost(decomp, P, eta, delta_total, policy=policy)
        if predicted > cost_cap:
            raise CostCapExceeded(predicted, cost_cap, breakdown)
    err = power_error_budget(P, eta, policy)
    return _estimate_strata(psi, phi, decomp, _coefficients(P), err, delta_total,
                            rng, counters)
