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
proves the bound. A single power is the one-stratum case (estimate_power,
and a tight threshold test). One plan sizes the strata before any sampling:
predict_cost charges it, and the sampler draws exactly its chain counts.
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
    clear_dead_amplitudes,
    median_amplify,
    median_reps,
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
    _, plan = _predict_strata(decomp, coeffs, err, delta)
    return _estimate_strata(psi, phi, decomp, coeffs, plan["chains_per_power"],
                            delta, rng)


def _estimate_strata(psi, phi, decomp, coeffs, counts, delta, rng):
    """Median of batches of sum_r a_r * mean(Y_r over c_r chains).

    coeffs maps each power r to its nonzero coefficient a_r, and counts maps
    it to the c_r of the plan (_predict_strata). decomp is one decomposition
    or a list of factors, as ChainSampler takes it; every stratum indexes
    the same concatenated terms. A batch draws every stratum's chains in
    order of r, then one guiding-state index per chain (uniform for
    psi = None, see eigensolve). Raises ValidationError, before drawing
    anything, when a stratum's index array is past numpy's size limit.
    """
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


# Chains per batch of a power: ceil(CHAIN_SCALE / err^2), no finite float below MIN_ERR.
CHAIN_SCALE = 64.0
MIN_ERR = 1e-150


def batch_shape(err, delta):
    """(reps, t): the median repetitions, and the chains per batch of a
    single power. Raises ValidationError when t overflows a float."""
    return median_reps(delta), samples_per_batch(CHAIN_SCALE, err, "err")


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
    chains, each charged max(r, 1) * s^r (r index draws, at most s^r leaves,
    s the row sparsity, the largest of a factor list's). Saturates to inf."""
    s = max(f.s for f in decomp) if isinstance(decomp, (list, tuple)) else decomp.s
    return float(reps) * float(count) * max(r, 1) * _power_pow(max(s, 1), r)


def log_test_cost(log_yes, log_ratio, r, s):
    """log(ceil(64/err^2) * max(r, 1) * s^r), what power_cost charges a test
    of power r and row sparsity s per repetition, at err = (yes - no)/4 for
    float arrays log_yes = log(yes) and log_ratio = log(no/yes) of one shape,
    in logarithms so nothing overflows; inf where the bounds do not separate
    or err <= MIN_ERR."""
    usable = log_ratio < 0.0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # one buffer holds log(err), then ceil(64/err^2), then the log cost
        cost = np.log1p(-np.exp(log_ratio))
        cost += log_yes
        cost -= math.log(4.0)
        usable &= cost > math.log(MIN_ERR)
        cost *= -2.0
        np.exp(cost, out=cost)
        cost *= CHAIN_SCALE
        np.ceil(cost, out=cost)
        np.log(cost, out=cost)
        cost += np.log(np.maximum(r, 1)) + r * math.log(max(s, 1))
    cost[~usable] = np.inf
    return cost


def _predict_strata(decomp, coeffs, err, delta):
    """The plan of a stratified estimate: (predicted leaf ops, breakdown),
    whose chains_per_power are the counts the sampler draws."""
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

    The plan is made once: cost_cap, when given, is checked against its
    total (CostCapExceeded carries its breakdown), and the sampler draws
    exactly its counts. decomp may be a factor list, as ChainSampler takes
    it: a tight threshold test is P = e_r over its factor chain, err = eta.
    When counters is given, the run records into it (instrument.recording);
    otherwise it records into the active recorder, if any.
    """
    _check_budget("eta", eta)
    _check_budget("delta_total", delta_total)
    predicted, plan = predict_cost(decomp, P, eta, delta_total, policy=policy)
    if cost_cap is not None and predicted > cost_cap:
        raise CostCapExceeded(predicted, cost_cap, plan)
    with nullcontext() if counters is None else instrument.recording(counters):
        return _estimate_strata(psi, phi, decomp, _coefficients(P),
                                plan["chains_per_power"], delta_total, rng)
