"""Sampled estimation of powers and polynomials of a decomposed matrix.

Given a normalized decomposition A = sum_i A_i with sum_i kappa_i = 1, a power
r is estimated by importance sampling over index chains x in [m]^r with mass
q(x) = kappa_{x_1} ... kappa_{x_r}: the chain contribution
<psi| A_{x_r} ... A_{x_1} |phi> / q(x) has mean <psi| A^r |phi> and second
moment at most 1. A polynomial transform sums per-power estimates weighted by
the monomial coefficients, with the error budget split per power.

Three ways to evaluate the chain contribution are kept, because their costs
differ by many orders of magnitude:

  * "single"  one guiding-state draw per chain; the two sampling layers
              collapse into one unbiased estimator whose batch of
              t = ceil(64/e^2) samples lands within e/sqrt(2) at odds 31/32.
  * "nested"  a full sandwich estimate per chain at precision e/(2 sqrt 2)
              and failure odds 1/(8t), which multiplies the per-chain cost
              by roughly 10^3 e^-2 log t.
  * "exact"   dense evaluation of the chain value (memoized per index
              tuple), leaving only the outer sampling noise; for diagnosis
              and tests, within the dense oracle's 12-qubit limit.

All modes share the outer loop, the median amplification, and the
predicted-cost gate.
"""

import math

import numpy as np

from .errors import CostCapExceeded, UndefinedRatioError, ValidationError
from .hamiltonian import _parity
from .imm import MatrixChain, chain_entry, estimate_chain_sandwich
from .oracle import _as_dense_vector, dense_term
from .polyfilter import coefficient_l1
from .rng import spawn_streams
from .state_access import median_amplify

_KAPPA_TOL = 1e-9
_INV_2SQRT2 = 1.0 / (2.0 * math.sqrt(2.0))

POLICIES = ("strict", "tight", "oracle-exact")
CHAIN_MODES = ("single", "nested", "exact")


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
            counters.chain_samples += count
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


def _all_signed_permutations(decomp):
    return all(t.perm_phase is not None for t in decomp.terms)


def _batch_chain_values(decomp, chains, idx, phi, counters=None):
    """Entries (A_{x_r} ... A_{x_1} phi)(j) for chain/index pairs, batched.

    chains is (t, r) with draw order x_1 .. x_r along the row; the first draw
    is the factor applied to phi first, so the row trace starts from the last
    column.
    """
    t, r = chains.shape
    if r == 0:
        if counters is not None:
            counters.vector_queries += t
        return np.asarray(phi.query_many(idx), dtype=complex)
    if _all_signed_permutations(decomp):
        xmasks = np.array([h.perm_xmask for h in decomp.terms], dtype=np.int64)
        signmasks = np.array([h.perm_signmask for h in decomp.terms], dtype=np.int64)
        phases = np.array([h.perm_phase for h in decomp.terms], dtype=complex)
        cur = np.asarray(idx, dtype=np.int64).copy()
        vals = np.ones(t, dtype=complex)
        for col in range(r - 1, -1, -1):
            k = chains[:, col]
            signs = _parity(cur & signmasks[k])
            vals *= phases[k] * (1.0 - 2.0 * signs)
            cur ^= xmasks[k]
        if counters is not None:
            counters.leaf_queries += t
            counters.vector_queries += t
            counters.note_depth(r)
        return vals * np.asarray(phi.query_many(cur), dtype=complex)
    terms = decomp.terms
    out = np.empty(t, dtype=complex)
    for i in range(t):
        mats = [terms[int(k)] for k in chains[i]]
        out[i] = chain_entry(int(idx[i]), mats, phi, counters)
    return out


class _ExactChainOracle:
    """Dense chain values <psi| A_{x_r} ... A_{x_1} |phi>, memoized per chain."""

    def __init__(self, decomp, psi, phi):
        n = decomp.dimension
        self._mats = [dense_term(h) for h in decomp.terms]
        self._psi = _as_dense_vector(psi, n)
        self._phi = _as_dense_vector(phi, n)
        self._cache = {}

    def value(self, x):
        key = tuple(int(k) for k in x)
        hit = self._cache.get(key)
        if hit is None:
            w = self._phi
            for k in key:
                w = self._mats[k] @ w
            hit = self._cache[key] = complex(np.vdot(self._psi, w))
        return hit


def estimate_power(psi, phi, decomp, r, err, delta, rng,
                   chain_mode="single", workers=1, counters=None):
    """Estimate <psi| A^r |phi> within err with probability >= 1 - delta.

    Requires the normalized decomposition (kappa = 1). Each batch draws
    t = ceil(64 / err^2) chains; their contributions are evaluated per
    chain_mode and averaged, and batches are median-combined.
    """
    if not 0 < err <= 1:
        raise ValidationError(f"err must be in (0, 1], got {err}")
    if not 0 < delta <= 1:
        raise ValidationError(f"delta must be in (0, 1], got {delta}")
    if chain_mode not in CHAIN_MODES:
        raise ValidationError(f"unknown chain_mode {chain_mode!r}")
    sampler = ChainSampler(decomp, r)
    t = math.ceil(64.0 / (err * err))
    exact = _ExactChainOracle(decomp, psi, phi) if chain_mode == "exact" else None

    if chain_mode == "nested":
        inner_eps = min(1.0, err * _INV_2SQRT2)
        inner_delta = 1.0 / (8.0 * t)

        def one_batch(stream):
            chains = sampler.sample_many(stream, t, counters)
            masses = _chain_masses(decomp, chains)
            total = 0.0j
            for i in range(t):
                picks = chains[i]
                chain = MatrixChain(
                    [decomp.terms[int(k)] for k in picks],
                    [decomp.kappa_i[int(k)] for k in picks],
                )
                alpha = estimate_chain_sandwich(
                    psi, chain, phi, inner_eps, inner_delta, stream,
                    counters=counters,
                )
                total += alpha / masses[i]
            return total / t

    elif chain_mode == "exact":

        def one_batch(stream):
            chains = sampler.sample_many(stream, t, counters)
            masses = _chain_masses(decomp, chains)
            vals = np.array([exact.value(row) for row in chains])
            return complex(np.mean(vals / masses))

    else:

        def one_batch(stream):
            chains = sampler.sample_many(stream, t, counters)
            masses = _chain_masses(decomp, chains)
            j = psi.sample_many(stream, t)
            amps = np.asarray(psi.query_many(j), dtype=complex)
            if counters is not None:
                counters.psi_samples += t
                counters.psi_queries += t
            vals = _batch_chain_values(decomp, chains, j, phi, counters)
            dead = amps == 0
            if np.any(dead):
                bad = dead & (vals != 0)
                if np.any(bad):
                    raise UndefinedRatioError(int(j[np.argmax(bad)]))
                amps = np.where(dead, 1.0, amps)
                vals = np.where(dead, 0.0, vals)
            return complex(np.mean(vals / (amps * masses)))

    return median_amplify(one_batch, delta, rng, workers=workers)


def _power_pow(base, exponent):
    try:
        return float(base) ** int(exponent)
    except OverflowError:
        return math.inf


def power_error_budget(P, eta, policy):
    """Per-power additive error target for the given budget policy."""
    if policy == "strict":
        denom = _power_pow(4.0, P.degree)
    elif policy == "tight":
        denom = coefficient_l1(P)
    else:
        raise ValidationError(f"unknown policy {policy!r}")
    if denom == 0:
        return 1.0
    return min(1.0, eta / denom)


def predict_cost(decomp, P, eta, delta_total, policy="tight",
                 chain_mode="single"):
    """Planned leaf-operation count for a polynomial transform, pre-run.

    Returns (total, breakdown); the breakdown records the shared batch shape
    and the per-power contributions. Powers with zero coefficient cost
    nothing. Values saturate to inf rather than overflow.
    """
    d = P.degree
    err = power_error_budget(P, eta, policy)
    delta = delta_total / (d + 1)
    reps = max(1, math.ceil(18.0 * math.log(1.0 / delta)))
    t = math.ceil(64.0 / (err * err))
    s_eff = max(decomp.s, 1)
    if chain_mode == "nested":
        inner_eps = min(1.0, err * _INV_2SQRT2)
        inner_t = math.ceil(8.0 / (inner_eps * inner_eps))
        inner_reps = max(1, math.ceil(18.0 * math.log(8.0 * t)))
        per_chain_base = float(inner_t) * inner_reps
    elif chain_mode == "exact":
        per_chain_base = None
    else:
        per_chain_base = 1.0
    per_power = {}
    total = 0.0
    for r in range(d + 1):
        if P.coeffs[r] == 0:
            continue
        if per_chain_base is None:
            cost = float(reps) * float(t)
        else:
            cost = float(reps) * float(t) * per_chain_base * _power_pow(s_eff, r)
        per_power[r] = cost
        total += cost
    breakdown = {
        "policy": policy,
        "chain_mode": chain_mode,
        "degree": d,
        "err_per_power": err,
        "reps_per_power": reps,
        "chains_per_batch": float(t),
        "per_power": per_power,
    }
    return total, breakdown


def estimate_polynomial_transform(psi, phi, decomp, P, eta, delta_total, rng,
                                  policy="tight", cost_cap=None,
                                  chain_mode="single", workers=1,
                                  counters=None):
    """Estimate <psi| P(A) |phi> within eta with probability >= 1 - delta_total.

    P is evaluated through its monomial coefficients: every power with a
    nonzero coefficient is estimated at the policy's per-power error and at
    confidence 1 - delta_total/(degree+1), then the weighted estimates are
    summed. Child random streams are reserved per power (including skipped
    ones), so a per-power run is reproducible in isolation.

    When cost_cap is given, the predicted leaf-operation count is checked
    first and CostCapExceeded carries the full breakdown.
    """
    if not 0 < eta <= 1:
        raise ValidationError(f"eta must be in (0, 1], got {eta}")
    if not 0 < delta_total <= 1:
        raise ValidationError(f"delta_total must be in (0, 1], got {delta_total}")
    if cost_cap is not None:
        predicted, breakdown = predict_cost(
            decomp, P, eta, delta_total, policy=policy, chain_mode=chain_mode
        )
        if predicted > cost_cap:
            raise CostCapExceeded(predicted, cost_cap, breakdown)
    d = P.degree
    err = power_error_budget(P, eta, policy)
    delta = delta_total / (d + 1)
    streams = spawn_streams(rng, d + 1)
    estimate = 0.0j
    for r in range(d + 1):
        a = P.coeffs[r]
        if a == 0:
            continue
        estimate += a * estimate_power(
            psi, phi, decomp, r, err, delta, streams[r],
            chain_mode=chain_mode, workers=workers, counters=counters,
        )
    return estimate
