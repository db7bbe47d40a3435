"""Rectangle-shaped spectral filter polynomials.

build_rectangle_polynomial produces a polynomial that is close to 1 on
[0, tau], close to 0 on [tau + theta, 1], and bounded by 1 in magnitude on
[-1, 1]. The construction approximates a smoothed step (a difference of
scaled error functions, which is even and lives in [0, 1]) by Chebyshev
interpolation at the smallest even degree whose grid verification passes,
then applies an affine correction that pins the polynomial into [0, 1]
wherever the grid bound holds.

Two coefficient forms are kept: the Chebyshev form, which is the numerically
stable one and is used for every internal evaluation, and the monomial form,
converted in extended precision on first use, which only the per-power
sampled estimators consume. Double-precision Horner on the monomial form
degrades as sum|a_i| * 1e-16 and is exposed only through eval_poly.
"""

import functools

import mpmath as mp
import numpy as np
from numpy.polynomial import chebyshev as _cheb
from scipy.special import erf, erfinv

from .errors import DegreeOverflowError, ValidationError

DEGREE_CAP = 200
VERIFY_GRID = 100_001
_COARSE_GRID = 1_001
# Bands are certified against xi - XI_MARGIN so that re-verification on finer
# grids (and downstream case analysis) retains slack over the 1e-9 tolerance.
XI_MARGIN = 1e-8


class RectanglePolynomial:
    """A verified rectangle filter.

    cheb: Chebyshev coefficients, which define the polynomial and its degree;
    verified: whether the band checks passed, along with the grid resolution
    used. The monomial form is converted from cheb in extended precision on
    first access and cached: coeffs holds the monomial coefficients a_0..a_d
    in double precision and coeffs_extended the extended-precision ones,
    because the double-rounded ones carry an unavoidable absolute error near
    sum|a_i| * 2^-53 that swamps small values of the polynomial once the
    coefficients grow large.
    """

    __slots__ = ("cheb", "degree", "tau", "theta", "xi", "verified",
                 "grid_points", "_monomial")

    def __init__(self, cheb, tau, theta, xi, verified, grid_points):
        self.cheb = np.asarray(cheb, dtype=float)
        self.cheb.flags.writeable = False
        self.degree = len(self.cheb) - 1
        self.tau = float(tau)
        self.theta = float(theta)
        self.xi = float(xi)
        self.verified = bool(verified)
        self.grid_points = int(grid_points)
        self._monomial = None

    def _monomial_form(self):
        if self._monomial is None:
            coeffs, extended = _cheb_to_monomial_extended(self.cheb)
            coeffs.flags.writeable = False
            self._monomial = (coeffs, extended)
        return self._monomial

    @property
    def coeffs(self):
        return self._monomial_form()[0]

    @property
    def coeffs_extended(self):
        return self._monomial_form()[1]

    def eval_stable(self, x):
        """Evaluate via the Chebyshev form (Clenshaw recurrence)."""
        return _cheb.chebval(x, self.cheb)

    def __repr__(self):
        return (
            f"RectanglePolynomial(d={self.degree}, tau={self.tau}, "
            f"theta={self.theta}, xi={self.xi}, verified={self.verified})"
        )


def eval_poly(P, x):
    """Horner evaluation of the monomial form at x (scalar or array)."""
    return np.polynomial.polynomial.polyval(x, P.coeffs)


def coefficient_l1(P):
    """Sum of absolute monomial coefficients; at most 4^degree."""
    return float(np.sum(np.abs(P.coeffs)))


def constant_one_polynomial(tau, theta, xi):
    """The degree-0 polynomial 1, for bands whose upper interval is empty.

    Used by the interval scan when tau + theta exceeds 1: the low band is all
    of [0, tau] where 1 lies in [1 - xi, 1], and there is no high band.
    """
    return RectanglePolynomial([1.0], tau, theta, xi, True, 0)


def _rectangle_target(tau, theta, xi_eff):
    center = tau + theta / 2.0
    steep = (2.0 / theta) * float(erfinv(1.0 - xi_eff / 2.0))

    def f(x):
        return 0.5 * (erf(steep * (x + center)) - erf(steep * (x - center)))

    return f


def _certify(values, targets, grid, tau, theta, xi_eff):
    """Check the band constraints for corrected values on a grid.

    values must already include the affine correction. Returns (ok, report).
    """
    low = (grid >= 0.0) & (grid <= tau)
    high = grid >= (tau + theta)
    report = {
        "max_abs": float(np.max(np.abs(values))),
        "min_val": float(np.min(values)),
        "low_min": float(np.min(values[low])) if np.any(low) else None,
        "high_max": float(np.max(values[high])) if np.any(high) else None,
        "max_target_gap": float(np.max(np.abs(values - targets))),
    }
    ok = report["max_abs"] <= 1.0 + 1e-12 and report["min_val"] >= -1e-12
    if report["low_min"] is not None:
        ok = ok and report["low_min"] >= 1.0 - xi_eff
    if report["high_max"] is not None:
        ok = ok and report["high_max"] <= xi_eff
    return ok, report


def _corrected(cheb_coeffs, raw_values, gap):
    # P = (P_d + e) / (1 + 2e) maps the grid-certified tube around the
    # [0, 1]-valued target into [0, 1].
    alpha = 1.0 / (1.0 + 2.0 * gap)
    fixed = cheb_coeffs * alpha
    fixed[0] += gap * alpha
    return fixed, (raw_values + gap) * alpha


@functools.lru_cache(maxsize=256)
def build_rectangle_polynomial(tau, theta, xi,
                               degree_cap=DEGREE_CAP,
                               grid_points=VERIFY_GRID):
    """Smallest even-degree verified rectangle filter for (tau, theta, xi).

    Scans even degrees with a coarse prefilter whose grid is an exact subset
    of the verification grid, so the certified degree is minimal. Raises
    DegreeOverflowError when nothing passes up to degree_cap.
    """
    tau = float(tau)
    theta = float(theta)
    xi = float(xi)
    if not 0.0 < xi <= 1.0:
        raise ValidationError(f"xi must be in (0, 1], got {xi}")
    if not 0.0 <= tau < 1.0:
        raise ValidationError(f"tau must be in [0, 1), got {tau}")
    if theta <= 0.0 or tau + theta > 1.0 + 1e-12:
        raise ValidationError(
            f"theta must be in (0, 1 - tau], got theta={theta} with tau={tau}"
        )
    xi_eff = xi - XI_MARGIN
    if xi_eff <= 0.0:
        xi_eff = xi / 2.0
    f = _rectangle_target(tau, theta, xi_eff)

    grid = np.linspace(-1.0, 1.0, grid_points)
    targets = f(grid)
    # The coarse grid hits every ((grid_points-1)//(coarse-1))-th fine point,
    # so a coarse failure implies a fine failure and minimality is exact.
    stride = (grid_points - 1) // (_COARSE_GRID - 1)
    coarse = grid[::stride]
    coarse_targets = targets[::stride]

    best_error = None
    for degree in range(0, degree_cap + 1, 2):
        cheb_coeffs = np.atleast_1d(_cheb.chebinterpolate(f, degree))
        if degree >= 1:
            cheb_coeffs[1::2] = 0.0  # the target is even
        raw_coarse = _cheb.chebval(coarse, cheb_coeffs)
        gap_coarse = float(np.max(np.abs(raw_coarse - coarse_targets)))
        best_error = gap_coarse if best_error is None else min(best_error, gap_coarse)
        _, coarse_vals = _corrected(cheb_coeffs, raw_coarse, gap_coarse)
        ok, _ = _certify(coarse_vals, coarse_targets, coarse, tau, theta, xi_eff)
        if not ok:
            continue
        raw_full = _cheb.chebval(grid, cheb_coeffs)
        gap_full = float(np.max(np.abs(raw_full - targets)))
        fixed_cheb, full_vals = _corrected(cheb_coeffs, raw_full, gap_full)
        ok, _ = _certify(full_vals, targets, grid, tau, theta, xi_eff)
        if not ok:
            continue
        return RectanglePolynomial(fixed_cheb, tau, theta, xi, True, grid_points)
    raise DegreeOverflowError(
        f"no degree <= {degree_cap} certifies the bands for "
        f"tau={tau}, theta={theta}, xi={xi} "
        f"(best interpolation error {best_error:.3e})",
        degree_cap=degree_cap,
        best_error=best_error,
    )


def _cheb_to_monomial_extended(cheb_coeffs):
    """Chebyshev-to-monomial conversion with extended-precision accumulation.

    The conversion matrix entries reach 4^d, so double accumulation loses the
    small coefficients entirely; mpmath keeps the result exact to far below
    double rounding. Returns both the double view and the extended one.
    """
    d = len(cheb_coeffs) - 1
    dps = max(50, int(0.7 * d) + 40)
    with mp.workdps(dps):
        mono = [mp.mpf(0)] * (d + 1)
        for i, row in enumerate(_iter_cheb_rows(d)):
            coeff = mp.mpf(float(cheb_coeffs[i]))
            if coeff != 0:
                for j, tv in enumerate(row):
                    mono[j] += coeff * tv
        return np.array([float(v) for v in mono]), tuple(mono)


def _iter_cheb_rows(d):
    """Yield monomial coefficient lists of T_0 .. T_d (exact integers)."""
    t_prev = [mp.mpf(1)]
    yield t_prev
    if d == 0:
        return
    t_cur = [mp.mpf(0), mp.mpf(1)]
    yield t_cur
    for _ in range(2, d + 1):
        shifted = [mp.mpf(0)] + [2 * v for v in t_cur]
        t_next = [
            shifted[j] - (t_prev[j] if j < len(t_prev) else mp.mpf(0))
            for j in range(len(shifted))
        ]
        yield t_next
        t_prev, t_cur = t_cur, t_next


def eval_monomial_extended(P, xs, dps=None):
    """Horner on the monomial form in extended precision (for verification).

    Uses the extended monomial coefficients, so the comparison against the
    Chebyshev form measures the conversion, not the double rounding of huge
    coefficients.
    """
    if dps is None:
        dps = max(60, int(0.7 * P.degree) + 40)
    coeffs = P.coeffs_extended
    with mp.workdps(dps):
        out = []
        for x in np.atleast_1d(xs):
            acc = mp.mpf(0)
            xm = mp.mpf(float(x))
            for a in reversed(coeffs):
                acc = acc * xm + a
            out.append(float(acc))
    return np.array(out)


def band_report(P, grid_points=VERIFY_GRID):
    """Re-verify a polynomial's band membership on a fresh grid.

    Evaluates the stable Chebyshev form; returns the same report shape the
    builder certifies against, measured against the public xi with zero
    margin so callers apply their own tolerance.
    """
    grid = np.linspace(-1.0, 1.0, grid_points)
    values = P.eval_stable(grid)
    low = (grid >= 0.0) & (grid <= P.tau)
    high = grid >= (P.tau + P.theta)
    return {
        "max_abs": float(np.max(np.abs(values))),
        "min_val": float(np.min(values)),
        "low_min": float(np.min(values[low])) if np.any(low) else None,
        "high_max": float(np.max(values[high])) if np.any(high) else None,
    }
