"""Rectangle-shaped spectral filter polynomials.

build_rectangle_polynomial produces a polynomial that is close to 1 on
[0, tau], close to 0 on [tau + theta, 1], and bounded by 1 in magnitude on
[-1, 1]. The construction approximates a smoothed step (a difference of
scaled error functions, which is even and lives in [0, 1]) by Chebyshev
interpolation at the smallest even degree whose grid verification passes,
then applies an affine correction that pins the polynomial into [0, 1]
wherever the grid bound holds.

Evenness sets the cost of a build. The interpolant of each candidate degree
is one FFT (a DCT-II of the target at the Chebyshev nodes), and only its
even coefficients survive. An even series in x is the series in
y = 2x^2 - 1 with coefficients cheb[::2], since T_2j(x) = T_j(y), so it is
verified on the nonnegative half of the symmetric grid {i/h : |i| <= h},
with half the points and half the recurrence steps of the full grid.
band_report re-checks a built filter independently on the full grid.

Two coefficient forms are kept: the Chebyshev form, which is the numerically
stable one and is used for every internal evaluation, and the monomial form,
which only the stratified sampled estimator consumes. It is converted on
first use exactly, in integers, and each coefficient is rounded once to
double. Double-precision Horner on the monomial form degrades as
sum|a_i| * 1e-16 and is exposed only through eval_poly.
"""

import functools

import numpy as np
from numpy.polynomial import chebyshev as _cheb

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
    used. coeffs, the monomial coefficients a_0..a_d, is converted from cheb
    exactly on first access, rounded once to double and cached. Even
    correctly rounded, the doubles carry an absolute error near
    sum|a_i| * 2^-53 that swamps small values of the polynomial once the
    coefficients grow large.
    """

    __slots__ = ("cheb", "degree", "tau", "theta", "xi", "verified",
                 "grid_points", "_coeffs")

    def __init__(self, cheb, tau, theta, xi, verified, grid_points):
        self.cheb = np.asarray(cheb, dtype=float)
        self.cheb.flags.writeable = False
        self.degree = len(self.cheb) - 1
        self.tau = float(tau)
        self.theta = float(theta)
        self.xi = float(xi)
        self.verified = bool(verified)
        self.grid_points = int(grid_points)
        self._coeffs = None

    @property
    def coeffs(self):
        if self._coeffs is None:
            mono, den = _cheb_to_monomial_exact(self.cheb)
            self._coeffs = np.array([m / den for m in mono])
            self._coeffs.flags.writeable = False
        return self._coeffs

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
    # Imported here: scipy.special costs about 0.3 s to load, and only
    # rectangle builds need it, never a tight scan.
    from scipy.special import erf, erfinv

    center = tau + theta / 2.0
    steep = (2.0 / theta) * float(erfinv(1.0 - xi_eff / 2.0))

    def f(x):
        return 0.5 * (erf(steep * (x + center)) - erf(steep * (x - center)))

    return f


def _certify(values, grid, tau, theta, xi_eff):
    """Whether corrected values on a grid meet the band constraints.

    values must already include the affine correction.
    """
    if not (np.max(np.abs(values)) <= 1.0 + 1e-12 and np.min(values) >= -1e-12):
        return False
    low = values[(grid >= 0.0) & (grid <= tau)]
    high = values[grid >= (tau + theta)]
    return ((low.size == 0 or np.min(low) >= 1.0 - xi_eff)
            and (high.size == 0 or np.max(high) <= xi_eff))


def _corrected(cheb_coeffs, raw_values, gap):
    # P = (P_d + e) / (1 + 2e) maps the grid-certified tube around the
    # [0, 1]-valued target into [0, 1].
    alpha = 1.0 / (1.0 + 2.0 * gap)
    fixed = cheb_coeffs * alpha
    fixed[0] += gap * alpha
    return fixed, (raw_values + gap) * alpha


def _even_chebyshev_interpolant(f, degree):
    """Chebyshev coefficients of f's degree-`degree` interpolant, odd ones zeroed.

    The interpolant at the N = degree + 1 first-kind Chebyshev nodes
    x_k = cos(pi (k + 1/2) / N) has c_j = (2 / N) sum_k f(x_k) T_j(x_k),
    halved for j = 0, which is a DCT-II of the node values. The DCT is one
    complex FFT of the values reordered even-indexed first, odd-indexed
    reversed (Makhoul), so a candidate costs O(d log d) instead of the O(d^2)
    Vandermonde product of chebinterpolate. f is even, so the odd
    coefficients are rounding noise and are zeroed.
    """
    n = degree + 1
    values = f(_cheb.chebpts1(n)[::-1])
    spectrum = np.fft.fft(np.concatenate((values[::2], values[1::2][::-1])))
    twiddle = np.exp(-0.5j * np.pi * np.arange(n) / n)
    cheb = (2.0 / n) * (twiddle * spectrum).real
    cheb[0] *= 0.5
    cheb[1::2] = 0.0
    return cheb


@functools.lru_cache(maxsize=256)
def build_rectangle_polynomial(tau, theta, xi):
    """Smallest even-degree verified rectangle filter for (tau, theta, xi).

    Certifies on the symmetric grid {i / h : |i| <= h} with
    h = (VERIFY_GRID - 1) / 2. The target and every candidate are even, so
    only the h + 1 points x >= 0 are evaluated, as the series in
    y = 2x^2 - 1 with coefficients cheb[::2] (T_2j(x) = T_j(y)); the bands
    lie in [0, 1] and max|P|, min P on [-1, 0) equal those on [0, 1].

    Scans even degrees with a coarse prefilter on every stride-th half-grid
    point, an exact subset of the verification grid, so the certified degree
    is minimal. A candidate's coarse values are one product with a Chebyshev
    Vandermonde matrix in y built once per call. Raises ValidationError for
    bad arguments and DegreeOverflowError when nothing passes up to
    DEGREE_CAP.
    """
    tau = float(tau)
    theta = float(theta)
    xi = float(xi)
    if not 0.0 < xi <= 1.0:
        raise ValidationError(f"xi must be in (0, 1], got {xi}")
    if not 0.0 <= tau < 1.0:
        raise ValidationError(f"tau must be in [0, 1), got {tau}")
    if not theta > 0.0 or tau + theta > 1.0 + 1e-12:
        raise ValidationError(
            f"theta must be in (0, 1 - tau], got theta={theta} with tau={tau}"
        )
    xi_eff = xi - XI_MARGIN
    if xi_eff <= 0.0:
        xi_eff = xi / 2.0
    if 1.0 - xi_eff / 2.0 == 1.0:
        # erfinv(1) is inf: the target would be a step, and no candidate can
        # certify bands that float arithmetic cannot tell from 0 and 1.
        raise DegreeOverflowError(
            f"no degree <= {DEGREE_CAP} certifies the bands for "
            f"tau={tau}, theta={theta}, xi={xi}: xi is below float resolution",
            degree_cap=DEGREE_CAP,
            best_error=np.inf,
        )
    f = _rectangle_target(tau, theta, xi_eff)

    half = (VERIFY_GRID - 1) // 2
    grid = np.arange(half + 1) / half
    y = 2.0 * grid * grid - 1.0
    targets = f(grid)
    # The coarse grid hits every ((VERIFY_GRID-1)//(coarse-1))-th fine point,
    # so a coarse failure implies a fine failure and minimality is exact.
    stride = (VERIFY_GRID - 1) // (_COARSE_GRID - 1)
    coarse = grid[::stride]
    coarse_targets = targets[::stride]
    coarse_basis = _cheb.chebvander(y[::stride], DEGREE_CAP // 2)

    best_error = np.inf
    for degree in range(0, DEGREE_CAP + 1, 2):
        cheb_coeffs = _even_chebyshev_interpolant(f, degree)
        even = cheb_coeffs[::2]
        raw_coarse = coarse_basis[:, :len(even)] @ even
        gap_coarse = float(np.max(np.abs(raw_coarse - coarse_targets)))
        best_error = min(best_error, gap_coarse)
        _, coarse_vals = _corrected(cheb_coeffs, raw_coarse, gap_coarse)
        if not _certify(coarse_vals, coarse, tau, theta, xi_eff):
            continue
        raw_full = _cheb.chebval(y, even)
        gap_full = float(np.max(np.abs(raw_full - targets)))
        fixed_cheb, full_vals = _corrected(cheb_coeffs, raw_full, gap_full)
        if not _certify(full_vals, grid, tau, theta, xi_eff):
            continue
        return RectanglePolynomial(fixed_cheb, tau, theta, xi, True, VERIFY_GRID)
    raise DegreeOverflowError(
        f"no degree <= {DEGREE_CAP} certifies the bands for "
        f"tau={tau}, theta={theta}, xi={xi} "
        f"(best interpolation error {best_error:.3e})",
        degree_cap=DEGREE_CAP,
        best_error=best_error,
    )


def _cheb_to_monomial_exact(cheb_coeffs):
    """Exact monomial coefficients of sum_k cheb[k] T_k, as (numerators, den).

    The conversion matrix entries reach 4^d, so double accumulation loses the
    small coefficients entirely. But every double is an integer over a power
    of two and every T_k has integer monomial coefficients, so over the
    common denominator den of the cheb entries the sum is exact in Python
    ints, with T_k built by T_(k+1) = 2x T_k - T_(k-1).
    """
    ratios = [float(c).as_integer_ratio() for c in cheb_coeffs]
    den = max(q for _, q in ratios)
    mono = [0] * len(ratios)
    # T_(-1) = x keeps the recurrence valid at k = 0: T_1 = 2x T_0 - x
    t_prev, t = [0, 1], [1]
    for p, q in ratios:
        if p:
            c = p * (den // q)
            for j, a in enumerate(t):
                mono[j] += c * a
        t_next = [0] + [2 * a for a in t]
        for j, a in enumerate(t_prev):
            t_next[j] -= a
        t_prev, t = t, t_next
    return mono, den


def eval_monomial_exact(P, xs):
    """Horner on the exact monomial form, rounded once per point (for checks).

    At each double x = p/q it sums m_j p^j q^(d-j) in integers, so the
    comparison against the Chebyshev form measures the conversion, not the
    double rounding of huge coefficients.
    """
    mono, den = _cheb_to_monomial_exact(P.cheb)
    out = []
    for x in np.atleast_1d(xs):
        p, q = float(x).as_integer_ratio()
        acc, qk = mono[-1], 1
        for m in mono[-2::-1]:
            qk *= q
            acc = acc * p + m * qk
        out.append(acc / (den * qk))
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
