"""Gaussian mixtures over position errors and their probability bounds.

A protection level is the statistical bound on one component of the
position error: the magnitude the error exceeds only with the configured
integrity risk.  It is computed from the weighted mixture of per-candidate
error distributions by solving the mixture CDF for both tail quantiles at
half the risk each and taking the larger magnitude of their outer bracket
edges.  Each quantile is found on the fixed lattice of multiples of the
solver tolerance, in the cell bisection would end on (see ``_search``), so
a bound is a lattice point and moves monotonically with the risk.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import BracketingFailure, LengthMismatch, NonConvergence, WeightSumViolation

_WEIGHT_TOL = 1e-12
_START_MARGIN = 1e-10  # probability margin of the start bracket; see _start
_SQRT2 = math.sqrt(2.0)
_ITP_SLACK = 4  # ITP's n0: rounds a row may take beyond bisection's ceil(log2 width)


@functools.cache
def _special():
    """``scipy.special``, imported on first use, so that commands that never
    draw or solve do not load SciPy."""
    import scipy.special

    return scipy.special


def std_normal_cdf(z):
    """Standard normal CDF via the error function, ``0.5 (1 + erf(z / sqrt 2))``.

    The underlying erf is the C library implementation, accurate to a few
    ulp; reference values are pinned in the test suite.
    """
    cdf = _special().erf(np.asarray(z, dtype=float) / _SQRT2)
    cdf += 1.0  # in place: the sum and product of 0.5 * (1 + erf), without their temporaries
    cdf *= 0.5
    return cdf


def std_normal_quantile(p):
    """Standard normal quantile, SciPy's ``ndtri`` (Cephes, plain C
    arithmetic, so the same bits on every CPU)."""
    return _special().ndtri(p)


@dataclass(frozen=True)
class GaussianMixture:
    """One-dimensional mixtures: component means, variances and weights.

    (N,) arrays hold one mixture; (..., N) stacks hold one mixture per row.
    The checks run once on the whole stack, and the first row, in C order,
    that fails raises the error it raises alone.
    """

    means: np.ndarray
    variances: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        # contiguous rows, so that a row's weight sum has a lone mixture's bits
        m, v, w = (np.asarray(a, dtype=float, order="C") for a in (self.means, self.variances, self.weights))
        if not (m.shape == v.shape == w.shape) or m.ndim == 0:
            raise LengthMismatch(f"mixture arrays must share a shape, got {m.shape}, {v.shape}, {w.shape}")
        ok = (np.isfinite(m) & np.isfinite(v) & np.isfinite(w) & (v > 0.0) & (w >= 0.0)).all(axis=-1)
        ok &= (np.abs(w.sum(axis=-1) - 1.0) <= _WEIGHT_TOL) & (m.shape[-1] > 0)
        if not ok.all():
            first = np.unravel_index(np.argmin(ok), ok.shape)
            m, v, w = m[first], v[first], w[first]
            if m.size == 0:
                raise LengthMismatch(f"a mixture needs at least one component, got {m.shape}, {v.shape}, {w.shape}")
            if not (np.isfinite(m).all() and np.isfinite(v).all() and np.isfinite(w).all()):
                raise ValueError("mixture parameters must be finite")
            if np.any(v <= 0.0):
                raise ValueError("variances must be strictly positive")
            if np.any(w < 0.0):
                raise ValueError("weights must be non-negative")
            raise WeightSumViolation(f"weights sum to {float(w.sum())!r}, expected 1")
        object.__setattr__(self, "means", m)
        object.__setattr__(self, "variances", v)
        object.__setattr__(self, "weights", w)

    @property
    def sigmas(self) -> np.ndarray:
        return np.sqrt(self.variances)


def _one(mixture: GaussianMixture) -> GaussianMixture:
    if mixture.means.ndim != 1:
        raise LengthMismatch(f"expected one mixture of (N,) arrays, got a stack of shape {mixture.means.shape}")
    return mixture


def gmm_cdf(mixture: GaussianMixture, x) -> np.ndarray | float:
    """CDF of one mixture: the weighted sum of component normal CDFs."""
    mixture = _one(mixture)
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    z = (xs[:, None] - mixture.means[None, :]) / mixture.sigmas[None, :]
    vals = std_normal_cdf(z) @ mixture.weights
    return float(vals[0]) if np.isscalar(x) or np.ndim(x) == 0 else vals


@dataclass(frozen=True)
class ProtectionLevelQuery:
    """Integrity risk and solver controls for a protection-level request."""

    integrity_risk: float = 0.01
    tolerance: float = 1e-4
    max_iterations: int = 200

    def __post_init__(self) -> None:
        if not 1e-9 <= self.integrity_risk < 1.0:
            raise ValueError("integrity_risk must lie in [1e-9, 1)")
        if self.tolerance <= 0.0:
            raise ValueError("tolerance must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be positive")


def _cdf(means: np.ndarray, sigmas: np.ndarray, weights: np.ndarray, x: np.ndarray, pdf_weights=None):
    """CDF of each (K, N) mixture row at its own point ``x[k]``, and the pdf too given ``pdf_weights``."""
    # a stacked (1, N) @ (N, 1) per row keeps the bits of a lone row's dot
    # product, which einsum and sum(axis=1) do not.  Operand layout is part
    # of the bits: numpy picks the BLAS kernel, and with it the order of the
    # sum, from the strides, so these operands stay C-contiguous
    z = x[:, None] - means
    z /= sigmas
    cdf = (std_normal_cdf(z)[:, None, :] @ weights[:, :, None])[:, 0, 0]
    if pdf_weights is None:
        return cdf
    z *= -0.5 * z
    return cdf, (np.exp(z, out=z)[:, None, :] @ pdf_weights[:, :, None])[:, 0, 0]


def _start(means: np.ndarray, sigmas: np.ndarray, probabilities, tolerance: float) -> tuple[np.ndarray, np.ndarray]:
    """Lattice indices ``(lo, hi)`` of a start bracket of ``cdf(x) = p`` for
    each (..., N) mixture row, from its component quantiles alone.

    Every component CDF is monotone, so the mixture CDF, their weighted sum,
    is at most ``p - eps`` at ``min_i(mu_i + sigma_i z(p - eps))`` and at
    least ``p + eps`` at ``max_i(mu_i + sigma_i z(p + eps))``.  The margin
    ``eps`` covers the 1e-12 weight-sum tolerance and the rounding of the
    computed CDF, so that CDF is below p at ``lo * tolerance`` and reaches p
    at ``hi * tolerance`` without being evaluated.  This holds while the
    rounding of x is small against every sigma (|mu_i| / sigma_i below
    about 1e5).  A p within eps of 0 or 1, or an end beyond the float range
    in lattice units, gives non-finite ends, which ``_search`` rejects.
    """
    p = np.asarray(probabilities, dtype=float)[..., None]
    with np.errstate(over="ignore"):
        lo = np.floor(np.min(means + sigmas * std_normal_quantile(p - _START_MARGIN), axis=-1) / tolerance)
        hi = np.ceil(np.max(means + sigmas * std_normal_quantile(p + _START_MARGIN), axis=-1) / tolerance)
    return lo, hi


def _search(means, sigmas, weights, probabilities, lo, hi, tolerance: float, max_iterations: int):
    """Narrow each row's bracket of lattice indices, with
    ``cdf(lo * tolerance) < p <= cdf(hi * tolerance)``, to one cell by an ITP
    search (Oliveira and Takahashi, ACM TOMS 2020) with Newton's step as
    interpolant.  The first probe is the moment-matched normal's p-quantile,
    each later one the last probe's Newton estimate, floored if that probe's
    CDF reached p, else ceiled, then put strictly inside the bracket and, in
    round j, within ``2^(n - j - 1) - width / 2`` of its midpoint, where
    ``n = ceil(log2 w) + _ITP_SLACK`` for a start of w cells.  So a bracket
    is at most ``2^(n - j)`` cells wide before round j, and one cell wide,
    and done, within n rounds, however poor the Newton estimates.

    The cell is bisection's: both keep the bracket and probe strictly
    inside it, so both end on the first lattice point whose computed CDF
    reaches p, which is unique as that CDF does not decrease along the
    lattice (the lattice point, subtraction, division, erf, the affine step
    and the fixed-order dot product with non-negative weights are each
    monotone under round-to-nearest, and ``_cdf`` gives a point the same
    bits in any stack).  A non-finite bracket raises ``BracketingFailure``,
    one bisection would need over ``max_iterations`` halvings to close
    ``NonConvergence``.
    """
    with np.errstate(invalid="ignore"):
        width = hi - lo
    finite = np.isfinite(width)
    if not finite.all():
        p = np.broadcast_to(probabilities, width.shape)[~finite][0]
        raise BracketingFailure(f"could not bracket probability {p}: the start bracket is not finite")
    steps = (int(np.max(width, initial=1.0)) - 1).bit_length()
    if steps > max_iterations:
        raise NonConvergence(f"no convergence within {max_iterations} bisection steps (needs {steps})")
    rows = np.flatnonzero(width > 1.0)
    if not rows.size:
        return lo, hi
    lo, hi = lo.copy(), hi.copy()
    m, s, w = means[rows], sigmas[rows], weights[rows]
    p, a, b, gap = np.broadcast_to(probabilities, width.shape)[rows], lo[rows], hi[rows], width[rows] - 1.0
    ball = np.ldexp(1.0, np.frexp(gap)[1] + (_ITP_SLACK - 1))  # 2^(n - 1): the ball's radius plus half the width
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        pdf_weights = w / (s * math.sqrt(2.0 * math.pi))  # for _cdf's pdf
        mean = (w * m).sum(axis=1)
        sd = np.sqrt((w * (s * s + (m - mean[:, None]) ** 2)).sum(axis=1))
        x = np.floor((mean + sd * std_normal_quantile(p)) / tolerance)
        for _ in range(steps + _ITP_SLACK):
            reach = np.minimum(ball, gap)
            x = np.fmin(np.fmax(x, b - reach), a + reach)  # a NaN or infinite estimate goes to an end of the ball
            cdf, pdf = _cdf(m, s, w, x * tolerance, pdf_weights)
            above = cdf >= p
            a, b = np.where(above, a, x), np.where(above, x, b)
            x -= (cdf - p) / (pdf * tolerance)
            x = np.where(above, np.floor(x), np.ceil(x))
            ball *= 0.5
            gap = b - a - 1.0
            done = gap < 1.0
            if done.any():
                lo[rows[done]], hi[rows[done]] = a[done], b[done]
                keep = ~done
                rows, m, s, w, pdf_weights, p, a, b, gap, x, ball = (
                    v[keep] for v in (rows, m, s, w, pdf_weights, p, a, b, gap, x, ball)
                )
                if not rows.size:
                    break
    lo[rows], hi[rows] = a, b  # rows left open: lattice indices too large for a float to hold them all
    return lo, hi


def _brackets(means, sigmas, weights, probabilities, tolerance: float, max_iterations: int):
    """Final brackets ``(lo, hi)``, one lattice cell ``tolerance`` wide, of
    ``cdf_k(x) = probabilities[k]`` for the K mixtures whose components are
    the rows of the (K, N) means, standard deviations and weights, solved
    together by ``_search``; the edges are multiples of ``tolerance``.

    The start bracket comes from the component quantiles (see ``_start``).
    A p too close to 0 or 1 for that starts from the span of the components
    widened by ten standard deviations, where the normal CDF is exactly 0
    and 1 in double precision.  A target beyond the CDF at its upper end
    therefore exceeds the weight sum, which no widening can reach, and
    raises ``BracketingFailure``.
    """
    means, sigmas, weights = (np.ascontiguousarray(a, dtype=float) for a in (means, sigmas, weights))
    p = np.asarray(probabilities, dtype=float)
    lo, hi = _start(means, sigmas, p, tolerance)
    wide = ~(np.isfinite(lo) & np.isfinite(hi))
    if wide.any():
        rows = means[wide], sigmas[wide], weights[wide]
        with np.errstate(over="ignore"):
            lo[wide] = np.floor(np.min(rows[0] - 10.0 * rows[1], axis=1) / tolerance)
            hi[wide] = np.ceil(np.max(rows[0] + 10.0 * rows[1], axis=1) / tolerance)
        outside = p[wide] > _cdf(*rows, hi[wide] * tolerance)  # the CDF is exactly 0 < p at lo
        if outside.any():
            raise BracketingFailure(f"could not bracket probability {p[wide][outside][0]}")
    lo, hi = _search(means, sigmas, weights, p, lo, hi, tolerance, max_iterations)
    return lo * tolerance, hi * tolerance


def gmm_quantile(
    mixture: GaussianMixture, probability: float, tolerance: float = 1e-4, max_iterations: int = 200
) -> float:
    """Solve one mixture's ``cdf(x) = probability`` for x on the lattice of
    multiples of ``tolerance``; returns the midpoint of the final one-cell
    bracket (see ``_brackets``)."""
    mixture = _one(mixture)
    if not 0.0 < probability < 1.0:
        raise ValueError("probability must lie strictly between 0 and 1")
    stack = (mixture.means[None], mixture.sigmas[None], mixture.weights[None])
    lo, hi = _brackets(*stack, [probability], tolerance, max_iterations)
    return float(0.5 * (lo[0] + hi[0]))


def protection_level(
    mixture: GaussianMixture, query: ProtectionLevelQuery = ProtectionLevelQuery()
) -> float | np.ndarray:
    """Two-sided error bound at the queried integrity risk: a float for one
    mixture, the array of its rows' bounds for a stack, all solved in one
    search.

    Each tail gets half the risk.  The bound is the larger magnitude of the
    outer edges of the two tail brackets (the upper edge of the ``1 - risk/2``
    bracket, the lower edge of the ``risk/2`` one), so the mass beyond it is
    at most the risk whatever the tolerance.  When a tail's start bracket
    lies beyond every magnitude the other tail's can reach, that tail sets
    the bound, and only it is solved; the bound has the bits that solving
    both tails gives.
    """
    half = 0.5 * query.integrity_risk
    n = mixture.means.shape[-1]
    means, sigmas, weights = (a.reshape(-1, n) for a in (mixture.means, mixture.sigmas, mixture.weights))
    p = np.array([1.0 - half, half])
    lo, hi = _start(means[:, None], sigmas[:, None], p, query.tolerance)  # (R, 2): upper tail, lower tail
    reach = np.maximum(hi, -lo)  # the largest magnitude in each bracket
    upper_alone = lo[:, 0] > reach[:, 1]
    lower_alone = -hi[:, 1] > reach[:, 0]
    rows, tails = np.nonzero(np.stack((~lower_alone, ~upper_alone), axis=1))
    lo[rows, tails], hi[rows, tails] = _search(
        means[rows], sigmas[rows], weights[rows], p[tails], lo[rows, tails], hi[rows, tails],
        query.tolerance, query.max_iterations,
    )
    upper, lower = np.abs(hi[:, 0] * query.tolerance), np.abs(lo[:, 1] * query.tolerance)
    bounds = np.where(lower > upper, lower, upper).reshape(mixture.means.shape[:-1])  # max(upper, lower)
    return float(bounds) if bounds.ndim == 0 else bounds


def protection_levels_all(
    means: np.ndarray,
    variances: np.ndarray,
    weights: np.ndarray,
    query: ProtectionLevelQuery = ProtectionLevelQuery(),
) -> np.ndarray:
    """Per-axis protection levels: the (3,) array of them from (N, 3)
    mixture ingredients, or the (T, 3) array, one row per timestep, from
    (T, N, 3) stacks.

    Columns are the lateral, longitudinal and vertical sample sets; each
    column forms its own mixture, and all of them are solved in one
    search.
    """
    means, variances, weights = (np.asarray(a, dtype=float) for a in (means, variances, weights))
    if not (means.shape == variances.shape == weights.shape) or means.ndim not in (2, 3) or means.shape[-1] != 3:
        raise LengthMismatch("per-axis inputs must share shape (N, 3) or (T, N, 3)")
    return protection_level(GaussianMixture(*(np.swapaxes(a, -1, -2) for a in (means, variances, weights))), query)
