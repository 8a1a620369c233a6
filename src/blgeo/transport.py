"""One-dimensional monotone-rearrangement transport.

The Brenier map between densities on the line is the monotone
rearrangement T = F_f^{-1} o F_g, which pushes the g-measure forward to
the f-measure: the f-mass of T((-inf, x]) equals the g-mass of
(-inf, x].  Cumulative distributions are computed exactly where the
density kind allows it (erf to within rounding for Gaussians, by
_gaussian_cdf on numpy alone; cell-mass sums for grids) so the map
error is dominated by interpolation, not quadrature.

np.interp reads F_g at the samples and inverts F_f there.  Flat CDF
segments (zero-density gaps) invert to their left endpoint, which makes
plateau tie-breaking deterministic.

The linear-growth diagnostic sup |T(x)| / sqrt(1 + x^2) feeds the
dependent-space Gaussianity argument: maps dominated by a Gaussian
envelope level off, polynomially growing ones do not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapError, InputError
from .integrals import Density, GaussianDensity, GridDensity, GridSpec, in_frame

MONOTONE_SLACK = 1e-12
FLATTEN_RTOL = 0.05
ERF_REACH = 0.03  # half-width in z of a Taylor block of _gaussian_cdf
ERF_TERMS = 9  # Taylor terms per block: the remainder at ERF_REACH is below 2e-18
ERF_SATURATION = 6.0  # erfc(6) < 2.2e-17, under half an ulp of 1: erf rounds to +-1 beyond
TRANSPORT_MAX_SAMPLES = 1 << 20  # map samples: about 0.4 GB peak RSS for the CLI command at the cap


@dataclass
class MonotoneMap:
    """Piecewise-linear nondecreasing map given by samples (xs, ts)."""

    xs: np.ndarray
    ts: np.ndarray

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=float)
        ts = np.asarray(self.ts, dtype=float)
        if xs.ndim != 1 or xs.shape != ts.shape or xs.size < 2:
            raise InputError("map needs matching 1-D sample arrays of length >= 2")
        if np.any(np.diff(xs) <= 0):
            raise InputError("sample points must be strictly increasing")
        if np.any(np.diff(ts) < -MONOTONE_SLACK):
            raise InputError("map values must be nondecreasing")
        self.xs = xs
        self.ts = ts

    def __call__(self, x):
        return np.interp(x, self.xs, self.ts)

    def to_json(self) -> dict:
        return {"x": self.xs, "T": self.ts}


def _require_line(density: Density) -> Density:
    if density.domain.dim != 1:
        raise InputError("transport works on densities over a 1-D subspace")
    return in_frame(density, density.domain)


def _cdf_knots(density: Density, span: GridSpec):
    """Knot points, normalized CDF values at them, and the total mass of a
    density on a line in its own frame (as _require_line returns it).

    The CDF is normalized analytically, so the overall mass scale of the
    density never enters the knot values: scaling a density cannot move
    the plateau boundaries by rounding.  The knot values never decrease, as
    np.interp needs.  A grid's are its running cell masses over their last
    value, at its cell edges: exactly 0 to exactly 1, as division is
    monotone, so empty cells at the end get no mass; a Gaussian's are its
    CDF 0.5 (1 + erf(sqrt(a) (x - b/2))) at the sample points of span,
    within a few ulp of the exact value.
    """
    if isinstance(density, GridDensity):
        edges = np.concatenate([[density.lo[0]], density.lo[0] + density.h * np.arange(1, density.values.size + 1)])
        running = np.cumsum(density.values * density.h)
        total = float(running[-1])
        if total <= 0.0:
            return edges, np.zeros(edges.size), 0.0
        return edges, np.concatenate([[0.0], running / total]), total
    if isinstance(density, GaussianDensity):
        # theta * exp(-a z^2 + a b z): the shape CDF is theta-free
        xs = np.linspace(-span.radius, span.radius, span.count + 1)
        cdf = _gaussian_cdf(xs, float(density.A[0, 0]), float(density.b[0]) / 2.0)
        return xs, cdf, float(density.integral())
    raise InputError(f"unsupported density kind for transport: {type(density).__name__}")


def _gaussian_cdf(xs: np.ndarray, a: float, centre: float) -> np.ndarray:
    """0.5 (1 + erf(z)), z = sqrt(a) (x - centre), at evenly spaced xs, on numpy alone.

    Where |z| >= ERF_SATURATION, erf is +-1 to the double.  In between, the
    knots are cut into blocks of s = 2 ERF_REACH / dz consecutive ones (dz
    the step in z), each expanded about its middle knot z0, where math.erf
    (math.erfc for |z0| >= 1) gives the value:
        erf(z0 + d) = erf(z0) + sum_{m >= 1} g_{m-1} d^m / m,
    with g_k the Taylor coefficients of erf' = (2 / sqrt(pi)) e^{-z^2} at
    z0, which obey (k + 1) g_{k+1} = -2 (z0 g_k + g_{k-1}) because
    erf'' = -2 z erf' (the Hermite recurrence).  The linear term takes each
    knot's own d = z - z0.  The terms m >= 2 take the nominal offset
    (r - s // 2) dz of the knot's place r in its block, the same in every
    block, so they are one (terms x blocks) by (terms x s) product, which
    einsum sums in a fixed order, free of the BLAS.  The nominal offset
    misses d by the rounding e of z, which costs about erf''(z) d e: at
    most 2 |z| ERF_REACH < 0.4 of the change erf' e that e makes to erf
    itself, and a few ulp on the CLI's grids.  Everything but the +-1 of
    erf(z0) is summed first, so each block is nondecreasing; a dip of an
    ulp can sit only at a block boundary, which a running maximum over
    the knots lifts.  That keeps every value within its error of erf, as
    erf is nondecreasing too.  A Gaussian centred on the samples with
    fewer than two of them inside |z| < ERF_SATURATION rises from 0 to 1
    within one sample step, which no map on them resolves: it is refused.
    """
    root = math.sqrt(a)
    reach = ERF_SATURATION / root
    lo = int(np.searchsorted(xs, centre - reach, side="left"))
    hi = int(np.searchsorted(xs, centre + reach, side="right"))
    cdf = np.empty(xs.size)
    cdf[:lo], cdf[hi:] = 0.0, 1.0
    n, step = hi - lo, (xs[-1] - xs[0]) / (xs.size - 1)
    if n < 2 and xs[0] <= centre <= xs[-1]:
        raise InputError(f"a Gaussian's CDF rises from 0 to 1 within one sample step "
                         f"h = {step:.3g}, too coarse to resolve it")
    if n == 0:
        return cdf
    dz = root * step
    s = max(1, int(min(n, 2.0 * ERF_REACH / dz)))
    Z = np.empty((-(-n // s), s))  # z at knot lo + k s + r sits at [k, r]
    flat = Z.reshape(-1)
    np.subtract(xs[lo:hi], centre, out=flat[:n])
    flat[:n] *= root
    flat[n:] = flat[n - 1] + dz * np.arange(1, flat.size - n + 1)  # the progression continued
    z0 = Z[:, s // 2].copy()
    g = np.empty((ERF_TERMS, z0.size))  # g_0 .. g_{ERF_TERMS - 1} per block
    g[0] = (2.0 / math.sqrt(math.pi)) * np.exp(-z0 * z0)
    np.multiply(g[0], -2.0 * z0, out=g[1])
    for k in range(1, ERF_TERMS - 1):
        np.multiply(z0, g[k], out=g[k + 1])
        g[k + 1] += g[k - 1]
        g[k + 1] *= -2.0 / (k + 1)
    offsets = dz * np.arange(-(s // 2), s - s // 2)
    powers = np.cumprod(np.repeat(offsets[None, :], ERF_TERMS, axis=0), axis=0)
    powers /= np.arange(1, ERF_TERMS + 1)[:, None]  # d^m / m for m = 1 .. ERF_TERMS
    high = np.einsum("mk,mr->kr", g[1:], powers[1:])
    Z -= z0[:, None]
    Z *= g[0][:, None]
    Z += high  # now erf - erf(z0)
    # erf(z0) = base + rest: base = +-1 and rest = -+erfc(|z0|) where |z0| >= 1,
    # else base = 0; rest keeps erfc's relative precision in the tails, so erf
    # is rounded once there, when base is added last (as scipy rounds 1 - erfc)
    base = np.where(np.abs(z0) >= 1.0, np.sign(z0), 0.0)
    rest = np.fromiter((math.erf(v) if b == 0.0 else -b * math.erfc(b * v)
                        for v, b in zip(z0.tolist(), base.tolist())), float, z0.size)
    Z += rest[:, None]
    Z += base[:, None]
    np.maximum.accumulate(flat[:n], out=flat[:n])
    live = cdf[lo:hi]
    np.add(flat[:n], 1.0, out=live)
    live *= 0.5
    return cdf


def _invert_cdf(knots_x: np.ndarray, knots_u: np.ndarray, u):
    """Left-continuous inverse inf {x : F(x) >= u} of a piecewise-linear CDF
    F with nondecreasing knots, as one np.interp on F read from the top down.

    With the levels negated and the knots reversed, np.interp takes the last
    knot of a shared level, which is the first in x: a plateau's level (a
    zero-density gap) lands on its left endpoint, a value at or below the
    first level on the first knot, and a value at or above the top, through
    left=, on the first knot that reaches the top (argmax picks it).  The
    levels are scaled by 2^600 as well, which is exact and leaves every
    value np.interp returns as it is, except that the slope dx/du of a
    segment that rises by a subnormal amount no longer overflows.
    """
    scale = -2.0 ** 600
    return np.interp(np.multiply(u, scale), knots_u[::-1] * scale, knots_x[::-1],
                     left=knots_x[knots_u.argmax()])


def brenier_1d(f: Density, g: Density, grid: GridSpec) -> MonotoneMap:
    """Monotone rearrangement T = F_f^{-1} o F_g on the sample grid.

    Both densities are normalized internally, so T only depends on their
    shapes; zero total mass is an error.
    """
    if grid.count + 1 > TRANSPORT_MAX_SAMPLES:
        raise CapError("transport samples", TRANSPORT_MAX_SAMPLES, grid.count + 1)
    f, g = _require_line(f), _require_line(g)
    fx, fu, fmass = _cdf_knots(f, grid)
    gx, gu, gmass = _cdf_knots(g, grid)
    if fmass <= 0.0 or gmass <= 0.0:
        raise InputError("transport needs densities of positive mass")
    xs = np.linspace(-grid.radius, grid.radius, grid.count + 1)
    # exact at a Gaussian's knots, which are these sample points
    u = np.interp(xs, gx, gu, left=0.0, right=1.0)
    ts = _invert_cdf(fx, fu, u)
    ts = np.maximum.accumulate(ts)  # guard against rounding-level dips
    return MonotoneMap(xs, ts)


def monge_ampere_residual(T: MonotoneMap, f: Density, g: Density) -> float:
    """max over interior samples of |g(x) - T'(x) f(T(x))|, centered T'.

    For a continuous pair and a piecewise-linear map on a grid of step h
    the expected residual scale is O(h), so a clean transport pair at
    h = 1e-3 sits well below 1e-4 while a corrupted map stands out
    immediately.  The centered T' straddles each jump of a grid density,
    so correct maps read O(1) on step densities and O(1/h) across
    zero-density gaps.
    """
    f = _require_line(f)
    g = _require_line(g)
    xs, ts = T.xs, T.ts
    dT = (ts[2:] - ts[:-2]) / (xs[2:] - xs[:-2])
    gv = g.value(xs[1:-1, None]) / max(g.integral(), 1e-300)
    fv = f.value(ts[1:-1, None]) / max(f.integral(), 1e-300)
    return float(np.abs(gv - dT * fv).max())


@dataclass(frozen=True)
class GrowthReport:
    sup_ratio: float
    growth_bounded: bool


def linear_growth_estimate(T: MonotoneMap) -> GrowthReport:
    """sup |T(x)| / sqrt(1 + x^2) with a leveling-off verdict.

    The flag looks at the outer decile of each end of the line on its
    own: if the ratio still grows by more than FLATTEN_RTOL across it,
    the map is not leveling off toward a linear envelope.  (The ratio of
    a purely linear map increases toward its asymptote, so a strict
    non-increase test would misflag it; a capped relative increase keeps
    linear maps bounded and flags polynomial growth.  The two ends are
    judged apart because an offset map has different asymptotes there.)
    """
    xs, ts = T.xs, T.ts
    if xs.size < 10:
        raise InputError("growth estimate needs at least 10 samples")
    ratio = np.abs(ts) / np.sqrt(1.0 + xs ** 2)
    sup = float(ratio.max())
    zero = int(np.searchsorted(xs, 0.0))  # xs increases: |x| grows along each end read outward
    tails = [r[-max(2, r.size // 10):] for r in (ratio[:zero][::-1], ratio[zero:]) if r.size]
    bounded = all(r.max() <= max(r[0], 1e-300) * (1.0 + FLATTEN_RTOL) for r in tails)
    return GrowthReport(sup_ratio=sup, growth_bounded=bool(bounded))
