"""One-dimensional monotone-rearrangement transport.

The Brenier map between densities on the line is the monotone
rearrangement T = F_f^{-1} o F_g, which pushes the g-measure forward to
the f-measure: the f-mass of T((-inf, x]) equals the g-mass of
(-inf, x].  Cumulative distributions are computed exactly where the
density kind allows it (error functions for Gaussians, cell-mass sums
for grids) so the map error is dominated by interpolation, not
quadrature.

Flat CDF segments (zero-density gaps) are inverted to their left
endpoint, which makes plateau tie-breaking deterministic.

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
    density = in_frame(density, density.domain)
    if density.domain.dim != 1:
        raise InputError("transport works on densities over a 1-D subspace")
    return density


def _cdf_knots(density: Density, span: GridSpec):
    """Knot points, normalized CDF values at them, and the total mass.

    The CDF is normalized analytically, so the overall mass scale of the
    density never enters the knot values: scaling a density cannot move
    the plateau boundaries by rounding.
    """
    density = _require_line(density)
    if isinstance(density, GridDensity):
        edges = np.concatenate([[density.lo[0]], density.lo[0] + density.h * np.arange(1, density.values.size + 1)])
        masses = density.values * density.h
        total = float(masses.sum())
        if total <= 0.0:
            return edges, np.zeros(edges.size), 0.0
        cdf = np.concatenate([[0.0], np.cumsum(masses / total)])
        cdf[-1] = 1.0
        return edges, cdf, total
    if isinstance(density, GaussianDensity):
        # theta * exp(-a z^2 + a b z): the shape CDF is theta-free
        from scipy.special import erf  # lazy, for a fast cold start (math.erf differs in the last bit)
        a = float(density.A[0, 0])
        b = float(density.b[0])
        xs = np.linspace(-span.radius, span.radius, span.count + 1)
        cdf = 0.5 * (1.0 + erf(math.sqrt(a) * (xs - b / 2.0)))
        return xs, cdf, float(density.integral())
    raise InputError(f"unsupported density kind for transport: {type(density).__name__}")


def _invert_cdf(knots_x: np.ndarray, knots_u: np.ndarray, u):
    """Left-continuous inverse of a nondecreasing piecewise-linear CDF.

    On plateaus (zero-density gaps) the inverse jumps to the left
    endpoint of the flat segment.
    """
    u = np.asarray(u, dtype=float)
    top = knots_u[-1]
    # between the first knot and top, knot j is the first at or above u, so
    # u0 < u <= u1: u at a plateau's level lands on x1, its left endpoint
    j = np.clip(np.searchsorted(knots_u, u, side="left"), 1, knots_u.size - 1)
    u0, u1, x0, x1 = knots_u[j - 1], knots_u[j], knots_x[j - 1], knots_x[j]
    with np.errstate(divide="ignore", invalid="ignore"):  # only in lanes replaced below
        inner = x0 + (u - u0) / (u1 - u0) * (x1 - x0)
    return np.where(u <= knots_u[0], knots_x[0],
                    np.where(u >= top, knots_x[np.searchsorted(knots_u, top, side="left")], inner))


def brenier_1d(f: Density, g: Density, grid: GridSpec) -> MonotoneMap:
    """Monotone rearrangement T = F_f^{-1} o F_g on the sample grid.

    Both densities are normalized internally, so T only depends on their
    shapes; zero total mass is an error.
    """
    if grid.count + 1 > TRANSPORT_MAX_SAMPLES:
        raise CapError("transport samples", TRANSPORT_MAX_SAMPLES, grid.count + 1)
    fx, fu, fmass = _cdf_knots(f, grid)
    gx, gu, gmass = _cdf_knots(g, grid)
    if fmass <= 0.0 or gmass <= 0.0:
        raise InputError("transport needs densities of positive mass")
    xs = np.linspace(-grid.radius, grid.radius, grid.count + 1)
    u = np.interp(xs, gx, gu, left=0.0, right=1.0)
    ts = _invert_cdf(fx, fu, u)
    ts = np.maximum.accumulate(ts)  # guard against rounding-level dips
    return MonotoneMap(xs, ts)


def monge_ampere_residual(T: MonotoneMap, f: Density, g: Density) -> float:
    """max over interior samples of |g(x) - T'(x) f(T(x))|, centered T'.

    For a piecewise-linear map on a grid of step h the expected residual
    scale is O(h), so a clean transport pair at h = 1e-3 sits well below
    1e-4 while a corrupted map stands out immediately.
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
    ends = [ratio[end][np.argsort(np.abs(xs[end]))] for end in (xs < 0.0, xs >= 0.0)]
    tails = [r[-max(2, r.size // 10):] for r in ends if r.size]
    bounded = all(r.max() <= max(r[0], 1e-300) * (1.0 + FLATTEN_RTOL) for r in tails)
    return GrowthReport(sup_ratio=sup, growth_bounded=bool(bounded))
