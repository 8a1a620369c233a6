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
from scipy.special import erf

from .errors import InputError
from .integrals import Density, FactorizedDensity, GaussianDensity, GridDensity, GridSpec

MONOTONE_SLACK = 1e-12


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
        return {"x": [float(v) for v in self.xs], "T": [float(v) for v in self.ts]}


def _require_line(density: Density) -> Density:
    if isinstance(density, FactorizedDensity) and len(density.factors) == 1:
        density = density.factors[0][1]
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
    out = np.empty(u.shape)
    top = knots_u[-1]
    for m, uu in np.ndenumerate(u):
        if uu <= knots_u[0]:
            out[m] = knots_x[0]
            continue
        if uu >= top:
            out[m] = knots_x[int(np.searchsorted(knots_u, top, side="left"))]
            continue
        j = int(np.searchsorted(knots_u, uu, side="left"))
        u0, u1 = knots_u[j - 1], knots_u[j]
        if u1 <= u0:
            out[m] = knots_x[j]
        else:
            out[m] = knots_x[j - 1] + (uu - u0) / (u1 - u0) * (knots_x[j] - knots_x[j - 1])
    return out


def brenier_1d(f: Density, g: Density, grid: GridSpec) -> MonotoneMap:
    """Monotone rearrangement T = F_f^{-1} o F_g on the sample grid.

    Both densities are normalized internally, so T only depends on their
    shapes; zero total mass is an error.
    """
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

    def to_json(self) -> dict:
        return {"sup_ratio": self.sup_ratio, "growth_bounded": self.growth_bounded}


def linear_growth_estimate(T: MonotoneMap, interval=None,
                           flatten_rtol: float = 0.05) -> GrowthReport:
    """sup |T(x)| / sqrt(1 + x^2) with a leveling-off verdict.

    The flag looks at the outer decile of each end of the line on its
    own: if the ratio still grows by more than flatten_rtol across it,
    the map is not leveling off toward a linear envelope.  (The ratio of
    a purely linear map increases toward its asymptote, so a strict
    non-increase test would misflag it; a capped relative increase keeps
    linear maps bounded and flags polynomial growth.  The two ends are
    judged apart because an offset map has different asymptotes there.)
    """
    xs, ts = T.xs, T.ts
    if interval is not None:
        lo, hi = interval
        keep = (xs >= lo) & (xs <= hi)
        xs, ts = xs[keep], ts[keep]
    if xs.size < 10:
        raise InputError("growth estimate needs at least 10 samples")
    ratio = np.abs(ts) / np.sqrt(1.0 + xs ** 2)
    sup = float(ratio.max())
    ends = [ratio[end][np.argsort(np.abs(xs[end]))] for end in (xs < 0.0, xs >= 0.0)]
    tails = [r[-max(2, r.size // 10):] for r in ends if r.size]
    bounded = all(r.max() <= max(r[0], 1e-300) * (1.0 + flatten_rtol) for r in tails)
    return GrowthReport(sup_ratio=sup, growth_bounded=bool(bounded))
