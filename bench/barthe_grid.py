"""barthe-grid: grid Barthe evaluations and 1-D transport maps, in process.

Most verdicts are one `supconv_eval` in n = 1 or 2 on Gaussian inputs,
grid indicators, the bimodal counterexample or densities built by
`build_extremizer`; the rest are one 1-D transport map at h = 1e-3 with
its Monge-Ampere residual and growth estimate.  Grids are chosen so that
no evaluation costs much more than 0.3 s here, and the kinds fall into
cost bands with enough verdicts in each that the median and the tail
each sit inside one band (see ROUND_KINDS).

The seed draws the Gaussian precisions and means, the weights, the line
phases, the interval lengths and shifts and the grid values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from blgeo import datum, integrals, structure, transport
from blgeo.integrals import ExtremizerParams, GaussianDensity, GridDensity, GridSpec
from blgeo.subspace import Subspace

import oracles as O
from common import Checks, Verdict, median_setup, timed

MIN_ROUNDS = 3
LINE = Subspace(1, np.eye(1))
TRANSPORT_GRID = GridSpec(0.001, 8.0)

# (kind, verdicts per round); a round cycles through the kinds in this order.
# Sorted by time they form four bands: 8 cheap 1-D evaluations, 8 transport
# maps, 8 mid-size 1-D and 2-D evaluations, 16 evaluations of three blocks;
# so the median falls inside the third band and the tail inside the fourth.
ROUND_KINDS = [
    ("gauss-lines", 6), ("transport-gauss", 3), ("gauss-holder", 6), ("extremizer-lines", 5),
    ("indicator", 4), ("transport-grid", 3), ("gauss-holder3", 5), ("extremizer-axes", 2),
    ("transport-gap", 2), ("bimodal", 2), ("extremizer-holder", 2),
]
ROUND_LENGTH = sum(count for _, count in ROUND_KINDS)


@dataclass
class Item:
    kind: str
    d: object = None
    densities: list = field(default_factory=list)
    grid: GridSpec = None
    exact_lhs: float | None = None     # closed-form supremum integral
    exact_rhs: float | None = None
    expect: str = "holds"              # "holds", "equality" or "strict"
    f: object = None                   # transport: source and target
    g: object = None
    map_oracle: object = None          # (xs, expected T(xs), tolerance)
    residual_max: float | None = None
    info: dict = field(default_factory=dict)


def holder(weights):
    return datum.holder_datum(1, list(weights))


def random_weights(rng, k):
    w = rng.uniform(0.3, 1.0, k)
    return w / w.sum()


def interval_density(intervals, h: float, radius: float) -> GridDensity:
    """Indicator of a union of cell-aligned intervals, on cells of side h."""
    m = int(round(2 * radius / h))
    centers = -radius + (np.arange(m) + 0.5) * h
    vals = np.zeros(m)
    for a, b in intervals:
        vals[(centers > a) & (centers < b)] = 1.0
    return GridDensity(LINE, np.array([-radius]), h, vals)


def gaussian_supconv(d, A_list, grid, kind) -> Item:
    frames = [E.frame for E, _ in d.entries]
    weights = [c for _, c in d.entries]
    fs = [GaussianDensity(E, A) for (E, _), A in zip(d.entries, A_list)]
    lhs, rhs = O.barthe_gaussian_sides(frames, weights, A_list)
    return Item(kind, d, fs, grid, lhs, rhs, info={"A": [float(A[0, 0]) for A in A_list]})


def make_item(kind: str, rng) -> Item:
    if kind == "gauss-lines":
        d = lines_datum(rng.uniform(0.0, math.pi))
        A = [np.array([[a]]) for a in rng.uniform(0.5, 2.0, 3)]
        return gaussian_supconv(d, A, GridSpec(0.15, 3.0), kind)
    if kind in ("gauss-holder", "gauss-holder3"):
        k, grid = (2, GridSpec(0.0075, 5.0)) if kind == "gauss-holder" else (3, GridSpec(0.06, 5.0))
        d = holder(random_weights(rng, k))
        A = [np.array([[a]]) for a in rng.uniform(0.5, 3.0, k)]
        return gaussian_supconv(d, A, grid, kind)
    if kind == "indicator":
        h = 0.02
        w = random_weights(rng, 2)
        lengths = [h * int(rng.integers(30, 100)) for _ in range(2)]
        starts = [h * int(rng.integers(-60, 10)) for _ in range(2)]
        fs = [interval_density([(s, s + L)], h, 4.0) for s, L in zip(starts, lengths)]
        exact = float(w[0] * lengths[0] + w[1] * lengths[1])
        return Item(kind, holder(w), fs, GridSpec(h, 4.0), exact,
                    lengths[0] ** w[0] * lengths[1] ** w[1], info={"lengths": lengths})
    if kind == "bimodal":
        h = 0.02
        shifts = [h * int(rng.integers(-40, 20)) for _ in range(2)]
        fs = [interval_density([(s, s + 1.0), (s + 2.0, s + 3.0)], h, 4.0) for s in shifts]
        return Item(kind, holder([0.5, 0.5]), fs, GridSpec(h, 4.0), 3.0, 2.0, expect="strict")
    if kind == "extremizer-holder":
        d = holder(random_weights(rng, 2))
        rep = structure.independent_subspaces(d)
        h = 0.02
        centers = -4.0 + (np.arange(400) + 0.5) * h
        width = rng.uniform(0.8, 1.5)
        tri = np.clip(1.0 - np.abs(centers) / width, 0.0, None)
        shared = GridDensity(rep.independent_subspaces[0].subspace, np.array([-4.0]), h, tri)
        shifts = [np.array([s]) for s in rng.uniform(-0.5, 0.5, 2)]
        fs = integrals.build_extremizer(d, rep, ExtremizerParams(w=shifts, h=(shared,)))
        return Item(kind, d, fs, GridSpec(h, 4.0), expect="equality")
    if kind == "extremizer-lines":
        d = lines_datum(rng.uniform(0.0, math.pi))
        rep = structure.independent_subspaces(d)
        a = rng.uniform(0.6, 2.0)
        fs = integrals.build_extremizer(d, rep, ExtremizerParams(A=a * np.eye(2)))
        return Item(kind, d, fs, GridSpec(0.15, 3.0), math.pi / a, math.pi / a,
                    expect="equality", info={"A": a})
    if kind == "extremizer-axes":
        d = datum.direct_sum_data([datum.axis_datum(1), datum.axis_datum(1)])
        rep = structure.independent_subspaces(d)
        h = 0.08
        s = h * int(rng.integers(-12, 0))
        bi = interval_density([(s, s + 1.0), (s + 2.0, s + 3.0)], h, 4.0)
        a = rng.uniform(0.8, 2.0)
        factors = (GridDensity(rep.independent_subspaces[0].subspace, bi.lo, h, bi.values),
                   GaussianDensity(rep.independent_subspaces[1].subspace, [[a]]))
        fs = integrals.build_extremizer(d, rep, ExtremizerParams(h=factors))
        return Item(kind, d, fs, GridSpec(h, 4.0), expect="equality")
    return transport_item(kind, rng)


def lines_datum(phase: float):
    """Three equally spaced lines of R^2 at weight 2/3, turned by `phase`."""
    entries = []
    for j in range(3):
        a = phase + math.pi * j / 3
        entries.append((Subspace(2, np.array([[math.cos(a), math.sin(a)]])), 2.0 / 3.0))
    d = datum.GeometricBLDatum(2, tuple(entries))
    datum.validate_datum(d)
    return d


def transport_item(kind: str, rng) -> Item:
    a_g = rng.uniform(0.5, 2.0)
    m_g = rng.uniform(-0.5, 0.5)
    g = GaussianDensity(LINE, [[a_g]], [2.0 * m_g])
    sigma_g = 1.0 / math.sqrt(2.0 * a_g)
    # oracle points on the map's own samples, where it is not interpolated
    h = TRANSPORT_GRID.h
    xs = h * np.round((m_g + sigma_g * np.linspace(-2.2, 2.2, 20)) / h)
    u = [O.gaussian_cdf(a_g, m_g, x) for x in xs]
    if kind == "transport-gauss":
        a_f = rng.uniform(0.5, 2.0)
        m_f = rng.uniform(-0.5, 0.5)
        f = GaussianDensity(LINE, [[a_f]], [2.0 * m_f])
        expected = m_f + math.sqrt(a_g / a_f) * (xs - m_g)
        return Item(kind, f=f, g=g, map_oracle=(xs, expected, 1e-6), residual_max=1e-4)
    if kind == "transport-grid":
        vals = rng.uniform(0.1, 1.0, 32)
        f = GridDensity(LINE, np.array([-4.0]), 0.25, vals)
        cdf = O.grid_cdf(-4.0, 0.25, vals)
    else:
        h = 0.05
        s = h * int(rng.integers(-20, 0))
        f = interval_density([(s, s + 1.0), (s + 2.0, s + 3.0)], h, 4.0)
        cdf = O.grid_cdf(-4.0, h, f.values)
    expected = np.array([O.bisect_inverse(cdf, uu, -4.0, 4.0) for uu in u])
    return Item(kind, f=f, g=g, map_oracle=(xs, expected, 1e-5))


def candidates(item: Item) -> tuple:
    """(output cells, enumerated cells x output cells) of one grid evaluation.

    The first k-1 blocks enumerate only their cells of positive mass.
    """
    cells = item.grid.count ** item.d.ambient_dim
    enumerated = 1
    axis = item.grid.centers()
    for f in item.densities[:-1]:
        mesh = np.meshgrid(*([axis] * f.domain.dim), indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=1)
        enumerated *= int(np.count_nonzero(f.value(pts) > 0.0))
    return cells, enumerated * cells


def build_round(seed: int, short: bool) -> list:
    rng = np.random.default_rng([seed, 2])
    if short:
        return [make_item(kind, rng) for kind, _ in ROUND_KINDS]
    counts = dict(ROUND_KINDS)
    items = []
    while len(items) < ROUND_LENGTH:
        for kind, _ in ROUND_KINDS:
            if counts[kind]:
                counts[kind] -= 1
                items.append(make_item(kind, rng))
    return items


def call(item: Item):
    if item.f is not None:
        T = transport.brenier_1d(item.f, item.g, TRANSPORT_GRID)
        resid = transport.monge_ampere_residual(T, item.f, item.g)
        growth = transport.linear_growth_estimate(T) if item.residual_max else None
        return T, resid, growth
    return integrals.supconv_eval(item.d, item.densities, item.grid)


def check(item: Item, out, ok: Checks):
    if item.f is not None:
        T, resid, growth = out
        xs, expected, tol = item.map_oracle
        err = float(np.abs(T(xs) - expected).max())
        item.info["map_err"] = err
        item.info["residual"] = resid
        ok("map", err <= tol)
        ok("residual", math.isfinite(resid) and
           (item.residual_max is None or resid <= item.residual_max))
        if growth is not None:
            ratio = np.abs(T.ts) / np.sqrt(1.0 + T.xs ** 2)
            ok("growth_sup", abs(growth.sup_ratio - float(ratio.max())) <= 1e-12)
        return
    ev = out
    est = ev.est_error
    item.info["est_error"] = est
    ok("barthe_holds", ev.lhs >= ev.rhs * (1.0 - est))
    if item.exact_lhs is not None:
        item.info["rel_err"] = (ev.lhs - item.exact_lhs) / item.exact_lhs
        ok("closed_form_inside_budget", abs(ev.lhs - item.exact_lhs) <= est * ev.lhs)
        ok.close("rhs", ev.rhs, item.exact_rhs, max(est, 1e-9))
    if item.expect == "equality":
        ok("equality_within_budget", abs(ev.ratio - 1.0) <= est)
    elif item.expect == "strict":
        ok("strict_beyond_budget", ev.ratio - 1.0 > est)


def run_item(item: Item) -> Verdict:
    out, seconds, exc = timed(call, item)
    ok = Checks()
    if exc is not None:
        ok(f"raised {type(exc).__name__}: {exc}", False)
    else:
        check(item, out, ok)
    return Verdict(item.kind, seconds, ok.failures, info=item.info)


def setup(seed: int, short: bool, import_s: float):
    """Build the inputs, then one untimed verdict of each kind."""
    def build():
        items = build_round(seed, short)
        seen = {}
        for item in items:
            seen.setdefault(item.kind, item)
        for item in seen.values():
            run_item(item)
        return items
    items, seconds = median_setup(build)
    return items, import_s + seconds
