import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erf

from conftest import indicator_density, invert_cdf_oracle

from blgeo import transport
from blgeo.errors import CapError, InputError
from blgeo.integrals import Density, GaussianDensity, GridDensity, GridSpec
from blgeo.subspace import full_subspace
from blgeo.transport import (
    TRANSPORT_MAX_SAMPLES,
    MonotoneMap,
    _cdf_knots,
    _invert_cdf,
    brenier_1d,
    linear_growth_estimate,
    monge_ampere_residual,
)

LINE = full_subspace(1)
STD = GaussianDensity(LINE, [[np.pi]])
SPEC = GridSpec(h=0.001, radius=8.0)


def wide_gaussian(sigma):
    """(1/sigma) exp(-pi x^2 / sigma^2), a mass-one Gaussian of width sigma."""
    return GaussianDensity(LINE, [[np.pi / sigma ** 2]], [0.0], 1.0 / sigma)


def test_identity_map():
    T = brenier_1d(STD, STD, SPEC)
    win = np.abs(T.xs) <= 2.0
    assert np.abs(T.ts[win] - T.xs[win]).max() < 1e-6


def test_linear_map_between_gaussians():
    T = brenier_1d(wide_gaussian(2.0), STD, SPEC)
    win = np.abs(T.xs) <= 2.0
    assert np.abs(T.ts[win] - 2.0 * T.xs[win]).max() < 1e-6


def test_pushforward_property():
    f = wide_gaussian(2.0)
    T = brenier_1d(f, STD, SPEC)
    # F_f(T(x)) must equal F_g(x) at every sample
    def F(density, x):
        a = density.A[0, 0]
        amp = density.theta * np.sqrt(np.pi / a) / 2.0
        return amp * (1.0 + erf(np.sqrt(a) * x)) / density.integral()
    win = np.abs(T.xs) <= 3.0
    err = np.abs(F(f, T.ts[win]) - F(STD, T.xs[win]))
    assert err.max() < 1e-6


def test_normalization_invariance():
    f = wide_gaussian(2.0)
    f_scaled = GaussianDensity(LINE, f.A, f.b, 7.3 * f.theta)
    T1 = brenier_1d(f, STD, SPEC)
    T2 = brenier_1d(f_scaled, STD, SPEC)
    assert np.abs(T1.ts - T2.ts).max() < 1e-12


def test_monotone_under_affine_composition():
    T = brenier_1d(wide_gaussian(2.0), STD, SPEC)
    composed = MonotoneMap(T.xs, 1.7 * T.ts + 0.3)
    assert np.all(np.diff(composed.ts) >= -1e-12)


def test_monge_ampere_residual_identity():
    T = brenier_1d(STD, STD, SPEC)
    assert monge_ampere_residual(T, STD, STD) < 1e-10


def test_monge_ampere_residual_linear():
    f = wide_gaussian(2.0)
    T = brenier_1d(f, STD, SPEC)
    assert monge_ampere_residual(T, f, STD) < 1e-4


def test_monge_ampere_detects_corruption():
    f = wide_gaussian(2.0)
    T = brenier_1d(f, STD, SPEC)
    win = np.abs(T.xs) <= 3.0
    Tc = MonotoneMap(T.xs[win], T.ts[win] + 0.1 * np.sin(T.xs[win]))
    assert monge_ampere_residual(Tc, f, STD) > 1e-2


def test_mass_conservation():
    f = wide_gaussian(2.0)
    T = brenier_1d(f, STD, SPEC)
    a = f.A[0, 0]
    total = 0.5 * (1.0 + erf(np.sqrt(a) * T.ts[-1]))  # F_f at the right end
    assert abs(total - 1.0) < 1e-6


def test_growth_linear_map_bounded():
    xs = np.linspace(-10, 10, 2001)
    rep = linear_growth_estimate(MonotoneMap(xs, 2 * xs))
    assert rep.sup_ratio == pytest.approx(2.0, abs=0.02)
    assert rep.growth_bounded


def test_growth_cubic_unbounded():
    xs = np.linspace(-10, 10, 2001)
    rep = linear_growth_estimate(MonotoneMap(xs, xs ** 3))
    assert not rep.growth_bounded


def test_growth_gaussian_to_mixture_bounded():
    h = 0.001
    m = int(2 * 8 / h)
    centers = -8 + (np.arange(m) + 0.5) * h
    vals = 0.5 * np.exp(-np.pi * (centers - 2) ** 2) + 0.5 * np.exp(-np.pi * (centers + 2) ** 2)
    fmix = GridDensity(LINE, np.array([-8.0]), h, vals)
    T = brenier_1d(fmix, STD, SPEC)
    assert linear_growth_estimate(T).growth_bounded


def test_mixture_matches_cdf_inversion_oracle():
    h = 0.001
    m = int(2 * 8 / h)
    centers = -8 + (np.arange(m) + 0.5) * h
    vals = 0.5 * np.exp(-np.pi * (centers - 2) ** 2) + 0.5 * np.exp(-np.pi * (centers + 2) ** 2)
    fmix = GridDensity(LINE, np.array([-8.0]), h, vals)
    T = brenier_1d(fmix, STD, SPEC)

    def F_mix(x):
        return 0.25 * (1 + erf(np.sqrt(np.pi) * (x - 2))) + \
               0.25 * (1 + erf(np.sqrt(np.pi) * (x + 2)))

    def F_g(x):
        return 0.5 * (1 + erf(np.sqrt(np.pi) * x))

    xs = T.xs[np.abs(T.xs) <= 1.5][::50]
    for x in xs:
        lo, hi, u = -8.0, 8.0, F_g(x)
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if F_mix(mid) < u:
                lo = mid
            else:
                hi = mid
        assert abs(float(T(x)) - 0.5 * (lo + hi)) < 1e-5


def test_piecewise_constant_oracle_agreement(rng):
    # 20 random positive step densities against exact-CDF bisection
    for trial in range(20):
        hf = 0.25
        m = 32
        vals = rng.uniform(0.1, 1.0, m)
        lo = -4.0
        f = GridDensity(LINE, np.array([lo]), hf, vals)
        T = brenier_1d(f, STD, SPEC)

        edges = lo + hf * np.arange(m + 1)
        cdf = np.concatenate([[0.0], np.cumsum(vals * hf)])
        cdf = cdf / cdf[-1]

        def F_f(x):
            return float(np.interp(x, edges, cdf))

        def F_g(x):
            return 0.5 * (1 + erf(np.sqrt(np.pi) * x))

        for x in np.linspace(-2.5, 2.5, 41):
            lo_b, hi_b, u = -4.0, 4.0, F_g(x)
            for _ in range(80):
                mid = 0.5 * (lo_b + hi_b)
                if F_f(mid) < u:
                    lo_b = mid
                else:
                    hi_b = mid
            assert abs(float(T(x)) - 0.5 * (lo_b + hi_b)) < 1e-5


@pytest.mark.parametrize("kind", ["gaussian", "grid"])
def test_one_factor_wrapper_on_the_negated_line_gives_the_plain_map(kind):
    # the same f on e1, once plain and once as the one factor of a wrapper
    # whose factor frame is -e1, where it reads as its mirror image
    e1, minus_e1 = {"n": 1, "frame": [[1.0]]}, {"n": 1, "frame": [[-1.0]]}
    if kind == "gaussian":  # centre -1
        plain = {"kind": "gaussian", "domain": e1, "A": [[1.0]], "b": [-2.0]}
        mirror = {"kind": "gaussian", "domain": minus_e1, "A": [[1.0]], "b": [2.0]}
    else:
        plain = {"kind": "grid", "domain": e1, "lo": [-0.5], "h": 0.25, "values": [3, 0, 2, 1]}
        mirror = {"kind": "grid", "domain": minus_e1, "lo": [-0.5], "h": 0.25,
                  "values": [1, 2, 0, 3]}
    wrapped = {"kind": "factorized", "domain": e1,
               "factors": [{"subspace": minus_e1, "density": mirror}]}
    g = GaussianDensity(LINE, [[1.0]])
    plain_map, wrapped_map = (brenier_1d(Density.from_json(f), g, SPEC) for f in (plain, wrapped))
    if kind == "gaussian":
        assert plain_map(0.0) == pytest.approx(-1.0, abs=1e-9)
    assert np.abs(plain_map.ts - wrapped_map.ts).max() <= 1e-12


def test_zero_mass_rejected():
    empty = GridDensity(LINE, np.array([0.0]), 0.1, np.zeros(10))
    with pytest.raises(InputError):
        brenier_1d(empty, STD, SPEC)


def test_sample_cap_refuses_before_allocating():
    # 2^20 samples pass; 1.6e8 would be several GB of arrays
    count = TRANSPORT_MAX_SAMPLES - 1
    assert len(brenier_1d(STD, STD, GridSpec(8.0 / count, 4.0)).xs) == TRANSPORT_MAX_SAMPLES
    t = time.perf_counter()
    with pytest.raises(CapError, match="transport samples"):
        brenier_1d(STD, STD, GridSpec(1e-7, 8.0))
    assert time.perf_counter() - t < 1.0


def test_monotone_map_validation():
    with pytest.raises(InputError):
        MonotoneMap(np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0, 0.5]))
    with pytest.raises(InputError):
        MonotoneMap(np.array([0.0, 0.0, 1.0]), np.array([0.0, 1.0, 2.0]))


def test_growth_offset_gaussian_pair_bounded():
    # T(x) = x/2 + 0.65 is linear, but its ratio |T(x)| / sqrt(1 + x^2)
    # tends to 1/2 from above at +8 and from below at -8; judged per end,
    # neither end grows
    f = GaussianDensity(LINE, [[2.0]], [2 * 0.5])
    g = GaussianDensity(LINE, [[0.5]], [2 * -0.3])
    assert linear_growth_estimate(brenier_1d(f, g, SPEC)).growth_bounded


def cdf_densities(rng):
    """20 Gaussians, 20 random step densities and 20 densities with a
    zero-density gap (a plateau of the CDF) between two intervals."""
    densities = [GaussianDensity(LINE, [[a]], [b]) for a, b in rng.uniform(0.2, 3.0, (20, 2))]
    densities += [GridDensity(LINE, [lo], 0.25, rng.uniform(0.0, 1.0, 32))
                  for lo in rng.uniform(-5.0, -3.0, 20)]
    densities += [indicator_density([(-3.0, -1.0 - g), (g, 2.0)], 0.01, 4.0)
                  for g in rng.uniform(0.1, 0.9, 20)]
    return densities


def test_cdf_knots_rise_from_exactly_0_to_exactly_1():
    # np.interp needs knots that never decrease.  Summed as shares of the
    # total, a grid's cumulative masses would round above 1 in 9 of the 20
    # gap densities drawn here.  On a span this wide every Gaussian saturates
    for f in cdf_densities(np.random.default_rng(0)):
        _, ku, _ = _cdf_knots(f, GridSpec(0.002, 16.0))
        assert np.all(np.diff(ku) >= 0.0)
        assert (ku[0], ku[-1]) == (0.0, 1.0)


def test_trailing_empty_cells_get_no_mass():
    # cumulative shares of the total can end a few ulp below 1, and a last
    # knot forced to 1 would put that mass in the empty cells after the
    # support (T(8) = 4 for 15 of these 20), whose right end is 2
    for g in np.random.default_rng(0).uniform(0.2, 0.9, 20):
        f = indicator_density([(-3.0, -1.0 - g), (g, 2.0)], 0.01, 4.0)
        T = brenier_1d(f, GaussianDensity(full_subspace(1), [[1.0]]), GridSpec(0.001, 8.0))
        edges = _cdf_knots(f, SPEC)[0]
        assert T.ts.max() <= edges[np.flatnonzero(f.values)[-1] + 1]


def test_gap_density_maps_to_itself(rng):
    # the identity map through a plateau: g's CDF sits exactly on the
    # plateau level in the gap, which must invert to the gap's left end
    for gap in rng.uniform(0.1, 0.9, 10):
        f = indicator_density([(-3.0, -1.0 - gap), (gap, 2.0)], 0.01, 4.0)
        T = brenier_1d(f, f, SPEC)
        edges, _, _ = _cdf_knots(f, SPEC)
        cell = np.searchsorted(edges, T.xs, side="left") - 1  # x in (edges[cell], edges[cell + 1]]
        inside = (cell >= 0) & (cell < f.values.size)
        positive = inside & (f.values[np.clip(cell, 0, f.values.size - 1)] > 0.0)
        support = np.flatnonzero(f.values)
        zeros = np.flatnonzero(f.values[support[0]:support[-1]] == 0.0) + support[0]
        left, right = edges[zeros[0]], edges[zeros[-1] + 1]
        in_gap = (T.xs > left) & (T.xs < right)
        assert in_gap.sum() > 100 and positive.sum() > 1000
        assert np.all(T.ts[in_gap] == left)
        assert np.abs(T.ts[positive] - T.xs[positive]).max() <= 1e-12
        assert np.all(T.ts[T.xs <= edges[support[0]]] == edges[0])  # level 0: the first knot


def test_cell_of_subnormal_mass_share_maps_inside_itself():
    # the first cell holds 3e-321 of the mass, so the CDF rises by a
    # subnormal step there, and inverting it divides by that step
    f = GridDensity(LINE, [-8.2], 0.5, [1e-300, 1e20, 1e20])
    T = brenier_1d(f, f, SPEC)
    edges = _cdf_knots(f, SPEC)[0]
    first, rest = T.xs <= edges[1], (T.xs > edges[1]) & (T.xs <= edges[-1])
    assert np.all((T.ts[first] >= edges[0]) & (T.ts[first] <= edges[1]))
    assert np.abs(T.ts[rest] - T.xs[rest]).max() <= 1e-12


def test_invert_cdf_rules_on_exact_knots():
    # a plateau's level lands on its left end, a level at or below the
    # first on the first knot, one at or above the top on the first knot
    # that reaches it; between knots the inverse is linear
    x = np.array([0.0, 1.0, 2.0, 3.0, 4.0, 5.0])
    u = np.array([0.0, 0.0, 0.5, 0.5, 1.0, 1.0])
    levels = [-1.0, 0.0, 0.25, 0.5, 0.75, 1.0, 2.0]
    assert _invert_cdf(x, u, levels).tolist() == [0.0, 0.0, 1.5, 2.0, 3.5, 4.0, 4.0]


def test_invert_cdf_matches_per_sample_oracle(rng):
    # Gaussian knots, random step densities and densities with zero-density
    # gaps (plateaus), at every fourth value brenier_1d inverts at h = 0.001
    # and at every knot level, plateaus included; bytes must agree
    densities = cdf_densities(rng)
    u = np.interp(np.linspace(-8.0, 8.0, SPEC.count // 4 + 1), *_cdf_knots(STD, SPEC)[:2])
    u = np.concatenate([u, [-1.0, 0.0, 1.0, 2.0]])
    for f in densities:
        kx, ku, _ = _cdf_knots(f, SPEC)
        uu = np.concatenate([u, ku])
        assert _invert_cdf(kx, ku, uu).tobytes() == invert_cdf_oracle(kx, ku, uu).tobytes()


CDF_GRIDS = [(0.001, 8.0), (0.05, 4.0), (0.07, 5.0), (0.25, 6.0), (0.0003, 2.0), (0.01, 30.0)]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(a=st.floats(0.05, 20.0), b=st.floats(-4.0, 4.0), a_f=st.floats(0.05, 20.0),
       b_f=st.floats(-4.0, 4.0), grid=st.sampled_from(CDF_GRIDS), rng_seed=st.integers(0, 2 ** 32 - 1))
def test_gaussian_cdf_knots_match_scipy_erf(a, b, a_f, b_f, grid, rng_seed):
    def scipy_knots(xs, a, centre):
        return 0.5 * (1.0 + erf(np.sqrt(a) * (xs - centre)))

    spec = GridSpec(*grid)
    g = GaussianDensity(LINE, [[a]], [b])
    xs, cdf, _ = _cdf_knots(g, spec)
    assert np.all(np.diff(cdf) >= 0.0)
    assert np.abs(cdf - scipy_knots(xs, a, b / 2.0)).max() <= 2e-15
    # the maps of a Gaussian and of a positive step density to g, against
    # the same maps on scipy knots; in the tails u is rounding-level (the
    # knots saturate at 0 or 1 within an ulp), so there the inverse CDF of
    # either is noise and exact agreement is neither possible nor meaningful
    steps = np.random.default_rng(rng_seed).uniform(0.1, 1.0, 16)
    for f in (GaussianDensity(LINE, [[a_f]], [b_f]), GridDensity(LINE, [-2.0], 0.25, steps)):
        T = brenier_1d(f, g, spec)
        with mock.patch.object(transport, "_gaussian_cdf", scipy_knots):
            ref = brenier_1d(f, g, spec)
        u = scipy_knots(ref.xs, a, b / 2.0)
        win = (u >= 1e-6) & (u <= 1.0 - 1e-6)
        assert np.abs(T.ts[win] - ref.ts[win]).max(initial=0.0) <= 1e-9
