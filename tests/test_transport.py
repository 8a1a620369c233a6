import numpy as np
import pytest
from scipy.special import erf

from blgeo.errors import InputError
from blgeo.integrals import GaussianDensity, GridDensity, GridSpec
from blgeo.subspace import full_subspace
from blgeo.transport import (
    MonotoneMap,
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


def test_zero_mass_rejected():
    empty = GridDensity(LINE, np.array([0.0]), 0.1, np.zeros(10))
    with pytest.raises(InputError):
        brenier_1d(empty, STD, SPEC)


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
