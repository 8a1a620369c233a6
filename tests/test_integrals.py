import math
import time
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fiber_per_entry, gaussian_fiber_oracle, indicator_density, random_datum

from blgeo import integrals
from blgeo.covers import UniformCover
from blgeo.datum import (
    GeometricBLDatum,
    axis_datum,
    direct_sum_data,
    holder_datum,
    make_datum_from_cover,
    paired_planes_datum,
    planar_lines_datum,
    validate_datum,
)
from blgeo.determinantal import determinantal_high_check, fiber_log_sides
from blgeo.errors import CapError, InputError, InternalError
from blgeo.integrals import (
    Density,
    ExtremizerParams,
    FactorizedDensity,
    GaussianDensity,
    GridDensity,
    GridSpec,
    IneqEvaluation,
    _filter3,
    build_extremizer,
    convolve_density,
    gaussian_barthe_eval,
    gaussian_bl_eval,
    is_log_concave,
    supconv_eval,
)
from blgeo.structure import indecomposable_decomposition, independent_subspaces
from blgeo.subspace import Subspace, full_subspace, orthonormalize, projection_matrix

LINE = full_subspace(1)


def loomis_whitney_datum():
    return make_datum_from_cover(UniformCover(3, 2, ({2, 3}, {1, 3}, {1, 2})))


# ---------------------------------------------------------------------------
# densities
# ---------------------------------------------------------------------------

def test_gaussian_integral_closed_form(rng):
    A = np.array([[2.0, 0.3], [0.3, 1.0]])
    b = np.array([0.4, -0.2])
    g = GaussianDensity(full_subspace(2), A, b, 1.3)
    # quadrature oracle on a wide fine grid
    h = 0.02
    xs = np.arange(-6, 6, h) + h / 2
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    pts = np.stack([X.ravel(), Y.ravel()], axis=1)
    quad = g.value(pts).sum() * h * h
    assert g.integral() == pytest.approx(quad, rel=1e-6)


def test_gaussian_integral_is_the_constructor_mass(rng):
    # integral() returns the mass the constructor computes and checks: the
    # slogdet formula bit for bit, also on the densities shift and scaled make
    for d in (1, 2, 3):
        for _ in range(10):
            M = rng.standard_normal((d, d))
            g = GaussianDensity(full_subspace(d), M @ M.T + 0.1 * np.eye(d), rng.standard_normal(d),
                                rng.uniform(0.1, 3.0))
            for f in (g, g.shift(rng.standard_normal(d)), g.scaled(rng.uniform(0.1, 3.0))):
                logdet = np.linalg.slogdet(f.A)[1]
                quad = float(f.b @ f.A @ f.b) / 4.0
                assert f.integral() == f.theta * math.exp(quad + 0.5 * d * math.log(math.pi) - 0.5 * logdet)


def test_gaussian_shift_moves_mass_correctly():
    g = GaussianDensity(LINE, [[np.pi]])
    gs = g.shift([0.7])
    assert gs.integral() == pytest.approx(g.integral(), rel=1e-12)
    z = np.array([[1.1], [0.2]])
    assert np.allclose(gs.value(z), g.value(z - 0.7))


def test_grid_density_basics():
    f = indicator_density([(0.0, 1.0)], 0.01, 2.0)
    assert f.integral() == pytest.approx(1.0, abs=1e-9)
    assert f.value(np.array([[0.5]]))[0] == 1.0
    assert f.value(np.array([[1.5]]))[0] == 0.0
    assert f.value(np.array([[5.0]]))[0] == 0.0  # outside the box


def cell_value(g, z):
    """The value of grid density g at the point z, one coordinate at a time."""
    cell = []
    for zj, lo, m in zip(z, g.lo, g.values.shape):
        x = (zj - lo) / g.h
        if not (math.isfinite(x) and 0 <= math.floor(x) < m):
            return 0.0
        cell.append(math.floor(x))
    return float(g.values[tuple(cell)])


def test_grid_lookups_read_one_padded_table():
    # value and log_value share one cell index: at cell centres, on cell
    # edges, off the grid and at +-1e300, +-inf and NaN, on grids of one to
    # three axes and on the densities shift, scaled and in_frame's reversal
    # make; far points read 0 and -inf, with no warning
    rng = np.random.default_rng(11)
    for dim in (1, 2, 3):
        shape = (5, 3, 4)[:dim]
        values = rng.uniform(0.0, 2.0, shape) * (rng.uniform(0.0, 1.0, shape) > 0.3)
        g = GridDensity(full_subspace(dim), rng.uniform(-1.0, 1.0, dim), 0.25, values)
        grids = [g, g.shift(rng.uniform(-1.0, 1.0, dim)), g.scaled(2.5)]
        if dim == 1:
            grids.append(integrals.in_frame(g, Subspace(1, [[-1.0]])))
            assert grids[-1].lo[0] == -g.hi[0]
        for f in grids:
            axis = [f.lo[j] + f.h * np.arange(-2, m + 3) for j, m in enumerate(f.values.shape)]
            coords = [np.concatenate([a, a + 0.5 * f.h, [-1e300, 1e300, -np.inf, np.inf, np.nan]])
                      for a in axis]
            Z = np.stack([rng.choice(c, 600) for c in coords], axis=1)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                value, log_value = f.value(Z), f.log_value(Z)
            assert np.array_equal(value, [cell_value(f, z) for z in Z]), dim
            with np.errstate(divide="ignore"):
                assert np.array_equal(log_value, np.log(value)), dim
            assert np.count_nonzero(value) > 10 and np.count_nonzero(np.isnan(Z).any(axis=1)) > 10


def test_finite_masses_and_sides_are_scaled_before_they_are_summed():
    # the sums of the values pass 1.8e308; the masses and sides, with the
    # cell volume h = 0.01, do not
    f = GridDensity(LINE, [0.0], 0.01, [1e308] * 4)
    assert f.integral() == pytest.approx(4e306, rel=1e-12)
    d = holder_datum(1, [0.5, 0.5])
    fs = [GaussianDensity(E, [[1.0]], theta=1e307) for E, _ in d.entries]
    ev = supconv_eval(d, fs, GridSpec(0.01, 4.0))
    exact = 1e307 * np.sqrt(np.pi)  # Hoelder's equality: both sides are the mass of one f
    assert ev.lhs == pytest.approx(exact, rel=1e-6) and ev.rhs == pytest.approx(exact, rel=1e-6)
    assert abs(ev.ratio - 1.0) <= ev.est_error


def test_factorized_requires_orthogonal_spanning_factors():
    e1 = orthonormalize([[1, 0]])
    e2 = orthonormalize([[0, 1]])
    diag = orthonormalize([[1, 1]])
    g1 = GaussianDensity(e1, [[1.0]])
    g2 = GaussianDensity(e2, [[2.0]])
    f = FactorizedDensity(full_subspace(2), ((e1, g1), (e2, g2)))
    assert f.integral() == pytest.approx(g1.integral() * g2.integral(), rel=1e-12)
    with pytest.raises(InputError):
        FactorizedDensity(full_subspace(2), ((e1, g1),))
    with pytest.raises(InputError):
        FactorizedDensity(full_subspace(2), ((e1, g1), (diag, GaussianDensity(diag, [[1.0]]))))


def test_density_json_roundtrip():
    g = GaussianDensity(LINE, [[np.pi]], [0.3], 2.0)
    g2 = Density.from_json(g.to_json())
    assert g2.integral() == pytest.approx(g.integral(), rel=1e-12)
    f = indicator_density([(0.0, 1.0)], 0.25, 2.0)
    f2 = Density.from_json(f.to_json())
    assert np.allclose(f2.values, f.values) and f2.h == f.h


# ---------------------------------------------------------------------------
# closed-form Gaussian evaluations
# ---------------------------------------------------------------------------

def test_bl_identity_operators_ratio_one(rng):
    d = random_datum(rng)
    ev = gaussian_bl_eval(d, [np.eye(E.dim) for E, _ in d.entries])
    assert ev.ratio == pytest.approx(1.0, abs=1e-12)
    assert ev.direction == "bl" and ev.method == "closed_form"


def test_bl_paired_planes_aligned_ratio_one():
    d = paired_planes_datum()
    parts = indecomposable_decomposition(d)
    Phi = 2.0 * projection_matrix(parts[0]) + 3.0 * projection_matrix(parts[1])
    A_list = [E.frame @ Phi @ E.basis for E, _ in d.entries]
    ev = gaussian_bl_eval(d, A_list)
    assert ev.ratio == pytest.approx(1.0, abs=1e-12)
    assert determinantal_high_check(d, A_list).equality


def test_bl_loomis_whitney_mismatched_strict():
    d = loomis_whitney_datum()
    scals = [1.0, 2.0, 5.0]
    A_list = [s * np.eye(2) for s in scals]
    ev = gaussian_bl_eval(d, A_list)
    # closed-form oracle computed directly from the ambient matrices
    M = sum(c * E.basis @ A @ E.frame
            for (E, c), A in zip(d.entries, A_list))
    lhs = np.linalg.det(M) ** -0.5
    rhs = np.prod([np.linalg.det(A) ** (-c / 2) for (E, c), A in zip(d.entries, A_list)])
    assert ev.lhs == pytest.approx(lhs, rel=1e-12)
    assert ev.rhs == pytest.approx(rhs, rel=1e-12)
    assert ev.ratio < 1.0 - 1e-6


def test_barthe_identity_phi(rng):
    d = random_datum(rng)
    n = d.ambient_dim
    ev = gaussian_barthe_eval(d, np.eye(n))
    assert ev.lhs == pytest.approx(np.pi ** (n / 2), rel=1e-12)
    assert ev.ratio == pytest.approx(1.0, abs=1e-10)


def test_barthe_paired_planes_phi():
    d = paired_planes_datum()
    parts = indecomposable_decomposition(d)
    Phi = 1.3 * projection_matrix(parts[0]) + 0.4 * projection_matrix(parts[1])
    ev = gaussian_barthe_eval(d, Phi)
    assert ev.ratio == pytest.approx(1.0, abs=1e-10)
    # oracle: the per-entry Gaussian integrals in closed form
    rhs = 1.0
    for E, c in d.entries:
        R = E.frame @ Phi @ E.basis
        rhs *= (np.pi ** (E.dim / 2) / np.linalg.det(R)) ** c
    assert ev.rhs == pytest.approx(rhs, rel=1e-10)


def test_barthe_loomis_whitney_distinct_axes():
    d = loomis_whitney_datum()
    ev = gaussian_barthe_eval(d, np.diag([0.7, 1.9, 3.1]))
    assert ev.ratio == pytest.approx(1.0, abs=1e-10)


def test_barthe_evaluates_a_rounded_critical_phi():
    # a critical Phi typed to 9 digits is critical only within rounding: every
    # one is evaluated, with ratio 1 to second order in the rounding, and its
    # equality verdict is the per-entry restriction test's
    rng = np.random.default_rng(11)
    equal = 0
    for _ in range(60):
        d = random_datum(rng, max_dim=8, max_vectors=16)
        Phi = sum(np.exp(rng.uniform(-1.5, 1.5)) * projection_matrix(V)
                  for V in indecomposable_decomposition(d))
        Phi = np.array([[float(f"{v:.9g}") for v in row] for row in Phi])
        check = fiber_log_sides(d, Phi)
        assert check.equality is (fiber_per_entry(d, Phi)[2] is not None)
        equal += check.equality
        assert gaussian_barthe_eval(d, Phi).ratio == pytest.approx(1.0, abs=1e-9)
    assert 0 < equal < 60


def test_barthe_reads_non_critical_eigenspaces_as_strict():
    d = loomis_whitney_datum()
    rng = np.random.default_rng(1)
    Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    Phi = Q @ np.diag([1.0, 2.0, 5.0]) @ Q.T
    assert not fiber_log_sides(d, Phi).equality
    ev = gaussian_barthe_eval(d, Phi)
    assert ev.ratio > 1.0 + 1e-3 > 1.0 + ev.est_error


# ---------------------------------------------------------------------------
# grid sup-convolution
# ---------------------------------------------------------------------------

def test_supconv_product_split_exact():
    d = direct_sum_data([axis_datum(1), axis_datum(1)])
    f1 = GaussianDensity(d.entries[0][0], [[np.pi]])
    f2 = indicator_density([(0.0, 1.0)], 0.05, 4.0)
    f2 = GridDensity(d.entries[1][0], f2.lo, f2.h, f2.values)
    ev = supconv_eval(d, [f1, f2], GridSpec(0.05, 4.0))
    assert ev.ratio == pytest.approx(1.0, abs=1e-12)
    assert ev.lhs == pytest.approx(ev.rhs, rel=1e-12)


def test_supconv_holder_indicator_equality():
    d = holder_datum(1, [0.5, 0.5])
    f = indicator_density([(0.0, 1.0)], 0.02, 4.0)
    ev = supconv_eval(d, [f, f], GridSpec(0.02, 4.0))
    assert abs(ev.ratio - 1.0) <= ev.est_error
    assert ev.lhs == pytest.approx(1.0, abs=0.03)


def test_supconv_bimodal_indicator_strict():
    d = holder_datum(1, [0.5, 0.5])
    f = indicator_density([(0.0, 1.0), (2.0, 3.0)], 0.02, 4.0)
    ev = supconv_eval(d, [f, f], GridSpec(0.02, 4.0))
    # exact interval oracle: midpoint set of ([0,1] u [2,3]) with itself
    # is [0,1] u [1,2] u [2,3] = [0,3], so the sup is 1 on [0,3]
    assert ev.lhs == pytest.approx(3.0, abs=0.05)
    assert ev.rhs == pytest.approx(2.0, abs=0.03)
    assert ev.ratio >= 1.2
    assert ev.ratio - 1.0 > 5 * ev.est_error


def test_supconv_shifted_gaussian_equality():
    d = holder_datum(1, [0.5, 0.5])
    g = GaussianDensity(LINE, [[np.pi]])
    ev = supconv_eval(d, [g.shift([0.37]), g.shift([-0.19])], GridSpec(0.05, 5.0))
    assert abs(ev.ratio - 1.0) <= ev.est_error


def test_supconv_grid_halving_converges():
    # three Gaussian cases with closed-form values; unequal widths make
    # the optimizer slope differ from 1, so lattice misalignment averages
    # out and halving the cell at least halves the error
    cases = [
        ([0.5, 0.5], [np.pi, np.pi / 4]),
        ([0.3, 0.7], [np.pi, np.pi / 2]),
        ([0.3, 0.3, 0.4], [np.pi, np.pi / 2, np.pi / 3]),
    ]
    for weights, precisions in cases:
        d = holder_datum(1, weights)
        fs = [GaussianDensity(LINE, [[a]]) for a in precisions]
        # the supremum profile is exp(-x^2 / sigma) with sigma = sum c_i/a_i
        sigma = sum(c / a for c, a in zip(weights, precisions))
        exact = np.sqrt(np.pi * sigma)
        errs = []
        for h in (0.2, 0.1, 0.05):
            ev = supconv_eval(d, fs, GridSpec(h, 6.0))
            errs.append(abs(ev.lhs - exact))
        assert errs[1] <= 0.55 * errs[0], (weights, errs)
        assert errs[2] <= 0.55 * errs[1], (weights, errs)


def test_supconv_prekopa_leindler_three_functions():
    d = holder_datum(1, [0.3, 0.3, 0.4])
    g = GaussianDensity(LINE, [[np.pi]])
    fs = [g.shift([0.2]), g.shift([-0.1]), g.shift([0.05])]
    ev = supconv_eval(d, fs, GridSpec(0.05, 5.0))
    assert abs(ev.ratio - 1.0) <= ev.est_error
    f = indicator_density([(0.0, 1.0), (2.0, 3.0)], 0.05, 5.0)
    ev2 = supconv_eval(d, [f, f, f], GridSpec(0.05, 5.0))
    assert ev2.ratio - 1.0 > 5 * ev2.est_error


def test_supconv_barthe_direction_random(rng):
    # lhs >= rhs (1 - est_error) for random bounded densities, n <= 2, k <= 3
    data = [
        holder_datum(1, [0.5, 0.5]),
        holder_datum(1, [0.3, 0.3, 0.4]),
        direct_sum_data([axis_datum(1), axis_datum(1)]),
    ]
    data.append(mixed_axes_plane_datum())
    for d in data:
        for _ in range(3):
            fs = []
            for E, _ in d.entries:
                if E.dim == 1:
                    vals = rng.uniform(0.0, 1.0, 40)
                    fs.append(GridDensity(E, np.array([-2.0]), 0.1, vals))
                else:
                    vals = rng.uniform(0.0, 1.0, (40, 40))
                    fs.append(GridDensity(E, np.array([-2.0, -2.0]), 0.1, vals))
            ev = supconv_eval(d, fs, GridSpec(0.1, 3.0))
            assert ev.lhs >= ev.rhs * (1.0 - ev.est_error - 1e-12)


def mixed_axes_plane_datum():
    """n = 2, k = 3: the two axes and the whole plane, each at weight 1/2."""
    e1 = orthonormalize([[1, 0]])
    e2 = orthonormalize([[0, 1]])
    d = GeometricBLDatum(2, ((e1, 0.5), (e2, 0.5), (full_subspace(2), 0.5)))
    assert validate_datum(d).is_valid
    return d


@st.composite
def gaussian_supconv_cases(draw):
    """A datum, random centered Gaussian precisions (generically no
    extremizer) and a grid that holds their mass; k = 5 runs because its
    30^5 candidates fit the work cap."""
    shape = draw(st.sampled_from(["lines", "axes", "mixed", "holder2", "holder3", "holder5"]))
    if shape.startswith("holder"):
        w = np.array([draw(st.floats(0.3, 1.0)) for _ in range(int(shape[-1]))])
        d = holder_datum(1, list(w / w.sum()))
    else:
        d = {"lines": lambda: planar_lines_datum(3),
             "axes": lambda: direct_sum_data([axis_datum(1), axis_datum(1)]),
             "mixed": mixed_axes_plane_datum}[shape]()
    precisions = []
    for E, _ in d.entries:
        lam = np.diag([draw(st.floats(0.5, 3.0)) for _ in range(E.dim)])
        if E.dim == 2:
            t = draw(st.floats(0.0, np.pi))
            R = np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
            lam = R @ lam @ R.T
        precisions.append(lam)
    grid = {"lines": GridSpec(0.15, 4.5), "axes": GridSpec(0.1, 4.5),
            "mixed": GridSpec(0.2, 4.4), "holder2": GridSpec(0.05, 4.5),
            "holder3": GridSpec(0.1, 4.5), "holder5": GridSpec(0.3, 4.5)}[shape]
    return d, precisions, grid


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(gaussian_supconv_cases())
def test_supconv_budget_encloses_gaussian_closed_form(case):
    # no floor: the closed form must lie inside lhs (1 +- est_error)
    d, precisions, grid = case
    fs = [GaussianDensity(E, A) for (E, _), A in zip(d.entries, precisions)]
    ev = supconv_eval(d, fs, grid)
    exact = np.exp(gaussian_fiber_oracle(d, precisions)[1])
    assert abs(ev.lhs - exact) <= ev.est_error * ev.lhs, (ev.lhs, exact, ev.est_error)


def test_supconv_three_lines_on_the_exact_fiber():
    # three lines at h = 0.1: a feasibility slack of one cell read
    # lhs 4.8% high; candidates on the exact fiber stay within 1%
    d = planar_lines_datum(3)
    precisions = [[[1.0]], [[2.0]], [[0.5]]]
    fs = [GaussianDensity(E, A) for (E, _), A in zip(d.entries, precisions)]
    ev = supconv_eval(d, fs, GridSpec(0.1, 4.0))
    assert abs(ev.lhs / np.exp(gaussian_fiber_oracle(d, precisions)[1]) - 1.0) < 0.01
    # each line in its negated frame is the same span; a density on another line is not
    flipped = [GaussianDensity(Subspace(2, -E.frame), A) for (E, _), A in zip(d.entries, precisions)]
    ev = supconv_eval(d, flipped, GridSpec(0.1, 4.0))
    assert abs(ev.lhs / np.exp(gaussian_fiber_oracle(d, precisions)[1]) - 1.0) < 0.01
    with pytest.raises(InputError, match="^density domains must match the datum subspaces$"):
        supconv_eval(d, [fs[0], fs[0], fs[2]], GridSpec(0.1, 4.0))


def test_supconv_block_split_between_solved_and_free():
    # three lines at total weight 0.61 plus the plane at 0.39: the pivots
    # solve the first line and one coordinate of the plane, so the plane
    # block mixes a solved and a free coordinate
    lines = planar_lines_datum(3)
    d = GeometricBLDatum(2, tuple((E, 0.61 * c) for E, c in lines.entries)
                         + ((full_subspace(2), 0.39),))
    assert validate_datum(d).is_valid
    # the coupled plane precision makes the sign of the free coordinate matter
    precisions = [[[1.0]], [[2.0]], [[0.7]], [[1.5, 0.9], [0.9, 1.0]]]
    fs = [GaussianDensity(E, A) for (E, _), A in zip(d.entries, precisions)]
    ev = supconv_eval(d, fs, GridSpec(0.3, 3.3))
    exact = np.exp(gaussian_fiber_oracle(d, precisions)[1])
    assert abs(ev.lhs - exact) <= ev.est_error * ev.lhs
    assert abs(ev.lhs / exact - 1.0) < 0.04


def test_filter3_matches_scipy_ndimage_bit_for_bit():
    from scipy.ndimage import maximum_filter, minimum_filter

    rng = np.random.default_rng(11)
    shapes = [(1,), (2,), (3,), (401,), (1, 1), (1, 5), (2, 1), (2, 2), (7, 2), (13, 11),
              (1, 2, 3), (2, 2, 2), (9, 1, 6), (5, 6, 7)]
    for shape in shapes:
        # sup-convolution grids hold many exact ties (zeros), so test those too
        for a in (rng.standard_normal(shape), rng.integers(0, 3, shape) * rng.random(shape)):
            assert np.array_equal(_filter3(a, np.maximum), maximum_filter(a, size=3, mode="nearest"))
            assert np.array_equal(_filter3(a, np.minimum), minimum_filter(a, size=3, mode="nearest"))


def test_supconv_caps():
    d = holder_datum(4, [0.5, 0.5])
    g = GaussianDensity(full_subspace(4), np.eye(4))
    with pytest.raises(CapError):
        supconv_eval(d, [g, g], GridSpec(0.5, 2.0))


@pytest.mark.parametrize("d, grid, cap", [
    # 156^3 output cells pass; 156^3 free tuples make 1.4e13 candidates
    (loomis_whitney_datum(), GridSpec(0.05, 3.9), "supconv candidates"),
    # 800^3 output cells: 12 GB of arrays if it were let through
    (axis_datum(3), GridSpec(0.01, 4.0), "supconv output cells"),
    # 64 cells, 2^30 candidates, but 64^4 free tuples of about 100 B each
    (holder_datum(1, [0.2] * 5), GridSpec(0.125, 4.0), "supconv free tuples"),
])
def test_supconv_work_caps_refuse_before_allocating(d, grid, cap):
    fs = [GaussianDensity(E, np.eye(E.dim)) for E, _ in d.entries]
    t = time.perf_counter()
    with pytest.raises(CapError, match=cap):
        supconv_eval(d, fs, grid)
    assert time.perf_counter() - t < 1.0


def test_a_violated_barthe_inequality_is_refused():
    # lhs below rhs (1 - est_error) is an internal error; a closed form's
    # est_error is its rounding budget, with no floor below it
    with pytest.raises(InternalError, match="Barthe inequality violated beyond the error budget: "
                                            "lhs 0.85 < rhs 1"):
        IneqEvaluation(0.85, 1.0, 0.85, "barthe", "grid", 0.1)
    IneqEvaluation(0.95, 1.0, 0.95, "barthe", "grid", 0.1)
    with pytest.raises(InternalError, match="Barthe inequality violated"):
        IneqEvaluation(1.0 - 2e-9, 1.0, 1.0 - 2e-9, "barthe", "closed_form", 1e-9)
    IneqEvaluation(1.0 - 5e-10, 1.0, 1.0 - 5e-10, "barthe", "closed_form", 1e-9)
    with pytest.raises(InternalError, match="Barthe inequality violated"):
        IneqEvaluation(1.0 - 1e-15, 1.0, 1.0 - 1e-15, "barthe", "closed_form", 0.0)
    # the Brascamp-Lieb direction has lhs <= rhs
    IneqEvaluation(0.5, 1.0, 0.5, "bl", "closed_form", 0.0)


def tile_cases():
    """Datum, densities and grid for each input kind of the grid Barthe
    evaluation, in n = 1, 2, 3 with k up to 4, each a small table."""
    far = [GaussianDensity(LINE, [[a]], [b], t) for a, b, t in
           ((1.0, 2.5, 1.7), (2.0, -3.0, 0.4), (0.5, 1.5, 3.0), (1.5, -2.0, 0.8))]
    lines = planar_lines_datum(3)
    line_fs = [GaussianDensity(E, [[a]], [b], t) for (E, _), a, b, t in
               zip(lines.entries, (1.0, 2.0, 0.5), (2.5, -3.0, 1.5), (1.7, 0.4, 3.0))]
    unit = indicator_density([(0.0, 1.0)], 0.1, 3.0)
    bimodal = indicator_density([(0.0, 1.0), (2.0, 3.0)], 0.1, 4.0)
    axes = direct_sum_data([axis_datum(1), axis_datum(1)])
    rep = independent_subspaces(axes)
    h1 = GridDensity(rep.independent_subspaces[0].subspace, bimodal.lo, bimodal.h, bimodal.values)
    h2 = GaussianDensity(rep.independent_subspaces[1].subspace, [[2.0]], [1.0], 2.0)
    holder = holder_datum(1, [0.5, 0.5])
    tri = GridDensity(LINE, np.array([-3.0]), 0.1,
                      np.clip(1.0 - np.abs(-3.0 + (np.arange(60) + 0.5) * 0.1), 0.0, None))
    shifted = build_extremizer(holder, independent_subspaces(holder), ExtremizerParams(
        w=[np.array([0.4]), np.array([-0.2])], h=(tri,)))
    lines_ex = build_extremizer(lines, independent_subspaces(lines), ExtremizerParams(
        A=1.3 * np.eye(2), b=[2.0 * E.frame[0] for E, _ in lines.entries], theta=(1.5, 0.5, 2.0)))
    space = direct_sum_data([planar_lines_datum(3), axis_datum(1)])
    space_fs = [GaussianDensity(E, [[a]], [b], t) for (E, _), a, b, t in
                zip(space.entries, (1.0, 2.0, 0.5, 1.5), (1.0, -1.0, 0.5, 2.0), (1.7, 0.4, 3.0, 0.8))]
    # Gaussian cross terms of rank two (two solved axes, the plane free) and three
    mixed = mixed_axes_plane_datum()
    mixed_fs = [GaussianDensity(mixed.entries[0][0], [[1.5]], [0.5], 1.3),
                GaussianDensity(mixed.entries[1][0], [[0.8]], [-1.0], 0.6),
                GaussianDensity(mixed.entries[2][0], [[1.2, 0.4], [0.4, 0.9]], [0.3, -0.6], 2.0)]
    lw = loomis_whitney_datum()
    lw_fs = [GaussianDensity(E, A, b, t) for (E, _), A, b, t in zip(
        lw.entries, ([[1.0, 0.3], [0.3, 2.0]], [[0.7, 0.0], [0.0, 1.4]], [[2.0, -0.5], [-0.5, 1.0]]),
        ([0.4, -0.2], [0.0, 0.6], [-0.5, 0.1]), (1.5, 0.7, 2.2))]
    return [
        (holder_datum(1, [0.3, 0.7]), far[:2], GridSpec(0.05, 6.0)),
        (holder_datum(1, [0.25, 0.25, 0.25, 0.25]), far, GridSpec(0.5, 4.0)),
        (lines, line_fs, GridSpec(0.3, 4.2)),
        (holder_datum(1, [0.5, 0.5]), [unit, unit], GridSpec(0.05, 3.0)),
        (holder_datum(1, [0.3, 0.3, 0.4]), [bimodal] * 3, GridSpec(0.1, 4.0)),
        (axes, build_extremizer(axes, rep, ExtremizerParams(h=(h1, h2))), GridSpec(0.2, 4.0)),
        (holder, shifted, GridSpec(0.05, 3.0)),
        (lines, lines_ex, GridSpec(0.25, 4.0)),
        (space, space_fs, GridSpec(0.5, 3.0)),
        (mixed, mixed_fs, GridSpec(0.8, 4.0)),
        (lw, lw_fs, GridSpec(1.0, 3.0)),
    ]


def test_supconv_tiles_do_not_change_a_float(monkeypatch):
    # one table as at v >= M T; ragged row blocks and column slabs at 7 and 1001
    for d, fs, grid in tile_cases():
        monkeypatch.setattr(integrals, "SUPCONV_TILE", 10 ** 9)
        whole = supconv_eval(d, fs, grid)
        for tile in (7, 1001):
            monkeypatch.setattr(integrals, "SUPCONV_TILE", tile)
            ev = supconv_eval(d, fs, grid)
            assert (ev.lhs, ev.rhs, ev.est_error) == (whole.lhs, whole.rhs, whole.est_error), \
                (d.ambient_dim, d.k, tile)


def test_supconv_slabs_of_a_whole_space_entry_do_not_change_a_float(monkeypatch):
    # entries on all of R^3, their grid points read whole, two slabs at a
    # time and one at a time; the second case has a wholly free block with
    # cells of zero mass, which it drops
    R3 = full_subspace(3)
    A = [[1.2, 0.3, 0.1], [0.3, 0.8, -0.2], [0.1, -0.2, 1.5]]
    holes = np.random.default_rng(5).uniform(0.0, 1.0, (6, 6, 6)) * (np.arange(6) % 3 > 0)
    cases = [(GeometricBLDatum(3, ((R3, 1.0),)), [GaussianDensity(R3, A, [0.3, -0.5, 0.2], 1.7)],
              GridSpec(0.25, 4.0)),
             (GeometricBLDatum(3, ((R3, 0.4), (R3, 0.6))),
              [GridDensity(R3, [-1.5] * 3, 0.5, holes), GaussianDensity(R3, A)], GridSpec(1.0, 4.0))]
    for d, fs, grid in cases:
        slab = grid.count ** 2
        results = []
        for tile in (10 ** 9, 2 * slab, 7):
            monkeypatch.setattr(integrals, "SUPCONV_TILE", tile)
            ev = supconv_eval(d, fs, grid)
            results.append((ev.lhs, ev.rhs, ev.est_error))
        assert results[0] == results[1] == results[2], (d.k, results)


def test_tile_cases_keep_the_tile_walk_tested(monkeypatch):
    # the Legendre route takes the rank-one Gaussian cases; the indicator,
    # bimodal, extremizer-axes and -holder cases and the Gaussian cross
    # terms of rank two and three still walk tiles
    walked, tile_walk = [], integrals._tile_walk
    monkeypatch.setattr(integrals, "_tile_walk", lambda *args: walked.append(1) or tile_walk(*args))
    for d, fs, grid in tile_cases():
        supconv_eval(d, fs, grid)
    assert len(walked) == 6


def spy_on_densities(monkeypatch) -> tuple:
    """Lists that fill as densities are built and evaluated: the class of
    each density built, and (density, points) for each evaluation that is
    not inside another evaluation of the same density."""
    built, calls, active = [], [], set()

    def spied(method):
        def spy(self, Z):
            outer = id(self) not in active
            if outer:
                calls.append((self, len(Z)))
                active.add(id(self))
            try:
                return method(self, Z)
            finally:
                if outer:
                    active.discard(id(self))
        return spy

    for cls in (GaussianDensity, GridDensity, FactorizedDensity):
        init = cls.__init__
        monkeypatch.setattr(cls, "__init__", lambda self, *args, _init=init, **kw:
                            built.append(type(self)) or _init(self, *args, **kw))
        for name in ("value", "log_value", "value_and_log"):
            monkeypatch.setattr(cls, name, spied(getattr(cls, name)))
    return built, calls


def test_supconv_reads_frames_in_place_and_evaluates_each_density_once(monkeypatch):
    # the one-factor Gaussians build_extremizer makes on three lines, the
    # second, which holds a solved coordinate, in its negated line's frame,
    # and a Hölder pair of grid indicators, whose solved block walks one
    # tile: a call builds no density, evaluates each density once on its
    # cell centres (the walked one once more, on its fiber points), and
    # gives, bit for bit, the result of the set-up that read each block
    # through a density rebuilt by in_frame
    lines = GeometricBLDatum(2, tuple((Subspace(2, [[math.cos(a), math.sin(a)]]), 2.0 / 3.0)
                                      for a in (0.0, 2 * math.pi / 3, math.pi / 3)))
    validate_datum(lines)
    extremizers = build_extremizer(lines, independent_subspaces(lines), ExtremizerParams(
        A=1.3 * np.eye(2), b=[2.0 * E.frame[0] for E, _ in lines.entries], theta=(1.5, 0.5, 2.0)))
    frames = [f.factors[0][0].frame @ f.domain.basis for f in extremizers]
    assert np.abs(frames[1] + 1.0).max() < 1e-12, frames
    indicators = [indicator_density([(-1.0, 0.5)], 0.1, 3.0), indicator_density([(0.0, 1.2)], 0.1, 3.0)]
    for d, fs, grid, walked in ((lines, extremizers, GridSpec(0.25, 4.0), 0),
                                (holder_datum(1, [0.4, 0.6]), indicators, GridSpec(0.1, 3.0), 1)):
        rebuilt = {id(f): integrals.in_frame(f, f.domain) for f in fs}
        with monkeypatch.context() as m:
            m.setattr(integrals, "_unwrapped", lambda g, domain: (rebuilt[id(g)], None))
            reference = supconv_eval(d, fs, grid)
        with monkeypatch.context() as m:
            built, calls = spy_on_densities(m)
            ev = supconv_eval(d, fs, grid)
        assert repr(ev) == repr(reference)
        assert built == []
        on_centres = [id(f) for f, points in calls if points == grid.count]
        inners = [g for f in fs if isinstance(f, FactorizedDensity) for _, g in f.factors]
        assert sorted(on_centres) == sorted(id(f) for f in fs + inners)
        assert len(calls) == len(on_centres) + walked


class PerCandidate(Density):
    """A density seen only through value, log_value and integral, so the
    grid Barthe evaluation takes it candidate by candidate even when it is
    a Gaussian."""

    def __init__(self, f):
        self.f, self.domain = f, f.domain

    def integral(self):
        return self.f.integral()

    def value(self, Z):
        return self.f.value(Z)

    def log_value(self, Z):
        return self.f.log_value(Z)


def assert_split_matches_per_candidate(d, fs, grid):
    split = supconv_eval(d, fs, grid)
    generic = supconv_eval(d, [PerCandidate(f) for f in fs], grid)
    for x, y in ((split.lhs, generic.lhs), (split.rhs, generic.rhs),
                 (split.est_error, generic.est_error)):
        assert abs(x - y) <= 1e-12 * abs(y), (d.ambient_dim, d.k, x, y)


def test_supconv_gaussian_split_matches_per_candidate_route():
    # Gaussian blocks enter a tile as row, column and cross terms; the
    # opaque wrapper sends every block through log_value instead
    for d, fs, grid in tile_cases():
        assert_split_matches_per_candidate(d, fs, grid)


@pytest.mark.parametrize("case", ["skewed_weights", "narrow", "wide", "three_far"])
def test_supconv_gaussian_split_on_badly_scaled_data(case):
    weights, A, b, grid = {
        "skewed_weights": ((0.001, 0.999), (1e4, 1.0), (0.1, 0.0), GridSpec(0.001, 3.0)),
        "narrow": ((0.5, 0.5), (1e4, 1e4), (0.1, -0.1), GridSpec(0.001, 2.0)),
        "wide": ((0.5, 0.5), (1e-6, 1e-6), (0.0, 0.0), GridSpec(50.0, 5000.0)),
        "three_far": ((0.3, 0.3, 0.4), (1.0, 2.0, 0.5), (3.0, -3.0, 3.0), GridSpec(0.1, 6.0)),
    }[case]
    fs = [GaussianDensity(LINE, [[a]], [c]) for a, c in zip(A, b)]
    assert_split_matches_per_candidate(holder_datum(1, list(weights)), fs, grid)


def traced_peak(d, fs, grid):
    tracemalloc.start()
    try:
        supconv_eval(d, fs, grid)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_supconv_memory_is_bounded_by_the_tile():
    # three lines at the CLI's default grid, walked in tiles: 160^2 output
    # cells x 160 free cells; one untiled table held 155 MB
    d = planar_lines_datum(3)
    fs = [PerCandidate(GaussianDensity(E, [[a]])) for (E, _), a in zip(d.entries, (1.0, 2.0, 0.5))]
    peak = traced_peak(d, fs, GridSpec(0.05, 4.0))
    assert peak < 16 * 2 ** 20, peak


def test_supconv_legendre_route_holds_one_value_per_cell_and_tuple():
    # three axes in R^3 at the CLI's default grid (160^3 output cells, no
    # free coordinate): F and the two 3 x 3 x 3 filters of the error budget
    # need about 125 MB (traced); whole-grid point arrays beside them held 501 MB
    d = axis_datum(3)
    fs = [GaussianDensity(E, [[a]]) for (E, _), a in zip(d.entries, (1.0, 2.0, 0.5))]
    assert traced_peak(d, fs, GridSpec(0.05, 4.0)) < 300 * 2 ** 20
    # three Gaussians in R as in the barthe-grid benchmark: 167 cells x
    # 27,889 free tuples, 1.9 MB when the table was walked in tiles
    d = holder_datum(1, [0.3, 0.3, 0.4])
    fs = [GaussianDensity(LINE, [[a]]) for a in (1.0, 2.0, 0.5)]
    assert traced_peak(d, fs, GridSpec(0.06, 5.0)) <= 2 * 2 ** 20


def test_supconv_grid_points_of_a_whole_space_entry_come_a_slab_at_a_time():
    # one Gaussian on all of R^3 at the CLI's default grid: 160^3 points of
    # 3 coordinates are 98 MB, and its value over them makes temporaries of
    # that size; the whole grid at once peaked at 282 MB
    R3 = full_subspace(3)
    d = GeometricBLDatum(3, ((R3, 1.0),))
    assert traced_peak(d, [GaussianDensity(R3, np.eye(3))], GridSpec(0.05, 4.0)) < 200 * 2 ** 20


def test_supconv_tile_walk_holds_a_few_values_per_cell_and_tuple():
    # a grid density on the first of three axes in R^3 at the CLI's default
    # grid walks tiles (160^3 output cells, no free coordinate); the output
    # points and their solved coordinates beside the tiles held 344 MB
    d = axis_datum(3)
    tent = np.clip(1.0 - np.abs(GridSpec(0.05, 4.0).centers()) / 2.0, 0.0, None)
    fs = [GridDensity(d.entries[0][0], [-4.0], 0.05, tent),
          GaussianDensity(d.entries[1][0], [[2.0]]), GaussianDensity(d.entries[2][0], [[0.5]])]
    assert traced_peak(d, fs, GridSpec(0.05, 4.0)) < 300 * 2 ** 20


def whole_maxima(p, L, t):
    """max over b of L[b] + p[a] t[b], one row of the whole table at a time."""
    return np.array([(L + q * t).max() for q in p])


def assert_row_maxima_are_the_whole_tables(p, L, t, tiles=(integrals.SUPCONV_TILE, 1, 10 ** 9)):
    """_row_maxima, t sorted first, equals the whole table's maxima bit for
    bit at each tile, which only the divide-and-conquer finish reads."""
    order = np.argsort(t, kind="stable")
    L, t = L[order], t[order]
    whole = whole_maxima(p, L, t)
    for tile in tiles:
        with mock.patch.object(integrals, "SUPCONV_TILE", tile):
            assert np.array_equal(integrals._row_maxima(p, L, t), whole), (len(p), len(t), tile)


def test_row_maxima_matches_the_whole_table():
    # random rows and columns, and tables full of ties: constant L,
    # repeated t, repeated p, a zero p, one row, one column, columns of no
    # mass (L = -inf, whose chords read inf - inf); the tile
    # matters only when pruning to the hull stalls, and a one-candidate
    # tile descends to segments of one or two rows
    rng = np.random.default_rng(7)
    for M, T in ((1, 1), (1, 9), (9, 1), (2, 2), (3, 40), (37, 211), (300, 17), (64, 64), (500, 500)):
        p, L, t = rng.standard_normal(M), rng.standard_normal(T), rng.standard_normal(T)
        for case in ((p, L, t), (1e6 * p, L, 1e-3 * t), (p, np.full(T, 0.7), t), (p, L, np.round(t)),
                     (np.round(p), L, t), (np.round(p), np.round(L), np.round(t)), (np.zeros(M), L, t),
                     (p, np.where(L > 0.5, -np.inf, L), t)):
            assert_row_maxima_are_the_whole_tables(*case)
    # a concave L, whose points are all hull vertices, read at the edges'
    # rounded slopes and the floats beside them: there the rounded slope
    # can send the search to the wrong side of the maximizer
    t = np.sort(rng.standard_normal(300))
    L = -t * t
    slopes = (L[:-1] - L[1:]) / np.diff(t)
    assert_row_maxima_are_the_whole_tables(
        np.concatenate([slopes, np.nextafter(slopes, np.inf), np.nextafter(slopes, -np.inf)]), L, t)


def test_row_maxima_finish_a_concave_run_under_a_chord_by_divide_and_conquer():
    # a concave run under the chord of two outer points loses one point
    # from each end per pass: the first pass hands the other T - 2 points on
    T = 10 ** 4
    t = np.linspace(-1.0, 1.0, T)
    L = -t * t
    L[[0, -1]] = 1.0
    p = np.random.default_rng(3).uniform(-5.0, 5.0, 200)
    finish = integrals._divide_and_conquer
    with mock.patch.object(integrals, "_divide_and_conquer", wraps=finish) as dc:
        assert_row_maxima_are_the_whole_tables(p, L, t)
    assert dc.call_count == 3 and all(len(call.args[2]) == T - 2 for call in dc.call_args_list)


def test_row_maxima_match_the_whole_table_on_a_cloud_of_two_free_coordinates():
    # three Gaussians in R leave two free coordinates: their tuples make a
    # 2-D product grid, which L and t take to a cloud of points in the
    # plane; pruning leaves a few hundred of its 10^4 points to the finish
    d = holder_datum(1, [0.3, 0.3, 0.4])
    fs = [GaussianDensity(LINE, [[a]]) for a in (1.0, 2.0, 0.5)]
    with mock.patch.object(integrals, "_row_maxima", wraps=integrals._row_maxima) as search, \
            mock.patch.object(integrals, "_divide_and_conquer", wraps=integrals._divide_and_conquer) as dc:
        supconv_eval(d, fs, GridSpec(0.1, 5.0))
    (p, L, t), = [call.args for call in search.call_args_list]
    assert len(p) == 100 and len(t) == 100 ** 2
    assert dc.call_count == 1 and len(dc.call_args.args[2]) < 1000
    assert_row_maxima_are_the_whole_tables(p, L, t)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_row_maxima_match_the_whole_table_with_ties(data):
    # quarters and halves of small integers: ties in t, L and p, exact
    # products and exact chords, so the hull's maxima are the table's; half
    # the tables are a concave run under a chord, whose pruning stalls when
    # t takes enough values
    M, T = data.draw(st.integers(1, 30)), data.draw(st.integers(1, 80))
    quarters = st.integers(-16, 16).map(lambda v: v / 4.0)
    halves = st.integers(-6, 6).map(lambda v: v / 2.0)
    p = np.array(data.draw(st.lists(quarters, min_size=M, max_size=M)))
    t = np.array(data.draw(st.lists(quarters, min_size=T, max_size=T)))
    if data.draw(st.booleans()):
        L = -t * t
        L[(t == t.min()) | (t == t.max())] = 8.0
    else:
        L = np.array(data.draw(st.lists(halves, min_size=T, max_size=T)))
    assert_row_maxima_are_the_whole_tables(p, L, t, tiles=(integrals.SUPCONV_TILE, 1))


RANK_ONE_SHAPES = ["holder2", "holder3", "holder4", "holder5", "grid",
                   "lines", "axis+holder", "plane+holder", "space"]


def random_gaussians(draw, d):
    """One Gaussian per entry of d, on a line or a plane, with a random
    precision A, shift b and scale theta."""
    fs = []
    for E, _ in d.entries:
        lam = np.diag([draw(st.floats(0.3, 3.0)) for _ in range(E.dim)])
        if E.dim == 2:
            a = draw(st.floats(0.0, np.pi))
            R = np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]])
            lam = R @ lam @ R.T
        b = [draw(st.floats(-1.5, 1.5)) for _ in range(E.dim)]
        fs.append(GaussianDensity(E, lam, b, draw(st.floats(0.2, 5.0))))
    return fs


@st.composite
def rank_one_cases(draw, shape):
    """Gaussian solved blocks with random precisions, shifts b and scales
    theta, whose cross term has rank at most one: n = 1 with k <= 5, and
    n = 2, 3 with one free coordinate; in "grid" the free block of a
    Holder pair is a grid density."""
    w = draw(st.floats(0.2, 0.45))
    if shape.startswith("holder"):
        k = int(shape[-1])
        weights = np.array([draw(st.floats(0.3, 1.0)) for _ in range(k)])
        d = holder_datum(1, list(weights / weights.sum()))
    else:
        d = {"grid": lambda: holder_datum(1, [w, 1.0 - w]),
             "lines": lambda: planar_lines_datum(3),
             "axis+holder": lambda: direct_sum_data([axis_datum(1), holder_datum(1, [w, 1.0 - w])]),
             "plane+holder": lambda: direct_sum_data([axis_datum(2), holder_datum(1, [w, 1.0 - w])]),
             "space": lambda: direct_sum_data([planar_lines_datum(3), axis_datum(1)])}[shape]()
    grid = {"holder2": GridSpec(0.04, 4.0), "holder3": GridSpec(0.16, 4.0), "holder4": GridSpec(0.4, 4.0),
            "holder5": GridSpec(0.8, 4.0), "grid": GridSpec(0.05, 4.0), "lines": GridSpec(0.25, 4.0),
            "axis+holder": GridSpec(0.25, 4.0), "plane+holder": GridSpec(0.5, 4.0),
            "space": GridSpec(0.5, 4.0)}[shape]
    fs = random_gaussians(draw, d)
    if shape == "grid":
        # the lighter block is the free one; its cells carry random mass, some none
        values = np.array([draw(st.floats(0.0, 2.0)) for _ in range(grid.count)])
        values[grid.count // 2] = 1.0
        fs[0] = GridDensity(LINE, np.array([-grid.radius]), grid.h, values)
    return d, fs, grid


@pytest.mark.parametrize("shape", RANK_ONE_SHAPES)
@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_supconv_legendre_route_matches_per_candidate_route(shape, data):
    d, fs, grid = data.draw(rank_one_cases(shape))
    with mock.patch.object(integrals, "_tile_walk", side_effect=AssertionError("walked tiles")):
        route = supconv_eval(d, fs, grid)
    generic = supconv_eval(d, [PerCandidate(f) for f in fs], grid)
    for x, y in ((route.lhs, generic.lhs), (route.rhs, generic.rhs),
                 (route.est_error, generic.est_error)):
        assert abs(x - y) <= 1e-12 * abs(y), (d.ambient_dim, d.k, x, y)


@pytest.mark.parametrize("shape", ["mixed", "loomis-whitney"])
@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_supconv_cross_terms_of_rank_two_and_three_match_per_candidate_route(shape, data):
    # the axes and the plane of R^2 leave two free coordinates, the
    # coordinate planes of R^3 three: two or three products in each tile
    d, grid = {"mixed": (mixed_axes_plane_datum(), GridSpec(0.5, 4.0)),
               "loomis-whitney": (loomis_whitney_datum(), GridSpec(1.0, 4.0))}[shape]
    fs = random_gaussians(data.draw, d)
    with mock.patch.object(integrals, "_row_maxima", side_effect=AssertionError("searched rows")):
        assert_split_matches_per_candidate(d, fs, grid)


# ---------------------------------------------------------------------------
# extremizers
# ---------------------------------------------------------------------------

def test_log_concavity_checks():
    assert is_log_concave(GaussianDensity(LINE, [[1.0]]))
    tri = indicator_density([(0.0, 1.0)], 0.05, 2.0)
    assert is_log_concave(tri)
    bimodal = indicator_density([(0.0, 1.0), (2.0, 3.0)], 0.05, 4.0)
    assert not is_log_concave(bimodal)


def test_extremizer_axis_datum_no_conditions():
    d = direct_sum_data([axis_datum(1), axis_datum(1)])
    rep = independent_subspaces(d)
    # each independent axis belongs to a single entry: any shape works
    h1 = indicator_density([(0.0, 1.0), (2.0, 3.0)], 0.05, 4.0)
    h1 = GridDensity(rep.independent_subspaces[0].subspace, h1.lo, h1.h, h1.values)
    h2 = GaussianDensity(rep.independent_subspaces[1].subspace, [[2.0]])
    fs = build_extremizer(d, rep, ExtremizerParams(h=(h1, h2)))
    ev = supconv_eval(d, fs, GridSpec(0.05, 4.0))
    assert abs(ev.ratio - 1.0) <= ev.est_error


def test_extremizer_holder_shifted_log_concave():
    d = holder_datum(1, [0.5, 0.5])
    rep = independent_subspaces(d)
    m = 400
    centers = -4 + (np.arange(m) + 0.5) * 0.02
    tri = np.clip(1.0 - np.abs(centers), 0.0, None)
    h = GridDensity(LINE, np.array([-4.0]), 0.02, tri)
    params = ExtremizerParams(w=[np.array([0.4]), np.array([-0.2])], h=(h,))
    fs = build_extremizer(d, rep, params)
    assert all(f.integral() == pytest.approx(h.integral(), rel=1e-9) for f in fs)
    ev = supconv_eval(d, fs, GridSpec(0.02, 4.0))
    assert abs(ev.ratio - 1.0) <= ev.est_error


def test_extremizer_paired_planes_gaussian_closed_form():
    d = paired_planes_datum()
    rep = independent_subspaces(d)
    dep = rep.dependent_subspace
    parts = rep.indecomposable_decomposition
    Phi = 2.0 * projection_matrix(parts[0]) + 3.0 * projection_matrix(parts[1])
    A = dep.frame @ Phi @ dep.basis  # in F_dep coordinates
    bs = [0.3 * E.frame[0] for E, _ in d.entries]  # shifts inside E_i
    fs = build_extremizer(d, rep, ExtremizerParams(A=A, b=bs, theta=(1.0, 2.0, 0.5)))
    assert all(f.integral() > 0 for f in fs)
    # closed-form equality oracle for the centered profile: the shifts and
    # scales factor out of both sides, so verify the unshifted case
    base = build_extremizer(d, rep, ExtremizerParams(A=A))
    lhs_base = np.pi ** 2 / np.sqrt(np.linalg.det(dep.basis @ A @ dep.frame))
    rhs_base = np.prod([f.integral() ** c for (E, c), f in zip(d.entries, base)])
    assert lhs_base == pytest.approx(rhs_base, rel=1e-10)


def test_extremizer_rejects_bimodal_shared_factor():
    d = holder_datum(1, [0.5, 0.5])
    rep = independent_subspaces(d)
    bimodal = indicator_density([(0.0, 1.0), (2.0, 3.0)], 0.05, 4.0)
    with pytest.raises(InputError):
        build_extremizer(d, rep, ExtremizerParams(h=(bimodal,)))


def test_extremizer_rejects_bad_center():
    d = paired_planes_datum()
    rep = independent_subspaces(d)
    dep = rep.dependent_subspace
    A = dep.frame @ np.eye(4) @ dep.basis
    bad_b = [np.array([0.0, 1.0, 0.0, 0.0])] * 3  # not inside E_1
    with pytest.raises(InputError):
        build_extremizer(d, rep, ExtremizerParams(A=A, b=bad_b))


def test_extremizer_rejects_non_critical_A():
    d = loomis_whitney_datum()
    rep = independent_subspaces(d)
    assert rep.dependent_subspace.dim == 0  # nothing to reject here
    d2 = paired_planes_datum()
    rep2 = independent_subspaces(d2)
    rng = np.random.default_rng(3)
    Q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    A = Q @ np.diag([1.0, 2.0, 3.0, 4.0]) @ Q.T  # generic eigenspaces
    with pytest.raises(InputError, match="eigenspaces of A must be critical"):
        build_extremizer(d2, rep2, ExtremizerParams(A=A))
    d3 = planar_lines_datum(3)
    rep3 = independent_subspaces(d3)
    for bad in (np.eye(3), [[1.0, 0.0]]):  # the dependent subspace is the plane
        with pytest.raises(InputError, match="A must be 2 x 2"):
            build_extremizer(d3, rep3, ExtremizerParams(A=bad))


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------

def test_convolve_gaussians_closed_form():
    g = GaussianDensity(LINE, [[np.pi]])
    conv = convolve_density(g, g)
    assert isinstance(conv, GaussianDensity)
    assert conv.integral() == pytest.approx(1.0, rel=1e-12)
    # covariances add: 1/(2 pi) + 1/(2 pi)
    Sigma = np.linalg.inv(conv.A)[0, 0] / 2.0
    assert Sigma == pytest.approx(1.0 / np.pi, rel=1e-12)


def test_convolve_indicators_triangle():
    f = GridDensity(LINE, np.array([0.0]), 0.01, np.ones(100))
    conv = convolve_density(f, f)
    assert conv.integral() == pytest.approx(1.0, rel=1e-9)
    assert conv.values.max() == pytest.approx(1.0, abs=0.02)
    mid = conv.value(np.array([[1.0]]))[0]
    assert mid == pytest.approx(1.0, abs=0.02)
    assert conv.value(np.array([[0.5]]))[0] == pytest.approx(0.5, abs=0.02)


def test_convolution_mass_multiplies(rng):
    g = GaussianDensity(LINE, [[2.0]], [0.5], 1.7)
    k = GaussianDensity(LINE, [[0.8]], [-0.2], 0.6)
    conv = convolve_density(g, k)
    assert conv.integral() == pytest.approx(g.integral() * k.integral(), rel=1e-6)
    f = GridDensity(LINE, np.array([-1.0]), 0.01, rng.uniform(0, 1, 200))
    conv2 = convolve_density(f, g)
    assert conv2.integral() == pytest.approx(f.integral() * g.integral(), rel=1e-3)


def test_grid_convolution_matches_scipy_direct(rng):
    # the direct sums on numpy alone against scipy's direct method, in 1, 2 and 3 dims
    from scipy.signal import convolve

    from blgeo.integrals import _direct_convolution

    for shapes in [((50,), (7,)), ((7,), (50,)), ((12, 5), (3, 9)), ((3, 4), (20, 30)),
                   ((6, 3, 5), (2, 7, 4)), ((2, 2, 2), (8, 6, 7))]:
        a, b = (rng.uniform(0.0, 1.0, shape) for shape in shapes)
        ref = convolve(a, b, method="direct")
        assert np.abs(_direct_convolution(a, b) - ref).max() <= 1e-15 * np.abs(ref).max()


def test_convolve_domain_mismatch():
    e1 = orthonormalize([[1, 0]])
    e2 = orthonormalize([[0, 1]])
    with pytest.raises(InputError):
        convolve_density(GaussianDensity(e1, [[1.0]]), GaussianDensity(e2, [[1.0]]))
    # one plane in two frames: the cells of a grid in the swapped frame do
    # not pair up with those of a grid in the standard frame
    swapped = Subspace(2, [[0.0, 1.0], [1.0, 0.0]])
    grid = np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]])
    with pytest.raises(InputError):
        convolve_density(GridDensity(full_subspace(2), [0.0, 0.0], 0.5, grid),
                         GridDensity(swapped, [0.0, 0.0], 0.5, grid))


def test_convolved_extremizers_stay_extremal():
    d = holder_datum(1, [0.5, 0.5])
    rep = independent_subspaces(d)
    m = 400
    centers = -4 + (np.arange(m) + 0.5) * 0.02
    tri = np.clip(1.0 - np.abs(centers), 0.0, None)
    h = GridDensity(LINE, np.array([-4.0]), 0.02, tri)
    params = ExtremizerParams(w=[np.array([0.4]), np.array([-0.2])], h=(h,))
    fs = build_extremizer(d, rep, params)
    g = GaussianDensity(LINE, [[np.pi]])
    fs_conv = [convolve_density(f, g) for f in fs]
    ev = supconv_eval(d, fs_conv, GridSpec(0.02, 6.0))
    assert abs(ev.ratio - 1.0) <= ev.est_error
