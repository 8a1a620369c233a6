import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import gaussian_sup_integral, indicator_density

from blgeo.covers import UniformCover
from blgeo.datum import (
    GeometricBLDatum,
    axis_datum,
    direct_sum_data,
    holder_datum,
    make_datum_from_cover,
    paired_planes_datum,
    planar_lines_datum,
    random_datum,
    validate_datum,
)
from blgeo.determinantal import determinantal_high_check
from blgeo.errors import CapError, InputError
from blgeo.integrals import (
    Density,
    ExtremizerParams,
    FactorizedDensity,
    GaussianDensity,
    GridDensity,
    GridSpec,
    build_extremizer,
    convolve_density,
    gaussian_barthe_eval,
    gaussian_bl_eval,
    is_log_concave,
    supconv_eval,
)
from blgeo.structure import indecomposable_decomposition, independent_subspaces
from blgeo.subspace import full_subspace, orthonormalize, projection_matrix

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


def test_barthe_rejects_non_critical_eigenspaces():
    d = loomis_whitney_datum()
    rng = np.random.default_rng(1)
    Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    Phi = Q @ np.diag([1.0, 2.0, 5.0]) @ Q.T
    with pytest.raises(InputError):
        gaussian_barthe_eval(d, Phi)


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
    extremizer) and a grid that holds their mass."""
    shape = draw(st.sampled_from(["lines", "axes", "mixed", "holder2", "holder3"]))
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
            "holder3": GridSpec(0.1, 4.5)}[shape]
    return d, precisions, grid


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(gaussian_supconv_cases())
def test_supconv_budget_encloses_gaussian_closed_form(case):
    # no floor: the closed form must lie inside lhs (1 +- est_error)
    d, precisions, grid = case
    fs = [GaussianDensity(E, A) for (E, _), A in zip(d.entries, precisions)]
    ev = supconv_eval(d, fs, grid)
    exact = gaussian_sup_integral(d, precisions)
    assert abs(ev.lhs - exact) <= ev.est_error * ev.lhs, (ev.lhs, exact, ev.est_error)


def test_supconv_three_lines_on_the_exact_fiber():
    # three lines at h = 0.1: a feasibility slack of one cell read
    # lhs 4.8% high; candidates on the exact fiber stay within 1%
    d = planar_lines_datum(3)
    precisions = [[[1.0]], [[2.0]], [[0.5]]]
    fs = [GaussianDensity(E, A) for (E, _), A in zip(d.entries, precisions)]
    ev = supconv_eval(d, fs, GridSpec(0.1, 4.0))
    assert abs(ev.lhs / gaussian_sup_integral(d, precisions) - 1.0) < 0.01


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
    exact = gaussian_sup_integral(d, precisions)
    assert abs(ev.lhs - exact) <= ev.est_error * ev.lhs
    assert abs(ev.lhs / exact - 1.0) < 0.04


def test_supconv_caps():
    d = holder_datum(4, [0.5, 0.5])
    g = GaussianDensity(full_subspace(4), np.eye(4))
    with pytest.raises(CapError):
        supconv_eval(d, [g, g], GridSpec(0.5, 2.0))


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
    with pytest.raises(InputError):
        build_extremizer(d2, rep2, ExtremizerParams(A=A))


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


def test_convolve_domain_mismatch():
    e1 = orthonormalize([[1, 0]])
    e2 = orthonormalize([[0, 1]])
    with pytest.raises(InputError):
        convolve_density(GaussianDensity(e1, [[1.0]]), GaussianDensity(e2, [[1.0]]))


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
