import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cauchy_binet_expansion, gaussian_fiber_oracle, random_datum

from blgeo.datum import (
    RankOneDatum,
    axis_datum,
    paired_planes_datum,
    planar_lines_datum,
    rank_one_expansion,
)
from blgeo.determinantal import (
    _det_result,
    ball_barthe_check,
    determinantal_high_check,
    min_norm_decomposition,
)
from blgeo.errors import CapError, InputError, InternalError
from blgeo.structure import bowtie_classes, indecomposable_decomposition, is_critical
from blgeo.subspace import orthonormalize, projection_matrix


def class_constant_t(r, values):
    """t assigned per bowtie class, in class order."""
    t = np.empty(r.k)
    for cls, v in zip(bowtie_classes(r), values):
        t[list(cls)] = v
    return t


def random_spd(rng, d, spread=1.0):
    M = rng.standard_normal((d, d)) * spread
    return M @ M.T + 0.25 * np.eye(d)


# ---------------------------------------------------------------------------
# rank-one inequality
# ---------------------------------------------------------------------------

def test_constant_t_is_equality(rng):
    d = random_datum(rng)
    r = rank_one_expansion(d)
    lam = 1.7
    res = ball_barthe_check(r, np.full(r.k, lam))
    assert res.equality
    assert res.lhs == pytest.approx(lam ** d.ambient_dim, rel=1e-10)
    assert res.log_gap == pytest.approx(0.0, abs=1e-10)


def test_planar_lines_1_1_4():
    r = rank_one_expansion(planar_lines_datum(3))
    res = ball_barthe_check(r, [1.0, 1.0, 4.0])
    assert res.lhs == pytest.approx(3.0, rel=1e-12)
    assert res.rhs == pytest.approx(4.0 ** (2.0 / 3.0), rel=1e-12)
    assert res.log_gap > 0 and not res.equality
    cb = cauchy_binet_expansion(r, [1.0, 1.0, 4.0])
    assert cb.weighted_sum == pytest.approx(res.lhs, rel=1e-9)


def test_paired_planes_class_constant_equality():
    d = paired_planes_datum()
    r = rank_one_expansion(d)
    t = class_constant_t(r, [1.0, 2.0])
    res = ball_barthe_check(r, t)
    assert res.equality
    # det(P_u + 2 P_v) = 4 = 2^(3 * 2/3)
    assert res.lhs == pytest.approx(4.0, rel=1e-10)
    assert res.rhs == pytest.approx(4.0, rel=1e-10)


def test_nonpositive_t_rejected():
    r = rank_one_expansion(axis_datum(2))
    with pytest.raises(InputError):
        ball_barthe_check(r, [1.0, 0.0])


def test_a_violated_determinantal_inequality_is_refused():
    # both checks build their result through _det_result; the inequality
    # is a theorem, so a log_gap below -1e-9 is an internal error
    with pytest.raises(InternalError, match="inequality violated: log_gap = -2.000e-09"):
        _det_result(0.0, 2e-9, None)
    r = _det_result(0.0, 5e-10, None)
    assert (r.log_gap, r.equality) == (-5e-10, False)
    assert _det_result(1.0, 1.0, "certificate").equality


def test_scaling_covariance(rng):
    d = random_datum(rng)
    r = rank_one_expansion(d)
    t = np.exp(rng.uniform(-2, 2, r.k))
    lam = 3.7
    a = ball_barthe_check(r, t)
    b = ball_barthe_check(r, lam * t)
    assert b.log_lhs == pytest.approx(a.log_lhs + d.ambient_dim * np.log(lam), abs=1e-9)
    assert b.log_gap == pytest.approx(a.log_gap, abs=1e-9)


def test_equality_flip_under_single_perturbation():
    r = rank_one_expansion(planar_lines_datum(3))
    t = np.ones(3)
    assert ball_barthe_check(r, t).equality
    t[0] *= 1.0 + 1e-3
    res = ball_barthe_check(r, t)
    assert not res.equality
    assert res.log_gap > 1e-8


# ---------------------------------------------------------------------------
# Cauchy-Binet oracle
# ---------------------------------------------------------------------------

def test_cauchy_binet_orthonormal_basis():
    r = rank_one_expansion(axis_datum(3))
    t = np.array([2.0, 3.0, 5.0])
    cb = cauchy_binet_expansion(r, t)
    assert len(cb.subsets) == 1
    assert cb.minor_weights[0] == pytest.approx(1.0, abs=1e-12)
    assert cb.weighted_sum == pytest.approx(30.0, rel=1e-12)


def test_cauchy_binet_planar_lines():
    r = rank_one_expansion(planar_lines_datum(3))
    cb = cauchy_binet_expansion(r, np.ones(3))
    # each pair of the three lines: det^2 * c^2 = (3/4)(4/9) = 1/3
    assert np.allclose(cb.minor_weights, 1.0 / 3.0, atol=1e-12)
    assert cb.minor_weights.sum() == pytest.approx(1.0, abs=1e-12)


def test_cauchy_binet_paired_planes_support():
    d = paired_planes_datum()
    r = rank_one_expansion(d)
    cb = cauchy_binet_expansion(r, np.ones(6))
    classes = bowtie_classes(r)
    for I, w in zip(cb.subsets, cb.minor_weights):
        in_first = sum(1 for i in I if i in classes[0])
        if in_first != 2:  # a minor not taking 2 from each plane vanishes
            assert w == pytest.approx(0.0, abs=1e-12)
    marg = np.zeros(6)
    for I, w in zip(cb.subsets, cb.minor_weights):
        for i in I:
            marg[i] += w
    assert np.allclose(marg, 2.0 / 3.0, atol=1e-9)


def test_cauchy_binet_cap():
    vecs = np.tile(np.eye(8), (4, 1))
    r = RankOneDatum(8, vecs, np.full(32, 0.25), tuple((0, j) for j in range(32)))
    with pytest.raises(CapError):
        cauchy_binet_expansion(r, np.ones(32))


# ---------------------------------------------------------------------------
# higher rank
# ---------------------------------------------------------------------------

def test_identity_operators_equality(rng):
    d = random_datum(rng)
    A_list = [np.eye(E.dim) for E, _ in d.entries]
    res = determinantal_high_check(d, A_list)
    assert res.equality
    assert np.abs(res.equality_certificate - np.eye(d.ambient_dim)).max() < 1e-9
    assert res.log_gap == pytest.approx(0.0, abs=1e-10)


def test_paired_planes_aligned_operators():
    d = paired_planes_datum()
    parts = indecomposable_decomposition(d)
    a, b = 2.0, 3.0
    Phi = a * projection_matrix(parts[0]) + b * projection_matrix(parts[1])
    A_list = [E.frame @ Phi @ E.basis for E, _ in d.entries]
    res = determinantal_high_check(d, A_list)
    assert res.equality
    assert np.abs(res.equality_certificate - Phi).max() < 1e-9


def test_generic_operators_strict_with_rank_one_oracle(rng):
    for _ in range(10):
        d = random_datum(rng)
        A_list = [random_spd(rng, E.dim) for E, _ in d.entries]
        res = determinantal_high_check(d, A_list)
        assert res.log_gap >= -1e-9
        # oracle: eigen-expansion reduces the check to the rank-one case
        vecs, ws, ts = [], [], []
        for (E, c), A in zip(d.entries, A_list):
            lam, U = np.linalg.eigh(A)
            for j in range(E.dim):
                vecs.append(E.basis @ U[:, j])
                ws.append(c)
                ts.append(lam[j])
        r1 = RankOneDatum(d.ambient_dim, np.array(vecs), np.array(ws),
                          tuple((0, j) for j in range(len(ws))))
        oracle = ball_barthe_check(r1, np.array(ts))
        assert res.log_lhs == pytest.approx(oracle.log_lhs, abs=1e-8)
        assert res.log_rhs == pytest.approx(oracle.log_rhs, abs=1e-8)


def test_non_pd_operator_rejected():
    d = axis_datum(2)
    with pytest.raises(InputError):
        determinantal_high_check(d, [np.array([[1.0]]), np.array([[-1.0]])])
    with pytest.raises(InputError):
        determinantal_high_check(d, [np.array([[1.0]])])


# ---------------------------------------------------------------------------
# Gaussian fiber formula
# ---------------------------------------------------------------------------

@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_fiber_formula_matches_the_stacked_oracle(seed):
    # Barthe's sides for f_i(y) = exp(-<A_i y, y>) read off the check of the A_i^-1
    rng = np.random.default_rng(seed)
    d = random_datum(rng, max_dim=32, max_vectors=64)
    A_list = [random_spd(rng, E.dim) for E, _ in d.entries]
    check = determinantal_high_check(d, [np.linalg.inv(A) for A in A_list])
    assert check.log_gap >= -1e-9
    log_pi = 0.5 * np.log(np.pi)
    _, log_sup = gaussian_fiber_oracle(d, A_list)
    log_product = sum(c * (E.dim * log_pi - 0.5 * np.linalg.slogdet(A)[1])
                      for (E, c), A in zip(d.entries, A_list))
    assert abs(d.ambient_dim * log_pi + 0.5 * check.log_lhs - log_sup) <= 1e-12
    assert abs(d.ambient_dim * log_pi + 0.5 * check.log_rhs - log_product) <= 1e-12



def test_min_norm_identity_phi(rng):
    for _ in range(10):
        d = random_datum(rng)
        x = rng.standard_normal(d.ambient_dim)
        res = min_norm_decomposition(d, np.eye(d.ambient_dim), x)
        assert res.min_value == pytest.approx(float(x @ x), rel=1e-9, abs=1e-9)
        proj_value = sum(
            c * float(np.linalg.norm(projection_matrix(E) @ x) ** 2)
            for E, c in d.entries
        )
        assert proj_value == pytest.approx(res.min_value, rel=1e-9, abs=1e-9)


def test_min_norm_paired_planes_example():
    d = paired_planes_datum()
    # the coordinate planes are one of a circle of finest critical decompositions
    u_plane = orthonormalize([[1, 0, 0, 0], [0, 1, 0, 0]])
    v_plane = orthonormalize([[0, 0, 1, 0], [0, 0, 0, 1]])
    assert all(is_critical(d, V).is_critical for V in (u_plane, v_plane))
    Phi = 2.0 * projection_matrix(u_plane) + 3.0 * projection_matrix(v_plane)
    x = np.array([1.0, 0.0, 1.0, 0.0])  # u_1 + v_1
    res = min_norm_decomposition(d, Phi, x)
    assert res.reference == pytest.approx(13.0, rel=1e-12)
    assert res.min_value == pytest.approx(13.0, rel=1e-9)


def test_min_norm_feasibility(rng):
    for _ in range(20):
        d = random_datum(rng)
        Phi = random_spd(rng, d.ambient_dim, 0.6)
        x = rng.standard_normal(d.ambient_dim)
        res = min_norm_decomposition(d, Phi, x)
        recon = sum(c * xi for (E, c), xi in zip(d.entries, res.minimizers))
        assert np.linalg.norm(recon - x) <= 1e-9 * (1 + np.linalg.norm(x))
        for (E, _), xi in zip(d.entries, res.minimizers):
            assert np.linalg.norm(projection_matrix(E) @ xi - xi) <= 1e-9


def test_min_norm_is_the_stacked_fiber_minimum(rng):
    for _ in range(20):
        d = random_datum(rng)
        Phi = random_spd(rng, d.ambient_dim, 0.6)
        x = rng.standard_normal(d.ambient_dim)
        res = min_norm_decomposition(d, Phi, x)
        Q, _ = gaussian_fiber_oracle(d, [E.frame @ Phi @ Phi @ E.basis for E, _ in d.entries])
        assert res.min_value == pytest.approx(float(x @ Q @ x), rel=1e-10)
        # moving the minimizers along the fiber sum c_i x_i = x never lowers the value
        C = np.hstack([c * E.basis for E, c in d.entries])
        y = np.concatenate([E.frame @ xi for (E, _), xi in zip(d.entries, res.minimizers)])
        cuts = np.cumsum([E.dim for E, _ in d.entries])[:-1]
        for _ in range(5):
            r = rng.standard_normal(y.size)
            r -= C.T @ np.linalg.solve(C @ C.T, C @ r)
            for t in (1e-3, 1.0):
                moved = [E.basis @ yi for (E, _), yi in zip(d.entries, np.split(y + t * r, cuts))]
                recon = sum(c * xi for (_, c), xi in zip(d.entries, moved))
                assert np.linalg.norm(recon - x) <= 1e-9 * (1 + np.linalg.norm(x))
                value = sum(c * float(np.sum((Phi @ xi) ** 2))
                            for (_, c), xi in zip(d.entries, moved))
                assert value >= res.min_value * (1 - 1e-12)


def test_min_norm_strict_for_rotated_axes():
    from blgeo.covers import UniformCover
    from blgeo.datum import make_datum_from_cover

    d = make_datum_from_cover(UniformCover(3, 2, ({2, 3}, {1, 3}, {1, 2})))
    rng = np.random.default_rng(0)
    Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    Phi = Q @ np.diag([1.0, 2.0, 5.0]) @ Q.T
    rng2 = np.random.default_rng(4)  # a generic x with a strict gap
    x = rng2.standard_normal(3)
    res = min_norm_decomposition(d, Phi, x)
    assert res.min_value < res.reference - 1e-6


def test_min_norm_input_validation():
    d = axis_datum(2)
    with pytest.raises(InputError):
        min_norm_decomposition(d, np.array([[1.0, 0.5], [0.0, 1.0]]), [1.0, 0.0])
    with pytest.raises(InputError):
        min_norm_decomposition(d, -np.eye(2), [1.0, 0.0])
