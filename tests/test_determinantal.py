import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (bowtie_bfs, cauchy_binet_expansion, determinantal_per_entry, exact_det, exact_inverse,
                      exact_log, exact_log_det, exact_matrix, fiber_per_entry, gaussian_fiber_oracle,
                      random_datum, random_rotation)

from blgeo.datum import (
    GeometricBLDatum,
    axis_datum,
    direct_sum_data,
    holder_datum,
    paired_planes_datum,
    planar_lines_datum,
    rank_one_expansion,
    rotate_datum,
)
from blgeo.determinantal import (
    _det_result,
    ball_barthe_check,
    determinantal_high_check,
    fiber_log_sides,
    min_norm_decomposition,
    require_spd,
)
from blgeo.errors import CapError, InputError, InternalError
from blgeo.integrals import ExtremizerParams, GaussianDensity, gaussian_barthe_eval, gaussian_bl_eval
from blgeo.structure import bowtie_classes, indecomposable_decomposition, is_critical
from blgeo.subspace import full_subspace, orthonormalize, projection_matrix


def class_constant_t(r, values):
    """t assigned per bowtie class, in class order."""
    t = np.empty(r.k)
    for cls, v in zip(bowtie_classes(r.vectors), values):
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
    # is a theorem, so a log_gap below minus the rounding budget is an internal error
    with pytest.raises(InternalError, match="inequality violated: log_gap = -2.000e-09 "
                                            "below the rounding budget 1.000e-09"):
        _det_result(0.0, 2e-9, 1e-9, None)
    r = _det_result(0.0, 5e-10, 1e-9, None)
    assert (r.log_gap, r.budget, r.equality) == (-5e-10, 1e-9, False)
    assert _det_result(1.0, 1.0, 0.0, "certificate").equality


def test_an_equality_verdict_beyond_the_budget_is_refused():
    # a certificate says the sides are equal; a gap far outside the rounding
    # budget says they are not, so the result is refused rather than reported
    with pytest.raises(InternalError, match="equality certificate, yet log_gap = 6.000e-02 "
                                            "above the rounding budget 1.000e-12"):
        _det_result(0.06, 0.0, 1e-12, "certificate")
    assert not _det_result(0.06, 0.0, 1e-12, None).equality


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


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2 ** 32 - 1), st.floats(-6.0, 0.0))
def test_barthe_rank_one_rule_decides_the_verdict(seed, log_eps):
    # Barthe (Invent. Math. 134, 1998): equality exactly when t is constant on
    # each indecomposable class.  No library code reads the classes to decide
    # the verdict, so the breadth-first class search is an independent oracle
    rng = np.random.default_rng(seed)
    d = random_datum(rng, max_dim=12, max_vectors=24)
    r = rank_one_expansion(d)
    classes = bowtie_bfs(r.vectors)
    t = np.empty(r.k)
    for cls in classes:
        t[list(cls)] = np.exp(rng.uniform(-3.0, 3.0))
    assert ball_barthe_check(r, t).equality
    multi = [c for c in classes if len(c) >= 2]
    if multi:
        cls = multi[rng.integers(len(multi))]
        t[cls[rng.integers(len(cls))]] *= 1.0 + 10.0 ** log_eps
        res = ball_barthe_check(r, t)
        assert not res.equality
        # the gap is second order in eps (at least 0.037 eps^2 over 1366 such
        # draws) and the budget at most about 2e-11: from eps = 1e-4 on the
        # sides alone refute equality
        if log_eps >= -4.0:
            assert res.log_gap > res.budget


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
    classes = bowtie_classes(r.vectors)
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
    # four copies of the 8 axes with c = 1/4: C(32, 8) minors
    r = rank_one_expansion(holder_datum(8, ["1/4"] * 4))
    assert r.k == 32
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


def test_generic_operators_strict_with_exact_oracle(rng):
    for _ in range(10):
        d = random_datum(rng)
        A_list = [random_spd(rng, E.dim) for E, _ in d.entries]
        A_list = [0.5 * (A + A.T) for A in A_list]  # exactly symmetric, as the check reads them
        res = determinantal_high_check(d, A_list)
        assert res.log_gap >= -1e-9
        # oracle: the left side eliminated in exact rationals, the right from eigenvalues
        assert abs(res.log_lhs - exact_log_det(d, A_list)) <= res.budget
        rhs = math.fsum(c * float(np.log(np.linalg.eigvalsh(A)).sum()) for (_, c), A in zip(d.entries, A_list))
        assert res.log_rhs == pytest.approx(rhs, abs=1e-12)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2 ** 32 - 1), st.booleans())
def test_the_equality_verdict_does_not_depend_on_the_scale_of_the_operators(seed, commutant):
    # A_i read off a Phi in the commutant (equality) or random SPD (strict in
    # general), all scaled by 10^k: the restriction test reads each entry at its own scale
    rng = np.random.default_rng(seed)
    d = random_datum(rng, max_dim=12, max_vectors=24)
    if commutant:
        Phi = sum(np.exp(rng.uniform(-1.5, 1.5)) * projection_matrix(V) for V in indecomposable_decomposition(d))
        A_list = [E.frame @ Phi @ E.basis for E, _ in d.entries]
    else:
        A_list = [random_spd(rng, E.dim) for E, _ in d.entries]
    A_list = [0.5 * (A + A.T) for A in A_list]
    check = determinantal_high_check(d, A_list)
    assert check.equality or not commutant
    for k in range(-150, 151, 25):
        assert determinantal_high_check(d, [10.0 ** k * A for A in A_list]).equality is check.equality



def test_an_equality_entry_stays_equal_beside_any_larger_block():
    # the Hoelder pair A = 1, 1 next to an axis with A = R: exact zeros keep the
    # axis out of the line's rounding term, and the line out of the axis's
    d = direct_sum_data([holder_datum(1, [0.5, 0.5]), axis_datum(1)])
    for k in (0, 20, 100, 300):
        assert determinantal_high_check(d, [np.array([[1.0]])] * 2 + [np.array([[10.0 ** k]])]).equality


def test_near_equality_on_a_small_eigenvalue_is_strict():
    # A_2 moves 1.8e-9 from A_1 on an eigenvalue 1e-4: within RESIDUAL_TOL of max|A|,
    # yet 18e-6 of lambda_min, and log_gap 4e-11 is above the rounding budget
    check = determinantal_high_check(holder_datum(2, [0.5, 0.5]),
                                     [np.diag([1.0, 1e-4]), np.diag([1.0, 1e-4 + 1.8e-9])])
    assert not check.equality and check.log_gap > check.budget


def test_the_sides_refute_a_certificate_that_the_rounding_of_m_passes():
    # rotated, the line of the Hoelder pair shares its coordinates with an axis
    # 1e14 times larger, so the test on M allows the pair a residual of about 0.2
    # and passes its 5e-4; the row-sorted QR still resolves
    # log_gap = log(1 + 5e-4) - log(1 + 1e-3) / 2 = 1.2e-7, 5 times its budget
    d = rotate_datum(direct_sum_data([holder_datum(1, [0.5, 0.5]), axis_datum(1)]),
                     random_rotation(np.random.default_rng(0), 2))
    check = determinantal_high_check(d, [np.array([[1.0]]), np.array([[1.001]]), np.array([[1e14]])])
    assert not check.equality and check.log_gap > check.budget

def test_non_pd_operator_rejected():
    d = axis_datum(2)
    with pytest.raises(InputError):
        determinantal_high_check(d, [np.array([[1.0]]), np.array([[-1.0]])])
    with pytest.raises(InputError):
        determinantal_high_check(d, [np.array([[1.0]])])


def test_require_spd_refuses_one_bad_slice_of_a_stack(rng):
    # symmetric to about 1e-12, so that the halves it returns differ from M
    stack = np.stack([random_spd(rng, 3) for _ in range(4)]) * (1.0 + 1e-12 * rng.standard_normal((4, 3, 3)))
    for M in (stack, stack[2]):  # a single matrix is a stack of one
        S, eigenvalues = require_spd(M, "operators")
        assert S.tobytes() == (0.5 * M + 0.5 * M.swapaxes(-1, -2)).tobytes()
        assert eigenvalues.tobytes() == np.linalg.eigvalsh(S).tobytes()
    faults = {"finite": lambda A: A.__setitem__((0, 1), np.nan),
              "symmetric": lambda A: A.__setitem__((0, 1), A[0, 1] + 0.1),
              "positive definite": lambda A: A.__imul__(-1.0)}
    for word, fault in faults.items():
        bad = stack.copy()
        fault(bad[2])
        for M in (bad, bad[2]):
            with pytest.raises(InputError, match=f"^operators must be {word}$"):
                require_spd(M, "operators")
    # one ulp apart in the subnormals: 1e-9 of the largest entry underflows to 0,
    # and halving before the difference would round the ulp away as well
    b = 3e-321
    with pytest.raises(InputError, match="^operators must be symmetric$"):
        require_spd(np.array([[1e-320, b], [np.nextafter(b, 1.0), 1e-320]]), "operators")
    # the single-matrix callers
    gaussian = GaussianDensity(full_subspace(3), stack[1])
    assert gaussian.integral() > 0
    assert gaussian.A.tobytes() == require_spd(stack[1], "gaussian matrix")[0].tobytes()
    with pytest.raises(InputError, match="gaussian matrix must be positive definite"):
        GaussianDensity(full_subspace(3), -stack[1])
    ExtremizerParams(A=stack[0])


def interleaved_datum(rng):
    """Entry dimensions 2, 1, 3, 1, 2, 1, so that the entries grouped by
    dimension are not in entry order, with a Phi that has critical
    eigenspaces: two Hoelder planes, three lines of a plane and R^3 in
    direct sum, permuted and rotated, and Phi constant on each block."""
    w = rng.uniform(0.2, 0.8)
    blocks = [holder_datum(2, [w, 1.0 - w]), planar_lines_datum(3), holder_datum(3, [1.0])]
    summed = direct_sum_data(blocks)  # dimensions 2, 2, 1, 1, 1, 3
    Q = random_rotation(rng, summed.ambient_dim)
    d = rotate_datum(GeometricBLDatum(summed.ambient_dim, tuple(
        summed.entries[i] for i in (0, 2, 5, 3, 1, 4))), Q)
    lambdas = np.repeat(rng.uniform(0.5, 2.0, 3), [2, 2, 3])
    Phi = (Q * lambdas) @ Q.T
    return d, 0.5 * (Phi + Phi.T)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_batched_layers_equal_the_per_entry_loops(seed):
    rng = np.random.default_rng(seed)
    d, Phi = interleaved_datum(rng)
    assert [E.dim for E, _ in d.entries] == [2, 1, 3, 1, 2, 1]
    assert [F.shape[1] for _, F in d.frame_stacks] == [2, 1, 3]
    A_rand = [random_spd(rng, E.dim) for E, _ in d.entries]
    A_eq = [E.frame @ Phi @ E.basis for E, _ in d.entries]
    for A_list, equality in ((A_rand, False), (A_eq, True)):
        log_lhs, log_rhs, M, certificate = determinantal_per_entry(d, A_list)
        check = determinantal_high_check(d, A_list)
        assert (check.log_lhs, check.log_rhs) == (log_lhs, log_rhs)
        assert check.equality is equality is (certificate is not None)
        assert check.equality_certificate is None if certificate is None else \
            np.array_equal(check.equality_certificate, certificate)
        bl = gaussian_bl_eval(d, A_list)
        assert (bl.lhs, bl.rhs) == (math.exp(-0.5 * log_lhs), math.exp(-0.5 * log_rhs))
    log_pi = 0.5 * d.ambient_dim * math.log(math.pi)
    for phi, equality in ((Phi, True), (random_spd(rng, d.ambient_dim), False)):
        log_lhs, log_rhs, certificate = fiber_per_entry(d, phi)
        check = fiber_log_sides(d, phi)
        assert (check.log_lhs, check.log_rhs) == (log_lhs, log_rhs)
        assert check.equality is equality is (certificate is not None)
        assert check.equality_certificate is None if certificate is None else \
            np.array_equal(check.equality_certificate, certificate)
        barthe = gaussian_barthe_eval(d, phi)
        assert (barthe.lhs, barthe.rhs) == (math.exp(log_pi + 0.5 * log_lhs),
                                            math.exp(log_pi + 0.5 * log_rhs))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2 ** 32 - 1), st.booleans())
def test_t_is_the_operator_check_with_diagonal_operators(seed, constant):
    # ball_barthe_check writes its diagonal stacks straight from t; the same
    # operators as a list take determinantal_high_check's way in, and every
    # field agrees, the certificate's bytes too
    rng = np.random.default_rng(seed)
    d = random_datum(rng, max_dim=12, max_vectors=24)
    r = rank_one_expansion(d)
    t = np.exp(rng.uniform(-3.0, 3.0, r.k))
    if constant:
        for cls in bowtie_bfs(r.vectors):
            t[list(cls)] = t[cls[0]]
    cuts = np.cumsum([E.dim for E, _ in d.entries])[:-1]
    got, want = ball_barthe_check(r, t), determinantal_high_check(d, [np.diag(part) for part in np.split(t, cuts)])
    assert got.equality is (constant or want.equality)
    for field in dataclasses.fields(got):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if field.name == "equality_certificate":
            assert (a is None and b is None) or (a.shape == b.shape and a.tobytes() == b.tobytes())
        else:
            assert a == b


# ---------------------------------------------------------------------------
# Gaussian fiber formula
# ---------------------------------------------------------------------------

def critical_phi_draw(rng):
    """A rotated datum, the Hoelder datum in R^3 or a direct sum of Hoelder
    blocks, line frames and axes up to n = 12, with a Phi that has critical
    eigenspaces (any SPD on a Hoelder block, a scalar on the others) and
    log10 cond(Phi) uniform in [0, 12]; returns (d, Phi, log10 cond)."""
    if rng.random() < 0.3:
        blocks = [holder_datum(3, [0.5, 0.5])]
    else:
        blocks, n = [], 0
        while True:
            kind = rng.integers(3)
            dim = (int(rng.integers(1, 4)), 2, 1)[kind]
            if n + dim > 12:
                break
            n += dim
            blocks.append((holder_datum(dim, rng.dirichlet(np.full(int(rng.integers(2, 4)), 3.0))),
                           planar_lines_datum(int(rng.integers(3, 5))), axis_datum(1))[kind])
            if rng.random() < 0.15:
                break
    # a Hoelder block's entries are all the block, so any eigenbasis on it is critical
    free = [b.entries[0][0].dim if all(E.dim == b.ambient_dim for E, _ in b.entries) else 0
            for b in blocks]
    log_cond = rng.uniform(0.0, 12.0)
    logs = rng.uniform(-log_cond, 0.0, sum(max(f, 1) for f in free))
    if logs.size > 1:
        logs[rng.choice(logs.size, 2, replace=False)] = 0.0, -log_cond
    lam = iter(10.0 ** logs)
    pieces = []
    for b, f in zip(blocks, free):
        if f:
            R = random_rotation(rng, f)
            pieces.append((R * [next(lam) for _ in range(f)]) @ R.T)
        else:
            pieces.append(next(lam) * np.eye(b.ambient_dim))
    d = direct_sum_data(blocks) if len(blocks) > 1 else blocks[0]
    Q = random_rotation(rng, d.ambient_dim)
    Phi = np.zeros((d.ambient_dim, d.ambient_dim))
    at = 0
    for P in pieces:
        Phi[at:at + len(P), at:at + len(P)] = P
        at += len(P)
    Phi = Q @ Phi @ Q.T
    return rotate_datum(d, Q), 0.5 * (Phi + Phi.T), log_cond


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_closed_forms_stay_inside_their_budget_up_to_condition_1e12(seed):
    # the paper's equality clause is the oracle: Barthe's ratio is 1 for every
    # Phi with critical eigenspaces, and its restrictions give equality in the
    # determinantal inequality; neither may be refused as a violation
    d, Phi, log_cond = critical_phi_draw(np.random.default_rng(seed))
    ev = gaussian_barthe_eval(d, Phi)
    assert abs(math.log(ev.ratio)) <= ev.est_error
    if log_cond <= 3.0:
        assert ev.est_error <= 1e-9
    # the restrictions, each exactly symmetric as an input must be
    A_list = [0.5 * (A + A.T) for A in (E.frame @ Phi @ E.basis for E, _ in d.entries)]
    check = determinantal_high_check(d, A_list)
    assert check.equality and check.log_gap >= -check.budget


def phi_draw(rng, d, log_cond, critical):
    """An exactly symmetric Phi with log10 cond(Phi) = log_cond: a scale on
    each piece of d's indecomposable decomposition (critical eigenspaces), or
    a rotated diagonal (generic eigenspaces)."""
    if critical:
        pieces = indecomposable_decomposition(d)
        logs = rng.uniform(-log_cond, 0.0, len(pieces))
        logs[rng.choice(len(pieces), min(2, len(pieces)), replace=False)] = (0.0, -log_cond)[:len(pieces)]
        Phi = sum(10.0 ** x * projection_matrix(V) for x, V in zip(logs, pieces))
    else:
        logs = rng.uniform(-log_cond, 0.0, d.ambient_dim)
        logs[[0, -1]] = 0.0, -log_cond
        Q = random_rotation(rng, d.ambient_dim)
        Phi = (Q * 10.0 ** logs) @ Q.T
    return 0.5 * (Phi + Phi.T)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2 ** 32 - 1), st.booleans())
def test_phi_log_gap_stays_inside_its_budget_against_exact_fractions(seed, critical):
    # the true sides for the float Phi and frames, in Fractions: the A_i =
    # F_i Phi^2 F_i^T and their inverses exactly, then exact_log_det of the
    # inverses and the exact dets of the A_i
    rng = np.random.default_rng(seed)
    d = random_datum(rng, max_dim=4, max_vectors=8)
    Phi = phi_draw(rng, d, rng.uniform(0.0, 12.0), critical)
    check = fiber_log_sides(d, Phi)
    P = exact_matrix(Phi)
    A_exact = []
    for E, _ in d.entries:
        PF = [[sum(P[a][b] * f for b, f in enumerate(row)) for row in exact_matrix(E.frame)]
              for a in range(len(P))]  # Phi F_i^T
        A_exact.append([[sum(x * y for x, y in zip(u, v)) for u in zip(*PF)] for v in zip(*PF)])
    log_lhs = exact_log_det(d, [exact_inverse(A) for A in A_exact])
    log_rhs = -math.fsum(c * exact_log(exact_det(A)) for (_, c), A in zip(d.entries, A_exact))
    assert abs(check.log_gap - (log_lhs - log_rhs)) <= check.budget


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_phi_budget_stays_below_1e_minus_6_up_to_condition_1e6(seed):
    rng = np.random.default_rng(seed)
    d = random_datum(rng, max_dim=8, max_vectors=16)
    assert gaussian_barthe_eval(d, phi_draw(rng, d, rng.uniform(0.0, 6.0), False)).est_error <= 1e-6


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
