import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import induced_partition_oracle, random_uniform_cover

from blgeo.covers import (
    POLYTOPE_MAX_VERTICES,
    BTCheckResult,
    DualBTCheckResult,
    PointPolytope,
    UniformCover,
    VoxelBody,
    bt_check,
    dual_bt_check,
    induced_one_cover,
)
from blgeo.datum import make_datum_from_cover
from blgeo.errors import CapError, InputError, InternalError
from blgeo.structure import independent_subspaces
from blgeo.subspace import equal, orthonormalize

LW = UniformCover(3, 2, ({2, 3}, {1, 3}, {1, 2}))


# ---------------------------------------------------------------------------
# covers
# ---------------------------------------------------------------------------

def test_validate_cover_examples():
    assert (LW.n, LW.s, LW.k) == (3, 2, 3)
    UniformCover(3, 1, ({1}, {2}, {3}))
    # s * n elements in all, but element 1 is hit three times
    with pytest.raises(InputError, match=r"multiplicities \(3, 2, 1\)"):
        UniformCover(3, 2, ({1, 2}, {1, 3}, {1, 2}))


def test_empty_set_rejected():
    with pytest.raises(InputError):
        UniformCover(3, 1, (set(), {1, 2, 3}))


def test_induced_cover_loomis_whitney():
    assert [sorted(b) for b in induced_one_cover(LW)] == [[1], [2], [3]]


def test_induced_cover_partition_is_itself():
    part = UniformCover(4, 1, ({1, 4}, {2}, {3}))
    blocks = induced_one_cover(part)
    assert sorted(sorted(b) for b in blocks) == [[1, 4], [2], [3]]


def test_induced_cover_mixed():
    c = UniformCover(3, 2, ({1, 2}, {3}, {1, 2, 3}))
    assert [sorted(b) for b in induced_one_cover(c)] == [[1, 2], [3]]


def test_induced_cover_is_partition_random(rng):
    for _ in range(50):
        n = int(rng.integers(2, 9))
        s = int(rng.integers(1, 4))
        c = random_uniform_cover(rng, n, s)
        blocks = induced_one_cover(c)
        flat = sorted(x for b in blocks for x in b)
        assert flat == list(range(1, n + 1))


def test_induced_cover_many_sets_matches_oracle(rng):
    for _ in range(10):
        c = random_uniform_cover(rng, 9, 13)
        assert c.k > 24
        assert [sorted(b) for b in induced_one_cover(c)] == induced_partition_oracle(c.n, c.sets)


def test_cover_datum_independent_subspaces_cross_module(rng):
    for _ in range(15):
        n = int(rng.integers(2, 7))
        s = int(rng.integers(1, 4))
        c = random_uniform_cover(rng, n, s)
        d = make_datum_from_cover(c)
        rep = independent_subspaces(d)
        blocks = induced_one_cover(c)
        assert rep.dependent_subspace.dim == 0
        assert len(rep.independent_subspaces) == len(blocks)
        for block in blocks:
            coord = orthonormalize(np.eye(n)[[j - 1 for j in sorted(block)]], ambient_dim=n)
            assert any(equal(f.subspace, coord) for f in rep.independent_subspaces)


# ---------------------------------------------------------------------------
# voxel Bollobas-Thomason
# ---------------------------------------------------------------------------

def test_bt_unit_cube_equality():
    K = VoxelBody(3, {(0, 0, 0)})
    r = bt_check(K, LW)
    assert (r.lhs, r.rhs) == (1, 1)
    assert r.holds and r.equality
    assert r.split_certificate is not None


def test_bt_tromino_strict():
    K = VoxelBody(3, {(0, 0, 0), (1, 0, 0), (0, 1, 0)})
    r = bt_check(K, LW)
    # oracle by hand: |K| = 3, projections have 2, 2, 3 cells
    assert (r.lhs, r.rhs) == (9, 12)
    assert r.holds and not r.equality
    assert r.split_certificate is None


def test_bt_product_body_equality():
    A = {(0, 0), (1, 0), (0, 1), (1, 1), (2, 0)}
    B = {(0,), (1,)}
    K = VoxelBody(3, {(a1, a2, b[0]) for (a1, a2) in A for b in B})
    c = UniformCover(3, 2, ({1, 2}, {3}, {1, 2, 3}))
    r = bt_check(K, c)
    assert (r.lhs, r.rhs) == (100, 100)
    assert r.equality
    assert [sorted(b) for b in r.induced_partition] == [[1, 2], [3]]
    # certificate soundness: rebuild K from the block projections
    blocks = [sorted(piece["block"]) for piece in r.split_certificate]
    projs = [piece["cells"] for piece in r.split_certificate]
    rebuilt = set()
    for p12 in projs[0]:
        for p3 in projs[1]:
            cell = [0, 0, 0]
            for pos, axis in enumerate(blocks[0]):
                cell[axis - 1] = p12[pos]
            for pos, axis in enumerate(blocks[1]):
                cell[axis - 1] = p3[pos]
            rebuilt.add(tuple(cell))
    assert rebuilt == K.cells


def test_bt_random_bodies_never_violate(rng):
    for _ in range(100):
        n = 3
        count = int(rng.integers(1, 60))
        cells = {tuple(int(x) for x in rng.integers(0, 5, n)) for _ in range(count)}
        K = VoxelBody(n, cells)
        r = bt_check(K, LW)
        assert r.holds
        assert r.equality == (r.lhs == r.rhs)


def test_bt_equality_is_a_product_over_the_induced_blocks(rng):
    # oracle: rebuild the product of K's projections onto the blocks of the
    # induced partition and compare cell sets; half the bodies are products
    from itertools import product

    def product_body(n, blocks, parts):
        cells = set()
        for combo in product(*parts):
            cell = [0] * n
            for b, part in zip(blocks, combo):
                for axis, x in zip(b, part):
                    cell[axis - 1] = x
            cells.add(tuple(cell))
        return cells

    for _ in range(60):
        n = int(rng.integers(2, 5))
        c = random_uniform_cover(rng, n, int(rng.integers(1, 3)))
        blocks = induced_partition_oracle(n, c.sets)
        if rng.random() < 0.5:
            cells = product_body(n, blocks, [
                {tuple(int(x) for x in rng.integers(0, 3, len(b))) for _ in range(3)}
                for b in blocks])
        else:
            cells = {tuple(int(x) for x in rng.integers(0, 3, n)) for _ in range(8)}
        projections = [{tuple(cell[a - 1] for a in b) for cell in cells} for b in blocks]
        r = bt_check(VoxelBody(n, cells), c)
        assert r.equality == (product_body(n, blocks, projections) == cells) == (r.lhs == r.rhs)
        assert (r.split_certificate is not None) == r.equality


def test_bt_dimension_mismatch():
    with pytest.raises(InputError):
        bt_check(VoxelBody(2, {(0, 0)}), LW)


def test_a_violated_bt_inequality_is_refused():
    # the result type refuses holds == False: both inequalities are theorems
    with pytest.raises(InternalError, match="Bollobas-Thomason inequality violated: 9 > 8"):
        BTCheckResult(9, 8, False, False, (), None)
    assert BTCheckResult(8, 8, True, True, (), ()).holds
    with pytest.raises(InternalError, match="dual Bollobas-Thomason inequality violated: 0.5 < 1$"):
        DualBTCheckResult(0.5, 1.0, 1.0, (1.0,), False, False, None)
    assert DualBTCheckResult(1.0, 1.0, 1.0, (1.0,), True, True, ()).holds


# ---------------------------------------------------------------------------
# dual Bollobas-Thomason
# ---------------------------------------------------------------------------

def cross_polytope(lams):
    n = len(lams)
    verts = []
    for j, lam in enumerate(lams):
        e = np.zeros(n)
        e[j] = lam
        verts.append(tuple(e))
        verts.append(tuple(-e))
    return PointPolytope(n, tuple(verts))


def test_dual_bt_octahedron_equality():
    r = dual_bt_check(cross_polytope([1.0, 1.0, 1.0]), LW)
    assert r.lhs == pytest.approx(16.0 / 9.0, rel=1e-12)
    assert r.rhs == pytest.approx(16.0 / 9.0, rel=1e-9)
    assert r.holds and r.equality


def test_dual_bt_scaled_cross_polytope_equality():
    r = dual_bt_check(cross_polytope([1.0, 2.0, 1.0]), LW)
    assert r.lhs == pytest.approx(256.0 / 36.0, rel=1e-12)
    assert r.rhs == pytest.approx(256.0 / 36.0, rel=1e-9)
    assert r.equality


def test_dual_bt_cube_strict():
    cube = PointPolytope(3, tuple(
        (x, y, z) for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)
    ))
    r = dual_bt_check(cube, LW)
    assert r.lhs == pytest.approx(64.0, rel=1e-12)
    assert r.rhs == pytest.approx(128.0 / 9.0, rel=1e-9)
    assert r.holds and not r.equality


def test_dual_bt_origin_must_be_interior():
    shifted = PointPolytope(3, tuple(
        (x + 2.0, y, z) for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)
    ))
    with pytest.raises(InputError):
        dual_bt_check(shifted, LW)


def test_dual_bt_mixed_cover_with_full_set():
    c = UniformCover(3, 2, ({1, 2}, {3}, {1, 2, 3}))
    K = cross_polytope([1.0, 1.0, 1.0])
    r = dual_bt_check(K, c)
    assert r.holds
    # factor = 2! 1! 3! / (3!)^2 = 1/3; sections: square 2, segment 2, K 4/3
    assert r.factor == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert sorted(r.section_volumes) == pytest.approx([4.0 / 3.0, 2.0, 2.0], rel=1e-9)


def test_polytope_volume_against_norm_identity_oracle():
    # integral of exp(-|x|_M) over R^n equals n! |M|; integrate on a grid
    K = cross_polytope([1.0, 2.0])
    from blgeo.covers import _dyadic_rows
    from blgeo.hull import convex_hull
    hull = convex_hull(_dyadic_rows(K.vertices))
    A = np.array([h[:-1] for h in hull.planes], dtype=float)
    b = -np.array([h[-1] for h in hull.planes], dtype=float)
    h = 0.05
    xs = np.arange(-30, 30, h) + h / 2
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    P = np.stack([X.ravel(), Y.ravel()], axis=1)
    norms = np.max((P @ A.T) / b[None, :], axis=1)
    integral = float(np.exp(-np.clip(norms, 0, None)).sum()) * h * h
    vol = integral / math.factorial(2)
    assert float(hull.volume()) == pytest.approx(vol, rel=2e-3)


# ---------------------------------------------------------------------------
# exact verdicts at every scale
# ---------------------------------------------------------------------------

def test_dual_bt_scaled_octahedron_equality():
    r = dual_bt_check(cross_polytope([1e-10] * 3), LW)
    assert r.equality and r.lhs == r.rhs
    assert r.lhs == pytest.approx((4.0 / 3.0 * 1e-30) ** 2, rel=1e-15)


def test_dual_bt_thin_polytope_volume():
    # a cross-polytope of thickness 2e-10: |K| = 8 t / 3!, sections 2 t, 2 t and 2
    t = 1e-10
    r = dual_bt_check(cross_polytope([1.0, 1.0, t]), LW)
    assert r.lhs == pytest.approx((8.0 * t / 6.0) ** 2, rel=1e-15)
    assert sorted(r.section_volumes) == pytest.approx([2.0 * t, 2.0 * t, 2.0], rel=1e-15)
    assert r.equality


@pytest.mark.parametrize("e", [1e-10, 1e-15, 5e-324])
def test_dual_bt_vertex_moved_off_its_axis_reads_strict(e):
    # (e, e, -1) has nonzero coordinates in every block, and it stays extreme
    verts = cross_polytope([1.0, 1.0, 1.0]).vertices[:-1] + ((e, e, -1.0),)
    r = dual_bt_check(PointPolytope(3, verts), LW)
    assert r.holds and not r.equality and r.conv_certificate is None


def test_dual_bt_facet_close_to_the_origin():
    # [-1e-10, 1] x [-1, 1]^2: |K| = 4a and the sections 4, 2a, 2a for a = 1 + 1e-10
    a = 1.0 + 1e-10
    K = PointPolytope(3, tuple(itertools.product((-1e-10, 1.0), (-1.0, 1.0), (-1.0, 1.0))))
    r = dual_bt_check(K, LW)
    assert r.lhs == pytest.approx(16.0 * a * a, rel=1e-15)
    assert r.rhs == pytest.approx(32.0 * a * a / 9.0, rel=1e-15)
    assert r.holds and not r.equality


def test_dual_bt_origin_on_a_facet_is_refused():
    K = PointPolytope(3, tuple(itertools.product((0.0, 2.0), (-1.0, 1.0), (-1.0, 1.0))))
    with pytest.raises(InputError, match="strictly inside"):
        dual_bt_check(K, LW)


def test_dual_bt_edge_midpoint_is_not_a_vertex():
    # the midpoint of the edge from e1 to e2 spans two blocks but is no vertex;
    # added first, it is a vertex of the first simplices of the hull
    verts = ((0.5, 0.5, 0.0),) + cross_polytope([1.0, 1.0, 1.0]).vertices
    r = dual_bt_check(PointPolytope(3, verts), LW)
    assert r.equality
    assert [len(piece["vertices"]) for piece in r.conv_certificate] == [2, 2, 2]


def test_polytope_vertex_cap_refuses_before_work():
    for n, cap in POLYTOPE_MAX_VERTICES.items():
        points = tuple((float(i),) * n for i in range(cap + 1))
        assert len(PointPolytope(n, points[:cap]).vertices) == cap
        with pytest.raises(CapError, match=rf"polytope vertices in R\^{n}"):
            PointPolytope(n, points)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_det_against_fraction_elimination(k):
    from fractions import Fraction

    from blgeo.hull import det
    rng = np.random.default_rng(k)
    for _ in range(50):
        rows = [[int(x) for x in r] for r in
                rng.integers(-2 ** 40, 2 ** 40, (k, k)) * (rng.random((k, k)) < 0.7)]
        A, ref = [[Fraction(x) for x in r] for r in rows], Fraction(1)
        for i in range(k):  # Gaussian elimination with row swaps
            p = next((j for j in range(i, k) if A[j][i]), None)
            if p is None:
                ref = 0
                break
            if p != i:
                A[i], A[p], ref = A[p], A[i], -ref
            ref *= A[i][i]
            for j in range(i + 1, k):
                A[j] = [a - A[j][i] / A[i][i] * b for a, b in zip(A[j], A[i])]
        assert det(rows) == ref


def test_hull_sees_a_point_beyond_by_an_underflowing_margin():
    # (0, e) lies left of the edge from the origin to (e, 1) by e * e, which
    # underflows to 0 in floats: the filter must defer to exact arithmetic
    from blgeo.covers import _dyadic_rows
    from blgeo.hull import convex_hull

    e = 5e-324
    points = [(0.0, 0.0), (e, 1.0), (1.0, 0.5), (0.0, e)]
    for order in itertools.permutations(points):
        assert convex_hull(_dyadic_rows(order)).extreme() == [0, 1, 2, 3]


@st.composite
def hull_inputs(draw):
    """Points in R^d, d <= 4, and which are extreme: "qhull" in general
    position, None for an integer grid, and the known indices for boxes
    and cross-polytopes with repeated vertices and points exactly on
    their edges and facets (dyadic semi-axes and weights)."""
    d = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["random", "box", "cross", "grid"]))
    scale = 2.0 ** draw(st.integers(-33, 33))  # about 1e-10 to 1e10
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "random":
        return rng.standard_normal((int(rng.integers(d + 1, 41)), d)) * scale, "qhull"
    if kind == "grid":
        return rng.integers(-2, 3, (int(rng.integers(d + 1, 41)), d)) * scale, None
    if kind == "box":
        V = np.array(list(itertools.product(*[(-1.0, 1.0)] * d))) * rng.uniform(0.5, 2.0, d) * scale
        on = V[rng.integers(0, len(V), 12)]
        inside = rng.uniform(-1.0, 1.0, on.shape) * V[-1]
        free = rng.random(on.shape) < 0.5
        free[:, 0] = False  # keep one coordinate on its face
        on[free] = inside[free]
    else:
        V = np.concatenate([np.eye(d), -np.eye(d)]) * 2.0 ** rng.integers(-2, 3, d) * scale
        i, j, k = rng.integers(0, len(V), (3, 12))
        t, u = rng.integers(1, 8, (2, 12, 1)) / 16.0
        on = t * V[i] + u * V[j] + (1.0 - t - u) * V[k]  # exact: every weight is dyadic
    P = np.concatenate([on[:3], V, on[3:], V[:2]])
    known = sorted(min(i for i, p in enumerate(P) if (p == v).all()) for v in V)
    return P, known


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(hull_inputs())
def test_exact_hull_against_qhull(case):
    from scipy.spatial import ConvexHull

    from blgeo.covers import _dyadic_rows
    from blgeo.hull import convex_hull

    P, extreme = case
    hull = convex_hull(_dyadic_rows([tuple(map(float, p)) for p in P]))
    if hull is None:  # a grid may lie in a hyperplane
        assert extreme is None and np.linalg.matrix_rank(P - P[0]) < P.shape[1]
        return
    if P.shape[1] == 1:
        volume, vertices = np.ptp(P), sorted({int(P.argmin()), int(P.argmax())})
    else:
        qhull = ConvexHull(P)
        volume, vertices = qhull.volume, sorted(qhull.vertices.tolist())
    assert float(hull.volume()) == pytest.approx(volume, rel=1e-12)
    if extreme is not None:
        assert hull.extreme() == (vertices if extreme == "qhull" else extreme)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(hull_inputs(), st.randoms(use_true_random=False))
def test_hull_does_not_depend_on_the_order_of_its_points(case, random):
    from blgeo.covers import _dyadic_rows
    from blgeo.hull import convex_hull

    P, _ = case
    d = P.shape[1]
    half = np.abs(P).max() / 2.0  # a cross around the origin puts it inside, for slice_volume
    P = np.concatenate([P, np.eye(d) * half, -np.eye(d) * half])
    P = np.concatenate([P, P[::3]])  # and every third point again
    order = list(range(len(P)))
    random.shuffle(order)
    seen = []
    for Q in (P, P[order]):
        points = [tuple(map(float, p)) for p in Q]
        hull = convex_hull(_dyadic_rows(points))
        extreme = hull.extreme()
        assert all(points.index(points[i]) == i for i in extreme)  # the first of equal points
        seen.append((set(hull.planes), hull.volume(), {points[i] for i in extreme},
                     [hull.slice_volume(j) for j in range(d)] if d >= 3 else None))
    assert seen[0] == seen[1]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(2, 4), st.integers(0, 2 ** 32 - 1), st.integers(-33, 33))
def test_sections_against_qhull(n, seed, exponent):
    # every coordinate section of a random polytope around the origin, from
    # qhull's intersection of K's halfspaces with E
    from scipy.spatial import ConvexHull, HalfspaceIntersection

    from blgeo.covers import _dyadic_rows, _section_volume
    from blgeo.hull import convex_hull

    rng = np.random.default_rng(seed)
    points = np.concatenate([rng.standard_normal((int(rng.integers(0, 20)), n)),
                             np.eye(n), -np.eye(n)]) * 2.0 ** exponent
    hull = convex_hull(_dyadic_rows([tuple(map(float, p)) for p in points]))
    rows = np.array([[x / max(map(abs, h)) for x in h] for h in hull.planes])
    for k in range(1, n):
        for axes in itertools.combinations(range(n), k):
            A, b = rows[:, list(axes)], -rows[:, -1]
            if k == 1:
                a = A[:, 0]
                oracle = (b[a > 0] / a[a > 0]).min() - (b[a < 0] / a[a < 0]).max()
            else:
                cut = HalfspaceIntersection(np.column_stack([A, -b]), np.zeros(k))
                oracle = ConvexHull(cut.intersections).volume
            assert float(_section_volume(hull, list(axes))) == pytest.approx(oracle, rel=1e-9)
