import math

import numpy as np
import pytest

from conftest import induced_partition_oracle, random_uniform_cover

from blgeo.covers import (
    PointPolytope,
    UniformCover,
    VoxelBody,
    bt_check,
    dual_bt_check,
    induced_one_cover,
)
from blgeo.datum import make_datum_from_cover
from blgeo.errors import InputError
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
    pts = K.points()
    from blgeo.covers import _facets
    A, b = _facets(pts)
    h = 0.05
    xs = np.arange(-30, 30, h) + h / 2
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    P = np.stack([X.ravel(), Y.ravel()], axis=1)
    norms = np.max((P @ A.T) / b[None, :], axis=1)
    integral = float(np.exp(-np.clip(norms, 0, None)).sum()) * h * h
    vol = integral / math.factorial(2)
    from blgeo.covers import _hull_volume
    assert _hull_volume(pts) == pytest.approx(vol, rel=2e-3)
