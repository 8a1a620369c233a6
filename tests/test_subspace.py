import numpy as np
import pytest

from conftest import complement, intersect, subspace_sum

from blgeo.errors import InputError
from blgeo.subspace import (
    Subspace,
    contains,
    equal,
    full_subspace,
    orthonormalize,
    projection_matrix,
    zero_subspace,
)


def rand_subspace(rng, n, d):
    return orthonormalize(rng.standard_normal((d, n)), ambient_dim=n)


def test_orthonormalize_collinear():
    S = orthonormalize([[1, 0], [2, 0]])
    assert S.ambient_dim == 2 and S.dim == 1
    assert np.allclose(S.frame, [[1, 0]])


def test_orthonormalize_empty_is_zero():
    S = orthonormalize([], ambient_dim=5)
    assert S.dim == 0 and S.ambient_dim == 5
    with pytest.raises(InputError):
        orthonormalize([])


def test_orthonormalize_noise_below_tolerance():
    S = orthonormalize([[1, 1e-15]])
    assert S.dim == 1
    assert np.abs(S.frame - np.array([[1.0, 0.0]])).max() < 1e-9


def test_orthonormalize_dimension_mismatch():
    with pytest.raises(InputError):
        orthonormalize([[1, 0], [1, 0, 0]])


def test_projection_examples():
    assert np.allclose(projection_matrix(zero_subspace(3)), np.zeros((3, 3)))
    assert np.allclose(projection_matrix(full_subspace(4)), np.eye(4))
    diag = orthonormalize([[1, 1]])
    assert np.allclose(projection_matrix(diag), [[0.5, 0.5], [0.5, 0.5]])


def test_intersect_examples():
    xy = orthonormalize([[1, 0, 0], [0, 1, 0]])
    yz = orthonormalize([[0, 1, 0], [0, 0, 1]])
    line = intersect(xy, yz)
    assert line.dim == 1
    assert np.abs(np.abs(line.frame @ np.array([0.0, 1.0, 0.0])) - 1).max() < 1e-9
    assert equal(intersect(xy, xy), xy)
    skew = orthonormalize([[1, 1, 1]])
    assert intersect(xy, skew).dim == 0


def test_complement_examples():
    e1 = orthonormalize([[1, 0, 0]])
    c = complement(e1)
    assert c.dim == 2
    assert contains(c, orthonormalize([[0, 1, 0], [0, 0, 1]]))
    assert complement(full_subspace(3)).dim == 0
    assert complement(zero_subspace(3)).dim == 3
    assert equal(complement(complement(e1)), e1)


def test_sum_contains_equal_examples():
    e1 = orthonormalize([[1, 0]])
    e2 = orthonormalize([[0, 1]])
    assert equal(subspace_sum(e1, e2), full_subspace(2))
    assert contains(full_subspace(2), e1)
    diag = orthonormalize([[1, 1]])
    assert not contains(e1, diag)
    # a subspace holds itself, read as the same object or as a copy of its frame
    assert contains(diag, diag) and equal(diag, diag) and equal(diag, Subspace(2, diag.frame))


def test_ambient_mismatch_raises():
    with pytest.raises(InputError):
        contains(full_subspace(2), full_subspace(3))


def test_frame_orthonormality_enforced():
    with pytest.raises(InputError):
        Subspace(2, [[1.0, 1.0]])


def test_random_projection_identity(rng):
    for _ in range(50):
        n = int(rng.integers(1, 9))
        d = int(rng.integers(0, n + 1))
        A = rand_subspace(rng, n, d)
        P = projection_matrix(A) + projection_matrix(complement(A))
        assert np.abs(P - np.eye(n)).max() < 1e-9
        assert A.dim + complement(A).dim == n


def test_random_lattice_relations(rng):
    for _ in range(200):
        n = int(rng.integers(2, 9))
        A = rand_subspace(rng, n, int(rng.integers(0, n + 1)))
        B = rand_subspace(rng, n, int(rng.integers(0, n + 1)))
        I = intersect(A, B)
        S = subspace_sum(A, B)
        assert contains(A, I) and contains(B, I)
        assert contains(S, A) and contains(S, B)
        # De Morgan duality of the subspace lattice
        assert equal(complement(I), subspace_sum(complement(A), complement(B)))


def test_json_roundtrip(rng):
    A = rand_subspace(rng, 4, 2)
    B = Subspace.from_json(A.to_json())
    assert equal(A, B)
    assert np.abs(A.frame - B.frame).max() < 1e-12
