import dataclasses
import math
import re

import numpy as np
import pytest

from conftest import is_critical_oracle, random_datum, random_rotation

from blgeo.covers import UniformCover
from blgeo.datum import (
    GeometricBLDatum,
    axis_datum,
    direct_sum_data,
    holder_datum,
    make_datum_from_cover,
    pair_data,
    paired_planes_datum,
    parse_weight,
    planar_lines_datum,
    rank_one_expansion,
    rotate_datum,
    validate_datum,
)
from blgeo.determinantal import determinantal_high_check
from blgeo.errors import CapError, InputError
from blgeo.structure import independent_subspaces, is_critical, restrict_datum
from blgeo.subspace import RESIDUAL_TOL, full_subspace, orthonormalize, projection_matrix


def test_axis_datum_validates_exactly():
    d = axis_datum(4)
    rep = validate_datum(d)
    assert rep.is_valid and rep.defect == 0.0 and rep.trace_defect == 0.0


def test_paired_planes_is_valid_datum():
    d = paired_planes_datum()
    rep = validate_datum(d)
    assert rep.is_valid
    assert rep.defect < 1e-12
    assert rep.entry_dims == (2, 2, 2)


def test_projection_stack_is_a_read_only_invariant(rng):
    # mixed entry dimensions, so that is_critical's groups by dimension
    # hold one, two and several entries; the lone R^3 is a group of one
    group_sizes = set()
    for _ in range(20):
        base = random_datum(rng, max_dim=8, max_vectors=16)
        for d in (base, direct_sum_data([base, holder_datum(3, [1.0])])):
            n = d.ambient_dim
            assert d.projections.shape == (d.k, n, n)
            for P, (E, _) in zip(d.projections, d.entries):
                assert np.array_equal(P, projection_matrix(E))
            with pytest.raises(ValueError):
                d.projections[0, 0, 0] = 0.5
            dims = [E.dim for E, _ in d.entries]
            group_sizes.update(dims.count(m) for m in set(dims))
            for V in (full_subspace(n), orthonormalize([rng.standard_normal(n)])):
                rep, ref = is_critical(d, V), is_critical_oracle(d, V)
                assert (rep.is_critical, rep.weighted_dim_sum) == (ref.is_critical,
                                                                   ref.weighted_dim_sum)
    assert {1, 2} <= group_sizes and max(group_sizes) > 2


def test_frame_stacks_are_a_read_only_invariant(rng):
    # one stack per entry dimension, in order of first appearance, members
    # in entry order, each slice the frame of its entry; beside each stack
    # its sqrt(c_i) and the indices of its frames' rows in the expansion,
    # and in entry order the weights and the columns each frame touches
    for _ in range(20):
        base = random_datum(rng, max_dim=8, max_vectors=16)
        summed = direct_sum_data([holder_datum(3, [1.0]), base, axis_datum(1)])
        V = independent_subspaces(summed).indecomposable_decomposition[-1]
        for d in (base, summed, GeometricBLDatum.from_json(summed.to_json()), restrict_datum(summed, V),
                  rotate_datum(summed, random_rotation(rng, summed.ambient_dim))):
            dims, vectors = [E.dim for E, _ in d.entries], rank_one_expansion(d).vectors
            assert [F.shape[1] for _, F in d.frame_stacks] == list(dict.fromkeys(dims))
            assert d.weights.tolist() == [c for _, c in d.entries]
            assert np.array_equal(d.supports, [(E.frame != 0).any(axis=0) for E, _ in d.entries])
            for array in (d.weights, d.supports):
                with pytest.raises(ValueError):
                    array[0] = 0
            assert len(d.stack_roots) == len(d.stack_rows) == len(d.frame_stacks)
            for (members, F), root, rows in zip(d.frame_stacks, d.stack_roots, d.stack_rows):
                assert members.tolist() == [i for i, m in enumerate(dims) if m == F.shape[1]]
                assert F.shape == (len(members), F.shape[1], d.ambient_dim)
                for i, Fi in zip(members, F):
                    assert np.array_equal(Fi, d.entries[i][0].frame)
                assert root.shape == (len(members), 1, 1)
                assert root.ravel().tolist() == [math.sqrt(d.entries[i][1]) for i in members]
                assert rows.shape == F.shape[:2] and np.array_equal(vectors[rows], F)
                for array in (F, members, root, rows):
                    with pytest.raises(ValueError):
                        array.flat[0] = 0


def test_every_builder_carries_its_stack_and_defect(rng):
    # built by the constructor itself: no validate_datum call here
    lw = UniformCover(3, 2, ({2, 3}, {1, 3}, {1, 2}))
    lines = planar_lines_datum(3)
    built = [axis_datum(3), holder_datum(2, ["1/3", "2/3"]), lines, paired_planes_datum(4),
             rotate_datum(lines, random_rotation(rng, 2)), direct_sum_data([lines, axis_datum(1)]),
             pair_data(lines, planar_lines_datum(3)), make_datum_from_cover(lw),
             GeometricBLDatum.from_json(paired_planes_datum().to_json())]
    for d in built:
        n = d.ambient_dim
        assert d.validated and d.defect <= RESIDUAL_TOL
        assert np.array_equal(d.projections, [projection_matrix(E) for E, _ in d.entries])
        assert not d.projections.flags.writeable
        assert d.defect == float(np.abs(d.weighted_projection_sum() - np.eye(n)).max())


def test_datum_is_frozen():
    d = planar_lines_datum(3)
    with pytest.raises(dataclasses.FrozenInstanceError):
        d.entries = axis_datum(2).entries
    with pytest.raises(dataclasses.FrozenInstanceError):
        d.projections = axis_datum(2).projections
    assert validate_datum(d) == validate_datum(d)


def test_underweighted_entry_invalid():
    d = GeometricBLDatum(2, ((orthonormalize([[1, 0]]), 0.9),))
    rep = validate_datum(d)
    assert not rep.is_valid and not d.validated
    assert rep.defect >= 0.1 and rep.defect == d.defect
    defect = re.escape(f"(defect {d.defect:.3e})")
    with pytest.raises(InputError, match=defect):
        rank_one_expansion(d)
    with pytest.raises(InputError, match=defect):
        is_critical(d, full_subspace(2))
    with pytest.raises(InputError, match=defect):
        determinantal_high_check(d, [[[1.0]]])


def parseval_defect(r):
    """max-norm of sum_j c_j u_j u_j^T - I_n, summed one row at a time."""
    M = sum(c * np.outer(u, u) for u, c in zip(r.vectors, r.weights))
    return float(np.abs(M - np.eye(r.ambient_dim)).max())


def test_expansion_axis_datum():
    r = rank_one_expansion(axis_datum(3))
    assert (r.k, r.ambient_dim) == (3, 3)
    assert np.allclose(np.abs(r.vectors), np.eye(3))
    assert np.allclose(r.weights, 1.0)
    assert parseval_defect(r) < 1e-12


def test_expansion_paired_planes():
    d = paired_planes_datum()
    r = rank_one_expansion(d)
    assert (r.k, r.ambient_dim) == (6, 4)
    assert np.allclose(r.weights, 2.0 / 3.0)
    assert parseval_defect(r) < 1e-10
    assert float(r.weights.sum()) == pytest.approx(4.0, abs=1e-10)
    # rows in entry order: rows 2i and 2i + 1 are unit vectors of E_i
    assert np.allclose(np.linalg.norm(r.vectors, axis=1), 1.0)
    for j, u in enumerate(r.vectors):
        E = d.entries[j // 2][0]
        assert np.linalg.norm(projection_matrix(E) @ u - u) < 1e-9


def test_expansion_holder():
    d = holder_datum(2, [0.5, 0.5])
    r = rank_one_expansion(d)
    assert r.k == 4
    assert np.allclose(r.weights, 0.5)
    assert parseval_defect(r) < 1e-12


def test_datum_from_loomis_whitney_cover():
    lw = UniformCover(3, 2, ({2, 3}, {1, 3}, {1, 2}))
    d = make_datum_from_cover(lw)
    assert validate_datum(d).defect == 0.0
    assert [E.dim for E, _ in d.entries] == [2, 2, 2]
    assert all(c == 0.5 for _, c in d.entries)


def test_datum_from_partition_cover():
    part = UniformCover(3, 1, ({1}, {2}, {3}))
    d = make_datum_from_cover(part)
    assert validate_datum(d).defect == 0.0
    assert [E.dim for E, _ in d.entries] == [1, 1, 1]


def test_datum_from_mixed_cover_direct_sum_oracle():
    c = UniformCover(3, 2, ({1, 2}, {3}, {1, 2, 3}))
    d = make_datum_from_cover(c)
    assert [E.dim for E, _ in d.entries] == [2, 1, 3]
    # oracle: direct matrix sum of the three coordinate projections
    P12 = np.diag([1.0, 1.0, 0.0])
    P3 = np.diag([0.0, 0.0, 1.0])
    assert np.abs(0.5 * (P12 + P3 + np.eye(3)) - np.eye(3)).max() == 0.0
    assert np.abs(d.weighted_projection_sum() - np.eye(3)).max() < 1e-15


def test_invalid_cover_rejected():
    # the cover refuses itself, so no datum can be made from it
    with pytest.raises(InputError, match="not 2-uniform"):
        make_datum_from_cover(UniformCover(3, 2, ({1, 2}, {1, 3})))


def test_weight_parsing():
    assert parse_weight("2/3") == pytest.approx(2.0 / 3.0, abs=1e-16)
    assert parse_weight("0.5") == 0.5
    with pytest.raises(InputError):
        parse_weight("-1")
    with pytest.raises(InputError):
        parse_weight("zebra")


def test_caps():
    with pytest.raises(CapError):
        GeometricBLDatum(33, ((full_subspace(33), 1.0),))
    with pytest.raises(CapError):
        holder_datum(1, [1.0 / 65] * 65)


def test_pairing_matches_paired_planes():
    a = planar_lines_datum(3)
    b = planar_lines_datum(3)
    merged = pair_data(a, b)
    ref = paired_planes_datum()
    assert merged.ambient_dim == 4
    assert validate_datum(merged).is_valid
    assert [E.dim for E, _ in merged.entries] == [E.dim for E, _ in ref.entries]


def test_rotation_preserves_validity(rng):
    d = paired_planes_datum()
    Q = random_rotation(rng, 4)
    rep = validate_datum(rotate_datum(d, Q))
    assert rep.is_valid and rep.defect < 1e-12


def test_random_generator_always_validates(rng):
    for _ in range(100):
        d = random_datum(rng)
        rep = validate_datum(d)
        assert rep.is_valid and rep.defect <= 1e-10
        assert rep.trace_defect <= 1e-10
        r = rank_one_expansion(d)
        assert parseval_defect(r) < 1e-10
        assert r.k <= 12 and d.ambient_dim <= 6


def test_direct_sum_structure():
    d = direct_sum_data([axis_datum(2), planar_lines_datum(3)])
    assert d.ambient_dim == 4
    assert validate_datum(d).is_valid
    assert d.k == 5


def test_json_roundtrip():
    d = paired_planes_datum()
    d2 = GeometricBLDatum.from_json(d.to_json())
    rep = validate_datum(d2)
    assert rep.is_valid
    assert d2.k == d.k and d2.ambient_dim == d.ambient_dim


def test_json_accepts_rational_weight_strings():
    obj = {
        "n": 2,
        "entries": [
            {"c": "1/3", "E": {"n": 2, "frame": [[1.0, 0.0], [0.0, 1.0]]}},
            {"c": "2/3", "E": {"n": 2, "frame": [[1.0, 0.0], [0.0, 1.0]]}},
        ],
    }
    d = GeometricBLDatum.from_json(obj)
    rep = validate_datum(d)
    assert rep.is_valid and rep.defect < 1e-12
