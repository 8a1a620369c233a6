import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (bowtie_bfs, bowtie_oracle, cluster_eigenspaces, complement, grown_structure,
                      intersect, is_critical_oracle, is_indecomposable_oracle, random_datum,
                      random_rotation, same_projection, subspace_sum, turned)

from blgeo import cli, structure
from blgeo.covers import UniformCover
from blgeo.datum import (
    GeometricBLDatum,
    axis_datum,
    direct_sum_data,
    holder_datum,
    make_datum_from_cover,
    pair_data,
    paired_planes_datum,
    planar_lines_datum,
    rank_one_expansion,
    rotate_datum,
    validate_datum,
)
from blgeo.determinantal import fiber_log_sides
from blgeo.errors import InputError, InternalError
from blgeo.integrals import ExtremizerParams, build_extremizer
from blgeo.structure import (
    bowtie_classes,
    indecomposable_decomposition,
    independent_subspaces,
    is_critical,
    restrict_datum,
)
from blgeo.subspace import (
    Subspace,
    contains,
    equal,
    full_subspace,
    orthonormalize,
    projection_matrix,
    zero_subspace,
)


def loomis_whitney_datum():
    return make_datum_from_cover(UniformCover(3, 2, ({2, 3}, {1, 3}, {1, 2})))


def vt_subspace(t):
    vecs = []
    for j in range(3):
        a = np.pi * j / 3
        u = np.array([np.cos(a), np.sin(a), 0.0, 0.0])
        v = np.array([0.0, 0.0, np.cos(a), np.sin(a)])
        vecs.append(np.cos(t) * u + np.sin(t) * v)
    return orthonormalize(vecs, ambient_dim=4)


# ---------------------------------------------------------------------------
# criticality
# ---------------------------------------------------------------------------

def test_full_space_always_critical(rng):
    for _ in range(10):
        d = random_datum(rng)
        rep = is_critical(d, full_subspace(d.ambient_dim))
        assert rep.is_critical and rep.splitting_ok
        assert rep.weighted_dim_sum == pytest.approx(d.ambient_dim, abs=1e-8)


def test_vt_family_critical():
    d = paired_planes_datum()
    for t in (0.0, 0.3, np.pi / 4, np.pi / 2):
        rep = is_critical(d, vt_subspace(t))
        assert rep.dim == 2
        assert rep.is_critical
        assert rep.weighted_dim_sum == pytest.approx(2.0, abs=1e-9)


def test_loomis_whitney_axis_critical():
    d = loomis_whitney_datum()
    rep = is_critical(d, orthonormalize([[1, 0, 0]]))
    assert rep.is_critical
    assert rep.weighted_dim_sum == pytest.approx(1.0, abs=1e-12)


def test_single_line_not_critical_in_planar_frame():
    d = planar_lines_datum(3)
    rep = is_critical(d, orthonormalize([[1, 0]]))
    assert not rep.is_critical
    assert rep.weighted_dim_sum == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_zero_subspace_rejected():
    d = axis_datum(2)
    with pytest.raises(InputError):
        is_critical(d, zero_subspace(2))


def test_criticality_duality(rng):
    # V critical implies V-perp critical, on 100 datum/subspace pairs
    checked = 0
    while checked < 100:
        d = random_datum(rng)
        for V in indecomposable_decomposition(d):
            if V.dim == d.ambient_dim:
                continue
            assert is_critical(d, complement(V)).is_critical
            checked += 1
            if checked >= 100:
                break


def test_critical_lattice_property():
    # on a construction where critical pairs are known: paired planes + axis
    d = direct_sum_data([paired_planes_datum(), axis_datum(1)])
    planes = indecomposable_decomposition(paired_planes_datum())
    U = orthonormalize([np.append(r, 0.0) for r in planes[0].frame], ambient_dim=5)
    W = orthonormalize([np.append(r, 0.0) for r in planes[1].frame], ambient_dim=5)
    A = orthonormalize([[0, 0, 0, 0, 1]])
    V1 = subspace_sum(U, A)
    V2 = subspace_sum(W, A)
    assert is_critical(d, V1).is_critical and is_critical(d, V2).is_critical
    meet = intersect(V1, V2)
    assert meet.dim == 1 and is_critical(d, meet).is_critical
    assert is_critical(d, subspace_sum(V1, V2)).is_critical


def test_splitting_identity_orthogonal_criticals():
    d = paired_planes_datum()
    V1, V2 = indecomposable_decomposition(d)
    both = subspace_sum(V1, V2)
    for E, _ in d.entries:
        lhs = intersect(E, both)
        rhs = subspace_sum(intersect(E, V1), intersect(E, V2))
        assert equal(lhs, rhs)


@st.composite
def criticality_candidates(draw):
    """A rotated random datum and subspaces to test on it: its pieces,
    random sums of pieces and random subspaces."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    d = random_datum(rng, max_dim=8, max_vectors=16, rotate=False)
    d = rotate_datum(d, random_rotation(rng, d.ambient_dim))
    n = d.ambient_dim
    pieces = indecomposable_decomposition(d)
    candidates = list(pieces)
    for _ in range(3):
        take = rng.random(len(pieces)) < 0.5
        if take.any():
            candidates.append(orthonormalize(
                np.concatenate([V.frame for V, t in zip(pieces, take) if t]), ambient_dim=n))
        candidates.append(orthonormalize(rng.standard_normal((int(rng.integers(1, n + 1)), n)),
                                         ambient_dim=n))
    return d, candidates


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(criticality_candidates())
def test_is_critical_matches_lattice_oracle(case):
    d, candidates = case
    for V in candidates:
        rep, ref = is_critical(d, V), is_critical_oracle(d, V)
        assert rep.is_critical == ref.is_critical
        assert rep.splitting_ok == ref.splitting_ok
        assert rep.weighted_dim_sum == ref.weighted_dim_sum


def test_fiber_certificate_matches_clustered_oracle(rng):
    # the fiber's certificate, Phi mapping every E_i into itself, against
    # criticality of each eigenspace on the subspace lattice
    def oracle(d, M):
        return all(is_critical_oracle(d, V).is_critical for V in cluster_eigenspaces(M))

    verdicts = []
    for _ in range(30):
        d = random_datum(rng, max_dim=8, max_vectors=16)
        n = d.ambient_dim
        pieces = indecomposable_decomposition(d)
        # repeated eigenvalues merge pieces into one critical eigenspace
        lam = rng.choice([0.5, 1.0, 2.0, 3.0], len(pieces))
        Phi = sum(t * projection_matrix(V) for t, V in zip(lam, pieces))
        G = rng.standard_normal((n, n))
        for M in (Phi, Phi + 1e-3 * (G + G.T)):
            verdicts.append(fiber_log_sides(d, M).equality)
            assert verdicts[-1] == oracle(d, M)
        assert verdicts[-2]
    assert not all(verdicts)


# ---------------------------------------------------------------------------
# bowtie classes and the indecomposable decomposition
# ---------------------------------------------------------------------------

def test_bowtie_axis_singletons():
    r = rank_one_expansion(axis_datum(4))
    assert bowtie_classes(r.vectors) == ((0,), (1,), (2,), (3,))


def test_bowtie_classes_at_the_caps():
    # 64 copies of R^32 (n = 32, k = 64): 2048 vectors, one class per axis,
    # ordered by smallest member, members ascending
    r = rank_one_expansion(holder_datum(32, ["1/64"] * 64))
    assert bowtie_classes(r.vectors) == tuple(tuple(range(j, 2048, 32)) for j in range(32))


def test_bowtie_paired_planes_two_classes():
    d = paired_planes_datum()
    r = rank_one_expansion(d)
    classes = bowtie_classes(r.vectors)
    assert len(classes) == 2
    assert sorted(len(c) for c in classes) == [3, 3]
    # the two classes span the two coordinate planes
    spans = [orthonormalize(r.vectors[list(c)], ambient_dim=4) for c in classes]
    u_plane = orthonormalize([[1, 0, 0, 0], [0, 1, 0, 0]])
    v_plane = orthonormalize([[0, 0, 1, 0], [0, 0, 0, 1]])
    assert any(equal(S, u_plane) for S in spans)
    assert any(equal(S, v_plane) for S in spans)


def test_bowtie_planar_lines_single_class_with_oracle():
    d = planar_lines_datum(3)
    r = rank_one_expansion(d)
    classes = bowtie_classes(r.vectors)
    assert classes == ((0, 1, 2),)
    assert classes == bowtie_oracle(r.vectors)


def test_bowtie_matches_circuit_oracle_on_random_data(rng):
    done = 0
    while done < 25:
        d = random_datum(rng, max_dim=4, max_vectors=8)
        r = rank_one_expansion(d)
        if r.k > 8:
            continue
        assert bowtie_classes(r.vectors) == bowtie_oracle(r.vectors)
        done += 1


def unit_rows(V):
    """The rows of V normalized: bowtie_classes reads the vectors alone."""
    return V / np.linalg.norm(V, axis=1, keepdims=True)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_bowtie_classes_equal_the_breadth_first_search_on_sparse_frames(seed):
    # each vector touches one to three of n coordinates: many classes, of all sizes
    rng = np.random.default_rng(seed)
    k, n = int(rng.integers(1, 80)), int(rng.integers(1, 60))
    V = np.zeros((k, n))
    for row in V:
        support = rng.choice(n, size=min(n, int(rng.integers(1, 4))), replace=False)
        row[support] = rng.choice([-1.0, 1.0], support.size) * rng.uniform(0.5, 1.0, support.size)
    U = unit_rows(V)
    assert bowtie_classes(U) == bowtie_bfs(U)


def test_bowtie_classes_equal_the_breadth_first_search_on_a_shuffled_path():
    # vector m meets m + 1 only; shuffled, so labels hook in no useful order
    k = 2000
    V = np.zeros((k, k + 1))
    V[np.arange(k), np.arange(k)] = V[np.arange(k), np.arange(k) + 1] = 1.0
    U = unit_rows(V[np.random.default_rng(5).permutation(k)])
    assert bowtie_classes(U) == bowtie_bfs(U) == (tuple(range(k)),)


def complex_lines_datum():
    """Six complex lines of C^2 = R^4 (the eigenlines of the Pauli matrices),
    weight 1/3 each: their projections generate M_2(C), an algebra of
    complex type, so R^4 is one indecomposable piece of dimension 4."""
    s = 1 / np.sqrt(2)
    entries = []
    for psi in ([1, 0], [0, 1], [s, s], [s, -s], [s, 1j * s], [s, -1j * s]):
        psi = np.array(psi, dtype=complex)
        rows = [np.column_stack([v.real, v.imag]).ravel() for v in (psi, 1j * psi)]
        entries.append((orthonormalize(rows), 1.0 / 3.0))
    d = GeometricBLDatum(4, tuple(entries))
    assert validate_datum(d).is_valid
    return d


def test_decomposition_complex_type():
    d = complex_lines_datum()
    assert [V.dim for V in indecomposable_decomposition(d)] == [4]
    # two copies: the pieces are not unique, but each is one copy's worth
    pair = rotate_datum(pair_data(d, d), random_rotation(np.random.default_rng(1), 8))
    rep = independent_subspaces(pair)
    assert [V.dim for V in rep.indecomposable_decomposition] == [4, 4]
    assert rep.independent_subspaces == () and rep.dependent_subspace.dim == 8


def test_decomposition_axis_datum():
    parts = indecomposable_decomposition(axis_datum(3))
    assert [V.dim for V in parts] == [1, 1, 1]
    for i, V in enumerate(parts):
        assert is_critical(axis_datum(3), V).is_critical


def test_decomposition_paired_planes():
    d = paired_planes_datum()
    parts = indecomposable_decomposition(d)
    assert [V.dim for V in parts] == [2, 2]
    assert np.abs(parts[0].frame @ parts[1].frame.T).max() < 1e-9


def test_decomposition_block_sum():
    d = direct_sum_data([paired_planes_datum(), axis_datum(1)])
    parts = indecomposable_decomposition(d)
    assert sorted(V.dim for V in parts) == [1, 2, 2]
    for V in parts:
        assert is_critical(d, V).is_critical
    assert sum(V.dim for V in parts) == 5


def quaternion_product(p, q):
    """pq for quaternions held as (1, i, j, k) coordinates."""
    a1, b1, c1, d1 = p
    a2, b2, c2, d2 = q
    return np.array([a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2, a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
                     a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2, a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2])


def quaternion_lines_datum():
    """The ten quaternionic lines (1, 0), (0, 1) and (1, +-u)/sqrt(2), u in
    {1, i, j, k}, of H^2 = R^8, weight 1/5 each: five orthonormal bases, so
    the projections sum to 5 I.  Each line {(x q, y q) : q in H} is framed
    by its right multiples by 1, i, j, k.  The projections commute with
    right multiplication by H, an algebra of quaternion type, so R^8 is one
    indecomposable piece of dimension 8."""
    units = np.eye(4)
    s = 1 / np.sqrt(2)
    lines = [(units[0], np.zeros(4)), (np.zeros(4), units[0])]
    lines += [(s * units[0], sign * s * u) for u in units for sign in (1, -1)]
    entries = []
    for x, y in lines:
        rows = [np.concatenate([quaternion_product(x, e), quaternion_product(y, e)]) for e in units]
        entries.append((Subspace(8, rows), 0.2))
    d = GeometricBLDatum(8, tuple(entries))
    assert validate_datum(d).is_valid
    return d


def test_decomposition_quaternion_type():
    d = quaternion_lines_datum()
    assert [V.dim for V in indecomposable_decomposition(d)] == [8]
    pair = rotate_datum(pair_data(d, d), random_rotation(np.random.default_rng(2), 16))
    assert [V.dim for V in indecomposable_decomposition(pair)] == [8, 8]


@st.composite
def decomposable_data(draw):
    """A rotated random datum; rotated direct sums of paired planes, of
    pairs of two to four copies of one line frame (repeated eigenspaces of
    real type), or of Hoelder and axis blocks; the pair or triple of
    complex-line data, the pair alone or beside real blocks; the
    quaternionic lines, alone, paired or tripled; or a sum of all three
    types, the complex pair, the quaternionic lines, paired planes and
    planar lines."""
    kind = draw(st.sampled_from(["random", "paired_planes", "paired_lines", "holder_axis",
                                 "complex_pair", "complex_mixed", "complex_triple", "quaternion",
                                 "quaternion_triple", "mixed_types"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "random":
        d = random_datum(rng, max_dim=10, max_vectors=20, rotate=False)
    elif kind == "paired_planes":
        copies = [paired_planes_datum(int(rng.integers(3, 6))) for _ in range(int(rng.integers(1, 4)))]
        d = direct_sum_data(copies) if len(copies) > 1 else copies[0]
    elif kind == "paired_lines":
        blocks = []
        for _ in range(int(rng.integers(1, 3))):
            lines = planar_lines_datum(int(rng.integers(3, 6)))
            copies = lines
            for _ in range(int(rng.integers(1, 4))):
                copies = pair_data(copies, lines)
            blocks.append(copies)
        d = direct_sum_data(blocks) if len(blocks) > 1 else blocks[0]
    elif kind == "holder_axis":
        holders = [holder_datum(int(rng.integers(1, 4)), [0.25, 0.75])
                   for _ in range(int(rng.integers(1, 3)))]
        d = direct_sum_data(holders + [axis_datum(int(rng.integers(1, 4)))])
    elif kind.startswith("complex"):
        d = pair_data(complex_lines_datum(), complex_lines_datum())
        if kind == "complex_mixed":
            d = direct_sum_data([d, planar_lines_datum(3), paired_planes_datum(3), axis_datum(1)])
        elif kind == "complex_triple":  # n = 12
            d = pair_data(d, complex_lines_datum())
    elif kind == "quaternion":
        d = quaternion_lines_datum()
        if rng.random() < 0.5:
            d = pair_data(d, d)
    elif kind == "quaternion_triple":  # n = 24
        d = quaternion_lines_datum()
        d = pair_data(pair_data(d, d), d)
    else:  # n = 22
        d = direct_sum_data([pair_data(complex_lines_datum(), complex_lines_datum()),
                             quaternion_lines_datum(), paired_planes_datum(3), planar_lines_datum(4)])
    return rotate_datum(d, random_rotation(rng, d.ambient_dim))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(decomposable_data())
def test_decomposition_is_finest(d):
    pieces = indecomposable_decomposition(d)
    for V in pieces:
        assert is_indecomposable_oracle(d, V)
    frames = np.concatenate([V.frame for V in pieces])
    assert frames.shape == (d.ambient_dim, d.ambient_dim)
    # pairwise orthogonal, so together they span R^n
    assert np.abs(frames @ frames.T - np.eye(d.ambient_dim)).max() < 1e-9


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(decomposable_data())
def test_structure_matches_the_pieces_grown_one_at_a_time(d):
    rep = independent_subspaces(d)
    pieces, independents, dependent, classes = grown_structure(d)
    assert sorted(V.dim for V in rep.indecomposable_decomposition) == sorted(V.dim for V in pieces)
    assert len(rep.independent_subspaces) == len(independents)
    for F, owners in independents:
        assert sum(f.owners == owners and same_projection(f.subspace, F)
                   for f in rep.independent_subspaces) == 1
    assert same_projection(rep.dependent_subspace, dependent)
    assert rep.rank_one_classes == classes


def test_merged_eigenspaces_leave_their_component_whole(monkeypatch, tmp_path, capsys):
    # at a cluster tolerance of 0.05, eigenvalues of G from different
    # components merge, and a component's eigenspaces differ in dimension:
    # that component stays whole, a critical sum of the true pieces
    blocks = [paired_planes_datum(3), planar_lines_datum(3),
              pair_data(planar_lines_datum(4), planar_lines_datum(4))]
    d = rotate_datum(direct_sum_data(blocks), random_rotation(np.random.default_rng(3), 10))
    true = indecomposable_decomposition(d)
    monkeypatch.setattr(structure, "EIGENVALUE_CLUSTER_RTOL", 0.05)
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(d.to_json()))
    code = cli.main(["analyze", str(path)])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    pieces = [Subspace.from_json(W) for W in json.loads(out)["indecomposable_decomposition"]]
    assert len(pieces) < len(true)
    for W in pieces:
        assert is_critical(d, W).is_critical
        overlapped = [U for U in true if np.abs(U.frame @ W.basis).max() > 1e-6]
        assert contains(orthonormalize(np.concatenate([U.frame for U in overlapped])), W)


def test_pieces_that_fail_the_block_test_raise_an_internal_error(monkeypatch, tmp_path, capsys):
    # at a rank tolerance of 0.45 no T_i couples two eigenvectors of G on
    # the six lines in R^2, so the pieces come out as two lines that the
    # P_i do not keep: the closing block test, not an earlier check, refuses
    d = planar_lines_datum(6)
    monkeypatch.setattr(structure, "RANK_TOL", 0.45)
    with pytest.raises(InternalError, match="a computed piece failed the criticality test"):
        indecomposable_decomposition(d)
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(d.to_json()))
    code = cli.main(["analyze", str(path)])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err.startswith("internal error: ") and "Traceback" not in err


# ---------------------------------------------------------------------------
# independent subspaces
# ---------------------------------------------------------------------------

def test_loomis_whitney_independent_axes():
    d = loomis_whitney_datum()
    rep = independent_subspaces(d)
    assert len(rep.independent_subspaces) == 3
    assert rep.dependent_subspace.dim == 0
    # hand enumeration of the 8 sign patterns: exactly one complement index
    # survives, giving the coordinate axes with owner weight 1/2 + 1/2
    for f in rep.independent_subspaces:
        assert f.subspace.dim == 1
        assert len(f.owners) == 2
        assert f.weight_sum == pytest.approx(1.0, abs=1e-12)
    span = rep.independent_subspaces
    for axis in np.eye(3):
        assert any(equal(f.subspace, orthonormalize([axis])) for f in span)


def test_paired_planes_all_dependent():
    rep = independent_subspaces(paired_planes_datum())
    assert rep.independent_subspaces == ()
    assert rep.dependent_subspace.dim == 4


def test_holder_single_independent():
    rep = independent_subspaces(holder_datum(3, [0.25, 0.75]))
    assert len(rep.independent_subspaces) == 1
    f = rep.independent_subspaces[0]
    assert f.subspace.dim == 3
    assert f.owners == (0, 1)
    assert rep.dependent_subspace.dim == 0


def test_structure_direct_sum_invariants(rng):
    for _ in range(20):
        d = random_datum(rng)
        rep = independent_subspaces(d)
        total = rep.dependent_subspace.dim + sum(
            f.subspace.dim for f in rep.independent_subspaces
        )
        assert total == d.ambient_dim
        for f in rep.independent_subspaces:
            assert f.weight_sum == pytest.approx(1.0, abs=1e-9)
            for i in f.owners:
                assert contains(d.entries[i][0], f.subspace)
        for V in rep.indecomposable_decomposition:
            assert is_critical(d, V).is_critical


def test_analyze_rotated_n32_k64(rng):
    # 2^64 sign patterns: out of reach for a walk over patterns
    blocks = [paired_planes_datum(3), paired_planes_datum(4), planar_lines_datum(5),
              planar_lines_datum(6), holder_datum(2, [1.0 / 28] * 28),
              loomis_whitney_datum(), axis_datum(15)]
    d = rotate_datum(direct_sum_data(blocks), random_rotation(rng, 32))
    assert (d.ambient_dim, d.k) == (32, 64)
    rep = independent_subspaces(d)
    assert sorted(V.dim for V in rep.indecomposable_decomposition) == [1] * 20 + [2] * 6
    assert rep.dependent_subspace.dim == 12
    got = sorted((f.subspace.dim, f.owners) for f in rep.independent_subspaces)
    holder_owners = tuple(range(18, 46))
    lw_owners = [(46, 47), (46, 48), (47, 48)]
    axis_owners = [(i,) for i in range(49, 64)]
    assert got == sorted([(2, holder_owners)] + [(1, o) for o in lw_owners + axis_owners])


# one datum of each kind of block; entries of dimension >= 2 make the frame inside E_i matter
INVARIANCE_BLOCKS = {
    "axis": lambda: axis_datum(1),
    "holder": lambda: holder_datum(2, [0.3, 0.7]),
    "lines": lambda: planar_lines_datum(3),
    "loomis_whitney": loomis_whitney_datum,
    "paired3": lambda: paired_planes_datum(3),
    "paired4": lambda: paired_planes_datum(4),
    "complex_pair": lambda: pair_data(complex_lines_datum(), complex_lines_datum()),
}


@st.composite
def reframed_data(draw):
    """A direct sum of blocks and the same datum re-framed inside each E_i,
    with its entries permuted and R^n rotated; perm[j] is the original
    index of new entry j."""
    names = draw(st.lists(st.sampled_from(sorted(INVARIANCE_BLOCKS)), min_size=1, max_size=3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    blocks = [INVARIANCE_BLOCKS[name]() for name in names]
    d = direct_sum_data(blocks) if len(blocks) > 1 else blocks[0]
    n = d.ambient_dim
    Q = random_rotation(rng, n)
    perm = rng.permutation(d.k)
    entries = []
    for i in perm:
        E, c = d.entries[i]
        R = random_rotation(rng, E.dim)
        entries.append((Subspace(n, R @ E.frame @ Q.T), c))
    moved = GeometricBLDatum(n, tuple(entries))
    assert validate_datum(moved).is_valid
    return d, moved, Q, [int(i) for i in perm]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(reframed_data())
def test_structure_invariant_under_reframing(case):
    d, moved, Q, perm = case
    rep, rep2 = independent_subspaces(d), independent_subspaces(moved)
    assert sorted(V.dim for V in rep2.indecomposable_decomposition) == \
        sorted(V.dim for V in rep.indecomposable_decomposition)
    assert rep2.dependent_subspace.dim == rep.dependent_subspace.dim

    def rotated(S):
        return orthonormalize(S.frame @ Q.T, ambient_dim=d.ambient_dim)

    assert equal(rotated(rep.dependent_subspace), rep2.dependent_subspace)
    assert len(rep2.independent_subspaces) == len(rep.independent_subspaces)
    for f in rep.independent_subspaces:
        owners = tuple(j for j, i in enumerate(perm) if i in f.owners)
        assert sum(g.owners == owners and equal(rotated(f.subspace), g.subspace)
                   for g in rep2.independent_subspaces) == 1


# ---------------------------------------------------------------------------
# restriction
# ---------------------------------------------------------------------------

def test_restrict_axis_datum():
    d = axis_datum(3)
    V = orthonormalize([[1, 0, 0], [0, 1, 0]])
    sub = restrict_datum(d, V)
    assert sub.ambient_dim == 2 and sub.k == 2
    assert validate_datum(sub).is_valid


def test_restrict_paired_planes_to_plane():
    d = paired_planes_datum()
    u_plane = orthonormalize([[1, 0, 0, 0], [0, 1, 0, 0]])
    sub = restrict_datum(d, u_plane)
    assert sub.ambient_dim == 2 and sub.k == 3
    assert all(E.dim == 1 for E, _ in sub.entries)
    assert all(c == pytest.approx(2.0 / 3.0) for _, c in sub.entries)
    # oracle: the three lines resolve the identity of the plane directly
    M = sum(c * projection_matrix(E) for E, c in sub.entries)
    assert np.abs(M - np.eye(2)).max() < 1e-12
    # lines are at 60 degree spacing: pairwise |cos| = 1/2
    for a in range(3):
        for b in range(a + 1, 3):
            ip = float(np.abs(sub.entries[a][0].frame @ sub.entries[b][0].frame.T).max())
            assert ip == pytest.approx(0.5, abs=1e-9)


def test_restrict_loomis_whitney_to_axis():
    d = loomis_whitney_datum()
    sub = restrict_datum(d, orthonormalize([[1, 0, 0]]))
    assert sub.ambient_dim == 1 and sub.k == 2
    assert all(E.dim == 1 for E, _ in sub.entries)
    assert all(c == pytest.approx(0.5) for _, c in sub.entries)


def test_restrict_rotated_drops_orthogonal_entries(rng):
    # the axis is orthogonal to V: E cap V = {0} must not come out as a
    # round-off line, as a rank cut relative to the largest cosine would
    d = direct_sum_data([paired_planes_datum(), axis_datum(1)])
    Q = random_rotation(rng, 5)
    moved = rotate_datum(d, Q)
    V = orthonormalize(np.array([[1, 0, 0, 0, 0], [0, 1, 0, 0, 0]]) @ Q.T, ambient_dim=5)
    sub = restrict_datum(moved, V)
    assert sub.ambient_dim == 2 and sub.k == 3
    assert all(E.dim == 1 for E, _ in sub.entries)
    M = sum(c * projection_matrix(E) for E, c in sub.entries)
    assert np.abs(M - np.eye(2)).max() < 1e-12


def test_restrict_requires_critical():
    d = planar_lines_datum(3)
    with pytest.raises(InputError):
        restrict_datum(d, orthonormalize([[1, 0]]))


def test_rotated_structure_consistent(rng):
    d = rotate_datum(loomis_whitney_datum(), random_rotation(rng, 3))
    rep = independent_subspaces(d)
    assert len(rep.independent_subspaces) == 3
    assert rep.dependent_subspace.dim == 0


# ---------------------------------------------------------------------------
# frames as noisy as validate admits
# ---------------------------------------------------------------------------

# a Hoelder pair on a plane beside its normal line, typed to 8 decimals
# (defect 9.4e-10): the meets and splits of the pieces sit near the cuts
TYPED_HOLDER_PLANE = {"n": 3, "entries": [
    {"c": 0.542429582845575, "E": {"n": 3, "frame": [[0.70753333, 0.4074954, 0.57735958],
                                                      [0.52643395, -0.84897469, -0.04592682]]}},
    {"c": 0.4575704171544251, "E": {"n": 3, "frame": [[0.70753333, 0.4074954, 0.57735958],
                                                       [0.52643395, -0.84897469, -0.04592682]]}},
    {"c": 1.0, "E": {"n": 3, "frame": [[0.4714487, 0.33643644, -0.8151973]]}}]}

# two orthogonal diagonal lines, one weight raised by 1.9e-9 (defect 9.5e-10):
# each line is an independent subspace whose owner weight sum is not 1
NUDGED_LINES = {"n": 2, "entries": [
    {"c": 1.0000000019, "E": {"n": 2, "frame": [[0.7071067811865476, 0.7071067811865476]]}},
    {"c": 1.0, "E": {"n": 2, "frame": [[0.7071067811865476, -0.7071067811865476]]}}]}


def noisy_data(family: str, count: int = 40):
    """random_datum data whose frames are turned entry by entry by
    eps = 10^U(-13, -10), or typed to 10 decimals; or, nudged, one of
    whose weights is raised by the largest step validate admits."""
    rng = np.random.default_rng(3 if family == "nudged" else 5)
    for _ in range(count):
        obj = random_datum(rng, max_dim=10, max_vectors=20).to_json()
        if family == "nudged":
            entry = obj["entries"][rng.integers(len(obj["entries"]))]
            c = entry["c"]
            for step in (3e-9, 2e-9, 1.5e-9, 1e-9, 5e-10):
                entry["c"] = c + step
                if GeometricBLDatum.from_json(obj).validated:
                    break
        else:
            for entry in obj["entries"]:
                frame = entry["E"]["frame"]
                entry["E"]["frame"] = (turned(rng, frame, 10.0 ** rng.uniform(-13, -10))
                                       if family == "turned" else np.round(frame, 10).tolist())
        yield obj


def structure_commands_exit_0(obj, tmp_path, capsys, rng):
    """validate; where it accepts, analyze, and critical on each piece and on
    each piece turned by 1e-9, all exit 0.  Each weight_sum is its owners'
    weights as given, and restrict_datum restricts to each piece critical
    passes with at most the parent's defect read in the piece's frame.
    Counts the pieces that critical refutes."""
    path, piece = tmp_path / "datum.json", tmp_path / "piece.json"
    path.write_text(json.dumps(obj))
    refuted = 0
    if cli.main(["validate", str(path)]) != 0:
        capsys.readouterr()
        return refuted
    capsys.readouterr()
    d = GeometricBLDatum.from_json(obj)
    assert cli.main(["analyze", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    for f in report["independent_subspaces"]:
        assert f["weight_sum"] == sum(obj["entries"][i]["c"] for i in f["owners"])
    for W in report["indecomposable_decomposition"]:
        for frame in (W["frame"], turned(rng, W["frame"], 1e-9)):
            piece.write_text(json.dumps({"n": W["n"], "frame": frame}))
            assert cli.main(["critical", str(path), str(piece)]) == 0
            if not json.loads(capsys.readouterr().out)["is_critical"]:
                refuted += frame is W["frame"]
                continue
            sub = restrict_datum(d, Subspace.from_json(json.loads(piece.read_text())))
            assert sub.defect <= d.ambient_dim * d.defect + 1e-13
    return refuted


@pytest.mark.parametrize("family", ["turned", "typed", "nudged"])
def test_structure_commands_exit_0_on_frames_validate_admits(family, tmp_path, capsys):
    rng = np.random.default_rng(7)
    assert sum(structure_commands_exit_0(obj, tmp_path, capsys, rng) for obj in noisy_data(family)) == 0


def test_structure_commands_exit_0_on_a_typed_hoelder_plane(tmp_path, capsys):
    # its one piece is R^3 in G's eigenbasis, where the restriction's
    # max-norm defect reads 1.035e-9: restrict_datum returns it unvalidated,
    # and build_extremizer, which does not need it validated, builds on it
    rng = np.random.default_rng(7)
    assert structure_commands_exit_0(TYPED_HOLDER_PLANE, tmp_path, capsys, rng) == 0
    d = GeometricBLDatum.from_json(TYPED_HOLDER_PLANE)
    report = independent_subspaces(d)
    assert report.dependent_subspace.dim == 3
    assert len(build_extremizer(d, report, ExtremizerParams(A=np.eye(3)))) == d.k


def test_structure_commands_exit_0_on_nudged_lines(tmp_path, capsys):
    assert validate_datum(GeometricBLDatum.from_json(NUDGED_LINES)).is_valid
    assert structure_commands_exit_0(NUDGED_LINES, tmp_path, capsys, np.random.default_rng(7)) == 0
