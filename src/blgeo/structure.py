"""Critical-subspace structure of a geometric Brascamp-Lieb datum.

A non-zero subspace V is critical when sum_i c_i dim(E_i cap V) = dim V,
equivalently when P_V commutes with every P_i = P_{E_i} (every E_i
splits as (E_i cap V) + (E_i cap V-perp)).  Each fact is read once, so
no later check can contradict it: is_critical asks for both, counting
meets at the cut a split implies, and a component whose split does not
close stays whole.  The sines that count dim(E_i cap V) come from one
batched SVD per entry dimension (the norms, for lines), the splitting
from the same products; for a critical V, V P_i V^T projects onto E_i cap V.
determinantal.py tests whether an operator has critical eigenspaces.

The structure comes from the same algebra, the *-algebra generated by
the P_i: the critical subspaces are its invariant subspaces, and the
pieces of a finest orthogonal critical decomposition are irreducible
modules, read off the eigenvectors of a generic element G of it
(Maehara & Murota, JJIAM 27, 2010).  One pass over them splits R^n:
the eigenspaces that the P_i couple form an isotypic component, whose
irreducibles have one commutant, a real division algebra D of
dimension 1, 2 or 4: the real, complex or quaternion type.  Carried
onto the first eigenspace by the polar factors of a second generic
element, the blocks of the P_i between eigenspaces act there as
elements of D; the first eigenspace splits into D-lines, and each
D-line, carried to every eigenspace, spans one piece.  In that basis a
piece W is critical when every P_i is block diagonal for it, and then
dim(E_i cap W) = tr(P_i P_W), the trace of P_i's block on W; pieces
where this is 0 or dim W for every i lie in a joint 0/1 eigenspace
cap_i E_i^(eps(i)), and those sharing one pattern eps sum
to an independent subspace owned by the entries with eps(i) = 1.  The
other pieces span the dependent subspace.  Nothing here depends on
the frames inside the E_i, the entry order or a rotation of R^n.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datum import GeometricBLDatum, rank_one_expansion, require_validated
from .errors import InputError, InternalError
from .subspace import (EIGENVALUE_CLUSTER_RTOL, RANK_TOL, RESIDUAL_TOL, Subspace, orthonormalize,
                       projection_matrix)

INTEGER_SNAP_TOL = 1e-6  # weighted dimension sums of valid data are near-integers
GENERIC_SEED = 20100101  # fixed, so the pieces chosen inside repeated blocks are reproducible


@dataclass(frozen=True)
class CriticalityReport:
    subspace: Subspace
    weighted_dim_sum: float
    dim: int
    is_critical: bool
    splitting_ok: bool


@dataclass(frozen=True)
class IndependentSubspace:
    subspace: Subspace
    weight_sum: float
    owners: tuple  # entry indices i with F_j contained in E_i


@dataclass(frozen=True)
class StructureReport:
    independent_subspaces: tuple  # of IndependentSubspace
    dependent_subspace: Subspace
    indecomposable_decomposition: tuple  # of Subspace
    rank_one_classes: tuple  # bowtie classes of the expansion of the given frames


def is_critical(d: GeometricBLDatum, V: Subspace) -> CriticalityReport:
    """V is critical when it splits every E_i and its weighted dimension
    sum is within INTEGER_SNAP_TOL of dim V: one verdict from both.

    The splitting test holds what each P_i carries out of V, (I - P_V)
    P_i V^T = rest_i^T (F_i V^T), within RESIDUAL_TOL in max-norm.
    dim(E_i cap V) counts the singular values of F_i (I - P_V), the sines
    of the principal angles; the entries of one dimension share one
    product and one batched SVD, or a norm per row for lines.  Where V
    splits, every sine lies within the leak of 0 or 1, so the count takes
    those below 1/sqrt(2); elsewhere those at most RANK_TOL, so a
    non-critical V keeps its sum.
    """
    require_validated(d)
    if V.ambient_dim != d.ambient_dim:
        raise InputError("subspace ambient dimension does not match the datum")
    if V.dim == 0:
        raise InputError("criticality is defined for non-zero subspaces only")
    n = d.ambient_dim
    away = np.eye(n) - projection_matrix(V)
    counts, leak = np.zeros((2, d.k), dtype=int), 0.0  # meets at RANK_TOL and at a split's cut
    for members, frames in d.frame_stacks:
        rest = (frames.reshape(-1, n) @ away).reshape(frames.shape)
        # the one singular value of a line's row is its norm
        sines = np.linalg.norm(rest, axis=2) if frames.shape[1] == 1 else \
            np.linalg.svd(rest, compute_uv=False)
        counts[:, members] = [np.count_nonzero(sines <= cut, axis=1) for cut in (RANK_TOL, 0.5 ** 0.5)]
        leak = max(leak, float(np.abs(rest.swapaxes(1, 2) @ (frames @ V.basis)).max()))
    splitting_ok = leak <= RESIDUAL_TOL
    wds = 0.0
    for (_, c), count in zip(d.entries, counts[int(splitting_ok)].tolist()):  # entry order fixes the sum
        wds += c * count
    dim_match = abs(wds - V.dim) <= INTEGER_SNAP_TOL
    return CriticalityReport(subspace=V, weighted_dim_sum=float(wds), dim=V.dim,
                             is_critical=dim_match and splitting_ok, splitting_ok=splitting_ok)


def _components(i, j, size: int) -> tuple:
    """Connected components of the graph on range(size) whose edges, both
    ways, are the pairs (i[m], j[m]): by smallest member, members ascending.

    Hook and jump: each label points at a smaller or equal index.  An edge
    between two trees hooks the larger root onto the smaller, then pointer
    jumping flattens every tree onto its root, the smallest member of its
    component."""
    labels = np.arange(size)
    while not np.array_equal(a := labels[i], b := labels[j]):
        np.minimum.at(labels, np.maximum(a, b), np.minimum(a, b))
        while not np.array_equal(jumped := labels[labels], labels):
            labels = jumped
    order = np.argsort(labels, kind="stable")
    cuts = [0, *(np.flatnonzero(np.diff(labels[order])) + 1).tolist(), size]
    order = order.tolist()
    return tuple(tuple(order[a:b]) for a, b in zip(cuts, cuts[1:]))


def bowtie_classes(vectors: np.ndarray) -> tuple:
    """Partition of the unit rows of an expansion into indecomposable classes.

    Connected components of the graph with an edge where |<u_i, u_j>|
    exceeds the residual tolerance.  For a Parseval frame the spans of
    the classes are pairwise orthogonal, which makes the component
    relation coincide with membership in a common minimal dependent set
    (the matroid-circuit relation); the exponential circuit search is
    kept only as a small-instance test oracle.  The classes depend on the
    frames given inside each E_i: they are the equality classes of the
    rank-one Ball-Barthe inequality for those vectors, not a structure of
    the datum (rotating a frame inside its E_i can merge classes).
    """
    return _components(*np.nonzero(np.abs(vectors @ vectors.T) > RESIDUAL_TOL), len(vectors))


def indecomposable_decomposition(d: GeometricBLDatum) -> list:
    """Pairwise-orthogonal indecomposable critical subspaces spanning R^n.

    G = A + AB + BA, A and B fixed-seed random combinations of the P_i,
    is a symmetric element of their algebra, assumed generic: distinct
    eigenvalues on non-isomorphic irreducibles, simple ones over the
    commutant of each, a real division algebra D of dimension 1, 2 or 4
    (type R, C or H).  One eigh of G and one batched product
    T_i = Q^T P_i Q give the whole split.  The eigenspaces of G
    (eigenvalues within EIGENVALUE_CLUSTER_RTOL) that some T_i couples
    above RANK_TOL form one isotypic component.  Each irreducible meets
    each eigenspace of its component in a D-line, so the eigenspaces
    share one dimension m; a component where they do not, or whose
    commutant's dimension does not divide m, stays whole.  A component
    of one eigenspace is of type R and is cut into its eigenvector
    lines, on which every P_i is 0 or 1.  In a larger one each block
    Q_b^T A Q_a of A is the action of an element of D, whose polar
    factor carries eigenspace b onto the first, a.  Carried, every block
    Q_b^T P_i Q_a acts on eigenspace a as an element of D, and one SVD
    of their skew parts, stacked, gives the imaginary units of D (none
    for R).  Eigenspace a splits into D-lines, each the orbit of a unit
    vector under 1 and the units, and column group j of every eigenspace
    spans piece j (for m = 1 the whole component); over R a D-line is a
    column, as G's eigenvectors give it.  Every piece W is then checked
    critical in the carried basis Q' = Q C (T_i recomputed only if
    something was carried): the entries of each T_i between W's columns
    and the rest, [P_i, P_W] in that basis, must be within RESIDUAL_TOL;
    the trace of its block on W, dim(E_i cap W), within INTEGER_SNAP_TOL
    of an integer; and sum_i c_i dim(E_i cap W) within INTEGER_SNAP_TOL
    of dim W.  A split that fails is replaced by the components, whole,
    in G's eigenbasis, where the coupling cut holds the T_i between them
    to RANK_TOL = RESIDUAL_TOL; only a failure there is an InternalError.
    A whole component is critical but may be decomposable, so it can
    carry independent pieces into the dependent subspace.  Only n x n
    linear algebra is used, too small for the BLAS to thread.
    """
    return _decomposition(d)[0]


def _decomposition(d: GeometricBLDatum) -> tuple:
    """The sorted pieces of indecomposable_decomposition, and for each the
    row of dim(E_i cap W) that its criticality check read off."""
    require_validated(d)
    n = d.ambient_dim
    weights = np.random.default_rng(GENERIC_SEED).uniform(1.0, 2.0, (2, d.k))
    A, B = (weights @ d.projections.reshape(d.k, n * n)).reshape(2, n, n)
    G = A + A @ B + B @ A
    w, Q = np.linalg.eigh(0.5 * (G + G.T))
    gaps = np.diff(w) > EIGENVALUE_CLUSTER_RTOL * max(abs(w[0]), abs(w[-1]), 1e-300)
    space = np.concatenate([[0], np.cumsum(gaps)])  # the eigenspace of each column
    T = Q.T @ d.projections @ Q
    components = _components(*np.nonzero((np.abs(T).max(axis=0) > RANK_TOL) |
                                         (space[:, None] == space)), n)

    # C carries every eigenspace of a component onto the first, a, and
    # splits a into D-lines; column group j of each eigenspace spans piece j
    size = np.bincount(space)[space].tolist()  # the dimension of each column's eigenspace
    C, pieces, carried = np.eye(n), [], False
    for cols in components:
        m = size[cols[0]]
        if any(size[c] != m for c in cols):  # no D-line meets every eigenspace
            pieces.append(list(cols))
            continue
        spaces, dim_D = np.reshape(cols, (-1, m)), 1
        if m > 1 and len(spaces) > 1:
            first, others = spaces[0], spaces[1:]
            U, _, Vt = np.linalg.svd(Q[:, others].transpose(1, 2, 0) @ A @ Q[:, first])
            carry = U @ Vt
            blocks = carry.swapaxes(1, 2) @ T[:, others[:, :, None], first]
            # the skew part of the action of x in D is that of 2 Im x
            skew = (blocks - blocks.swapaxes(2, 3)).reshape(-1, m * m)
            _, s, units = np.linalg.svd(skew, full_matrices=False)
            units = np.sqrt(m) * units[s > RANK_TOL].reshape(-1, m, m)
            dim_D += len(units)
            if m % dim_D:  # no D-lines of dimension dim_D split eigenspace a
                pieces.append(list(cols))
                continue
            if dim_D > 1:
                F = np.zeros((m, 0))
                while F.shape[1] < m:
                    rest = np.eye(m) - F @ F.T
                    v = rest[:, np.linalg.norm(rest, axis=0).argmax()]
                    v = v / np.linalg.norm(v)
                    F = np.hstack([F, v[:, None], (units @ v).T])
                # units read off rounded blocks are orthogonal to round-off only
                U, _, Vt = np.linalg.svd(F)  # so take the nearest orthogonal F
                C[first[:, None], first] = F = U @ Vt
                carry = carry @ F
            C[others[:, :, None], others[:, None, :]] = carry
            carried = True
        pieces.extend(spaces[:, j:j + dim_D].ravel() for j in range(0, m, dim_D))
    # a piece W is critical when every T_i is block diagonal for it: the entries
    # between W's columns and the rest are [P_i, P_W] in this basis; else whole
    for basis, pieces in ((Q @ C if carried else Q, pieces), (Q, [list(c) for c in components])):
        T_b = T if basis is Q else basis.T @ d.projections @ basis
        label = np.empty(n, dtype=int)
        for j, cols in enumerate(pieces):
            label[cols] = j
        diagonal = np.diagonal(T_b, axis1=1, axis2=2)
        traces = np.array([diagonal[:, cols].sum(axis=1) for cols in pieces])  # tr(P_i P_W)
        meets = np.rint(traces)
        weighted = meets @ [c for _, c in d.entries]  # sum_i c_i dim(E_i cap W)
        if not (np.abs(T_b).max(axis=0)[label[:, None] != label].max(initial=0.0) > RESIDUAL_TOL
                or np.abs(traces - meets).max() > INTEGER_SNAP_TOL
                or np.abs(weighted - [len(cols) for cols in pieces]).max() > INTEGER_SNAP_TOL):
            break
    else:
        raise InternalError("a computed piece failed the criticality test")
    spans = [Subspace(n, basis[:, cols].T) for cols in pieces]
    order = sorted(range(len(spans)),
                   key=lambda j: (spans[j].dim, tuple(np.round(spans[j].frame, 9).ravel())))
    return [spans[j] for j in order], meets[order].astype(int).tolist()


def independent_subspaces(d: GeometricBLDatum) -> StructureReport:
    """Independent subspaces, dependent subspace, and the class structure.

    A piece W of the decomposition lies in an independent subspace when
    dim(E_i cap W), as the decomposition's criticality check read it off,
    is 0 or dim W for every i; the pieces are grouped by the entries that
    contain them, their owners, reported with their weight sum as it is.
    The pieces are column groups of one orthogonal basis, so their rows
    frame each group and the dependent subspace: an orthogonal split.
    """
    n = d.ambient_dim
    pieces, meets = _decomposition(d)
    groups, dependent = {}, []
    for W, row in zip(pieces, meets):
        if set(row) <= {0, W.dim}:
            groups.setdefault(tuple(i for i, m in enumerate(row) if m), []).extend(W.frame)
        else:
            dependent.extend(W.frame)
    independents = [IndependentSubspace(Subspace(n, rows), float(sum(d.entries[i][1] for i in owners)), owners)
                    for owners, rows in groups.items()]
    independents.sort(key=lambda f: (f.subspace.dim, tuple(np.round(f.subspace.frame, 9).ravel())))
    return StructureReport(
        independent_subspaces=tuple(independents),
        dependent_subspace=Subspace(n, dependent),
        indecomposable_decomposition=tuple(pieces),
        rank_one_classes=bowtie_classes(rank_one_expansion(d).vectors),
    )


def _restriction(d: GeometricBLDatum, V: Subspace) -> tuple:
    """d restricted to a critical V in V's coordinates, and each entry's
    meet E_i cap V as rows in them: the eigenvectors of V P_i V^T, its
    projection there, whose eigenvalues (squared cosines) exceed 1/2, the
    1/sqrt(2) cut is_critical counts the sines at; one batched eigh."""
    cosines2, U = np.linalg.eigh(V.frame @ d.projections @ V.basis)
    meets = [U_i[:, w > 0.5].T for w, U_i in zip(cosines2, U)]
    return GeometricBLDatum(V.dim, tuple((orthonormalize(m, ambient_dim=V.dim), c)
                                         for m, (_, c) in zip(meets, d.entries) if len(m))), meets


def restrict_datum(d: GeometricBLDatum, V: Subspace) -> GeometricBLDatum:
    """Restrict a datum to a critical subspace V, in V's own coordinates.

    Keeps the entries with E_i cap V != {0}.  Its defect is the parent's
    read in V's frame, a max-norm that near RESIDUAL_TOL can exceed the
    parent's: validated says so, and a caller that needs it refuses it.
    """
    if not is_critical(d, V).is_critical:
        raise InputError("restriction requires a critical subspace")
    return _restriction(d, V)[0]
