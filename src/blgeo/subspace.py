"""Numerically robust arithmetic on linear subspaces of R^n.

A subspace is stored as an orthonormal frame (row per vector).  All
constructors funnel through :func:`orthonormalize`, which produces a
deterministic, sign-fixed frame from an SVD, so repeated runs emit
byte-identical output.  {0} and R^n are ordinary values, never errors.

Two thresholds, fixed so that a verdict depends on its input alone:
RANK_TOL cuts singular values, relative to the largest when
orthonormalize decides the rank of a span, and absolutely when
criticality (structure.py) counts sines and cosines of principal
angles; RESIDUAL_TOL bounds matrix and vector residuals.  Both are
1e-9, far above the round-off (1e-16 to 1e-15) of exact intersections
and identities on valid data.  errors.py defines them, so that a report
can print them without numpy; this module re-exports them.
"""

from __future__ import annotations

import numpy as np

from .errors import RANK_TOL, RESIDUAL_TOL, InputError, as_int, field_of, read

MAX_AMBIENT_DIM = 32  # of every datum, and of every subspace read from JSON
EIGENVALUE_CLUSTER_RTOL = 1e-6  # repeated eigenvalues are the generic case here


class Subspace:
    """A linear subspace of R^n held as an orthonormal frame.

    frame has shape (dim, n), one orthonormal row per basis vector;
    dim == 0 represents {0}.  Instances are immutable.
    """

    __slots__ = ("ambient_dim", "frame")

    def __init__(self, ambient_dim: int, frame):
        n = int(ambient_dim)
        if n < 1:
            raise InputError(f"ambient dimension must be >= 1, got {n}")
        F = np.asarray(frame, dtype=float)
        if F.size == 0:
            F = F.reshape(0, n)
        if F.ndim != 2 or F.shape[1] != n:
            raise InputError(f"frame must have shape (d, {n}), got {F.shape}")
        if F.shape[0] > n:
            raise InputError(f"frame has {F.shape[0]} vectors in dimension {n}")
        G = F @ F.T
        if F.shape[0] and np.abs(G - np.eye(F.shape[0])).max() >= 1e-12:
            raise InputError("frame rows are not orthonormal to 1e-12")
        F = F.copy()
        F.setflags(write=False)
        object.__setattr__(self, "ambient_dim", n)
        object.__setattr__(self, "frame", F)

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    @property
    def dim(self) -> int:
        return self.frame.shape[0]

    @property
    def basis(self) -> np.ndarray:
        """Column-per-vector view of the frame, shape (n, dim)."""
        return self.frame.T

    def __repr__(self):
        return f"Subspace(n={self.ambient_dim}, dim={self.dim})"

    def to_json(self) -> dict:
        return {"n": self.ambient_dim, "frame": [list(map(float, row)) for row in self.frame]}

    @staticmethod
    def from_json(obj, name: str = "subspace") -> "Subspace":
        """Frames that are already orthonormal are kept verbatim, so a
        serialization round trip is exact; anything else is passed
        through orthonormalize to get the span."""
        obj = read(obj, {"n": float, "frame": [[float]]}, name)
        n = as_int(obj["n"], field_of(name, "n"))
        if not 1 <= n <= MAX_AMBIENT_DIM:  # before anything of size n is built
            raise InputError(f"{field_of(name, 'n')} must lie in [1, {MAX_AMBIENT_DIM}], got {n:.3g}")
        rows = obj["frame"]
        if not all(len(row) == n for row in rows) or not np.all(np.isfinite(rows)):
            raise InputError(f"{field_of(name, 'frame')} rows must be n = {n} finite numbers each")
        try:
            return Subspace(n, rows)
        except InputError:
            return orthonormalize(rows, ambient_dim=n)


def zero_subspace(n: int) -> Subspace:
    return Subspace(n, np.zeros((0, n)))


def full_subspace(n: int) -> Subspace:
    return Subspace(n, np.eye(n))


def _sign_fix(U: np.ndarray) -> np.ndarray:
    """Flip each column so its first entry above the rank threshold is positive."""
    big = np.abs(U) > RANK_TOL
    lead = U[big.argmax(axis=0), np.arange(U.shape[1])]
    return np.where(big.any(axis=0) & (lead < 0), -U, U)


def orthonormalize(vectors, *, ambient_dim: int | None = None) -> Subspace:
    """Span of the given vectors as a canonical orthonormal frame.

    The frame is the left-singular-vector basis of the column-stacked
    input, truncated at numerical rank (singular values above
    RANK_TOL times the largest) and sign-fixed.  An empty input
    yields {0} and then requires ambient_dim.
    """
    vs = [np.asarray(v, dtype=float).reshape(-1) for v in vectors]
    if not vs:
        if ambient_dim is None:
            raise InputError("empty vector list needs an explicit ambient_dim")
        return zero_subspace(ambient_dim)
    n = vs[0].shape[0]
    if n < 1:
        raise InputError("vectors must have dimension >= 1")
    for v in vs:
        if v.shape[0] != n:
            raise InputError(f"dimension mismatch: got lengths {v.shape[0]} and {n}")
    if ambient_dim is not None and ambient_dim != n:
        raise InputError(f"vectors have dimension {n}, expected {ambient_dim}")
    A = np.stack(vs, axis=1)  # n x m, column per vector
    U, s, _ = np.linalg.svd(A, full_matrices=False)
    if s.size == 0 or s[0] <= 0.0:
        return zero_subspace(n)
    rank = int(np.count_nonzero(s > RANK_TOL * s[0]))
    if rank == 0:
        return zero_subspace(n)
    return Subspace(n, _sign_fix(U[:, :rank]).T)


def projection_matrix(S: Subspace) -> np.ndarray:
    """Orthogonal projection onto S as a symmetric n x n matrix."""
    return _symmetric_gram(S.frame)


def frame_stacks(spaces) -> tuple:
    """Read-only (members, frames) per dimension, in order of first
    appearance: the indices of the subspaces of that dimension, in input
    order, and their frames stacked as one (len(members), dim, n) array."""
    groups = {}
    for i, S in enumerate(spaces):
        groups.setdefault(S.dim, []).append(i)
    stacks = tuple((np.array(m), np.stack([spaces[i].frame for i in m])) for m in groups.values())
    for array in (a for stack in stacks for a in stack):
        array.setflags(write=False)
    return stacks


def _symmetric_gram(F: np.ndarray) -> np.ndarray:
    """F^T F, symmetrized, for one frame (dim, n) or a stack (g, dim, n)."""
    P = F.swapaxes(-1, -2) @ F
    return 0.5 * (P + P.swapaxes(-1, -2))


def contains(A: Subspace, B: Subspace) -> bool:
    """True iff B is contained in A (every frame vector of B projects onto itself)."""
    if A.ambient_dim != B.ambient_dim:
        raise InputError(f"ambient dimension mismatch: {A.ambient_dim} vs {B.ambient_dim}")
    if B.dim == 0 or B is A or np.array_equal(A.frame, B.frame):  # A holds itself
        return True
    if B.dim > A.dim:
        return False
    P = projection_matrix(A)
    resid = B.frame @ P.T - B.frame
    return float(np.linalg.norm(resid, axis=1).max()) <= RESIDUAL_TOL


def equal(A: Subspace, B: Subspace) -> bool:
    """Subspace equality as mutual containment."""
    return contains(A, B) and contains(B, A)

