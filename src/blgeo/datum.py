"""Geometric Brascamp-Lieb data: modeling, validation, rank-one expansion.

A datum is a list of subspaces E_i with positive weights c_i on a common
R^n; it is valid when the weighted projections resolve the identity,
sum_i c_i P_{E_i} = I_n.  Expanding each E_i into its frame rows (each
carrying the weight c_i) turns a valid datum into a Parseval frame:
the rank-one determinantal check takes one t per row of it.

Weights may be entered as numbers or as strings ("2/3", "0.5"); strings
are parsed exactly as rationals and converted once to float, with the
validation tolerance absorbing the representation error.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import CapError, InputError, InternalError, as_int, read
from .subspace import (
    MAX_AMBIENT_DIM,
    RESIDUAL_TOL,
    Subspace,
    _symmetric_gram,
    frame_stacks,
    full_subspace,
    orthonormalize,
)

MAX_ENTRIES = 64


def parse_weight(w) -> float:
    """Accept a positive number or an exact-rational string like '2/3'."""
    if isinstance(w, str):
        try:
            value = float(Fraction(w))
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise InputError(f"cannot parse weight {w!r}") from exc
    else:
        value = float(w)
    if not np.isfinite(value) or value <= 0.0:
        raise InputError(f"weights must be positive and finite, got {value}")
    return value


@dataclass(frozen=True)
class GeometricBLDatum:
    """Subspaces E_i with weights c_i > 0 on a common ambient R^n.

    Construction builds `frame_stacks`, the entries' frames stacked per
    dimension (subspace.frame_stacks), so per-entry work runs once per
    entry dimension while sums across entries keep entry order, with each
    stack's sqrt(c_i) (`stack_roots`) and frame rows' indices in the
    expansion (`stack_rows`); in entry order, `weights` (the c_i),
    `supports` (the columns each frame touches) and `projections` (the
    P_{E_i}, which the decomposition reads); and `defect`, the max-norm of
    sum_i c_i P_{E_i} - I_n.  A datum is `validated` when the defect is
    within RESIDUAL_TOL; operations that assume sum_i c_i P_{E_i} = I_n
    refuse any other.  The datum is frozen and its arrays read-only, so
    they and the defect always describe its entries.
    """

    ambient_dim: int
    entries: tuple  # of (Subspace, float)
    frame_stacks: tuple = field(init=False, compare=False, repr=False)
    stack_roots: tuple = field(init=False, compare=False, repr=False)
    stack_rows: tuple = field(init=False, compare=False, repr=False)
    weights: np.ndarray = field(init=False, compare=False, repr=False)
    supports: np.ndarray = field(init=False, compare=False, repr=False)
    projections: np.ndarray = field(init=False, compare=False, repr=False)
    defect: float = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        n = self.ambient_dim
        if not (1 <= n <= MAX_AMBIENT_DIM):
            raise CapError("ambient_dim", MAX_AMBIENT_DIM, n)
        entries = tuple((E, parse_weight(c)) for E, c in self.entries)
        if not (1 <= len(entries) <= MAX_ENTRIES):
            raise CapError("entries", MAX_ENTRIES, len(entries))
        for E, _ in entries:
            if E.ambient_dim != n:
                raise InputError(
                    f"entry ambient dimension {E.ambient_dim} does not match datum n={n}"
                )
            if E.dim < 1:
                raise InputError("datum entries must be non-zero subspaces")
        object.__setattr__(self, "entries", entries)
        stacks = frame_stacks([E for E, _ in entries])
        weights, starts = np.array([c for _, c in entries]), np.cumsum([0] + [E.dim for E, _ in entries])
        projections, supports = np.empty((len(entries), n, n)), np.empty((len(entries), n), bool)
        for members, frames in stacks:
            projections[members] = _symmetric_gram(frames)
            supports[members] = (frames != 0).any(axis=1)
        roots = tuple(np.sqrt(weights[members])[:, None, None] for members, _ in stacks)
        rows = tuple(starts[members][:, None] + np.arange(frames.shape[1]) for members, frames in stacks)
        for array in (weights, projections, supports, *roots, *rows):
            array.setflags(write=False)
        for name, value in (("frame_stacks", stacks), ("stack_roots", roots), ("stack_rows", rows),
                            ("weights", weights), ("supports", supports), ("projections", projections)):
            object.__setattr__(self, name, value)
        defect = float(np.abs(self.weighted_projection_sum() - np.eye(n)).max())
        object.__setattr__(self, "defect", defect)

    @property
    def k(self) -> int:
        return len(self.entries)

    @property
    def validated(self) -> bool:
        return self.defect <= RESIDUAL_TOL

    def weighted_projection_sum(self) -> np.ndarray:
        M = np.zeros((self.ambient_dim, self.ambient_dim))
        for P, (_, c) in zip(self.projections, self.entries):
            M += c * P
        return M

    def to_json(self) -> dict:
        return {
            "n": self.ambient_dim,
            "entries": [{"c": float(c), "E": E.to_json()} for E, c in self.entries],
        }

    @staticmethod
    def from_json(obj) -> "GeometricBLDatum":
        obj = read(obj, {"n": float, "entries": [{"c": (float, str), "E": {}}]}, "datum")
        return GeometricBLDatum(as_int(obj["n"], "datum n"), tuple(
            (Subspace.from_json(e["E"], f"datum entries[{i}].E"), e["c"])
            for i, e in enumerate(obj["entries"])))


@dataclass(frozen=True)
class ValidationReport:
    is_valid: bool
    defect: float          # max-norm of sum c_i P_{E_i} - I_n
    trace_defect: float    # |sum c_i dim E_i - n|
    entry_dims: tuple


@dataclass(frozen=True)
class RankOneDatum:
    """The rank-one expansion of a valid datum: its entries' frame rows u_j
    in entry order, each with its entry's weight c_j.  c_i P_{E_i} is the
    sum of c_i u_j u_j^T over the frame of E_i, so the rows are a Parseval
    frame, sum_j c_j u_j u_j^T = I_n, as validated with the datum.  The
    arrays are read off the datum once, read-only."""

    datum: GeometricBLDatum
    vectors: np.ndarray = field(init=False, compare=False, repr=False)  # (k, n), unit rows
    weights: np.ndarray = field(init=False, compare=False, repr=False)  # (k,), positive

    def __post_init__(self):
        require_validated(self.datum)
        entries = self.datum.entries
        vectors = np.concatenate([E.frame for E, _ in entries])
        weights = np.repeat([c for _, c in entries], [E.dim for E, _ in entries])
        for name, array in (("vectors", vectors), ("weights", weights)):
            array.setflags(write=False)
            object.__setattr__(self, name, array)

    @property
    def ambient_dim(self) -> int:
        return self.datum.ambient_dim

    @property
    def k(self) -> int:
        return self.vectors.shape[0]


def validate_datum(d: GeometricBLDatum) -> ValidationReport:
    """Report how far d is from sum c_i P_{E_i} = I_n; never raises.

    The defect and the stack it is taken over were built with the datum.
    The trace identity sum c_i dim E_i = n is reported separately: it is
    a consequence of the defining equation (compare traces) and gives a
    cheap scalar diagnostic.
    """
    return ValidationReport(
        is_valid=d.validated,
        defect=d.defect,
        trace_defect=float(abs(sum(c * E.dim for E, c in d.entries) - d.ambient_dim)),
        entry_dims=tuple(E.dim for E, _ in d.entries),
    )


def require_validated(d: GeometricBLDatum):
    if not d.validated:
        raise InputError(f"datum does not satisfy sum c_i P_{{E_i}} = I_n (defect {d.defect:.3e})")


def rank_one_expansion(d: GeometricBLDatum) -> RankOneDatum:
    """Expand every entry into its frame rows, weight c_i each."""
    return RankOneDatum(d)


def make_datum_from_cover(cover) -> GeometricBLDatum:
    """Datum of a uniform cover: E_i = span{e_j : j in sigma_i}, c_i = 1/s.

    Each coordinate axis is hit by exactly s sets, so the weighted
    projections sum to the identity exactly.
    """
    n = cover.n
    entries = []
    for sigma in cover.sets:
        rows = np.zeros((len(sigma), n))
        for r, j in enumerate(sorted(sigma)):
            rows[r, j - 1] = 1.0
        entries.append((Subspace(n, rows), 1.0 / cover.s))
    d = GeometricBLDatum(n, tuple(entries))
    if not d.validated:
        raise InternalError(f"cover datum failed validation (defect {d.defect:.3e})")
    return d


# ---------------------------------------------------------------------------
# Constructions used throughout the tests: named building blocks that
# compose into larger data.  Every output validates.
# ---------------------------------------------------------------------------

def axis_datum(n: int) -> GeometricBLDatum:
    """The n coordinate axes with weight 1 each."""
    return GeometricBLDatum(n, tuple((orthonormalize([np.eye(n)[i]]), 1.0) for i in range(n)))


def holder_datum(n: int, weights) -> GeometricBLDatum:
    """E_i = R^n repeated, with weights summing to 1."""
    ws = [parse_weight(w) for w in weights]
    return GeometricBLDatum(n, tuple((full_subspace(n), w) for w in ws))


def planar_lines_datum(m: int) -> GeometricBLDatum:
    """m >= 2 equally spaced lines through the origin of R^2, weight 2/m.

    The lines at angles pi*j/m form a tight frame, so the datum is valid;
    for m >= 3 no two lines are orthogonal and the whole plane is the only
    critical subspace of the configuration.
    """
    if m < 2:
        raise InputError("need at least two lines")
    entries = []
    for j in range(m):
        a = np.pi * j / m
        entries.append((orthonormalize([np.array([np.cos(a), np.sin(a)])]), 2.0 / m))
    return GeometricBLDatum(2, tuple(entries))


def paired_planes_datum(m: int = 3) -> GeometricBLDatum:
    """m two-dimensional entries in R^4 pairing matched lines of two planes.

    Entry i is spanned by the i-th of m equally spaced unit vectors in the
    (x1,x2)-plane together with the matching vector in the (x3,x4)-plane,
    each with weight 2/m.  For m = 3 this is the configuration with a
    whole circle of two-dimensional critical subspaces: rotating the pair
    by any common angle yields another one.
    """
    if m < 3:
        raise InputError("pairing needs m >= 3 to be indecomposable")
    entries = []
    for j in range(m):
        a = np.pi * j / m
        u = np.array([np.cos(a), np.sin(a), 0.0, 0.0])
        v = np.array([0.0, 0.0, np.cos(a), np.sin(a)])
        entries.append((orthonormalize([u, v]), 2.0 / m))
    return GeometricBLDatum(4, tuple(entries))


def rotate_datum(d: GeometricBLDatum, Q: np.ndarray) -> GeometricBLDatum:
    """Apply an orthogonal map to every entry (validity is preserved)."""
    n = d.ambient_dim
    entries = tuple(
        (orthonormalize([Q @ row for row in E.frame], ambient_dim=n), c)
        for E, c in d.entries
    )
    return GeometricBLDatum(n, entries)


def direct_sum_data(parts) -> GeometricBLDatum:
    """Embed data on R^{n_1}, R^{n_2}, ... as blocks of R^{n_1 + n_2 + ...}."""
    parts = list(parts)
    n = sum(p.ambient_dim for p in parts)
    if n > MAX_AMBIENT_DIM:
        raise CapError("ambient_dim", MAX_AMBIENT_DIM, n)
    entries = []
    off = 0
    for p in parts:
        for E, c in p.entries:
            rows = np.zeros((E.dim, n))
            rows[:, off:off + p.ambient_dim] = E.frame
            entries.append((Subspace(n, rows), c))
        off += p.ambient_dim
    return GeometricBLDatum(n, tuple(entries))


def pair_data(a: GeometricBLDatum, b: GeometricBLDatum) -> GeometricBLDatum:
    """Merge two data with identical weight lists into one on R^{na+nb}.

    Entry i becomes the direct sum of E_i^a and E_i^b (orthogonal
    blocks), keeping weight c_i; since both blocks resolve their
    identities with the same weights, the merged datum is valid.  This
    is exactly how the paired planes construction arises from two line
    configurations.
    """
    if a.k != b.k:
        raise InputError("pairing needs equally many entries")
    wa = [c for _, c in a.entries]
    wb = [c for _, c in b.entries]
    if any(abs(x - y) > 1e-12 for x, y in zip(wa, wb)):
        raise InputError("pairing needs identical weight lists")
    n = a.ambient_dim + b.ambient_dim
    entries = []
    for (Ea, c), (Eb, _) in zip(a.entries, b.entries):
        rows = np.zeros((Ea.dim + Eb.dim, n))
        rows[:Ea.dim, :a.ambient_dim] = Ea.frame
        rows[Ea.dim:, a.ambient_dim:] = Eb.frame
        entries.append((Subspace(n, rows), c))
    return GeometricBLDatum(n, tuple(entries))
