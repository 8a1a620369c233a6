"""Desk-scale evaluation of both sides of the two inequalities.

Brascamp-Lieb direction (Gaussian inputs, closed form):
    integral of prod f_i(P_{E_i} x)^{c_i}  <=  prod (integral f_i)^{c_i}.
Barthe (reverse) direction:
    integral of sup over decompositions x = sum c_i x_i of
    prod f_i(x_i)^{c_i}  >=  prod (integral f_i)^{c_i}.

Densities live on subspaces and come in three kinds: Gaussian (closed
form), grid (piecewise constant on cells, midpoint quadrature), and
factorized (a product over pairwise orthogonal factor subspaces, the
shape the characterized extremizers take).

On grids the Barthe supremum is a maximum over the exact constraint
fiber: some coordinates of the decomposition run over the grid and the
rest are solved from x = sum c_i x_i, so no candidate leaves the fiber
and no slack is needed.  The sup is taken in log space so products of
powers cannot underflow.  Gaussian blocks with a solved coordinate sum,
in one set-up, to a term per output cell, a term per free tuple and a
bilinear cross term of at most min(n, free coordinates) products.  When
every such block is Gaussian and there is at most one product, the sup
over the free tuples is a one-dimensional discrete Legendre transform,
searched on the upper hull of the free tuples' points (Lucet, Numer.
Algorithms 16, 1997): pruning to the hull tests O(T) points, and each
output cell finds its maximizer by a binary search of the hull's slopes,
O(M log H) for H vertices.  When pruning stalls, as on a concave run
under a chord, a divide and conquer in O(M + T log M) candidates
finishes.  Otherwise the output cells x free tuples table is taken in
tiles of SUPCONV_TILE candidates, joined by a running maximum; a grid
density is read there, and wherever it is evaluated, from one table
padded with zero mass.  The set-up reads each block where it is: a
one-factor Gaussian in another frame of its span enters through R^T A R
and R^T b, with no density built.  Each density is evaluated once a call
on its cell centres, for its grid mass and, when its block is wholly
free, its logs; a Gaussian's mass is computed once, by its constructor.
The cells, the tuples and their product are capped before any grid
array is built.  Reported errors combine a cell-variation (inner/outer
Riemann) bound with the mass each input loses to truncation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .datum import GeometricBLDatum, require_validated
from .determinantal import U, _restricts, _safe_exp, determinantal_high_check, fiber_log_sides, require_spd
from .errors import CapError, InputError, InternalError, as_array, field_of, read
from .structure import StructureReport, _restriction
from .subspace import Subspace, contains, equal, orthonormalize

SUPCONV_MAX_AMBIENT = 3
SUPCONV_MAX_CELLS = 1 << 22  # output cells M, and free tuples T (a grid axis per free coordinate)
SUPCONV_MAX_CANDIDATES = 1 << 30  # M x T: about 7 s in tiles for Gaussians on the planes of R^3
SUPCONV_TILE = 1 << 14  # candidates per tile: 128 KiB work arrays, L2-resident


# ---------------------------------------------------------------------------
# densities
# ---------------------------------------------------------------------------

class Density:
    """A nonnegative integrable function on a subspace.

    Values are evaluated in the frame coordinates of `domain`; a point
    z in R^dim corresponds to the ambient point z @ domain.frame.
    """

    domain: Subspace

    def integral(self) -> float:
        raise NotImplementedError

    def value(self, Z) -> np.ndarray:
        raise NotImplementedError

    def log_value(self, Z) -> np.ndarray:
        """log f at Z, -inf where f vanishes."""
        with np.errstate(divide="ignore"):
            return np.log(self.value(Z))

    def value_and_log(self, Z) -> tuple:
        """(value(Z), log_value(Z)), from one evaluation where the kind allows."""
        return self.value(Z), self.log_value(Z)

    def shift(self, s) -> "Density":
        """Density z -> f(z - s), s in domain frame coordinates."""
        raise NotImplementedError

    def scaled(self, a: float) -> "Density":
        raise NotImplementedError

    def to_json(self) -> dict:
        raise NotImplementedError

    @staticmethod
    def from_json(obj, name: str = "density") -> "Density":
        head = read(obj, {"kind": str, "domain": {}}, name)
        domain = Subspace.from_json(head["domain"], field_of(name, "domain"))
        values = (float, [float], [[float]], [[[float]]])[min(domain.dim, 3)]  # a level per axis
        shape = {"gaussian": {"A": [[float]], "b?": [float], "theta?": float},
                 "grid": {"lo": [float], "h": float, "values": values},
                 "factorized": {"factors": [{"subspace": {}, "density": {}}]}}.get(head["kind"])
        if shape is None:
            raise InputError(f"{name} kind {head['kind']!r} is not gaussian, grid or factorized")
        obj = read(obj, shape, name)
        if head["kind"] == "gaussian":
            return GaussianDensity(domain, obj["A"], obj.get("b"), obj.get("theta", 1.0))
        if head["kind"] == "grid":
            return GridDensity(domain, obj["lo"], obj["h"], obj["values"])
        return FactorizedDensity(domain, tuple(
            (Subspace.from_json(f["subspace"], field_of(name, f"factors[{i}].subspace")),
             Density.from_json(f["density"], field_of(name, f"factors[{i}].density")))
            for i, f in enumerate(obj["factors"])))


class GaussianDensity(Density):
    """f(z) = theta * exp(-<A z, z - b>) with A positive definite."""

    def __init__(self, domain: Subspace, A, b=None, theta: float = 1.0):
        d = domain.dim
        A = as_array(A, (d, d), "gaussian matrix A")
        if d:
            A = require_spd(A, "gaussian matrix")[0]
        if not (theta > 0.0 and np.isfinite(theta)):
            raise InputError("gaussian scale theta must be positive")
        b = np.zeros(d) if b is None else as_array(b, (d,), "gaussian centre b")
        if not np.all(np.isfinite(b)):
            raise InputError("gaussian centre b must be finite")
        self.domain = domain
        self.A = A
        self.b = b
        self.theta = float(theta)
        self._mass = self.theta
        if d:
            logdet = np.linalg.slogdet(A)[1]
            quad = float(b @ A @ b) / 4.0
            try:
                self._mass *= math.exp(quad + 0.5 * d * math.log(math.pi) - 0.5 * logdet)
            except OverflowError:
                self._mass = math.inf
        if not math.isfinite(self._mass):
            raise InputError("gaussian centre b is too far out: the mass "
                             "theta exp(<A b, b> / 4) sqrt(pi^d / det A) overflows a double")

    def integral(self) -> float:
        """theta exp(<A b, b> / 4) sqrt(pi^d / det A), computed once by the constructor."""
        return self._mass

    def value(self, Z) -> np.ndarray:
        return np.exp(self.log_value(Z))

    def log_value(self, Z) -> np.ndarray:
        Z = np.atleast_2d(np.asarray(Z, dtype=float))
        return math.log(self.theta) + ((self.b - Z) @ self.A * Z).sum(axis=1)

    def value_and_log(self, Z) -> tuple:
        logs = self.log_value(Z)
        return np.exp(logs), logs

    def shift(self, s) -> "GaussianDensity":
        s = np.asarray(s, dtype=float).reshape(self.domain.dim)
        scale = math.exp(-float(s @ self.A @ s + s @ self.A @ self.b))
        return GaussianDensity(self.domain, self.A, self.b + 2.0 * s, self.theta * scale)

    def scaled(self, a: float) -> "GaussianDensity":
        return GaussianDensity(self.domain, self.A, self.b, self.theta * a)

    def moments(self):
        """(mass, mean, covariance-like Sigma = A^{-1}/2) of the Gaussian."""
        return self.integral(), self.b / 2.0, np.linalg.inv(self.A) / 2.0

    def to_json(self) -> dict:
        return {
            "kind": "gaussian",
            "domain": self.domain.to_json(),
            "A": [[float(x) for x in row] for row in self.A],
            "b": [float(x) for x in self.b],
            "theta": self.theta,
        }


class GridDensity(Density):
    """Piecewise-constant density: values on cells of side h starting at lo."""

    def __init__(self, domain: Subspace, lo, h: float, values):
        d = domain.dim
        if d < 1 or d > 3:
            raise InputError("grid densities support dimensions 1..3")
        values = as_array(values, (None,) * d, "grid values")
        if values.size == 0:
            raise InputError("grid values must hold at least one cell")
        if not np.all(np.isfinite(values)) or np.any(values < 0.0):
            raise InputError("grid values must be finite and nonnegative")
        if not (0.0 < h < math.inf):
            raise InputError("grid cell size h must be positive and finite")
        lo = as_array(lo, (d,), "grid origin lo")
        if not np.all(np.isfinite(lo)):
            raise InputError("grid origin lo must be finite")
        self.domain = domain
        self.lo = lo
        self.h = float(h)
        self.values = values
        try:
            with np.errstate(over="ignore"):
                mass = self.integral()
        except OverflowError:
            mass = math.inf
        if not math.isfinite(mass):
            raise InputError("grid values are too large: the mass sum(values h^d) overflows a double")

    @property
    def hi(self) -> np.ndarray:
        return self.lo + self.h * np.array(self.values.shape)

    def integral(self) -> float:
        # scaled before summing, so a finite mass never overflows on the way
        return float((self.values * self.h ** self.domain.dim).sum())

    def value(self, Z) -> np.ndarray:
        return self._tables[0][self._cells(Z)]

    def log_value(self, Z) -> np.ndarray:
        return self._tables[1][self._cells(Z)]

    def value_and_log(self, Z) -> tuple:
        cells = self._cells(Z)
        return tuple(table[cells] for table in self._tables)

    @cached_property
    def _tables(self):
        """values and log(values), padded by a cell on each side of each axis
        with 0 and -inf: the tables value and log_value read."""
        padded = np.pad(self.values, 1)
        with np.errstate(divide="ignore"):
            return padded, np.log(padded)

    def _cells(self, Z) -> tuple:
        """Each point's cell floor((Z - lo) / h) per axis, clipped to the pad
        before the integer cast and shifted into the padded tables, so a
        point off the grid, infinite or NaN reads the pad."""
        Z = np.atleast_2d(np.asarray(Z, dtype=float))
        with np.errstate(over="ignore"):
            idx = np.floor((Z - self.lo) / self.h)
        np.fmax(idx, -1.0, out=idx)  # fmax and fmin send NaN to the pad
        np.fmin(idx, self.values.shape, out=idx)
        idx += 1.0
        return tuple(idx.astype(np.intp).T)

    def shift(self, s) -> "GridDensity":
        s = np.asarray(s, dtype=float).reshape(self.domain.dim)
        return GridDensity(self.domain, self.lo + s, self.h, self.values)

    def scaled(self, a: float) -> "GridDensity":
        return GridDensity(self.domain, self.lo, self.h, self.values * a)

    def to_json(self) -> dict:
        return {
            "kind": "grid",
            "domain": self.domain.to_json(),
            "lo": [float(x) for x in self.lo],
            "h": self.h,
            "values": self.values.tolist(),
        }


class FactorizedDensity(Density):
    """Product of densities over pairwise orthogonal factor subspaces.

    Factor subspaces live in the ambient space, are contained in the
    domain, and together span it, so the integral is the product of the
    factor integrals.
    """

    def __init__(self, domain: Subspace, factors):
        factors = tuple(factors)
        if not factors:
            raise InputError("factorized density needs at least one factor")
        total = 0
        for S, g in factors:
            if S.ambient_dim != domain.ambient_dim:
                raise InputError("factor subspace has wrong ambient dimension")
            if not equal(S, g.domain):
                raise InputError("factor density must live on its factor subspace")
            if not contains(domain, S):
                raise InputError("factor subspace must lie in the domain")
            total += S.dim
        if total != domain.dim:
            raise InputError("factor subspaces must span the domain")
        F = np.concatenate([S.frame for S, _ in factors])
        if np.abs(F @ F.T - np.eye(len(F))).max() > 1e-9:
            raise InputError("factor subspaces must be pairwise orthogonal")
        self.domain = domain
        self.factors = factors

    def integral(self) -> float:
        out = 1.0
        for _, g in self.factors:
            out *= g.integral()
        return out

    def value(self, Z) -> np.ndarray:
        Z = np.atleast_2d(np.asarray(Z, dtype=float))
        amb = Z @ self.domain.frame
        out = np.ones(Z.shape[0])
        for _, g in self.factors:
            out *= g.value(amb @ g.domain.basis)
        return out

    def log_value(self, Z) -> np.ndarray:
        amb = np.atleast_2d(np.asarray(Z, dtype=float)) @ self.domain.frame
        return sum(g.log_value(amb @ g.domain.basis) for _, g in self.factors)

    def value_and_log(self, Z) -> tuple:
        amb = np.atleast_2d(np.asarray(Z, dtype=float)) @ self.domain.frame
        values, logs = np.ones(amb.shape[0]), 0
        for _, g in self.factors:
            v, log = g.value_and_log(amb @ g.domain.basis)
            values *= v
            logs = logs + log
        return values, logs

    def shift(self, s) -> "FactorizedDensity":
        s = np.asarray(s, dtype=float).reshape(self.domain.dim)
        amb = s @ self.domain.frame
        return FactorizedDensity(
            self.domain,
            tuple((S, g.shift(amb @ g.domain.basis)) for S, g in self.factors),
        )

    def scaled(self, a: float) -> "FactorizedDensity":
        (S0, g0), rest = self.factors[0], self.factors[1:]
        return FactorizedDensity(self.domain, ((S0, g0.scaled(a)),) + rest)

    def to_json(self) -> dict:
        return {
            "kind": "factorized",
            "domain": self.domain.to_json(),
            "factors": [
                {"subspace": S.to_json(), "density": g.to_json()} for S, g in self.factors
            ],
        }


# ---------------------------------------------------------------------------
# evaluations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IneqEvaluation:
    """A "barthe" result with lhs < rhs (1 - est_error) is refused; a "bl" result comes
    from a determinantal check, whose refusal bounds its ratio by 1 + est_error."""

    lhs: float
    rhs: float
    ratio: float
    direction: str   # "bl" or "barthe"
    method: str      # "closed_form" or "grid"
    est_error: float  # relative error budget

    def __post_init__(self):
        if self.direction == "barthe" and self.lhs < self.rhs * (1.0 - self.est_error):
            raise InternalError(f"Barthe inequality violated beyond the error budget: "
                                f"lhs {self.lhs:.12g} < rhs {self.rhs:.12g}")


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid per axis: count = round(2 radius / h) cells of side h.

    The cells start at -radius, so they cover [-radius, -radius + count h],
    which ends within h / 2 of radius when 2 radius / h is not an integer.
    Transport maps instead sample [-radius, radius] at its count + 1 evenly
    spaced points, 2 radius / count apart.
    """

    h: float
    radius: float

    def __post_init__(self):
        if not (math.isfinite(self.radius) and self.h > 0.0 and self.radius > self.h):
            raise InputError("grid needs finite h and box with 0 < h < box")
        if not math.isfinite(2.0 * self.radius / self.h):
            raise InputError("grid cell count 2*box/h must be finite")

    @property
    def count(self) -> int:
        return int(round(2.0 * self.radius / self.h))

    def centers(self) -> np.ndarray:
        return -self.radius + (np.arange(self.count) + 0.5) * self.h

    @staticmethod
    def parse(text: str) -> "GridSpec":
        """Parse 'h=0.05,box=±4' (a plain number also works for box)."""
        spec = {}
        for part in text.split(","):
            key, _, val = part.partition("=")
            key, val = key.strip(), val.replace("±", "").replace("+-", "").strip()
            if key not in ("h", "box"):
                raise InputError(f"--grid has unknown key {key!r}; use 'h=0.05,box=±4'")
            if key in spec:
                raise InputError(f"--grid repeats key {key!r}; use 'h=0.05,box=±4'")
            try:
                spec[key] = float(val)
            except ValueError:
                raise InputError(f"--grid {key} must be a number, got {val!r}") from None
        if len(spec) != 2:
            raise InputError(f"grid spec must look like 'h=0.05,box=±4', got {text!r}")
        return GridSpec(spec["h"], spec["box"])


def gaussian_bl_eval(d: GeometricBLDatum, A_list) -> IneqEvaluation:
    """Both Brascamp-Lieb sides for f_i(z) = exp(-pi <A_i z, z>), closed form.

    lhs = det(sum c_i A_i P_{E_i})^{-1/2} and rhs = prod (det A_i)^{-c_i/2},
    so ratio <= 1 is the determinantal inequality in disguise, with
    equality exactly on its certificates.
    """
    return bl_eval_from_check(determinantal_high_check(d, A_list))


def bl_eval_from_check(check) -> IneqEvaluation:
    """The Brascamp-Lieb sides read off a determinantal check of the same A_i."""
    return _closed_form(-0.5 * check.log_lhs, -0.5 * check.log_rhs, "bl", 0.5 * check.budget)


def _closed_form(log_lhs: float, log_rhs: float, direction: str, error: float) -> IneqEvaluation:
    """A side that overflows a double is inf, which the report refuses; est_error
    adds the rounding of the last sums and of exp to the log sides' error."""
    return IneqEvaluation(_safe_exp(log_lhs), _safe_exp(log_rhs), _safe_exp(log_lhs - log_rhs),
                          direction, "closed_form",
                          error + 2 * U * (1.0 + abs(log_lhs) + abs(log_rhs)))


def gaussian_barthe_eval(d: GeometricBLDatum, Phi) -> IneqEvaluation:
    """Barthe's two sides for the Gaussian family e^{-c_i |Phi x_i|^2}, any SPD
    Phi: pi^(n/2) exp(log_lhs / 2) and pi^(n/2) exp(log_rhs / 2) of the fiber
    check, with half its budget; the ratio is 1 exactly when it certifies Phi."""
    return _barthe_from_check(d, fiber_log_sides(d, Phi))


def _barthe_from_check(d: GeometricBLDatum, check) -> IneqEvaluation:
    """The Barthe sides read off the fiber check of d, fiber_log_sides."""
    log_pi = 0.5 * d.ambient_dim * math.log(math.pi)
    return _closed_form(log_pi + 0.5 * check.log_lhs, log_pi + 0.5 * check.log_rhs, "barthe", 0.5 * check.budget)


def _product_points(points) -> np.ndarray:
    """Every tuple of the product of the point sets in points, the first
    set slowest, as one row of their coordinates."""
    axes = [(m, P[:, i]) for m, P in enumerate(points) for i in range(P.shape[1])]
    out = np.empty([len(P) for P in points] + [len(axes)])
    for j, (m, coords) in enumerate(axes):
        out[..., j] = _along(len(points), m, coords)
    return out.reshape(-1, len(axes))


def _center_slabs(spec: GridSpec, dim: int, whole):
    """The cell centres of spec in dim dimensions, the first axis slowest,
    in chunks of whole first-axis slabs of at least max(SUPCONV_TILE,
    count^2) points: whole(dim) when that is one chunk, as on a line or a
    plane, and in R^3 a slab or a few."""
    count = spec.count
    step = -(-max(SUPCONV_TILE, count ** 2) // count ** (dim - 1))
    if step >= count:
        yield whole(dim)
        return
    axis = spec.centers()[:, None]
    for a in range(0, count, step):
        yield _product_points([axis[a:a + step]] + [axis] * (dim - 1))


def _pivot_columns(C: np.ndarray) -> np.ndarray:
    """The columns column-pivoted QR picks for a full-row-rank C: each time
    the largest residual norm, ties to the first; returned in order."""
    R, picked = np.array(C, dtype=float), []
    while True:
        j = int(np.argmax((R * R).sum(axis=0)))
        picked.append(j)
        if len(picked) == R.shape[0]:  # the last residual would go unread
            return np.sort(picked)
        R -= np.outer(R[:, j], R[:, j] @ R) / (R[:, j] @ R[:, j])


def supconv_eval(d: GeometricBLDatum, densities, grid: GridSpec) -> IneqEvaluation:
    """Grid evaluation of Barthe's supremum side against the product side.

    F(x) = sup { prod f_i(x_i)^{c_i} : x = sum c_i x_i, x_i in E_i } is a
    maximum over the fiber {y : C y = x}, where y stacks the frame
    coordinates of all blocks and C = [c_1 F_1^T ... c_k F_k^T] is n x D.
    Column-pivoted QR of C picks n solved coordinates; the other D - n
    (free) coordinates run over the grid, blocks that are wholly free
    only over their cells of positive mass.  The solved coordinates are
    computed exactly, C_P^{-1} (x - C_Q y_Q), so every candidate lies on
    the fiber and F is never overestimated at a grid point.  A solved
    block whose density is Gaussian (alone or as the one factor of a
    factorized density), f(z) = theta exp(-<A z, z - b>) at z = u - v
    with u = K x per output cell and v = N y_Q per free tuple, splits as
        c log f = c (log theta + <A b, u> - <A u, u>)    row term
                - c (<A b, v> + <A v, v>)                column term
                + 2c <A u, v>                            cross term.
    Summed over the Gaussian solved blocks, the row terms make R (one
    value per output cell), the column terms join the wholly free blocks'
    c log f in L (one value per free tuple), and the cross terms make
    x^T G y_Q for an n x f matrix G, f = D - n, written as min(n, f)
    products p_j[a] t_j[b].  Every other solved block keeps its
    coordinates, K_b x per output cell and N_b y_Q per free tuple.  When
    every solved block is Gaussian and there is at most one product
    (n = 1 or f = 1), the maximum over the free tuples is a discrete
    Legendre transform, found for all output cells at once by _row_maxima
    in place of the M x T table: O(T) tests prune the points (t, L) to
    their upper hull, and each cell's maximizer is a binary search of the
    hull's slopes, O(M log H) for H vertices (Lucet, Numer. Algorithms 16,
    1997); a pass that drops fewer than an eighth of its points hands the
    rest to a divide and conquer in O(M + T log M) candidates.  With no
    free coordinate it is R + L.  Otherwise the table is walked in tiles
    (_tile_walk).  Either way F is built from a few values per output
    cell and per free tuple.  F is integrated by the midpoint rule; the
    product side uses the same grid quadrature per factor.
    """
    require_validated(d)
    n = d.ambient_dim
    if n > SUPCONV_MAX_AMBIENT:
        raise CapError("supconv ambient dimension", SUPCONV_MAX_AMBIENT, n)
    cells, tuples = grid.count ** n, grid.count ** (sum(E.dim for E, _ in d.entries) - n)
    for name, size in (("supconv output cells", cells), ("supconv free tuples", tuples)):
        if size > SUPCONV_MAX_CELLS:
            raise CapError(name, SUPCONV_MAX_CELLS, size)
    if cells * tuples > SUPCONV_MAX_CANDIDATES:
        raise CapError("supconv candidates", SUPCONV_MAX_CANDIDATES, cells * tuples)
    densities = list(densities)
    if len(densities) != d.k:
        raise InputError(f"need one density per entry: expected {d.k}, got {len(densities)}")
    for i, ((E, _), f) in enumerate(zip(d.entries, densities)):
        if f.domain.ambient_dim != n:
            raise InputError(f"density {i} lives in R^{f.domain.ambient_dim}, the datum in R^{n}")
        if not equal(E, f.domain):
            raise InputError("density domains must match the datum subspaces")

    h = grid.h
    weights = [c for _, c in d.entries]

    # finite masses can still make a side beyond a double, refused below
    with np.errstate(over="ignore"):
        quads, F = _fiber_maximum(grid, densities, weights)
        lhs = _volume_sum(F, h ** n)  # F holds F h^n from here on
    rhs = _safe_exp(sum(c * math.log(q) for c, q in zip(weights, quads)))
    for name, side in (("lhs", lhs), ("rhs", rhs)):
        if not math.isfinite(side):
            raise InputError(f"the grid Barthe side {name} overflows a double")

    # error budget: inner/outer cell variation of F plus input truncation
    Fg = F.reshape([grid.count] * n)
    outer = _filter3(Fg, np.maximum)
    inner = _filter3(Fg, np.minimum)
    quad_abs = 0.5 * float((outer - inner).sum())
    tail_rel = 0.0
    for c, f, q in zip(weights, densities, quads):
        exact = f.integral()
        if exact > 0.0:
            tail_rel += c * abs(1.0 - q / exact)
    denom = max(min(lhs, rhs), 1e-300)
    # first-order rounding of the cell sums, logs and exp behind the sides (the
    # logs of masses and sides stand in for the fiber maxima's): a constant F has no other budget
    logs = sum(abs(c * math.log(q)) for c, q in zip(weights, quads)) + abs(math.log(denom))
    cells = F.size + sum(c * grid.count ** E.dim for E, c in d.entries)
    est = quad_abs / denom + tail_rel + U * (cells + (d.k + 3) * (1.0 + logs))
    return IneqEvaluation(lhs=lhs, rhs=rhs, ratio=lhs / rhs, direction="barthe",
                          method="grid", est_error=float(est))


def _volume_sum(cells: np.ndarray, volume: float) -> float:
    """The midpoint rule sum(cells) volume, each cell scaled in place
    before the sum, so that a finite total never overflows on the way."""
    cells *= volume
    return float(cells.sum())


def _fiber_maximum(grid: GridSpec, densities, weights) -> tuple:
    """Each density's mass on the grid (its cell sum) and F at every output
    cell, flat: the fiber set-up, one evaluation of each density on its
    cell centres, and the route."""
    n = densities[0].domain.ambient_dim
    C = np.hstack([c * g.domain.basis for c, g in zip(weights, densities)])
    starts = [0, *itertools.accumulate(g.domain.dim for g in densities)]
    solved = _pivot_columns(C)
    is_free = np.ones(C.shape[1], dtype=bool)
    is_free[solved] = False
    free = np.flatnonzero(is_free)
    f = free.size
    owns = [int(np.count_nonzero(is_free[a:b])) for a, b in zip(starts, starts[1:])]  # free per block

    whole = {}  # the cell centres per dimension, built once, read only

    def centres(dim):
        if dim not in whole:
            whole[dim] = _product_points([grid.centers()[:, None]] * dim)
            whole[dim].setflags(write=False)
        return whole[dim]

    # each density once on its cell centres: its mass on the grid, and the
    # free coordinates of each block that has one: its points, and the sum
    # c_i log f_i over them when the block is wholly free (None otherwise)
    quads, factors = [], []
    for g, c, own in zip(densities, weights, owns):
        values, kept = [], []
        for P in _center_slabs(grid, g.domain.dim, centres):
            if own == g.domain.dim:
                v, logs = g.value_and_log(P)
                keep = np.isfinite(logs)
                kept.append((P[keep], c * logs[keep]))
            else:
                v = g.value(P)
            values.append(v)
        quads.append(_volume_sum(np.concatenate(values), grid.h ** g.domain.dim))
        if own == g.domain.dim:
            factors.append(tuple(np.concatenate(part) for part in zip(*kept)))
        elif own:
            factors.append((centres(own), None))
    if any(q <= 0.0 for q in quads):
        raise InputError("a density has zero mass on the declared box")
    axes = [centres(1)] * n
    points = [P for P, _ in factors]

    # the fiber point over x with free part y is K x - N y; a block holding
    # a solved coordinate is read in its own frame, and one that is not
    # Gaussian keeps its coordinates K_b x per cell and N_b y per tuple
    inv = np.linalg.inv(C[:, solved])
    K = np.zeros((C.shape[1], n))
    K[solved] = inv
    N = np.zeros((C.shape[1], f))
    N[solved] = inv @ C[:, free]
    N[free] = -np.eye(f)

    # Gaussian blocks: R(x) = r0 + <r, x> - <Q x, x> per output cell,
    # -<s, y> - <S y, y> per free tuple into L, and the cross term x^T G y
    r0, r, Q = 0.0, np.zeros(n), np.zeros((n, n))
    s, S, G = np.zeros(f), np.zeros((f, f)), np.zeros((n, f))
    gaussian, others = False, []
    for g, c, own, a, b in zip(densities, weights, owns, starts, starts[1:]):
        if own == g.domain.dim:
            continue
        Kb, Nb = K[a:b], N[a:b]
        inner, change = _unwrapped(g, g.domain)
        if not isinstance(inner, GaussianDensity):
            framed = inner if change is None else in_frame(g, g.domain)
            others.append((c, framed, _linear(axes, Kb), _linear(points, Nb)))
            continue
        A, mean, theta = ((inner.A, inner.b, inner.theta) if change is None
                          else _gaussian_in_frame(inner, change))
        Ab = A @ mean
        r0 += c * math.log(theta)
        r += c * (Kb.T @ Ab)
        Q += c * (Kb.T @ A @ Kb)
        s += c * (Nb.T @ Ab)
        S += c * (Nb.T @ A @ Nb)
        G += 2.0 * c * (Kb.T @ A @ Nb)
        gaussian = True
    R = np.full([grid.count] * n, r0)
    _add_quadratic(R, axes, r, -Q)
    L = np.zeros([len(P) for P in points])
    for m, (_, piece) in enumerate(factors):
        if piece is not None:
            L += _along(L.ndim, m, piece)
    _add_quadratic(L, points, -s, -S)
    R, L = R.reshape(-1), L.reshape(-1)
    # x^T G y as min(n, f) products p_j[a] t_j[b]: the coordinates of x
    # against the rows of G, or the columns of G against the coordinates
    # of y; none when no solved block is Gaussian
    products = []
    if gaussian and f:
        if n <= f:
            x, y = centres(n), _linear(points, G)
        else:
            x, y = _linear(axes, G.T), _product_points(points)
        products = list(zip(x.T, y.T))

    if others or len(products) > 1:
        return quads, _tile_walk(R, L, products, others)
    if products:
        (p, t), = products
        order = np.argsort(t, kind="stable")
        L, t = L[order], t[order]
        del order, products  # the search holds only the sorted copies
        R += _row_maxima(p, L, t)
    else:
        R += L.max()
    return quads, np.exp(R, out=R)


def _along(ndim: int, axis: int, vec: np.ndarray) -> np.ndarray:
    """vec laid along one axis of an ndim-dimensional product grid."""
    return vec.reshape([-1 if a == axis else 1 for a in range(ndim)])


def _add_quadratic(out: np.ndarray, points, lin, quad) -> None:
    """out += <lin, z> + <quad z, z> at every z of the product of the point
    sets in points, one set per axis of out.  Coordinates of one set are
    summed along its axis first; a product of two sets' coordinates is
    added into out in place.  The order is fixed, so no float depends on
    the BLAS, and no temporary is larger than out."""
    z = [_along(out.ndim, m, P[:, i]) for m, P in enumerate(points) for i in range(P.shape[1])]
    axis = [m for m, P in enumerate(points) for _ in range(P.shape[1])]
    for m in range(len(points)):
        own = [j for j in range(len(z)) if axis[j] == m]
        out += sum(lin[j] * z[j] + sum(quad[j, l] * z[j] * z[l] for l in own) for j in own)
    for j in range(len(z)):
        for l in range(j + 1, len(z)):
            if axis[j] != axis[l] and quad[j, l] != 0.0:
                out += 2.0 * quad[j, l] * z[j] * z[l]


def _linear(points, rows) -> np.ndarray:
    """<row, z> for each row of rows at every z of the product of the point
    sets in points, summed as _add_quadratic sums its linear part: one
    column per row."""
    shape = [len(P) for P in points]
    out = np.zeros(shape + [len(rows)])
    for j, row in enumerate(rows):
        column, k = out[..., j], 0
        for m, P in enumerate(points):
            column += sum(row[k + i] * _along(len(points), m, P[:, i]) for i in range(P.shape[1]))
            k += P.shape[1]
    return out.reshape(math.prod(shape), len(rows))


def _row_maxima(p: np.ndarray, L: np.ndarray, t: np.ndarray) -> np.ndarray:
    """max over b of L[b] + p[a] t[b] for every a, with t ascending.

    Only the upper hull of the points (t[b], L[b]) holds maximizers, so the
    transform is searched on the hull (Lucet, Numer. Algorithms 16, 1997).
    Among equal t the largest L is kept.  Each pass then drops every point
    not strictly above the chord of its current neighbours (a NaN test,
    which an infinite L makes, keeps it), until a pass drops nothing.  The
    hull's edge slopes then decrease, and np.searchsorted of p in the
    negated slopes is each row's maximizer, so p needs no sort: O(M log H)
    for H vertices.  That vertex and its two neighbours are evaluated as
    t p + L, each as in the whole table, and the largest is taken: every
    maximum is a value of the table, and a slope rounded to the wrong side
    costs nothing.  A concave run under the chord of two outer points
    loses only a point from each end per pass, so a pass that drops fewer
    than an eighth of its points hands the survivors, still sorted, to
    _divide_and_conquer; every pass before it dropped at least an eighth,
    so pruning tests at most 8 T points.  No float depends on the BLAS or
    on SUPCONV_TILE, which only the finish reads."""
    ends = np.flatnonzero(t[1:] != t[:-1]) + 1
    if ends.size + 1 < t.size:
        starts = np.concatenate([[0], ends])
        L, t = np.maximum.reduceat(L, starts), t[starts]
    with np.errstate(invalid="ignore"):  # inf - inf
        while t.size > 2:
            dt, dL = t[1:] - t[:-1], L[1:] - L[:-1]
            cross = dL[:-1] * dt[1:]
            cross -= dL[1:] * dt[:-1]
            keep = np.ones(t.size, dtype=bool)
            np.logical_not(cross <= 0.0, out=keep[1:-1])
            dropped = t.size - np.count_nonzero(keep)
            if not dropped:
                break
            L, t = L[keep], t[keep]
            if 8 * dropped < keep.size:
                return _divide_and_conquer(p, L, t)
        at = np.searchsorted((L[:-1] - L[1:]) / (t[1:] - t[:-1]), p)
        best = t[at] * p + L[at]
        for side in (np.maximum(at - 1, 0), np.minimum(at + 1, t.size - 1)):
            np.maximum(best, t[side] * p + L[side], out=best)
    return best


def _divide_and_conquer(p: np.ndarray, L: np.ndarray, t: np.ndarray) -> np.ndarray:
    """max over b of L[b] + p[a] t[b] for every a, with t ascending: the
    finish of _row_maxima when pruning to the hull stalls.

    With the rows sorted by p, the leftmost maximizing b never decreases
    as p grows (the table is supermodular), so the maxima are found by
    divide and conquer over the rows: the middle row of each segment is
    searched over its segment's columns and splits them for the rows
    above and below.  A segment of r rows and w columns with r w <= 2 (r + w)
    (one or two rows, or about two columns) is searched whole at the end,
    and so is every segment left once their r w together fit in
    SUPCONV_TILE: a table of one tile is one pass, with no descent.  The
    end pass takes tiles of about SUPCONV_TILE candidates that keep each
    row whole.  Each level is one vectorized pass over at most T + segments
    candidates, each computed as in the whole table, so every maximum is
    a value of the table and no float depends on the BLAS or the tile.
    O(M + T log M) candidates in all."""
    rows = np.argsort(p, kind="stable")
    p, best = p[rows], np.empty(len(p))
    seg = np.array([[0], [len(p)], [0], [len(t) - 1]])  # rows [r0, r1), columns [c0, c1]
    narrow = []  # segments taken whole: every row over every column
    while True:
        height, width = seg[1] - seg[0], seg[3] - seg[2] + 1
        area = height * width
        done = (area <= 2 * (height + width)) | (area.sum() <= SUPCONV_TILE)
        narrow.append(seg[:, done])
        seg = seg[:, ~done]
        if not seg.size:
            break
        r0, r1, c0, c1 = seg
        mid, size = (r0 + r1) // 2, c1 - c0 + 1
        first = np.cumsum(size) - size
        col = _ranges(c0, size)
        v = t[col]
        v *= np.repeat(p[mid], size)
        v += L[col]
        top = np.maximum.reduceat(v, first)
        hits = np.flatnonzero(v == np.repeat(top, size))
        arg = col[hits[np.searchsorted(hits, first)]]
        best[mid] = top
        # the rows below mid, then those above: neither is empty, as a
        # segment of one or two rows is always taken whole
        seg = np.concatenate([seg, seg], axis=1)
        seg[1, :mid.size], seg[3, :mid.size] = mid, arg
        seg[0, mid.size:], seg[2, mid.size:] = mid + 1, arg
    r0, r1, c0, c1 = np.concatenate(narrow, axis=1)
    at = _ranges(r0, r1 - r0)
    start, size = np.repeat(c0, r1 - r0), np.repeat(c1 - c0 + 1, r1 - r0)
    ends = np.cumsum(size)
    cuts = np.searchsorted(ends, np.arange(SUPCONV_TILE, ends[-1], SUPCONV_TILE))
    cuts = cuts[np.diff(cuts, prepend=-1) > 0]  # sorted, so this drops the repeats
    for a, b in zip([0, *cuts], [*cuts, len(at)]):
        col = _ranges(start[a:b], size[a:b])
        v = t[col]
        v *= np.repeat(p[at[a:b]], size[a:b])
        v += L[col]
        best[at[a:b]] = np.maximum.reduceat(v, np.cumsum(size[a:b]) - size[a:b])
    out = np.empty_like(best)
    out[rows] = best
    return out


def _ranges(start: np.ndarray, size: np.ndarray) -> np.ndarray:
    """np.arange(s, s + m) for each s, m of start, size, concatenated."""
    out = np.repeat(start - (np.cumsum(size) - size), size)
    out += np.arange(len(out))
    return out


def _tile_walk(R, L, products, others) -> np.ndarray:
    """F at every output cell from the M x T table of output cells by free
    tuples, in tiles of at most SUPCONV_TILE candidates: blocks of rows
    and, when T exceeds the tile, column slabs joined by a running per-row
    maximum.  A candidate is L[b] plus each product p_j[a] t_j[b] plus,
    for each non-Gaussian solved block, c log f at K_b x - N_b y, summed in
    a fixed order, so no float depends on the tile; R is added after the
    per-row maximum."""
    M, T = R.size, L.size
    F = np.zeros(M)
    rows, width = max(1, SUPCONV_TILE // T), min(T, SUPCONV_TILE)
    for a in range(0, M, rows):
        best = np.full(min(rows, M - a), -np.inf)
        for b in range(0, T, width):
            total = L[b:b + width]
            for p, t in products:
                total = total + p[a:a + rows, None] * t[None, b:b + width]
            for c, f, U, V in others:
                z = U[a:a + rows, None] - V[None, b:b + width]
                logs = f.log_value(z.reshape(-1, z.shape[2])).reshape(z.shape[:2])
                total = total + c * logs
            best = np.maximum(best, total.max(axis=1))
        F[a:a + rows] = np.where(np.isfinite(best), np.exp(best + R[a:a + rows]), 0.0)
    return F


def _filter3(a: np.ndarray, op) -> np.ndarray:
    """np.maximum or np.minimum over each 3^n block: scipy.ndimage's size-3 'nearest' filter.
    Per axis, one copy takes its lower and then its upper neighbour in
    place, the edge cell its one neighbour; min and max are exact, so the
    order changes no value."""
    for axis in range(a.ndim):
        head = (slice(None),) * axis
        lo, hi = head + (slice(None, -1),), head + (slice(1, None),)
        out = a.copy()
        op(out[hi], a[lo], out=out[hi])
        op(out[lo], a[hi], out=out[lo])
        a = out
    return a


# ---------------------------------------------------------------------------
# extremizers
# ---------------------------------------------------------------------------

def is_log_concave(density: Density) -> bool:
    """Verify log-concavity where we can decide it.

    Gaussians always are; factorized densities are when every factor is;
    a one-dimensional grid is checked by midpoint concavity of the logs,
    to relative 1e-9, and contiguity of the support.  Multi-dimensional
    grids are refused (raise) rather than guessed.
    """
    if isinstance(density, GaussianDensity):
        return True
    if isinstance(density, FactorizedDensity):
        return all(is_log_concave(g) for _, g in density.factors)
    if isinstance(density, GridDensity):
        if density.domain.dim != 1:
            raise InputError("log-concavity check supports only 1-D grids")
        v = density.values
        pos = np.nonzero(v > 0.0)[0]
        if pos.size == 0:
            return False
        if np.any(v[pos[0]:pos[-1] + 1] <= 0.0):
            return False  # interior zero: support not an interval
        w = v[pos[0]:pos[-1] + 1]
        return bool(np.all(w[1:-1] ** 2 >= w[:-2] * w[2:] * (1.0 - 1e-9)))
    raise InputError(f"cannot check log-concavity of {type(density).__name__}")


@dataclass
class ExtremizerParams:
    """Inputs for the characterized equality-case densities.

    A:     positive definite matrix on the dependent subspace, given in
           its frame coordinates (None when the dependent subspace is {0});
           its eigenspaces must be critical.
    b:     per-entry ambient vectors in E_i cap F_dep (centers of the
           Gaussian part), default 0.
    w:     per-entry ambient vectors in E_i (shifts of the shared
           factors), default 0.
    theta: per-entry positive scales, default 1.
    h:     one density per independent subspace, living on it;
           log-concave whenever the subspace is shared by two entries.
    """

    A: object = None
    b: tuple = None
    w: tuple = None
    theta: tuple = None
    h: tuple = ()


def build_extremizer(d: GeometricBLDatum, report: StructureReport,
                     params: ExtremizerParams) -> list:
    """Assemble the densities f_i that achieve equality in Barthe's inequality.

    f_i(x) = theta_i exp(-<A P_dep x, P_dep x - b_i>)
             * prod over independent F_j inside E_i of h_j(P_{F_j}(x - w_i)),
    returned as factorized densities on E_i (the Gaussian factor on
    E_i cap F_dep, one shifted factor per owned F_j).
    """
    require_validated(d)
    n = d.ambient_dim
    dep = report.dependent_subspace
    indep = report.independent_subspaces
    if len(params.h) != len(indep):
        raise InputError(f"need one shared density per independent subspace "
                         f"({len(indep)}), got {len(params.h)}")
    for f_j, hj in zip(indep, params.h):
        if not equal(hj.domain, f_j.subspace):
            raise InputError("a shared density does not live on its independent subspace")
        if len(f_j.owners) >= 2 and not is_log_concave(hj):
            raise InputError(
                "the shared factor on an independent subspace contained in two "
                "entries must be log-concave"
            )

    A_amb, meets = None, [np.zeros((0, 0))] * d.k  # E_i cap F_dep in F_dep's coordinates
    if dep.dim > 0:
        if params.A is None:
            raise InputError("the dependent subspace is non-zero: a matrix A is required")
        A = np.asarray(params.A, dtype=float)
        if A.shape != (dep.dim, dep.dim):
            raise InputError(f"A must be {dep.dim} x {dep.dim} on the dependent subspace, got {A.shape}")
        require_spd(A, "A")
        # A_amb (A with kernel F_dep-perp) has critical eigenspaces iff A maps each E_i cap F_dep into itself
        restricted, meets = _restriction(d, dep)  # the report's F_dep is critical
        if not _restricts(restricted, A):
            raise InputError("the eigenspaces of A must be critical subspaces")
        A_amb = dep.basis @ A @ dep.frame

    k = d.k
    bs = params.b if params.b is not None else [np.zeros(n)] * k
    ws = params.w if params.w is not None else [np.zeros(n)] * k
    thetas = params.theta if params.theta is not None else [1.0] * k
    if not (len(bs) == len(ws) == len(thetas) == k):
        raise InputError("b, w, theta must have one item per entry")

    out = []
    for i, (E, c) in enumerate(d.entries):
        b_i = np.asarray(bs[i], dtype=float).reshape(n)
        w_i = np.asarray(ws[i], dtype=float).reshape(n)
        theta_i = float(thetas[i])
        if theta_i <= 0.0:
            raise InputError("theta_i must be positive")
        S0 = orthonormalize(meets[i] @ dep.frame, ambient_dim=n)
        if np.linalg.norm(b_i) > 0 and (
            S0.dim == 0 or np.linalg.norm(S0.basis @ (S0.frame @ b_i) - b_i) > 1e-9 * (1 + np.linalg.norm(b_i))
        ):
            raise InputError("b_i must lie in E_i cap F_dep")
        if np.linalg.norm(E.basis @ (E.frame @ w_i) - w_i) > 1e-9 * (1 + np.linalg.norm(w_i)):
            raise InputError("w_i must lie in E_i")

        factors = []
        if S0.dim > 0:
            G0 = S0.basis
            A0 = G0.T @ A_amb @ G0
            b0 = np.linalg.solve(A0, G0.T @ (A_amb @ b_i))
            factors.append((S0, GaussianDensity(S0, A0, b0, 1.0)))
        for f_j, hj in zip(indep, params.h):
            if i in f_j.owners:
                shift = hj.domain.frame @ w_i  # coordinates of P_{F_j} w_i
                factors.append((f_j.subspace, hj.shift(shift)))
        if sum(S.dim for S, _ in factors) != E.dim:
            raise InternalError(
                "entry does not split into its dependent part and owned "
                "independent subspaces; the structure report is inconsistent"
            )
        out.append(FactorizedDensity(E, factors).scaled(theta_i))
    return out


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------

def _suggest_radius(density: Density) -> float:
    if isinstance(density, GridDensity):
        return float(np.abs(np.concatenate([density.lo, density.hi])).max())
    if isinstance(density, GaussianDensity):
        if density.domain.dim == 0:
            return 0.0
        _, mu, Sigma = density.moments()
        sigma = math.sqrt(max(np.linalg.eigvalsh(Sigma).max(), 0.0))
        return float(np.abs(mu).max() + 8.5 * sigma)
    if isinstance(density, FactorizedDensity):
        return float(sum(_suggest_radius(g) for _, g in density.factors)) or 1.0
    raise InputError(f"cannot bound the support of {type(density).__name__}")


def _find_h(density: Density):
    if isinstance(density, GridDensity):
        return density.h
    if isinstance(density, FactorizedDensity):
        for _, g in density.factors:
            h = _find_h(g)
            if h is not None:
                return h
    return None


def materialize(density: Density, h: float, radius: float) -> GridDensity:
    """Sample any density onto a centered grid of its own domain."""
    dim = density.domain.dim
    count = max(int(math.ceil(2.0 * radius / h)), 1)
    lo = np.full(dim, -0.5 * count * h)
    axes = [lo[j] + (np.arange(count) + 0.5) * h for j in range(dim)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    vals = density.value(pts).reshape([count] * dim)
    return GridDensity(density.domain, lo, h, vals)


def in_frame(density: Density, domain: Subspace) -> Density:
    """density written in the frame of domain, a frame of the same span,
    looking through a one-factor factorized wrapper.  A Gaussian carries
    over as R^T A R, R^T b for the change of frame R: exactly when R is a
    signed permutation, otherwise to rounding.  A 1-D grid carries over
    exactly (reversed on the negated line); a grid in a rotated frame comes
    back as it is."""
    inner, R = _unwrapped(density, domain)
    if R is None:
        return inner
    if isinstance(inner, GaussianDensity):
        return GaussianDensity(domain, *_gaussian_in_frame(inner, R))
    if isinstance(inner, GridDensity) and domain.dim == 1:
        return GridDensity(domain, -inner.hi, inner.h, inner.values[::-1])
    return density


def _unwrapped(density: Density, domain: Subspace) -> tuple:
    """The density under a one-factor factorized wrapper (or density
    itself), and the change of frame R from domain to its frame: the
    point z of domain is R z in its frame.  R is None when the frames
    agree to 1e-12, as a frame always agrees with itself."""
    inner = density
    if isinstance(density, FactorizedDensity) and len(density.factors) == 1:
        inner = density.factors[0][1]
    if inner.domain is domain:
        return inner, None
    R = inner.domain.frame @ domain.basis
    return inner, (None if np.abs(R - np.eye(domain.dim)).max() < 1e-12 else R)


def _gaussian_in_frame(g: GaussianDensity, R: np.ndarray) -> tuple:
    """(A, b, theta) of the Gaussian g read through the change of frame R:
    R^T A R symmetrized as the GaussianDensity constructor does, R^T b and
    theta, with no density built."""
    M = R.T @ g.A @ R
    return 0.5 * M + 0.5 * M.T, R.T @ g.b, g.theta


def _direct_convolution(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The full discrete convolution of two arrays of one rank, by direct
    summation: np.convolve on lines, otherwise one shifted copy of the
    larger array added per cell of the smaller.  Each output sums its
    products in the order of a's cells, as scipy.signal.convolve's direct
    method does, so the values are that method's."""
    if a.ndim == 1:
        return np.convolve(a, b)
    out = np.zeros(tuple(m + k - 1 for m, k in zip(a.shape, b.shape)))
    if a.size <= b.size:
        cells, small, large = np.ndindex(a.shape), a, b
    else:  # the same order, read from b's side
        cells, small, large = reversed(list(np.ndindex(b.shape))), b, a
    for idx in cells:
        out[tuple(slice(i, i + m) for i, m in zip(idx, large.shape))] += small[idx] * large
    return out


def convolve_density(f: Density, g: Density) -> Density:
    """Convolution on a common domain; mass multiplies.

    Gaussian with Gaussian stays closed form (means add, covariances
    add); anything involving a grid is convolved by direct summation on
    a shared cell size.
    """
    if not equal(f.domain, g.domain):
        raise InputError("convolution needs densities on the same subspace")
    f = in_frame(f, f.domain)
    g = in_frame(g, f.domain)
    if isinstance(f, GaussianDensity) and isinstance(g, GaussianDensity):
        mf, muf, Sf = f.moments()
        mg, mug, Sg = g.moments()
        Sh = Sf + Sg
        Ah = np.linalg.inv(Sh) / 2.0
        bh = 2.0 * (muf + mug)
        mass = mf * mg
        base = GaussianDensity(f.domain, Ah, bh, 1.0)
        return base.scaled(mass / base.integral())

    h = _find_h(f) or _find_h(g)
    if h is None:
        raise InputError("convolution of non-grid densities needs a grid operand")
    hf, hg = _find_h(f), _find_h(g)
    if hf is not None and hg is not None and abs(hf - hg) > 1e-12:
        raise InputError("grid operands must share the same cell size")
    fa = f if isinstance(f, GridDensity) else materialize(f, h, _suggest_radius(f))
    ga = g if isinstance(g, GridDensity) else materialize(g, h, _suggest_radius(g))
    if np.abs(fa.domain.frame - ga.domain.frame).max() > 1e-12:  # cells would pair up wrongly
        raise InputError("grid convolution needs both operands in one frame")
    vals = _direct_convolution(fa.values, ga.values) * h ** fa.domain.dim
    lo = fa.lo + ga.lo + 0.5 * h
    return GridDensity(fa.domain, lo, h, np.clip(vals, 0.0, None))
