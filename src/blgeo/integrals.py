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
and no slack is needed.  The output cells x free tuples table is taken
in tiles of SUPCONV_TILE candidates, joined by a running maximum; memory
grows with the cells and the tuples, and the work with their product,
all capped before any grid array is built.  The sup is taken in log
space so products of powers cannot underflow.  A Gaussian block's log
is a quadratic, so it enters a tile as a row term, a column term and a
cross term of one multiply-add per frame coordinate; other densities
are evaluated per candidate.  Reported errors combine a cell-variation
(inner/outer Riemann) bound with the mass each input loses to truncation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .datum import GeometricBLDatum, require_validated
from .determinantal import (_fiber_operator, _log_sides, _safe_exp, determinantal_high_check,
                            require_spd)
from .errors import CapError, InputError, InternalError, as_array, field_of, read
from .structure import StructureReport, critical_meet, has_critical_eigenspaces
from .subspace import Subspace, contains, equal

SUPCONV_MAX_AMBIENT = 3
SUPCONV_MAX_CELLS = 1 << 22  # output cells M, and free tuples T (a grid axis per free coordinate)
SUPCONV_MAX_CANDIDATES = 1 << 30  # M x T: about 6 s for five Gaussians in R
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
            require_spd(A, "gaussian matrix")
        if not (theta > 0.0 and np.isfinite(theta)):
            raise InputError("gaussian scale theta must be positive")
        b = np.zeros(d) if b is None else as_array(b, (d,), "gaussian centre b")
        if not np.all(np.isfinite(b)):
            raise InputError("gaussian centre b must be finite")
        self.domain = domain
        self.A = 0.5 * (A + A.T)
        self.b = b
        self.theta = float(theta)
        try:
            mass = self.integral()
        except OverflowError:
            mass = math.inf
        if not math.isfinite(mass):
            raise InputError("gaussian centre b is too far out: the mass "
                             "theta exp(<A b, b> / 4) sqrt(pi^d / det A) overflows a double")

    def integral(self) -> float:
        d = self.domain.dim
        if d == 0:
            return self.theta
        sign, logdet = np.linalg.slogdet(self.A)
        quad = float(self.b @ self.A @ self.b) / 4.0
        return self.theta * math.exp(quad + 0.5 * d * math.log(math.pi) - 0.5 * logdet)

    def value(self, Z) -> np.ndarray:
        return np.exp(self.log_value(Z))

    def log_value(self, Z) -> np.ndarray:
        Z = np.atleast_2d(np.asarray(Z, dtype=float))
        return math.log(self.theta) + ((self.b - Z) @ self.A * Z).sum(axis=1)

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
            raise InputError("grid values are too large: the mass sum(values) h^d overflows a double")

    @property
    def hi(self) -> np.ndarray:
        return self.lo + self.h * np.array(self.values.shape)

    def integral(self) -> float:
        return float(self.values.sum()) * self.h ** self.domain.dim

    def value(self, Z) -> np.ndarray:
        Z = np.atleast_2d(np.asarray(Z, dtype=float))
        idx = np.floor((Z - self.lo) / self.h).astype(int)
        inside = np.all((idx >= 0) & (idx < np.array(self.values.shape)), axis=1)
        out = np.zeros(Z.shape[0])
        if inside.any():
            sel = idx[inside]
            out[inside] = self.values[tuple(sel.T)]
        return out

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
    """A "barthe" result with lhs < rhs (1 - max(est_error, 1e-9)) is refused; a "bl"
    result comes from a determinantal check, whose refusal bounds its ratio by 1 + 1e-9."""

    lhs: float
    rhs: float
    ratio: float
    direction: str   # "bl" or "barthe"
    method: str      # "closed_form" or "grid"
    est_error: float  # relative error budget

    def __post_init__(self):
        if self.direction == "barthe" and self.lhs < self.rhs * (1.0 - max(self.est_error, 1e-9)):
            raise InternalError(f"Barthe inequality violated beyond the error budget: "
                                f"lhs {self.lhs:.12g} < rhs {self.rhs:.12g}")


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid: cells of side h covering [-radius, radius] per axis."""

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
    return _closed_form(-0.5 * check.log_lhs, -0.5 * check.log_rhs, "bl")


def _closed_form(log_lhs: float, log_rhs: float, direction: str) -> IneqEvaluation:
    """A side that overflows a double is inf, which the report refuses."""
    return IneqEvaluation(_safe_exp(log_lhs), _safe_exp(log_rhs), _safe_exp(log_lhs - log_rhs),
                          direction, "closed_form", 0.0)


def gaussian_barthe_eval(d: GeometricBLDatum, Phi) -> IneqEvaluation:
    """Barthe's two sides for the Gaussian family e^{-c_i |Phi x_i|^2}.

    The fiber formula of blgeo.determinantal with A_i = F_i^T Phi^2 F_i:
    the sides are pi^(n/2) exp(log_lhs / 2) and pi^(n/2) exp(log_rhs / 2)
    for the two sides log det Q^-1 and sum c_i log det A_i^-1 of the
    determinantal inequality of the A_i^-1.  Phi must have critical
    eigenspaces; then Q = Phi^2 and the ratio is 1 up to rounding.  The
    equality certificate is not consulted: on Phi^-2 it would magnify the
    rounding of a Phi typed to a few digits by about cond(Phi)^2.
    """
    Phi, inverses, Q_inv = _fiber_operator(d, Phi)
    if not has_critical_eigenspaces(d, Phi):
        raise InputError("the eigenspaces of Phi must be critical subspaces")
    log_lhs, log_rhs = _log_sides(d, Q_inv, inverses)
    log_pi = 0.5 * d.ambient_dim * math.log(math.pi)
    return _closed_form(log_pi + 0.5 * log_lhs, log_pi + 0.5 * log_rhs, "barthe")


def _cartesian_centers(spec: GridSpec, dim: int) -> np.ndarray:
    axes = [spec.centers()] * dim
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def _pivot_columns(C: np.ndarray) -> np.ndarray:
    """The columns column-pivoted QR picks for a full-row-rank C: each time
    the largest residual norm, ties to the first; returned in order."""
    R, picked = np.array(C, dtype=float), []
    for _ in range(R.shape[0]):
        j = int(np.argmax((R * R).sum(axis=0)))
        R -= np.outer(R[:, j], R[:, j] @ R) / (R[:, j] @ R[:, j])
        picked.append(j)
    return np.sort(picked)


def supconv_eval(d: GeometricBLDatum, densities, grid: GridSpec) -> IneqEvaluation:
    """Grid evaluation of Barthe's supremum side against the product side.

    F(x) = sup { prod f_i(x_i)^{c_i} : x = sum c_i x_i, x_i in E_i } is a
    maximum over the fiber {y : C y = x}, where y stacks the frame
    coordinates of all blocks and C = [c_1 F_1^T ... c_k F_k^T] is n x D.
    Column-pivoted QR of C picks n solved coordinates; the other D - n
    (free) coordinates run over the grid, blocks that are wholly free
    only over their cells of positive mass.  The solved coordinates are
    computed exactly, C_P^{-1} (x - C_Q y_Q), so every candidate lies on
    the fiber and F is never overestimated at a grid point.  The M x T
    table of output cells by free tuples is evaluated in tiles of at most
    SUPCONV_TILE candidates: blocks of rows and, when T exceeds the tile,
    column slabs joined by a running per-row maximum.  A solved block
    whose density is Gaussian (alone or as the one factor of a
    factorized density), f(z) = theta exp(-<A z, z - b>) at z = u - v
    with u = K x per row and v = N y_Q per column, splits as
        c log f = c (log theta + <A b, u> - <A u, u>)    row term
                - c (<A b, v> + <A v, v>)                column term, into L
                + 2c <A u, v>                            cross term,
    so a tile costs it one broadcast multiply-add per frame coordinate,
    summed in a fixed order, and the row term is added after the
    per-row maximum.  Other densities are evaluated per candidate.  F is
    integrated by the midpoint rule; the product side uses the same
    grid quadrature per factor.
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
    for (E, _), f in zip(d.entries, densities):
        if not equal(E, f.domain):
            raise InputError("density domains must match the datum subspaces")

    h = grid.h
    weights = [c for _, c in d.entries]
    dims = [f.domain.dim for f in densities]

    # per-entry grids in each density's own frame coordinates
    pts = [_cartesian_centers(grid, m) for m in dims]
    quads = [float(f.value(p).sum()) * h ** m for f, p, m in zip(densities, pts, dims)]
    if any(q <= 0.0 for q in quads):
        raise InputError("a density has zero mass on the declared box")

    C = np.hstack([c * f.domain.basis for c, f in zip(weights, densities)])
    D, starts = C.shape[1], np.cumsum([0] + dims)
    solved = _pivot_columns(C)
    free = np.setdiff1d(np.arange(D), solved)

    # enumerate the free coordinates Y; L sums c_i log f_i over wholly free blocks
    Y = np.zeros((1, 0))
    L = np.zeros(1)
    for i, f in enumerate(densities):
        own = free[(free >= starts[i]) & (free < starts[i + 1])]
        if own.size == 0:
            continue
        if own.size == dims[i]:
            logs = f.log_value(pts[i])
            keep = np.isfinite(logs)
            block, piece = pts[i][keep], weights[i] * logs[keep]
        else:
            block = _cartesian_centers(grid, own.size)
            piece = np.zeros(block.shape[0])
        Y = np.hstack([np.repeat(Y, block.shape[0], axis=0), np.tile(block, (Y.shape[0], 1))])
        L = (L[:, None] + piece[None, :]).reshape(-1)

    # the fiber point over x with free part y_Q is y = K x - N y_Q
    inv = np.linalg.inv(C[:, solved])
    K = np.zeros((D, n))
    K[solved] = inv
    N = np.zeros((D, free.size))
    N[solved] = inv @ C[:, free]
    N[free] = -np.eye(free.size)
    X = _cartesian_centers(grid, n)
    XK, YN = X @ K.T, Y @ N.T
    blocks = [i for i in range(d.k) if K[starts[i]:starts[i + 1]].any()]
    M, T = X.shape[0], Y.shape[0]

    # Gaussian blocks: row term into R, column term into L, cross term (U, W),
    # W = v^T so that each coordinate streams contiguously; None marks a block
    # evaluated per candidate
    R, cross = np.zeros(M), []
    for i in blocks:
        cols, c = slice(starts[i], starts[i + 1]), weights[i]
        g = in_frame(densities[i], densities[i].domain)
        if not isinstance(g, GaussianDensity):
            cross.append(None)
            continue
        u, v, Ab = XK[:, cols], YN[:, cols], g.A @ g.b
        R += c * (math.log(g.theta) + u @ Ab - (u @ g.A * u).sum(axis=1))
        L = L - c * (v @ Ab + (v @ g.A * v).sum(axis=1))
        cross.append((2.0 * c * (u @ g.A), np.ascontiguousarray(v.T)))

    F = np.zeros(M)
    rows, width = max(1, SUPCONV_TILE // T), min(T, SUPCONV_TILE)
    for a in range(0, M, rows):
        best = np.full(min(rows, M - a), -np.inf)
        for b in range(0, T, width):
            total = L[b:b + width]
            for i, term in zip(blocks, cross):
                if term is not None:
                    U, W = term  # coordinate by coordinate: no BLAS, so no tile-dependent sums
                    for j in range(dims[i]):
                        total = total + U[a:a + rows, j, None] * W[j, None, b:b + width]
                    continue
                cols = slice(starts[i], starts[i + 1])
                yi = XK[a:a + rows, None, cols] - YN[None, b:b + width, cols]
                logs = densities[i].log_value(yi.reshape(-1, dims[i])).reshape(yi.shape[:2])
                total = total + weights[i] * logs
            best = np.maximum(best, total.max(axis=1))
        F[a:a + rows] = np.where(np.isfinite(best), np.exp(best + R[a:a + rows]), 0.0)

    lhs = float(F.sum()) * h ** n

    log_rhs = sum(c * math.log(q) for c, q in zip(weights, quads))
    rhs = math.exp(log_rhs)

    # error budget: inner/outer cell variation of F plus input truncation
    Fg = F.reshape([grid.count] * n)
    outer = _filter3(Fg, np.maximum)
    inner = _filter3(Fg, np.minimum)
    quad_abs = 0.5 * float((outer - inner).sum()) * h ** n
    tail_rel = 0.0
    for c, f, q in zip(weights, densities, quads):
        exact = f.integral()
        if exact > 0.0:
            tail_rel += c * abs(1.0 - q / exact)
    denom = max(min(lhs, rhs), 1e-300)
    est = quad_abs / denom + tail_rel
    return IneqEvaluation(lhs=lhs, rhs=rhs, ratio=lhs / rhs, direction="barthe",
                          method="grid", est_error=float(est))


def _filter3(a: np.ndarray, op) -> np.ndarray:
    """np.maximum or np.minimum over each 3^n block: scipy.ndimage's size-3 'nearest' filter."""
    for axis in range(a.ndim):
        p = np.pad(a, [(1, 1) if i == axis else (0, 0) for i in range(a.ndim)], mode="edge")
        m, head = a.shape[axis], (slice(None),) * axis
        a = op(op(p[head + (slice(0, m),)], p[head + (slice(1, m + 1),)]), p[head + (slice(2, m + 2),)])
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

    A_amb = None
    if dep.dim > 0:
        if params.A is None:
            raise InputError("the dependent subspace is non-zero: a matrix A is required")
        A = np.asarray(params.A, dtype=float).reshape(dep.dim, dep.dim)
        require_spd(A, "A")
        # A_amb has the eigenspaces of A and its kernel F_dep-perp, critical as F_dep is
        A_amb = dep.basis @ A @ dep.frame
        if not has_critical_eigenspaces(d, A_amb):
            raise InputError("the eigenspaces of A must be critical subspaces")

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
        S0 = critical_meet(E, dep)
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
    over exactly (R^T A R, R^T b for the change of frame R), and so does
    a 1-D grid (reversed on the negated line); a grid in a rotated frame
    comes back as it is."""
    inner = density
    if isinstance(density, FactorizedDensity) and len(density.factors) == 1:
        inner = density.factors[0][1]
    R = inner.domain.frame @ domain.basis  # the point z of domain is R z in inner's frame
    if np.abs(R - np.eye(domain.dim)).max() < 1e-12:
        return inner
    if isinstance(inner, GaussianDensity):
        return GaussianDensity(domain, R.T @ inner.A @ R, R.T @ inner.b, inner.theta)
    if isinstance(inner, GridDensity) and domain.dim == 1:
        return GridDensity(domain, -inner.hi, inner.h, inner.values[::-1])
    return density


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
    from scipy.signal import convolve  # lazy, for a fast cold start
    vals = convolve(fa.values, ga.values, method="direct") * h ** fa.domain.dim
    lo = fa.lo + ga.lo + 0.5 * h
    return GridDensity(fa.domain, lo, h, np.clip(vals, 0.0, None))
