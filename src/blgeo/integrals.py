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
powers cannot underflow.  Reported errors combine a cell-variation
(inner/outer Riemann) bound with the mass each input loses to
truncation.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np
from scipy.ndimage import maximum_filter, minimum_filter

from .datum import GeometricBLDatum, require_validated
from .determinantal import cluster_eigenspaces, determinantal_high_check, require_spd
from .errors import CapError, InputError, InternalError
from .structure import StructureReport, is_critical
from .subspace import DEFAULT_TOL, Subspace, Tolerance, equal, intersect, orthonormalize

SUPCONV_MAX_AMBIENT = 3
SUPCONV_MAX_ENTRIES = 4
SUPCONV_MAX_COMBOS = 4_000_000


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
    def from_json(obj: dict, tol: Tolerance = DEFAULT_TOL) -> "Density":
        try:
            kind = obj["kind"]
            domain = Subspace.from_json(obj["domain"], tol)
            if kind == "gaussian":
                return GaussianDensity(domain, np.asarray(obj["A"], dtype=float),
                                       np.asarray(obj.get("b", np.zeros(domain.dim)), dtype=float),
                                       float(obj.get("theta", 1.0)))
            if kind == "grid":
                return GridDensity(domain, np.asarray(obj["lo"], dtype=float),
                                   float(obj["h"]), np.asarray(obj["values"], dtype=float))
            if kind == "factorized":
                return FactorizedDensity(domain, tuple(
                    (Subspace.from_json(f["subspace"], tol), Density.from_json(f["density"], tol))
                    for f in obj["factors"]))
        except (KeyError, TypeError) as exc:
            raise InputError(f"density JSON lacks a field or has a mistyped one: {exc}") from exc
        raise InputError(f"unknown density kind {kind!r}")


class GaussianDensity(Density):
    """f(z) = theta * exp(-<A z, z - b>) with A positive definite."""

    def __init__(self, domain: Subspace, A, b=None, theta: float = 1.0):
        d = domain.dim
        A = np.asarray(A, dtype=float).reshape(d, d)
        if d:
            require_spd(A, "gaussian matrix")
        if not (theta > 0.0 and np.isfinite(theta)):
            raise InputError("gaussian scale theta must be positive")
        self.domain = domain
        self.A = 0.5 * (A + A.T)
        self.b = np.zeros(d) if b is None else np.asarray(b, dtype=float).reshape(d)
        self.theta = float(theta)

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
        values = np.asarray(values, dtype=float)
        if values.ndim != d:
            raise InputError(f"values must be a {d}-dimensional array")
        if not np.all(np.isfinite(values)) or np.any(values < 0.0):
            raise InputError("grid values must be finite and nonnegative")
        if not (h > 0.0):
            raise InputError("cell size must be positive")
        self.domain = domain
        self.lo = np.asarray(lo, dtype=float).reshape(d)
        self.h = float(h)
        self.values = values

    @property
    def hi(self) -> np.ndarray:
        return self.lo + self.h * np.array(self.values.shape)

    def centers(self, axis: int) -> np.ndarray:
        return self.lo[axis] + (np.arange(self.values.shape[axis]) + 0.5) * self.h

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
            total += S.dim
        if total != domain.dim:
            raise InputError("factor subspaces must span the domain")
        for a in range(len(factors)):
            for b in range(a + 1, len(factors)):
                if np.abs(factors[a][0].frame @ factors[b][0].frame.T).max() > 1e-9:
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
    lhs: float
    rhs: float
    ratio: float
    direction: str   # "bl" or "barthe"
    method: str      # "closed_form" or "grid"
    est_error: float  # relative error budget

    def to_json(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid: cells of side h covering [-radius, radius] per axis."""

    h: float
    radius: float

    def __post_init__(self):
        if not (self.h > 0.0 and self.radius > self.h):
            raise InputError("grid needs 0 < h < radius")

    @property
    def count(self) -> int:
        return int(round(2.0 * self.radius / self.h))

    def centers(self) -> np.ndarray:
        return -self.radius + (np.arange(self.count) + 0.5) * self.h

    @staticmethod
    def parse(text: str) -> "GridSpec":
        """Parse 'h=0.05,box=±4' (a plain number also works for box)."""
        h = radius = None
        for part in text.split(","):
            key, _, val = part.partition("=")
            val = val.replace("±", "").replace("+-", "").strip()
            if key.strip() == "h":
                h = float(val)
            elif key.strip() == "box":
                radius = float(val)
        if h is None or radius is None:
            raise InputError(f"grid spec must look like 'h=0.05,box=±4', got {text!r}")
        return GridSpec(h, radius)


def gaussian_bl_eval(d: GeometricBLDatum, A_list, tol: Tolerance = DEFAULT_TOL) -> IneqEvaluation:
    """Both Brascamp-Lieb sides for f_i(z) = exp(-pi <A_i z, z>), closed form.

    lhs = det(sum c_i A_i P_{E_i})^{-1/2} and rhs = prod (det A_i)^{-c_i/2},
    so ratio <= 1 is the determinantal inequality in disguise, with
    equality exactly on its certificates.
    """
    return bl_eval_from_check(determinantal_high_check(d, A_list, tol))


def bl_eval_from_check(check) -> IneqEvaluation:
    """The Brascamp-Lieb sides read off a determinantal check of the same A_i."""
    return _closed_form(-0.5 * check.log_lhs, -0.5 * check.log_rhs, "bl")


def _closed_form(log_lhs: float, log_rhs: float, direction: str) -> IneqEvaluation:
    return IneqEvaluation(math.exp(log_lhs), math.exp(log_rhs), math.exp(log_lhs - log_rhs),
                          direction, "closed_form", 0.0)


def gaussian_barthe_eval(d: GeometricBLDatum, Phi, tol: Tolerance = DEFAULT_TOL) -> IneqEvaluation:
    """Barthe's two sides for the Gaussian family e^{-c_i |Phi x_i|^2}.

    Requires the eigenspaces of Phi to be critical; then the supremum
    side collapses to integral of e^{-|Phi x|^2} and both sides are
    elementary Gaussian integrals whose ratio is 1 up to rounding.
    """
    require_validated(d)
    Phi = np.asarray(Phi, dtype=float)
    n = d.ambient_dim
    if Phi.shape != (n, n):
        raise InputError(f"Phi must be {n} x {n}")
    require_spd(Phi, "Phi")
    _, spaces = cluster_eigenspaces(Phi)
    for V in spaces:
        if not is_critical(d, V, tol).is_critical:
            raise InputError("the eigenspaces of Phi must be critical subspaces")
    sign, logdet = np.linalg.slogdet(Phi)
    log_lhs = 0.5 * n * math.log(math.pi) - float(logdet)
    log_rhs = 0.0
    for E, c in d.entries:
        R = E.basis.T @ Phi @ E.basis
        if np.abs(Phi @ E.basis - E.basis @ R).max() > 1e-7 * max(1.0, np.abs(Phi).max()):
            raise InternalError("Phi does not leave an entry invariant despite criticality")
        s, ld = np.linalg.slogdet(R)
        log_rhs += c * (0.5 * E.dim * math.log(math.pi) - float(ld))
    return _closed_form(log_lhs, log_rhs, "barthe")


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


def supconv_eval(d: GeometricBLDatum, densities, grid: GridSpec,
                 tol: Tolerance = DEFAULT_TOL) -> IneqEvaluation:
    """Grid evaluation of Barthe's supremum side against the product side.

    F(x) = sup { prod f_i(x_i)^{c_i} : x = sum c_i x_i, x_i in E_i } is a
    maximum over the fiber {y : C y = x}, where y stacks the frame
    coordinates of all blocks and C = [c_1 F_1^T ... c_k F_k^T] is n x D.
    Column-pivoted QR of C picks n solved coordinates; the other D - n
    (free) coordinates run over the grid, blocks that are wholly free
    only over their cells of positive mass.  The solved coordinates are
    computed exactly, C_P^{-1} (x - C_Q y_Q), so every candidate lies on
    the fiber and F is never overestimated at a grid point.  F is
    integrated by the midpoint rule; the product side uses the same
    grid quadrature per factor.
    """
    require_validated(d)
    n = d.ambient_dim
    if n > SUPCONV_MAX_AMBIENT:
        raise CapError("supconv ambient dimension", SUPCONV_MAX_AMBIENT, n)
    if d.k > SUPCONV_MAX_ENTRIES:
        raise CapError("supconv entries", SUPCONV_MAX_ENTRIES, d.k)
    densities = list(densities)
    if len(densities) != d.k:
        raise InputError(f"need one density per entry: expected {d.k}, got {len(densities)}")
    for (E, _), f in zip(d.entries, densities):
        if not equal(E, f.domain, tol):
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
        if Y.shape[0] * block.shape[0] > SUPCONV_MAX_COMBOS:
            raise CapError("supconv enumeration", SUPCONV_MAX_COMBOS,
                           Y.shape[0] * block.shape[0])
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
    F = np.zeros(M)
    chunk = max(1, min(M, SUPCONV_MAX_COMBOS // T))
    for a in range(0, M, chunk):
        total = L
        for i in blocks:
            cols = slice(starts[i], starts[i + 1])
            yi = XK[a:a + chunk, None, cols] - YN[None, :, cols]
            logs = densities[i].log_value(yi.reshape(-1, dims[i])).reshape(yi.shape[:2])
            total = total + weights[i] * logs
        best = total.max(axis=1)
        F[a:a + chunk] = np.where(np.isfinite(best), np.exp(best), 0.0)

    lhs = float(F.sum()) * h ** n

    log_rhs = sum(c * math.log(q) for c, q in zip(weights, quads))
    rhs = math.exp(log_rhs)

    # error budget: inner/outer cell variation of F plus input truncation
    Fg = F.reshape([grid.count] * n)
    outer = maximum_filter(Fg, size=3, mode="nearest")
    inner = minimum_filter(Fg, size=3, mode="nearest")
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


# ---------------------------------------------------------------------------
# extremizers
# ---------------------------------------------------------------------------

def is_log_concave(density: Density, rtol: float = 1e-9) -> bool:
    """Verify log-concavity where we can decide it.

    Gaussians always are; factorized densities are when every factor is;
    a one-dimensional grid is checked by midpoint concavity of the logs
    and contiguity of the support.  Multi-dimensional grids are refused
    (raise) rather than guessed.
    """
    if isinstance(density, GaussianDensity):
        return True
    if isinstance(density, FactorizedDensity):
        return all(is_log_concave(g, rtol) for _, g in density.factors)
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
        return bool(np.all(w[1:-1] ** 2 >= w[:-2] * w[2:] * (1.0 - rtol)))
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
                     params: ExtremizerParams, tol: Tolerance = DEFAULT_TOL) -> list:
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
        if not equal(hj.domain, f_j.subspace, tol):
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
        vals, sub = cluster_eigenspaces(A)
        for V in sub:  # eigenspaces within F_dep, embedded back to R^n
            emb = orthonormalize((dep.basis @ V.basis).T, tol, ambient_dim=n)
            if not is_critical(d, emb, tol).is_critical:
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
        S0 = intersect(E, dep, tol)
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


def _unwrap(density: Density) -> Density:
    """Strip a single-factor factorized wrapper when frames agree."""
    if isinstance(density, FactorizedDensity) and len(density.factors) == 1:
        _, g = density.factors[0]
        if np.abs(g.domain.frame - density.domain.frame).max() < 1e-12:
            return g
    return density


def convolve_density(f: Density, g: Density, tol: Tolerance = DEFAULT_TOL) -> Density:
    """Convolution on a common domain; mass multiplies.

    Gaussian with Gaussian stays closed form (means add, covariances
    add); anything involving a grid is convolved by direct summation on
    a shared cell size.
    """
    if not equal(f.domain, g.domain, tol):
        raise InputError("convolution needs densities on the same subspace")
    f = _unwrap(f)
    g = _unwrap(g)
    if isinstance(f, GaussianDensity) and isinstance(g, GaussianDensity):
        if np.abs(f.domain.frame - g.domain.frame).max() > 1e-12:
            R = g.domain.frame @ f.domain.basis  # change of frame inside the same span
            g = GaussianDensity(f.domain, R.T @ g.A @ R, R.T @ g.b, g.theta)
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
    dim = fa.domain.dim
    if dim == 1:
        vals = np.convolve(fa.values, ga.values) * h
    else:
        from scipy.signal import convolve as nd_convolve
        vals = nd_convolve(fa.values, ga.values, method="direct") * h ** dim
    lo = fa.lo + ga.lo + 0.5 * h
    return GridDensity(fa.domain, lo, h, np.clip(vals, 0.0, None))
