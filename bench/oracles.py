"""Reference computations the benchmark checks blgeo against.

Nothing here calls blgeo.  Every value comes either from how an input
was constructed (block dims, owners, classes) or from a closed form
evaluated with plain numpy (Gaussian suprema, box and cross-polytope
volumes, inverse CDFs by bisection).
"""

from __future__ import annotations

import math
from itertools import product

import numpy as np


def proj(frame: np.ndarray) -> np.ndarray:
    """Orthogonal projection onto the row span of an orthonormal frame."""
    F = np.asarray(frame, dtype=float).reshape(-1, np.shape(frame)[-1])
    return F.T @ F


def same_space(P: np.ndarray, Q: np.ndarray, tol: float = 1e-7) -> bool:
    return float(np.abs(P - Q).max()) <= tol


def inside(P_small: np.ndarray, P_big: np.ndarray, tol: float = 1e-7) -> bool:
    """True when the range of P_small lies in the range of P_big."""
    return float(np.abs(P_big @ P_small - P_small).max()) <= tol


def commutes_with_all(P: np.ndarray, projections, tol: float = 1e-7) -> bool:
    """Criticality through the splitting characterization: P_V commutes with every P_{E_i}."""
    return all(float(np.abs(P @ Q - Q @ P).max()) <= tol for Q in projections)


def random_rotation(rng, n: int) -> np.ndarray:
    Q, R = np.linalg.qr(rng.standard_normal((n, n)))
    return Q * np.sign(np.diag(R))


def random_spd(rng, d: int) -> np.ndarray:
    G = rng.standard_normal((d, d))
    return G @ G.T / d + 0.5 * np.eye(d)


# ---------------------------------------------------------------------------
# determinants and Gaussian integrals
# ---------------------------------------------------------------------------

def frame_operator_logdet(vectors, weights, t) -> float:
    """log det(sum_j c_j t_j u_j u_j^T)."""
    V = np.asarray(vectors, dtype=float)
    M = (V.T * (np.asarray(weights) * np.asarray(t))) @ V
    return float(np.linalg.slogdet(M)[1])


def assembled_logdet(frames, weights, A_list) -> float:
    """log det(sum_i c_i F_i^T A_i F_i)."""
    n = np.shape(frames[0])[1]
    M = np.zeros((n, n))
    for F, c, A in zip(frames, weights, A_list):
        M += c * (F.T @ A @ F)
    return float(np.linalg.slogdet(M)[1])


def barthe_supremum_quadratic(frames, weights, A_list) -> np.ndarray:
    """Q with sup { prod exp(-c_i y_i^T A_i y_i) : sum c_i F_i^T y_i = x } = exp(-x^T Q x).

    Minimizing y^T H y subject to C y = x, with C = [c_i F_i^T] and
    H = blockdiag(c_i A_i), gives the value x^T (C H^-1 C^T)^-1 x.
    """
    blocks = []
    for F, c, A in zip(frames, weights, A_list):
        Fi = np.asarray(F, dtype=float)
        blocks.append(c * c * Fi.T @ np.linalg.inv(c * np.asarray(A, dtype=float)) @ Fi)
    return np.linalg.inv(sum(blocks))


def gaussian_mass(A: np.ndarray) -> float:
    """Integral of exp(-z^T A z) over R^d."""
    A = np.atleast_2d(A)
    return math.pi ** (A.shape[0] / 2.0) / math.sqrt(float(np.linalg.det(A)))


def barthe_gaussian_sides(frames, weights, A_list):
    """Exact (lhs, rhs) of Barthe's inequality for centered Gaussians exp(-z^T A_i z)."""
    Q = barthe_supremum_quadratic(frames, weights, A_list)
    lhs = gaussian_mass(Q)
    rhs = math.prod(gaussian_mass(A) ** c for A, c in zip(A_list, weights))
    return lhs, rhs


# ---------------------------------------------------------------------------
# covers and bodies
# ---------------------------------------------------------------------------

def signature_partition(n: int, sets) -> list:
    """Group the elements of [n] by which sets contain them."""
    groups = {}
    for j in range(1, n + 1):
        sig = tuple(j in s for s in sets)
        groups.setdefault(sig, []).append(j)
    return sorted(groups.values(), key=min)


def box_bt_sides(sides, sets, s: int, minus_corner: bool):
    """Exact |K|^s and prod |P_sigma K| for a box of integer sides, or the
    box without one corner cell (all sides >= 2)."""
    n = len(sides)
    vol = math.prod(sides) - (1 if minus_corner else 0)
    rhs = 1
    for sigma in sets:
        size = math.prod(sides[j - 1] for j in sigma)
        if minus_corner and len(sigma) == n:
            size -= 1
        rhs *= size
    return vol ** s, rhs


def box_cells(sides, minus_corner: bool):
    cells = set(product(*[range(a) for a in sides]))
    if minus_corner:
        cells.discard(tuple(a - 1 for a in sides))
    return cells


def cross_polytope(semi_axes):
    n = len(semi_axes)
    verts = []
    for j, a in enumerate(semi_axes):
        for sign in (1.0, -1.0):
            v = [0.0] * n
            v[j] = sign * a
            verts.append(v)
    return verts


def box_polytope(half_sides):
    return [list(v) for v in product(*[(-a, a) for a in half_sides])]


def cross_volume(semi_axes) -> float:
    return 2.0 ** len(semi_axes) * math.prod(semi_axes) / math.factorial(len(semi_axes))


def dual_bt_sides(kind: str, half, sets, s: int):
    """Exact lhs and rhs of the dual inequality for a cross-polytope or a box."""
    n = len(half)
    if kind == "cross":
        vol = cross_volume(half)
        sections = [cross_volume([half[j - 1] for j in sigma]) for sigma in sets]
    else:
        vol = math.prod(2.0 * a for a in half)
        sections = [math.prod(2.0 * half[j - 1] for j in sigma) for sigma in sets]
    factor = math.prod(math.factorial(len(sigma)) for sigma in sets) / math.factorial(n) ** s
    return vol ** s, factor * math.prod(sections)


# ---------------------------------------------------------------------------
# one-dimensional transport
# ---------------------------------------------------------------------------

def gaussian_cdf(a: float, mean: float, x: float) -> float:
    """CDF at x of the density proportional to exp(-a (x - mean)^2)."""
    return 0.5 * (1.0 + math.erf(math.sqrt(a) * (x - mean)))


def bisect_inverse(cdf, u: float, lo: float, hi: float, steps: int = 80) -> float:
    """Smallest x in [lo, hi] with cdf(x) >= u, by bisection."""
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if cdf(mid) < u:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def grid_cdf(lo: float, h: float, values):
    """Normalized CDF of a piecewise-constant density, as a function of x."""
    values = np.asarray(values, dtype=float)
    edges = lo + h * np.arange(values.size + 1)
    cdf = np.concatenate([[0.0], np.cumsum(values)])
    cdf = cdf / cdf[-1]
    return lambda x: float(np.interp(x, edges, cdf))
