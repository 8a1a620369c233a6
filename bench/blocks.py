"""Data built block by block, with the structure each block is known to have.

Only numpy is used here, so the cold-CLI workload can write its inputs
without importing blgeo.  A block is built in its own coordinates; a
direct sum places the blocks side by side and turns the whole by a
random rotation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

import oracles as O


@dataclass
class Block:
    """One orthogonal block of a datum, as it was built (local coordinates)."""

    kind: str
    dim: int
    frames: list          # per entry, rows in the block's coordinates
    weights: list
    independent: bool
    piece_dims: list      # dims of the finest critical decomposition inside it
    unique: bool          # that decomposition is the block itself, one piece
    phi_pieces: list      # frames of a critical decomposition of the block
    classes: list         # rank-one classes as (local entry, row) pairs


def axis_block() -> Block:
    one = np.eye(1)
    return Block("axis", 1, [one], [1.0], True, [1], True, [one], [[(0, 0)]])


def holder_block(dim: int, weights) -> Block:
    eye = np.eye(dim)
    p = len(weights)
    return Block("holder", dim, [eye] * p, list(weights), True, [1] * dim, dim == 1,
                 [eye], [[(j, a) for j in range(p)] for a in range(dim)])


def lines_block(m: int, phase: float) -> Block:
    frames = [np.array([[math.cos(phase + math.pi * j / m), math.sin(phase + math.pi * j / m)]])
              for j in range(m)]
    return Block("lines", 2, frames, [2.0 / m] * m, False, [2], True, [np.eye(2)],
                 [[(j, 0) for j in range(m)]])


def paired_block(m: int, phase: float, reframe_rng=None) -> Block:
    """Paired planes; with `reframe_rng` each frame is rotated inside its E_i."""
    frames = []
    for j in range(m):
        a = phase + math.pi * j / m
        F = np.array([[math.cos(a), math.sin(a), 0.0, 0.0],
                      [0.0, 0.0, math.cos(a), math.sin(a)]])
        if reframe_rng is not None:
            F = O.random_rotation(reframe_rng, 2) @ F
        frames.append(F)
    if reframe_rng is None:
        classes = [[(j, 0) for j in range(m)], [(j, 1) for j in range(m)]]
    else:
        classes = [[(j, r) for j in range(m) for r in (0, 1)]]
    eye = np.eye(4)
    return Block("reframed" if reframe_rng is not None else "paired", 4, frames,
                 [2.0 / m] * m, False, [2, 2], False, [eye[:2], eye[2:]], classes)


def make_block(spec, rng) -> Block:
    kind = spec[0]
    if kind == "axis":
        return axis_block()
    if kind == "holder":
        w = rng.uniform(0.2, 1.0, spec[2])
        return holder_block(spec[1], w / w.sum())
    if kind == "lines":
        return lines_block(spec[1], rng.uniform(0.0, math.pi))
    if kind == "paired":
        return paired_block(spec[1], rng.uniform(0.0, math.pi))
    return paired_block(spec[1], rng.uniform(0.0, math.pi), reframe_rng=rng)


@dataclass
class Layout:
    """A rotated direct sum of blocks, with what each block says about it."""

    n: int
    frames: list            # per entry, orthonormal rows in R^n
    weights: list
    classes: set            # rank-one classes: frozensets of expansion indices
    independent: list       # (P_F, owners) of the independent blocks
    dependent_rows: list    # spans of the dependent blocks
    block_info: list        # (P_block, piece dims, decomposition unique)
    phi_pieces: list        # frames of a critical decomposition of R^n
    spans: list             # per block, its frame in R^n


def direct_sum(blocks, rng) -> Layout:
    n = sum(b.dim for b in blocks)
    Q = O.random_rotation(rng, n)
    lay = Layout(n, [], [], set(), [], [], [], [], [])
    off, row0 = 0, 0
    for b in blocks:
        embed = np.zeros((b.dim, n))
        embed[:, off:off + b.dim] = np.eye(b.dim)
        span = embed @ Q.T
        first_entry = len(lay.frames)
        starts = []
        for F, c in zip(b.frames, b.weights):
            starts.append(row0)
            lay.frames.append(F @ span)
            lay.weights.append(float(c))
            row0 += F.shape[0]
        lay.classes.update(frozenset(starts[j] + r for j, r in cls) for cls in b.classes)
        P = O.proj(span)
        entries = tuple(range(first_entry, len(lay.frames)))
        if b.independent:
            lay.independent.append((P, entries))
        else:
            lay.dependent_rows.append(span)
        lay.block_info.append((P, list(b.piece_dims), b.unique))
        lay.phi_pieces.extend(piece @ span for piece in b.phi_pieces)
        lay.spans.append(span)
        off += b.dim
    return lay
