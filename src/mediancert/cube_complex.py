"""Walls of a median graph and normal cube paths across them.

A wall is an equivalence class of edges under the relation
(a,b) ~ (c,d)  iff  d(a,c) + d(b,d) != d(a,d) + d(b,c),
or equally a split {v : d(v,a) < d(v,b)} shared by its edges.  Walls
and their sides are read off the sign codes of median_core; the code
check there is exact (Hamming distance equals graph distance for every
pair), and on a graph that passes it the relation is transitive and
both sides of every wall are convex, so neither needs its own check.

Normal cube paths (Niblo-Reeves) step toward a target across every
wall dual to an edge at the current vertex that still separates it
from the target.  Steps come from the codes, for all vertices at once,
and must span a cube: on a median graph they always do, elsewhere a
step that spans none raises CornerFailure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CornerFailure, NotMedian
from .median_core import (
    MedianGraph,
    VertexSet,
    WallCodes,
    _mask_members,
    _pack_mask,
    _split_keys,
)

# Working-set cap of one block of step_map's wide-step check, in uint64
# words (128 KiB).  A block this small stays in cache, and, being under
# malloc's default mmap threshold, comes from the heap rather than from
# fresh pages on every call.
_STEP_WORDS = 1 << 14


@dataclass(frozen=True)
class Hyperplane:
    """One wall: its dual edge class and the two vertex sides."""

    index: int
    edges: frozenset[tuple[int, int]]
    minus_side: VertexSet
    plus_side: VertexSet

    def side_of(self, v: int) -> int:
        return -1 if v in self.minus_side else 1

    def separates(self, x: int, y: int) -> bool:
        return ((self.minus_side.mask >> x) ^ (self.minus_side.mask >> y)) & 1 == 1


# Cap on one block of _intransitive_pair, in bytes of its bool rows
_PAIR_BYTES = 1 << 22


def _intransitive_pair(g: MedianGraph) -> tuple[int, int]:
    """The first indices (i, j), in row-major order, of two edges that
    the relation joins in two steps but not in one, on a connected
    bipartite graph without sign codes.

    On a bipartite graph, edge f is related to edge e = (a, b) exactly
    when f's ends lie on two sides of e's split {v : d(v, a) < d(v, b)};
    so e's row of the relation depends only on its split up to
    complement, and is computed from the packed splits (m x n/8 bytes), a
    block of rows at a time.  Since the relation is symmetric, j is two
    steps from i when their rows meet.  Row i has such a j outside it
    exactly when some edge related to i has a row that is not inside
    i's, which needs a related edge with another split."""
    n = g.n
    a, b = g.edge_array.T
    keys, first, split = _split_keys(g.dist, g.edge_array)
    step = max(1, _PAIR_BYTES // len(a))

    def rows(edges: np.ndarray) -> np.ndarray:
        side = np.unpackbits(keys[edges], axis=1, count=n, bitorder="little").view(bool)
        return side[:, a] != side[:, b]

    def first_hit(edges: np.ndarray, test) -> int | None:
        """The first of ``edges`` whose row passes ``test``."""
        for lo in range(0, len(edges), step):
            hit = test(rows(edges[lo:lo + step]))
            if hit.any():
                return int(edges[lo + int(hit.argmax())])
        return None

    for lo in range(0, len(first), step):  # each split at its first edge
        block = first[lo:lo + step]
        mixed = (rows(block) & (split != split[block, None])).any(axis=1)
        for i in block[mixed].tolist():
            row = rows([i])[0]
            related = first[np.unique(split[row])]  # one edge per split
            if first_hit(related, lambda r: (r & ~row).any(axis=1)) is not None:
                return i, first_hit(np.flatnonzero(~row), lambda r: (r & row).any(axis=1))
    raise AssertionError("a bipartite graph whose related edges share splits has sign codes")


def _codes(g: MedianGraph) -> WallCodes:
    """The sign codes, or NotMedian naming why there are none: an odd
    cycle, or two edges that the relation joins in two steps but not in
    one (a bipartite graph with a transitive relation is a partial
    cube)."""
    codes = g.wall_codes()
    if codes is not None:
        return codes
    color = g.dist[0] % 2
    odd = np.flatnonzero(color[g.edge_array[:, 0]] == color[g.edge_array[:, 1]])
    if len(odd):
        raise NotMedian("graph has an odd cycle", edge=g.edges[odd[0]])
    i, j = _intransitive_pair(g)
    raise NotMedian("edge relation is not transitive", edges=(g.edges[i], g.edges[j]))


def hyperplanes(g: MedianGraph) -> list[Hyperplane]:
    """All walls, in order of their smallest dual edge; the minus side
    is the side of that edge's smaller endpoint.  Raises NotMedian
    when the graph has no sign codes, naming an odd cycle or an
    intransitive edge pair."""
    if g._hyperplanes is None:
        codes = _codes(g)
        members: list[list[tuple[int, int]]] = [[] for _ in range(codes.count)]
        for e, w in zip(g.edges, codes.edge_wall.tolist()):
            members[w].append(e)
        full = (1 << g.n) - 1
        g._hyperplanes = [
            Hyperplane(index, frozenset(edges), VertexSet(g.n, full & ~mask), VertexSet(g.n, mask))
            for index, (edges, mask) in enumerate(zip(members, map(_pack_mask, codes.sides().T)))
        ]
    return g._hyperplanes


def crosses(h1: Hyperplane, h2: Hyperplane) -> bool:
    """Two walls cross when all four side intersections are inhabited."""
    m1, p1 = h1.minus_side.mask, h1.plus_side.mask
    m2, p2 = h2.minus_side.mask, h2.plus_side.mask
    return bool(m1 & m2 and m1 & p2 and p1 & m2 and p1 & p2)


def crossing_rank(sides: np.ndarray) -> int:
    """Largest family of pairwise-crossing columns of a sign matrix
    (vertices x walls, True on the plus side).  Two walls cross when all
    four quadrants hold a vertex: the plus-plus counts are one matrix
    product, the other three follow from it and the column sums (float32
    counts are exact below 2**24 vertices).  Branch and bound over the
    crossing bitmasks."""
    s = sides.astype(np.float32)
    both = s.T @ s
    plus = s.sum(axis=0)
    only = plus[:, None] - both  # plus side of the row wall, minus side of the column wall
    cross = (both > 0) & (only > 0) & (only.T > 0) & (len(s) - plus[:, None] - only.T > 0)
    adj = [_pack_mask(row) for row in cross]
    best = 0

    def grow(cand: int, size: int) -> None:
        nonlocal best
        if size > best:
            best = size
        while cand:
            if size + cand.bit_count() <= best:
                return
            low = cand & -cand
            v = low.bit_length() - 1
            cand ^= low
            grow(cand & adj[v], size + 1)

    grow((1 << len(adj)) - 1, 0)
    return best


def rank(g: MedianGraph) -> int:
    """Largest pairwise-crossing wall set (= top cube dimension), from
    the sign matrix; NotMedian when there are no codes."""
    if g._rank is None:
        g._rank = crossing_rank(_codes(g).sides())
    return g._rank


def separators(g: MedianGraph, x: int, y: int) -> frozenset[int]:
    """Indices of walls with x and y on opposite sides."""
    return frozenset(h.index for h in hyperplanes(g) if h.separates(x, y))


@dataclass(frozen=True)
class NormalCubePath:
    """Greedy cube path; vertices[i] is reached after i cube steps and
    steps[i] is the wall-index set crossed by step i."""

    source: int
    target: int
    vertices: tuple[int, ...]
    steps: tuple[frozenset[int], ...]

    def __len__(self) -> int:
        return len(self.steps)

    def vertex_after(self, j: int) -> int:
        """Vertex after j steps, held at the target once the path ends."""
        return self.vertices[min(j, len(self.vertices) - 1)]


def step_map(g: MedianGraph, target: int) -> np.ndarray:
    """nxt[v]: the far corner of v's cube step toward ``target``, or -1
    where that step spans no cube; NotMedian when there are no codes.

    The step's bits are inc[v] & (code[v] ^ code[target]), with inc[v]
    the walls dual to v's edges; the corner has those bits of v's code
    flipped.  Two walls of a step always cross: v, its neighbours across
    each and the target fill their four quadrants.  The step spans a
    cube when its interval holds 2^k vertices.  For k <= 2 the corner
    settles that, as v's neighbour across each wall exists; wider steps
    are counted, and 2^k > n cannot fit."""
    if not 0 <= target < g.n:
        raise ValueError(f"vertex {target} out of range 0..{g.n - 1}")
    codes = _codes(g)
    planes = codes.planes
    words, n = planes.shape
    ends = g.edge_array
    wall = codes.edge_wall
    bit = np.left_shift(np.uint64(1), (wall % 64).astype(np.uint64))
    inc = np.zeros_like(planes)
    for end in ends.T:
        np.bitwise_or.at(inc, (wall // 64, end), bit)
    step = inc & (planes ^ planes[:, target, None])
    corner, ok = codes.locate(planes ^ step)
    k = np.bitwise_count(step).sum(axis=0, dtype=np.int64)
    ok &= k < n.bit_length()
    wide = np.flatnonzero(ok & (k >= 3))
    span = max(1, _STEP_WORDS // (n * words))
    for lo in range(0, len(wide), span):
        vs = wide[lo:lo + span]
        outside = (planes[:, vs, None] ^ planes[:, None, :]) & ~step[:, vs, None]
        ok[vs] &= (outside == 0).all(axis=0).sum(axis=1) == 1 << k[vs]
    return np.where(ok, corner, -1)


def _no_cube(v: int, target: int) -> CornerFailure:
    """The error for a cube step at v toward target that spans no cube."""
    return CornerFailure(
        f"the cube step at vertex {v} toward {target} spans no cube",
        vertex=v, target=target,
    )


def normal_cube_path(g: MedianGraph, x: int, target: int) -> NormalCubePath:
    """Walk the step map from x to target; each step is read back as the
    walls on which its two ends differ.  Raises CornerFailure at the
    first vertex on the walk whose step spans no cube."""
    x, target = int(x), int(target)
    if not 0 <= x < g.n:
        raise ValueError(f"vertex {x} out of range 0..{g.n - 1}")
    nxt = step_map(g, target)
    planes = g.wall_codes().planes
    v = x
    vertices = [x]
    steps = []
    while v != target:
        w = int(nxt[v])
        if w < 0:
            raise _no_cube(v, target)
        diff = (planes[:, v] ^ planes[:, w]).astype("<u8").tobytes()
        steps.append(frozenset(_mask_members(int.from_bytes(diff, "little"))))
        vertices.append(w)
        v = w
    return NormalCubePath(
        source=x, target=target, vertices=tuple(vertices), steps=tuple(steps)
    )
