"""Walls of a median graph and greedy cube paths across them.

A wall is an equivalence class of edges under the relation
(a,b) ~ (c,d)  iff  d(a,c) + d(b,d) != d(a,d) + d(b,c),
or equally a split {v : d(v,a) < d(v,b)} shared by its edges.  Walls
and their sides are read off the sign codes of median_core; the code
check there is exact (Hamming distance equals graph distance for every
pair), and on a graph that passes it the relation is transitive and
both sides of every wall are convex, so neither needs its own check.
Cube paths walk from a vertex toward a target, at each step crossing
every wall that is dual to an edge at the current vertex and still
separates it from the target; those walls pairwise cross, so the step
lands on the opposite corner of a cube.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .errors import CornerFailure, NotMedian
from .median_core import MedianGraph, VertexSet


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


def _edge_relation(g: MedianGraph) -> np.ndarray:
    ea = np.fromiter((e[0] for e in g.edges), dtype=np.int32)
    eb = np.fromiter((e[1] for e in g.edges), dtype=np.int32)
    d = g.dist
    lhs = d[ea[:, None], ea[None, :]] + d[eb[:, None], eb[None, :]]
    rhs = d[ea[:, None], eb[None, :]] + d[eb[:, None], ea[None, :]]
    return lhs != rhs


def _raise_wall_failure(g: MedianGraph) -> None:
    """Name why a graph without sign codes has no wall structure: an
    odd cycle, or an edge pair the relation joins only transitively (a
    bipartite graph with a transitive relation is a partial cube)."""
    color = g.dist[0] % 2
    for u, v in g.edges:
        if color[u] == color[v]:
            raise NotMedian("graph has an odd cycle", edge=(u, v))
    rel = _edge_relation(g)
    m = len(g.edges)
    parent = list(range(m))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in np.argwhere(np.triu(rel, 1)):
        ri, rj = find(int(i)), find(int(j))
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)
    classes: dict[int, list[int]] = {}
    for i in range(m):
        classes.setdefault(find(i), []).append(i)
    for root in sorted(classes):
        members = classes[root]
        sub = rel[np.ix_(members, members)]
        if not sub.all():
            i, j = np.argwhere(~sub)[0]
            raise NotMedian(
                "edge relation is not transitive",
                edges=(g.edges[members[int(i)]], g.edges[members[int(j)]]),
            )
    raise AssertionError("a bipartite graph with a transitive edge relation is a partial cube")


def hyperplanes(g: MedianGraph) -> list[Hyperplane]:
    """All walls, in order of their smallest dual edge; the minus side
    is the side of that edge's smaller endpoint.  Raises NotMedian
    when the graph has no sign codes, naming an odd cycle or an
    intransitive edge pair."""
    if g._hyperplanes is not None:
        return g._hyperplanes
    codes = g.wall_codes()
    if codes is None:
        _raise_wall_failure(g)
    plus = np.packbits(codes.sides().T, axis=1, bitorder="little")
    full = (1 << g.n) - 1
    members: list[list[tuple[int, int]]] = [[] for _ in range(codes.count)]
    for e, w in zip(g.edges, codes.edge_wall.tolist()):
        members[w].append(e)
    walls = []
    for index, row in enumerate(plus):
        mask = int.from_bytes(row.tobytes(), "little")
        walls.append(
            Hyperplane(
                index=index,
                edges=frozenset(members[index]),
                minus_side=VertexSet(g.n, full & ~mask),
                plus_side=VertexSet(g.n, mask),
            )
        )
    g._hyperplanes = walls
    g._edge_to_wall = dict(zip(g.edges, codes.edge_wall.tolist()))
    return walls


def crosses(h1: Hyperplane, h2: Hyperplane) -> bool:
    """Two walls cross when all four side intersections are inhabited."""
    m1, p1 = h1.minus_side.mask, h1.plus_side.mask
    m2, p2 = h2.minus_side.mask, h2.plus_side.mask
    return bool(m1 & m2 and m1 & p2 and p1 & m2 and p1 & p2)


def rank(g: MedianGraph) -> int:
    """Largest pairwise-crossing wall set (= top cube dimension)."""
    if g._rank is not None:
        return g._rank
    hs = hyperplanes(g)
    n = len(hs)
    adj = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if crosses(hs[i], hs[j]):
                adj[i] |= 1 << j
                adj[j] |= 1 << i
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

    grow((1 << n) - 1, 0)
    g._rank = best
    return best


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


def _cross_walls(g: MedianGraph, start: int, wall_ids, walls) -> int:
    v = start
    for wid in wall_ids:
        nxt = None
        for u in g.adj[v]:
            if g._edge_to_wall[(min(u, v), max(u, v))] == wid:
                nxt = u
                break
        if nxt is None:
            raise CornerFailure(
                f"no edge dual to wall {wid} at vertex {v}",
                vertex=v, wall=wid,
            )
        v = nxt
    return v


def normal_cube_path(g: MedianGraph, x: int, target: int) -> NormalCubePath:
    """Walk from x to target, greedily crossing at each vertex every
    separating wall dual to an incident edge.  Step walls must pairwise
    cross and the crossing order must not matter; violations raise."""
    cache = getattr(g, "_ncp_cache", None)
    if cache is None:
        cache = g._ncp_cache = {}
    hit = cache.get((x, target))
    if hit is not None:
        return hit
    walls = hyperplanes(g)
    d = g.dist
    v = x
    vertices = [x]
    steps = []
    while v != target:
        step = sorted(
            {
                g._edge_to_wall[(min(u, v), max(u, v))]
                for u in g.adj[v]
                if d[u, target] < d[v, target]
            }
        )
        for i in range(len(step)):
            for j in range(i + 1, len(step)):
                if not crosses(walls[step[i]], walls[step[j]]):
                    raise NotMedian(
                        "step walls do not pairwise cross",
                        walls=(step[i], step[j]), vertex=v,
                    )
        corner = _cross_walls(g, v, step, walls)
        shuffled = list(step)
        random.Random(1000003 * x + 31 * target + len(steps)).shuffle(shuffled)
        if _cross_walls(g, v, shuffled, walls) != corner:
            raise CornerFailure(
                "cube corner depends on crossing order",
                vertex=v, step=tuple(step),
            )
        steps.append(frozenset(step))
        vertices.append(corner)
        v = corner
    path = NormalCubePath(
        source=x, target=target, vertices=tuple(vertices), steps=tuple(steps)
    )
    cache[(x, target)] = path
    return path


def ncp_vertex(g: MedianGraph, y: int, target: int, j: int) -> int:
    """Vertex after j cube steps on the path from y to target."""
    return normal_cube_path(g, y, target).vertex_after(j)


def witness_sets_cat0(g: MedianGraph, x0: int, x: int, k: int, l: int) -> VertexSet:
    """Witness set at center x, radius index k, scale l: collect the
    vertex reached after 3l cube steps toward the basepoint x0 from
    every y within distance k of x."""
    if not (1 <= k <= 3 * l):
        raise ValueError(f"radius index {k} outside 1..{3 * l}")
    return VertexSet.of(
        g.n, (ncp_vertex(g, y, x0, 3 * l) for y in g.ball(x, k))
    )
