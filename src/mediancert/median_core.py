"""Median graphs and their interval algebra.

Vertices are integers 0..n-1.  A graph is *median* when every triple
(x, y, z) has exactly one vertex lying simultaneously on geodesics
between each pair; all operations here assume that property and raise
MedianViolation where a computation witnesses its failure.

Distances come from an all-pairs table computed once at construction.
In a median graph each wall's far side from vertex 0 is convex, so
gated: its vertex nearest 0 has one parent (neighbour nearer 0), across
the wall, and its other vertices each have a parent on that side.  So in
one breadth-first search from 0, a vertex with one parent opens a wall
and any other takes the OR of its parents' codes (below).  An exact
check makes this safe on any input; a graph it refuses, or one of more
than 64 walls, gets a search from every vertex.  Vertex sets are
fixed-width bitsets for word-parallel interval and hull arithmetic.

Walls and medians come from sign codes.  Each edge (a, b) splits the
vertices into those closer to a and those closer to b; the distinct
splits are the walls, and a vertex's code has one bit per wall naming
its side.  When the Hamming distance of every two codes equals the graph
distance, the graph is an isometric subgraph of a hypercube (a partial
cube): its wall sides are then convex, and the vertices on all three
geodesics between x, y and z are exactly those whose code is the bitwise
majority of theirs, so each median is one majority and one lookup.
Graphs that fail the check are not median; a dense interval scan only
names their first bad triple.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from .errors import BudgetExceeded, MedianViolation, NotFound, ReductionFailure

# Dense per-pair tables (medians, packed intervals) are only built for
# graphs up to this size; everything else computes rows on demand.
TABLE_LIMIT = 256

# Every graph keeps an n x n int32 distance table: 256 MiB at this many
# vertices (searches fill it through float64 blocks of _BLOCK_WORDS).
# Larger graphs are refused before any n x n allocation.
VERTEX_LIMIT = 8192

# Working-set cap of one step of the code scans, in uint64 words.
_BLOCK_WORDS = 1 << 20

_MASK64 = (1 << 64) - 1


def _pack_mask(row: np.ndarray) -> int:
    return int.from_bytes(np.packbits(row, bitorder="little").tobytes(), "little")


def _mask_of(members) -> int:
    """Bitmask with one bit per member id."""
    m = 0
    for v in members:
        m |= 1 << int(v)
    return m


def _mask_members(m: int):
    """Member ids of a bitmask, in increasing order."""
    while m:
        low = m & -m
        yield low.bit_length() - 1
        m ^= low


def _hash_multipliers(attempt: int, words: int) -> np.ndarray:
    """The attempt-th fixed set of odd 64-bit multipliers, one per code
    word (splitmix64 from a fixed start)."""
    state = attempt * 0x9E3779B97F4A7C15 & _MASK64
    out = []
    for _ in range(words):
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = state
        z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9 & _MASK64
        z = (z ^ z >> 27) * 0x94D049BB133111EB & _MASK64
        out.append(z ^ z >> 31 | 1)
    return np.array(out, dtype=np.uint64)


class WallCodes:
    """Sign codes of a partial cube, one bit per wall: bit w % 64 of
    ``planes[w // 64][v]`` is set when v lies on the plus side of wall
    w, the side of the larger endpoint of the wall's smallest dual edge.
    Word planes keep scans on long contiguous rows.  ``edge_wall[i]`` is
    the wall dual to ``edges[i]``.

    ``locate`` maps codes back to vertices through a slot table of
    n² to 2n² entries, built on first use.  A code's key is the code
    itself for one word, else a multiply-add hash over its words; its
    slot is the top bits of the key times an odd multiplier.  The first
    fixed multiplier set that gives the n vertices n distinct slots is
    kept.  Every hit is compared word by word, so the hash can cost time
    but never a wrong vertex."""

    __slots__ = ("planes", "edge_wall", "count", "_mult", "_shift", "_slots")

    def __init__(self, planes: np.ndarray, edge_wall: np.ndarray, count: int):
        self.planes = planes
        self.edge_wall = edge_wall
        self.count = count
        self._slots = None

    def _build_slots(self) -> None:
        n = self.planes.shape[1]
        bits = (n * n).bit_length()
        self._shift = np.uint64(64 - bits)
        self._slots = np.zeros(1 << bits, dtype=np.int32)
        for attempt in range(64):
            self._mult = _hash_multipliers(attempt, len(self.planes) + 1)
            slot = self._slot(self.planes)
            if len(np.unique(slot)) == n:
                self._slots[slot] = np.arange(n)
                return
        raise RuntimeError("no multiplier set separates the vertex codes")

    def _slot(self, words: np.ndarray) -> np.ndarray:
        if len(words) == 1:
            key = words[0] * self._mult[0]
        else:
            key = np.zeros(words[0].shape, dtype=np.uint64)
            for word, mult in zip(words, self._mult[1:]):
                # fold the high half down first: a product alone never
                # carries a difference in high bits to the low ones
                z = word >> np.uint64(32)
                z ^= word
                z *= mult
                key += z
            key *= self._mult[0]
        key >>= self._shift
        return key

    def locate(self, words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(v, hit) for codes given as word planes (words[j] is word j):
        hit is True where some vertex has that code, and v is that
        vertex there."""
        if self._slots is None:
            self._build_slots()
        v = self._slots[self._slot(words)]
        hit = (np.take(self.planes, v, axis=1) == words).all(axis=0)
        return v, hit

    def sides(self) -> np.ndarray:
        """bool array (n, count): True where a vertex is on the plus side."""
        raw = np.ascontiguousarray(self.planes.T).view(np.uint8)
        return np.unpackbits(raw, axis=1, count=self.count, bitorder="little").astype(bool)


def _wall_codes(dist: np.ndarray, ends: np.ndarray) -> WallCodes | None:
    """Codes from one split per row of ``ends``, or None when their
    Hamming distances differ from ``dist`` somewhere (not a partial cube)."""
    n = dist.shape[0]
    if not len(ends):
        return WallCodes(np.zeros((1, n), dtype=np.uint64), np.zeros(0, dtype=np.intp), 0)
    ea, eb = ends.T
    key = np.empty((len(ends), (n + 7) // 8), dtype=np.uint8)
    step = max(1, _BLOCK_WORDS // n)
    for lo in range(0, len(ends), step):
        near = dist[:, ea[lo:lo + step]] < dist[:, eb[lo:lo + step]]
        # a split and its complement are one wall: key each by the side of 0
        key[lo:lo + step] = np.packbits(near ^ near[0], axis=0, bitorder="little").T
    _, first, inverse = np.unique(key, axis=0, return_index=True, return_inverse=True)
    by_edge = np.argsort(first)  # wall index -> unique split
    wall_of = np.empty_like(by_edge)
    wall_of[by_edge] = np.arange(len(by_edge))
    edge_wall = wall_of[inverse.reshape(-1)]
    lead = first[by_edge]
    plus = dist[:, ea[lead]] >= dist[:, eb[lead]]
    count = plus.shape[1]
    words = -(-count // 64)
    raw = np.zeros((n, 8 * words), dtype=np.uint8)
    raw[:, : (count + 7) // 8] = np.packbits(plus, axis=1, bitorder="little")
    planes = np.ascontiguousarray(raw.view("<u8").T)
    step = max(1, _BLOCK_WORDS // (n * words))
    for lo in range(0, n, step):
        ham = np.bitwise_count(planes[:, lo:lo + step, None] ^ planes[:, None, :]).sum(axis=0)
        if not np.array_equal(ham, dist[lo:lo + step]):
            return None
    return WallCodes(planes, edge_wall, count)


def _single_search_codes(ends: np.ndarray, level: np.ndarray) -> tuple[WallCodes, np.ndarray] | None:
    """Wall codes and distance table from the breadth-first ``level`` of
    each vertex seen from 0, by the parent rule of the module docstring;
    None when a check fails or there are more than 64 walls.  The
    Hamming distance of the codes is the graph distance exactly when
    every edge flips one bit and every vertex v has, for each u != v, an
    edge flipping a bit in which the codes of u and v differ: the first
    makes the code distance move by 1 along each edge, so it is at most
    the graph distance, and the second gives a walk from v to u that
    long.  Each bit is then one wall, put in _wall_codes's order."""
    n = len(level)
    ea, eb = ends.T
    # no edge within a level (an odd cycle), and no vertex more than 64
    # steps away: no two vertices of a partial cube are more walls apart
    if (level[ea] == level[eb]).any() or level.max() > 64:
        return None
    down = level[ea] < level[eb]
    parent, child = np.where(down, ea, eb), np.where(down, eb, ea)
    opens = np.flatnonzero(np.bincount(child, minlength=n) == 1)
    if len(opens) > 64:
        return None
    code = np.zeros(n, dtype=np.uint64)
    code[opens] = np.left_shift(np.uint64(1), np.arange(len(opens), dtype=np.uint64))
    order = np.argsort(level[child])
    parent, child = parent[order], child[order]
    cut = np.searchsorted(level[child], np.arange(1, level.max() + 2))
    for lo, hi in zip(cut[:-1], cut[1:]):
        np.bitwise_or.at(code, child[lo:hi], code[parent[lo:hi]])
    flips = code[ea] ^ code[eb]
    if (np.bitwise_count(flips) != 1).any():
        return None
    toward = np.zeros(n, dtype=np.uint64)
    np.bitwise_or.at(toward, ea, flips)
    np.bitwise_or.at(toward, eb, flips)
    dist = np.empty((n, n), dtype=np.int32)
    step = max(1, _BLOCK_WORDS // n)
    for lo in range(0, n, step):
        apart = code[lo:lo + step, None] ^ code
        dist[lo:lo + step] = np.bitwise_count(apart)
        apart &= toward  # in place: a second block would cost page faults
        stuck = apart == 0
        stuck[np.arange(len(apart)), np.arange(lo, lo + len(apart))] = False
        if stuck.any():
            return None
    # walls in order of their first dual edge, plus side on its larger end
    bit = np.bitwise_count(flips - np.uint64(1)).astype(np.intp)
    _, lead = np.unique(bit, return_index=True)
    by_edge = np.argsort(lead)
    sides = np.unpackbits(code.astype("<u8").view(np.uint8).reshape(n, 8), axis=1, bitorder="little")[:, by_edge]
    plus = sides == sides[eb[lead[by_edge]], np.arange(len(lead))]
    raw = np.zeros((n, 8), dtype=np.uint8)
    raw[:, :(len(lead) + 7) // 8] = np.packbits(plus, axis=1, bitorder="little")
    wall_of = np.empty_like(by_edge)
    wall_of[by_edge] = np.arange(len(by_edge))
    return WallCodes(np.ascontiguousarray(raw.view("<u8").T), wall_of[bit], len(lead)), dist


def _distinct(cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(distinct columns of word planes, in code order; the index of the
    first occurrence of each)."""
    order = np.lexsort(cols[::-1])
    cols = cols[:, order]
    first = np.concatenate([[True], (cols[:, 1:] != cols[:, :-1]).any(axis=0)])
    return cols[:, first], order[first]


def majority_closure(words: np.ndarray, cap: int) -> np.ndarray:
    """The columns of ``words`` (word planes: row j holds word j of each
    point) closed under bitwise majority, distinct and in code order.
    Each round adds the majorities of all triples of the points it
    starts with; those of triples without a point the last round added
    are already in.  BudgetExceeded when a round leaves more than
    ``cap`` points."""
    cur = np.asarray(words, dtype=np.uint64)
    fresh = np.arange(cur.shape[1])
    while len(fresh):
        k = cur.shape[1]
        merged, old = cur, np.ones(k, dtype=bool)
        span = max(1, _BLOCK_WORDS // (len(cur) * k))  # (x, y) pairs per block
        sx = min(len(fresh), span)
        sy = span // sx
        for lo, y0 in itertools.product(range(0, len(fresh), sx), range(0, k, sy)):
            xs = cur[:, fresh[lo:lo + sx], None, None]
            ys = cur[:, None, y0:y0 + sy, None]
            zs = cur[:, None, None, :]
            maj = ((xs & (ys | zs)) | (ys & zs)).reshape(len(cur), -1)
            merged, first = _distinct(np.concatenate([merged, maj], axis=1))
            old = np.concatenate([old, np.zeros(maj.shape[1], dtype=bool)])[first]
        if merged.shape[1] > cap:
            raise BudgetExceeded("majority closure exceeded its cap", cap=cap, size=merged.shape[1])
        cur, fresh = merged, np.flatnonzero(~old)
    return cur


class VertexSet:
    """Immutable subset of 0..n-1 backed by an int bitmask."""

    __slots__ = ("n", "mask")

    def __init__(self, n: int, mask: int = 0):
        self.n = n
        self.mask = mask

    @classmethod
    def of(cls, n: int, members) -> "VertexSet":
        return cls(n, _mask_of(members))

    @classmethod
    def full(cls, n: int) -> "VertexSet":
        return cls(n, (1 << n) - 1)

    def __contains__(self, v: int) -> bool:
        return (self.mask >> int(v)) & 1 == 1

    def __iter__(self):
        return _mask_members(self.mask)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __bool__(self) -> bool:
        return self.mask != 0

    def __eq__(self, other) -> bool:
        return isinstance(other, VertexSet) and self.mask == other.mask and self.n == other.n

    def __hash__(self) -> int:
        return hash((self.n, self.mask))

    def __and__(self, other: "VertexSet") -> "VertexSet":
        return VertexSet(self.n, self.mask & other.mask)

    def __or__(self, other: "VertexSet") -> "VertexSet":
        return VertexSet(self.n, self.mask | other.mask)

    def __sub__(self, other: "VertexSet") -> "VertexSet":
        return VertexSet(self.n, self.mask & ~other.mask)

    def __le__(self, other: "VertexSet") -> bool:
        return self.mask & ~other.mask == 0

    def issubset(self, other: "VertexSet") -> bool:
        return self <= other

    def members(self) -> list[int]:
        return list(self)

    def __repr__(self) -> str:
        return f"VertexSet({sorted(self)})"


class MedianGraph:
    """Connected simple graph with cached BFS distances.

    ``edges`` holds vertex pairs, as a sequence or an (m, 2) array.
    ``edge_array`` holds them as sorted distinct rows (u, v), u < v, and
    ``edges`` as int tuples.  The constructor checks shape (ids in
    range, no loops, connectivity) but not the median property itself;
    run harness_cli.is_median_graph on untrusted input.
    """

    def __init__(self, vertex_count: int, edges):
        if vertex_count <= 0:
            raise ValueError("vertex_count must be positive")
        self.n = int(vertex_count)
        if self.n > VERTEX_LIMIT:
            raise BudgetExceeded(
                f"distance table disabled above {VERTEX_LIMIT} vertices", n=self.n
            )
        try:
            given = np.asarray(edges, dtype=np.int64)
        except OverflowError:  # an id past int64 is out of range
            given = np.array(edges, dtype=object)
        if given.size and given.shape[-1:] != (2,):
            raise ValueError("edges must be vertex pairs")
        given = given.reshape(-1, 2)
        a, b = given.T
        bad = np.flatnonzero((a == b) | (a < 0) | (a >= self.n) | (b < 0) | (b >= self.n))
        if len(bad):
            u, v = (int(x) for x in given[bad[0]])
            raise ValueError(f"loop at vertex {u}" if u == v else f"edge ({u},{v}) out of range")
        key = np.unique(np.minimum(a, b).astype(np.intp) * self.n + np.maximum(a, b))
        if len(key) < self.n - 1:
            raise ValueError("graph is not connected")
        self.edge_array = np.stack([key // self.n, key % self.n], axis=1)
        self.edges: list[tuple[int, int]] = list(zip(*self.edge_array.T.tolist()))
        self._codes: WallCodes | bool | None = None  # False: not a partial cube
        self.dist = self._all_pairs()
        self._interval_cache: dict[tuple[int, int], int] = {}
        self._median_table: np.ndarray | None = None
        self._packed_intervals: np.ndarray | None = None
        self._hyperplanes = None  # filled by cube_complex
        self._rank: int | None = None

    @functools.cached_property
    def adj(self) -> list[list[int]]:
        """Sorted neighbour lists, built on first use."""
        src, dst = np.r_[self.edge_array, self.edge_array[:, ::-1]].T
        dst = dst[np.lexsort((dst, src))]
        return [nbrs.tolist() for nbrs in np.split(dst, np.cumsum(np.bincount(src, minlength=self.n))[:-1])]

    def _all_pairs(self) -> np.ndarray:
        """The distance table; the wall codes too when they come with it."""
        ends = self.edge_array
        src, dst = ends.T.ravel(), ends[:, ::-1].T.ravel()
        row_ends = np.concatenate([[0], np.cumsum(np.bincount(src, minlength=self.n))])
        # float64 weights, the type scipy's searches take without a copy
        g = csr_matrix((np.ones(len(src)), dst[np.argsort(src)], row_ends), shape=(self.n, self.n))
        level = dijkstra(g, unweighted=True, indices=0)
        if np.isinf(level).any():
            raise ValueError("graph is not connected")
        found = _single_search_codes(ends, level.astype(np.intp))
        if found is not None:
            self._codes, dist = found
            return dist
        # row blocks: scipy's float64 rows are never all held at once
        dist = np.empty((self.n, self.n), dtype=np.int32)
        step = max(1, _BLOCK_WORDS // self.n)
        for lo in range(0, self.n, step):
            dist[lo:lo + step] = dijkstra(g, unweighted=True, indices=np.arange(lo, min(self.n, lo + step)))
        return dist

    def distance(self, x: int, y: int) -> int:
        # a negative id would wrap around the numpy index
        if not (0 <= x < self.n and 0 <= y < self.n):
            raise ValueError(f"vertex pair ({x},{y}) out of range 0..{self.n - 1}")
        return int(self.dist[x, y])

    def ball(self, x: int, r: int) -> VertexSet:
        if not 0 <= x < self.n:
            raise ValueError(f"vertex {x} out of range 0..{self.n - 1}")
        return VertexSet(self.n, _pack_mask(self.dist[x] <= r))

    def interval_row(self, a: int, b: int) -> np.ndarray:
        """Boolean row of vertices on some geodesic from a to b."""
        return self.dist[a] + self.dist[b] == self.dist[a, b]

    def interval(self, a: int, b: int) -> VertexSet:
        key = (a, b) if a <= b else (b, a)
        m = self._interval_cache.get(key)
        if m is None:
            if not (0 <= a < self.n and 0 <= b < self.n):
                raise ValueError(f"vertex pair ({a},{b}) out of range 0..{self.n - 1}")
            m = _pack_mask(self.interval_row(a, b))
            self._interval_cache[key] = m
        return VertexSet(self.n, m)

    def median(self, x: int, y: int, z: int) -> int:
        n = self.n
        if not (0 <= x < n and 0 <= y < n and 0 <= z < n):
            raise ValueError(f"vertex triple ({x},{y},{z}) out of range 0..{n - 1}")
        t = self._median_table
        if t is not None:
            return int(t[x, y, z])
        row = (
            self.interval_row(x, y)
            & self.interval_row(y, z)
            & self.interval_row(z, x)
        )
        hits = np.flatnonzero(row)
        if len(hits) != 1:
            raise MedianViolation(
                f"triple ({x},{y},{z}) has {len(hits)} geodesic meeting points",
                triple=(int(x), int(y), int(z)),
                candidates=[int(h) for h in hits],
            )
        return int(hits[0])

    def packed_intervals(self) -> np.ndarray:
        """uint8 array (n, n, ceil(n/8)): bit c of row (a, b) marks
        c on a geodesic between a and b.  Small graphs only."""
        if self._packed_intervals is None:
            if self.n > TABLE_LIMIT:
                raise BudgetExceeded(f"interval table disabled above {TABLE_LIMIT} vertices", n=self.n)
            d = self.dist
            p = np.empty((self.n, self.n, (self.n + 7) // 8), dtype=np.uint8)
            for a in range(self.n):
                rows = d[a][None, :] + d - d[a][:, None] == 0
                p[a] = np.packbits(rows, axis=1, bitorder="little")
            self._packed_intervals = p
        return self._packed_intervals

    def wall_codes(self) -> WallCodes | None:
        """Sign codes of the walls, or None when the graph is not a
        partial cube (and so not median)."""
        if self._codes is None:
            self._codes = _wall_codes(self.dist, self.edge_array) or False
        return self._codes or None

    def _majority_blocks(self, codes: WallCodes):
        """Medians of the sorted triples, x ascending.  Yields (x, y0,
        meds) with meds[i, j] the median of (x, y0 + i, y0 + j): each
        block of rows y >= x meets the columns z >= y0, which covers
        every sorted triple once and a small corner twice.  Raises
        MedianViolation at the first triple whose majority code is no
        vertex's.  Badness does not depend on the order of the three, so
        that triple is also the first bad one in lexicographic order."""
        planes = codes.planes
        words, n = planes.shape
        for x in range(n):
            # maj(x, y, z) = (y & (z | x)) | (z & x), one plane per word
            either = planes[:, x:] | planes[:, x, None]
            both = planes[:, x:] & planes[:, x, None]
            k = n - x
            # about four row blocks per x: most of the triangle's saving
            # for a few numpy calls more
            step = max(1, min(max(32, -(-k // 4)), _BLOCK_WORDS // (k * words)))
            for lo in range(0, k, step):
                ys = planes[:, x + lo:x + lo + step, None]
                meds, hit = codes.locate((ys & either[:, None, lo:]) | both[:, None, lo:])
                if not hit.all():
                    i, j = np.argwhere(~hit)[0]
                    y, z = x + lo + int(i), x + lo + int(j)
                    raise MedianViolation(
                        f"triple ({x},{y},{z}) has 0 geodesic meeting points",
                        triple=(x, y, z), candidates=[],
                    )
                yield x, x + lo, meds

    def _raise_first_violation(self) -> None:
        """Dense interval scan of the sorted triples, for graphs that
        are not partial cubes: raises MedianViolation at the first
        triple whose three intervals do not meet in exactly one vertex.
        Uses the packed interval table up to TABLE_LIMIT and computes
        the rows it needs above."""
        n, d = self.n, self.dist
        packed = self.packed_intervals() if n <= TABLE_LIMIT else None

        def rows(a, zs):
            # packed I(a, z) for z in zs, one row per a
            if packed is not None:
                return packed[a][:, zs]
            iv = d[a][:, None, :] + d[zs][None, :, :] == d[np.ix_(a, zs)][:, :, None]
            return np.packbits(iv, axis=2, bitorder="little")

        for x in range(n):
            zs = np.arange(x, n)
            from_x = rows(np.array([x]), zs)[0]
            step = max(1, _BLOCK_WORDS // ((n - x) * n))
            for lo in range(0, n - x, step):
                ys = zs[lo:lo + step]
                meet = rows(ys, zs) & from_x[lo:lo + step, None, :] & from_x[None, :, :]
                counts = np.bitwise_count(meet).sum(axis=2)
                bad = np.argwhere(counts != 1)
                if len(bad):
                    i, j = (int(v) for v in bad[0])
                    bits = np.unpackbits(meet[i, j], bitorder="little", count=n)
                    raise MedianViolation(
                        f"triple ({x},{ys[i]},{zs[j]}) has {int(counts[i, j])} geodesic meeting points",
                        triple=(x, int(ys[i]), int(zs[j])),
                        candidates=[int(v) for v in np.flatnonzero(bits)],
                    )
        raise AssertionError("a graph that is not a partial cube has a bad triple")

    def _squares_close(self, codes: WallCodes) -> bool:
        """True when maj(u, v, w) is a vertex's code for every u and
        every pair v, w at distance 2.  On a partial cube that makes
        every majority a code, so the graph is median.  Induction on
        d(v, w) = k > 2: take a geodesic from v to w.  If its first step
        crosses a wall on which u sides with w, v's successor gives the
        same majority at distance k - 1; likewise the last step with w's
        predecessor.  Otherwise some crossing of a wall on which u sides
        with w directly follows one on which u sides with v.  The
        majority of u with the two ends of those two steps is a vertex,
        and the geodesic through it crosses the two walls the other way
        round.  Enough such swaps bring one of the first kind to the
        front."""
        planes = codes.planes
        words, n = planes.shape
        v, w = np.nonzero(np.triu(self.dist == 2))
        either = planes[:, v] | planes[:, w]
        both = planes[:, v] & planes[:, w]
        us = planes[:, :, None]
        step = max(1, _BLOCK_WORDS // (n * words))
        for lo in range(0, len(v), step):
            pairs = slice(lo, lo + step)
            _, hit = codes.locate((us & either[:, None, pairs]) | both[:, None, pairs])
            if not hit.all():
                return False
        return True

    def verify_medians(self) -> None:
        """Raise MedianViolation at the first triple (lexicographic)
        without a unique median.  No size cap, and no table is kept.
        The triples with a pair at distance 2 settle a median graph; the
        full scan runs only to name the witness."""
        if self._median_table is not None:
            return
        codes = self.wall_codes()
        if codes is None:
            self._raise_first_violation()
        if self._squares_close(codes):
            return
        for _ in self._majority_blocks(codes):
            pass

    def median_table(self) -> np.ndarray:
        """int16 array (n, n, n) of all medians; raises MedianViolation
        on the first triple without a unique one.  Small graphs only."""
        if self._median_table is None:
            if self.n > TABLE_LIMIT:
                raise BudgetExceeded(f"median table disabled above {TABLE_LIMIT} vertices", n=self.n)
            codes = self.wall_codes()
            if codes is None:
                self._raise_first_violation()
            tab = np.empty((self.n, self.n, self.n), dtype=np.int16)
            for x, y0, meds in self._majority_blocks(codes):
                # each triple whose smallest entry is x, in all six orders
                ys, zs, back = slice(y0, y0 + len(meds)), slice(y0, None), meds.T
                tab[x, ys, zs] = meds
                tab[x, zs, ys] = back
                tab[ys, x, zs] = meds
                tab[zs, x, ys] = back
                tab[ys, zs, x] = meds
                tab[zs, ys, x] = back
            self._median_table = tab
        return self._median_table


def median(g: MedianGraph, x: int, y: int, z: int) -> int:
    return g.median(x, y, z)


def interval(g: MedianGraph, a: int, b: int) -> VertexSet:
    return g.interval(a, b)


def join(g: MedianGraph, a: VertexSet) -> VertexSet:
    """Union of intervals over all pairs from ``a`` (pairs include
    singletons, so the result contains ``a``)."""
    mask = 0
    mem = a.members()
    for i, u in enumerate(mem):
        for v in mem[i:]:
            mask |= g.interval(u, v).mask
    return VertexSet(g.n, mask)


def hull(g: MedianGraph, a: VertexSet) -> VertexSet:
    """Smallest interval-closed superset, by iterating ``join``."""
    if not a:
        return a
    cur = a
    while True:
        nxt = join(g, cur)
        if nxt == cur:
            return cur
        cur = nxt


def iterated_median(g: MedianGraph, xs, b: int) -> int:
    """Fold the points of ``xs`` into ``b``-directed medians: start at
    the first point, then repeatedly take the median with the next
    point and ``b``.  Value is independent of the order of ``xs``."""
    xs = list(xs)
    if not xs:
        raise ValueError("iterated_median needs at least one point")
    acc = int(xs[0])
    for x in xs[1:]:
        acc = g.median(acc, int(x), b)
    return acc


def reduce_generators(g: MedianGraph, xs, b: int, d: int) -> list[int]:
    """Greedily drop points whose removal keeps iterated_median(xs, b)
    fixed.  On a graph of rank <= d the survivor list has at most d
    points whenever d >= 2 or all of xs lie in one interval ending at
    b; raises ReductionFailure otherwise.  (On rank-1 graphs two
    scattered points straddling b really can both be essential: path
    0-1-2-3-4 with xs={0,4}, b=2 folds to 2, which no single
    generator reproduces.)"""
    xs = [int(x) for x in xs]
    target = iterated_median(g, xs, b)
    changed = True
    while changed and len(xs) > 1:
        changed = False
        for i in range(len(xs)):
            rest = xs[:i] + xs[i + 1:]
            if iterated_median(g, rest, b) == target:
                xs = rest
                changed = True
                break
    if len(xs) > d:
        raise ReductionFailure(
            f"greedy reduction stalled at {len(xs)} generators (rank bound {d})",
            survivors=xs, bound=d,
        )
    return xs


def deep_point_exact(g: MedianGraph, a: int, b: int, c: VertexSet, d: int) -> int:
    """Point of the form iterated_median([h_1..h_d], b), h_i drawn from
    ``c``, whose interval from ``a`` swallows all of ``c``.

    Requires c nonempty, c inside interval(a, b), and |c| <= 64.  The
    witness comes from greedy reduction of the full fold; an ordered
    exhaustive tuple search remains as fallback.  Any witness g* also
    satisfies distance(a, g*) <= 3**d * max distance(a, h_i), which the
    caller may re-check.
    """
    if not c:
        raise NotFound("candidate set is empty", a=a, b=b)
    if len(c) > 64:
        raise BudgetExceeded("candidate set above the 64-point cap", size=len(c))
    if not c <= g.interval(a, b):
        stray = next(v for v in c if v not in g.interval(a, b))
        raise NotFound(
            f"candidate {stray} is not between {a} and {b}",
            a=a, b=b, stray=stray,
        )
    mem = c.members()
    try:
        ys = reduce_generators(g, mem, b, d)
    except ReductionFailure:
        ys = None
    if ys is not None:
        point = iterated_median(g, ys, b)
        if c <= g.interval(a, point):
            return point
    # Fallback: scan d-tuples, farthest-from-a first.
    if len(mem) ** d > 1 << 20:
        raise BudgetExceeded("tuple fallback too large", size=len(mem), arity=d)
    ranked = sorted(mem, key=lambda h: -g.distance(a, h))
    best = None
    for tup in sorted(
        itertools.product(ranked, repeat=d),
        key=lambda t: -min(g.distance(a, h) for h in t),
    ):
        point = iterated_median(g, tup, b)
        if c <= g.interval(a, point):
            best = point
            break
    if best is None:
        raise NotFound("no covering tuple exists", a=a, b=b)
    return best
