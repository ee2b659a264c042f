"""Median graphs and their interval algebra.

Vertices are integers 0..n-1.  A graph is *median* when every triple
(x, y, z) has exactly one vertex lying simultaneously on geodesics
between each pair; all operations here assume that property and raise
MedianViolation where a computation witnesses its failure.

Walls, distances and medians come from sign codes.  Each edge (a, b)
splits the vertices into those closer to a and those closer to b; the
distinct splits are the walls, and a vertex's code has one bit per wall
naming its side.  When the Hamming distance of every two codes equals
the graph distance, the graph is an isometric subgraph of a hypercube
(a partial cube): its wall sides are then convex, and the vertices on
all three geodesics between x, y and z are exactly those whose code is
the bitwise majority of theirs, so each median is one majority and one
lookup.  Graphs that are not partial cubes are not median; a dense
interval scan only names their first bad triple.

In a median graph each wall's far side from vertex 0 is convex, so
gated: its vertex nearest 0 has one parent (neighbour nearer 0), across
the wall, and its other vertices each have a parent on that side.  So
in one breadth-first search from 0 a vertex with one parent opens a
wall and any other takes the OR of its parents' codes.  An exact check
makes this safe on any input; a graph it refuses gets its codes from the
edge splits of a search from every vertex, under the same check.  The
n x n distance table is built only when a reader asks for it.  Vertex
sets are fixed-width bitsets.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import deque

import numpy as np

from .errors import BudgetExceeded, MedianViolation, NotFound, ReductionFailure

# The dense per-pair tables, median_table and packed_intervals, are only
# built for graphs up to this size.
TABLE_LIMIT = 256

# A graph's n x n int32 distance table, built when a reader asks for it,
# takes 256 MiB at this many vertices (the all-pairs search fills it
# through float64 blocks of _BLOCK_WORDS).  Larger graphs are refused
# before any n x n allocation.
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

    __slots__ = ("planes", "edge_wall", "count", "_halves", "_mult", "_shift", "_slots")

    def __init__(self, planes: np.ndarray, edge_wall: np.ndarray, count: int):
        self.planes = planes
        self.edge_wall = edge_wall
        self.count = count
        self._halves = None
        self._slots = None

    def halves(self) -> np.ndarray:
        """uint64 array (count, ceil(n/64)): row w is the plus side of
        wall w as a vertex bitset (bit v % 64 of word v // 64)."""
        if self._halves is None:
            self._halves = _transpose_bits(np.ascontiguousarray(self.planes.T), self.count)
        return self._halves

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


def _transpose_bits(rows: np.ndarray, cols: int) -> np.ndarray:
    """The bit matrix of ``rows`` transposed.  Row r of ``rows`` holds
    bits 0..cols-1 in uint64 words (bit c is bit c % 64 of word c // 64);
    row c of the result holds bit c of every row, in at least one word."""
    out = np.zeros((cols, 8 * max(1, -(-len(rows) // 64))), dtype=np.uint8)
    raw = rows.view(np.uint8)
    step = max(64, _BLOCK_WORDS // max(1, cols) // 64 * 64)
    for lo in range(0, len(rows), step):
        bits = np.unpackbits(raw[lo:lo + step], axis=1, count=cols, bitorder="little")
        # whole words of bits: packbits is slow on a partial byte
        flipped = np.zeros((cols, -(-len(bits) // 64) * 64), dtype=np.uint8)
        flipped[:, :len(bits)] = bits.T
        out[:, lo // 8:lo // 8 + flipped.shape[1] // 8] = np.packbits(flipped, axis=1, bitorder="little")
    return out.view("<u8")


def _all_bits(n: int) -> np.ndarray:
    """uint64 words with bits 0..n-1 set: a bitset of every vertex."""
    full = np.full(-(-n // 64), _MASK64, dtype=np.uint64)
    full[-1] >>= np.uint64(-n % 64)
    return full


def _levels(indptr: np.ndarray, nbr: np.ndarray) -> np.ndarray:
    """Breadth-first distance of each vertex from 0; ValueError when some
    vertex has none."""
    ptr, nbr = indptr.tolist(), nbr.tolist()
    level = [-1] * (len(ptr) - 1)
    level[0] = 0
    queue = deque([0])
    while queue:
        v = queue.popleft()
        step = level[v] + 1
        for u in nbr[ptr[v]:ptr[v + 1]]:
            if level[u] < 0:
                level[u] = step
                queue.append(u)
    if min(level) < 0:
        raise ValueError("graph is not connected")
    return np.array(level, dtype=np.intp)


def _bit_of(rows: np.ndarray, r: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Bit c[k] of row r[k] of a bit matrix of uint64 words, as 0 or 1."""
    return rows[r, c // 64] >> (c % 64).astype(np.uint64) & np.uint64(1)


def _split_keys(dist: np.ndarray, ends: np.ndarray):
    """(keys, first, inverse): row e of ``keys`` packs the split
    {v : d(v, a) < d(v, b)} of edge e = (a, b), one little-endian bit per
    vertex in whole uint64 words, read relative to vertex 0's side so
    that a split and its complement have one key.  The distinct keys are
    numbered in order of their first edge: ``first`` holds each one's
    first edge and ``inverse`` each edge's number."""
    n = dist.shape[0]
    ea, eb = ends.T
    keys = np.zeros((len(ends), 8 * -(-n // 64)), dtype=np.uint8)
    step = max(1, _BLOCK_WORDS // n)
    for lo in range(0, len(ends), step):
        near = dist[:, ea[lo:lo + step]] < dist[:, eb[lo:lo + step]]
        keys[lo:lo + step, :(n + 7) // 8] = np.packbits(near ^ near[0], axis=0, bitorder="little").T
    words = keys.view("<u8")
    order = np.lexsort(words.T)  # stable: equal keys keep edge order
    words = words[order]
    new = np.concatenate([[True], (words[1:] != words[:-1]).any(axis=1)])
    first = order[new]
    by_edge = np.argsort(first)
    number = np.empty_like(by_edge)
    number[by_edge] = np.arange(len(first))
    inverse = np.empty(len(ends), dtype=np.intp)
    inverse[order] = number[np.cumsum(new) - 1]
    return keys, first[by_edge], inverse


def _cube_codes(code: np.ndarray, count: int, ends: np.ndarray, indptr: np.ndarray,
                nbr: np.ndarray, slot_edge: np.ndarray) -> WallCodes | None:
    """The wall codes of ``code``, one row of words per vertex holding
    bits 0..count-1 in any order and orientation, each flipped on some
    edge; None when their Hamming distance is not the graph distance.
    It is exactly when every edge flips one bit and every vertex v has,
    for each u != v, an edge at v flipping a bit in which the codes of u
    and v differ: the first makes the code distance move by 1 along each
    edge, so it is at most the graph distance, and the second gives a
    walk from v to u that long.  Each bit is then one wall, put in order
    of its first dual edge, with its plus side at that edge's larger end.

    The second check is packed: the far sides from v of the walls at v,
    as vertex bitsets, must cover every vertex but v.  They are taken in
    the neighbour layout (MedianGraph._neighbours), in vertex blocks of
    at most _BLOCK_WORDS words."""
    n, words = code.shape
    ea, eb = ends.T
    flips = code[ea] ^ code[eb]
    if (np.bitwise_count(flips).sum(axis=1) != 1).any():
        return None
    pos = np.flatnonzero(flips)  # one word per edge
    bit = pos % words * 64 + np.bitwise_count(flips.reshape(-1)[pos] - np.uint64(1))
    lead = np.full(count, len(bit))
    np.minimum.at(lead, bit, np.arange(len(bit)))
    by_edge = np.argsort(lead)
    wall_of = np.empty_like(by_edge)
    wall_of[by_edge] = np.arange(count)
    edge_wall = wall_of[bit]
    plus_bit = _bit_of(code, eb[lead[by_edge]], by_edge).astype(np.uint8)
    raw = np.empty((n, 8 * words), dtype=np.uint8)
    step = max(1, _BLOCK_WORDS // (64 * words))  # a byte per bit, three times
    for lo in range(0, n, step):
        sides = np.unpackbits(code[lo:lo + step].view(np.uint8), axis=1, bitorder="little")
        plus = np.zeros_like(sides)  # whole bytes: packbits is slow on a partial one
        np.equal(np.take(sides, by_edge, axis=1), plus_bit, out=plus[:, :count].view(bool))
        raw[lo:lo + step] = np.packbits(plus, axis=1, bitorder="little")
    codes = WallCodes(np.ascontiguousarray(raw.view("<u8").T), edge_wall, count)
    if n == 1:
        return codes  # nothing to cover
    half, full = codes.halves(), _all_bits(n)
    per = max(1, _BLOCK_WORDS // len(full))  # edge slots per vertex block
    lo = 0
    while lo < n:
        hi = max(lo + 1, int(np.searchsorted(indptr, indptr[lo] + per, side="right")) - 1)
        wall, u = edge_wall[slot_edge[indptr[lo]:indptr[hi]]], nbr[indptr[lo]:indptr[hi]]
        far = half[wall]  # the side of neighbour u
        np.bitwise_xor(far, full, out=far, where=(_bit_of(half, wall, u) == 0)[:, None])
        cover = np.bitwise_or.reduceat(far, indptr[lo:hi] - indptr[lo])
        if (np.bitwise_count(cover).sum(axis=1) != n - 1).any():
            return None
        lo = hi
    return codes


def _wall_codes(dist: np.ndarray, ends: np.ndarray, indptr: np.ndarray, nbr: np.ndarray,
                slot_edge: np.ndarray) -> WallCodes | None:
    """The codes of the distinct splits of the rows of ``ends``, one bit
    per split, through _cube_codes: for a graph the single search
    refused."""
    keys, lead, _ = _split_keys(dist, ends)
    code = _transpose_bits(keys[lead].view("<u8"), len(dist))
    return _cube_codes(code, len(lead), ends, indptr, nbr, slot_edge)


def _single_search_codes(ends: np.ndarray, indptr: np.ndarray, nbr: np.ndarray,
                         slot_edge: np.ndarray) -> WallCodes | bool | None:
    """Wall codes from the breadth-first level of each vertex seen from
    0, by the parent rule of the module docstring, at any number of
    walls, checked by _cube_codes; False when the graph is shown to be
    no partial cube, None when the check fails."""
    level = _levels(indptr, nbr)
    n = len(level)
    ea, eb = ends.T
    # an edge within a level closes an odd cycle, and an n-vertex
    # subgraph of a hypercube has at most (n/2) log2 n edges
    if (level[ea] == level[eb]).any() or 2 * len(ends) > n * math.log2(n):
        return False
    down = level[ea] < level[eb]
    parent, child = np.where(down, ea, eb), np.where(down, eb, ea)
    opens = np.flatnonzero(np.bincount(child, minlength=n) == 1)
    count = len(opens)
    words = max(1, -(-count // 64))
    code = np.zeros((n, words), dtype=np.uint64)
    flat = code.reshape(-1)  # one index per word: ufunc.at is fast only on one axis
    bits = np.arange(count)
    flat[opens * words + bits // 64] = np.left_shift(np.uint64(1), (bits % 64).astype(np.uint64))
    order = np.argsort(level[child])
    parent, child = parent[order], child[order]
    cut = np.searchsorted(level[child], np.arange(1, level.max() + 2)) * words
    into = (child[:, None] * words + np.arange(words)).reshape(-1)
    out_of = (parent[:, None] * words + np.arange(words)).reshape(-1)
    for lo, hi in zip(cut[:-1], cut[1:]):
        np.bitwise_or.at(flat, into[lo:hi], flat[out_of[lo:hi]])
    # every opener's bit flips on the edge to its one parent
    return _cube_codes(code, count, ends, indptr, nbr, slot_edge)


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
    """Connected simple graph with distances from its wall codes.

    ``edges`` holds vertex pairs, as a sequence or an (m, 2) array.
    ``edge_array`` holds them as sorted distinct rows (u, v), u < v, and
    ``edges`` as int tuples.  The constructor checks shape (ids in
    range, no loops, connectivity) and runs the single search for the
    codes, but not the median check itself; run
    harness_cli.is_median_graph on untrusted input.  The n x n table
    ``dist`` is built on first read.
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
        lo, hi = np.minimum(*given.T), np.maximum(*given.T)
        bad = np.flatnonzero((lo == hi) | (lo < 0) | (hi >= self.n))
        if len(bad):
            u, v = (int(x) for x in given[bad[0]])
            raise ValueError(f"loop at vertex {u}" if u == v else f"edge ({u},{v}) out of range")
        key = np.sort(lo.astype(np.intp) * self.n + hi)
        key = key[np.diff(key, prepend=-1) != 0]
        if len(key) < self.n - 1:
            raise ValueError("graph is not connected")
        self.edge_array = np.stack(np.divmod(key, self.n), axis=1)
        self.edges: list[tuple[int, int]] = list(zip(*self.edge_array.T.tolist()))
        # False: not a partial cube; None: _cube_codes refused the search's codes, left to _wall_codes
        self._codes: WallCodes | bool | None = _single_search_codes(self.edge_array, *self._neighbours)
        self._interval_cache: dict[tuple[int, int], int] = {}
        self._median_table: np.ndarray | None = None
        self._packed_intervals: np.ndarray | None = None
        self._hyperplanes = None  # filled by cube_complex
        self._rank: int | None = None

    @functools.cached_property
    def _neighbours(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(indptr, nbr, slot_edge): the neighbours of v, in increasing
        order, are ``nbr[indptr[v]:indptr[v + 1]]``, joined to v by the
        edges ``slot_edge[indptr[v]:indptr[v + 1]]`` (rows of
        ``edge_array``); the one layout that the search, the square check
        and ``adj`` read.  ``edge_array`` rows are sorted with u < v, so
        a stable sort on the source puts each vertex's smaller neighbours
        (its rows as v) before its larger."""
        src, dst = self.edge_array[:, ::-1].T.ravel(), self.edge_array.T.ravel()
        indptr = np.zeros(self.n + 1, dtype=np.intp)
        np.cumsum(np.bincount(src, minlength=self.n), out=indptr[1:])
        slot = np.argsort(src, kind="stable")
        return indptr, dst[slot], slot % len(self.edge_array)

    @functools.cached_property
    def adj(self) -> list[list[int]]:
        """Sorted neighbour lists, built on first use."""
        indptr, nbr, _ = self._neighbours
        ptr, nbr = indptr.tolist(), nbr.tolist()
        return [nbr[a:b] for a, b in zip(ptr, ptr[1:])]

    @functools.cached_property
    def dist(self) -> np.ndarray:
        """The n x n int32 distance table, built on first read.  Codes of
        one word give it as their Hamming distances.  Wider codes fill it
        row by row in search order, without a words factor: a child c of
        p across wall i has d(c, u) = d(p, u) + 1 - 2 [u on c's side of
        i].  A graph without codes gets scipy's search from
        every vertex (scipy is imported here only, off the median-graph
        path), in row blocks: its float64 rows are never all held."""
        n, codes = self.n, self._codes
        dist = np.empty((n, n), dtype=np.int32)
        step = max(1, _BLOCK_WORDS // n)
        if not codes:
            from scipy.sparse import csr_array
            from scipy.sparse.csgraph import dijkstra

            indptr, nbr, _ = self._neighbours
            # float64 weights, the type scipy's searches take without a copy
            g = csr_array((np.ones(len(nbr)), nbr, indptr), shape=(n, n))
            for lo in range(0, n, step):
                dist[lo:lo + step] = dijkstra(g, unweighted=True, indices=np.arange(lo, min(n, lo + step)))
            return dist
        planes = codes.planes
        if len(planes) == 1:
            for lo in range(0, n, step):
                dist[lo:lo + step] = np.bitwise_count(planes[0, lo:lo + step, None] ^ planes[0])
            return dist
        half, full = codes.halves(), _all_bits(n)
        level = np.bitwise_count(planes ^ planes[:, :1]).sum(axis=0, dtype=np.intp)
        ea, eb = self.edge_array.T
        up = level[ea] > level[eb]
        edge = np.empty(n, dtype=np.intp)
        edge[np.where(up, ea, eb)] = np.arange(len(up))  # a parent edge per child: any serves
        child = np.argsort(level, kind="stable")[1:]  # in search order
        parent, wall = np.where(up, eb, ea)[edge[child]], codes.edge_wall[edge[child]]
        dist[0] = level
        cut = np.searchsorted(level[child], np.arange(1, level.max() + 2))
        rows = np.empty((step, n), dtype=np.int32)  # one block of rows at a time
        for lo, hi in zip(cut[:-1], cut[1:]):
            for a in range(lo, hi, step):
                c, i = child[a:min(hi, a + step)], wall[a:min(hi, a + step)]
                far = half[i]
                far[_bit_of(half, i, c) == 1] ^= full
                block = np.take(dist, parent[a:a + len(c)], axis=0, out=rows[:len(c)], mode="clip")  # unbuffered
                block += np.unpackbits(far.view(np.uint8), axis=1, count=n, bitorder="little") << 1
                block -= 1
                dist[c] = block
        return dist

    def distance(self, x: int, y: int) -> int:
        # a negative id would wrap around the numpy index
        if not (0 <= x < self.n and 0 <= y < self.n):
            raise ValueError(f"vertex pair ({x},{y}) out of range 0..{self.n - 1}")
        if "dist" not in self.__dict__ and self._codes:
            planes = self._codes.planes
            return int(np.bitwise_count(planes[:, x] ^ planes[:, y]).sum())
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
            self._codes = _wall_codes(self.dist, self.edge_array, *self._neighbours) or False
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
        Computes the interval rows it needs in blocks."""
        n, d = self.n, self.dist

        def rows(a, zs):
            # packed I(a, z) for z in zs, one row per a
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
        front.

        The pairs at distance 2 need no search.  Such v and w differ on
        exactly two walls i and j, so maj(u, v, w) is v's code with bits
        i and j taken from u: one of the four corners of the (i, j)
        square through v and w, whichever u is.  v, w and a common
        neighbour c fill three corners, and a vertex at the fourth would
        be a second common neighbour.  So a pair with two common
        neighbours has every corner, and a pair with one has every
        majority a vertex exactly when no u lies past c on both walls,
        the quadrant of the fourth corner.  The graph is bipartite, so
        its pairs v < w at distance 2 are the ends of the 2-walks v, c, w
        with w > v, one walk per common neighbour; each block of rows v
        sorts the keys v·n + w, keeps the runs of one, and tests each
        distinct quadrant once, named by its two walls and c's side of
        each."""
        n, ws = self.n, 2 * codes.count  # values of 2·wall + side
        indptr, nbr, slot_edge = self._neighbours
        deg = np.diff(indptr)
        wall = codes.edge_wall[slot_edge]
        # rows per block: about _BLOCK_WORDS / 8 2-walks, a word per walk in each array
        walks = max(1, _BLOCK_WORDS // 8)
        work = np.concatenate([[0], np.cumsum(deg[nbr])])[indptr[1:]]
        blocks = -(-int(work[-1]) // walks)
        cuts = [0, *np.searchsorted(work, np.arange(1, blocks) * walks).tolist(), n]
        half = codes.halves()
        # row 2·wall + s: the side of the wall away from codes with bit s
        away = np.stack([half, half ^ _all_bits(n)], axis=1).reshape(ws, half.shape[1])
        for lo, hi in zip(cuts, cuts[1:]):
            # the 2-walks v, c, w from the rows v in lo..hi-1: slot s
            # joins v to c, and slot t joins c to w
            s = np.arange(indptr[lo], indptr[hi])
            count = deg[nbr[s]]
            t = np.repeat(indptr[nbr[s]] - np.cumsum(count) + count, count) + np.arange(count.sum())
            s = np.repeat(s, count)
            v = np.repeat(np.repeat(np.arange(lo, hi), deg[lo:hi]), count)
            later = np.flatnonzero(nbr[t] > v)
            # each walk's index rides below its key v·n + w: a sort is
            # faster than an argsort
            pair, walk = np.divmod(np.sort((v[later] * n + nbr[t[later]]) * len(t) + later), len(t))
            run = np.diff(pair, prepend=-1, append=-1) != 0
            one = walk[run[:-1] & run[1:]]  # one common neighbour
            c = nbr[s[one]]
            # c's two walls, each as 2·wall + c's side of it
            p, q = (2 * i + _bit_of(half, i, c).astype(np.intp) for i in (wall[s[one]], wall[t[one]]))
            key = np.sort(np.minimum(p, q) * ws + np.maximum(p, q))
            # distinct by a sort: np.unique hashes, many times slower here
            p, q = np.divmod(key[np.diff(key, prepend=-1) != 0], ws)
            step = max(1, _BLOCK_WORDS // half.shape[1])
            for k in range(0, len(p), step):
                if (away[p[k:k + step]] & away[q[k:k + step]]).any():  # past c on both walls
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


def refuse_above_vertex_limit(count: int) -> None:
    """MedianGraph's refusal above VERTEX_LIMIT, from a vertex count
    computed before any edge is listed.  A count of 2^64 or more stands
    for any larger one: generators pass such counts capped."""
    if count > VERTEX_LIMIT:
        raise BudgetExceeded(
            f"distance table disabled above {VERTEX_LIMIT} vertices",
            n=count if count < 1 << 64 else "2^64 or more",
        )


def grid(w: int, h: int) -> MedianGraph:
    """The grid of w x h unit squares: vertex i*(h+1) + j at column i,
    row j, refused above VERTEX_LIMIT before any edge is listed."""
    refuse_above_vertex_limit((w + 1) * (h + 1))
    ids = np.arange((w + 1) * (h + 1)).reshape(w + 1, h + 1)
    edges = np.concatenate([
        np.column_stack([ids[:-1].ravel(), ids[1:].ravel()]),
        np.column_stack([ids[:, :-1].ravel(), ids[:, 1:].ravel()]),
    ])
    return MedianGraph(ids.size, edges)


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
