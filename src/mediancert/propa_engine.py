"""Exact certificates that witness-set families average to flatness.

A provider exposes finite point sets S(x, k, l) around each center x.
For level n we form xi_n(x), the average over k in n+1..2n of the
normalized indicators of S(x, k, n), and certify that the l1 variation
between nearby centers is controlled by set-size ratios alone:

  var <= (1/n) * sum_k ||chi_x,k - chi_y,k||
      <= 2*(1 - (1/n) * sum_k |S(x,k-m)| / |S(x,k+m)|)
      <= 2*(1 - p**(-2m/n))

with p the largest set size seen.  The variation and the ratio bound
are computed exactly; the fractional power in the last bound is only
evaluated in floating point, for display.

Row arrays.  A level reads the sets of a center sample once into a
``uint64`` array rows[i, k, :] (centers x (3n+1) x words) with a label
array ``points``: bit u of row (i, k) stands for points[u] in
S(sample[i], k, n); row 0 is empty.  A set is the image of a ball under
the level's ``_endpoint_row(n)``: the end of 3n cube steps toward the
basepoint (cat0), or the first deep point of (y, basepoint) at the
level's scale (coarse).  ``witness_rows`` fills the array of any such
provider, one column per distinct endpoint (36 of 900 at n = 8 on the
30x30 grid); a provider without one has each set read through ``sets``
and packed once, column u standing for point u.  Set sizes,
intersections and the nesting tests are bit counts and ANDs over these
words, whatever the labels.

Pair arrays.  The center pairs of a level are sample positions (i, j, d)
with i < j and integer distance d in 1..n, in the order of a loop over
i, then j.  Every provider gives its metric as one table of integer
numerators over one denominator: d(x, y) = distance_table[x, y] / den
(the graph's distance table over 1, or a coarse metric's ``nums`` over
its ``den``; int32, or Python ints in an object array).  The pairs and
the support radius come from blocks of that table, and eligible_sample's
centers from the basepoint's row.  Pair work runs in blocks whose
temporaries hold about ``_BLOCK`` elements.

Exactness.  Condition (ii) is decided exactly by the nesting sweep, for
every pair of the level that certify reads; each inequality of the
chain above follows from it (the proofs are in ``_chain``'s docstring),
so the chain only computes its two sides.  Per pair, every ratio of the
chain is put over n*D, with D the lcm of the sizes it divides by (x's at
radii n+1-m..2n+m, y's at n+1..2n).  xi of each center is held once
per level as integer weights lcm/|S_k| per point over n*lcm, and a
pair's variation is 2(nD - their overlap), the overlap summed over x's
support.  Where n*D <= 2^61, checked per pair in int64 by floor
division, every numerator (variation, ratio sum, bound) is at most
2nD <= 2^62: int64 is exact.  Other pairs run the same code on Python
ints (object arrays).  Fractions are built only for the row sups, and
floats only pick the candidates for a sup, which is then taken exactly.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .cube_complex import _no_cube, step_map
from .errors import ConditionViolation, EmptySet
from .median_core import MedianGraph, VertexSet, _mask_members, _mask_of, _pack_mask

# Elements in one temporary of the blocked row and pair work.
_BLOCK = 1 << 18

# n * D at or below this keeps every chain numerator within int64.
_INT64_LIMIT = 1 << 61


class SparseL1Vector:
    """Finitely supported map point -> nonnegative rational, held as
    integer numerators over one common denominator."""

    __slots__ = ("_entries", "_scaled")

    def __init__(self, entries: dict[int, Fraction]):
        entries = {k: v for k, v in entries.items() if v != 0}
        for v in entries.values():
            if v < 0:
                raise ValueError("negative entry")
        self._entries: dict[int, Fraction] | None = entries
        self._scaled: tuple[int, dict[int, int]] | None = None

    @classmethod
    def scaled(cls, den: int, nums: dict[int, int]) -> "SparseL1Vector":
        """The vector nums[k] / den; nums are positive integers."""
        v = cls.__new__(cls)
        v._entries = None
        v._scaled = (den, nums)
        return v

    @property
    def entries(self) -> dict[int, Fraction]:
        if self._entries is None:
            den, nums = self._scaled
            self._entries = {k: Fraction(a, den) for k, a in nums.items()}
        return self._entries

    def _common(self) -> tuple[int, dict[int, int]]:
        """(den, nums) with every entry equal to nums[k] / den."""
        if self._scaled is None:
            den = math.lcm(*(v.denominator for v in self._entries.values()))
            self._scaled = (
                den,
                {k: v.numerator * (den // v.denominator) for k, v in self._entries.items()},
            )
        return self._scaled

    def __getitem__(self, k: int) -> Fraction:
        return self.entries.get(k, Fraction(0))

    def support(self):
        return self._common()[1].keys()

    def l1_norm(self) -> Fraction:
        den, nums = self._common()
        return Fraction(sum(nums.values()), den)

    def l1_distance(self, other: "SparseL1Vector") -> Fraction:
        # integers over one common denominator: the same exact sum
        da, a = self._common()
        db, b = other._common()
        den = math.lcm(da, db)
        fa, fb = den // da, den // db
        total = sum(abs(a.get(k, 0) * fa - b.get(k, 0) * fb) for k in a.keys() | b.keys())
        return Fraction(total, den)


def chi(a) -> SparseL1Vector:
    """Indicator of ``a`` scaled to unit l1 norm."""
    size = len(a)
    if size == 0:
        raise EmptySet("cannot normalize the empty set")
    w = Fraction(1, size)
    return SparseL1Vector({int(v): w for v in a})


def chi_l1_identity(a, b) -> tuple[Fraction, Fraction]:
    """Both sides of ||chi_A - chi_B|| = 2*(1 - |A&B| / max(|A|,|B|))."""
    lhs = chi(a).l1_distance(chi(b))
    inter = len(set(a) & set(b))
    rhs = 2 * (1 - Fraction(inter, max(len(a), len(b))))
    return lhs, rhs


class Cat0WitnessProvider:
    """Witness sets on a median graph: S(x, k, l) collects the vertex
    reached after 3l cube steps toward the basepoint from each y within
    distance k of x."""

    name = "cat0"
    den = 1

    def __init__(self, graph: MedianGraph, basepoint: int):
        self.graph = graph
        self.basepoint = int(basepoint)
        self._step: np.ndarray | None = None
        self._endpoints: dict[int, np.ndarray] = {}
        self._sets: dict[tuple[int, int, int], VertexSet] = {}

    @property
    def distance_table(self) -> np.ndarray:
        return self.graph.dist

    def _endpoint_row(self, l: int) -> np.ndarray:
        """Vertex reached after 3l cube steps from each vertex, by 3l
        gathers through the step map.  Every vertex starts a path, so a
        step anywhere that spans no cube raises CornerFailure."""
        row = self._endpoints.get(l)
        if row is None:
            if self._step is None:
                nxt = step_map(self.graph, self.basepoint)
                bad = np.flatnonzero(nxt < 0)
                if len(bad):
                    raise _no_cube(int(bad[0]), self.basepoint)
                self._step = nxt
            row = np.arange(self.graph.n)
            for _ in range(3 * l):
                row = self._step[row]
            self._endpoints[l] = row
        return row

    def sets(self, x: int, k: int, l: int) -> VertexSet:
        if not (1 <= k <= 3 * l):
            raise ValueError(f"radius index {k} outside 1..{3 * l}")
        key = (x, k, l)
        s = self._sets.get(key)
        if s is None:
            if not 0 <= x < self.graph.n:
                raise ValueError(f"center {x} out of range 0..{self.graph.n - 1}")
            hit = np.zeros(self.graph.n, dtype=bool)
            hit[self._endpoint_row(l)[self.graph.dist[x] <= k]] = True
            s = VertexSet(self.graph.n, _pack_mask(hit))
            self._sets[key] = s
        return s


def _mask(s) -> int:
    """A witness set as an int bitmask: a VertexSet's own mask, or a
    plain set of ids (the coarse provider's frozenset) packed once."""
    return s.mask if isinstance(s, VertexSet) else _mask_of(s)


def _bits(words: np.ndarray) -> np.ndarray:
    """The bits of rows of words as 0/1 columns, 64 per word."""
    raw = np.ascontiguousarray(words, dtype="<u8").view(np.uint8)
    return np.unpackbits(raw, axis=-1, bitorder="little")


def witness_rows(provider, centers: list[int], l: int) -> tuple[np.ndarray, np.ndarray]:
    """The sets S(x, k, l) for every center and k = 1..3l as a row array
    over the distinct endpoints, and those endpoints (see the module
    docstring): z is in S(x, k, l) when the point of z's preimage under
    ``provider._endpoint_row(l)`` nearest to x lies within k of x, so x's
    own endpoint is in each.  A point without one, -1 in the row, is no
    column: the first set that would hold it, by center and then k, is
    read through ``sets``, which raises the provider's error."""
    table, den = provider.distance_table, provider.den
    for x in centers:
        if not 0 <= x < len(table):
            raise ValueError(f"center {x} out of range 0..{len(table) - 1}")
    end = provider._endpoint_row(l)
    order = np.argsort(end, kind="stable")
    ends = end[order]
    starts = np.flatnonzero(np.r_[True, ends[1:] != ends[:-1]])
    lost = int(ends[0] < 0)  # the -1s sort first, as one group
    words = -(-(len(starts) - lost) // 64)
    rows = np.zeros((len(centers), 3 * l + 1, words), dtype=np.uint64)
    step = max(1, _BLOCK // len(table))
    for lo in range(0, len(centers), step):
        block = centers[lo:lo + step]
        near = np.minimum.reduceat(table[block][:, order], starts, axis=1)
        bad = np.flatnonzero(near[:, 0] <= 3 * l * den) if lost else []
        if len(bad):
            provider.sets(block[bad[0]], max(1, -(-int(near[bad[0], 0]) // den)), l)
        hit = np.zeros((len(block), 64 * words), dtype=bool)
        for k in range(1, 3 * l + 1):
            hit[:, :len(starts) - lost] = near[:, lost:] <= k * den
            rows[lo:lo + step, k] = np.packbits(hit, axis=1, bitorder="little").view("<u8")
    return rows, ends[starts[lost:]]


def _row_array(provider, centers: list[int], n: int) -> tuple[np.ndarray, np.ndarray]:
    """The level-n row array of the centers and its labels (see the
    module docstring).  Without an endpoint row, sets are read x by x and
    k by k; an empty one raises where it is read."""
    if hasattr(provider, "_endpoint_row"):
        return witness_rows(provider, centers, n)
    masks = []
    for x in centers:
        for k in range(1, 3 * n + 1):
            mask = _mask(provider.sets(x, k, n))
            if not mask:
                raise ConditionViolation(f"S({x},{k},{n}) is empty", x=x, k=k, n=n)
            masks.append(mask)
    words = -(-len(provider.distance_table) // 64)
    rows = np.zeros((len(centers), 3 * n + 1, words), dtype=np.uint64)
    packed = b"".join(m.to_bytes(8 * words, "little") for m in masks)
    rows[:, 1:] = np.frombuffer(packed, dtype="<u8").reshape(len(centers), 3 * n, words)
    return rows, np.arange(64 * words)


def _sizes(rows: np.ndarray) -> np.ndarray:
    return np.bitwise_count(rows).sum(axis=2, dtype=np.int64)


def xi(provider, x: int, n: int) -> SparseL1Vector:
    """Average of the normalized indicators of S(x, k, n) over
    k = n+1 .. 2n, as integer weights lcm/|S_k| over n * lcm(|S_k|)."""
    masks = []
    for k in range(n + 1, 2 * n + 1):
        mask = _mask(provider.sets(x, k, n))
        if not mask:
            raise EmptySet(f"S({x},{k},{n}) is empty")
        masks.append(mask)
    sizes = [mask.bit_count() for mask in masks]
    lcm = math.lcm(*sizes)
    nums: dict[int, int] = {}
    for mask, size in zip(masks, sizes):
        w = lcm // size
        for z in _mask_members(mask):
            nums[z] = nums.get(z, 0) + w
    return SparseL1Vector.scaled(n * lcm, nums)


def variation(provider, x: int, y: int, n: int) -> Fraction:
    return xi(provider, x, n).l1_distance(xi(provider, y, n))


@dataclass
class ConditionReport:
    n: int
    sample_size: int
    support_radius: int
    p_n: int
    p_by_k: dict[int, int]
    pairs_checked: int
    saturated_sets: int
    # the level's row array and its checked pairs as sample positions
    # and distance, (i, j, d) in the rows of a 3 x pairs array, which
    # certify reuses rather than reading the sets again
    rows: np.ndarray | None = field(default=None, repr=False, compare=False)
    pairs: np.ndarray | None = field(default=None, repr=False, compare=False)


def _support_radius(provider, sample: list[int], rows: np.ndarray, points: np.ndarray) -> int:
    """The farthest member of any set of a center, from that center,
    rounded up to an integer."""
    table = provider.distance_table
    reach = np.bitwise_or.reduce(rows, axis=1)
    radius = 0
    points = points[:len(table)]
    step = max(1, _BLOCK // max(len(points), 1))
    for lo in range(0, len(sample), step):
        hit = _bits(reach[lo:lo + step])[:, :len(points)]
        far = table[sample[lo:lo + step]][:, points]
        radius = max(radius, int(np.where(hit, far, 0).max(initial=0)))
    return -(-radius // provider.den)


def _center_pairs(provider, sample: list[int], n: int) -> np.ndarray:
    """The pair array (i, j, d) of the level (see the module docstring)."""
    table, den = provider.distance_table, provider.den
    cols = np.array(sample, dtype=np.intp)
    step = max(1, _BLOCK // max(len(cols), 1))
    parts = [np.zeros((3, 0), dtype=np.int64)]
    for lo in range(0, len(cols), step):
        d = table[cols[lo:lo + step]][:, cols]
        # den <= d <= n * den, on j > i only
        near = (d >= den) & (d <= n * den)
        near &= np.arange(len(cols)) > np.arange(lo, lo + len(d))[:, None]
        i, j = np.nonzero(near)
        # whole distances only; Python operators take object numerators
        d = d[i, j]
        whole = d % den == 0
        parts.append(np.stack([i[whole] + lo, j[whole], (d[whole] // den).astype(np.int64)]))
    return np.concatenate(parts, axis=1)


def _nesting_sweep(rows: np.ndarray, sample: list[int], pairs: np.ndarray, n: int) -> None:
    """Condition (ii) over blocks of pairs.  Pairs at one distance d read
    the same radii, so a block reads the whole rows of its pairs once and
    slices them per distance: a pair fails where a member of S(x, k-d) or
    S(y, k-d) escapes S_x,k & S_y,k, or S_x,k | S_y,k escapes S(x, k+d) or
    S(y, k+d).  The first failing pair is then walked through k, center
    (x before y) and test (inner before union) to name its failure."""
    step = max(1, _BLOCK // rows[0].size)
    for lo in range(0, pairs.shape[1], step):
        i, j, d = pairs[:, lo:lo + step]
        bad = np.zeros(len(i), dtype=bool)
        for dist in np.unique(d):
            at = np.flatnonzero(d == dist)
            # radii n+1-d..2n+d: inner, middle and outer ranges of n
            span = slice(n + 1 - dist, 2 * n + 1 + dist)
            x, y = rows[i[at], span], rows[j[at], span]
            inner, mid, outer = (slice(s, s + n) for s in (0, dist, 2 * dist))
            both, union = x[:, mid] & y[:, mid], x[:, mid] | y[:, mid]
            bad[at] = (
                ((x[:, inner] | y[:, inner]) & ~both) | (union & ~(x[:, outer] & y[:, outer]))
            ).any(axis=(1, 2))
        if not bad.any():
            continue
        p = int(np.argmax(bad))
        dist = int(d[p])
        for k in range(n + 1, 2 * n + 1):
            rx, ry = rows[i[p], k], rows[j[p], k]
            both, union = rx & ry, rx | ry
            for c, far in ((i[p], j[p]), (j[p], i[p])):
                if (rows[c, k - dist] & ~both).any():
                    raise ConditionViolation(
                        "inner witness set escapes the intersection",
                        x=sample[c], y=sample[far], k=k, n=n, d=dist,
                    )
                if (union & ~rows[c, k + dist]).any():
                    raise ConditionViolation(
                        "witness union escapes the outer set",
                        x=sample[c], y=sample[far], k=k, n=n, d=dist,
                    )


def verify_conditions(provider, n: int, sample, max_pairs: int | None = None) -> ConditionReport:
    """Check the three structural conditions over a center sample:
    (i) every member of S(x, k, n) stays within a radius that depends
    only on n, (ii) for centers at distance d <= n the sets nest,
    S(x, k-d, n) inside S(x,k,n) & S(y,k,n) and
    S(x,k,n) | S(y,k,n) inside S(x, k+d, n), and (iii) set sizes are
    bounded; the maxima are reported, violations raise.  The sample
    must not be empty."""
    sample = [int(x) for x in sample]
    if not sample:
        raise ValueError("the center sample is empty")
    rows, points = _row_array(provider, sample, n)
    sizes = _sizes(rows)
    p_by_k = {k: int(sizes[:, k].max()) for k in range(1, 3 * n + 1)}
    saturated = 0
    for u in np.flatnonzero(points == provider.basepoint):
        lone = np.zeros(rows.shape[2], dtype=np.uint64)
        lone[u // 64] = 1 << int(u) % 64
        saturated = int((rows[:, 1:] == lone).all(axis=2).sum())
    radius = _support_radius(provider, sample, rows, points)
    pairs = _center_pairs(provider, sample, n)
    if max_pairs is not None and pairs.shape[1] > max_pairs:
        step = pairs.shape[1] / max_pairs
        pairs = pairs[:, [int(i * step) for i in range(max_pairs)]]
    _nesting_sweep(rows, sample, pairs, n)
    return ConditionReport(
        n=n,
        sample_size=len(sample),
        support_radius=radius,
        p_n=max(p_by_k.values()),
        p_by_k=p_by_k,
        pairs_checked=pairs.shape[1],
        saturated_sets=saturated,
        rows=rows,
        pairs=pairs,
    )


@dataclass
class CertificateRow:
    m: int
    sup_variation: Fraction
    amgm_bound: Fraction
    p_bound_float: float
    pair_count: int
    # pairs whose chain ran on Python ints: past the int64 bound
    bigint_pairs: int = field(default=0, compare=False)


@dataclass
class PropACertificate:
    provider: str
    basepoint: int
    n: int
    support_radius: int
    p_n: int
    rows: list[CertificateRow] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "provider": self.provider,
            "basepoint": self.basepoint,
            "support_radius": self.support_radius,
            "p_n": self.p_n,
            "rows": [
                {
                    "m": r.m,
                    "sup_variation": f"{r.sup_variation.numerator}/{r.sup_variation.denominator}",
                    "amgm_bound": f"{r.amgm_bound.numerator}/{r.amgm_bound.denominator}",
                    "p_bound_float": r.p_bound_float,
                }
                for r in self.rows
            ],
        }

    def csv_rows(self) -> list[list]:
        return [
            [
                self.provider,
                self.n,
                r.m,
                r.sup_variation.numerator,
                r.sup_variation.denominator,
                r.amgm_bound.numerator,
                r.amgm_bound.denominator,
                self.p_n,
                r.p_bound_float,
                self.support_radius,
            ]
            for r in self.rows
        ]


CSV_HEADER = [
    "provider", "n", "m",
    "sup_variation_num", "sup_variation_den",
    "amgm_num", "amgm_den",
    "p_n", "p_bound_float", "support_radius",
]


def _lcm(cols: list[np.ndarray], limit: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise lcm of integer columns, and where it stays <= limit;
    past the limit a row's lcm stops growing, so int64 never wraps."""
    out = np.ones(len(cols[0]), dtype=cols[0].dtype)
    ok = np.ones(len(out), dtype=bool)
    for s in cols:
        q = s // np.gcd(out, s)
        if limit is not None:
            ok &= out <= limit // q
            q = np.where(ok, q, 1)
        out = out * q
    return out, ok


def _pair_den(sizes, i, j, m, n, limit=None):
    """Per pair, the lcm D of x's sizes at radii n+1-m..2n+m and y's at
    n+1..2n, which every ratio of its chain divides."""
    cols = [sizes[i, k] for k in range(n + 1 - m, 2 * n + m + 1)]
    return _lcm(cols + [sizes[j, k] for k in range(n + 1, 2 * n + 1)], limit)


def _xi_weights(rows: np.ndarray, sizes: np.ndarray, n: int) -> tuple:
    """xi of each center as integers over n * lcm: its lcm(|S_k|), the
    weights summed per column on the union of the supports (a zero
    column last), its support as a padded list of columns, and its
    weights there.  In int64 a center whose n * lcm passes the bound
    gets a short lcm; only pairs that run on Python ints read it."""
    cols = [sizes[:, k] for k in range(n + 1, 2 * n + 1)]
    lcm = _lcm(cols, _INT64_LIMIT // n if sizes.dtype == np.int64 else None)[0]
    union = np.flatnonzero(_bits(np.bitwise_or.reduce(rows[:, n + 1:2 * n + 1], axis=(0, 1))))
    total = 0
    for k, size in zip(range(n + 1, 2 * n + 1), cols):
        total = total + (lcm // size)[:, None] * _bits(rows[:, k])[:, union]
    nums = np.zeros((len(rows), len(union) + 1), dtype=sizes.dtype)
    nums[:, :-1] = total
    held = nums != 0
    counts = held.sum(axis=1)
    c, z = np.nonzero(held)
    support = np.full((len(rows), counts.max(initial=0)), len(union))
    support[c, np.arange(len(c)) - np.repeat(np.cumsum(counts) - counts, counts)] = z
    return lcm, nums, support, np.take_along_axis(nums, support, axis=1)


def _chain_terms(sizes, weights, i, j, den, m, n):
    """The variation and bound numerators over n * den of the pairs
    (i[p], j[p]), from their centers' sizes and xi weights, in the dtype
    of ``sizes``: int64 within the bound of the module docstring, or
    object for Python ints."""
    lcm, nums, support, own = weights
    var = np.zeros(len(i), dtype=sizes.dtype)
    bound = np.zeros(len(i), dtype=sizes.dtype)
    step = max(1, _BLOCK // max(n, support.shape[1]))
    for lo in range(0, len(i), step):
        x, y, d = i[lo:lo + step], j[lo:lo + step], den[lo:lo + step]
        # x's inner sizes a_k at k-m and outer sizes b_k at k+m
        a, b = sizes[x, n + 1 - m:2 * n + 1 - m], sizes[x, n + 1 + m:2 * n + 1 + m]
        bound[lo:lo + step] = 2 * (n * d - (a * (d[:, None] // b)).sum(axis=1))
        # sum over z of |fx * xi_x(z) - fy * xi_y(z)| over n * d: both
        # vectors sum to n * d, so it is 2 * (n * d - their overlap),
        # the sum of the smaller weight over x's support
        fx, fy = (d // lcm[x])[:, None], (d // lcm[y])[:, None]
        on_x = fy * np.take(nums, y[:, None] * nums.shape[1] + support[x])
        var[lo:lo + step] = 2 * (n * d - np.minimum(fx * own[x], on_x).sum(axis=1))
    return var, bound


def _sup(nums: np.ndarray, dens: np.ndarray) -> Fraction:
    """The exact max of nums / dens (nonnegative).  Each float quotient
    is within 2^-51 of its value, so the max is among those within 2^-40
    of the largest; only these are compared, in integers."""
    f = (nums / dens).astype(float)
    if not len(f) or f.max() == 0:
        return Fraction(0)
    best = None
    for p in np.flatnonzero(f >= f.max() * (1 - 2.0**-40)):
        a, b = int(nums[p]), int(dens[p])
        if best is None or a * best[1] > best[0] * b:
            best = (a, b)
    return Fraction(*best)


def _chain(rows, sizes, weights, i, j, m, n) -> tuple[Fraction, Fraction, int]:
    """The sups, over the pairs (i[p], j[p]) at distance m, of the
    measured variation ||xi_x - xi_y|| and of the ratio bound
    2(1 - (1/n) sum_k a_k/b_k), and how many pairs ran on Python ints;
    from the level's rows, their int64 sizes and the int64 xi weights of
    _xi_weights.  For k = n+1..2n, a_k = |S(x, k-m)|, b_k = |S(x, k+m)|,
    I = |S_x,k & S_y,k| and w = max(|S_x,k|, |S_y,k|).

    Nothing is checked here: every step of the chain follows from
    condition (ii), which verify_conditions has decided on the same rows
    for the same pairs (S(x, k-m) inside S_x,k & S_y,k, and S_x,k | S_y,k
    inside S(x, k+m)), and from no set being empty.  Per pair:
    - per radius, 2(w - I)/w <= 2(1 - a_k/b_k): nesting gives a_k <= I
      and w <= |S_x,k | S_y,k| <= b_k, so a_k * w <= I * b_k;
    - var <= (1/n) sum_k ||chi_x,k - chi_y,k|| by the triangle
      inequality, each norm being 2(w - I)/w (chi_l1_identity), and that
      mean is at most the bound by the line above, summed over k;
    - (1/n) sum_k a_k/b_k >= (prod_k a_k/b_k)^(1/n) by AM-GM;
    - prod_k a_k/b_k = head/tail, head the product of x's sizes at radii
      n+1-m..n+m and tail at 2n+1-m..2n+m (times prod_k b_k * tail, both
      sides are the product of x's sizes at n+1-m..2n+m, for every
      0 <= m <= n); head >= 1, and tail <= p^(2m), p the largest size at
      radii 1..3n, which hold 2n+m;
    so var <= bound <= 2(1 - p^(-2m/n)).  The same holds for the sups:
    sup var <= sup bound pair by pair, and the pair attaining the sup of
    the bound has a mean ratio of at least p^(-2m/n)."""
    if not len(i):
        return Fraction(0), Fraction(0), 0
    den, fast = _pair_den(sizes, i, j, m, n, _INT64_LIMIT // n)
    parts = []
    if fast.any():
        idx = np.flatnonzero(fast)
        var, bound = _chain_terms(sizes, weights, i[idx], j[idx], den[idx], m, n)
        parts.append((var, bound, n * den[idx]))
    if not fast.all():
        idx = np.flatnonzero(~fast)
        centers, inverse = np.unique(np.concatenate([i[idx], j[idx]]), return_inverse=True)
        x, y = inverse[:len(idx)], inverse[len(idx):]
        big, wide = sizes[centers].astype(object), rows[centers]
        big_den = _pair_den(big, x, y, m, n)[0]
        var, bound = _chain_terms(big, _xi_weights(wide, big, n), x, y, big_den, m, n)
        parts.append((var, bound, n * big_den))
    return (
        max(_sup(var, d) for var, _, d in parts),
        max(_sup(bound, d) for _, bound, d in parts),
        int(len(i) - fast.sum()),
    )


def _check_pair_chain(provider, x, y, m, n) -> tuple[Fraction, Fraction]:
    """The chain for one center pair m apart, read from the provider:
    the nesting sweep on the pair at d = m, then its measured variation
    and its rational ratio bound."""
    if not 0 <= m <= n:
        raise ValueError(f"pair distance {m} outside 0..{n}")
    rows, _ = _row_array(provider, [x, y], n)
    sizes = _sizes(rows)
    _nesting_sweep(rows, [x, y], np.array([[0], [1], [m]]), n)
    return _chain(rows, sizes, _xi_weights(rows, sizes, n), np.array([0]), np.array([1]), m, n)[:2]


def certify(provider, n_list, m_list, sample) -> list[PropACertificate]:
    """One certificate per level n; each certificate has a row per
    center-pair distance m with the sup of the measured variation, the
    sup of the rational ratio bound, and the float display of the size
    bound 2*(1 - p**(-2m/n)).  The three are in that order once
    verify_conditions passes (see _chain).  Rows with m outside 1..n
    hold no pairs."""
    sample = [int(x) for x in sample]
    certs = []
    for n in n_list:
        report = verify_conditions(provider, n, sample)
        i, j, d = report.pairs
        sizes = _sizes(report.rows)
        weights = _xi_weights(report.rows, sizes, n) if len(d) else None
        cert = PropACertificate(
            provider=provider.name,
            basepoint=provider.basepoint,
            n=n,
            support_radius=report.support_radius,
            p_n=report.p_n,
        )
        for m in m_list:
            at_m = d == m
            sup_var, sup_bound, bigint = _chain(report.rows, sizes, weights, i[at_m], j[at_m], m, n)
            cert.rows.append(
                CertificateRow(
                    m=m,
                    sup_variation=sup_var,
                    amgm_bound=sup_bound,
                    p_bound_float=2.0 * (1.0 - report.p_n ** (-2.0 * m / n)),
                    pair_count=int(at_m.sum()),
                    bigint_pairs=bigint,
                )
            )
        certs.append(cert)
    return certs


def eligible_sample(provider, n_max: int, min_distance: int | None = None,
                    limit: int | None = None, seed: int = 0) -> list[int]:
    """Centers far enough from the basepoint that level-n_max sets have
    room; falls back to all points when the margin empties the space."""
    if min_distance is None:
        min_distance = 3 * n_max + 1
    table, b = provider.distance_table, provider.basepoint
    if not 0 <= b < len(table):
        raise ValueError(f"basepoint {b} out of range 0..{len(table) - 1}")
    # the metric is symmetric: the basepoint's row
    pts = np.flatnonzero(table[b] >= min_distance * provider.den).tolist()
    if not pts:
        pts = list(range(len(table)))
    if limit is not None and len(pts) > limit:
        pts = sorted(random.Random(seed).sample(pts, limit))
    return pts
