"""Exact certificates that witness-set families average to flatness.

A provider exposes finite point sets S(x, k, l) around each center x.
For level n we form xi_n(x), the average over k in n+1..2n of the
normalized indicators of S(x, k, n), and certify that the l1 variation
between nearby centers is controlled by set-size ratios alone:

  var <= (1/n) * sum_k ||chi_x,k - chi_y,k||
      <= 2*(1 - (1/n) * sum_k |S(x,k-m)| / |S(x,k+m)|)
      <= 2*(1 - p**(-2m/n))

with p the largest set size seen.  Every inequality is decided in exact
rational arithmetic; the fractional power in the last bound is only
evaluated in floating point for display, with the comparison done on
integer powers after clearing denominators.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .cube_complex import normal_cube_path
from .errors import ConditionViolation, EmptySet
from .median_core import MedianGraph, VertexSet, _mask_members, _mask_of, _pack_mask


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

    def __init__(self, graph: MedianGraph, basepoint: int):
        self.graph = graph
        self.basepoint = int(basepoint)
        self._endpoints: dict[int, np.ndarray] = {}
        self._sets: dict[tuple[int, int, int], VertexSet] = {}

    @property
    def point_count(self) -> int:
        return self.graph.n

    def distance(self, x: int, y: int) -> int:
        return self.graph.distance(x, y)

    def _endpoint_row(self, l: int) -> np.ndarray:
        row = self._endpoints.get(l)
        if row is None:
            row = np.fromiter(
                (
                    normal_cube_path(self.graph, y, self.basepoint).vertex_after(3 * l)
                    for y in range(self.graph.n)
                ),
                dtype=np.int32,
                count=self.graph.n,
            )
            self._endpoints[l] = row
        return row

    def sets(self, x: int, k: int, l: int) -> VertexSet:
        if not (1 <= k <= 3 * l):
            raise ValueError(f"radius index {k} outside 1..{3 * l}")
        key = (x, k, l)
        s = self._sets.get(key)
        if s is None:
            hit = np.zeros(self.graph.n, dtype=bool)
            hit[self._endpoint_row(l)[self.graph.dist[x] <= k]] = True
            s = VertexSet(self.graph.n, _pack_mask(hit))
            self._sets[key] = s
        return s


def _mask(s) -> int:
    """A witness set as an int bitmask: a VertexSet's own mask, or a
    plain set of ids (the coarse provider's frozenset) packed once."""
    return s.mask if isinstance(s, VertexSet) else _mask_of(s)


def _witness_row(provider, x: int, n: int) -> list[int]:
    """Masks of S(x, k, n) for k = 1..3n at row[k] (row[0] is unused);
    each set is read once, in order of k, and an empty one raises."""
    row = [0]
    for k in range(1, 3 * n + 1):
        mask = _mask(provider.sets(x, k, n))
        if not mask:
            raise ConditionViolation(f"S({x},{k},{n}) is empty", x=x, k=k, n=n)
        row.append(mask)
    return row


def xi(provider, x: int, n: int, row: list[int] | None = None) -> SparseL1Vector:
    """Average of the normalized indicators of S(x, k, n) over
    k = n+1 .. 2n, as integer weights lcm/|S_k| over n * lcm(|S_k|).
    ``row`` is x's witness row when the caller has read it already."""
    masks = []
    for k in range(n + 1, 2 * n + 1):
        mask = row[k] if row is not None else _mask(provider.sets(x, k, n))
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
    # the checked pairs (x, y, d) and each center's witness row, which
    # certify reuses rather than reading the sets again
    pairs: list[tuple[int, int, int]] = field(default_factory=list, repr=False, compare=False)
    rows: dict[int, list[int]] = field(default_factory=dict, repr=False, compare=False)


def verify_conditions(provider, n: int, sample, max_pairs: int | None = None) -> ConditionReport:
    """Check the three structural conditions over a center sample:
    (i) every member of S(x, k, n) stays within a radius that depends
    only on n, (ii) for centers at distance d <= n the sets nest,
    S(x, k-d, n) inside S(x,k,n) & S(y,k,n) and
    S(x,k,n) | S(y,k,n) inside S(x, k+d, n), and (iii) set sizes are
    bounded; the maxima are reported, violations raise."""
    sample = [int(x) for x in sample]
    radius = 0
    p_n = 0
    p_by_k: dict[int, int] = {}
    saturated = 0
    lone_base = 1 << provider.basepoint
    rows: dict[int, list[int]] = {}
    for x in sample:
        row = rows[x] = _witness_row(provider, x, n)
        reach = 0  # union of the sets at x: the radius is its farthest member
        for k in range(1, 3 * n + 1):
            mask = row[k]
            size = mask.bit_count()
            reach |= mask
            p_n = max(p_n, size)
            p_by_k[k] = max(p_by_k.get(k, 0), size)
            saturated += mask == lone_base
        if reach:
            far = max(math.ceil(provider.distance(x, z)) for z in _mask_members(reach))
            radius = max(radius, far)
    # enumerated once per level: certify filters this list by d
    distance = provider.distance
    pairs = []
    for i, x in enumerate(sample):
        for y in sample[i + 1:]:
            d = distance(x, y)
            if 1 <= d <= n and d == int(d):
                pairs.append((x, y, int(d)))
    if max_pairs is not None and len(pairs) > max_pairs:
        step = len(pairs) / max_pairs
        pairs = [pairs[int(i * step)] for i in range(max_pairs)]
    for x, y, d in pairs:
        rx, ry = rows[x], rows[y]
        for k in range(n + 1, 2 * n + 1):
            both = rx[k] & ry[k]
            union = rx[k] | ry[k]
            for c, far, rc in ((x, y, rx), (y, x, ry)):
                if rc[k - d] & ~both:
                    raise ConditionViolation(
                        "inner witness set escapes the intersection",
                        x=c, y=far, k=k, n=n, d=d,
                    )
                if union & ~rc[k + d]:
                    raise ConditionViolation(
                        "witness union escapes the outer set",
                        x=c, y=far, k=k, n=n, d=d,
                    )
    return ConditionReport(
        n=n,
        sample_size=len(sample),
        support_radius=radius,
        p_n=p_n,
        p_by_k=p_by_k,
        pairs_checked=len(pairs),
        saturated_sets=saturated,
        pairs=pairs,
        rows=rows,
    )


@dataclass
class CertificateRow:
    m: int
    sup_variation: Fraction
    amgm_bound: Fraction
    p_bound_float: float
    pair_count: int


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


def _check_pair_chain(provider, x, y, m, n, p_n, xis, rows=None) -> tuple[Fraction, Fraction]:
    """Exact inequality chain for one center pair; returns the measured
    variation and the rational ratio bound.  Per radius k, with
    I = |S_x & S_y|, M = max(|S_x|, |S_y|) and inner/outer sizes a/b,
    the norm is 2(M-I)/M and the ratio a/b; every comparison is made on
    integers after clearing denominators.  ``rows`` maps centers to
    their witness rows; without it the rows of x and y are read here."""
    if not 0 <= m <= n:
        raise ValueError(f"pair distance {m} outside 0..{n}")
    if rows is None:
        rows = {x: _witness_row(provider, x, n), y: _witness_row(provider, y, n)}
    rx, ry = rows[x], rows[y]
    var = xis[x].l1_distance(xis[y])
    gaps, widths, inners, outers = [], [], [], []
    for k in range(n + 1, 2 * n + 1):
        sx, sy = rx[k], ry[k]
        inner, outer = rx[k - m], rx[k + m]
        both = sx & sy
        if inner & ~both or (sx | sy) & ~outer:
            raise ConditionViolation(
                "nesting failed inside the certificate chain",
                x=x, y=y, k=k, n=n, m=m,
            )
        width = max(sx.bit_count(), sy.bit_count())
        a, b = inner.bit_count(), outer.bit_count()
        gap = width - both.bit_count()
        # norm > 2 * (1 - ratio)
        if gap * b > (b - a) * width:
            raise ConditionViolation(
                "per-radius norm exceeds its ratio bound",
                x=x, y=y, k=k, n=n, m=m,
            )
        gaps.append(gap)
        widths.append(width)
        inners.append(a)
        outers.append(b)
    norm_den = math.lcm(*widths)
    mean_norm = Fraction(2 * sum(g * (norm_den // w) for g, w in zip(gaps, widths)), n * norm_den)
    ratio_den = math.lcm(*outers)
    ratio_sum = sum(a * (ratio_den // b) for a, b in zip(inners, outers))
    mean = Fraction(ratio_sum, n * ratio_den)
    bound = 2 * (1 - mean)
    if var > mean_norm or mean_norm > bound:
        raise ConditionViolation(
            "variation chain is out of order", x=x, y=y, n=n, m=m,
        )
    # the ratio product is prod_a / prod_b
    prod_a, prod_b = math.prod(inners), math.prod(outers)
    if mean.numerator**n * prod_b < prod_a * mean.denominator**n:
        raise ConditionViolation(
            "mean-vs-product inequality failed", x=x, y=y, n=n, m=m,
        )
    if 2 * m <= n:
        head = math.prod(rx[j].bit_count() for j in range(n + 1 - m, n + m + 1))
        tail = math.prod(rx[j].bit_count() for j in range(2 * n + 1 - m, 2 * n + m + 1))
        if prod_a * tail != head * prod_b:
            raise ConditionViolation(
                "ratio product failed to telescope", x=x, y=y, n=n, m=m,
            )
    if prod_a * p_n ** (2 * m) < prod_b:
        raise ConditionViolation(
            "ratio product undershoots the size bound", x=x, y=y, n=n, m=m,
        )
    return var, bound


def certify(provider, n_list, m_list, sample) -> list[PropACertificate]:
    """One certificate per level n; each certificate has a row per
    center-pair distance m with the sup of the measured variation, the
    sup of the rational ratio bound, and the float display of the size
    bound 2*(1 - p**(-2m/n)).  All orderings are verified exactly.
    Rows with m outside 1..n hold no pairs."""
    sample = [int(x) for x in sample]
    certs = []
    for n in n_list:
        report = verify_conditions(provider, n, sample)
        p_n = report.p_n
        rows = report.rows
        xis = {x: xi(provider, x, n, rows[x]) for x in sample}
        cert = PropACertificate(
            provider=provider.name,
            basepoint=provider.basepoint,
            n=n,
            support_radius=report.support_radius,
            p_n=p_n,
        )
        for m in m_list:
            pairs = [(x, y) for x, y, d in report.pairs if d == m]
            sup_var = Fraction(0)
            sup_bound = Fraction(0)
            for x, y in pairs:
                var, bound = _check_pair_chain(provider, x, y, m, n, p_n, xis, rows)
                sup_var = max(sup_var, var)
                sup_bound = max(sup_bound, bound)
            # sup_var <= sup_bound <= 2*(1 - p**(-2m/n)), the last
            # comparison done on integer powers.
            if sup_var > sup_bound:
                raise ConditionViolation("row ordering failed", n=n, m=m)
            if (1 - sup_bound / 2) ** n * p_n ** (2 * m) < 1:
                raise ConditionViolation(
                    "ratio bound exceeds the size bound", n=n, m=m,
                )
            cert.rows.append(
                CertificateRow(
                    m=m,
                    sup_variation=sup_var,
                    amgm_bound=sup_bound,
                    p_bound_float=2.0 * (1.0 - p_n ** (-2.0 * m / n)),
                    pair_count=len(pairs),
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
    pts = [
        x for x in range(provider.point_count)
        if provider.distance(x, provider.basepoint) >= min_distance
    ]
    if not pts:
        pts = list(range(provider.point_count))
    if limit is not None and len(pts) > limit:
        pts = sorted(random.Random(seed).sample(pts, limit))
    return pts
