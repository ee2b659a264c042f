import contextlib
import io
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mediancert.coarse_median import CoarseMedianInstance, CoarseParams, CoarseWitnessProvider, coarsened_grid
from mediancert.errors import ConditionViolation, EmptySet, MedianCertError
from mediancert.harness_cli import generate, main
from mediancert.median_core import MedianGraph, VertexSet
from mediancert.propa_engine import (
    CSV_HEADER,
    Cat0WitnessProvider,
    CertificateRow,
    ConditionReport,
    PropACertificate,
    SparseL1Vector,
    _check_pair_chain,
    _mask,
    certify,
    chi,
    chi_l1_identity,
    eligible_sample,
    variation,
    verify_conditions,
    witness_rows,
    xi,
)


class DictProvider:
    """Hand-built witness sets for exercising the failure paths, on
    points 0..n_points-1 of a line."""

    name = "dict"
    den = 1

    def __init__(self, n_points, table, basepoint=0):
        self.n_points = n_points
        self.basepoint = basepoint
        self.table = table

    @property
    def distance_table(self):
        line = np.arange(self.n_points)
        return abs(line[:, None] - line)

    def sets(self, x, k, l):
        return VertexSet.of(self.n_points, self.table[(x, k)])


def table_distance(provider, x, y):
    """d(x, y) as the engine reads it: the table entry over den."""
    return Fraction(int(provider.distance_table[x, y]), provider.den)


# -- normalized indicators ----------------------------------------------


def test_chi_examples():
    v = chi([3])
    assert v.entries == {3: Fraction(1)}
    v = chi([0, 1, 2, 3])
    assert all(v[i] == Fraction(1, 4) for i in range(4))
    assert v[9] == 0
    assert v.l1_norm() == 1
    with pytest.raises(EmptySet):
        chi([])


def test_sparse_vector_basics():
    a = SparseL1Vector({1: Fraction(1, 2), 2: Fraction(0)})
    assert set(a.support()) == {1}
    b = SparseL1Vector({1: Fraction(1, 3), 5: Fraction(2, 3)})
    assert a.l1_distance(b) == b.l1_distance(a) == Fraction(1, 6) + Fraction(2, 3)
    with pytest.raises(ValueError):
        SparseL1Vector({0: Fraction(-1, 2)})


def test_chi_l1_identity_frozen_and_random():
    assert chi_l1_identity([1, 2, 3], [3, 4]) == (Fraction(4, 3), Fraction(4, 3))
    lhs, rhs = chi_l1_identity([7], [7])
    assert lhs == rhs == 0
    lhs, rhs = chi_l1_identity([1, 2], [3, 4, 5])
    assert lhs == rhs == 2
    rng = random.Random(5)
    for _ in range(200):
        a = rng.sample(range(40), rng.randint(1, 12))
        b = rng.sample(range(40), rng.randint(1, 12))
        lhs, rhs = chi_l1_identity(a, b)
        assert lhs == rhs


# -- averaged indicators on a path --------------------------------------


@pytest.fixture(scope="module")
def path13():
    g = MedianGraph(13, [(i, i + 1) for i in range(12)])
    return Cat0WitnessProvider(g, 0)


def test_xi_level_one_is_single_indicator(path13):
    for x in (4, 8, 12):
        got = xi(path13, x, 1)
        want = chi(path13.sets(x, 2, 1))
        assert got.entries == want.entries
        assert got.l1_norm() == 1


def test_variation_basics(path13):
    assert variation(path13, 7, 7, 1) == 0
    # clipped window at the far end loses a point, the worst pair
    assert variation(path13, 11, 12, 1) == Fraction(1, 2)
    assert variation(path13, 7, 8, 1) == Fraction(2, 5)


def test_path_certificate_frozen(path13):
    sample = eligible_sample(path13, 1)
    assert sample == list(range(4, 13))
    cert = certify(path13, [1], [1], sample)[0]
    assert cert.provider == "cat0" and cert.n == 1 and cert.p_n == 7
    (row,) = cert.rows
    assert row.m == 1 and row.pair_count == 8
    assert row.sup_variation == Fraction(1, 2)
    assert row.amgm_bound == Fraction(8, 7)
    assert row.p_bound_float == pytest.approx(2 * (1 - 7 ** (-2.0)))
    assert row.sup_variation <= row.amgm_bound


def test_report_on_saturated_grid(grid6):
    prov = Cat0WitnessProvider(grid6, 0)
    sample = eligible_sample(prov, 2)
    assert len(sample) == 10
    rep = verify_conditions(prov, 2, sample)
    # 3n = 6 cube steps of width 2 cover the whole 10-step diameter,
    # so every witness set collapses to the basepoint
    assert rep.p_n == 1
    assert rep.support_radius == 10
    assert rep.pairs_checked == 27
    assert rep.saturated_sets == 60
    assert rep.p_by_k == {k: 1 for k in range(1, 7)}


def test_certify_skips_m_above_n(path13):
    cert = certify(path13, [1], [1, 5], eligible_sample(path13, 1))[0]
    tail = cert.rows[1]
    assert tail.m == 5 and tail.pair_count == 0
    assert tail.sup_variation == 0 and tail.amgm_bound == 0


def test_empty_sample_refused(path13):
    with pytest.raises(ValueError, match="sample is empty"):
        verify_conditions(path13, 2, [])
    with pytest.raises(ValueError, match="sample is empty"):
        certify(path13, [2], [1], [])


def test_max_pairs_subsampling(path13):
    sample = eligible_sample(path13, 1)
    rep = verify_conditions(path13, 1, sample, max_pairs=3)
    assert rep.pairs_checked == 3


# -- serialization -------------------------------------------------------


def test_certificate_serialization(path13):
    cert = certify(path13, [1], [1], eligible_sample(path13, 1))[0]
    blob = cert.to_json_dict()
    assert blob["rows"][0]["sup_variation"] == "1/2"
    assert blob["rows"][0]["amgm_bound"] == "8/7"
    assert blob["p_n"] == 7 and blob["provider"] == "cat0"
    rows = cert.csv_rows()
    assert all(len(r) == len(CSV_HEADER) for r in rows)
    assert rows[0][:5] == ["cat0", 1, 1, 1, 2]


# -- structural condition failures --------------------------------------


def test_empty_witness_set_rejected():
    table = {(0, k): [1] for k in range(1, 4)}
    table[(0, 2)] = []
    prov = DictProvider(4, table)
    with pytest.raises(ConditionViolation) as err:
        verify_conditions(prov, 1, [0])
    assert err.value.rule == "witness-conditions"
    assert err.value.context["k"] == 2
    with pytest.raises(EmptySet):
        xi(prov, 0, 1)


def test_inner_escape_rejected():
    table = {
        (0, 1): [1], (0, 2): [1], (0, 3): [1, 2],
        (1, 1): [2], (1, 2): [2], (1, 3): [1, 2],
    }
    prov = DictProvider(4, table)
    with pytest.raises(ConditionViolation) as err:
        verify_conditions(prov, 1, [0, 1])
    assert "intersection" in str(err.value)


def test_union_escape_rejected():
    table = {
        (0, 1): [1], (0, 2): [1, 2], (0, 3): [1, 2],
        (1, 1): [1], (1, 2): [1, 3], (1, 3): [1, 3],
    }
    prov = DictProvider(4, table)
    with pytest.raises(ConditionViolation) as err:
        verify_conditions(prov, 1, [0, 1])
    assert "outer" in str(err.value)


def test_clean_dict_provider_passes():
    table = {
        (0, 1): [1], (0, 2): [1, 2], (0, 3): [1, 2, 3],
        (1, 1): [1], (1, 2): [1, 2], (1, 3): [1, 2, 3],
    }
    prov = DictProvider(5, table)
    rep = verify_conditions(prov, 1, [0, 1])
    assert rep.p_n == 3 and rep.pairs_checked == 1
    assert rep.saturated_sets == 0


# -- the exact chain against a Fraction-by-Fraction reference ------------


def reference_l1(a, b):
    return sum((abs(a[k] - b[k]) for k in a.entries.keys() | b.entries.keys()), Fraction(0))


def reference_chain(provider, x, y, m, n, p_n, xis):
    """The chain of _check_pair_chain, one Fraction operation at a time."""
    var = reference_l1(xis[x], xis[y])
    sum_norm = Fraction(0)
    ratios = []
    for k in range(n + 1, 2 * n + 1):
        sx, sy = provider.sets(x, k, n), provider.sets(y, k, n)
        inner = provider.sets(x, k - m, n)
        outer = provider.sets(x, k + m, n)
        if not (inner <= (sx & sy) and (sx | sy) <= outer):
            raise ConditionViolation("nesting failed inside the certificate chain")
        norm = 2 * (1 - Fraction(len(sx & sy), max(len(sx), len(sy))))
        sum_norm += norm
        ratio = Fraction(len(inner), len(outer))
        ratios.append(ratio)
        if norm > 2 * (1 - ratio):
            raise ConditionViolation("per-radius norm exceeds its ratio bound")
    mean = sum(ratios, Fraction(0)) / n
    bound = 2 * (1 - mean)
    if var > sum_norm / n or sum_norm / n > bound:
        raise ConditionViolation("variation chain is out of order")
    prod = math.prod(ratios)
    if mean**n < prod:
        raise ConditionViolation("mean-vs-product inequality failed")
    if 2 * m <= n:
        head = math.prod(Fraction(len(provider.sets(x, j, n))) for j in range(n + 1 - m, n + m + 1))
        tail = math.prod(Fraction(len(provider.sets(x, j, n))) for j in range(2 * n + 1 - m, 2 * n + m + 1))
        if prod != head / tail:
            raise ConditionViolation("ratio product failed to telescope")
    if prod * p_n ** (2 * m) < 1:
        raise ConditionViolation("ratio product undershoots the size bound")
    return var, bound


class PairProvider(DictProvider):
    """Table sets of the two centers 0 and 1, ``m`` apart."""

    def __init__(self, n_points, table, m):
        super().__init__(n_points, table)
        self.m = m

    @property
    def distance_table(self):
        return self.m * super().distance_table


@st.composite
def chain_cases(draw):
    # nested sets at x; sets at y squeezed between x's neighbours, either
    # grown from one radius to the next or drawn afresh at each, so that
    # y's own nesting holds or breaks; plus an occasional stray point
    # that breaks the nesting
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, n))
    grow = draw(st.lists(st.lists(st.integers(0, 11), max_size=3), min_size=3 * n, max_size=3 * n))
    at_x, cur = [], {0}
    for extra in grow:
        cur = cur | set(extra)
        at_x.append(sorted(cur))
    grown = draw(st.booleans())
    table, at_y = {}, set()
    for k in range(1, 3 * n + 1):
        table[(0, k)] = at_x[k - 1]
        low = set(at_x[k - 2]) if k > 1 else set()
        high = at_x[min(k, 3 * n - 1)]
        at_y = (at_y if grown else set()) | low | set(draw(st.lists(st.sampled_from(high), max_size=4)))
        table[(1, k)] = sorted(at_y) or [0]
    if draw(st.integers(0, 4)) == 0:
        k = draw(st.integers(1, 3 * n))
        table[(1, k)] = sorted(set(table[(1, k)]) | {12})
    return PairProvider(13, table, m), m, n


@settings(max_examples=300, deadline=None, derandomize=True)
@given(chain_cases())
def test_pair_chain_matches_fraction_reference(case):
    # _check_pair_chain decides condition (ii) for its pair at d = m, as
    # the nesting sweep does, and only then computes the chain; where
    # the nesting holds, the Fraction reference run with p_n the pair's
    # largest size passes every check it makes
    prov, m, n = case
    try:
        former_nesting(prov, 0, 1, m, n)
    except ConditionViolation as exc:
        with pytest.raises(ConditionViolation) as got:
            _check_pair_chain(prov, 0, 1, m, n)
        assert (str(got.value), got.value.context) == (str(exc), exc.context)
        return
    p_n = max(len(prov.sets(x, k, n)) for x in (0, 1) for k in range(1, 3 * n + 1))
    xis = {x: xi(prov, x, n) for x in (0, 1)}
    assert _check_pair_chain(prov, 0, 1, m, n) == reference_chain(prov, 0, 1, m, n, p_n, xis)


def test_pair_chain_rejects_m_outside_level(path13):
    # rows end at 3n: m above n would read past them, m below 0 wrap
    for m in (-1, 2):
        with pytest.raises(ValueError, match=f"pair distance {m} outside 0..1"):
            _check_pair_chain(path13, 7, 8, m, 1)


# -- witness rows against the former set-object code ----------------------
#
# The reference below is the certifier as it was written on the sets the
# provider returns (VertexSet or frozenset): pairs enumerated per check,
# every set read through provider.sets, Fraction xi.  The row-based code
# must agree with it on every report field, every certificate and every
# failure, message and context included.


def former_xi(provider, x, n):
    acc = {}
    for k in range(n + 1, 2 * n + 1):
        s = provider.sets(x, k, n)
        if len(s) == 0:
            raise EmptySet(f"S({x},{k},{n}) is empty")
        w = Fraction(1, n * len(s))
        for z in s:
            acc[z] = acc.get(z, Fraction(0)) + w
    return acc


def former_pair_distance(provider, x, y):
    d = table_distance(provider, x, y)
    if d != int(d):
        return None
    return int(d)


def former_verify_conditions(provider, n, sample, max_pairs=None):
    sample = [int(x) for x in sample]
    radius, p_n, p_by_k, saturated = 0, 0, {}, 0
    base = provider.basepoint
    for x in sample:
        reach = None
        for k in range(1, 3 * n + 1):
            s = provider.sets(x, k, n)
            if len(s) == 0:
                raise ConditionViolation(f"S({x},{k},{n}) is empty", x=x, k=k, n=n)
            reach = s if reach is None else reach | s
            p_n = max(p_n, len(s))
            p_by_k[k] = max(p_by_k.get(k, 0), len(s))
            if len(s) == 1 and base in s:
                saturated += 1
        if reach is not None:
            radius = max(radius, max(math.ceil(table_distance(provider, x, z)) for z in reach))
    pairs = []
    for i, x in enumerate(sample):
        for y in sample[i + 1:]:
            d = former_pair_distance(provider, x, y)
            if d is not None and 1 <= d <= n:
                pairs.append((x, y, d))
    if max_pairs is not None and len(pairs) > max_pairs:
        step = len(pairs) / max_pairs
        pairs = [pairs[int(i * step)] for i in range(max_pairs)]
    for x, y, d in pairs:
        former_nesting(provider, x, y, d, n)
    return ConditionReport(
        n=n, sample_size=len(sample), support_radius=radius, p_n=p_n,
        p_by_k=p_by_k, pairs_checked=len(pairs), saturated_sets=saturated,
    )


def former_nesting(provider, x, y, d, n):
    """Condition (ii) for one pair d apart: its first failure, walked
    through k, center (x before y) and test (inner before union)."""
    for k in range(n + 1, 2 * n + 1):
        sx, sy = provider.sets(x, k, n), provider.sets(y, k, n)
        for c, far in ((x, y), (y, x)):
            sc, sf = (sx, sy) if c == x else (sy, sx)
            inner = provider.sets(c, k - d, n)
            outer = provider.sets(c, k + d, n)
            if not inner <= (sc & sf):
                raise ConditionViolation(
                    "inner witness set escapes the intersection",
                    x=c, y=far, k=k, n=n, d=d,
                )
            if not (sc | sf) <= outer:
                raise ConditionViolation(
                    "witness union escapes the outer set",
                    x=c, y=far, k=k, n=n, d=d,
                )


def former_chain(provider, x, y, m, n, p_n, xis):
    var = reference_l1(xis[x], xis[y])
    gaps, widths, inners, outers = [], [], [], []
    for k in range(n + 1, 2 * n + 1):
        sx, sy = provider.sets(x, k, n), provider.sets(y, k, n)
        inner = provider.sets(x, k - m, n)
        outer = provider.sets(x, k + m, n)
        both = sx & sy
        if not (inner <= both and (sx | sy) <= outer):
            raise ConditionViolation(
                "nesting failed inside the certificate chain", x=x, y=y, k=k, n=n, m=m,
            )
        width = max(len(sx), len(sy))
        a, b = len(inner), len(outer)
        if (width - len(both)) * b > (b - a) * width:
            raise ConditionViolation(
                "per-radius norm exceeds its ratio bound", x=x, y=y, k=k, n=n, m=m,
            )
        gaps.append(width - len(both))
        widths.append(width)
        inners.append(a)
        outers.append(b)
    mean_norm = sum((Fraction(2 * g, w) for g, w in zip(gaps, widths)), Fraction(0)) / n
    mean = sum((Fraction(a, b) for a, b in zip(inners, outers)), Fraction(0)) / n
    bound = 2 * (1 - mean)
    if var > mean_norm or mean_norm > bound:
        raise ConditionViolation("variation chain is out of order", x=x, y=y, n=n, m=m)
    prod_a, prod_b = math.prod(inners), math.prod(outers)
    if mean.numerator**n * prod_b < prod_a * mean.denominator**n:
        raise ConditionViolation("mean-vs-product inequality failed", x=x, y=y, n=n, m=m)
    if 2 * m <= n:
        head = math.prod(len(provider.sets(x, j, n)) for j in range(n + 1 - m, n + m + 1))
        tail = math.prod(len(provider.sets(x, j, n)) for j in range(2 * n + 1 - m, 2 * n + m + 1))
        if prod_a * tail != head * prod_b:
            raise ConditionViolation("ratio product failed to telescope", x=x, y=y, n=n, m=m)
    if prod_a * p_n ** (2 * m) < prod_b:
        raise ConditionViolation(
            "ratio product undershoots the size bound", x=x, y=y, n=n, m=m,
        )
    return var, bound


def former_certify(provider, n_list, m_list, sample):
    sample = [int(x) for x in sample]
    certs = []
    for n in n_list:
        report = former_verify_conditions(provider, n, sample)
        p_n = report.p_n
        xis = {x: SparseL1Vector(former_xi(provider, x, n)) for x in sample}
        cert = PropACertificate(
            provider=provider.name, basepoint=provider.basepoint, n=n,
            support_radius=report.support_radius, p_n=p_n,
        )
        for m in m_list:
            pairs = [
                (x, y)
                for i, x in enumerate(sample)
                for y in sample[i + 1:]
                if former_pair_distance(provider, x, y) == m
            ] if m <= n else []
            sup_var = sup_bound = Fraction(0)
            for x, y in pairs:
                var, bound = former_chain(provider, x, y, m, n, p_n, xis)
                sup_var, sup_bound = max(sup_var, var), max(sup_bound, bound)
            if sup_var > sup_bound:
                raise ConditionViolation("row ordering failed", n=n, m=m)
            if (1 - sup_bound / 2) ** n * p_n ** (2 * m) < 1:
                raise ConditionViolation("ratio bound exceeds the size bound", n=n, m=m)
            cert.rows.append(CertificateRow(
                m=m, sup_variation=sup_var, amgm_bound=sup_bound,
                p_bound_float=2.0 * (1.0 - p_n ** (-2.0 * m / n)), pair_count=len(pairs),
            ))
        certs.append(cert)
    return certs


def outcome(fn, *args):
    """The result, or the failure as (type, message, context)."""
    try:
        return fn(*args)
    except (MedianCertError, ValueError) as exc:
        return type(exc).__name__, str(exc), getattr(exc, "context", None)


def assert_same_as_former(rows_provider, former_provider, n_list, m_list, sample, max_pairs=None):
    for n in n_list:
        want = outcome(former_verify_conditions, former_provider, n, sample, max_pairs)
        assert outcome(verify_conditions, rows_provider, n, sample, max_pairs) == want
        for x in sample:
            want = outcome(former_xi, former_provider, x, n)
            got = outcome(xi, rows_provider, x, n)
            assert (got.entries if isinstance(got, SparseL1Vector) else got) == want
    want = outcome(former_certify, former_provider, n_list, m_list, sample)
    assert outcome(certify, rows_provider, n_list, m_list, sample) == want
    return want


class LineProvider(DictProvider):
    """Table sets over centers on a line, |x - y| / scale apart."""

    def __init__(self, n_points, table, basepoint, scale):
        super().__init__(n_points, table, basepoint)
        self.den = scale


@st.composite
def line_tables(draw, points=13):
    # S(x, k) = f(ball(x, k)) on a line is a nesting family for any map
    # f to the labels 0..points-2; then a few sets of sampled centers are
    # emptied, lose a point, gain another label, or gain the stray point
    # points-1, which no honest set holds: in one set, or in every set
    # of x from radius k on (so x's own sets still nest)
    stray = points - 1
    levels = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    top = 3 * max(levels)
    centers = draw(st.integers(2, 9))
    scale = draw(st.sampled_from([1, 1, 2]))
    f = draw(st.lists(st.integers(0, stray - 1), min_size=centers, max_size=centers))
    table = {
        (x, k): sorted({f[z] for z in range(centers) if abs(x - z) <= k * scale})
        for x in range(centers) for k in range(1, top + 1)
    }
    sample = draw(st.permutations(range(centers)))[:draw(st.integers(2, centers))]
    for _ in range(draw(st.integers(0, 3))):
        x, k0 = draw(st.sampled_from(sample)), draw(st.integers(1, top))
        kind = draw(st.sampled_from(["empty", "drop", "label", "stray", "tail"]))
        if kind == "empty":
            table[(x, k0)] = []
        elif kind == "drop":
            table[(x, k0)] = table[(x, k0)][1:]
        else:
            extra = draw(st.integers(0, stray - 1)) if kind == "label" else stray
            for k in range(k0, top + 1 if kind == "tail" else k0 + 1):
                table[(x, k)] = sorted(set(table[(x, k)]) | {extra})
    prov = LineProvider(points, table, draw(st.integers(0, stray)), scale)
    m_list = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    max_pairs = draw(st.none() | st.integers(1, 6))
    return prov, levels, m_list, sample, max_pairs


PROPERTY_SETTINGS = settings(max_examples=300, deadline=None, derandomize=True)


@PROPERTY_SETTINGS
@given(line_tables())
def test_rows_match_former_code_on_tables(case):
    prov, levels, m_list, sample, max_pairs = case
    assert_same_as_former(prov, prov, levels, m_list, sample, max_pairs)


@PROPERTY_SETTINGS
@given(line_tables(points=150))
def test_rows_match_former_code_on_wide_tables(case):
    # 150 points: every row spans three words, the last one partial, and
    # the labels, the stray point 149 and the basepoint land in any word
    prov, levels, m_list, sample, max_pairs = case
    assert_same_as_former(prov, prov, levels, m_list, sample, max_pairs)


def nested_pair_table(sizes):
    """Sets of two centers one apart at k = 1..len(sizes): S(0, k) is
    range(sizes[k-1]) and S(1, k) swaps its last point for the next one.
    With sizes two or more apart the pair passes every nesting test."""
    table = {}
    for k, size in enumerate(sizes, start=1):
        table[(0, k)] = list(range(size))
        table[(1, k)] = list(range(size - 1)) + [size]
    return DictProvider(sizes[-1] + 1, table)


def test_chain_falls_back_to_python_ints_past_int64():
    # at n = 8 the sizes at k = 9..16 are eight distinct primes, so
    # n * lcm(|S_k|) is about 2^65.8: past int64, the pair runs on Python
    # ints, and agrees with the former code
    primes = [211, 223, 227, 229, 233, 239, 241, 251]
    assert 8 * math.prod(primes) > 2**63
    sizes = list(range(100, 180, 10)) + primes + list(range(260, 340, 10))
    prov = nested_pair_table(sizes)
    (cert,) = assert_same_as_former(prov, prov, [8], [1, 2], [0, 1])
    assert [row.pair_count for row in cert.rows] == [1, 0]
    assert certify(prov, [8], [1, 2], [0, 1])[0].rows[0].bigint_pairs == 1
    # the same shape with small sizes stays on int64
    small = nested_pair_table(list(range(10, 250, 10)))
    (cert,) = assert_same_as_former(small, small, [8], [1], [0, 1])
    assert cert.rows[0].pair_count == 1
    assert certify(small, [8], [1], [0, 1])[0].rows[0].bigint_pairs == 0


class FormerCat0:
    """The cat0 witness sets packed the former way: np.unique over the
    endpoint row, then one VertexSet bit per member."""

    name = "cat0"

    def __init__(self, provider):
        self.provider = provider
        self.basepoint = provider.basepoint
        self.distance_table, self.den = provider.distance_table, provider.den

    def sets(self, x, k, l):
        if not (1 <= k <= 3 * l):
            raise ValueError(f"radius index {k} outside 1..{3 * l}")
        g = self.provider.graph
        inside = np.flatnonzero(g.dist[x] <= k)
        return VertexSet.of(g.n, np.unique(self.provider._endpoint_row(l)[inside]))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.data())
def test_rows_match_former_code_on_cat0(data):
    if data.draw(st.booleans()):
        g = generate("grid", [data.draw(st.integers(1, 7)), data.draw(st.integers(1, 7))])
    else:
        g = generate("tree", [data.draw(st.integers(1, 3)), data.draw(st.integers(1, 4))])
    prov = Cat0WitnessProvider(g, data.draw(st.integers(0, g.n - 1)))
    levels = data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=2))
    sample = eligible_sample(prov, max(levels), limit=12, seed=data.draw(st.integers(0, 99)))
    former = FormerCat0(prov)
    for x in range(g.n):
        for l in levels:
            for k in range(1, 3 * l + 1):
                assert prov.sets(x, k, l) == former.sets(x, k, l)
    assert_same_as_former(prov, former, levels, [1, 2], sample)


@st.composite
def cat0_cases(draw):
    if draw(st.booleans()):
        g = generate("grid", [draw(st.integers(1, 7)), draw(st.integers(1, 7))])
    else:
        g = generate("tree", [draw(st.integers(1, 3)), draw(st.integers(1, 4))])
    prov = Cat0WitnessProvider(g, draw(st.integers(0, g.n - 1)))
    levels = draw(st.lists(st.integers(1, 4), min_size=1, max_size=2))
    return prov, levels, eligible_sample(prov, max(levels), limit=12, seed=draw(st.integers(0, 99)))


@PROPERTY_SETTINGS
@given(st.one_of(
    chain_cases().map(lambda case: (case[0], [case[2]], [0, 1])),
    line_tables().map(lambda case: (case[0], case[1], case[3])),
    cat0_cases(),
))
def test_chain_checks_follow_from_nesting(case):
    # wherever verify_conditions passes, no check the former chain made
    # can fail (the proofs are in _chain's docstring): former_chain with
    # the report's p_n raises nothing on any pair, at its distance
    # m <= n, and the two row checks of former_certify hold
    prov, levels, sample = case
    for n in levels:
        try:
            report = verify_conditions(prov, n, sample)
        except MedianCertError:
            continue
        xis = {x: SparseL1Vector(former_xi(prov, x, n)) for x in sample}
        i, j, d = report.pairs
        for m in range(1, n + 1):
            chains = [
                former_chain(prov, sample[i[p]], sample[j[p]], m, n, report.p_n, xis)
                for p in np.flatnonzero(d == m)
            ]
            sup_var = max((var for var, _ in chains), default=Fraction(0))
            sup_bound = max((bound for _, bound in chains), default=Fraction(0))
            assert sup_var <= sup_bound
            assert (1 - sup_bound / 2) ** n * report.p_n ** (2 * m) >= 1


def tight_coarse_grid(w, h):
    """The coarsened_grid(w, h) metric with mu = 0, rank 0 and (K, H0,
    gamma, lam) = (1, 0, 0, 0) set by hand: at the scale of level 1 some
    points have no deep point toward 0."""
    grid = coarsened_grid(w, h)
    inst = CoarseMedianInstance(grid.dist_int, np.zeros((grid.n,) * 3, dtype=np.int32), d=0)
    inst.params = CoarseParams(*map(Fraction, (1, 0, 0, 0)))
    return inst


def packed_sets(prov, centers, l):
    """Each set of the centers as an int mask, read x by x and k by k."""
    return [[_mask(prov.sets(x, k, l)) for k in range(1, 3 * l + 1)] for x in centers]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_witness_rows_match_sets(data):
    # the one row builder against sets(), which both providers make
    # public: every (x, k) agrees once the row columns are mapped to
    # their points, or both raise the same error
    kind = data.draw(st.sampled_from(["grid", "tree", "coarse-grid", "tight coarse-grid"]))
    if kind == "grid":
        g = generate("grid", [data.draw(st.integers(1, 9)), data.draw(st.integers(1, 9))])
    elif kind == "tree":
        g = generate("tree", [data.draw(st.integers(1, 3)), data.draw(st.integers(1, 5))])
    else:
        w, h = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
        g = tight_coarse_grid(w, h) if kind == "tight coarse-grid" else coarsened_grid(w, h)
    basepoint = data.draw(st.integers(0, g.n - 1))
    if isinstance(g, MedianGraph):
        prov = Cat0WitnessProvider(g, basepoint)
    else:
        prov = CoarseWitnessProvider(g, basepoint, t=data.draw(st.integers(1, 3)))
    l = data.draw(st.integers(1, 4))
    centers = data.draw(st.lists(st.integers(0, g.n - 1), min_size=1, max_size=g.n))
    got = outcome(witness_rows, prov, centers, l)
    want = outcome(packed_sets, prov, centers, l)
    if isinstance(want, tuple):
        assert got == want
        return
    rows, points = got
    # one column per distinct endpoint of the level
    end = prov._endpoint_row(l)
    assert np.array_equal(points, np.unique(end[end >= 0]))
    assert rows.shape == (len(centers), 3 * l + 1, -(-len(points) // 64))
    assert not rows[:, 0].any()
    for i in range(len(centers)):
        for k in range(1, 3 * l + 1):
            bits = int.from_bytes(rows[i, k].astype("<u8").tobytes(), "little")
            mask = sum(1 << int(points[u]) for u in range(len(points)) if bits >> u & 1)
            assert bits >> len(points) == 0 and mask == want[i][k - 1]


@pytest.mark.parametrize("centers, y", [([40, 0], 40), (list(range(41)), 31)])
def test_coarse_certify_names_the_first_point_without_a_deep_point(centers, y):
    # by center, then k, then y: the error of the first set that holds it
    prov = CoarseWitnessProvider(tight_coarse_grid(4, 4), 0)
    with pytest.raises(MedianCertError) as err:
        certify(prov, [1, 2], [1], centers)
    assert err.value.report() == {
        "error": "deep-point-domain", "message": f"no deep point for ({y},0) at scale 3",
        "y": y, "r": 3, "t": 1,
    }


def test_witness_rows_reject_centers_out_of_range(path13):
    for x in (-1, 13):
        with pytest.raises(ValueError, match=f"center {x} out of range"):
            witness_rows(path13, [4, x], 1)


def test_cli_propa_coarse_bytes(tmp_path, monkeypatch):
    # the coarse provider's certificate on coarse-grid 1 1, byte for byte
    monkeypatch.chdir(tmp_path)
    assert main(["gen", "coarse-grid", "1", "1", "--output", "c11.inst"]) == 0
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["propa", "--provider", "coarse", "--input", "c11.inst", "--n", "2,4", "--m", "1,2"])
    assert code == 0
    assert buf.getvalue() == (
        '{"basepoint": 0, "certificates": [{"basepoint": 0, "n": 2, "p_n": 5, "provider": "coarse", '
        '"rows": [{"amgm_bound": "0/1", "m": 1, "p_bound_float": 1.6, "sup_variation": "0/1"}, '
        '{"amgm_bound": "1/1", "m": 2, "p_bound_float": 1.92, "sup_variation": "1/4"}], '
        '"support_radius": 4}, {"basepoint": 0, "n": 4, "p_n": 5, "provider": "coarse", '
        '"rows": [{"amgm_bound": "0/1", "m": 1, "p_bound_float": 1.1055728090000843, "sup_variation": "0/1"}, '
        '{"amgm_bound": "1/10", "m": 2, "p_bound_float": 1.6, "sup_variation": "0/1"}], '
        '"support_radius": 4}], "input": "c11.inst", "provider": "coarse", "sample_size": 5}\n'
    )


@pytest.mark.parametrize("w, h, basepoint, levels", [
    (1, 1, 0, [1, 2]), (2, 2, 0, [2]), (2, 2, 7, [1, 2]), (3, 2, 4, [2, 4]),
])
def test_rows_match_former_code_on_coarse_grid(w, h, basepoint, levels):
    # frozenset witness sets; the certifier builds its rows from the endpoint row
    inst = coarsened_grid(w, h)
    prov = CoarseWitnessProvider(inst, basepoint)
    assert isinstance(prov.sets(0, 1, 1), frozenset)
    sample = eligible_sample(prov, max(levels))
    got = assert_same_as_former(prov, prov, levels, [1, 2], sample)
    assert isinstance(got, list) and len(got) == len(levels)


def test_rows_match_former_code_on_quarter_metric():
    # the coarse-grid metric (all even) over 4: distances 2 mod 4 are not
    # integers, so their pairs are skipped, on the Fraction metric path
    grid = coarsened_grid(2, 2)
    quarter = [[Fraction(v, 4) for v in row] for row in grid.dist_int.tolist()]
    inst = CoarseMedianInstance(quarter, grid.mu, d=grid.d)
    prov = CoarseWitnessProvider(inst, 0)
    sample = list(range(inst.n))
    assert any(inst.rho(x, y) != int(inst.rho(x, y)) for x in sample for y in sample)
    assert_same_as_former(prov, prov, [1, 2], [1, 2], sample)


@pytest.mark.parametrize("w, h, scale, den, centers, radius, p_n", [
    # numerators past int32 over den 3: every distance is at least
    # 2^32/3, so each set holds one point and no pair is in reach
    (2, 2, Fraction(2**31, 3), 3, list(range(1, 13)), 0, 1),
    # small numerators over a den that int32 cannot hold, so that the
    # engine's remainders by den stay exact
    (1, 1, Fraction(1, 2**40), 2**39, list(range(5)), 1, 5),
])
def test_rows_match_former_code_on_object_numerators(w, h, scale, den, centers, radius, p_n):
    # the coarse-grid metric scaled: Python ints in an object table
    grid = coarsened_grid(w, h)
    inst = CoarseMedianInstance(
        [[v * scale for v in row] for row in grid.dist_int.tolist()], grid.mu, d=grid.d,
    )
    assert inst.nums.dtype == object and inst.den == den
    prov = CoarseWitnessProvider(inst, 0)
    sample = eligible_sample(prov, 1)
    assert sample == former_eligible_sample(prov, 1) == centers
    (cert,) = assert_same_as_former(prov, prov, [1], [1], sample)
    assert (cert.support_radius, cert.p_n) == (radius, p_n)


def test_xi_is_scaled_until_entries_are_read(path13):
    v = xi(path13, 8, 2)
    assert v._entries is None
    assert v.l1_norm() == 1 and v._entries is None
    assert v.entries == former_xi(path13, 8, 2)
    z = min(v.support())
    assert v[z] == v.entries[z] > 0 and v[99] == 0


# -- sampling ------------------------------------------------------------


def test_eligible_sample_margin_and_fallback(grid3, grid6):
    prov = Cat0WitnessProvider(grid6, 0)
    got = eligible_sample(prov, 2)
    assert got == [17, 22, 23, 27, 28, 29, 32, 33, 34, 35]
    assert all(grid6.distance(x, 0) >= 7 for x in got)
    # 3x3 grid has diameter 4 < 7: margin empties it, keep everything
    small = Cat0WitnessProvider(grid3, 0)
    assert eligible_sample(small, 2) == list(range(9))


def test_eligible_sample_limit_deterministic(grid6):
    prov = Cat0WitnessProvider(grid6, 0)
    a = eligible_sample(prov, 2, limit=4, seed=11)
    b = eligible_sample(prov, 2, limit=4, seed=11)
    assert a == b and len(a) == 4 and a == sorted(a)
    assert set(a) <= set(eligible_sample(prov, 2))


def former_eligible_sample(provider, n_max, min_distance=None, limit=None, seed=0):
    """eligible_sample as a loop over the points, each distance read
    from the table over den."""
    if min_distance is None:
        min_distance = 3 * n_max + 1
    count = len(provider.distance_table)
    pts = [x for x in range(count) if table_distance(provider, x, provider.basepoint) >= min_distance]
    if not pts:
        pts = list(range(count))
    if limit is not None and len(pts) > limit:
        pts = sorted(random.Random(seed).sample(pts, limit))
    return pts


def test_eligible_sample_row_matches_pair_by_pair(grid6):
    # the basepoint's row of the table gives the centers of the loop
    providers = [Cat0WitnessProvider(grid6, b) for b in (0, 17, 35)]
    providers += [CoarseWitnessProvider(coarsened_grid(3, 2), b) for b in (0, 4)]
    grid = coarsened_grid(2, 2)
    quarter = [[Fraction(v, 4) for v in row] for row in grid.dist_int.tolist()]
    providers.append(CoarseWitnessProvider(CoarseMedianInstance(quarter, grid.mu, d=grid.d), 3))
    for prov in providers:
        for min_distance in (None, 0, 1, 3, 5, 100):
            for limit in (None, 3):
                got = eligible_sample(prov, 2, min_distance, limit, seed=5)
                assert got == former_eligible_sample(prov, 2, min_distance, limit, seed=5)


def test_eligible_sample_refuses_basepoint_out_of_range(grid6):
    # one message for every provider, naming the basepoint
    inst = coarsened_grid(2, 2)
    for make, count in ((lambda b: Cat0WitnessProvider(grid6, b), 36),
                        (lambda b: CoarseWitnessProvider(inst, b), 13)):
        for bad in (-1, count):
            with pytest.raises(ValueError) as err:
                eligible_sample(make(bad), 2)
            assert str(err.value) == f"basepoint {bad} out of range 0..{count - 1}"
