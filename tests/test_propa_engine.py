import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mediancert.errors import ConditionViolation, EmptySet
from mediancert.median_core import MedianGraph, VertexSet
from mediancert.propa_engine import (
    CSV_HEADER,
    Cat0WitnessProvider,
    SparseL1Vector,
    _check_pair_chain,
    certify,
    chi,
    chi_l1_identity,
    eligible_sample,
    variation,
    verify_conditions,
    xi,
)


class DictProvider:
    """Hand-built witness sets for exercising the failure paths."""

    name = "dict"

    def __init__(self, n_points, table, basepoint=0):
        self.point_count = n_points
        self.basepoint = basepoint
        self.table = table

    def distance(self, x, y):
        return abs(x - y)

    def sets(self, x, k, l):
        return VertexSet.of(self.point_count, self.table[(x, k)])


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


@st.composite
def chain_cases(draw):
    # nested sets at x, sets at y squeezed between x's neighbours, so
    # that every branch of the chain is reached, plus an occasional
    # stray point that breaks the nesting
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, n))
    grow = draw(st.lists(st.lists(st.integers(0, 11), max_size=3), min_size=3 * n, max_size=3 * n))
    at_x, cur = [], {0}
    for extra in grow:
        cur = cur | set(extra)
        at_x.append(sorted(cur))
    table = {}
    for k in range(1, 3 * n + 1):
        table[(0, k)] = at_x[k - 1]
        low = set(at_x[k - 2]) if k > 1 else set()
        high = at_x[min(k, 3 * n - 1)]
        table[(1, k)] = sorted(low | set(draw(st.lists(st.sampled_from(high), max_size=4))))
        if not table[(1, k)]:
            table[(1, k)] = [0]
    if draw(st.integers(0, 4)) == 0:
        k = draw(st.integers(1, 3 * n))
        table[(1, k)] = sorted(set(table[(1, k)]) | {12})
    p_n = draw(st.integers(1, 14))
    return DictProvider(13, table), m, n, p_n


@settings(max_examples=300, deadline=None, derandomize=True)
@given(chain_cases())
def test_pair_chain_matches_fraction_reference(case):
    prov, m, n, p_n = case
    xis = {x: xi(prov, x, n) for x in (0, 1)}
    try:
        want = reference_chain(prov, 0, 1, m, n, p_n, xis)
    except ConditionViolation as exc:
        with pytest.raises(ConditionViolation) as got:
            _check_pair_chain(prov, 0, 1, m, n, p_n, xis)
        assert str(got.value) == str(exc)
        return
    assert _check_pair_chain(prov, 0, 1, m, n, p_n, xis) == want


# -- sampling ------------------------------------------------------------


def test_eligible_sample_margin_and_fallback(grid3, grid6):
    prov = Cat0WitnessProvider(grid6, 0)
    got = eligible_sample(prov, 2)
    assert got == [17, 22, 23, 27, 28, 29, 32, 33, 34, 35]
    assert all(prov.distance(x, 0) >= 7 for x in got)
    # 3x3 grid has diameter 4 < 7: margin empties it, keep everything
    small = Cat0WitnessProvider(grid3, 0)
    assert eligible_sample(small, 2) == list(range(9))


def test_eligible_sample_limit_deterministic(grid6):
    prov = Cat0WitnessProvider(grid6, 0)
    a = eligible_sample(prov, 2, limit=4, seed=11)
    b = eligible_sample(prov, 2, limit=4, seed=11)
    assert a == b and len(a) == 4 and a == sorted(a)
    assert set(a) <= set(eligible_sample(prov, 2))
