import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from mediancert.errors import (
    BudgetExceeded,
    NotCoarseMedian,
    NotFound,
    PreconditionViolation,
)
from mediancert import coarse_median
from mediancert.harness_cli import generate
from mediancert.median_core import MedianGraph, VertexSet, interval
from mediancert.coarse_median import (
    CoarseMedianInstance,
    CoarseParams,
    CoarseWitnessProvider,
    check_lemma_6_2,
    check_lemma_6_5,
    coarse_interval,
    coarsened_grid,
    discover_deep_scale,
    estimate_params,
    find_deep_point,
    from_median_graph,
    l_constants,
    measured_h5,
    median_closure,
    verify_C2_exact,
    witness_sets_coarse,
)


def path_median_mu(n, dist):
    def mid(i, j, k):
        return sorted((i, j, k))[1]
    return np.array(
        [[[mid(i, j, k) for k in range(n)] for j in range(n)] for i in range(n)],
        dtype=np.int32,
    )


PATH3 = [[0, 1, 2], [1, 0, 1], [2, 1, 0]]


@pytest.fixture(scope="module")
def exact6(grid6):
    inst = from_median_graph(grid6)
    estimate_params(inst)
    return inst


@pytest.fixture(scope="module")
def cg33():
    inst = coarsened_grid(3, 3)
    estimate_params(inst)
    return inst


@pytest.fixture(scope="module")
def jumpy():
    # every ternary evaluation jumps to point 2, so nothing absorbs a
    # ball around 0 at small scales
    mu = np.full((3, 3, 3), 2, dtype=np.int32)
    inst = CoarseMedianInstance([[0, 2, 1], [2, 0, 1], [1, 1, 0]], mu, d=1)
    estimate_params(inst)
    return inst


# -- constants and validation --------------------------------------------


def test_l_constants_exact_params():
    p = CoarseParams(Fraction(1), Fraction(0), Fraction(0), Fraction(0))
    for r, t, d in ((1, 1, 2), (2, 3, 2), (5, 1, 1)):
        cs = l_constants(p, r, t, d)
        assert cs.L1 == 2 * r
        assert cs.L2 == 3 * r
        assert cs.L3 == 3**d * r * t + r


def test_l_constants_general():
    p = CoarseParams(Fraction(2), Fraction(1, 2), Fraction(3), Fraction(1))
    cs = l_constants(p, 1, 2, 1)
    assert cs.L1 == 9
    assert cs.L2 == Fraction(9, 2)
    assert cs.L3 == 13


def test_instance_validation():
    mu = path_median_mu(3, PATH3)
    with pytest.raises(ValueError):
        CoarseMedianInstance(PATH3, mu[:2])
    with pytest.raises(ValueError):
        CoarseMedianInstance(PATH3, mu + 5)
    with pytest.raises(ValueError):
        CoarseMedianInstance([[0, 1, 2], [2, 0, 1], [2, 1, 0]], mu)
    with pytest.raises(ValueError):
        CoarseMedianInstance([[1, 1, 2], [1, 0, 1], [2, 1, 0]], mu)
    with pytest.raises(ValueError):
        CoarseMedianInstance([[0, 0, 2], [0, 0, 1], [2, 1, 0]], mu)
    with pytest.raises(ValueError):
        CoarseMedianInstance([[0, 1, 9], [1, 0, 1], [9, 1, 0]], mu)
    big = np.zeros((161, 161, 161), dtype=np.int32)
    flat = np.zeros((161, 161), dtype=np.int32)
    with pytest.raises(BudgetExceeded):
        CoarseMedianInstance(flat.tolist(), big)


def test_instance_rank_below_zero_rejected():
    mu = path_median_mu(3, PATH3)
    with pytest.raises(ValueError, match="rank -1 is below 0"):
        CoarseMedianInstance(PATH3, mu, d=-1)
    inst = CoarseMedianInstance(PATH3, mu, d=0)
    cs = l_constants(estimate_params(inst), 1, 1, inst.d)
    assert isinstance(cs.L3, Fraction) and cs.L3 == 2


def test_fraction_metric_accepted():
    dist = [[0, Fraction(1, 2), 1], [Fraction(1, 2), 0, 1], [1, 1, 0]]
    inst = CoarseMedianInstance(dist, path_median_mu(3, PATH3))
    assert inst.dist_int is None
    assert inst.rho(0, 1) == Fraction(1, 2)
    assert inst.den == 2 and inst.nums.dtype == np.int32
    assert inst.nums.tolist() == [[0, 1, 2], [1, 0, 2], [2, 2, 0]]
    whole = CoarseMedianInstance(PATH3, path_median_mu(3, PATH3))
    assert whole.dist_int is whole.nums and whole.den == 1
    assert type(whole.rho(0, 2)) is int


def test_metric_numerators_past_int32():
    # a rational metric keeps Python ints; an integral one is refused
    big = Fraction(2**70 + 1, 3)
    inst = CoarseMedianInstance([[v * big for v in row] for row in PATH3],
                                path_median_mu(3, PATH3))
    assert inst.den == 3 and inst.nums.dtype == object
    assert inst.rho(0, 2) == 2 * big
    assert estimate_params(inst, budget=500).lam == 0
    assert coarse_interval(inst, 0, 2, 0) == {0, 1, 2}
    with pytest.raises(ValueError, match=r"d\(0,1\) = 2147483648 is outside the int32 range"):
        CoarseMedianInstance([[v * 2**31 for v in row] for row in PATH3],
                             path_median_mu(3, PATH3))


@pytest.fixture(scope="module")
def cg22():
    inst = coarsened_grid(2, 2)
    estimate_params(inst)
    return inst


# each call holds one id outside 0..12, which a numpy index would wrap
# around: rho(-1, 0) read row 12, and the deep point search returned 12
@pytest.mark.parametrize("call, name", [
    (lambda cg: cg.rho(-1, 0), "i = -1"),
    (lambda cg: cg.med(0, 13, 0), "j = 13"),
    (lambda cg: coarse_interval(cg, 0, -1, 1), "b = -1"),
    (lambda cg: check_lemma_6_2(cg, 0, 12, -1, 1), "x = -1"),
    (lambda cg: check_lemma_6_5(cg, 0, 12, 0, -13, 1), "m = -13"),
    (lambda cg: find_deep_point(cg, -1, 0, 1, 1, 0), "a = -1"),
    (lambda cg: witness_sets_coarse(cg, -1, 0, 1, 1, 3), "basepoint = -1"),
    (lambda cg: CoarseWitnessProvider(cg, 0).sets(13, 1, 1), "x = 13"),
], ids=["rho", "med", "coarse_interval", "check_lemma_6_2", "check_lemma_6_5",
        "find_deep_point", "witness_sets_coarse", "provider_sets"])
def test_point_ids_outside_range_refused(cg22, call, name):
    with pytest.raises(ValueError, match=f"point {name} out of range 0..12"):
        call(cg22)


def test_operation_defects_recorded():
    clean = CoarseMedianInstance(PATH3, path_median_mu(3, PATH3), d=1)
    assert clean.m1_defect == 0 and clean.m2_defect == 0
    mu = path_median_mu(3, PATH3)
    mu[0, 1, 2] = 2
    bent = CoarseMedianInstance(PATH3, mu, d=1)
    assert bent.m1_defect == 1 and bent.m2_defect == 0
    mu2 = path_median_mu(3, PATH3)
    mu2[1, 1, 2] = 0
    mu2[1, 1, 0] = 2
    bent2 = CoarseMedianInstance(PATH3, mu2, d=1)
    assert bent2.m1_defect == 1 and bent2.m2_defect == 1


# -- parameter fitting ----------------------------------------------------


def test_exact_instances_fit_trivially(q3, grid4, tree23, stair3):
    for g in (q3, grid4, tree23, stair3):
        inst = from_median_graph(g)
        p = estimate_params(inst)
        assert (p.K, p.H0, p.gamma, p.lam) == (1, 0, 0, 0)
        assert inst.m1_defect == 0 and inst.m2_defect == 0


def test_coarsened_grid_fit(cg33):
    assert cg33.n == 25
    p = cg33.params
    assert (p.K, p.H0, p.gamma, p.lam) == (1, 0, 2, 0)
    assert cg33.m1_defect == 0 and cg33.m2_defect == 0


def _sampled_three_axis(inst, budget, seed, dtype=object):
    """The sampled sweeps as three-axis gathers on one draw each:
    (lhs, rhs, gamma)."""
    idx = np.random.default_rng(seed).integers(0, inst.n, size=(budget, 6))
    mu, d = inst.mu, inst.nums.astype(dtype)
    lhs = d[mu[idx[:, 0], idx[:, 1], idx[:, 2]], mu[idx[:, 3], idx[:, 4], idx[:, 5]]]
    rhs = d[idx[:, 0], idx[:, 3]] + d[idx[:, 1], idx[:, 4]] + d[idx[:, 2], idx[:, 5]]
    del idx
    x, y, z, v, w = np.random.default_rng(seed ^ 0x5EED).integers(0, inst.n, size=(budget, 5)).T
    far = d[mu[x, y, mu[z, v, w]], mu[mu[x, y, z], mu[x, y, v], w]]
    return lhs, rhs, Fraction(int(far.max()), inst.den)


def _h0_at(inst, lhs, rhs, k):
    """The sampled H0 at multiplier k of one-shot sample arrays."""
    return Fraction(int((k.denominator * lhs - k.numerator * rhs).max()), k.denominator * inst.den)


def _lam_three_axis(inst):
    n = inst.n
    mu = inst.mu.astype(np.intp)
    x, y, z = np.indices((n, n, n))
    m = mu[x, y, z]
    return Fraction(int(inst.nums[mu[x, y, m], m].max()), inst.den)


@pytest.mark.parametrize("scale", [1, Fraction(7, 3), Fraction(2**40 + 1, 3)])
def test_sampled_sweeps_match_three_axis_gathers(cg22, scale, monkeypatch):
    # blocks of 64 draws: one partial block, two whole ones, and 78 whole
    # ones and a remainder of 8; lam in blocks of 4 pairs (x, y), 169 of them
    monkeypatch.setattr(coarse_median, "_DRAWS", 64)
    monkeypatch.setattr(coarse_median, "EXHAUSTIVE_POINTS", 0)
    mu = cg22.mu.copy()
    mu[0, 0] = 12  # mu(0, 0, .) jumps to the far corner: H0 falls as K grows
    mu[12, 12] = np.roll(np.arange(13), -1)  # lam only from the last pair (x, y)
    inst = CoarseMedianInstance(cg22.dist_int * Fraction(scale), mu, d=cg22.d)
    for budget in (1, 128, 5_000):
        lhs, rhs, gamma = _sampled_three_axis(inst, budget, 3)
        blocks = list(coarse_median._sextuple_sample(inst, budget, 3))
        assert [len(got) for got, _ in blocks] == [min(64, budget - lo) for lo in range(0, budget, 64)]
        assert np.concatenate([got for got, _ in blocks]).tolist() == lhs.tolist()
        assert np.concatenate([got for _, got in blocks]).tolist() == rhs.tolist()
        assert coarse_median._gamma_sampled(inst, budget, 3) == gamma
    # each K tried draws the sample again and gets the one-shot H0; under
    # a cap of -1 every K is tried and none fits
    want = {k: _h0_at(inst, lhs, rhs, k) for k in coarse_median.K_GRID}
    tried = {}
    h0_sampled = coarse_median._h0_sampled

    def spy(inst, k, budget, seed):
        tried[k] = h0_sampled(inst, k, budget, seed)
        return tried[k]

    monkeypatch.setattr(coarse_median, "_h0_sampled", spy)
    with pytest.raises(NotCoarseMedian):
        estimate_params(inst, budget=5_000, seed=3, h0_cap=-1)
    assert tried == want
    cap = sorted(set(want.values()))[len(set(want.values())) // 2]
    tried.clear()
    p = estimate_params(inst, budget=5_000, seed=3, h0_cap=cap)
    fit = next(k for k in coarse_median.K_GRID if want[k] <= cap)
    assert (p.K, p.H0, p.gamma) == (fit, max(want[fit], 0), gamma)
    assert p.lam == _lam_three_axis(inst)
    assert tried == {k: want[k] for k in coarse_median.K_GRID[:coarse_median.K_GRID.index(fit) + 1]}


def test_large_budget_fits_in_bounded_memory():
    # at the parent, 2,000,000 draws took a (2M, 6) int64 array and its
    # copies at once, and 1,000,000,000 ended in numpy's allocation error
    inst = coarsened_grid(4, 4)
    lhs, rhs, gamma = _sampled_three_axis(inst, 2_000_000, 0, dtype=np.int64)
    want = CoarseParams(K=Fraction(1), H0=max(_h0_at(inst, lhs, rhs, Fraction(1)), Fraction(0)),
                        gamma=gamma, lam=_lam_three_axis(inst))
    del lhs, rhs
    tracemalloc.start()
    try:
        got = estimate_params(inst, budget=2_000_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == want
    assert peak < 8 * 2**20


def test_unfittable_instance_rejected():
    # two near-identical points whose images are far apart: the gap
    # cannot be charged to K at any grid value once H0 is capped
    dist = [[0, Fraction(1, 100), 1], [Fraction(1, 100), 0, 1], [1, 1, 0]]
    mu = np.zeros((3, 3, 3), dtype=np.int32)
    mu[0, 0, 0] = 2
    inst = CoarseMedianInstance(dist, mu, d=1)
    with pytest.raises(NotCoarseMedian) as err:
        estimate_params(inst, budget=2000, h0_cap=0)
    assert err.value.rule == "parameter-fit"
    p = estimate_params(inst, budget=2000)
    assert p.K == 1 and p.H0 == Fraction(99, 100)


# -- coarse intervals ------------------------------------------------------


def test_coarse_interval_exact_matches_graph(exact6, grid6):
    assert coarse_interval(exact6, 0, 14, 0) == frozenset(interval(grid6, 0, 14))
    assert len(coarse_interval(exact6, 0, 14, 99)) == 36


def test_coarse_interval_monotone(cg33):
    prev = None
    for tau in (0, 1, 2, 4):
        cur = coarse_interval(cg33, 0, 24, tau)
        if prev is not None:
            assert prev <= cur
        prev = cur


def test_interval_growth_lemma(exact6):
    ok, witness = check_lemma_6_2(exact6, 0, 35, 14, 2)
    assert ok and witness is None
    with pytest.raises(PreconditionViolation):
        check_lemma_6_2(exact6, 0, 7, 35, 1)


# -- deep points -----------------------------------------------------------


def test_deep_point_frozen_grid10():
    inst = from_median_graph(generate("grid", [9, 9]))
    p = estimate_params(inst)
    assert find_deep_point(inst, 0, 99, 1, 6, 0) == 33
    got = find_deep_point(inst, 0, 99, 2, 4, 0)
    assert got == 22
    # cross-check minimality against a direct scan
    cs = l_constants(p, 2, 4, inst.d)
    cut = [
        x for x in inst.points()
        if inst.rho(0, x) <= 8 and inst.rho(inst.med(0, 99, x), x) <= 0
    ]
    absorbers = [
        h for h in inst.points()
        if inst.rho(inst.med(0, 99, h), h) <= cs.L1
        and inst.rho(0, h) <= cs.L3
        and all(inst.rho(inst.med(0, h, x), x) <= cs.L2 for x in cut)
    ]
    assert min(absorbers, key=lambda h: (inst.rho(0, h), h)) == got


def test_deep_point_degenerate_cases(exact6, jumpy):
    assert find_deep_point(exact6, 0, 35, 0, 1, 0) is None
    assert find_deep_point(exact6, 0, 35, 1, 0, 0) is None
    assert find_deep_point(exact6, 7, 7, 4, 1, 0) == 7
    # exact instance at t=1: the base point itself absorbs its ball
    assert find_deep_point(exact6, 0, 35, 3, 1, 0) == 0
    assert find_deep_point(jumpy, 0, 1, Fraction(1, 4), 8, 2) is None


def test_projection_retraction_lemma(exact6):
    ok, dist, bound = check_lemma_6_5(exact6, 0, 35, 7, 7, 2)
    assert ok and dist == 0
    assert bound == 10  # K*(2r + 3r) at the trivial fit
    with pytest.raises(PreconditionViolation) as err:
        check_lemma_6_5(exact6, 0, 7, 35, 0, 1)
    assert "L1" in str(err.value)
    with pytest.raises(PreconditionViolation) as err:
        check_lemma_6_5(exact6, 0, 35, 7, 35, 1)
    assert "L2" in str(err.value)


# -- finite approximation --------------------------------------------------


def test_median_closure_frozen(q3, grid6):
    got = median_closure(q3, VertexSet.of(8, [0, 3, 5]))
    assert sorted(got) == [0, 1, 3, 5]
    lone = median_closure(q3, VertexSet.of(8, [6]))
    assert sorted(lone) == [6]
    grown = median_closure(grid6, VertexSet.of(36, [3, 18, 32]))
    assert sorted(grown) == [3, 18, 20, 32]
    with pytest.raises(BudgetExceeded):
        median_closure(grid6, VertexSet.of(36, [3, 18, 32]), cap=3)


def test_verify_c2_frozen(q3, grid4):
    rep = verify_C2_exact(q3, [0, 3, 5])
    assert sorted(rep.closure) == [0, 1, 3, 5]
    assert rep.h_p == 0
    assert rep.closure_rank == 1 and rep.graph_rank == 3
    assert rep.ok
    corners = verify_C2_exact(grid4, [0, 3, 12, 15])
    assert len(corners.closure) == 4
    assert corners.closure_rank == corners.graph_rank == 2
    assert corners.ok


def test_measured_h5(cg33, grid4, jumpy):
    assert measured_h5(cg33) == 2
    assert measured_h5(from_median_graph(grid4), samples=10) == 0
    assert measured_h5(jumpy) is None


def test_coarsened_gamma_within_formula(cg33):
    p = cg33.params
    h5 = measured_h5(cg33)
    assert p.gamma <= 3 * p.K * (3 * p.K + 2) * h5 + (3 * p.K + 2) * p.H0


# -- witness sets ----------------------------------------------------------


def test_witness_sets_coarse_frozen(exact6):
    got = witness_sets_coarse(exact6, 0, 35, 2, 1, 2, diagnose=True)
    assert sorted(got) == [23, 28, 29, 33, 34, 35]
    wider = witness_sets_coarse(exact6, 0, 35, 3, 1, 3, diagnose=True)
    assert sorted(wider) == [17, 22, 23, 27, 28, 29, 32, 33, 34, 35]


def test_witness_sets_reach_guard(exact6, jumpy):
    with pytest.raises(PreconditionViolation):
        witness_sets_coarse(exact6, 0, 35, 6, 1, 2)
    with pytest.raises(NotFound):
        witness_sets_coarse(jumpy, 1, 0, 1, 8, Fraction(1, 4), kappa=2)


def test_provider_scales_and_sets(exact6):
    prov = CoarseWitnessProvider(exact6, 0)
    assert [prov.scale(l) for l in (1, 2, 3)] == [3, 6, 9]
    assert CoarseWitnessProvider(exact6, 0, r_floor=5).scale(1) == 5
    assert prov.sets(35, 2, 1) == witness_sets_coarse(exact6, 0, 35, 2, 1, 3)
    with pytest.raises(ValueError):
        prov.sets(35, 4, 1)


@pytest.mark.parametrize("t", [0, -1])
def test_provider_rejects_t_below_one(exact6, t):
    # scale() divides by t
    with pytest.raises(ValueError, match="below 1"):
        CoarseWitnessProvider(exact6, 0, t=t)


def test_provider_report(exact6):
    from mediancert.propa_engine import eligible_sample, verify_conditions

    prov = CoarseWitnessProvider(exact6, 0)
    sample = eligible_sample(prov, 2)
    assert sample == [17, 22, 23, 27, 28, 29, 32, 33, 34, 35]
    rep = verify_conditions(prov, 2, sample)
    assert rep.p_n == 35
    assert rep.support_radius == 6
    assert rep.pairs_checked == 27
    assert rep.saturated_sets == 0


def test_discover_deep_scale(exact6):
    assert discover_deep_scale(exact6, 1, [(35, 0), (30, 5), (7, 28)], 8) == 1
    assert discover_deep_scale(exact6, 1, [(35, 0)], 0) is None


# -- coarsened grid structure ----------------------------------------------


def test_coarsened_grid_layout():
    cg = coarsened_grid(3, 3)
    rows = 7
    for p in range(cg.n):
        amb = cg.point_to_ambient[p]
        assert (amb // rows + amb % rows) % 2 == 0
    # rounding an odd point prefers the lexicographically lowest neighbor
    assert cg.round_to_point[1] == 0
    for i in range(cg.n):
        for j in range(cg.n):
            assert cg.rho(i, j) % 2 == 0
    # kept points round to themselves
    for p in range(cg.n):
        assert cg.round_to_point[cg.point_to_ambient[p]] == p
