"""End-to-end acceptance checks, one test per release criterion.

Each test prints a single verdict line on its own stdout so a plain
pytest run shows the per-criterion outcome.  Frozen numbers in here
were produced by the library itself and cross-checked against
independent recomputations before being pinned.
"""

import contextlib
import itertools
import random
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest

from mediancert.coarse_median import (
    CoarseWitnessProvider,
    check_lemma_6_2,
    check_lemma_6_5,
    coarsened_grid,
    discover_deep_scale,
    estimate_params,
    find_deep_point,
    from_median_graph,
    l_constants,
    verify_C2_exact,
)
from mediancert.cube_complex import (
    hyperplanes,
    normal_cube_path,
    rank,
    separators,
)
from mediancert.harness_cli import generate
from mediancert.median_core import VertexSet, deep_point_exact, interval, iterated_median, reduce_generators
from mediancert.propa_engine import Cat0WitnessProvider, certify, chi_l1_identity, eligible_sample, verify_conditions


@contextlib.contextmanager
def verdict(capsys, label, info):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print("\n%s: FAIL" % label)
        raise
    with capsys.disabled():
        print("\n%s: PASS (%s)" % (label, info.get("note", "no detail")))


def axiom_m1_m2(tab):
    """Argument symmetry and absorption, checked on the whole table."""
    n = tab.shape[0]
    for perm in ((0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)):
        if not np.array_equal(tab, tab.transpose(perm)):
            return False
    idx = np.arange(n)
    diag = tab[idx[:, None], idx[:, None], idx[None, :]]
    return np.array_equal(diag, idx[:, None].repeat(n, axis=1))


def axiom_m3(tab):
    """Projection onto a pair distributes over the operation:
    m(a, b, m(x, y, z)) = m(m(a, b, x), m(a, b, y), z).  After
    axiom_m1_m2 passes, sweeping a < b and x < y covers every instance.
    By full symmetry both sides are symmetric in a, b and in x, y; by
    absorption (m(u, u, w) = u) both sides are a when a = b, and both
    are m(a, b, x) when x = y."""
    n = tab.shape[0]
    xs, ys = np.triu_indices(n, 1)
    inner = tab[xs, ys]  # inner[p, z] = m(xs[p], ys[p], z)
    for a in range(n):
        for b in range(a + 1, n):
            row = tab[a, b]
            if not np.array_equal(row[inner], tab[row[xs], row[ys]]):
                return False
    return True


def test_axiom_m3_catches_one_altered_orbit():
    # a median table with the value of one triple changed in all six
    # argument orders keeps m1/m2 and must fail the half sweep
    for g in (generate("hypercube", [3]), generate("grid", [2, 2])):
        tab = g.median_table()
        assert axiom_m3(tab)
        for x, y, z in itertools.combinations(range(g.n), 3):
            for w in set(range(g.n)) - {int(tab[x, y, z])}:
                bad = tab.copy()
                for p in itertools.permutations((x, y, z)):
                    bad[p] = w
                assert axiom_m1_m2(bad) and not axiom_m3(bad), (x, y, z, w)


def packed_interval_masks(g):
    """(table, masks) where masks[a][b] is the bitmask of [a, b]."""
    tab = g.median_table()
    masks = np.zeros((g.n, g.n), dtype=np.uint64)
    idx = np.arange(g.n)
    for a in range(g.n):
        inside = tab[a] == idx[None, :]
        masks[a] = np.array(
            [int.from_bytes(np.packbits(r, bitorder="little").tobytes(), "little") for r in inside],
            dtype=np.uint64,
        )
    return tab, masks


def axiom_zoo():
    zoo = [("q%d" % d, generate("hypercube", [d])) for d in range(1, 6)]
    zoo += [
        ("grid%dx%d" % (w + 1, h + 1), generate("grid", [w, h]))
        for w in range(1, 7)
        for h in range(w, 7)
    ]
    zoo += [
        ("tree%d_%d" % (b, dep), generate("tree", [b, dep]))
        for b in range(1, 4)
        for dep in range(1, 5)
    ]
    params = [(4, 5), (5, 6), (4, 6), (5, 5), (3, 4)]
    zoo += [
        ("closure%d" % s, generate("median-closure", list(params[s % 5]), seed=s))
        for s in range(20)
    ]
    return zoo


def test_criterion_1_median_axiom_zoo(capsys):
    info = {}
    with verdict(capsys, "criterion 1", info):
        t0 = time.time()
        zoo = axiom_zoo()
        assert len(zoo) == 58
        assert max(g.n for _, g in zoo) == 121
        for name, g in zoo:
            tab = g.median_table()
            assert axiom_m1_m2(tab), name
            assert axiom_m3(tab), name
        elapsed = time.time() - t0
        assert elapsed < 300
        info["note"] = "58 graphs up to 121 vertices, all three axioms exact and exhaustive, %.0fs of 300s" % elapsed


def test_criterion_2_interval_calculus(capsys):
    info = {}
    with verdict(capsys, "criterion 2", info):
        zoo = [
            ("grid7x7", generate("grid", [6, 6])),
            ("grid8x7", generate("grid", [7, 6])),
            ("q5", generate("hypercube", [5])),
            ("tree3_3", generate("tree", [3, 3])),
            ("stair6", generate("staircase", [6])),
            ("closure6", generate("median-closure", [4, 6], seed=6)),
        ]
        assert max(g.n for _, g in zoo) <= 60

        # folding a tuple toward b meets the same interval stack, all triples
        for name, g in zoo:
            tab, masks = packed_interval_masks(g)
            for b in range(g.n):
                tb = tab[:, :, b]
                col = masks[:, b]
                f3 = tb[tb]
                lhs = col[:, None, None] & col[None, :, None] & col[None, None, :]
                assert np.array_equal(lhs, col[f3]), (name, b)

        # fold order never matters for small tuples
        for name, g in zoo:
            rng = random.Random(13)
            for _ in range(40):
                k = rng.randint(1, 4)
                xs = [rng.randrange(g.n) for _ in range(k)]
                b = rng.randrange(g.n)
                base = iterated_median(g, xs, b)
                for perm in itertools.permutations(xs):
                    assert iterated_median(g, list(perm), b) == base

        # generator lists shrink to at most rank-many survivors
        for name, g in zoo:
            d = rank(g)
            rng = random.Random(29)
            for _ in range(60):
                b = rng.randrange(g.n)
                if d == 1:
                    a = rng.randrange(g.n)
                    pool = list(interval(g, a, b))
                else:
                    pool = range(g.n)
                xs = [rng.choice(list(pool)) for _ in range(rng.randint(1, 5))]
                ys = reduce_generators(g, xs, b, d)
                assert len(ys) <= d
                assert iterated_median(g, ys, b) == iterated_median(g, xs, b)

        # pair folds stay visible from a; absorbed points switch roles
        small = [(n_, g) for n_, g in zoo if g.n <= 40]
        assert [g.n for _, g in small] == [32, 40, 19, 7]
        small.append(("grid6x6", generate("grid", [5, 5])))
        pair_checks = 0
        for name, g in small:
            tab, masks = packed_interval_masks(g)
            for a in range(g.n):
                for b in range(g.n):
                    iv = list(interval(g, a, b))
                    for x in iv:
                        row = tab[x]
                        for y in iv:
                            f = int(row[y, b])
                            assert (int(masks[a, f]) >> x) & 1, (name, a, b, x, y)
                            if (int(masks[a, x]) >> y) & 1:
                                assert int(tab[y, b, x]) == x, (name, a, b, x, y)
                            pair_checks += 1

        # a single deep point tops every sampled subset of an interval
        hull_checks = 0
        for name, g in zoo:
            d = rank(g)
            rng = random.Random(47)
            for _ in range(200):
                a = rng.randrange(g.n)
                b = rng.randrange(g.n)
                iv = list(interval(g, a, b))
                c = [rng.choice(iv) for _ in range(rng.randint(1, 2 * d))]
                p = deep_point_exact(g, a, b, VertexSet.of(g.n, c), d)
                reach = interval(g, a, p)
                assert all(h in reach for h in c)
                assert g.distance(a, p) <= 3 ** d * max(g.distance(a, h) for h in c)
                hull_checks += 1
        info["note"] = "6 graphs <= 60 vertices, exact; %d pair checks, %d hull samples, zero violations" % (pair_checks, hull_checks)


def test_criterion_3_cube_path_invariants(capsys):
    info = {}
    with verdict(capsys, "criterion 3", info):
        zoo = [
            ("grid8x8", generate("grid", [7, 7])),
            ("grid8x4", generate("grid", [7, 3])),
            ("grid5x7", generate("grid", [4, 6])),
            ("grid2x2", generate("grid", [1, 1])),
            ("q4", generate("hypercube", [4])),
        ]

        def walk(g, v, wall_ids, wmap):
            for wid in wall_ids:
                for u in g.adj[v]:
                    if wmap[(min(u, v), max(u, v))] == wid:
                        v = u
                        break
                else:
                    raise AssertionError("no dual edge at %d for wall %d" % (v, wid))
            return v

        paths = 0
        for name, g in zoo:
            d = rank(g)
            walls = hyperplanes(g)
            wmap = {}
            for h in walls:
                for e in h.edges:
                    wmap[e] = h.index
            cross_memo = {}
            for x in range(g.n):
                for y in range(g.n):
                    p = normal_cube_path(g, x, y)
                    rho = g.distance(x, y)
                    m = len(p)
                    assert p.vertices[0] == x and p.vertices[-1] == y
                    assert (rho + d - 1) // d <= m <= rho or (rho == 0 and m == 0)
                    seen = set()
                    for i, step in enumerate(p.steps):
                        assert not (step & seen)
                        seen |= step
                        v = p.vertices[i]
                        improving = {
                            wmap[(min(u, v), max(u, v))]
                            for u in g.adj[v]
                            if g.dist[u, y] < g.dist[v, y]
                        }
                        assert step == improving, (name, x, y, i)
                        for wi, wj in itertools.combinations(sorted(step), 2):
                            hit = cross_memo.get((wi, wj))
                            if hit is None:
                                h1, h2 = walls[wi], walls[wj]
                                m1, p1 = h1.minus_side.mask, h1.plus_side.mask
                                m2, p2 = h2.minus_side.mask, h2.plus_side.mask
                                hit = bool(m1 & m2 and m1 & p2 and p1 & m2 and p1 & p2)
                                cross_memo[(wi, wj)] = hit
                            assert hit, (name, wi, wj)
                        fwd = sorted(step)
                        assert walk(g, v, fwd, wmap) == p.vertices[i + 1]
                        assert walk(g, v, fwd[::-1], wmap) == p.vertices[i + 1]
                    assert seen == separators(g, x, y)
                    paths += 1
        info["note"] = "%d paths over 5 graphs, every wall once, steps maximal and order-free, exact" % paths


def test_criterion_4_witness_set_containment(capsys):
    info = {}
    with verdict(capsys, "criterion 4", info):
        g = generate("grid", [7, 7])
        d = rank(g)
        assert d == 2
        x0 = 0
        provider = Cat0WitnessProvider(g, x0)
        sets = 0
        for x in range(g.n):
            box = interval(g, x, x0)
            for l in range(1, 5):
                reach = 6 * l * d
                ball = g.ball(x, reach)
                cap = len(box & ball)
                for k in range(1, 3 * l + 1):
                    s = provider.sets(x, k, l)
                    assert s <= box
                    assert max(g.distance(x, v) for v in s) <= reach
                    assert len(s) <= cap <= (12 * l * d + 1) ** 2
                    sets += 1
        info["note"] = "8x8 grid, %d witness sets, containment and size bounds exact" % sets


def test_criterion_5_large_grid_certificate(capsys):
    info = {}
    with verdict(capsys, "criterion 5", info):
        t0 = time.time()
        g = generate("grid", [29, 29])
        provider = Cat0WitnessProvider(g, 0)
        sample = eligible_sample(provider, 8, min_distance=25)
        assert sorted(sample) == [v for v in range(g.n) if g.distance(v, 0) >= 25]
        assert len(sample) == 575
        certs = certify(provider, [2, 4, 8], [1, 2], sample)
        sups = {}
        for cert in certs:
            for row in cert.rows:
                assert row.pair_count > 0
                sups[(cert.n, row.m)] = row.sup_variation
        assert sups[(2, 1)] == Fraction(7, 12)
        assert sups[(8, 2)] == Fraction(563, 1260)
        for m in (1, 2):
            col = [sups[(n, m)] for n in (2, 4, 8)]
            assert col[0] >= col[1] >= col[2]
        elapsed = time.time() - t0
        assert elapsed < 600
        info["note"] = "900 vertices, 575 centers, chain exact per pair, sup non-increasing in n, %.0fs of 600s" % elapsed


def test_criterion_6_indicator_distance_identity(capsys):
    info = {}
    with verdict(capsys, "criterion 6", info):
        rng = random.Random(11)
        for _ in range(10_000):
            a = rng.sample(range(60), rng.randint(1, 18))
            b = rng.sample(range(60), rng.randint(1, 18))
            lhs, rhs = chi_l1_identity(a, b)
            assert lhs == rhs
        info["note"] = "10000 random set pairs, exact rational equality"


def exact_zoo():
    return [
        ("q3", generate("hypercube", [3])),
        ("q4", generate("hypercube", [4])),
        ("q5", generate("hypercube", [5])),
        ("grid5x5", generate("grid", [4, 4])),
        ("grid6x6", generate("grid", [5, 5])),
        ("tree2_4", generate("tree", [2, 4])),
        ("tree3_3", generate("tree", [3, 3])),
        ("stair4", generate("staircase", [4])),
        ("closure3", generate("median-closure", [5, 6], seed=3)),
    ]


def test_criterion_7_exact_instance_suite(capsys):
    info = {}
    with verdict(capsys, "criterion 7", info):
        zoo = exact_zoo()
        assert max(g.n for _, g in zoo) <= 40
        insts = {}
        for name, g in zoo:
            inst = from_median_graph(g)
            p = estimate_params(inst)
            assert (p.K, p.H0, p.gamma, p.lam) == (1, 0, 0, 0), name
            insts[name] = inst

        # projection and absorption sweeps at the fitted constants
        rng = random.Random(23)
        c62 = c65 = 0
        for name, inst in insts.items():
            for _ in range(150):
                a, b, z, w = (rng.randrange(inst.n) for _ in range(4))
                r = rng.choice((1, 2, 3))
                x = inst.med(a, b, z)
                ok, witness = check_lemma_6_2(inst, a, b, x, r)
                assert ok, (name, witness)
                c62 += 1
                m = inst.med(a, x, w)
                ok, dist, bound = check_lemma_6_5(inst, a, b, x, m, r)
                assert ok, (name, dist, bound)
                c65 += 1
        assert c62 == c65 == 150 * len(zoo)

        # closure of every small subset approximates with zero defect;
        # exhaustive to 25 vertices, singles and pairs plus dense seeded
        # sampling above (the literal all-subsets sweep on the 31..40
        # vertex graphs is hours of work on one core for the same claim)
        closed = 0
        for name, g in zoo:
            if g.n > 25:
                continue
            gr = rank(g)
            for k in range(1, 6):
                for a in itertools.combinations(range(g.n), k):
                    rep = verify_C2_exact(g, a)
                    assert rep.h_p == 0 and rep.closure_rank <= gr, (name, a)
                    closed += 1
        assert closed == 79471
        sampled = 0
        for name, g in zoo:
            if g.n <= 25:
                continue
            gr = rank(g)
            subsets = [[a] for a in range(g.n)]
            subsets += [list(p) for p in itertools.combinations(range(g.n), 2)]
            rng = random.Random(7)
            for k in (3, 4, 5):
                subsets += [rng.sample(range(g.n), k) for _ in range(2000)]
            for a in subsets:
                rep = verify_C2_exact(g, a)
                assert rep.h_p == 0 and rep.closure_rank <= gr, (name, a)
                sampled += 1
        assert sampled == 26510
        info["note"] = "9 graphs <= 40 vertices fit (1,0,0,0) exactly; %d sweep checks, %d closures, zero defect" % (c62 + c65, closed + sampled)


def test_criterion_8_coarsened_grid_suite(capsys):
    info = {}
    with verdict(capsys, "criterion 8", info):
        cg = coarsened_grid(7, 7)
        assert cg.n == 113
        p = estimate_params(cg)
        assert p.K <= 2
        assert (p.K, p.H0, p.gamma, p.lam) == (1, 0, 2, 0)
        assert cg.m1_defect == 0 and cg.m2_defect == 0

        rng = random.Random(41)
        c62 = c65 = 0
        for _ in range(150):
            a, b, z, w = (rng.randrange(cg.n) for _ in range(4))
            r = rng.choice((1, 2, 3, 4))
            x = cg.med(a, b, z)
            ok, witness = check_lemma_6_2(cg, a, b, x, r)
            assert ok, witness
            c62 += 1
            m = cg.med(a, x, w)
            ok, dist, bound = check_lemma_6_5(cg, a, b, x, m, r)
            assert ok, (dist, bound)
            c65 += 1
        assert c62 == c65 == 150

        pairs = [(rng.randrange(cg.n), rng.randrange(cg.n)) for _ in range(12)]
        assert discover_deep_scale(cg, 1, pairs, 8) == 1
        assert all(find_deep_point(cg, a, b, 1, 1, p.lam) is not None for a, b in pairs)

        provider = CoarseWitnessProvider(cg, 0, t=1)
        sample = eligible_sample(provider, 2)
        assert len(sample) == 97
        report = verify_conditions(provider, 2, sample, max_pairs=40)
        assert report.p_n == 49
        assert report.pairs_checked == 40
        assert report.saturated_sets == 0
        info["note"] = "113 points, K=1 H0=0 lam=0, both sweeps 150/150 clean, deep scale 1 of cap 8, witness provider verified"


def test_criterion_9_provider_agreement(capsys):
    info = {}
    with verdict(capsys, "criterion 9", info):
        g = generate("grid", [9, 9])
        cat = Cat0WitnessProvider(g, 0)
        inst = from_median_graph(g)
        coarse = CoarseWitnessProvider(inst, 0, t=1)
        s_cat = eligible_sample(cat, 4)
        s_coarse = eligible_sample(coarse, 4)
        assert s_cat == s_coarse
        assert len(s_cat) == 21
        certs_cat = certify(cat, [2, 4], [1, 2], s_cat)
        certs_coarse = certify(coarse, [2, 4], [1, 2], s_coarse)
        band_notes = []
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for cc, kk in zip(certs_cat, certs_coarse):
                assert cc.n == kk.n
                for rc, rk in zip(cc.rows, kk.rows):
                    assert rc.m == rk.m and rc.pair_count > 0 and rk.pair_count > 0
                    a, b = rc.sup_variation, rk.sup_variation
                    if a > 0 and b > 0:
                        ratio = max(a / b, b / a)
                        if ratio > 4:
                            warnings.warn(
                                "provider variation ratio %s at n=%d m=%d outside the factor-4 band"
                                % (ratio, cc.n, rc.m)
                            )
                        else:
                            band_notes.append("n=%d m=%d ratio %.3f" % (cc.n, rc.m, float(ratio)))
                    else:
                        warnings.warn(
                            "saturated comparator at n=%d m=%d (variations %s vs %s), band not evaluable"
                            % (cc.n, rc.m, a, b)
                        )
        assert len(caught) == 2
        assert all("saturated comparator at n=4" in str(w.message) for w in caught)
        info["note"] = "10x10 grid, both providers chain-exact on 21 shared centers; band ok at n=2 (%s), n=4 saturated flagged as 2 warnings" % "; ".join(band_notes)
