import itertools
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mediancert import median_core
from mediancert.errors import (
    BudgetExceeded,
    MedianViolation,
    NotFound,
    ReductionFailure,
)
from mediancert.median_core import (
    MedianGraph,
    VertexSet,
    deep_point_exact,
    hull,
    interval,
    iterated_median,
    join,
    median,
    reduce_generators,
)
from mediancert.cube_complex import hyperplanes, rank
from mediancert.harness_cli import generate


def brute_median_candidates(g, x, y, z):
    """Vertices on all three pairwise geodesics, by distance sums."""
    return [
        m
        for m in range(g.n)
        if g.distance(x, m) + g.distance(m, y) == g.distance(x, y)
        and g.distance(y, m) + g.distance(m, z) == g.distance(y, z)
        and g.distance(z, m) + g.distance(m, x) == g.distance(z, x)
    ]


# -- VertexSet ---------------------------------------------------------


def test_vertexset_basics():
    s = VertexSet.of(8, [1, 3, 5])
    assert len(s) == 3
    assert 3 in s and 0 not in s
    assert sorted(s) == [1, 3, 5]
    assert s.members() == [1, 3, 5]
    t = VertexSet.of(8, [3, 4])
    assert sorted(s & t) == [3]
    assert sorted(s | t) == [1, 3, 4, 5]
    assert sorted(s - t) == [1, 5]
    assert VertexSet.of(8, [3]) <= s
    assert not s <= t
    assert len(VertexSet.full(8)) == 8
    assert not VertexSet(4)
    assert s == VertexSet.of(8, [5, 3, 1])


def test_distance_and_ball_reject_ids_out_of_range(grid3):
    # numpy would wrap -1 around to vertex n - 1
    assert grid3.distance(0, 8) == 4 and sorted(grid3.ball(8, 1)) == [5, 7, 8]
    for x, y in ((-1, 3), (3, -1), (9, 0), (0, 9)):
        with pytest.raises(ValueError, match="out of range 0..8"):
            grid3.distance(x, y)
    for x in (-1, 9):
        with pytest.raises(ValueError, match="out of range 0..8"):
            grid3.ball(x, 1)


def test_interval_and_median_reject_ids_out_of_range():
    # numpy would wrap -1 around to vertex n - 1: I(8, 0), and median 2
    g = generate("grid", [2, 2])
    for tabled in (False, True):
        if tabled:
            g.median_table()
        for bad in (-1, 9):
            with pytest.raises(ValueError, match="out of range 0..8"):
                g.interval(bad, 0)
            with pytest.raises(ValueError, match="out of range 0..8"):
                g.interval(0, bad)
            with pytest.raises(ValueError, match="out of range 0..8"):
                g.median(bad, 0, 2)
            with pytest.raises(ValueError, match="out of range 0..8"):
                g.median(0, 2, bad)


# -- median ------------------------------------------------------------


def test_median_hypercube_majority(q3):
    assert median(q3, 0b000, 0b011, 0b101) == 0b001


def test_median_matches_brute_force(q3, grid4, stair3):
    for g in (q3, grid4, stair3):
        for x, y, z in itertools.product(range(g.n), repeat=3):
            cands = brute_median_candidates(g, x, y, z)
            assert cands == [median(g, x, y, z)]


def test_median_absorbs_repeats(grid4):
    for a in range(grid4.n):
        for b in range(grid4.n):
            assert median(grid4, a, a, b) == a


def test_median_on_geodesic_path(path5):
    assert median(path5, 0, 4, 2) == 2


def test_median_violation_carries_triple(c6):
    with pytest.raises(MedianViolation) as info:
        median(c6, 0, 2, 4)
    rep = info.value.report()
    assert rep["error"] == "unique-median"
    assert rep["triple"] == (0, 2, 4)
    assert rep["candidates"] == []


def test_double_median_reported(k23):
    with pytest.raises(MedianViolation) as info:
        k23.median_table()
    assert sorted(info.value.report()["candidates"]) == [0, 1]


def test_dense_witness_above_table_limit(monkeypatch):
    # above TABLE_LIMIT the dense scan builds its interval rows itself;
    # the witness must be the one the packed table gives
    k23 = MedianGraph(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)])
    monkeypatch.setattr(median_core, "TABLE_LIMIT", 0)
    with pytest.raises(MedianViolation) as info:
        k23.verify_medians()
    rep = info.value.report()
    assert rep["triple"] == (2, 3, 4) and rep["candidates"] == [0, 1]


def test_verify_medians_keeps_no_table(grid4):
    fresh = MedianGraph(grid4.n, grid4.edges)
    fresh.verify_medians()
    assert fresh._median_table is None


def test_witness_in_a_later_row_block():
    # path 0..40 with a 6-cycle 40..45 hung on its end: the first bad
    # triple has y far from x, past the scan's first block of rows
    edges = [(i, i + 1) for i in range(40)] + [(40 + i, 40 + (i + 1) % 6) for i in range(6)]
    want = next(
        t for t in itertools.product(range(46), repeat=3)
        if len(brute_median_candidates(MedianGraph(46, edges), *t)) != 1
    )
    assert want == (0, 42, 44)
    for run in (MedianGraph.median_table, MedianGraph.verify_medians):
        with pytest.raises(MedianViolation) as info:
            run(MedianGraph(46, edges))
        assert info.value.report()["triple"] == want


def test_median_table_cap():
    big = MedianGraph(300, [(i, i + 1) for i in range(299)])
    with pytest.raises(BudgetExceeded):
        big.median_table()


# -- interval ----------------------------------------------------------


def test_interval_examples(path5, q2):
    assert sorted(interval(path5, 1, 3)) == [1, 2, 3]
    assert sorted(interval(q2, 0, 3)) == [0, 1, 2, 3]
    assert sorted(interval(path5, 2, 2)) == [2]


def test_interval_is_geodesic_set(grid4):
    for a in range(grid4.n):
        for b in range(grid4.n):
            want = {
                c
                for c in range(grid4.n)
                if grid4.distance(a, c) + grid4.distance(c, b)
                == grid4.distance(a, b)
            }
            assert set(interval(grid4, a, b)) == want


# -- hull and join -----------------------------------------------------


def brute_join_closure(g, pts):
    cur = set(pts)
    while True:
        nxt = set(cur)
        for a in cur:
            for b in cur:
                for c in range(g.n):
                    if g.distance(a, c) + g.distance(c, b) == g.distance(a, b):
                        nxt.add(c)
        if nxt == cur:
            return cur
        cur = nxt


def test_hull_fills_square_corner(q2):
    got = hull(q2, VertexSet.of(q2.n, [0, 1, 2]))
    assert sorted(got) == [0, 1, 2, 3]
    assert set(got) == brute_join_closure(q2, [0, 1, 2])


def test_hull_singleton_and_pairs(grid3):
    assert sorted(hull(grid3, VertexSet.of(grid3.n, [4]))) == [4]
    for a in range(grid3.n):
        for b in range(grid3.n):
            assert hull(grid3, VertexSet.of(grid3.n, [a, b])) == interval(grid3, a, b)


def test_hull_matches_brute_closure(grid3, tree23):
    rng = random.Random(5)
    for g in (grid3, tree23):
        for _ in range(25):
            pts = rng.sample(range(g.n), 3)
            assert set(hull(g, VertexSet.of(g.n, pts))) == brute_join_closure(g, pts)


def test_join_reaches_fixpoint_within_rank(grid4, q4, tree23, stair4):
    rng = random.Random(11)
    for g in (grid4, q4, tree23, stair4):
        d = rank(g)
        for _ in range(20):
            pts = rng.sample(range(g.n), min(4, g.n))
            cur = VertexSet.of(g.n, pts)
            for _ in range(d):
                cur = join(g, cur)
            assert join(g, cur) == cur
            assert cur == hull(g, VertexSet.of(g.n, pts))


# -- iterated median ---------------------------------------------------


def test_iterated_median_base_cases(q2, grid4):
    assert iterated_median(q2, [2], 1) == 2
    for x1, x2, b in itertools.product(range(q2.n), repeat=3):
        assert iterated_median(q2, [x1, x2], b) == median(q2, x1, x2, b)
    assert iterated_median(q2, [1, 2], 3) == 3
    with pytest.raises(ValueError):
        iterated_median(grid4, [], 0)


def test_iterated_median_permutation_invariant(grid3, q3):
    rng = random.Random(23)
    for g in (grid3, q3):
        for _ in range(12):
            xs = [rng.randrange(g.n) for _ in range(4)]
            b = rng.randrange(g.n)
            vals = {iterated_median(g, list(p), b) for p in itertools.permutations(xs)}
            assert len(vals) == 1


def test_interval_meet_identity(grid3):
    # the common interval toward b is exactly the fold's interval
    for b in range(grid3.n):
        for xs in itertools.product(range(grid3.n), repeat=3):
            meet = set(range(grid3.n))
            for x in xs:
                meet &= set(interval(grid3, x, b))
            m = iterated_median(grid3, xs, b)
            assert meet == set(interval(grid3, m, b))


def test_fold_result_stays_in_hull(grid4):
    rng = random.Random(31)
    for _ in range(40):
        xs = [rng.randrange(grid4.n) for _ in range(3)]
        b = rng.randrange(grid4.n)
        assert iterated_median(grid4, xs, b) in hull(grid4, VertexSet.of(grid4.n, xs))


def test_wall_separation_commutes_with_fold(grid3):
    walls = hyperplanes(grid3)
    rng = random.Random(7)
    for _ in range(30):
        xs = [rng.randrange(grid3.n) for _ in range(3)]
        b = rng.randrange(grid3.n)
        m = iterated_median(grid3, xs, b)
        for w in walls:
            separates_all = all(w.separates(b, x) for x in xs)
            assert separates_all == w.separates(b, m)


# -- reduce_generators --------------------------------------------------


def test_reduce_on_path(path5):
    assert reduce_generators(path5, [1, 2, 3], 5, 1) == [3]


def test_reduce_on_square(q2):
    got = reduce_generators(q2, [0, 1, 2], 3, 2)
    assert got == [1, 2]
    assert iterated_median(q2, got, 3) == iterated_median(q2, [0, 1, 2], 3)


def test_reduce_keeps_needed_points(q2):
    # neither 1 nor 2 can be dropped without moving the fold
    assert reduce_generators(q2, [1, 2], 3, 2) == [1, 2]


def test_reduce_respects_rank_bound(grid4, q4, tree23):
    # scattered points are fine at rank >= 2; on rank-1 graphs the
    # bound needs the generators drawn from one interval ending at b
    rng = random.Random(13)
    for g in (grid4, q4, tree23):
        d = rank(g)
        for _ in range(30):
            b = rng.randrange(g.n)
            if d >= 2:
                xs = [rng.randrange(g.n) for _ in range(5)]
            else:
                a = rng.randrange(g.n)
                pool = list(interval(g, a, b))
                xs = [rng.choice(pool) for _ in range(5)]
            ys = reduce_generators(g, xs, b, d)
            assert len(ys) <= d
            assert set(ys) <= set(xs)
            assert iterated_median(g, ys, b) == iterated_median(g, xs, b)


def test_reduce_rank_one_straddle_raises():
    g = MedianGraph(5, [(i, i + 1) for i in range(4)])
    assert iterated_median(g, [0, 4], 2) == 2
    assert iterated_median(g, [0], 2) == 0
    assert iterated_median(g, [4], 2) == 4
    with pytest.raises(ReductionFailure):
        reduce_generators(g, [0, 4], 2, 1)


# -- deep points --------------------------------------------------------


def test_deep_point_grid_example(grid4):
    # a=(0,0), b=(3,3), candidates {(1,0),(0,1)} meet at (1,1)
    got = deep_point_exact(grid4, 0, 15, VertexSet.of(16, [4, 1]), 2)
    assert got == 5
    assert VertexSet.of(16, [4, 1]) <= interval(grid4, 0, got)


def test_deep_point_singleton(grid4):
    assert deep_point_exact(grid4, 3, 12, VertexSet.of(16, [3]), 2) == 3


def test_deep_point_on_chain(path5):
    c = VertexSet.of(6, [1, 3])
    assert deep_point_exact(path5, 0, 5, c, 1) == 3


def test_deep_point_rejects_stray_candidate(path5):
    with pytest.raises(NotFound):
        deep_point_exact(path5, 0, 2, VertexSet.of(6, [4]), 1)
    with pytest.raises(NotFound):
        deep_point_exact(path5, 0, 2, VertexSet(6), 1)


def test_deep_point_distance_bound(grid5, stair4):
    rng = random.Random(17)
    for g in (grid5, stair4):
        d = rank(g)
        hits = 0
        while hits < 40:
            a, b = rng.randrange(g.n), rng.randrange(g.n)
            iv = interval(g, a, b).members()
            if len(iv) < 2:
                continue
            pts = rng.sample(iv, min(len(iv), rng.randint(1, 5)))
            c = VertexSet.of(g.n, pts)
            got = deep_point_exact(g, a, b, c, d)
            assert c <= interval(g, a, got)
            assert g.distance(a, got) <= 3 ** d * max(g.distance(a, h) for h in pts)
            hits += 1


def test_deep_point_witnessed_by_some_tuple(grid4):
    # some generating tuple from the candidate set reproduces the point
    rng = random.Random(19)
    d = 2
    for _ in range(25):
        a, b = rng.randrange(16), rng.randrange(16)
        iv = interval(grid4, a, b).members()
        if len(iv) < 2:
            continue
        pts = rng.sample(iv, min(3, len(iv)))
        got = deep_point_exact(grid4, a, b, VertexSet.of(16, pts), d)
        tuples = [
            t
            for t in itertools.product(pts, repeat=d)
            if iterated_median(grid4, list(t), b) == got
        ]
        assert tuples
        best = min(max(grid4.distance(a, h) for h in t) for t in tuples)
        assert grid4.distance(a, got) <= 3 ** d * best


def test_deep_point_candidate_cap(grid8):
    big = VertexSet.of(grid8.n, range(65))
    with pytest.raises(BudgetExceeded):
        deep_point_exact(grid8, 0, 63, big, 2)


# -- axiom spot checks (full sweep lives in the acceptance suite) ------


def test_axioms_exhaustive_q3(q3):
    t = q3.median_table().astype(np.int64)
    idx = np.arange(q3.n)
    for perm in itertools.permutations((0, 1, 2)):
        assert (np.transpose(t, perm) == t).all()
    assert (t[idx[:, None], idx[:, None], idx[None, :]] == idx[:, None]).all()
    for a in range(q3.n):
        for b in range(q3.n):
            row = t[a, b]
            assert (row[t] == t[row[:, None, None], row[None, :, None], idx[None, None, :]]).all()


def test_median_nonexpansive(grid4):
    t = grid4.median_table().astype(np.int64)
    d = grid4.dist
    moved = d[t[:, :, :, None], t[:, :, None, :]]
    assert (moved <= d[None, None, :, :]).all()


def test_pair_betweenness_flips(grid4):
    # for x,y between a and b: y between a and x forces x between y and b
    for a, b in itertools.product(range(16), repeat=2):
        mem = interval(grid4, a, b).members()
        for x in mem:
            ax = interval(grid4, a, x)
            for y in mem:
                if y in ax:
                    assert x in interval(grid4, y, b)


def test_generators_land_in_interval(grid4):
    rng = random.Random(3)
    for _ in range(60):
        a, b = rng.randrange(16), rng.randrange(16)
        mem = interval(grid4, a, b).members()
        xs = [rng.choice(mem) for _ in range(3)]
        g_pt = iterated_median(grid4, xs, b)
        iv = interval(grid4, a, g_pt)
        assert all(x in iv for x in xs)


def test_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        MedianGraph(3, [(0, 0)])
    with pytest.raises(ValueError):
        MedianGraph(3, [(0, 5)])
    with pytest.raises(ValueError):
        MedianGraph(4, [(0, 1), (2, 3)])  # disconnected


# -- distances from one-word codes ---------------------------------------


def breadth_first_reference(g):
    """The distance table by scipy's breadth-first search over the edge
    list, and the wall codes read off it."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import dijkstra

    ends = np.array(g.edges, dtype=np.intp).reshape(-1, 2)
    adj = csr_matrix((np.ones(2 * len(ends)), (np.r_[ends[:, 0], ends[:, 1]], np.r_[ends[:, 1], ends[:, 0]])),
                     shape=(g.n, g.n))
    dist = dijkstra(adj, unweighted=True).astype(np.int32)
    return dist, median_core._wall_codes(dist, ends)


def grid_edges(w, h):
    return generate("grid", [w, h]).edges


@pytest.mark.parametrize("label, n, edges, one_word", [
    ("grid 9x9", 100, grid_edges(9, 9), True),
    ("grid 1x40", 82, grid_edges(1, 40), True),
    ("hypercube 7", 128, generate("hypercube", [7]).edges, True),
    # partial cubes that are not median: a vertex with one parent opens
    # a wall of its own on both halves, and the check refuses the codes
    ("cycle 66", 66, [(i, (i + 1) % 66) for i in range(66)], False),
    ("cycle 100", 100, [(i, (i + 1) % 100) for i in range(100)], False),
    # an odd cycle is no partial cube; 100 walls on a longer even one
    ("cycle 65", 65, [(i, (i + 1) % 65) for i in range(65)], False),
    ("cycle 200", 200, [(i, (i + 1) % 200) for i in range(200)], False),
    # 128 leaves, each the only vertex past its own wall
    ("tree 2 7", 255, generate("tree", [2, 7]).edges, False),
    # a triangle, and bipartite chords across three steps of the grid;
    # along the border every edge still flips one bit, but the code
    # distance falls short of the graph's
    ("grid 9x9 + diagonal", 100, grid_edges(9, 9) + [(0, 11)], False),
    ("grid 9x9 + chord", 100, grid_edges(9, 9) + [(0, 3)], False),
    ("grid 9x9 + border chord", 100, grid_edges(9, 9) + [(9, 39)], False),
])
def test_one_word_codes_match_breadth_first_search(label, n, edges, one_word):
    g = MedianGraph(n, edges)
    dist, codes = breadth_first_reference(g)
    assert np.array_equal(g.dist, dist)
    # the single search gives the codes with the table on the median
    # graphs of at most 64 walls; every other graph here falls back
    assert (g._codes is not None) == one_word
    got = g.wall_codes()
    assert (got is None) == (codes is None)
    if codes is not None:
        assert np.array_equal(got.planes, codes.planes)
        assert np.array_equal(got.edge_wall, codes.edge_wall)
        assert got.count == codes.count


SETTINGS = settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def one_word_median_graphs(draw):
    """Median graphs of at most 64 walls, many of them of at most 64
    vertices, with their vertices relabelled at random (the generators
    number vertices roughly outward from 0)."""
    kind = draw(st.sampled_from(["grid", "hypercube", "staircase", "tree", "closure"]))
    if kind == "grid":
        g = generate("grid", [draw(st.integers(0, 20)), draw(st.integers(0, 20))])
    elif kind == "hypercube":
        g = generate("hypercube", [draw(st.integers(0, 7))])
    elif kind == "staircase":
        g = generate("staircase", [draw(st.integers(1, 32))])
    elif kind == "tree":
        n = draw(st.integers(1, 65))
        parents = [draw(st.integers(0, v - 1)) for v in range(1, n)]
        g = MedianGraph(n, [(p, v) for v, p in enumerate(parents, 1)])
    else:
        k, dim = draw(st.integers(2, 6)), draw(st.integers(2, 8))
        g = generate("median-closure", [k, dim], seed=draw(st.integers(0, 10**6)))
    label = draw(st.permutations(range(g.n)))
    return MedianGraph(g.n, [(label[u], label[v]) for u, v in g.edges])


@st.composite
def graphs_without_gates(draw):
    """Odd cycles, even cycles from 6 on, and grids with one chord: a
    triangle across a square, or a bipartite chord three steps long."""
    kind = draw(st.sampled_from(["odd cycle", "even cycle", "grid + chord"]))
    if kind != "grid + chord":
        n = 2 * draw(st.integers(3, 50)) + (kind == "odd cycle")
        return MedianGraph(n, [(i, (i + 1) % n) for i in range(n)])
    grid = generate("grid", [draw(st.integers(1, 8)), draw(st.integers(3, 8))])
    u = draw(st.integers(0, grid.n - 1))
    far = np.flatnonzero(np.isin(grid.dist[u], [2, 3]))
    v = int(draw(st.sampled_from(far.tolist())))
    return MedianGraph(grid.n, grid.edges + [(u, v)])


def assert_codes_equal(got, want):
    assert got.planes.dtype == want.planes.dtype and got.planes.tobytes() == want.planes.tobytes()
    assert got.edge_wall.dtype == want.edge_wall.dtype
    assert np.array_equal(got.edge_wall, want.edge_wall)
    assert got.count == want.count


@SETTINGS
@given(g=one_word_median_graphs())
def test_single_search_matches_breadth_first_search(g):
    dist, codes = breadth_first_reference(g)
    assert g._codes is not None  # from the single search, not the fallback
    assert g.dist.dtype == dist.dtype and np.array_equal(g.dist, dist)
    assert_codes_equal(g.wall_codes(), codes)


@SETTINGS
@given(g=graphs_without_gates())
def test_single_search_falls_back_without_gates(g):
    dist, codes = breadth_first_reference(g)
    if codes is None or g.n % 2 == 0 and len(g.edges) == g.n:
        # no partial cube, or an even cycle: some wall's far side has
        # two vertices nearest 0, and the check refuses the codes
        assert g._codes is None
    assert g.dist.dtype == dist.dtype and np.array_equal(g.dist, dist)
    got = g.wall_codes()
    assert (got is None) == (codes is None)
    if codes is not None:
        assert_codes_equal(got, codes)


def test_fallback_table_fills_in_row_blocks():
    # 1024 leaves, each a wall of its own: the all-pairs search.  The
    # int32 table takes 16 MiB; scipy's float64 rows for every source at
    # once would add 32 MiB more.
    tracemalloc.start()
    try:
        g = generate("tree", [2, 10])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g._codes is None
    assert peak < 32 * 2**20, peak
    assert g.dist.dtype == np.int32 and g.dist[0].max() == 10 and g.dist.max() == 20
    assert np.array_equal(g.dist[1000], breadth_first_reference(g)[0][1000])
