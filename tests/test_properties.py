"""Property tests: sign-code medians, walls, cube steps, closures and
ranks, and the exhaustive coarse fit, against references built from the
tables alone.

The references are deliberately naive: medians from the three pairwise
intervals of every triple, walls from the edge relation
(a,b) ~ (c,d) iff d(a,c) + d(b,d) != d(a,d) + d(b,c), cube paths from
an edge-by-edge walk across each step's walls, median closures from the
median table, ranks from pairwise ``crosses`` (for a closure, on its own
graph from the packed interval table), majority closures on Python ints,
H0 from the sextuple sweep at every K of the grid, and gamma from every
5-tuple.
"""

import dataclasses
import itertools
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from mediancert import coarse_median
from mediancert.coarse_median import (
    CLOSURE_CAP,
    K_GRID,
    CoarseMedianInstance,
    _defect_exhaustive,
    _gamma_exhaustive,
    _h0_exhaustive,
    _slot_envelope,
    check_lemma_6_2,
    coarse_interval,
    estimate_params,
    find_deep_point,
    from_median_graph,
    l_constants,
    median_closure,
    verify_C2_exact,
)
from mediancert.cube_complex import crosses, hyperplanes, normal_cube_path, rank
from mediancert.errors import (
    BudgetExceeded,
    CornerFailure,
    MedianCertError,
    MedianViolation,
    NotCoarseMedian,
    NotMedian,
    PreconditionViolation,
)
from mediancert.harness_cli import generate
from mediancert.median_core import MedianGraph, VertexSet, majority_closure
from mediancert.propa_engine import Cat0WitnessProvider

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


def brute_medians(g):
    """(table, None), or (None, (triple, candidates)) for the first
    triple in lexicographic order whose intervals do not meet in
    exactly one vertex."""
    d = g.dist.astype(np.int64)
    iv = d[:, None, :] + d[None, :, :] == d[:, :, None]  # iv[a, b, c]: c in I(a, b)
    tab = np.empty((g.n,) * 3, dtype=np.int64)
    for x in range(g.n):
        meet = iv[x][:, None, :] & iv & iv[x][None, :, :]
        counts = meet.sum(axis=2)
        bad = np.argwhere(counts != 1)
        if len(bad):
            y, z = (int(v) for v in bad[0])
            return None, ((x, y, z), np.flatnonzero(meet[y, z]).tolist())
        tab[x] = meet.argmax(axis=2)
    return tab, None


def theta_walls(g):
    """Walls as (edges, minus side, plus side) in order of smallest
    edge, or None when the graph is not bipartite or the relation is
    not transitive."""
    d = g.dist
    if any(d[0, u] % 2 == d[0, v] % 2 for u, v in g.edges):
        return None
    related = [
        frozenset(
            j for j, (c, e) in enumerate(g.edges)
            if d[a, c] + d[b, e] != d[a, e] + d[b, c]
        )
        for a, b in g.edges
    ]
    if any(related[j] != cls for cls in related for j in cls):
        return None
    walls = []
    for cls in sorted(set(related), key=min):
        a, b = g.edges[min(cls)]
        minus = {v for v in range(g.n) if d[v, a] < d[v, b]}
        walls.append(
            (frozenset(g.edges[j] for j in cls), minus, set(range(g.n)) - minus)
        )
    return walls


# -- graph strategies ----------------------------------------------------


@st.composite
def closures(draw):
    k, dim = draw(st.integers(2, 6)), draw(st.integers(2, 5))
    return generate("median-closure", [k, dim], seed=draw(st.integers(0, 10**6)))


@st.composite
def grids_and_trees(draw):
    if draw(st.booleans()):
        return generate("grid", [draw(st.integers(0, 5)), draw(st.integers(0, 5))])
    return generate("tree", [draw(st.integers(1, 3)), draw(st.integers(0, 3))])


@st.composite
def wide_trees(draw):
    # 65..90 vertices: more than 64 walls, so codes span two words
    n = draw(st.integers(66, 90))
    parents = [draw(st.integers(0, v - 1)) for v in range(1, n)]
    return MedianGraph(n, [(p, v) for v, p in enumerate(parents, 1)])


@st.composite
def bipartite_graphs(draw):
    a, b = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    n = a + b
    # colour classes 0..a-1 and a..n-1; a spanning tree keeps it connected
    edges = {(0, a)}
    placed = {False: [0], True: [a]}
    for v in [*range(1, a), *range(a + 1, n)]:
        side = v >= a
        u = draw(st.sampled_from(placed[not side]))
        edges.add((min(u, v), max(u, v)))
        placed[side].append(v)
    extra = draw(st.lists(st.tuples(st.integers(0, a - 1), st.integers(a, n - 1)), max_size=8))
    edges |= set(extra)
    return MedianGraph(n, sorted(edges))


@st.composite
def cycles(draw):
    # odd: not bipartite; even from 6 on: a partial cube that is not median
    n = draw(st.integers(3, 40))
    return MedianGraph(n, [(i, (i + 1) % n) for i in range(n)])


@st.composite
def cube_subgraphs(draw):
    # Q_dim less a few vertices: partial cubes or not, median or not
    dim = draw(st.integers(2, 5))
    gone = draw(st.sets(st.integers(0, (1 << dim) - 1), max_size=1 << (dim - 1)))
    pts = sorted(set(range(1 << dim)) - gone)
    idx = {p: i for i, p in enumerate(pts)}
    edges = [(idx[p], idx[q]) for p in pts for q in pts if p < q and (p ^ q).bit_count() == 1]
    try:
        return MedianGraph(len(pts), edges)
    except ValueError:  # disconnected
        assume(False)


FAMILIES = {
    "closure": closures(),
    "grid-or-tree": grids_and_trees(),
    "wide-tree": wide_trees(),
    "bipartite": bipartite_graphs(),
    "cube-subgraph": cube_subgraphs(),
    "cycle": cycles(),
}
each_family = pytest.mark.parametrize("family", sorted(FAMILIES))


# -- properties ----------------------------------------------------------


@each_family
@SETTINGS
@given(data=st.data())
def test_median_table_matches_intervals(family, data):
    g = data.draw(FAMILIES[family])
    want, witness = brute_medians(g)
    if witness is None:
        assert np.array_equal(g.median_table(), want)
        return
    with pytest.raises(MedianViolation) as info:
        g.median_table()
    rep = info.value.report()
    assert (rep["triple"], rep["candidates"]) == witness


@each_family
@SETTINGS
@given(data=st.data())
def test_verify_medians_agrees_with_table(family, data):
    g = data.draw(FAMILIES[family])
    _, witness = brute_medians(g)
    fresh = MedianGraph(g.n, g.edges)
    if witness is None:
        fresh.verify_medians()
        return
    with pytest.raises(MedianViolation) as info:
        fresh.verify_medians()
    assert info.value.report()["triple"] == witness[0]


@each_family
@SETTINGS
@given(data=st.data())
def test_walls_match_theta_classes(family, data):
    g = data.draw(FAMILIES[family])
    want = theta_walls(g)
    if want is None:
        with pytest.raises(NotMedian):
            hyperplanes(g)
        return
    got = hyperplanes(g)
    assert [h.index for h in got] == list(range(len(want)))
    assert [(h.edges, set(h.minus_side), set(h.plus_side)) for h in got] == want
    wall_of = dict(zip(g.edges, g.wall_codes().edge_wall.tolist()))
    for h in got:
        for e in h.edges:
            assert wall_of[e] == h.index


# -- cube steps -----------------------------------------------------------


def _cross_walls(g, wall_of, start, wall_ids):
    v = start
    for wid in wall_ids:
        nxt = None
        for u in g.adj[v]:
            if wall_of[(min(u, v), max(u, v))] == wid:
                nxt = u
                break
        if nxt is None:
            raise CornerFailure(
                f"no edge dual to wall {wid} at vertex {v}",
                vertex=v, wall=wid,
            )
        v = nxt
    return v


def reference_cube_path(g, x, target):
    """(vertices, steps) of the edge-by-edge walk: at each vertex the
    walls of the edges that get closer to the target, a pairwise
    crossing check, then those walls crossed one edge at a time in
    sorted and in a seeded shuffled order, which must meet."""
    walls = hyperplanes(g)
    wall_of = {e: h.index for h in walls for e in h.edges}
    d = g.dist
    v = x
    vertices = [x]
    steps = []
    while v != target:
        step = sorted(
            {
                wall_of[(min(u, v), max(u, v))]
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
        corner = _cross_walls(g, wall_of, v, step)
        shuffled = list(step)
        random.Random(1000003 * x + 31 * target + len(steps)).shuffle(shuffled)
        if _cross_walls(g, wall_of, v, shuffled) != corner:
            raise CornerFailure(
                "cube corner depends on crossing order",
                vertex=v, step=tuple(step),
            )
        steps.append(frozenset(step))
        vertices.append(corner)
        v = corner
    return vertices, steps


def spans_cube(g, v, w):
    """Brute force: the interval of a step across k walls holds 2^k vertices."""
    return int(g.interval_row(v, w).sum()) == 2 ** int(g.dist[v, w])


def cube_less_one(dim, gone):
    pts = [p for p in range(1 << dim) if p != gone]
    idx = {p: i for i, p in enumerate(pts)}
    edges = [(idx[p], idx[q]) for p in pts for q in pts if p < q and (p ^ q).bit_count() == 1]
    return MedianGraph(len(pts), edges), idx


@st.composite
def cubes_less_one(draw):
    dim = draw(st.sampled_from([3, 4]))
    return cube_less_one(dim, draw(st.integers(0, (1 << dim) - 1)))[0]


STEP_FAMILIES = {
    **FAMILIES,
    "cube-less-one": cubes_less_one(),
    "c6-c8": st.sampled_from([6, 8]).map(
        lambda n: MedianGraph(n, [(i, (i + 1) % n) for i in range(n)])
    ),
}


@pytest.mark.parametrize("family", sorted(STEP_FAMILIES))
@SETTINGS
@given(data=st.data())
def test_step_map_matches_edge_walk(family, data):
    g = data.draw(STEP_FAMILIES[family])
    target = data.draw(st.integers(0, g.n - 1))
    rules = set()
    for x in range(g.n):
        try:
            vertices, steps = reference_cube_path(g, x, target)
        except MedianCertError as exc:
            # the step map never accepts what the walk refused
            with pytest.raises(MedianCertError) as info:
                normal_cube_path(g, x, target)
            assert info.value.rule == exc.rule
            rules.add(exc.rule)
            continue
        try:
            got = normal_cube_path(g, x, target)
        except CornerFailure as exc:
            # stricter than the walk: the first step on its path that
            # spans no cube
            bad = [v for v, w in zip(vertices, vertices[1:]) if not spans_cube(g, v, w)]
            assert bad and exc.context["vertex"] == bad[0]
            rules.add(exc.rule)
            continue
        assert list(got.vertices) == vertices and list(got.steps) == steps
        walls = hyperplanes(g)
        for v, w, step in zip(vertices, vertices[1:], steps):
            assert spans_cube(g, v, w)
            assert all(crosses(walls[a], walls[b]) for a, b in itertools.combinations(step, 2))
    # every vertex starts a path, so the witness rows fail exactly when
    # some path does
    provider = Cat0WitnessProvider(g, target)
    if rules:
        with pytest.raises(MedianCertError) as info:
            provider._endpoint_row(1)
        assert info.value.rule in rules
        return
    for level in (1, 2):
        want = [normal_cube_path(g, y, target).vertex_after(3 * level) for y in range(g.n)]
        assert provider._endpoint_row(level).tolist() == want


def test_step_spanning_no_cube_raises():
    # Q3 less 000: from 101 toward 010 all three walls get closer, and
    # both edge walks go round the gap to 010, but the 3-cube they would
    # span lacks 000
    g, idx = cube_less_one(3, 0)
    x, target = idx[0b101], idx[0b010]
    vertices, steps = reference_cube_path(g, x, target)
    assert vertices == [x, target] and len(steps[0]) == 3
    assert not spans_cube(g, x, target)
    with pytest.raises(CornerFailure) as info:
        normal_cube_path(g, x, target)
    assert info.value.context["vertex"] == x


# -- closures and rank ----------------------------------------------------


def reference_closure(g, a, cap):
    """The former median closure, on the median table."""
    tab = g.median_table()
    cur = np.array(sorted(a), dtype=np.int64)
    while True:
        vals = np.unique(tab[np.ix_(cur, cur, cur)].astype(np.int64))
        merged = np.union1d(cur, vals)
        if len(merged) > cap:
            raise BudgetExceeded("median closure exceeded its cap", cap=cap)
        if len(merged) == len(cur):
            return set(cur.tolist())
        cur = merged


def reference_rank(g):
    """Largest family of pairwise-crossing walls, by ``crosses``."""
    hs = hyperplanes(g)
    best = 0
    for size in range(1, len(hs) + 1):
        if not any(
            all(crosses(p, q) for p, q in itertools.combinations(family, 2))
            for family in itertools.combinations(hs, size)
        ):
            break
        best = size
    return best


def reference_closure_rank(g, mem):
    """Rank of the closure's own graph: an edge wherever its interval,
    from the packed interval table, holds two closure points."""
    if len(mem) < 2:
        return 0
    own = np.zeros((g.n + 7) // 8, dtype=np.uint8)
    for v in mem:
        own[v >> 3] |= 1 << (v & 7)
    sub = g.packed_intervals()[np.ix_(mem, mem)] & own[None, None, :]
    counts = np.unpackbits(sub, axis=2).sum(axis=2, dtype=np.int32)
    iu, ju = np.nonzero(np.triu(counts == 2, 1))
    return reference_rank(MedianGraph(len(mem), list(zip(iu.tolist(), ju.tolist()))))


def reference_majority_closure(points, cap: int) -> list[int]:
    """The generator's former closure of ints under bitwise majority,
    refused when it holds more than ``cap`` points, the input included."""
    cur = set(int(p) for p in points)
    while True:
        if len(cur) > cap:
            raise BudgetExceeded(
                "majority closure exceeded its cap", cap=cap, size=len(cur)
            )
        fresh = set()
        lst = sorted(cur)
        for i, a in enumerate(lst):
            for b in lst[i + 1:]:
                both = a & b
                either = a | b
                for c in lst:
                    m = both | (either & c)
                    if m not in cur:
                        fresh.add(m)
        if not fresh:
            return sorted(cur)
        cur |= fresh


def outcome(fn, *args):
    """A function's value, or the rule of the error it raised."""
    try:
        return fn(*args)
    except MedianCertError as exc:
        return exc.rule


@pytest.mark.parametrize("family", sorted(STEP_FAMILIES))
@SETTINGS
@given(data=st.data())
def test_median_closure_matches_table(family, data):
    g = data.draw(STEP_FAMILIES[family])
    a = data.draw(st.sets(st.integers(0, g.n - 1), min_size=1, max_size=5))
    cap = data.draw(st.sampled_from([3, 8, CLOSURE_CAP]))
    want = outcome(reference_closure, g, a, cap)
    fresh = MedianGraph(g.n, g.edges)
    got = outcome(median_closure, fresh, VertexSet.of(g.n, a), cap)
    if want == "unique-median" and got != want:
        # the table fails on the whole graph, the closure only where a
        # majority is no vertex's code (or at its cap before that): each
        # triple of this one has a unique median, inside it
        if got == "budget":
            return
        mem = sorted(got)
        assert a <= set(mem)
        d = g.dist
        for x, y, z in itertools.combinations_with_replacement(mem, 3):
            meet = (d[x] + d[y] == d[x, y]) & (d[y] + d[z] == d[y, z]) & (d[z] + d[x] == d[z, x])
            assert np.flatnonzero(meet).tolist() in [[m] for m in mem]
        return
    assert (set(got) if isinstance(got, VertexSet) else got) == want
    if want == "unique-median":
        # the same first bad triple as the table names
        with pytest.raises(MedianViolation) as table_error:
            MedianGraph(g.n, g.edges).median_table()
        with pytest.raises(MedianViolation) as closure_error:
            median_closure(fresh, VertexSet.of(g.n, a), cap)
        assert closure_error.value.report() == table_error.value.report()


@pytest.mark.parametrize("family", sorted(STEP_FAMILIES))
@SETTINGS
@given(data=st.data())
def test_rank_matches_pairwise_crossing(family, data):
    g = data.draw(STEP_FAMILIES[family])
    want = outcome(reference_rank, g)
    assert outcome(rank, MedianGraph(g.n, g.edges)) == want
    if isinstance(want, str) or isinstance(outcome(g.median_table), str):
        return
    a = data.draw(st.sets(st.integers(0, g.n - 1), min_size=1, max_size=5))
    rep = verify_C2_exact(g, a)
    mem = sorted(reference_closure(g, a, CLOSURE_CAP))
    assert sorted(rep.closure) == mem
    assert (rep.h_p, rep.graph_rank) == (0, want)
    assert rep.closure_rank == reference_closure_rank(g, mem) <= want


@st.composite
def nearby_points(draw):
    """(d, points of the d-cube a few bit flips apart), so closures stay
    small at any width."""
    d = draw(st.integers(1, 70))
    base = draw(st.integers(0, (1 << d) - 1))
    flips = st.frozensets(st.integers(0, d - 1), max_size=3).map(lambda bits: sum(1 << b for b in bits))
    return d, [base ^ f for f in draw(st.lists(flips, min_size=1, max_size=5))]


@SETTINGS
@given(case=nearby_points(), cap=st.sampled_from([4, 16, 4096]))
@example(case=(64, [(1 << 64) - 1, 1 << 63, 5]), cap=4096)
@example(case=(70, [1 << 69, (1 << 64) - 1, 1 << 64 | 3, 6]), cap=4)
# already closed, but one point over the cap
@example(case=(3, [0, 1, 2, 4, 3]), cap=4)
def test_majority_closure_matches_int_closure(case, cap):
    d, points = case
    want = outcome(reference_majority_closure, points, cap)
    words = [[p >> 64 * j & (1 << 64) - 1 for p in points] for j in range(-(-d // 64))]
    got = outcome(majority_closure, np.array(words, dtype=np.uint64), cap)
    if not isinstance(got, str):
        got = sorted(sum(int(w) << 64 * j for j, w in enumerate(col)) for col in got.T)
    assert got == want


# -- exhaustive coarse fit ------------------------------------------------


def reference_fit(inst, cap):
    """(K, H0) from the sextuple sweep at each K in turn, or None."""
    for k in K_GRID:
        h0 = max(_defect_exhaustive(inst, k), Fraction(0))
        if cap is None or h0 <= cap:
            return k, h0
    return None


def reference_gamma(inst):
    """Every 5-tuple, one (x, y) at a time."""
    d, mu, n = inst.dist_int, inst.mu, inst.n
    worst = 0
    for x in range(n):
        for y in range(n):
            a_row = mu[x, y]
            lhs = a_row[mu]  # lhs[z, v, w] = mu(x, y, mu(z, v, w))
            rhs = mu[a_row[:, None, None], a_row[None, :, None],
                     np.arange(n)[None, None, :]]
            worst = max(worst, int(d[lhs.ravel(), rhs.ravel()].max()))
    return Fraction(worst)


@st.composite
def integer_metrics(draw, n):
    # distinct points on a line, or shortest paths over positive integer
    # weights; the line puts near and far pairs in one instance
    if draw(st.booleans()):
        at = np.array(draw(st.lists(st.integers(0, 60), min_size=n, max_size=n, unique=True)))
        return np.abs(at[:, None] - at[None, :]).tolist()
    w = np.array(draw(st.lists(st.integers(1, 24), min_size=n * n, max_size=n * n)))
    d = np.minimum(w.reshape(n, n), w.reshape(n, n).T)
    np.fill_diagonal(d, 0)
    for m in range(n):
        d = np.minimum(d, d[:, m, None] + d[None, m, :])
    return d.tolist()


INSTANCE_KINDS = ("random", "symmetric", "one-off", "slot", "constant", "graph")


@st.composite
def small_instances(draw, kinds=INSTANCE_KINDS):
    """Random integer instances of 2..6 points.  The operation is random,
    random on sorted triples (symmetric), that with one entry changed,
    a map of one argument slot (the bare projection has single-argument
    defect 0 at K = 1), a constant, or the medians of a small median
    graph."""
    kind = draw(st.sampled_from(kinds))
    if kind == "graph":
        g = draw(st.sampled_from([
            generate("grid", [1, 2]), generate("tree", [2, 1]),
            generate("staircase", [1]), generate("hypercube", [2]),
        ]))
        return from_median_graph(g)
    n = draw(st.integers(2, 6))
    dist = draw(integer_metrics(n))
    points = st.integers(0, n - 1)
    ijk = np.indices((n, n, n)).reshape(3, -1)
    if kind == "random":
        mu = np.array(draw(st.lists(points, min_size=n**3, max_size=n**3)))
    elif kind in ("symmetric", "one-off"):
        values = np.array(draw(st.lists(points, min_size=n**3, max_size=n**3)))
        lo, mid, hi = np.sort(ijk, axis=0)
        mu = values[(lo * n + mid) * n + hi]
        if kind == "one-off":
            mu[draw(st.integers(0, n**3 - 1))] = draw(points)
    elif kind == "slot":
        image = np.arange(n)
        if draw(st.booleans()):
            image = np.array(draw(st.lists(points, min_size=n, max_size=n)))
        mu = image[ijk[draw(st.integers(0, 2))]]
    else:
        mu = np.full(n**3, draw(points))
    return CoarseMedianInstance(dist, mu.reshape(n, n, n), d=1)


# the fit properties are cheap per example, so they draw more of them
FIT_SETTINGS = settings(SETTINGS, max_examples=150)


LINE4 = [[abs(i - j) for j in range(4)] for i in range(4)]


def planted(entry, value):
    # the first projection (gamma 0) with one entry at x > y changed:
    # the table is not symmetric, and its defect depends on argument order
    mu = np.indices((4, 4, 4))[0].astype(np.int32)
    mu[entry] = value
    return CoarseMedianInstance(LINE4, mu, d=1)


def last_slot_jump():
    # mu(a, b, c) = image[c]: only the third slot moves the value, by
    # more than K = 1 pays for
    image = np.array([0, 3, 1, 2])
    return CoarseMedianInstance(LINE4, image[np.indices((4, 4, 4))[2]], d=1)


def far_jump():
    # points 0, 1 and 100 on a line; moving one argument from 0 to 1
    # moves the value from 0 to 100, more than any K of the grid pays for
    mu = np.zeros((3, 3, 3), dtype=np.int32)
    mu[1, 0, 0] = 2
    return CoarseMedianInstance([[0, 1, 100], [1, 0, 99], [100, 99, 0]], mu, d=1)


@FIT_SETTINGS
@given(inst=small_instances())
@example(inst=last_slot_jump())
@example(inst=planted((2, 0, 0), 0))
def test_h0_matches_sextuple_sweep(inst):
    env = _slot_envelope(inst)
    for k in K_GRID:
        assert _h0_exhaustive(inst, k, env) == max(_defect_exhaustive(inst, k), 0)


@FIT_SETTINGS
@given(inst=small_instances(), cap=st.sampled_from([None, 0, Fraction(1, 2), 1, 3]))
@example(inst=far_jump(), cap=0)
@example(inst=far_jump(), cap=None)
def test_fit_matches_sextuple_reference(inst, cap):
    want = reference_fit(inst, cap)
    if want is None:
        with pytest.raises(NotCoarseMedian):
            estimate_params(inst, h0_cap=cap)
        return
    p = estimate_params(inst, h0_cap=cap)
    assert (p.K, p.H0) == want


@FIT_SETTINGS
@given(inst=small_instances())
@example(inst=planted((2, 0, 0), 0))
@example(inst=planted((2, 1, 0), 3))
def test_gamma_matches_full_sweep(inst):
    assert _gamma_exhaustive(inst) == reference_gamma(inst)


def test_h0_falls_back_only_when_one_slot_moves(monkeypatch):
    calls = []

    def spy(inst, k):
        calls.append(k)
        return _defect_exhaustive(inst, k)

    monkeypatch.setattr(coarse_median, "_defect_exhaustive", spy)
    median = np.sort(np.indices((4, 4, 4)), axis=0)[1]
    inst = CoarseMedianInstance(LINE4, median, d=1)
    assert _h0_exhaustive(inst, Fraction(1), _slot_envelope(inst)) == 0
    assert calls == []
    # a jump in the first slot alone: D1 > 0 at K = 1, and the sweep runs
    jumpy = median.copy()
    jumpy[1, 2, 2] = 0
    inst = CoarseMedianInstance(LINE4, jumpy, d=1)
    env = _slot_envelope(inst)
    assert int((env - inst.dist_int).max()) > 0
    h0 = _h0_exhaustive(inst, Fraction(1), env)
    assert calls == [Fraction(1)]
    assert h0 == _defect_exhaustive(inst, Fraction(1)) > 0


# -- the metric as numerators over one denominator ----------------------
#
# The references are the loops the interval calculus ran before the
# metric became one integer table: one point and one Fraction at a time.


def operation_defects_reference(inst):
    tab = inst.mu
    m1 = Fraction(0)
    for perm in ((0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)):
        other = tab.transpose(perm)
        mism = tab != other
        for a, b in zip(tab[mism].tolist(), other[mism].tolist()):
            m1 = max(m1, Fraction(inst.rho(a, b)))
    m2 = Fraction(0)
    for a, b in itertools.product(range(inst.n), repeat=2):
        m2 = max(m2, Fraction(inst.rho(inst.med(a, a, b), a)))
    return m1, m2


def coarse_interval_reference(inst, a, b, tau):
    tau = Fraction(tau)
    return frozenset(x for x in inst.points() if inst.rho(inst.med(a, b, x), x) <= tau)


def lemma_6_2_reference(inst, a, b, x, r, l1):
    """(ok, witness), or None where x is not lam-between a and b."""
    if inst.rho(inst.med(a, b, x), x) > inst.params.lam:
        return None
    for z in inst.points():
        if inst.rho(inst.med(a, x, z), z) <= Fraction(r) and inst.rho(inst.med(a, b, z), z) > l1:
            return False, z
    return True, None


def deep_point_reference(inst, a, b, r, t, kappa):
    if Fraction(r) <= 0 or Fraction(t) <= 0:
        return None
    cs = l_constants(inst.params, r, t, inst.d)
    rt = Fraction(r) * Fraction(t)
    cut = [
        x for x in inst.points()
        if inst.rho(a, x) <= rt and inst.rho(inst.med(a, b, x), x) <= Fraction(kappa)
    ]
    candidates = sorted(
        (
            h for h in inst.points()
            if inst.rho(inst.med(a, b, h), h) <= cs.L1 and inst.rho(a, h) <= cs.L3
        ),
        key=lambda h: (inst.rho(a, h), h),
    )
    for h in candidates:
        if all(inst.rho(inst.med(a, h, x), x) <= cs.L2 for x in cut):
            return h
    return None


def sampled_fit_reference(inst, cap, budget, seed):
    """(K, H0, gamma, lam) from the seeded samples, or None when no K
    fits the cap."""
    med, rho = inst.med, inst.rho
    rows = np.random.default_rng(seed).integers(0, inst.n, size=(budget, 6)).tolist()
    lhs = [rho(med(*r[:3]), med(*r[3:])) for r in rows]
    rhs = [rho(r[0], r[3]) + rho(r[1], r[4]) + rho(r[2], r[5]) for r in rows]
    fit = None
    for k in K_GRID:
        h0 = max(max(l - k * r for l, r in zip(lhs, rhs)), Fraction(0))
        if cap is None or h0 <= cap:
            fit = (k, h0)
            break
    if fit is None:
        return None
    fives = np.random.default_rng(seed ^ 0x5EED).integers(0, inst.n, size=(budget, 5)).tolist()
    gamma = max(
        Fraction(rho(med(x, y, med(z, v, w)), med(med(x, y, z), med(x, y, v), w)))
        for x, y, z, v, w in fives
    )
    lam = Fraction(0)
    for x, y, z in itertools.product(range(inst.n), repeat=3):
        m = med(x, y, z)
        lam = max(lam, Fraction(rho(med(x, y, m), m)))
    return (*fit, gamma, lam)


# integral, rational, and rational with numerators past int32 and past
# int64 (held as Python ints)
SCALES = [Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(7, 3),
          Fraction(2**40 + 1, 3), Fraction(2**64 + 1, 7)]


@st.composite
def scaled_instances(draw, kinds=INSTANCE_KINDS):
    base = draw(small_instances(kinds))
    scale = draw(st.sampled_from(SCALES))
    # distances with gcd 1, so that the table's denominator is the scale's
    g = np.gcd.reduce(base.dist_int.ravel()).item()
    dist = [[scale * (v // g) for v in row] for row in base.dist_int.tolist()]
    inst = CoarseMedianInstance(dist, base.mu, d=base.d)
    assert inst.den == scale.denominator
    assert (inst.nums.dtype == object) == (scale.numerator >= 2**31)
    return inst


def thresholds(inst):
    """A table value, where nums <= floor(q * den) holds with equality,
    a value just off one, or any small fraction."""
    pts = st.integers(0, inst.n - 1)
    on = st.builds(inst.rho, pts, pts)
    eps = Fraction(1, 2 * inst.den)
    near = st.builds(lambda v, s: v + s * eps, on, st.sampled_from([-1, 1]))
    top = int(inst.nums.max()) // inst.den + 1
    return st.one_of(on, near, st.fractions(-1, top, max_denominator=3 * inst.den))


@FIT_SETTINGS
@given(inst=scaled_instances(kinds=("random", "one-off", "slot")))
@example(inst=planted((2, 1, 0), 3))
def test_operation_defects_match_loops(inst):
    assert (inst.m1_defect, inst.m2_defect) == operation_defects_reference(inst)


@FIT_SETTINGS
@given(inst=scaled_instances(), data=st.data())
def test_interval_calculus_matches_loops(inst, data):
    estimate_params(inst, budget=500)
    pts = st.integers(0, inst.n - 1)
    a, b = data.draw(pts), data.draw(pts)
    tau = data.draw(thresholds(inst))
    assert coarse_interval(inst, a, b, tau) == coarse_interval_reference(inst, a, b, tau)
    # x = mu(a, b, z) is lam-between a and b, by lam's definition
    x = inst.med(a, b, data.draw(pts)) if data.draw(st.booleans()) else data.draw(pts)
    r = data.draw(thresholds(inst))
    # L1 as the fit gives it, or any threshold, which finds witnesses
    cs = l_constants(inst.params, r, 1, inst.d)
    if data.draw(st.booleans()):
        cs = dataclasses.replace(cs, L1=data.draw(thresholds(inst)))
    want = lemma_6_2_reference(inst, a, b, x, r, cs.L1)
    if want is None:
        with pytest.raises(PreconditionViolation):
            check_lemma_6_2(inst, a, b, x, r, cs)
    else:
        assert check_lemma_6_2(inst, a, b, x, r, cs) == want
    r, kappa = data.draw(thresholds(inst)), data.draw(thresholds(inst))
    t = data.draw(st.sampled_from([1, 2, Fraction(1, 2), Fraction(3, 2)]))
    assert find_deep_point(inst, a, b, r, t, kappa) == deep_point_reference(inst, a, b, r, t, kappa)


@FIT_SETTINGS
@given(inst=scaled_instances(), data=st.data(), seed=st.integers(0, 3))
def test_sampled_fit_matches_loops(inst, data, seed):
    cap = data.draw(st.one_of(st.none(), thresholds(inst)))
    want = sampled_fit_reference(inst, cap, 300, seed)
    # the sampled sweeps, whatever the size and the metric
    with mock.patch.object(coarse_median, "EXHAUSTIVE_POINTS", 0):
        if want is None:
            with pytest.raises(NotCoarseMedian):
                estimate_params(inst, budget=300, seed=seed, h0_cap=cap)
            return
        p = estimate_params(inst, budget=300, seed=seed, h0_cap=cap)
    assert (p.K, p.H0, p.gamma, p.lam) == want
