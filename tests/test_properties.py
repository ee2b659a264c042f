"""Property tests: sign-code medians and walls against references built
from the distance table alone.

The references are deliberately naive: medians from the three pairwise
intervals of every triple, walls from the edge relation
(a,b) ~ (c,d) iff d(a,c) + d(b,d) != d(a,d) + d(b,c).
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from mediancert.cube_complex import hyperplanes
from mediancert.errors import MedianViolation, NotMedian
from mediancert.harness_cli import generate
from mediancert.median_core import MedianGraph

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
    for h in got:
        for e in h.edges:
            assert g._edge_to_wall[e] == h.index
