import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mediancert.errors import CornerFailure, NotMedian
from mediancert.median_core import MedianGraph, grid, interval
from mediancert.cube_complex import (
    Hyperplane,
    crosses,
    hyperplanes,
    normal_cube_path,
    rank,
    separators,
)
from mediancert.propa_engine import Cat0WitnessProvider


def incident_improving_walls(g, v, target):
    """Wall indices dual to an edge at v that still separate v from target."""
    out = set()
    for h in hyperplanes(g):
        if not h.separates(v, target):
            continue
        if any((min(u, v), max(u, v)) in h.edges for u in g.adj[v]):
            out.add(h.index)
    return out


# -- wall structure ------------------------------------------------------


def test_grid3_wall_sides(grid3):
    hs = hyperplanes(grid3)
    assert [sorted(h.minus_side) for h in hs] == [
        [0, 3, 6],
        [0, 1, 2],
        [0, 1, 3, 4, 6, 7],
        [0, 1, 2, 3, 4, 5],
    ]
    for h in hs:
        assert sorted(h.plus_side) == sorted(set(range(9)) - set(h.minus_side))
        assert h.side_of(min(h.minus_side)) == -1
        assert h.side_of(min(h.plus_side)) == 1


def test_wall_edges_partition(q3, grid4):
    for g in (q3, grid4):
        seen = set()
        for h in hyperplanes(g):
            assert not (h.edges & seen)
            seen |= h.edges
            for u, v in h.edges:
                assert h.separates(u, v)
        assert seen == set(g.edges)


def test_path_walls_are_prefixes(path5):
    hs = hyperplanes(path5)
    assert [sorted(h.minus_side) for h in hs] == [
        list(range(k + 1)) for k in range(5)
    ]
    assert rank(path5) == 1
    assert not any(
        crosses(a, b) for a, b in itertools.combinations(hs, 2)
    )


def test_hypercube_walls(q2, q3, q4):
    for d, g in ((2, q2), (3, q3), (4, q4)):
        hs = hyperplanes(g)
        assert len(hs) == d
        for h in hs:
            assert len(h.minus_side) == len(h.plus_side) == 2 ** (d - 1)
        assert all(crosses(a, b) for a, b in itertools.combinations(hs, 2))
        assert rank(g) == d


def test_crossing_pattern(grid3, grid5):
    hs = hyperplanes(grid3)
    got = [
        (i, j)
        for i in range(len(hs))
        for j in range(i + 1, len(hs))
        if crosses(hs[i], hs[j])
    ]
    assert got == [(0, 1), (0, 3), (1, 2), (2, 3)]
    # 4 vertical cuts x 4 horizontal cuts
    h5 = hyperplanes(grid5)
    assert sum(crosses(a, b) for a, b in itertools.combinations(h5, 2)) == 16
    assert crosses(h5[0], h5[1]) == crosses(h5[1], h5[0])


def test_rank_values(grid3, grid8, tree23, stair4, path5):
    assert rank(grid3) == 2
    assert rank(grid8) == 2
    assert rank(tree23) == 1
    assert rank(stair4) == 2
    assert rank(path5) == 1


def test_separators_match_distance(grid5, q4, tree23):
    for g in (grid5, q4, tree23):
        for x in range(g.n):
            for y in range(g.n):
                assert len(separators(g, x, y)) == g.dist[x, y]


def test_sides_are_interval_closed(grid4):
    for h in hyperplanes(grid4):
        for side in (h.minus_side, h.plus_side):
            members = list(side)
            for u, v in itertools.combinations(members, 2):
                assert interval(grid4, u, v) <= side


def test_odd_cycle_rejected():
    c5 = MedianGraph(5, [(i, (i + 1) % 5) for i in range(5)])
    with pytest.raises(NotMedian) as err:
        hyperplanes(c5)
    assert err.value.rule == "wall-structure"
    assert "odd cycle" in str(err.value)


def test_intransitive_relation_rejected(k23):
    with pytest.raises(NotMedian) as err:
        hyperplanes(k23)
    assert "transitive" in str(err.value)
    assert err.value.context["edges"] == ((0, 2), (0, 3))


def _first_two_step_pair(g):
    """The first edge pair, in row-major order, that the relation joins
    in two steps but not in one, from the m x m relation."""
    ea, eb = g.edge_array.T
    d = g.dist.astype(np.int64)
    rel = d[ea[:, None], ea] + d[eb[:, None], eb] != d[ea[:, None], eb] + d[eb[:, None], ea]
    hops = rel.astype(np.int64)
    i, j = np.argwhere((hops @ hops > 0) & ~rel)[0]
    return g.edges[i], g.edges[j]


@st.composite
def _bipartite_graphs(draw):
    """A grid with some edges dropped and some chords between its two
    colour classes added."""
    w, h = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    g = grid(w, h)
    edges = [e for e in g.edges if not draw(st.booleans()) or draw(st.booleans())]
    even, odd = (np.flatnonzero(g.dist[0] % 2 == c).tolist() for c in (0, 1))
    chords = draw(st.lists(st.tuples(st.sampled_from(even), st.sampled_from(odd)), max_size=6))
    try:
        return MedianGraph(g.n, sorted({tuple(sorted(e)) for e in edges + chords}))
    except ValueError:  # disconnected
        assume(False)


@settings(max_examples=80, deadline=None)
@given(_bipartite_graphs())
def test_intransitive_pair_is_the_first_two_step_pair(g):
    try:
        hyperplanes(g)
    except NotMedian as err:
        assert err.context["edges"] == _first_two_step_pair(g)
    else:
        assert g.wall_codes() is not None


def test_dense_bipartite_graph_is_refused_in_bounded_memory():
    # K_250,250: the m x m relation alone would take 14.6 GiB
    g = MedianGraph(500, [(i, 250 + j) for i in range(250) for j in range(250)])
    tracemalloc.start()
    try:
        with pytest.raises(NotMedian) as err:
            rank(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert err.value.report() == {
        "error": "wall-structure", "message": "edge relation is not transitive",
        "edges": ((0, 250), (0, 251)),
    }
    assert peak < 96 * 2**20


def test_even_cycle_walls_pass_but_paths_fail(c6):
    # C6 has a clean wall structure (3 antipodal edge pairs) yet no cube
    # corners, so the defect surfaces at path-construction time
    assert len(hyperplanes(c6)) == 3
    with pytest.raises(CornerFailure) as err:
        normal_cube_path(c6, 0, 3)
    assert err.value.rule == "cube-corner"


# -- normal cube paths ---------------------------------------------------


def test_ncp_frozen_examples(grid3, grid5, q4):
    p = normal_cube_path(grid3, 0, 8)
    assert p.vertices == (0, 4, 8)
    assert [sorted(s) for s in p.steps] == [[0, 1], [2, 3]]

    p = normal_cube_path(grid5, 24, 0)
    assert p.vertices == (24, 18, 12, 6, 0)
    assert [sorted(s) for s in p.steps] == [[4, 7], [3, 6], [2, 5], [0, 1]]

    p = normal_cube_path(q4, 0, 15)
    assert p.vertices == (0, 15)
    assert [sorted(s) for s in p.steps] == [[0, 1, 2, 3]]


def test_ncp_trivial_and_clamp(grid4):
    p = normal_cube_path(grid4, 7, 7)
    assert p.vertices == (7,) and p.steps == ()
    assert p.vertex_after(0) == 7 and p.vertex_after(9) == 7
    assert normal_cube_path(grid4, 0, 15).vertex_after(0) == 0
    assert normal_cube_path(grid4, 0, 15).vertex_after(50) == 15


def test_ncp_invariants_exhaustive(grid4, tree23, stair4):
    for g in (grid4, tree23, stair4):
        d = rank(g)
        for x in range(g.n):
            for y in range(g.n):
                p = normal_cube_path(g, x, y)
                assert p.vertices[0] == x and p.vertices[-1] == y
                rho = int(g.dist[x, y])
                assert math.ceil(rho / d) <= len(p) <= rho if rho else len(p) == 0
                walls = hyperplanes(g)
                crossed = []
                for i, step in enumerate(p.steps):
                    # maximal: exactly the improving walls at an incident edge
                    assert step == incident_improving_walls(g, p.vertices[i], y)
                    for a, b in itertools.combinations(sorted(step), 2):
                        assert crosses(walls[a], walls[b])
                    assert (
                        g.dist[p.vertices[i + 1], y]
                        == g.dist[p.vertices[i], y] - len(step)
                    )
                    crossed.extend(step)
                assert len(crossed) == len(set(crossed))
                assert set(crossed) == set(separators(g, x, y))


def test_ncp_steps_span_cubes(grid4, q4):
    # each step really is a cube: one corner per sign pattern over its walls
    for g, x, y in ((grid4, 0, 15), (grid4, 12, 3), (q4, 0, 15)):
        p = normal_cube_path(g, x, y)
        for i, step in enumerate(p.steps):
            v, w = p.vertices[i], p.vertices[i + 1]
            corners = {}
            for u in interval(g, v, w):
                sep = separators(g, v, u)
                assert sep <= step
                corners.setdefault(frozenset(sep), []).append(u)
            assert len(corners) == 2 ** len(step)
            assert all(len(us) == 1 for us in corners.values())


def test_ncp_and_witness_sets_reject_ids_out_of_range(grid3):
    # numpy would wrap -1 around to vertex n - 1
    provider = Cat0WitnessProvider(grid3, 0)
    for bad in (-1, 9):
        with pytest.raises(ValueError, match="out of range 0..8"):
            normal_cube_path(grid3, bad, 0)
        with pytest.raises(ValueError, match="out of range 0..8"):
            normal_cube_path(grid3, 0, bad)
        with pytest.raises(ValueError, match="out of range 0..8"):
            provider.sets(bad, 1, 1)


def test_witness_sets_fail_on_a_step_without_a_cube(c6):
    # vertex 0's step toward 3 crosses two walls whose square C6 lacks;
    # it starts a path of its own, so the provider refuses every set
    with pytest.raises(CornerFailure) as err:
        Cat0WitnessProvider(c6, 3).sets(1, 1, 1)
    assert err.value.context["vertex"] == 0


def test_ncp_cached_and_deterministic(grid5):
    p1 = normal_cube_path(grid5, 3, 20)
    fresh = MedianGraph(grid5.n, list(grid5.edges))
    p3 = normal_cube_path(fresh, 3, 20)
    assert p3.vertices == p1.vertices and p3.steps == p1.steps


# -- witness sets on exact graphs ---------------------------------------


def test_witness_sets_frozen(grid8):
    got = Cat0WitnessProvider(grid8, 0).sets(63, 3, 1)
    assert sorted(got) == [12, 19, 20, 26, 27, 28, 33, 34, 35, 36]


def test_witness_sets_saturate(grid3):
    # 3l = 6 covers the whole distance 4, so every start lands on the base
    assert sorted(Cat0WitnessProvider(grid3, 0).sets(8, 1, 2)) == [0]


def test_witness_sets_basic_bounds(grid8):
    d = rank(grid8)
    for x, k, l in ((63, 3, 1), (45, 2, 1), (30, 5, 2)):
        s = list(Cat0WitnessProvider(grid8, 0).sets(x, k, l))
        assert s
        for m in s:
            assert m in interval(grid8, x, 0)
        for a, b in itertools.combinations(s, 2):
            assert grid8.dist[a, b] <= 6 * l * d
        assert len(s) <= (12 * l * d + 1) ** d


def test_witness_sets_radius_validation(grid3):
    with pytest.raises(ValueError):
        Cat0WitnessProvider(grid3, 0).sets(8, 0, 1)
    with pytest.raises(ValueError):
        Cat0WitnessProvider(grid3, 0).sets(8, 4, 1)
