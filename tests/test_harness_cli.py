import contextlib
import hashlib
import importlib.util
import io
import itertools
import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mediancert import coarse_median, harness_cli
from mediancert.coarse_median import (
    CoarseMedianInstance,
    coarsened_grid,
    estimate_params,
    from_median_graph,
    l_constants,
)
from mediancert.errors import BudgetExceeded
from mediancert.harness_cli import (
    GENERATORS,
    build_parser,
    generate,
    is_median_graph,
    load_input,
    main,
    parse_graph_text,
    parse_instance_text,
    write_graph_text,
    write_instance_text,
)
from mediancert.median_core import MedianGraph
from mediancert.propa_engine import CSV_HEADER


def run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


@pytest.fixture()
def grid3_file(tmp_path, grid3):
    p = tmp_path / "grid3.txt"
    p.write_text(write_graph_text(grid3))
    return str(p)


# -- generators ----------------------------------------------------------


def test_generator_counts():
    t = generate("tree", [2, 3])
    assert (t.n, len(t.edges)) == (15, 14)
    s = generate("staircase", [4])
    assert (s.n, len(s.edges)) == (13, 16)
    q = generate("hypercube", [4])
    assert (q.n, len(q.edges)) == (16, 32)
    g = generate("grid", [3, 3])
    assert (g.n, len(g.edges)) == (16, 24)


def test_grid_vertex_layout():
    g = generate("grid", [2, 2])
    # ids run row-major: i*rows + j
    assert g.distance(0, 1) == 1
    assert g.distance(0, 3) == 1
    assert g.distance(0, 8) == 4


def test_generator_param_validation():
    with pytest.raises(ValueError):
        generate("grid", [2])
    with pytest.raises(ValueError):
        generate("hypercube", [2, 3])
    with pytest.raises(ValueError):
        generate("widget", [1])
    with pytest.raises(ValueError):
        generate("tree", [0, 3])


def test_closure_generator_is_median():
    for seed in (0, 1, 2):
        g = generate("median-closure", [4, 5], seed=seed)
        ok, witness = is_median_graph(g)
        assert ok and witness is None
    a = generate("median-closure", [4, 5], seed=1)
    b = generate("median-closure", [4, 5], seed=1)
    assert a.n == b.n and a.edges == b.edges


def test_closure_generator_keeps_closures_above_table_limit():
    # the 264-point closure of the first draw, no longer thrown away for
    # exceeding the 256-vertex median table
    g = generate("median-closure", [9, 10], seed=1)
    assert g.n == 264
    assert is_median_graph(g) == (True, None)


def test_is_median_graph_witnesses(c6, k23):
    ok, report = is_median_graph(c6)
    assert not ok
    assert report["error"] == "unique-median"
    assert report["triple"] == (0, 2, 4) and report["candidates"] == []
    ok, report = is_median_graph(k23)
    assert not ok
    assert report["triple"] == (2, 3, 4) and report["candidates"] == [0, 1]


# -- text formats --------------------------------------------------------


def test_graph_text_roundtrip(grid4):
    text = write_graph_text(grid4)
    back = parse_graph_text(text)
    assert back.n == grid4.n and back.edges == grid4.edges
    assert write_graph_text(back) == text


def test_graph_text_parsing_details():
    g = parse_graph_text("# a square\nvertices 4\n\ne 0 1\ne 1 3  # top\ne 0 2\ne 2 3\n")
    assert g.n == 4 and len(g.edges) == 4
    with pytest.raises(ValueError, match="duplicate"):
        parse_graph_text("vertices 2\ne 0 1\ne 1 0\n")
    with pytest.raises(ValueError, match="header"):
        parse_graph_text("e 0 1\n")
    with pytest.raises(ValueError, match="cannot parse"):
        parse_graph_text("vertices 2\nedge 0 1\n")


def _outcome(build):
    """("graph", n, edges) or ("error", message) of one graph build."""
    try:
        g = build()
    except ValueError as exc:
        return "error", str(exc)
    return "graph", g.n, g.edges


PATH3 = ("graph", 3, [(0, 1), (1, 2)])

# name -> (file text, whether the bulk reader takes it, outcome); the
# bulk reader refuses nothing, so a file with a repeat or a bad line is
# left to the line reader, which names it
GRAPH_FILES = {
    "duplicate after comments": (
        "# a path\n# with a repeat\nvertices 3\n\ne 0 1\n# mid\ne 1 2\ne 1 0  # again\n", False,
        ("error", "line 8: duplicate edge (0, 1)")),
    "two repeats": ("vertices 3\ne 0 1\ne 1 2\ne 2 1\ne 1 0\ne 0 1\n", False,
                    ("error", "line 4: duplicate edge (1, 2)")),
    "three ids": ("vertices 3\ne 0 1\ne 1 2 3\n", False, ("error", "line 3: cannot parse 'e 1 2 3'")),
    "tab separators": ("vertices 3\ne\t0\t1\ne\t2\t1\n", False, PATH3),
    "trailing comments": ("vertices 3\ne 0 1 # first\ne 2 1#second\n", False, PATH3),
    "header last": ("e 0 1\ne 1 2\nvertices 3\n", True, PATH3),
    "no header": ("e 0 1\n", True, ("error", "missing 'vertices N' header")),
    "negative id": ("vertices 3\ne 0 1\ne 1 -1\ne 1 2\n", False, ("error", "edge (1,-1) out of range")),
    "huge id": ("vertices 3\ne 0 1\ne 1 99999999999999999999\ne 1 2\n", False,
                ("error", "edge (1,99999999999999999999) out of range")),
    "loop": ("vertices 3\ne 0 1\ne 2 2\ne 1 2\n", True, ("error", "loop at vertex 2")),
    # the first bad edge in input order, and a repeat before either
    "loop before out of range": ("vertices 3\ne 0 1\ne 2 2\ne 1 5\n", True, ("error", "loop at vertex 2")),
    "out of range before loop": ("vertices 3\ne 0 1\ne 1 5\ne 2 2\n", True,
                                 ("error", "edge (1,5) out of range")),
    "duplicate before loop": ("vertices 3\ne 0 1\ne 2 2\ne 1 0\n", False,
                              ("error", "line 4: duplicate edge (0, 1)")),
    "bad line before duplicate": ("vertices 3\ne 0 1\nedge 1 2\ne 1 0\n", False,
                                  ("error", "line 3: cannot parse 'edge 1 2'")),
    "duplicate before bad header": ("e 0 1\ne 1 0\nvertices three\n", False,
                                    ("error", "line 2: duplicate edge (0, 1)")),
}


def _line_graph(text):
    return harness_cli._parse_graph(None, text.splitlines)


def _line_instance(text):
    return harness_cli._parse_instance(None, text.splitlines)


@pytest.mark.parametrize("name", sorted(GRAPH_FILES))
def test_bulk_and_line_readers_agree(name):
    text, bulk, want = GRAPH_FILES[name]
    assert _outcome(lambda: parse_graph_text(text)) == want
    read = harness_cli._read_graph_bytes(harness_cli._text_blocks(text))
    assert (read is not None) == bulk
    if read is not None:
        n, edges = harness_cli._read_graph_lines(enumerate(text.splitlines(), 1))
        assert read[0] == n and read[1].tolist() == [list(e) for e in edges]
    assert _outcome(lambda: _line_graph(text)) == want


# each edit of a file's lines, given a drawn index into its tagged lines;
# none is a layout the bulk reader takes
def _tab(line):
    return line.replace(" ", "\t", 1)


EDITS = {
    "tab": lambda lines, at: lines.__setitem__(at, _tab(lines[at])),
    "trailing space": lambda lines, at: lines.__setitem__(at, lines[at] + " "),
    "double space": lambda lines, at: lines.__setitem__(at, lines[at].replace(" ", "  ", 1)),
    "crlf": lambda lines, at: lines.__setitem__(at, lines[at] + "\r"),
    "comment": lambda lines, at: lines.__setitem__(at, lines[at] + " # a note"),
    "non-ascii comment": lambda lines, at: lines.insert(at, "# d\u00e9j\u00e0 vu"),
    "19 digits": lambda lines, at: lines.__setitem__(at, lines[at].rsplit(" ", 1)[0] + " " + str(10**18)),
    "leading zeros": lambda lines, at: lines.__setitem__(at, lines[at].replace(" ", " 00", 1)),
    "fraction": lambda lines, at: lines.__setitem__(at, lines[at] + "/3"),
    "missing token": lambda lines, at: lines.__setitem__(at, lines[at].rsplit(" ", 1)[0]),
    "extra token": lambda lines, at: lines.__setitem__(at, lines[at] + " 0"),
    "repeat": lambda lines, at: lines.insert(at, lines[at]),
    "reversed repeat": lambda lines, at: lines.insert(
        at, " ".join([lines[at].split()[0], *lines[at].split()[2:0:-1], *lines[at].split()[3:]])),
    "d lines last": lambda lines, at: lines.extend(
        lines.pop(i) for i in [i for i, x in enumerate(lines) if x.startswith("d ")][::-1]),
    "header last": lambda lines, at: lines.append(lines.pop(0)),
}


@st.composite
def _tagged_files(draw):
    """(text, whether the bulk reader must take it): a small graph or
    instance file, in the layout the writers use or with a few edits,
    and with or without its final newline."""
    w, h = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    if draw(st.booleans()):
        text = write_graph_text(generate("grid", [w, h]))
    else:
        text = write_instance_text(coarsened_grid(w, h))
    lines = text.splitlines()
    edits = draw(st.lists(st.sampled_from(sorted(EDITS)), max_size=3))
    for name in edits:
        tagged = [i for i, x in enumerate(lines) if x[:2] in ("e ", "d ", "m ")]
        if tagged:
            EDITS[name](lines, draw(st.sampled_from(tagged)))
    return "\n".join(lines) + draw(st.sampled_from(["\n", ""])), not edits


# reads of 1 byte make a block of every line, reads of 64 bytes one of
# every few, and a header, "mu explicit" or a tagged line straddles reads
@settings(max_examples=150, deadline=None)
@given(_tagged_files(), st.sampled_from([1, 64, 1 << 16, 1 << 20]))
def test_bulk_and_line_readers_agree_on_drawn_files(drawn, read_bytes):
    text, canonical = drawn
    graph = text.startswith("vertices")
    with mock.patch.object(harness_cli, "_READ_BYTES", read_bytes):
        blocks = harness_cli._text_blocks(text)
        if graph:
            read = harness_cli._read_graph_bytes(blocks)
            lines = harness_cli._read_graph_lines(enumerate(text.splitlines(), 1)) if read else None
            if read:
                assert read[0] == lines[0] and read[1].tolist() == [list(e) for e in lines[1]]
        else:
            read = harness_cli._read_instance_bytes(blocks)
            if read:
                lines = harness_cli._read_instance_lines(enumerate(text.splitlines(), 1))
                assert read[:4] == lines[:4] and len(read.rows) == 0
                for got, want in zip(read[4:6], lines[4:6]):
                    assert got.shape == want.shape and np.array_equal(got, want)
                if read.table is not None:
                    want = harness_cli._check_mu_rows(lines.rows, lines.n)
                    assert np.array_equal(read.table, want.ravel())
                else:
                    assert not (lines.have_mu and 1 <= (lines.n or 0) <= 160)
        assert bool(read) or not canonical
        parse, line_parse = (parse_graph_text, _line_graph) if graph else (parse_instance_text, _line_instance)
        assert _describe(lambda: parse(text)) == _describe(lambda: line_parse(text))


# the file reader in blocks of 1, 7 and 64 bytes and in one block; each
# file gives what the line reader gives, or its message.  A points line
# after the "m" lines (the last one counts) keeps n, or changes it.
@pytest.mark.parametrize("read_bytes", [1, 7, 64, 1 << 16, 1 << 20])
@pytest.mark.parametrize("edit, refused", [
    ("none", False), ("no final newline", False), ("points 5 last", False), ("comment", False),
    ("points 4 last", True), ("bad last line", True), ("m line in place of the next", True),
    ("lone cr", True), ("m lines of 4 points, then points 5", True),
])
def test_load_input_reads_across_block_boundaries(tmp_path, monkeypatch, read_bytes, edit, refused):
    lines = write_instance_text(coarsened_grid(1, 1)).splitlines()
    if edit.startswith("points"):
        lines.append(edit.removesuffix(" last"))
    elif edit == "comment":
        lines.insert(40, "# a note")
    elif edit == "bad last line":
        lines.append("m 0 0 0 9")
    elif edit.startswith("m line in"):
        lines[-1] = lines[-2]  # n^3 lines: one triple twice, one missing
    elif edit == "lone cr":
        lines.insert(40, "# a note\rd 0 1 2")  # a second line to str.splitlines()
    elif edit.startswith("m lines of 4"):
        # 5^3 lines in range for the first n, 4, that fill its 4^3 triples
        lines[0] = "points 4"
        m = lines.index("mu explicit") + 1
        lines[m:] = [f"m {i} {j} {k} 0" for i, j, k in itertools.product(range(4), repeat=3)] * 2
        lines[m + 125:] = ["points 5"]
    text = "\n".join(lines) + ("" if edit == "no final newline" else "\n")
    path = tmp_path / "c11.inst"
    path.write_text(text)
    monkeypatch.setattr(harness_cli, "_READ_BYTES", read_bytes)
    got = _describe(lambda: load_input(str(path)))
    assert got == _describe(lambda: _line_instance(text))
    assert (got[0] == "ValueError") == refused


def _describe(build):
    """The arrays of what a parse builds, or the message it raises."""
    try:
        got = build()
    except (ValueError, BudgetExceeded) as exc:
        return type(exc).__name__, str(exc)
    if isinstance(got, MedianGraph):
        return got.n, got.edges
    return got.n, got.d, got.den, got.nums.tolist(), got.mu.tolist()


def test_graph_from_list_and_array_agree():
    cases = [
        (4, [(3, 2), (0, 1), (2, 1), (1, 0), (2, 3)]),  # unsorted, reversed, repeated
        (1, []),
        (3, [(0, 1), (2, 2), (1, 7)]),
        (3, [(0, 1), (1, -4), (2, 2)]),
        (4, [(0, 1), (2, 3), (1, 0)]),  # disconnected
        (0, [(0, 1)]),
    ]
    for n, edges in cases:
        want = _outcome(lambda: MedianGraph(n, edges))
        got = _outcome(lambda: MedianGraph(n, np.array(edges, dtype=np.int64).reshape(-1, 2)))
        assert got == want, (n, edges)
    g = MedianGraph(4, [(3, 2), (0, 1), (2, 1), (1, 0), (2, 3)])
    assert g.edges == [(0, 1), (1, 2), (2, 3)]
    assert g.edge_array.tolist() == [[0, 1], [1, 2], [2, 3]]
    assert g.adj == [[1], [0, 2], [1, 3], [2]]


def test_instance_text_roundtrip():
    # integral, rational, and rational with numerators past int64
    base = coarsened_grid(1, 1)
    for scale in (1, Fraction(7, 3), Fraction(2**64 + 1, 7)):
        inst = CoarseMedianInstance(base.dist_int * Fraction(scale), base.mu, d=base.d)
        text = write_instance_text(inst)
        back = parse_instance_text(text)
        assert back.n == inst.n and back.d == inst.d
        assert np.array_equal(back.mu, inst.mu)
        assert back.den == inst.den and back.nums.dtype == inst.nums.dtype
        for i in range(inst.n):
            for j in range(inst.n):
                assert back.rho(i, j) == inst.rho(i, j)
        assert write_instance_text(back) == text


def test_instance_reader_refuses_integral_distance_past_int32():
    mu = "".join(f"m {i} {j} {k} 0\n" for i in range(2) for j in range(2) for k in range(2))
    for v in (2**31, 2**63, 2**70):
        with pytest.raises(ValueError, match=f"d\\(0,1\\) = {v} is outside the int32 range"):
            parse_instance_text(f"points 2\nmetric explicit\nd 0 1 {v}\nmu explicit\n{mu}")


def test_instance_from_graph_sections(grid3):
    inst = parse_instance_text("points 9\n", graph=grid3)
    want = from_median_graph(grid3)
    assert np.array_equal(inst.mu, want.mu)
    assert inst.d == want.d
    with pytest.raises(ValueError, match="point counts"):
        parse_instance_text("points 8\n", graph=grid3)
    with pytest.raises(ValueError, match="no metric"):
        parse_instance_text("points 3\n")
    with pytest.raises(ValueError, match="every triple"):
        parse_instance_text(
            "points 2\nmetric explicit\nd 0 1 1\nmu explicit\nm 0 0 0 0\n"
        )
    with pytest.raises(ValueError, match=r"missing distance for pair \(1,2\)"):
        parse_instance_text(
            "points 3\nmetric explicit\nd 0 1 1\nd 2 0 1\n", graph=None
        )


# -- bulk writers against the former per-line writers ---------------------


def _graph_text_per_line(g: MedianGraph) -> str:
    lines = [f"vertices {g.n}"]
    lines.extend(f"e {u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def _instance_text_per_line(inst: CoarseMedianInstance) -> str:
    out = io.StringIO()
    out.write(f"points {inst.n}\n")
    out.write(f"rank {inst.d}\n")
    out.write("metric explicit\n")
    for i in range(inst.n):
        for j in range(i + 1, inst.n):
            v = Fraction(inst.rho(i, j))
            val = str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
            out.write(f"d {i} {j} {val}\n")
    out.write("mu explicit\n")
    mu = inst.mu
    for i in range(inst.n):
        for j in range(inst.n):
            row = mu[i, j]
            for k in range(inst.n):
                out.write(f"m {i} {j} {k} {int(row[k])}\n")
    return out.getvalue()


def _first_difference(got: str, want: str):
    """None for equal texts, else the first line where they differ: a
    failing comparison of two files of millions of lines stays short."""
    if got == want:
        return None
    pairs = itertools.zip_longest(got.splitlines(True), want.splitlines(True))
    return next((no, a, b) for no, (a, b) in enumerate(pairs, 1) if a != b)


# n = 1 to 41 (one-, two-digit ids, one block and two) and n = 145 (three
# digits, 46 blocks); c33, c44 and c77 are pinned by digest below
COARSE_GRIDS = [(w, h) for w in range(9) for h in range(9 - w)] + [(8, 8)]


@pytest.mark.parametrize("w, h", COARSE_GRIDS)
def test_instance_writer_matches_per_line(w, h):
    inst = coarsened_grid(w, h)
    assert _first_difference(write_instance_text(inst), _instance_text_per_line(inst)) is None


def test_instance_writer_matches_per_line_on_fractions_and_graphs(grid3, q3, tree23, stair3):
    g = generate("grid", [2, 3])
    base = from_median_graph(g)
    halves = [[Fraction(3 * v, 2) for v in row] for row in g.dist.tolist()]
    cases = [CoarseMedianInstance(halves, base.mu, d=2)]
    cases += [from_median_graph(x) for x in (grid3, q3, tree23, stair3, g)]
    for inst in cases:
        assert _first_difference(write_instance_text(inst), _instance_text_per_line(inst)) is None


@st.composite
def _operation_tables(draw):
    n = draw(st.integers(1, 9))
    mu = draw(st.lists(st.integers(0, n - 1), min_size=n ** 3, max_size=n ** 3))
    scale = draw(st.sampled_from([Fraction(1), Fraction(7, 3)]))
    dist = [[scale * abs(i - j) for j in range(n)] for i in range(n)]
    return CoarseMedianInstance(dist, np.array(mu).reshape(n, n, n), d=draw(st.integers(0, 3)))


@settings(max_examples=40, deadline=None)
@given(_operation_tables())
def test_instance_writer_matches_per_line_on_drawn_tables(inst):
    assert _first_difference(write_instance_text(inst), _instance_text_per_line(inst)) is None


@pytest.mark.parametrize("kind, params", [
    ("hypercube", [0]), ("hypercube", [10]), ("grid", [0, 0]), ("grid", [3, 5]),
    ("grid", [29, 29]), ("tree", [3, 6]), ("staircase", [7]), ("staircase", [400]),
    ("median-closure", [5, 7]),
])
def test_graph_writer_matches_per_line(kind, params):
    g = generate(kind, params)
    assert _first_difference(write_graph_text(g), _graph_text_per_line(g)) is None


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5).flatmap(lambda width: st.lists(
    st.lists(st.integers(0, 20_000), min_size=width, max_size=width), max_size=40,
)))
def test_write_tagged_matches_f_strings(rows):
    want = "".join(f"x {' '.join(map(str, row))}\n" for row in rows)
    width = len(rows[0]) if rows else 3
    assert harness_cli._write_tagged("x", np.array(rows, dtype=np.int64).reshape(-1, width)) == want


@pytest.fixture(scope="module")
def c77():
    """coarse-grid 7 7 (113 points, 1.44M "m" lines) and its text."""
    inst = coarsened_grid(7, 7)
    return inst, write_instance_text(inst)


def _traced_peak(call):
    """(result, peak traced bytes) of one call."""
    tracemalloc.start()
    try:
        got = call()
        return got, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_instance_writer_memory_stays_bounded(c77):
    text, peak = _traced_peak(lambda: write_instance_text(c77[0]))
    assert text == c77[1]
    assert peak < 80 * 2**20


def test_instance_reader_memory_stays_bounded(c77):
    # the reader of a list of str lines through numpy.loadtxt peaked at
    # 182 MiB here; the bytes reader at 65 MiB, 24 MiB with its "m"
    # lines put straight into the table, and 8.7 MiB in 64 KiB blocks
    inst, text = c77
    back, peak = _traced_peak(lambda: parse_instance_text(text))
    assert np.array_equal(back.mu, inst.mu) and np.array_equal(back.nums, inst.nums)
    assert peak < 12 * 2**20


def test_instance_file_load_and_fit_memory_stay_bounded(c77, tmp_path):
    # 65.1 MiB and 27.4 MiB when the whole file and then the whole
    # sample were held at once; 25 MiB and 3.5 MiB in 1 MiB blocks, and
    # 8.6 MiB for the file in 64 KiB blocks
    inst, text = c77
    path = tmp_path / "c77.inst"
    path.write_text(text)
    back, peak = _traced_peak(lambda: load_input(str(path)))
    assert np.array_equal(back.mu, inst.mu) and np.array_equal(back.nums, inst.nums)
    assert peak < 12 * 2**20
    params, peak = _traced_peak(lambda: estimate_params(back))
    assert params == estimate_params(inst)
    assert peak < 12 * 2**20


def test_small_instance_file_loads_in_small_blocks(tmp_path):
    # the 910 KB coarse-grid 4 4 file: 15.9 MiB traced as one 1 MiB
    # block, 1.6 MiB in 64 KiB blocks
    inst = coarsened_grid(4, 4)
    path = tmp_path / "c44.inst"
    path.write_text(write_instance_text(inst))
    back, peak = _traced_peak(lambda: load_input(str(path)))
    assert np.array_equal(back.mu, inst.mu) and np.array_equal(back.nums, inst.nums)
    assert peak < 4 * 2**20


# sha256 of every file the benchmark's set-up writes at full scale, as
# the per-line writers wrote them
BENCH_INPUTS = {
    "g9.graph": "8040bd62a023847cb30f89fc233b9ff349fddd6c5e42d5bd0b912ca248a2e41c",
    "g15.graph": "aa4b9b6c860563d1b57dca5e0df7b4afb9d045cc60501fc410c6e20309c27fb6",
    "g29.graph": "d447c5b808f4be082bb1db5ff2b54ac7cd9c10da6974721805fbc07a1752b154",
    "h8.graph": "5f4ad4ac07166c6218158f3cf215c9502e6acf20f634f5f46ec7e89dfd67dd85",
    "t27.graph": "7757246e54f37ac6aea6af9fd1f34653cd46c0728351999223a0e91677e41d96",
    "g5.graph": "77e3e812039a648fa1bca6e8d2dfef14aac59024325340970f54b89a71e76dba",
    "c77.inst": "c0d874c3923e9c7f85a10b532531071ca9c55489b933836caf7fe172fc86efd1",
    "c44.inst": "3a077500e396f431828a7c01b92cc7fa3d4cf20b20b481633feedf530fe04497",
    "c33.inst": "210536a2a039fcbb11553675610de07cd469c1bb86da090cb0c9f553ce07ba18",
}


def test_benchmark_inputs_are_pinned(tmp_path, monkeypatch):
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up
    spec.loader.exec_module(workloads)
    gens = {
        s.file: s.gen
        for name in workloads.WORKLOADS
        for s in workloads.build(name, 0).inputs
    }
    assert set(gens) == set(BENCH_INPUTS)
    monkeypatch.chdir(tmp_path)
    for file, argv in gens.items():
        assert run_cli(argv) == (0, "")
        assert hashlib.sha256((tmp_path / file).read_bytes()).hexdigest() == BENCH_INPUTS[file], file


def _instance_lines(w=1, h=1):
    return write_instance_text(coarsened_grid(w, h)).splitlines()


def _first(lines, tag):
    return next(i for i, line in enumerate(lines) if line.startswith(tag))


def test_instance_m_lines_with_comments_and_tabs():
    lines = _instance_lines()
    want = parse_instance_text("\n".join(lines))
    at = _first(lines, "m ")
    lines[at] += "  # the first triple"
    lines[at + 1] = "\t" + lines[at + 1].replace(" ", "\t")  # read line by line
    lines.insert(at, "# the operation table follows")
    got = parse_instance_text("\n".join(lines))
    assert np.array_equal(got.mu, want.mu)


def _replace(tag, offset, text):
    def edit(lines):
        lines[_first(lines, tag) + offset] = text
    return edit


def _repeat_first_m(lines):
    at = _first(lines, "m ")
    lines[at + 1] = lines[at]


@pytest.mark.parametrize(
    "edit, message",
    [
        pytest.param(_replace("d ", 0, "d 0 5 1"), "out of range", id="d-past-n"),
        pytest.param(_replace("d ", 0, "d -1 1 1"), "out of range", id="d-negative"),
        pytest.param(_replace("m ", 0, "m -1 0 0 0"), "out of range", id="m-negative"),
        pytest.param(_replace("m ", 0, "m 0 0 5 0"), "out of range", id="m-past-n"),
        pytest.param(_replace("m ", 0, "m 0 0 0 7"), "out of range", id="m-value-past-n"),
        pytest.param(_repeat_first_m, "twice", id="m-repeated"),
        pytest.param(lambda lines: lines.append(lines[-1]), "twice", id="m-extra-copy"),
        pytest.param(lambda lines: lines.pop(), "every triple", id="m-missing"),
        pytest.param(_replace("points", 0, "points 0"), "at least one point", id="no-points"),
    ],
)
def test_cli_rejects_bad_instance_entries(tmp_path, edit, message):
    lines = _instance_lines()
    edit(lines)
    path = tmp_path / "bad.inst"
    path.write_text("\n".join(lines) + "\n")
    code, out = run_cli(["validate", "--input", str(path)])
    assert code == 1
    assert out.count("\n") == 1
    payload = json.loads(out)
    assert payload["error"] == "invalid-input"
    assert message in payload["message"]


@pytest.mark.parametrize(
    "argv",
    [["deep-point", "--from", "0", "--to", "4"], ["coarse-check"], ["propa", "--provider", "coarse"]],
)
def test_cli_rejects_negative_rank(tmp_path, argv):
    # with rank -1, l_constants would take 3 ** -1 as a float
    lines = _instance_lines()
    at = _first(lines, "rank")
    lines[at] = "rank -1"
    path = tmp_path / "neg.inst"
    path.write_text("\n".join(lines) + "\n")
    code, out = run_cli(argv + ["--input", str(path)])
    assert code == 1
    assert out.count("\n") == 1
    payload = json.loads(out)
    assert payload["error"] == "invalid-input"
    assert payload["message"] == f"line {at + 1}: rank -1 is below 0"


def test_cli_rank_zero_on_one_point(tmp_path):
    path = tmp_path / "c00.inst"
    code, _ = run_cli(["gen", "coarse-grid", "0", "0", "--output", str(path)])
    assert code == 0
    lines = path.read_text().splitlines()
    assert lines[0] == "points 1"
    lines[_first(lines, "rank")] = "rank 0"
    path.write_text("\n".join(lines) + "\n")
    code, out = run_cli(["deep-point", "--input", str(path), "--from", "0", "--to", "0"])
    assert code == 0
    payload = json.loads(out)
    assert payload["deep_point"] == 0 and payload["l3"] == "2/1"
    code, out = run_cli(["coarse-check", "--input", str(path)])
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True and payload["rank_bound"] == 0


def test_instance_pair_listed_twice_is_refused(tmp_path):
    # read as the last value listed, the pair would move H0 from 0/1 to 1/1
    lines = _instance_lines()
    at = _first(lines, "d 0 1 ")
    lines.insert(at + 1, "d 1 0 3")
    text = "\n".join(lines) + "\n"
    message = f"line {at + 2}: pair (0,1) listed twice"
    for parse in (parse_instance_text, _line_instance):
        with pytest.raises(ValueError) as err:
            parse(text)
        assert str(err.value) == message
    path = tmp_path / "twice.inst"
    path.write_text(text)
    assert run_cli(["coarse-check", "--input", str(path)]) == (
        1, json.dumps({"error": "invalid-input", "message": message}) + "\n")


def test_instance_bad_m_line_is_named():
    lines = _instance_lines()
    at = _first(lines, "m ") + 3
    lines[at] = "m 0 0 3"
    with pytest.raises(ValueError, match=f"line {at + 1}: cannot parse 'm 0 0 3'"):
        parse_instance_text("\n".join(lines))


def test_instance_above_limit_rejected_before_tables():
    with pytest.raises(BudgetExceeded):
        parse_instance_text("points 161\nmetric explicit\nmu explicit\n")


def test_load_input_dispatch(tmp_path, grid3):
    gp = tmp_path / "g.txt"
    gp.write_text(write_graph_text(grid3))
    assert isinstance(load_input(str(gp)), MedianGraph)
    ip = tmp_path / "i.txt"
    ip.write_text(write_instance_text(coarsened_grid(1, 1)))
    assert isinstance(load_input(str(ip)), CoarseMedianInstance)
    bad = tmp_path / "bad.txt"
    bad.write_text("widgets 3\n")
    with pytest.raises(ValueError):
        load_input(str(bad))
    empty = tmp_path / "empty.txt"
    empty.write_text("# nothing\n")
    with pytest.raises(ValueError):
        load_input(str(empty))


# -- CLI end to end ------------------------------------------------------


def test_cli_gen_matches_library(tmp_path):
    out = tmp_path / "g.txt"
    code, _ = run_cli(["gen", "grid", "2", "2", "--output", str(out)])
    assert code == 0
    assert out.read_text() == write_graph_text(generate("grid", [2, 2]))
    code, _ = run_cli(["gen", "coarse-grid", "1", "1", "--output", str(out)])
    assert code == 0
    assert isinstance(load_input(str(out)), CoarseMedianInstance)


def test_cli_gen_bad_params():
    code, out = run_cli(["gen", "grid", "2"])
    assert code == 1
    assert json.loads(out)["error"] == "invalid-input"


def test_cli_validate(tmp_path, grid3_file, c6):
    code, out = run_cli(["validate", "--input", grid3_file])
    assert code == 0
    payload = json.loads(out)
    assert payload["median"] is True
    assert payload["vertices"] == 9 and payload["edges"] == 12

    bad = tmp_path / "c6.txt"
    bad.write_text(write_graph_text(c6))
    code, out = run_cli(["validate", "--input", str(bad)])
    assert code == 1
    payload = json.loads(out)
    assert payload["median"] is False
    assert payload["witness"]["triple"] == [0, 2, 4]

    inst = tmp_path / "inst.txt"
    inst.write_text(write_instance_text(coarsened_grid(1, 1)))
    code, out = run_cli(["validate", "--input", str(inst)])
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "instance"
    assert payload["m1_defect"] == "0/1" and payload["m2_defect"] == "0/1"


def test_cli_validate_above_table_limit(tmp_path):
    # 324 vertices: validate keeps no median table, so it has no size cap
    big = tmp_path / "grid17.txt"
    big.write_text(write_graph_text(generate("grid", [17, 17])))
    code, out = run_cli(["validate", "--input", str(big)])
    assert code == 0
    payload = json.loads(out)
    assert payload["median"] is True and payload["vertices"] == 324

    c300 = MedianGraph(300, [(i, (i + 1) % 300) for i in range(300)])
    bad = tmp_path / "c300.txt"
    bad.write_text(write_graph_text(c300))
    code, out = run_cli(["validate", "--input", str(bad)])
    assert code == 1
    witness = json.loads(out)["witness"]
    assert witness["error"] == "unique-median"
    assert witness["triple"] == [0, 2, 151] and witness["candidates"] == []
    x, y, z = witness["triple"]
    d = c300.dist
    assert not any(
        d[x, m] + d[m, y] == d[x, y]
        and d[y, m] + d[m, z] == d[y, z]
        and d[z, m] + d[m, x] == d[z, x]
        for m in range(300)
    )


# Runs the commands in one fresh interpreter: median graphs first, then
# the graphs the single search refuses.  Prints each (exit code,
# stdout) and the scipy modules loaded after each of the two rounds.
SCIPY_PROBE = """
import contextlib, io, json, sys
from mediancert.harness_cli import main

def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

rounds = json.loads(sys.argv[1])
print(json.dumps([([run(argv) for argv in r], scipy_modules()) for r in rounds]))
"""


def test_scipy_loads_only_for_the_all_pairs_fallback(tmp_path):
    grid, tri, c8 = (str(tmp_path / f"{name}.graph") for name in ("grid", "tri", "c8"))
    (tmp_path / "tri.graph").write_text(write_graph_text(MedianGraph(3, [(0, 1), (1, 2), (0, 2)])))
    (tmp_path / "c8.graph").write_text(write_graph_text(MedianGraph(8, [(i, (i + 1) % 8) for i in range(8)])))
    median = [
        ["gen", "grid", "3", "3", "--output", grid],
        ["validate", "--input", grid],
        ["rank", "--input", grid],
        ["ncp", "--input", grid, "--from", "0", "--to", "15"],
        ["propa", "--input", grid, "--n", "2", "--m", "1"],
        ["coarse-check", "--input", grid],
    ]
    fallback = [[cmd, "--input", path, *extra] for path in (tri, c8)
                for cmd, *extra in (["validate"], ["rank"], ["ncp", "--from", "0", "--to", "2"])]
    src = str(Path(harness_cli.__file__).parents[1])
    done = subprocess.run(
        [sys.executable, "-c", SCIPY_PROBE, json.dumps([median, fallback])],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": src},
    )
    (median_runs, median_scipy), (fallback_runs, fallback_scipy) = json.loads(done.stdout)
    assert [code for code, _ in median_runs] == [0] * len(median)
    assert median_scipy == []
    odd = {"edge": [1, 2], "error": "wall-structure", "message": "graph has an odd cycle"}
    want = [
        (1, {"edges": 3, "input": tri, "kind": "graph", "median": False, "vertices": 3,
             "witness": {"candidates": [], "error": "unique-median",
                         "message": "triple (0,1,2) has 0 geodesic meeting points", "triple": [0, 1, 2]}}),
        (1, odd),
        (1, odd),
        (1, {"edges": 8, "input": c8, "kind": "graph", "median": False, "vertices": 8,
             "witness": {"candidates": [], "error": "unique-median",
                         "message": "triple (0,2,5) has 0 geodesic meeting points", "triple": [0, 2, 5]}}),
        (0, 4),
        (0, {"distance": 2, "from": 0, "length": 2, "steps": [[0], [2]], "to": 2, "vertices": [0, 1, 2]}),
    ]
    assert [(code, json.loads(out)) for code, out in fallback_runs] == want
    assert "scipy.sparse.csgraph" in fallback_scipy


def test_cli_hyperplanes_and_rank(grid3_file, tmp_path, capsys):
    code, out = run_cli(["hyperplanes", "--input", grid3_file])
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 4
    assert all(w["minus"] + w["plus"] == 9 for w in payload["walls"])

    rank_out = tmp_path / "rank.json"
    code = main(["rank", "--input", grid3_file, "--output", str(rank_out)])
    assert code == 0
    assert capsys.readouterr().out == "2\n"
    assert json.loads(rank_out.read_text()) == {"rank": 2}


def test_cli_ncp(grid3_file):
    code, out = run_cli(
        ["ncp", "--input", grid3_file, "--from", "0", "--to", "8"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["vertices"] == [0, 4, 8]
    assert payload["steps"] == [[0, 1], [2, 3]]
    assert payload["length"] == 2 and payload["distance"] == 4


def test_cli_propa_files(tmp_path, grid6):
    gpath = tmp_path / "g.txt"
    gpath.write_text(write_graph_text(grid6))
    base = tmp_path / "cert"
    argv = [
        "propa", "--input", str(gpath), "--n", "2", "--m", "1,2",
        "--output", str(base),
    ]
    assert run_cli(argv)[0] == 0
    blob = json.loads((tmp_path / "cert.json").read_text())
    assert blob["provider"] == "cat0" and blob["sample_size"] == 10
    (cert,) = blob["certificates"]
    assert cert["n"] == 2 and cert["p_n"] == 1
    assert [r["m"] for r in cert["rows"]] == [1, 2]
    assert all(r["sup_variation"] == "0/1" for r in cert["rows"])

    lines = (tmp_path / "cert.csv").read_text().splitlines()
    assert lines[0] == ",".join(CSV_HEADER)
    assert len(lines) == 3

    # no stray temp files from the atomic writes
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "cert.csv", "cert.json", "g.txt",
    ]


def test_cli_propa_deterministic(tmp_path, grid6):
    gpath = tmp_path / "g.txt"
    gpath.write_text(write_graph_text(grid6))

    def run_bytes(tag, provider, n_spec):
        argv = [
            "propa", "--input", str(gpath), "--n", n_spec, "--m", "1",
            "--provider", provider, "--output", str(tmp_path / tag),
        ]
        assert run_cli(argv)[0] == 0
        return (
            (tmp_path / (tag + ".json")).read_bytes()
            + (tmp_path / (tag + ".csv")).read_bytes()
        )

    a = run_bytes("a", "cat0", "2,4")
    b = run_bytes("b", "cat0", "2,4")
    c = run_bytes("c", "cat0", "2,4")
    assert a == b == c
    x = run_bytes("x", "coarse", "2")
    y = run_bytes("y", "coarse", "2")
    assert x == y


def test_cli_coarse_check(tmp_path):
    ipath = tmp_path / "inst.txt"
    ipath.write_text(write_instance_text(coarsened_grid(2, 2)))
    code, out = run_cli(
        ["coarse-check", "--input", str(ipath), "--sample", "60"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["K"] == "1/1" and payload["gamma"] == "2/1"
    assert payload["sweeps"]["interval_absorption"]["violations"] == 0
    assert payload["sweeps"]["projection_bound"]["violations"] == 0


def test_cli_coarse_check_passes_sweep_constants(tmp_path, monkeypatch):
    # the sweeps hand each check l_constants at the sample's own r
    def checked(check):
        def wrapper(inst, *args):
            *args, r, cs = args
            assert cs == l_constants(inst.params, r, 1, inst.d)
            return check(inst, *args, r, cs)
        return wrapper

    for name in ("check_lemma_6_2", "check_lemma_6_5"):
        monkeypatch.setattr(harness_cli, name, checked(getattr(harness_cli, name)))
    ipath = tmp_path / "inst.txt"
    ipath.write_text(write_instance_text(coarsened_grid(1, 1)))
    code, out = run_cli(["coarse-check", "--input", str(ipath), "--sample", "30"])
    assert code == 0 and json.loads(out)["ok"] is True


def test_cli_deep_point(grid3_file):
    code, out = run_cli(
        ["deep-point", "--input", grid3_file, "--from", "0", "--to", "8"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["deep_point"] == 0 and payload["r"] == 1
    assert payload["l3"] == "10/1"

    code, out = run_cli(
        ["deep-point", "--input", grid3_file, "--from", "0", "--to", "8", "--r", "0"]
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["error"] == "invalid-input"
    assert payload["message"] == "--r 0 is below 1"


def test_cli_invalid_inputs(tmp_path):
    code, out = run_cli(["validate", "--input", str(tmp_path / "missing.txt")])
    assert code == 1
    assert json.loads(out)["error"] == "invalid-input"

    garbled = tmp_path / "garbled.txt"
    garbled.write_text("vertices 3\ne 0 1\ne 0 9\n")
    code, out = run_cli(["ncp", "--input", str(garbled), "--from", "0", "--to", "1"])
    assert code == 1
    assert json.loads(out)["error"] == "invalid-input"

    inst = tmp_path / "inst.txt"
    inst.write_text(write_instance_text(coarsened_grid(1, 1)))
    code, out = run_cli(["rank", "--input", str(inst)])
    assert code == 1
    assert json.loads(out)["error"] == "invalid-input"


@pytest.mark.parametrize(
    "levels",
    [
        ["--n", "0", "--m", "0"], ["--n", "0", "--m", "1"], ["--m", "-1"], ["--n", "2,0"],
        ["--n", ""], ["--n", ",,"],
    ],
)
def test_cli_propa_rejects_levels_below_one(tmp_path, levels):
    gpath = tmp_path / "t.txt"
    gpath.write_text(write_graph_text(generate("tree", [2, 3])))
    code, out = run_cli(["propa", "--input", str(gpath)] + levels)
    assert code == 1
    assert out.count("\n") == 1
    payload = json.loads(out)
    assert payload["error"] == "invalid-input"
    assert "at least 1" in payload["message"]


@pytest.mark.parametrize(
    "argv",
    [
        ["ncp", "--from", "-1", "--to", "3"],
        ["ncp", "--from", "0", "--to", "9999"],
        ["ncp", "--from", "9", "--to", "0"],
    ],
)
def test_cli_ncp_vertex_out_of_range(grid3_file, argv):
    code, out = run_cli(argv + ["--input", grid3_file])
    assert code == 1
    assert out.count("\n") == 1
    payload = json.loads(out)
    assert payload["error"] == "invalid-input"
    assert "out of range" in payload["message"]


@pytest.mark.parametrize("ends", [("0", "999"), ("-1", "3"), ("5", "-2")])
def test_cli_deep_point_vertex_out_of_range(tmp_path, ends):
    inst = tmp_path / "c11.inst"
    code, _ = run_cli(["gen", "coarse-grid", "1", "1", "--output", str(inst)])
    assert code == 0
    code, out = run_cli(
        ["deep-point", "--input", str(inst), "--from", ends[0], "--to", ends[1]]
    )
    assert code == 1
    assert out.count("\n") == 1
    payload = json.loads(out)
    assert payload["error"] == "invalid-input"
    assert "out of range" in payload["message"]


def test_cli_error_report_names_rule(tmp_path, k23):
    bad = tmp_path / "k23.txt"
    bad.write_text(write_graph_text(k23))
    code, out = run_cli(["hyperplanes", "--input", str(bad)])
    assert code == 1
    payload = json.loads(out)
    assert payload["error"] == "wall-structure"


def test_generator_table():
    # the gen kinds in argparse's order, each with its parameter names;
    # coarse-grid alone builds an instance
    assert {kind: names for kind, (names, _) in GENERATORS.items()} == {
        "hypercube": ("d",), "grid": ("w", "h"), "tree": ("branching", "depth"),
        "staircase": ("n",), "median-closure": ("k", "d"), "coarse-grid": ("w", "h"),
    }
    assert list(GENERATORS) == [
        "hypercube", "grid", "tree", "staircase", "median-closure", "coarse-grid",
    ]
    for kind, (names, _) in GENERATORS.items():
        built = generate(kind, [2] * len(names))
        assert isinstance(built, CoarseMedianInstance if kind == "coarse-grid" else MedianGraph)
    assert write_instance_text(generate("coarse-grid", [2, 3])) == \
        write_instance_text(coarsened_grid(2, 3))


# the defaults every command had before its handler read argparse's
# namespace, given explicitly where the command takes the flag
FORMER_DEFAULTS = {
    "--n": "2,4", "--m": "1", "--basepoint": "0", "--provider": "cat0",
    "--t": "1", "--seed": "0", "--budget": "200000",
}


@pytest.mark.parametrize("argv, flags", [
    (["propa", "--input", "{grid}"], list(FORMER_DEFAULTS)),
    (["propa", "--provider", "coarse", "--input", "{inst}"],
     ["--n", "--m", "--basepoint", "--t", "--seed", "--budget"]),
    (["coarse-check", "--input", "{inst}"], ["--seed", "--budget"]),
    (["deep-point", "--from", "0", "--to", "12", "--input", "{inst}"],
     ["--t", "--seed", "--budget"]),
    (["gen", "median-closure", "5", "6"], ["--seed"]),
])
def test_defaults_equal_former_defaults(tmp_path, argv, flags):
    paths = {"grid": tmp_path / "g.graph", "inst": tmp_path / "c.inst"}
    paths["grid"].write_text(write_graph_text(generate("grid", [3, 3])))
    paths["inst"].write_text(write_instance_text(coarsened_grid(2, 2)))
    argv = [a.format(**paths) for a in argv]
    explicit = argv + [v for flag in flags for v in (flag, FORMER_DEFAULTS[flag])]
    parser = build_parser()
    assert parser.parse_args(argv) == parser.parse_args(explicit)
    left_out, given = run_cli(argv), run_cli(explicit)
    assert left_out[0] == 0 and left_out == given


@pytest.mark.parametrize("flags, budget, seed", [([], 200_000, 0), (["--budget", "7", "--seed", "3"], 7, 3)])
def test_cli_propa_coarse_fits_with_budget_and_seed(tmp_path, flags, budget, seed):
    # the fit reads --budget and --seed, as coarse-check's and
    # deep-point's do; the certificate reads only K, H0 and lam
    inst = tmp_path / "c.inst"
    inst.write_text(write_instance_text(coarsened_grid(2, 2)))
    with mock.patch.object(coarse_median, "estimate_params", wraps=coarse_median.estimate_params) as fit:
        code, _ = run_cli(["propa", "--provider", "coarse", "--input", str(inst), *flags])
    assert code == 0
    assert [call.kwargs for call in fit.call_args_list] == [{"budget": budget, "seed": seed}]


@pytest.mark.parametrize(
    "argv",
    [
        ["propa", "--provider", "coarse", "--t", "0"],
        ["propa", "--provider", "coarse", "--t", "-1"],
        ["deep-point", "--from", "0", "--to", "4", "--t", "0"],
    ],
)
def test_cli_t_below_one_is_invalid_input(tmp_path, argv):
    inst = tmp_path / "c11.inst"
    inst.write_text(write_instance_text(coarsened_grid(1, 1)))
    code, out = run_cli(argv + ["--input", str(inst)])
    assert code == 1
    assert out.count("\n") == 1
    payload = json.loads(out)
    assert payload["error"] == "invalid-input"
    assert "below 1" in payload["message"]
