import contextlib
import io
import json
import os

import numpy as np
import pytest

from mediancert import harness_cli
from mediancert.coarse_median import (
    CoarseMedianInstance,
    coarsened_grid,
    from_median_graph,
    l_constants,
)
from mediancert.errors import BudgetExceeded
from mediancert.harness_cli import (
    GRAPH_KINDS,
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

# name -> (file text, whether the bulk reader takes it, outcome)
GRAPH_FILES = {
    "duplicate after comments": (
        "# a path\n# with a repeat\nvertices 3\n\ne 0 1\n# mid\ne 1 2\ne 1 0  # again\n", True,
        ("error", "line 8: duplicate edge (0, 1)")),
    "two repeats": ("vertices 3\ne 0 1\ne 1 2\ne 2 1\ne 1 0\ne 0 1\n", True,
                    ("error", "line 4: duplicate edge (1, 2)")),
    "three ids": ("vertices 3\ne 0 1\ne 1 2 3\n", False, ("error", "line 3: cannot parse 'e 1 2 3'")),
    "tab separators": ("vertices 3\ne\t0\t1\ne\t2\t1\n", True, PATH3),
    "trailing comments": ("vertices 3\ne 0 1 # first\ne 2 1#second\n", True, PATH3),
    "header last": ("e 0 1\ne 1 2\nvertices 3\n", True, PATH3),
    "no header": ("e 0 1\n", True, ("error", "missing 'vertices N' header")),
    "negative id": ("vertices 3\ne 0 1\ne 1 -1\ne 1 2\n", True, ("error", "edge (1,-1) out of range")),
    "huge id": ("vertices 3\ne 0 1\ne 1 99999999999999999999\ne 1 2\n", False,
                ("error", "edge (1,99999999999999999999) out of range")),
    "loop": ("vertices 3\ne 0 1\ne 2 2\ne 1 2\n", True, ("error", "loop at vertex 2")),
    # the first bad edge in input order, and a repeat before either
    "loop before out of range": ("vertices 3\ne 0 1\ne 2 2\ne 1 5\n", True, ("error", "loop at vertex 2")),
    "out of range before loop": ("vertices 3\ne 0 1\ne 1 5\ne 2 2\n", True,
                                 ("error", "edge (1,5) out of range")),
    "duplicate before loop": ("vertices 3\ne 0 1\ne 2 2\ne 1 0\n", True,
                              ("error", "line 4: duplicate edge (0, 1)")),
    "bad line before duplicate": ("vertices 3\ne 0 1\nedge 1 2\ne 1 0\n", False,
                                  ("error", "line 3: cannot parse 'edge 1 2'")),
    "duplicate before bad header": ("e 0 1\ne 1 0\nvertices three\n", False,
                                    ("error", "line 2: duplicate edge (0, 1)")),
}


@pytest.mark.parametrize("name", sorted(GRAPH_FILES))
def test_bulk_and_line_readers_agree(name, monkeypatch):
    text, bulk, want = GRAPH_FILES[name]
    lines = text.splitlines()
    assert _outcome(lambda: parse_graph_text(text)) == want
    try:
        read = harness_cli._read_graph_bulk(lines)
    except ValueError as exc:  # the bulk reader names a repeated edge
        read = str(exc)
    assert (read is not None) == bulk
    if isinstance(read, tuple):
        n, edges = harness_cli._read_graph_lines(lines)
        assert read[0] == n and read[1].tolist() == [list(e) for e in edges]
    monkeypatch.setattr(harness_cli, "_read_graph_bulk", lambda lines: None)
    assert _outcome(lambda: parse_graph_text(text)) == want


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
    inst = coarsened_grid(1, 1)
    text = write_instance_text(inst)
    back = parse_instance_text(text)
    assert back.n == inst.n and back.d == inst.d
    assert np.array_equal(back.mu, inst.mu)
    for i in range(inst.n):
        for j in range(inst.n):
            assert back.rho(i, j) == inst.rho(i, j)
    assert write_instance_text(back) == text


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
    with pytest.raises(ValueError, match="missing distance"):
        parse_instance_text(
            "points 3\nmetric explicit\nd 0 1 1\nd 0 2 1\n", graph=None
        )


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


def test_cli_propa_deterministic(tmp_path, grid6, monkeypatch):
    gpath = tmp_path / "g.txt"
    gpath.write_text(write_graph_text(grid6))

    def run_bytes(tag, threads, provider, n_spec):
        monkeypatch.setenv("MEDIANCERT_THREADS", threads)
        argv = [
            "propa", "--input", str(gpath), "--n", n_spec, "--m", "1",
            "--provider", provider, "--output", str(tmp_path / tag),
        ]
        assert run_cli(argv)[0] == 0
        return (
            (tmp_path / (tag + ".json")).read_bytes()
            + (tmp_path / (tag + ".csv")).read_bytes()
        )

    a = run_bytes("a", "1", "cat0", "2,4")
    b = run_bytes("b", "1", "cat0", "2,4")
    c = run_bytes("c", "3", "cat0", "2,4")
    assert a == b == c
    x = run_bytes("x", "1", "coarse", "2")
    y = run_bytes("y", "3", "coarse", "2")
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
    [["--n", "0", "--m", "0"], ["--n", "0", "--m", "1"], ["--m", "-1"], ["--n", "2,0"]],
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


def test_graph_kinds_constant():
    assert set(GRAPH_KINDS) == {
        "hypercube", "grid", "tree", "staircase", "median-closure",
    }


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
