"""The CLI boundary contract, as a property over generated argv and
over malformed input files.

Every call of ``main`` ends in one of two ways: a result with exit 0,
or exit 1 with exactly one JSON object on stdout, whose ``error`` (when
present) names a rule from ``errors.py`` or ``invalid-input``.  Nothing
raises.
"""

import contextlib
import io
import json
import tracemalloc

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from mediancert import errors
from mediancert.coarse_median import coarsened_grid
from mediancert.cube_complex import hyperplanes, normal_cube_path, rank
from mediancert.harness_cli import generate, is_median_graph, main, write_graph_text, write_instance_text
from mediancert.median_core import VERTEX_LIMIT, MedianGraph

RULES = {
    cls.rule for cls in vars(errors).values()
    if isinstance(cls, type) and issubclass(cls, errors.MedianCertError)
} | {"invalid-input"}

INPUTS = {
    "grid": write_graph_text(generate("grid", [2, 2])),
    "coarse-grid": write_instance_text(coarsened_grid(1, 1)),
    "c6": write_graph_text(MedianGraph(6, [(i, (i + 1) % 6) for i in range(6)])),
    "k23": write_graph_text(MedianGraph(5, [(a, b) for a in (0, 1) for b in (2, 3, 4)])),
}

# optional integer flags of each command; ncp and deep-point also
# always take --from and --to
FLAGS = {
    "validate": [],
    "hyperplanes": [],
    "rank": [],
    "ncp": [],
    "propa": ["basepoint", "n", "m", "sample", "t", "r", "seed", "budget"],
    "coarse-check": ["sample", "seed", "budget"],
    "deep-point": ["t", "r", "seed", "budget"],
}

values = st.integers(-2, 9)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    folder = tmp_path_factory.mktemp("contract")
    paths = {}
    for name, text in INPUTS.items():
        paths[name] = folder / f"{name}.txt"
        paths[name].write_text(text)
    return {name: str(path) for name, path in paths.items()}


@st.composite
def argvs(draw):
    """(argv with an input placeholder, input name)."""
    command = draw(st.sampled_from(sorted(FLAGS)))
    argv = [command]
    if command in ("ncp", "deep-point"):
        argv += [f"--from={draw(values)}", f"--to={draw(values)}"]
    if command == "propa":
        argv.append(f"--provider={draw(st.sampled_from(['cat0', 'coarse']))}")
    # hypothesis refuses to sample from an empty list
    flags = st.sets(st.sampled_from(FLAGS[command])) if FLAGS[command] else st.just(set())
    for flag in draw(flags):
        if flag in ("n", "m"):
            value = ",".join(map(str, draw(st.lists(values, min_size=1, max_size=2))))
        else:
            value = draw(values)
        argv.append(f"--{flag}={value}")
    return argv, draw(st.sampled_from(sorted(INPUTS)))


@settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(case=argvs())
@example(case=(["propa", "--provider=coarse", "--t=0"], "coarse-grid"))
@example(case=(["propa", "--provider=coarse", "--t=-1"], "grid"))
@example(case=(["deep-point", "--from=0", "--to=4", "--t=0"], "coarse-grid"))
def test_cli_ends_in_result_or_one_error(files, case):
    argv, name = case
    run_contract(argv + ["--input", files[name]])


@pytest.mark.parametrize("argv", [
    ["validate", "--seed", "0"],
    ["hyperplanes", "--budget", "5"],
    ["rank", "--seed", "1", "--budget", "1"],
    ["ncp", "--from", "0", "--to", "1", "--seed", "0"],
    ["gen", "grid", "2", "2", "--budget", "1"],
])
def test_flags_a_command_does_not_read_are_refused(files, argv):
    # each command declares --seed and --budget only where it reads them
    if argv[0] != "gen":
        argv = argv + ["--input", files["grid"]]
    payload = run_contract(argv)
    assert payload["error"] == "invalid-input"
    assert "unrecognized arguments: --" in payload["message"]


def run_contract(argv) -> dict | None:
    """Run ``main`` and check the contract; the JSON object it printed,
    or None for a rank result."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    assert code in (0, 1)
    out = buf.getvalue()
    assert out.endswith("\n") and out.count("\n") == 1, out
    if argv[:1] == ["rank"] and code == 0:
        assert int(out) >= 0
        return None
    payload = json.loads(out)
    assert isinstance(payload, dict)
    if "error" in payload:
        assert code == 1
        assert payload["error"] in RULES
    return payload


def instance_text(distances, points=2):
    """An instance file with the given "d" lines and the median
    operation of a path on ``points`` points."""
    mu = "".join(
        f"m {i} {j} {k} {sorted((i, j, k))[1]}\n"
        for i in range(points) for j in range(points) for k in range(points)
    )
    return f"points {points}\nmetric explicit\n{distances}mu explicit\n{mu}"


MALFORMED = {
    "truncated edge": "vertices 3\ne 0 1\ne 1\n",
    "truncated header": "vertices\ne 0 1\n",
    "duplicate edge": "vertices 3\ne 0 1\ne 1 0\ne 1 2\n",
    "disconnected": "vertices 4\ne 0 1\ne 2 3\n",
    "huge id": "vertices 3\ne 0 1\ne 1 99999999999999999999\n",
    "negative id": "vertices 3\ne 0 1\ne 1 -1\n",
    # ten billion adjacency lists would be built before the
    # connectivity check
    "oversized header": "vertices 10000000000\ne 0 1\n",
    "truncated d line": instance_text("d 0 1\n"),
    "truncated m line": instance_text("d 0 1 1\n") + "m 0 0\n",
    "zero denominator": instance_text("d 0 1 1/0\n"),
    "above int32": instance_text("d 0 1 99999999999\n"),
    "below int32": instance_text("d 0 1 -99999999999\n"),
    "above int64": instance_text("d 0 1 99999999999999999999999\n"),
    "huge point id": instance_text("d 0 99999999999999999999 1\n"),
    "oversized points header": "points 99999999999999999999\n",
}

COMMANDS = [
    ["validate"], ["hyperplanes"], ["rank"], ["ncp", "--from", "0", "--to", "1"],
    ["propa"], ["propa", "--provider", "coarse"], ["coarse-check"],
    ["deep-point", "--from", "0", "--to", "1"],
]


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_file_ends_in_one_error(tmp_path, name):
    path = tmp_path / "input.txt"
    path.write_text(MALFORMED[name])
    for command in COMMANDS:
        payload = run_contract(command + ["--input", str(path)])
        assert payload is not None and "error" in payload, (command, payload)


def test_metric_past_int32_in_sums_is_valid(tmp_path):
    # d(0,1) + d(1,2) wraps around in int32; the metric is valid
    path = tmp_path / "wide.txt"
    path.write_text(instance_text(
        "d 0 1 2000000000\nd 1 2 2000000000\nd 0 2 1\n", points=3
    ))
    payload = run_contract(["validate", "--input", str(path)])
    assert payload["kind"] == "instance" and payload["points"] == 3


def test_validate_refuses_graph_above_vertex_limit(tmp_path):
    # a 30,000-vertex path: scipy's float64 distance table alone would
    # take 6.7 GiB; the refusal comes before any n x n allocation
    n = 30_000
    assert n > VERTEX_LIMIT
    path = tmp_path / "path.graph"
    path.write_text(f"vertices {n}\n" + "".join(f"e {v} {v + 1}\n" for v in range(n - 1)))
    tracemalloc.start()
    try:
        payload = run_contract(["validate", "--input", str(path)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert payload["error"] == "budget" and payload["n"] == n
    assert peak < 64 * 2**20


def test_vertex_limit_admits_the_largest_generated_graphs():
    # grid 59 59, hypercube 12 and tree 2 10; only the cheapest is built
    assert max(60 * 60, 2**12, 2**11 - 1) <= VERTEX_LIMIT
    g = generate("tree", [2, 10])
    assert g.n == 2**11 - 1 and g.dist.shape == (g.n, g.n)


@pytest.mark.parametrize("params", [["tree", "2", "10"], ["hypercube", "11"], ["grid", "59", "59"]])
def test_validate_builds_no_distance_table(tmp_path, params):
    # 2,047 to 3,600 vertices, whose int32 tables would take 16 to 49 MiB:
    # validate reads the wall codes alone
    path = tmp_path / "g.graph"
    path.write_text(write_graph_text(generate(params[0], [int(p) for p in params[1:]])))
    tracemalloc.start()
    try:
        payload = run_contract(["validate", "--input", str(path)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert payload["median"] is True
    assert peak < 16 * 2**20, peak


@pytest.mark.parametrize("kind, params", [("grid", [6, 4]), ("tree", [2, 7]), ("hypercube", [5])])
def test_median_graph_commands_read_no_distance_table(kind, params):
    g = generate(kind, params)
    far = g.n - 1
    assert is_median_graph(g) == (True, None)
    assert rank(g) >= 1 and len(hyperplanes(g)) >= 1
    path = normal_cube_path(g, 0, far)
    assert sum(map(len, path.steps)) == g.distance(0, far)
    assert "dist" not in g.__dict__
    assert g.distance(0, far) == g.dist[0, far]


def test_output_error_names_the_given_path(tmp_path):
    # the temp file beside the output gets a random name; the error
    # names the --output path, the same on every run
    folder = tmp_path / "folder"
    folder.mkdir()
    for out in (tmp_path / "missing" / "x", folder):
        payloads = [run_contract(["gen", "staircase", "3", "--output", str(out)]) for _ in range(2)]
        assert payloads[0] == payloads[1]
        assert payloads[0]["error"] == "invalid-input"
        assert payloads[0]["message"].endswith(f": '{out}'"), payloads[0]
    assert list(tmp_path.rglob(".mediancert-*")) == []


@pytest.mark.parametrize("argv", [
    [],
    ["bogus"],
    ["propa"],
    ["propa", "--n", "a", "--input", "{grid}"],
    ["propa", "--provider", "torus", "--input", "{grid}"],
    ["validate", "--bogus", "1", "--input", "{grid}"],
    ["ncp", "--from", "x", "--to", "1", "--input", "{grid}"],
    ["deep-point", "--from", "0", "--input", "{grid}"],
    ["gen", "torus", "3"],
    ["gen", "grid", "2", "x"],
])
def test_unparseable_argv_ends_in_one_error(files, argv):
    payload = run_contract([a.format(**files) for a in argv])
    assert payload["error"] == "invalid-input"
    assert payload["message"].startswith("mediancert")


@pytest.mark.parametrize("params, n", [
    (["staircase", "3000000"], 9_000_001),
    (["hypercube", "18"], 2**18),
    (["hypercube", "30"], 2**30),
    (["hypercube", "100000000000"], "2^64 or more"),
    (["grid", "100000", "100000"], 100_001**2),
    (["tree", "2", "13"], 2**14 - 1),
    (["tree", "1", "9000"], 9001),
    (["tree", "7", "1000000000000"], "2^64 or more"),
    (["coarse-grid", "8", "9"], 162),
    (["coarse-grid", "9", "9"], 181),
    (["coarse-grid", "20", "20"], 841),
    (["coarse-grid", "100000000000", "1"], 300_000_000_002),
    (["coarse-grid", "10000000000000000000", "1"], "2^64 or more"),
])
def test_oversized_generator_refused_before_building(params, n):
    # the vertex count, or an instance's ((2w+1)(2h+1)+1)//2 points, comes
    # from the parameters, before any edge list or n^3 table
    tracemalloc.start()
    try:
        payload = run_contract(["gen", *params])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    message = (
        "instance above 160 points" if params[0] == "coarse-grid"
        else f"distance table disabled above {VERTEX_LIMIT} vertices"
    )
    assert payload == {"error": "budget", "message": message, "n": n}
    assert peak < 4 * 2**20


@pytest.mark.parametrize("params, name, value", [
    (["tree", "2", "-1"], "depth", -1),
    (["tree", "-1", "3"], "branching", -1),
    (["coarse-grid", "-1", "-1"], "w", -1),
    (["coarse-grid", "2", "-1"], "h", -1),
    (["hypercube", "-1"], "d", -1),
    (["grid", "-1", "3"], "w", -1),
    (["grid", "3", "-2"], "h", -2),
    (["staircase", "-2"], "n", -2),
    (["median-closure", "-1", "4"], "k", -1),
    (["median-closure", "3", "-1"], "d", -1),
])
def test_negative_generator_parameter_refused_by_name(params, name, value):
    payload = run_contract(["gen", *params])
    assert payload == {
        "error": "invalid-input",
        "message": f"{params[0]} parameter {name} must be non-negative, got {value}",
    }


@pytest.mark.parametrize("params, message", [
    (["tree", "0", "3"], "branching must be at least 1"),
    (["median-closure", "0", "4"], "k must be at least 1"),
])
def test_zero_generator_parameter_refused_by_name(params, message):
    # an empty median-closure sample is refused before any draw, not
    # after 64 attempts at an empty graph
    assert run_contract(["gen", *params]) == {"error": "invalid-input", "message": message}


@pytest.mark.parametrize("side", [12, 15, 16])
def test_graph_above_instance_limit_refused_before_median_table(tmp_path, side):
    # 169, 256 and 289 vertices: the coarse commands refuse the graph by
    # the instance limit, before its n^3 median table is built
    n = (side + 1) ** 2
    path = tmp_path / "g.graph"
    path.write_text(write_graph_text(generate("grid", [side, side])))
    for argv in (
        ["coarse-check"], ["deep-point", "--from", "0", "--to", "1"],
        ["propa", "--provider", "coarse"],
    ):
        tracemalloc.start()
        try:
            payload = run_contract(argv + ["--input", str(path)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert payload == {"error": "budget", "message": "instance above 160 points", "n": n}
        assert peak < 8 * 2**20


def test_coarse_grid_at_145_points_writes(tmp_path):
    out = tmp_path / "c88.inst"
    assert main(["gen", "coarse-grid", "8", "8", "--output", str(out)]) == 0
    with open(out) as fh:
        assert fh.readline() == "points 145\n"


def test_closure_sample_above_cap_refused_before_sampling():
    tracemalloc.start()
    try:
        payload = run_contract(["gen", "median-closure", "5000", "20"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert payload["error"] == "budget" and payload["points"] == 5000 and payload["cap"] == 4096
    assert peak < 4 * 2**20
