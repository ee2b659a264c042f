"""The CLI boundary contract, as a property over generated argv.

Every call of ``main`` ends in one of two ways: a result with exit 0,
or exit 1 with exactly one JSON object on stdout, whose ``error`` (when
present) names a rule from ``errors.py`` or ``invalid-input``.  Nothing
raises.  argparse's own usage errors are out of scope: the argv drawn
here always parses.
"""

import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from mediancert import errors
from mediancert.coarse_median import coarsened_grid
from mediancert.harness_cli import generate, main, write_graph_text, write_instance_text
from mediancert.median_core import MedianGraph

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
    "validate": ["seed", "budget"],
    "hyperplanes": ["seed", "budget"],
    "rank": ["seed", "budget"],
    "ncp": ["seed", "budget"],
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
    for flag in draw(st.sets(st.sampled_from(FLAGS[command]))):
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
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv + ["--input", files[name]])
    assert code in (0, 1)
    out = buf.getvalue()
    assert out.endswith("\n") and out.count("\n") == 1, out
    if argv[0] == "rank" and code == 0:
        assert int(out) >= 0
        return
    payload = json.loads(out)
    assert isinstance(payload, dict)
    if "error" in payload:
        assert code == 1
        assert payload["error"] in RULES
