"""Generators, flat-file formats and the command-line front end.

Graph files: a "vertices N" header, then one "e u v" line per edge;
"#" starts a comment.  Instance files: "points N", optional "rank d",
then a "metric explicit" section with N*(N-1)/2 lines "d i j value"
(value an integer or num/den) and a "mu explicit" section with one line
"m i j k v" per triple.  Sections left out of an instance file are
filled from a graph when one is supplied alongside.

Exit status is 0 only when every requested check passed; failures,
argument errors included, print one JSON object naming the violated
rule and exit 1.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import itertools
import json
import operator
import os
import random
import sys
import tempfile
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import coarse_median
from .coarse_median import (
    CoarseMedianInstance,
    CoarseWitnessProvider,
    check_lemma_6_2,
    check_lemma_6_5,
    coarsened_grid,
    find_deep_point,
    from_median_graph,
    l_constants,
    measured_h5,
)
from .cube_complex import hyperplanes, normal_cube_path, rank
from .errors import (
    BudgetExceeded,
    MedianCertError,
    MedianViolation,
)
from .median_core import _MASK64, VERTEX_LIMIT, MedianGraph, majority_closure
from .propa_engine import (
    CSV_HEADER,
    Cat0WitnessProvider,
    certify,
    eligible_sample,
)

GRAPH_KINDS = ("hypercube", "grid", "tree", "staircase", "median-closure")


# -- generators --------------------------------------------------------


def _refuse_above_limit(count: int) -> None:
    """MedianGraph's refusal above VERTEX_LIMIT, from a vertex count
    computed before any edge is listed.  A count of 2^64 or more stands
    for any larger one: generators pass such counts capped."""
    if count > VERTEX_LIMIT:
        raise BudgetExceeded(
            f"distance table disabled above {VERTEX_LIMIT} vertices",
            n=count if count < 1 << 64 else "2^64 or more",
        )


def _hypercube(d: int) -> MedianGraph:
    _refuse_above_limit(1 << min(d, 64))
    edges = [
        (v, v | (1 << i))
        for v in range(1 << d)
        for i in range(d)
        if not v >> i & 1
    ]
    return MedianGraph(1 << d, edges)


def _grid(w: int, h: int) -> MedianGraph:
    # w and h count edges per side, so the grid has (w+1)*(h+1) vertices
    cols, rows = w + 1, h + 1
    _refuse_above_limit(cols * rows)
    edges = []
    for i in range(cols):
        for j in range(rows):
            if i + 1 < cols:
                edges.append((i * rows + j, (i + 1) * rows + j))
            if j + 1 < rows:
                edges.append((i * rows + j, i * rows + j + 1))
    return MedianGraph(cols * rows, edges)


def _tree(branching: int, depth: int) -> MedianGraph:
    if branching < 1:
        raise ValueError("branching must be at least 1")
    # 1 + b + ... + b^depth vertices, the depth capped at 64 for b > 1
    count = max(depth, 0) + 1
    if branching > 1:
        count = (branching ** min(count, 65) - 1) // (branching - 1)
    _refuse_above_limit(count)
    edges = []
    frontier = [0]
    nxt = 1
    for _ in range(depth):
        grown = []
        for parent in frontier:
            for _ in range(branching):
                edges.append((parent, nxt))
                grown.append(nxt)
                nxt += 1
        frontier = grown
    return MedianGraph(nxt, edges)


def _staircase(n: int) -> MedianGraph:
    # n unit squares glued corner to corner along a diagonal
    _refuse_above_limit(3 * n + 1)
    edges = []
    for k in range(n):
        a = 3 * k
        edges += [(a, a + 1), (a, a + 2), (a + 1, a + 3), (a + 2, a + 3)]
    return MedianGraph(3 * n + 1, edges)


def _closure_graph(n_pts: int, d: int, seed: int, cap: int = 4096) -> MedianGraph:
    """Sample n_pts hypercube vertices, close under bitwise majority,
    take the induced subgraph.  Retries seeds that land on a
    disconnected or degenerate induced graph.  More distinct sample
    points than ``cap`` are refused before any is drawn."""
    if n_pts > cap and d >= cap.bit_length():  # min(n_pts, 2^d) > cap
        raise BudgetExceeded("sample above the closure cap", points=n_pts, dim=d, cap=cap)
    rng = random.Random(seed)
    space = 1 << d
    for _ in range(64):
        if space <= sys.maxsize:
            pts = rng.sample(range(space), min(n_pts, space))
        else:  # the draws sample makes, on a range too long for len()
            pts = []
            while len(pts) < n_pts:
                p = rng.randrange(space)
                if p not in pts:
                    pts.append(p)
        words = [[p >> 64 * j & _MASK64 for p in pts] for j in range(max(1, -(-d // 64)))]
        closure = sorted(
            sum(int(w) << 64 * j for j, w in enumerate(col))
            for col in majority_closure(np.array(words, dtype=np.uint64), cap).T
        )
        edges = [
            (i, j)
            for i, u in enumerate(closure)
            for j in range(i + 1, len(closure))
            if (u ^ closure[j]).bit_count() == 1
        ]
        try:
            g = MedianGraph(len(closure), edges)
            g.median_table()
        except (ValueError, MedianViolation, BudgetExceeded):
            continue
        return g
    raise BudgetExceeded(
        "no usable closure graph in 64 attempts", points=n_pts, dim=d
    )


_PARAM_COUNT = {
    "hypercube": 1, "grid": 2, "tree": 2, "staircase": 1,
    "median-closure": 2, "coarse-grid": 2,
}


def generate(kind: str, params, seed: int = 0) -> MedianGraph:
    """Deterministic generator for the five graph kinds; only
    median-closure consumes the seed."""
    p = [int(v) for v in params]
    if kind in _PARAM_COUNT and len(p) != _PARAM_COUNT[kind]:
        raise ValueError(f"{kind} takes {_PARAM_COUNT[kind]} parameter(s)")
    if kind == "hypercube":
        return _hypercube(p[0])
    if kind == "grid":
        return _grid(p[0], p[1])
    if kind == "tree":
        return _tree(p[0], p[1])
    if kind == "staircase":
        return _staircase(p[0])
    if kind == "median-closure":
        return _closure_graph(p[0], p[1], seed)
    raise ValueError(f"unknown kind {kind!r}")


def is_median_graph(g: MedianGraph):
    """(True, None), or (False, witness) where the witness names the
    first triple without a unique geodesic meeting point.  Works at
    every size: it keeps no median table."""
    try:
        g.verify_medians()
    except MedianViolation as exc:
        return False, exc.report()
    return True, None


# -- file formats ------------------------------------------------------


def write_graph_text(g: MedianGraph) -> str:
    lines = [f"vertices {g.n}"]
    lines.extend(f"e {u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def _read_graph_lines(lines: list[str]) -> tuple[int | None, list[tuple[int, int]]]:
    """The header and the edges of a graph file, line by line: raises at
    the first line that cannot be read or that repeats an edge."""
    n = None
    edges: list[tuple[int, int]] = []
    seen = set()
    for no, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "vertices" and len(parts) == 2:
            n = int(parts[1])
        elif parts[0] == "e" and len(parts) == 3:
            u, v = int(parts[1]), int(parts[2])
            key = (min(u, v), max(u, v))
            if key in seen:
                raise ValueError(f"line {no}: duplicate edge {key}")
            seen.add(key)
            edges.append((u, v))
        else:
            raise ValueError(f"line {no}: cannot parse {raw!r}")
    return n, edges


def _read_graph_bulk(lines: list[str]) -> tuple[int | None, np.ndarray] | None:
    """What _read_graph_lines reads, with the "e" lines in one numpy
    pass; None, leaving the file to _read_graph_lines, unless every other
    line is blank, a comment or a "vertices N" header and numpy reads
    every "e" line as two int64 ids."""
    is_edge = list(map(str.startswith, lines, itertools.repeat(("e ", "e\t"))))
    edges = _read_tagged(list(itertools.compress(lines, is_edge)), 2)
    if edges is None:
        return None
    n = None
    for raw in itertools.compress(lines, map(operator.not_, is_edge)):
        parts = raw.split("#", 1)[0].split()
        if not parts:
            continue
        if parts[0] != "vertices" or len(parts) != 2:
            return None
        try:
            n = int(parts[1])
        except ValueError:
            return None
    # the line by line reader stops at the second line of the first
    # repeated edge: the smallest later index among equal keys
    lo, hi = np.minimum(edges[:, 0], edges[:, 1]), np.maximum(edges[:, 0], edges[:, 1])
    order = np.lexsort((hi, lo))
    again = order[1:][(lo[order[1:]] == lo[order[:-1]]) & (hi[order[1:]] == hi[order[:-1]])]
    if len(again):
        i = int(again.min())
        no = int(np.flatnonzero(is_edge)[i]) + 1
        raise ValueError(f"line {no}: duplicate edge {(int(lo[i]), int(hi[i]))}")
    return n, edges


def parse_graph_text(text: str) -> MedianGraph:
    # all but a line or two of a graph file are "e" lines: read them in
    # bulk, and the file line by line only when that fails
    lines = text.splitlines()
    n, edges = _read_graph_bulk(lines) or _read_graph_lines(lines)
    if n is None:
        raise ValueError("missing 'vertices N' header")
    return MedianGraph(n, edges)


def _frac_str(f) -> str:
    f = Fraction(f)
    return f"{f.numerator}/{f.denominator}"


def write_instance_text(inst: CoarseMedianInstance) -> str:
    out = io.StringIO()
    out.write(f"points {inst.n}\n")
    out.write(f"rank {inst.d}\n")
    out.write("metric explicit\n")
    for i in range(inst.n):
        for j in range(i + 1, inst.n):
            v = Fraction(inst.rho(i, j))
            val = str(v.numerator) if v.denominator == 1 else _frac_str(v)
            out.write(f"d {i} {j} {val}\n")
    out.write("mu explicit\n")
    mu = inst.mu
    for i in range(inst.n):
        for j in range(inst.n):
            row = mu[i, j]
            for k in range(inst.n):
                out.write(f"m {i} {j} {k} {int(row[k])}\n")
    return out.getvalue()


def _read_tagged(lines: list[str], width: int) -> np.ndarray | None:
    """(k, width) int64 rows of lines that each hold a one-letter tag and
    ``width`` integers, in one numpy pass, or None when numpy refuses
    one: a line it cannot read that way is left to a line-by-line
    reader, which names it."""
    if not lines:
        return np.empty((0, width), dtype=np.int64)
    tagged = np.dtype([("tag", "U1"), ("ids", np.int64, (width,))])
    try:
        return np.loadtxt(lines, dtype=tagged, comments="#", ndmin=1)["ids"]
    except ValueError:
        return None


def _check_mu_rows(rows: np.ndarray, n: int) -> np.ndarray:
    """The operation table from (i, j, k, v) rows: every entry in
    0..n-1 and every triple listed exactly once."""
    if len(rows) and (rows.min() < 0 or rows.max() >= n):
        bad = ((rows < 0) | (rows >= n)).any(axis=1)
        i, j, k, v = rows[bad][0].tolist()
        raise ValueError(f"m line {i} {j} {k} {v}: entry out of range 0..{n - 1}")
    rows = rows.astype(np.int64, copy=False)
    key = (rows[:, 0] * n + rows[:, 1]) * n + rows[:, 2]
    twice = np.flatnonzero(np.bincount(key, minlength=n ** 3) > 1)
    if len(twice):
        i, jk = divmod(int(twice[0]), n * n)
        raise ValueError(f"mu section lists triple ({i},{jk // n},{jk % n}) twice")
    if len(rows) != n ** 3:
        raise ValueError("mu section must list every triple once")
    mu = np.empty(n ** 3, dtype=np.int32)
    mu[key] = rows[:, 3]
    return mu.reshape(n, n, n)


def parse_instance_text(text: str, graph: MedianGraph | None = None) -> CoarseMedianInstance:
    return _parse_instance_lines(text.splitlines(), graph)


def _parse_instance_lines(lines: list[str], graph: MedianGraph | None) -> CoarseMedianInstance:
    # all but a handful of an instance file's lines are "m" lines: read
    # them in bulk, and everything else (if numpy refuses one, every
    # line) one by one
    bulk = list(map(str.startswith, lines, itertools.repeat("m ")))
    rows = _read_tagged(list(itertools.compress(lines, bulk)), 4)
    if rows is None:
        bulk = [False] * len(lines)
        rows = np.empty((0, 4), dtype=np.int64)
    n = None
    d = None
    metric: dict[tuple[int, int], Fraction] = {}
    more_rows: list[list[int]] = []
    have_metric = have_mu = False
    for no in [no for no, is_m in enumerate(bulk) if not is_m]:
        raw = lines[no]
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "points" and len(parts) == 2:
            n = int(parts[1])
        elif parts[0] == "rank" and len(parts) == 2:
            d = int(parts[1])
            if d < 0:
                raise ValueError(f"line {no + 1}: rank {d} is below 0")
        elif line == "metric explicit":
            have_metric = True
        elif line == "mu explicit":
            have_mu = True
        elif parts[0] == "d" and len(parts) == 4:
            try:
                metric[(int(parts[1]), int(parts[2]))] = Fraction(parts[3])
            except ZeroDivisionError:
                raise ValueError(f"line {no + 1}: zero denominator in {raw!r}") from None
        elif parts[0] == "m" and len(parts) == 5:
            more_rows.append([int(x) for x in parts[1:]])
        else:
            raise ValueError(f"line {no + 1}: cannot parse {raw!r}")
    if n is None:
        raise ValueError("missing 'points N' header")
    if n < 1:
        raise ValueError("an instance needs at least one point")
    if n > coarse_median.INSTANCE_LIMIT:
        raise BudgetExceeded(
            f"instance above {coarse_median.INSTANCE_LIMIT} points", n=n
        )
    if graph is not None and graph.n != n:
        raise ValueError("graph and instance point counts differ")
    if have_metric:
        dist = [[Fraction(0)] * n for _ in range(n)]
        for (i, j), v in metric.items():
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"d line {i} {j}: point out of range 0..{n - 1}")
            dist[i][j] = v
            dist[j][i] = v
        for i in range(n):
            for j in range(i + 1, n):
                if (i, j) not in metric and (j, i) not in metric:
                    raise ValueError(f"missing distance for pair ({i},{j})")
    elif graph is not None:
        dist = graph.dist.tolist()
    else:
        raise ValueError("no metric section and no graph to derive one from")
    if have_mu:
        if more_rows:
            rows = np.concatenate([rows, np.array(more_rows)])
        mu = _check_mu_rows(rows, n)
    elif graph is not None:
        mu = graph.median_table()
    else:
        raise ValueError("no mu section and no graph to derive one from")
    if d is None:
        d = rank(graph) if graph is not None else 2
    return CoarseMedianInstance(dist, mu, d=d)


def _read_text(path: str) -> str:
    with open(path, "r") as fh:
        return fh.read()


def load_input(path: str):
    """Graph or instance, keyed off the header word."""
    text = _read_text(path)
    lines = text.splitlines()
    for raw in lines:
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head = line.split()[0]
        if head == "vertices":
            return parse_graph_text(text)
        if head == "points":
            return _parse_instance_lines(lines, None)
        raise ValueError(f"unrecognized header {head!r}")
    raise ValueError("empty input file")


# -- plumbing ----------------------------------------------------------


def _write_atomic(path: str, text: str) -> None:
    folder = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=folder, prefix=".mediancert-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _dump(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, default=str) + "\n"


def _emit(cfg: "RunConfig", text: str) -> None:
    if cfg.output:
        _write_atomic(cfg.output, text)
    else:
        sys.stdout.write(text)


@dataclass
class RunConfig:
    command: str
    input: str | None = None
    output: str | None = None
    seed: int = 0
    budget: int = 200_000
    sample: int | None = None
    basepoint: int = 0
    n_list: list[int] = field(default_factory=lambda: [2, 4])
    m_list: list[int] = field(default_factory=lambda: [1])
    provider: str = "cat0"
    t: int = 1
    r: int | None = None
    src: int = 0
    dst: int = 0
    kind: str | None = None
    params: list[int] = field(default_factory=list)

    def __post_init__(self):
        if self.budget <= 0:
            raise ValueError("budget must be positive")
        if min(self.n_list + self.m_list, default=1) < 1:
            raise ValueError("--n and --m entries must be at least 1")
        if self.sample is not None and self.sample <= 0:
            raise ValueError("sample must be positive")
        if self.t < 1:
            raise ValueError(f"--t {self.t} is below 1")
        if self.r is not None and self.r < 1:
            raise ValueError(f"--r {self.r} is below 1")


def _check_vertex(flag: str, v: int, n: int) -> None:
    if not 0 <= v < n:
        raise ValueError(f"{flag} {v} out of range 0..{n - 1}")


def _require_graph(obj) -> MedianGraph:
    if not isinstance(obj, MedianGraph):
        raise ValueError("this command needs a graph input")
    return obj


def _as_instance(obj) -> CoarseMedianInstance:
    if isinstance(obj, CoarseMedianInstance):
        return obj
    return from_median_graph(obj)


# -- subcommands -------------------------------------------------------


def cmd_gen(cfg: RunConfig) -> int:
    if cfg.kind == "coarse-grid":
        if len(cfg.params) != 2:
            raise ValueError("coarse-grid takes 2 parameter(s)")
        inst = coarsened_grid(cfg.params[0], cfg.params[1])
        _emit(cfg, write_instance_text(inst))
        return 0
    g = generate(cfg.kind, cfg.params, cfg.seed)
    _emit(cfg, write_graph_text(g))
    return 0


def cmd_validate(cfg: RunConfig) -> int:
    obj = load_input(cfg.input)
    if isinstance(obj, MedianGraph):
        ok, witness = is_median_graph(obj)
        payload = {
            "input": cfg.input,
            "kind": "graph",
            "vertices": obj.n,
            "edges": len(obj.edges),
            "median": ok,
        }
        if not ok:
            payload["witness"] = witness
        _emit(cfg, _dump(payload))
        return 0 if ok else 1
    payload = {
        "input": cfg.input,
        "kind": "instance",
        "points": obj.n,
        "rank_bound": obj.d,
        "m1_defect": _frac_str(obj.m1_defect),
        "m2_defect": _frac_str(obj.m2_defect),
    }
    _emit(cfg, _dump(payload))
    return 0


def cmd_hyperplanes(cfg: RunConfig) -> int:
    g = _require_graph(load_input(cfg.input))
    walls = hyperplanes(g)
    payload = {
        "count": len(walls),
        "walls": [
            {
                "index": w.index,
                "edges": len(w.edges),
                "minus": len(w.minus_side),
                "plus": len(w.plus_side),
            }
            for w in walls
        ],
    }
    _emit(cfg, _dump(payload))
    return 0


def cmd_rank(cfg: RunConfig) -> int:
    g = _require_graph(load_input(cfg.input))
    r = rank(g)
    if cfg.output:
        _write_atomic(cfg.output, _dump({"rank": r}))
    print(r)
    return 0


def cmd_ncp(cfg: RunConfig) -> int:
    g = _require_graph(load_input(cfg.input))
    _check_vertex("--from", cfg.src, g.n)
    _check_vertex("--to", cfg.dst, g.n)
    # each step crosses walls that still separate its start from the
    # target, so the steps partition the separating walls
    path = normal_cube_path(g, cfg.src, cfg.dst)
    payload = {
        "from": cfg.src,
        "to": cfg.dst,
        "length": len(path),
        "distance": g.distance(cfg.src, cfg.dst),
        "vertices": list(path.vertices),
        "steps": [sorted(s) for s in path.steps],
    }
    _emit(cfg, _dump(payload))
    return 0


def cmd_propa(cfg: RunConfig) -> int:
    obj = load_input(cfg.input)
    if cfg.provider == "cat0":
        g = _require_graph(obj)
        if not 0 <= cfg.basepoint < g.n:
            raise ValueError("basepoint out of range")
        provider = Cat0WitnessProvider(g, cfg.basepoint)
    else:
        inst = _as_instance(obj)
        if not 0 <= cfg.basepoint < inst.n:
            raise ValueError("basepoint out of range")
        provider = CoarseWitnessProvider(
            inst, cfg.basepoint, t=cfg.t, r_floor=cfg.r or 0
        )
    sample = eligible_sample(
        provider, max(cfg.n_list), limit=cfg.sample, seed=cfg.seed
    )
    certs = []
    for n in cfg.n_list:
        certs.extend(certify(provider, [n], cfg.m_list, sample))
    payload = {
        "input": cfg.input,
        "provider": provider.name,
        "basepoint": cfg.basepoint,
        "sample_size": len(sample),
        "certificates": [c.to_json_dict() for c in certs],
    }
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for c in certs:
        writer.writerows(c.csv_rows())
    if cfg.output:
        _write_atomic(cfg.output + ".json", _dump(payload))
        _write_atomic(cfg.output + ".csv", buf.getvalue())
    else:
        sys.stdout.write(_dump(payload))
    return 0


def _lemma_sweeps(inst: CoarseMedianInstance, samples: int, seed: int) -> dict:
    params = inst.params
    rng = random.Random(seed)
    n = inst.n
    tuples = [
        (
            rng.randrange(n), rng.randrange(n), rng.randrange(n),
            rng.randrange(n), (0, 1, 2)[i % 3],
        )
        for i in range(samples)
    ]

    consts = {r: l_constants(params, r, 1, inst.d) for r in (0, 1, 2)}

    def one(tup):
        a, b, z, w_pt, r = tup
        cs = consts[r]
        x = inst.med(a, b, z)
        ok_62, _ = check_lemma_6_2(inst, a, b, x, r, cs)
        h = x
        m = inst.med(a, h, w_pt)
        ok_65 = None
        if (
            inst.rho(inst.med(a, b, h), h) <= cs.L1
            and inst.rho(inst.med(a, h, m), m) <= cs.L2
        ):
            ok_65, _, _ = check_lemma_6_5(inst, a, b, h, m, r, cs)
        return ok_62, ok_65

    results = [one(tup) for tup in tuples]
    return {
        "interval_absorption": {
            "checked": len(results),
            "violations": sum(1 for ok, _ in results if not ok),
        },
        "projection_bound": {
            "checked": sum(1 for _, ok in results if ok is not None),
            "violations": sum(1 for _, ok in results if ok is False),
        },
    }


def cmd_coarse_check(cfg: RunConfig) -> int:
    inst = _as_instance(load_input(cfg.input))
    params = coarse_median.estimate_params(
        inst, budget=cfg.budget, seed=cfg.seed
    )
    payload = {
        "input": cfg.input,
        "points": inst.n,
        "rank_bound": inst.d,
        "K": _frac_str(params.K),
        "H0": _frac_str(params.H0),
        "gamma": _frac_str(params.gamma),
        "lam": _frac_str(params.lam),
        "m1_defect": _frac_str(inst.m1_defect),
        "m2_defect": _frac_str(inst.m2_defect),
    }
    ok = True
    h5 = measured_h5(inst, samples=min(cfg.sample or 40, 200), seed=cfg.seed)
    if h5 is not None:
        formula = 3 * params.K * (3 * params.K + 2) * h5 \
            + (3 * params.K + 2) * params.H0
        payload["h5"] = _frac_str(h5)
        payload["gamma_formula"] = _frac_str(formula)
        payload["gamma_dominated"] = params.gamma <= formula
        ok = ok and params.gamma <= formula
    sweeps = _lemma_sweeps(inst, samples=cfg.sample or 200, seed=cfg.seed)
    payload["sweeps"] = sweeps
    ok = ok and all(v["violations"] == 0 for v in sweeps.values())
    payload["ok"] = ok
    _emit(cfg, _dump(payload))
    return 0 if ok else 1


def cmd_deep_point(cfg: RunConfig) -> int:
    inst = _as_instance(load_input(cfg.input))
    _check_vertex("--from", cfg.src, inst.n)
    _check_vertex("--to", cfg.dst, inst.n)
    if inst.params is None:
        coarse_median.estimate_params(inst, budget=cfg.budget, seed=cfg.seed)
    params = inst.params
    scales = [cfg.r] if cfg.r is not None else list(range(1, 17))
    found = None
    used = None
    for r in scales:
        h = find_deep_point(inst, cfg.src, cfg.dst, r, cfg.t, params.lam)
        if h is not None:
            found, used = h, r
            break
    payload = {
        "from": cfg.src,
        "to": cfg.dst,
        "t": cfg.t,
        "scales_tried": scales if found is None else scales[: scales.index(used) + 1],
        "r": used,
        "deep_point": found,
    }
    if found is not None:
        cs = l_constants(params, used, cfg.t, inst.d)
        payload["distance_from_source"] = _frac_str(Fraction(inst.rho(cfg.src, found)))
        payload["l3"] = _frac_str(cs.L3)
    _emit(cfg, _dump(payload))
    return 0 if found is not None else 1


HANDLERS = {
    "gen": cmd_gen,
    "validate": cmd_validate,
    "hyperplanes": cmd_hyperplanes,
    "rank": cmd_rank,
    "ncp": cmd_ncp,
    "propa": cmd_propa,
    "coarse-check": cmd_coarse_check,
    "deep-point": cmd_deep_point,
}


def _int_list(text: str) -> list[int]:
    return [int(v) for v in text.split(",") if v != ""]


class _Parser(argparse.ArgumentParser):
    """An argparse parser whose usage errors raise ValueError, which
    ``main`` reports as one invalid-input object; its subparsers are of
    the same class."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mediancert",
        description="median graph checks and witness-set certificates",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, needs_input=True):
        if needs_input:
            sp.add_argument("--input", required=True)
        sp.add_argument("--output")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--budget", type=int, default=200_000)

    sp = sub.add_parser("gen", help="write a generated graph or instance")
    sp.add_argument("kind", choices=GRAPH_KINDS + ("coarse-grid",))
    sp.add_argument("params", type=int, nargs="*")
    common(sp, needs_input=False)

    for name in ("validate", "hyperplanes", "rank"):
        common(sub.add_parser(name))

    sp = sub.add_parser("ncp", help="normal cube path between two vertices")
    sp.add_argument("--from", dest="src", type=int, required=True)
    sp.add_argument("--to", dest="dst", type=int, required=True)
    common(sp)

    sp = sub.add_parser("propa", help="emit a witness-family certificate")
    sp.add_argument("--provider", choices=("cat0", "coarse"), default="cat0")
    sp.add_argument("--basepoint", type=int, default=0)
    # string defaults go through _int_list, a fresh list per parse
    sp.add_argument("--n", dest="n_list", type=_int_list, default="2,4")
    sp.add_argument("--m", dest="m_list", type=_int_list, default="1")
    sp.add_argument("--sample", type=int)
    sp.add_argument("--t", type=int, default=1)
    sp.add_argument("--r", type=int)
    common(sp)

    sp = sub.add_parser("coarse-check", help="parameter report and lemma sweeps")
    sp.add_argument("--sample", type=int)
    common(sp)

    sp = sub.add_parser("deep-point", help="search one deep point")
    sp.add_argument("--from", dest="src", type=int, required=True)
    sp.add_argument("--to", dest="dst", type=int, required=True)
    sp.add_argument("--t", type=int, default=1)
    sp.add_argument("--r", type=int)
    common(sp)

    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    fields = {
        k: v
        for k, v in vars(args).items()
        if k in RunConfig.__dataclass_fields__ and v is not None
    }
    return RunConfig(**fields)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call of ``main``."""
    return build_parser()


def main(argv=None) -> int:
    try:
        cfg = config_from_args(_parser().parse_args(argv))
        return HANDLERS[cfg.command](cfg)
    except MedianCertError as exc:
        sys.stdout.write(_dump(exc.report()))
        return 1
    except (ValueError, OSError) as exc:
        sys.stdout.write(_dump({"error": "invalid-input", "message": str(exc)}))
        return 1


if __name__ == "__main__":
    sys.exit(main())
