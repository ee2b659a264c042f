"""The benchmark's workloads: input files, job lists and output checks.

A job is one `mediancert.harness_cli.main(argv)` call.  Each workload is
built from the workload seed alone: the seed picks basepoints, vertex
pairs and the `--seed` passed to commands that sample.  Jobs whose
values are pinned by the README or by tests/test_acceptance.py keep
their documented arguments, so those values are checked on every seed.

`scale="tiny"` swaps each input for a small one; the smoke test uses it.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

WORKLOADS = ("propa-cat0", "coarse-fit", "structure")

# README `propa --input g.graph --n 2,4 --m 1,2 --output cert` on grid 9 9.
README_CSV = (
    "provider,n,m,sup_variation_num,sup_variation_den,amgm_num,amgm_den,"
    "p_n,p_bound_float,support_radius\n"
    "cat0,2,1,1,2,15,14,16,1.875,18\n"
    "cat0,2,2,151,182,308,195,16,1.9921875,18\n"
    "cat0,4,1,0,1,0,1,1,0.0,18\n"
    "cat0,4,2,0,1,0,1,1,0.0,18\n"
)


@dataclass(frozen=True)
class Graph:
    """A generated graph, with its vertex count and an independent
    distance formula used to check command output."""

    file: str
    kind: str
    params: tuple[int, ...]

    @property
    def gen(self) -> list[str]:
        return ["gen", self.kind, *map(str, self.params), "--output", self.file]

    @property
    def n(self) -> int:
        p = self.params
        if self.kind == "grid":
            return (p[0] + 1) * (p[1] + 1)
        if self.kind == "hypercube":
            return 1 << p[0]
        b, depth = p
        return sum(b ** i for i in range(depth + 1))

    @property
    def edges(self) -> int:
        if self.kind == "grid":
            w, h = self.params
            return w * (h + 1) + h * (w + 1)
        if self.kind == "hypercube":
            return self.params[0] << (self.params[0] - 1)
        return self.n - 1

    @property
    def rank(self) -> int:
        return {"grid": 2, "hypercube": self.params[0], "tree": 1}[self.kind]

    def distance(self, u: int, v: int) -> int:
        if self.kind == "grid":
            rows = self.params[1] + 1
            return abs(u // rows - v // rows) + abs(u % rows - v % rows)
        if self.kind == "hypercube":
            return (u ^ v).bit_count()
        b = self.params[0]
        d = 0
        while u != v:  # vertices are numbered level by level
            if u > v:
                u = (u - 1) // b
            else:
                v = (v - 1) // b
            d += 1
        return d

    def centers(self, v: int, min_distance: int) -> int:
        """Size of the center sample `propa` draws for basepoint v: the
        vertices at least min_distance away, or all of them if none is."""
        far = sum(self.distance(v, u) >= min_distance for u in range(self.n))
        return far or self.n


@dataclass(frozen=True)
class Instance:
    file: str
    w: int
    h: int

    @property
    def gen(self) -> list[str]:
        return ["gen", "coarse-grid", str(self.w), str(self.h), "--output", self.file]

    @property
    def n(self) -> int:
        return ((2 * self.w + 1) * (2 * self.h + 1) + 1) // 2


@dataclass
class Job:
    name: str
    argv: list[str]
    check: Callable[[str, dict[str, bytes]], str | None]
    outputs: tuple[str, ...] = ()


@dataclass
class Workload:
    inputs: list = field(default_factory=list)
    anchors: list[Job] = field(default_factory=list)  # long or pinned jobs
    stream: list[Job] = field(default_factory=list)   # short seeded jobs
    jobs: list[Job] = field(default_factory=list)     # one pass, in order


# -- output checks; each returns None or the reason the output is wrong --


def _check_propa(n_list, m_list, basepoint, pinned=None):
    def check(stdout, files):
        payload = json.loads(files["cert.json"].decode() if "cert.json" in files else stdout)
        if payload["provider"] != "cat0" or payload["basepoint"] != basepoint:
            return "wrong provider or basepoint"
        if payload["sample_size"] < 1:
            return "empty center sample"
        certs = payload["certificates"]
        if [c["n"] for c in certs] != n_list:
            return "certificate levels differ from --n"
        sups = {}
        for c in certs:
            if [r["m"] for r in c["rows"]] != m_list:
                return "certificate rows differ from --m"
            for r in c["rows"]:
                sup, bound = Fraction(r["sup_variation"]), Fraction(r["amgm_bound"])
                if not 0 <= sup <= bound <= 2:
                    return f"row n={c['n']} m={r['m']} breaks 0 <= sup <= bound <= 2"
                sups[(c["n"], r["m"])] = sup
        for key, value in (pinned or {}).items():
            if sups.get(key) != value:
                return f"sup_variation{key} is {sups.get(key)}, expected {value}"
        if "cert.csv" in files and files["cert.csv"].decode() != README_CSV:
            return "cert.csv differs from the README rows"
        return None

    return check


def _check_ncp(g: Graph, src: int, dst: int, length: int | None = None):
    def check(stdout, files):
        p = json.loads(stdout)
        dist = g.distance(src, dst)
        verts, steps = p["vertices"], p["steps"]
        if p["from"] != src or p["to"] != dst or p["distance"] != dist:
            return f"endpoints or distance wrong (expected distance {dist})"
        if verts[0] != src or verts[-1] != dst or len(verts) != len(steps) + 1:
            return "path does not run from source to target"
        if p["length"] != len(steps) or not all(steps):
            return "length does not match the steps"
        walls = [w for s in steps for w in s]
        if len(walls) != dist or len(set(walls)) != dist:
            return "steps do not cross each separating wall once"
        if -(-dist // g.rank) > len(steps) or any(len(s) > g.rank for s in steps):
            return "a step is wider than the rank allows"
        if length is not None and p["length"] != length:
            return f"length {p['length']}, expected {length}"
        return None

    return check


def _check_validate(g: Graph):
    def check(stdout, files):
        p = json.loads(stdout)
        want = {"input": g.file, "kind": "graph", "vertices": g.n,
                "edges": g.edges, "median": True}
        return None if p == want else f"expected {want}"

    return check


def _check_rank(g: Graph):
    def check(stdout, files):
        return None if stdout == f"{g.rank}\n" else f"rank {stdout.strip()}, expected {g.rank}"

    return check


def _check_coarse(points: int, pinned: dict):
    def check(stdout, files):
        p = json.loads(stdout)
        if p["ok"] is not True or p["points"] != points:
            return f"expected ok with {points} points"
        for sweep in p["sweeps"].values():
            if sweep["violations"] or not sweep["checked"]:
                return "a lemma sweep is empty or has violations"
        for key, value in pinned.items():
            if p.get(key) != value:
                return f"{key} is {p.get(key)}, expected {value}"
        return None

    return check


def _check_deep(inst: Instance, src: int, dst: int):
    def check(stdout, files):
        p = json.loads(stdout)
        if p["from"] != src or p["to"] != dst:
            return "endpoints wrong"
        if not isinstance(p["deep_point"], int) or not 0 <= p["deep_point"] < inst.n:
            return "no deep point"
        if p["r"] != p["scales_tried"][-1]:
            return "reported scale is not the last one tried"
        return None

    return check


# -- workloads ---------------------------------------------------------


def _stratified(rng: random.Random, items: list, k: int) -> list:
    """One seeded pick from each of k contiguous, near-equal slices of
    ``items``; with items sorted by cost, every seed gets the same mix."""
    bounds = [round(i * len(items) / k) for i in range(k + 1)]
    return [rng.choice(items[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]


def _pair(rng: random.Random, n: int) -> tuple[int, int]:
    a, b = rng.sample(range(n), 2)
    return a, b


def _propa_job(g: Graph, bp: int) -> Job:
    return Job(
        f"propa {g.file} bp{bp}",
        ["propa", "--input", g.file, "--n", "2,4", "--m", "1,2", "--basepoint", str(bp)],
        _check_propa([2, 4], [1, 2], bp),
    )


def propa_cat0(rng: random.Random, tiny: bool) -> Workload:
    g9 = Graph("g9.graph", "grid", (9, 9))
    g29 = Graph("g29.graph", "grid", (29, 29))
    mid = Graph("g4.graph", "grid", (4, 4)) if tiny else Graph("g15.graph", "grid", (15, 15))
    wl = Workload([g9, mid] if tiny else [g9, mid, g29])
    if not tiny:
        wl.anchors.append(Job(
            "propa g29 n2,4,8",
            ["propa", "--input", g29.file, "--n", "2,4,8", "--m", "1,2"],
            _check_propa([2, 4, 8], [1, 2], 0,
                         pinned={(2, 1): Fraction(7, 12), (8, 2): Fraction(563, 1260)}),
        ))
    wl.anchors.append(Job(
        "propa g9 readme",
        ["propa", "--input", g9.file, "--n", "2,4", "--m", "1,2", "--output", "cert"],
        _check_propa([2, 4], [1, 2], 0),
        outputs=("cert.csv", "cert.json"),
    ))
    stream = []
    for g, count in ((g9, 4 if tiny else 40), (mid, 3 if tiny else 10)):
        # --n 2,4 draws centers at distance >= 3*4+1 from the basepoint
        by_cost = sorted(range(g.n), key=lambda v: (g.centers(v, 13), v))
        stream += [_propa_job(g, bp) for bp in _stratified(rng, by_cost, count)]
    wl.stream = stream
    return wl


def coarse_fit(rng: random.Random, tiny: bool) -> Workload:
    g5 = Graph("g5.graph", "grid", (5, 5))
    c77 = Instance("c77.inst", 7, 7)
    c44 = Instance("c44.inst", 4, 4)
    c33 = Instance("c33.inst", 3, 3)
    if tiny:
        g5 = Graph("g2.graph", "grid", (2, 2))
    wl = Workload([g5, c33] if tiny else [g5, c77, c44, c33])
    exact = {"K": "1/1", "H0": "0/1", "gamma": "0/1", "lam": "0/1", "h5": "0/1"}
    wl.anchors.append(Job(
        f"coarse-check {g5.file}",
        ["coarse-check", "--input", g5.file, "--seed", str(rng.randrange(1 << 16))],
        _check_coarse(g5.n, exact),
    ))
    if not tiny:
        wl.anchors.append(Job(
            "coarse-check c77",
            ["coarse-check", "--input", c77.file, "--seed", str(rng.randrange(1 << 16))],
            _check_coarse(c77.n, {}),
        ))
    wl.anchors.append(Job(
        "coarse-check c33 readme",
        ["coarse-check", "--input", c33.file],
        _check_coarse(c33.n, {"K": "1/1", "H0": "0/1", "gamma": "2/1"}),
    ))
    deep = c33 if tiny else c44
    for _ in range(3 if tiny else 20):
        a, b = _pair(rng, deep.n)
        wl.stream.append(Job(
            f"deep-point {deep.file} {a}-{b}",
            ["deep-point", "--input", deep.file, "--from", str(a), "--to", str(b),
             "--seed", str(rng.randrange(1 << 16))],
            _check_deep(deep, a, b),
        ))
    return wl


def structure(rng: random.Random, tiny: bool) -> Workload:
    cube = Graph("h4.graph", "hypercube", (4,)) if tiny else Graph("h8.graph", "hypercube", (8,))
    tree = Graph("t23.graph", "tree", (2, 3)) if tiny else Graph("t27.graph", "tree", (2, 7))
    grid = Graph("g4.graph", "grid", (4, 4)) if tiny else Graph("g15.graph", "grid", (15, 15))
    g9 = Graph("g9.graph", "grid", (9, 9))
    wl = Workload([cube, tree, grid, g9])
    for g in (cube, tree):
        wl.anchors.append(Job(f"validate {g.file}", ["validate", "--input", g.file],
                              _check_validate(g)))
        wl.anchors.append(Job(f"rank {g.file}", ["rank", "--input", g.file], _check_rank(g)))
    wl.anchors.append(Job("ncp g9 readme",
                          ["ncp", "--input", g9.file, "--from", "0", "--to", "99"],
                          _check_ncp(g9, 0, 99, length=9)))
    stream = []
    for g, count in ((cube, 3 if tiny else 12), (grid, 3 if tiny else 8), (tree, 2 if tiny else 4)):
        for _ in range(count):
            a, b = _pair(rng, g.n)
            stream.append(Job(f"ncp {g.file} {a}-{b}",
                              ["ncp", "--input", g.file, "--from", str(a), "--to", str(b)],
                              _check_ncp(g, a, b)))
    wl.stream = stream
    return wl


BUILDERS = {"propa-cat0": propa_cat0, "coarse-fit": coarse_fit, "structure": structure}


def build(name: str, seed: int, tiny: bool = False) -> Workload:
    rng = random.Random(f"{name}:{seed}")
    wl = BUILDERS[name](rng, tiny)
    rng.shuffle(wl.stream)
    # Spread the anchors evenly over the pass, so that the short stream
    # jobs are timed in every part of it rather than in one stretch.
    wl.jobs = list(wl.stream)
    for i, job in enumerate(wl.anchors):
        wl.jobs.insert(round((i + 0.5) * len(wl.stream) / len(wl.anchors)) + i, job)
    return wl
