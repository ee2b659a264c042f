"""Spans around calls into mediancert, installed from outside the package.

`Tracer.install()` replaces selected public callables of the five
modules with timing wrappers, wherever they are bound: on their home
module, on every module that re-bound them with `from ... import`, in
module-level dicts such as `harness_cli.HANDLERS`, and on classes for
methods.  `uninstall()` puts the originals back.

Every call updates per-name totals (calls, inclusive seconds, self
seconds) and per-module busy and self seconds.  Calls of names listed
as cold also become one span each (id, parent, job, name, start, end);
hot calls, such as the millions of witness-set lookups, are only
aggregated per (name, parent span).  Spans and aggregates stay in memory
until `write_jsonl`.

Self time is a call's duration minus the durations of wrapped calls made
inside it, so time in callees that are not wrapped (numpy, parsing,
private helpers) counts toward the caller.  Because `harness_cli.main`
is wrapped, the modules' self times add up to the traced job time.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

MODULES = ("median_core", "cube_complex", "propa_engine", "coarse_median", "harness_cli")
COUNTERS = (
    "median_core.table_mb", "cube_complex.walls", "cube_complex.edge_pairs",
    "cube_complex.normal_cube_path.distinct", "cube_complex.normal_cube_path.steps",
    "propa_engine.sets.distinct", "propa_engine.verify_conditions.pairs",
    "propa_engine.chain.pairs", "propa_engine.sample_size",
    "coarse_median.fit.exhaustive", "coarse_median.fit.sampled",
    "coarse_median.median_closure.points", "coarse_median.find_deep_point.found",
    "harness_cli.input_mb",
)


@dataclass
class _Target:
    module: str        # the module the time is charged to
    owner: str | None  # class name for methods, None for functions
    attr: str
    name: str          # span name without the module prefix
    cold: bool = False
    pre: Callable | None = None   # (args, kwargs) -> token, before the call
    post: Callable | None = None  # (args, kwargs, result, token), after it


def _ncp_pre(args, kwargs):
    g, x, target = args[0], args[1], args[2]
    cache = getattr(g, "_ncp_cache", None)
    return cache is None or (x, target) not in cache


def _sets_pre(args, kwargs):
    provider, x, k, l = args
    return (x, k, l) not in provider._sets


def _hyperplanes_pre(args, kwargs):
    return args[0]._hyperplanes is None


def _median_table_pre(args, kwargs):
    return args[0]._median_table is None


def _packed_pre(args, kwargs):
    return args[0]._packed_intervals is None


def _estimate_pre(args, kwargs):
    from mediancert import coarse_median

    inst = args[0]
    return inst.n <= coarse_median.EXHAUSTIVE_POINTS and inst.dist_int is not None


def _load_pre(args, kwargs):
    try:
        return os.path.getsize(args[0])
    except OSError:  # load_input itself reports the missing file
        return 0


def _targets(counts):
    """The wrapped callables, with the counters their hooks feed."""

    def ncp_post(args, kwargs, result, miss):
        if miss:
            counts["cube_complex.normal_cube_path.distinct"] += 1
            counts["cube_complex.normal_cube_path.steps"] += len(result)

    def sets_post(args, kwargs, result, miss):
        if miss:
            counts["propa_engine.sets.distinct"] += 1

    def hyperplanes_post(args, kwargs, result, miss):
        if miss:
            counts["cube_complex.walls"] += len(result)
            counts["cube_complex.edge_pairs"] += len(args[0].edges) ** 2

    def median_table_post(args, kwargs, result, miss):
        if miss:
            counts["median_core.table_mb"] += 2 * args[0].n ** 3 / 2**20

    def packed_post(args, kwargs, result, miss):
        if miss:
            n = args[0].n
            counts["median_core.table_mb"] += n * n * math.ceil(n / 8) / 2**20

    def verify_post(args, kwargs, result, _):
        counts["propa_engine.verify_conditions.pairs"] += result.pairs_checked

    def sample_post(args, kwargs, result, _):
        counts["propa_engine.sample_size"] += len(result)

    def estimate_post(args, kwargs, result, exhaustive):
        counts["coarse_median.fit.exhaustive" if exhaustive else "coarse_median.fit.sampled"] += 1

    def closure_post(args, kwargs, result, _):
        counts["coarse_median.median_closure.points"] += len(result)

    def deep_post(args, kwargs, result, _):
        counts["coarse_median.find_deep_point.found"] += result is not None

    def load_post(args, kwargs, result, size):
        counts["harness_cli.input_mb"] += size / 2**20

    T = _Target
    return [
        T("median_core", "MedianGraph", "__init__", "MedianGraph", cold=True),
        T("median_core", "MedianGraph", "median_table", "median_table",
          pre=_median_table_pre, post=median_table_post),
        T("median_core", "MedianGraph", "packed_intervals", "packed_intervals",
          pre=_packed_pre, post=packed_post),
        T("cube_complex", None, "hyperplanes", "hyperplanes",
          pre=_hyperplanes_pre, post=hyperplanes_post),
        T("cube_complex", None, "rank", "rank", cold=True),
        T("cube_complex", None, "separators", "separators", cold=True),
        T("cube_complex", None, "normal_cube_path", "normal_cube_path",
          pre=_ncp_pre, post=ncp_post),
        T("propa_engine", "Cat0WitnessProvider", "sets", "sets",
          pre=_sets_pre, post=sets_post),
        T("propa_engine", None, "xi", "xi"),
        T("propa_engine", None, "verify_conditions", "verify_conditions",
          cold=True, post=verify_post),
        T("propa_engine", None, "certify", "certify", cold=True),
        T("propa_engine", None, "eligible_sample", "eligible_sample",
          cold=True, post=sample_post),
        T("coarse_median", "CoarseMedianInstance", "__init__", "CoarseMedianInstance", cold=True),
        T("coarse_median", None, "from_median_graph", "from_median_graph", cold=True),
        T("coarse_median", None, "estimate_params", "estimate_params",
          cold=True, pre=_estimate_pre, post=estimate_post),
        T("coarse_median", None, "measured_h5", "measured_h5", cold=True),
        T("coarse_median", None, "median_closure", "median_closure", post=closure_post),
        T("coarse_median", None, "check_lemma_6_2", "check_lemma_6_2"),
        T("coarse_median", None, "check_lemma_6_5", "check_lemma_6_5"),
        T("coarse_median", None, "find_deep_point", "find_deep_point", post=deep_post),
        T("harness_cli", None, "main", "main", cold=True),
        T("harness_cli", None, "load_input", "load_input",
          cold=True, pre=_load_pre, post=load_post),
        T("harness_cli", None, "is_median_graph", "is_median_graph", cold=True),
    ] + [
        T("harness_cli", None, cmd, cmd, cold=True)
        for cmd in ("cmd_validate", "cmd_rank", "cmd_ncp", "cmd_propa",
                    "cmd_coarse_check", "cmd_deep_point")
    ]


class Tracer:
    def __init__(self):
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.names: list[str] = []  # span names, filled by install()
        # name -> [calls, inclusive s, self s]
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])
        self.module_busy = dict.fromkeys(MODULES, 0.0)
        self.module_self = dict.fromkeys(MODULES, 0.0)
        # (name, parent name, parent span id) -> [calls, s, self s]
        self.aggregates = defaultdict(lambda: [0, 0.0, 0.0])
        self.spans: list[tuple] = []
        self.job = None
        self._stack: list[list] = []  # [child s, span id, name]
        self._active = defaultdict(int)  # nesting depth per name and per module
        self._restore: list[tuple] = []

    # -- installation --------------------------------------------------

    def install(self) -> None:
        home = {m: importlib.import_module(f"mediancert.{m}") for m in MODULES}
        # propa_engine.certify calls the private chain check once per
        # center pair; count the calls without timing them, so the chain's
        # arithmetic stays in certify's self time.
        self._count_calls(home["propa_engine"], "_check_pair_chain", "propa_engine.chain.pairs")
        namespaces = [importlib.import_module("mediancert"), *home.values()]
        for t in _targets(self.counts):
            if t.owner is not None:
                cls = getattr(home[t.module], t.owner)
                orig = cls.__dict__[t.attr]
                self._set(cls, t.attr, orig, self._wrap(t, orig))
                continue
            orig = getattr(home[t.module], t.attr)
            wrapped = self._wrap(t, orig)
            for ns in namespaces:
                for key, val in list(vars(ns).items()):
                    if val is orig:
                        self._set(ns, key, orig, wrapped)
                    elif isinstance(val, dict):
                        for k, v in list(val.items()):
                            if v is orig:
                                self._set(val, k, orig, wrapped)

    def uninstall(self) -> None:
        for obj, key, orig in reversed(self._restore):
            if isinstance(obj, dict):
                obj[key] = orig
            else:
                setattr(obj, key, orig)
        self._restore.clear()

    def _set(self, obj, key, orig, new) -> None:
        """Bind ``new`` at ``key`` of a module, class or dict."""
        self._restore.append((obj, key, orig))
        if isinstance(obj, dict):
            obj[key] = new
        else:
            setattr(obj, key, new)

    def _count_calls(self, module, attr, counter) -> None:
        orig = getattr(module, attr)
        counts = self.counts

        def counted(*args, **kwargs):
            counts[counter] += 1
            return orig(*args, **kwargs)

        self._set(module, attr, orig, counted)

    def _wrap(self, t: _Target, fn):
        name = f"{t.module}.{t.name}"
        self.names.append(name)
        module = t.module
        cold, pre, post = t.cold, t.pre, t.post
        stack, active, stats = self._stack, self._active, self.stats
        module_busy, module_self = self.module_busy, self.module_self
        aggregates, spans = self.aggregates, self.spans
        perf = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            token = pre(args, kwargs) if pre is not None else None
            parent = stack[-1] if stack else None
            span_id = len(spans) if cold else None
            if cold:
                spans.append(None)  # reserve the id; filled on exit
            frame = [0.0, span_id if cold else (parent[1] if parent else None), name]
            stack.append(frame)
            active[name] += 1
            active[module] += 1
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                dur = t1 - t0
                own = dur - frame[0]
                active[name] -= 1
                active[module] -= 1
                st = stats[name]
                st[0] += 1
                st[2] += own
                if not active[name]:
                    st[1] += dur
                if not active[module]:
                    module_busy[module] += dur
                module_self[module] += own
                if parent is not None:
                    parent[0] += dur
                parent_id = parent[1] if parent is not None else None
                if cold:
                    spans[span_id] = (span_id, parent_id, tracer.job, name, t0, t1)
                else:
                    agg = aggregates[(name, parent[2] if parent else None, parent_id)]
                    agg[0] += 1
                    agg[1] += dur
                    agg[2] += own
            if post is not None:
                post(args, kwargs, result, token)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- output --------------------------------------------------------

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as fh:
            for span_id, parent, job, name, t0, t1 in self.spans:
                fh.write(json.dumps({"type": "span", "id": span_id, "parent": parent,
                                     "job": job, "name": name, "start": t0, "end": t1}) + "\n")
            for (name, parent_name, parent_id), (calls, s, own) in self.aggregates.items():
                fh.write(json.dumps({"type": "aggregate", "name": name,
                                     "parent_name": parent_name, "parent": parent_id,
                                     "calls": calls, "s": s, "self_s": own}) + "\n")
