"""Generators, flat-file formats and the command-line front end.

Graph files: a "vertices N" header, then one "e u v" line per edge;
"#" starts a comment.  Instance files: "points N", optional "rank d",
then a "metric explicit" section with N*(N-1)/2 lines "d i j value"
(value an integer or num/den) and a "mu explicit" section with one line
"m i j k v" per triple; a pair or a triple listed twice is refused.
Sections left out of an instance file are filled from a graph when one
is supplied alongside.

Files are read as bytes, in blocks of whole lines.  A file in the
layout the writers use takes the bulk path: it is ASCII with "\n" as
its only line break, and each "e", "d" and "m" line is the tag and then
exactly 2, 3 or 4 tokens of at most 18 digits, each after one space.
Those lines are parsed by array operations, the "m" lines straight into
the operation table, and the few others one by one.  Every other file
is read line by line, with the same results and the same messages.

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
import os
import random
import sys
import tempfile
from fractions import Fraction
from typing import NamedTuple

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
from .median_core import (
    _MASK64,
    MedianGraph,
    grid,
    majority_closure,
    refuse_above_vertex_limit,
)
from .propa_engine import (
    CSV_HEADER,
    Cat0WitnessProvider,
    certify,
    eligible_sample,
)

# -- generators --------------------------------------------------------


def _hypercube(d: int) -> MedianGraph:
    refuse_above_vertex_limit(1 << min(d, 64))
    edges = [
        (v, v | (1 << i))
        for v in range(1 << d)
        for i in range(d)
        if not v >> i & 1
    ]
    return MedianGraph(1 << d, edges)


def _tree(branching: int, depth: int) -> MedianGraph:
    if branching < 1:
        raise ValueError("branching must be at least 1")
    # 1 + b + ... + b^depth vertices, the depth capped at 64 for b > 1
    count = max(depth, 0) + 1
    if branching > 1:
        count = (branching ** min(count, 65) - 1) // (branching - 1)
    refuse_above_vertex_limit(count)
    # ids in breadth-first order: the parent of vertex v > 0 is (v-1) // b
    child = np.arange(1, count)
    return MedianGraph(count, np.column_stack([(child - 1) // branching, child]))


def _staircase(n: int) -> MedianGraph:
    # n unit squares glued corner to corner along a diagonal
    refuse_above_vertex_limit(3 * n + 1)
    edges = []
    for k in range(n):
        a = 3 * k
        edges += [(a, a + 1), (a, a + 2), (a + 1, a + 3), (a + 2, a + 3)]
    return MedianGraph(3 * n + 1, edges)


# the most points a median-closure sample or closure may hold
_CLOSURE_POINTS = 4096


def _closure_graph(n_pts: int, d: int, seed: int) -> MedianGraph:
    """Sample n_pts hypercube vertices, close under bitwise majority,
    take the induced subgraph.  Retries seeds that land on a
    disconnected or degenerate induced graph.  An empty sample, or more
    distinct sample points than _CLOSURE_POINTS, is refused before any
    is drawn."""
    if n_pts < 1:
        raise ValueError("k must be at least 1")
    cap = _CLOSURE_POINTS
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
            g.verify_medians()
        except (ValueError, MedianViolation):
            continue
        return g
    raise BudgetExceeded(
        "no usable closure graph in 64 attempts", points=n_pts, dim=d
    )


# each gen kind: its parameter names, and its builder of the parameters
# and the seed, which only median-closure reads
GENERATORS = {
    "hypercube": (("d",), lambda d, seed: _hypercube(d)),
    "grid": (("w", "h"), lambda w, h, seed: grid(w, h)),
    "tree": (("branching", "depth"), lambda b, depth, seed: _tree(b, depth)),
    "staircase": (("n",), lambda n, seed: _staircase(n)),
    "median-closure": (("k", "d"), _closure_graph),
    "coarse-grid": (("w", "h"), lambda w, h, seed: coarsened_grid(w, h)),
}


def _generator_params(kind: str, params) -> list[int]:
    """The parameters of a generator kind as ints; ValueError on a wrong
    count, or naming the first negative one."""
    p = [int(v) for v in params]
    names = GENERATORS[kind][0]
    if len(p) != len(names):
        raise ValueError(f"{kind} takes {len(names)} parameter(s)")
    for name, v in zip(names, p):
        if v < 0:
            raise ValueError(f"{kind} parameter {name} must be non-negative, got {v}")
    return p


def generate(kind: str, params, seed: int = 0) -> MedianGraph | CoarseMedianInstance:
    """Deterministic generator for each kind in GENERATORS: an instance
    for coarse-grid, else a graph; only median-closure consumes the
    seed."""
    if kind not in GENERATORS:
        raise ValueError(f"unknown kind {kind!r}")
    return GENERATORS[kind][1](*_generator_params(kind, params), seed)


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


# rows per block of _write_tagged: about 1 MiB of text for "m" lines
_WRITE_ROWS = 1 << 16


def _write_tagged(tag: str, rows: np.ndarray) -> str:
    """The lines "tag r0 r1 ...\n" of a (k, width) array of non-negative
    ints, byte for byte what an f-string per line writes; the writing
    counterpart of _read_tagged.  Each value indexes a table of digit
    tokens, padded in front with zero bytes to one length and ending in a
    space.  A block of rows is one gather per column into a uint8 array,
    whose last byte per line becomes the newline; the pad bytes are then
    deleted."""
    if not len(rows):
        return ""
    top = int(rows.max())
    size = len(str(top)) + 1
    table = "".join(str(v).rjust(size - 1, "\0") + " " for v in range(top + 1))
    tokens = np.frombuffer(table.encode(), dtype=np.dtype((np.void, size)))
    head = f"{tag} ".encode()
    width = rows.shape[1]
    out = []
    for lo in range(0, len(rows), _WRITE_ROWS):
        part = rows[lo:lo + _WRITE_ROWS]
        block = np.empty((len(part), len(head) + width * size), dtype=np.uint8)
        block[:, :len(head)] = np.frombuffer(head, dtype=np.uint8)
        cells = block[:, len(head):].view(tokens.dtype)
        for c in range(width):
            np.take(tokens, part[:, c], out=cells[:, c])
        block[:, -1] = ord("\n")
        out.append(block.tobytes().translate(None, b"\0").decode("ascii"))
    return "".join(out)


def write_graph_text(g: MedianGraph) -> str:
    return f"vertices {g.n}\n" + _write_tagged("e", g.edge_array)


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
    # rows (i, j, k, mu[i, j, k]) in C order, in the smallest dtype that
    # holds a point id
    ids = np.min_scalar_type(inst.n - 1)
    ijk = np.indices(inst.mu.shape, dtype=ids).reshape(3, -1)
    out.write(_write_tagged("m", np.column_stack([*ijk, inst.mu.ravel().astype(ids)])))
    return out.getvalue()


# Reading.  A plain file (ASCII, and no line break but "\n", so that its
# lines are exactly the str.splitlines() lines) is read as bytes, in
# blocks of whole lines: its tagged lines in bulk, its few other lines
# one by one through the line reader, and an instance's "m" lines
# straight into its operation table.  The bulk path refuses nothing: on
# any line it does not take, or any block that is not plain, the whole
# file goes to the line reader, the one place that names a bad line, so
# every message and line number is the line reader's.

# bytes per read of a file, or per slice of a text; _line_blocks rounds
# them to whole lines
_READ_BYTES = 1 << 20


def _plain(buf: bytes) -> bool:
    return buf.isascii() and not any(c in buf for c in b"\r\v\f\x1c\x1d\x1e")


def _line_blocks(chunks):
    """Byte chunks regrouped into blocks of whole lines, each ending in a
    newline; one is added after a last line without."""
    rest = b""
    for chunk in chunks:
        cut = chunk.rfind(b"\n") + 1
        if cut:
            yield rest + memoryview(chunk)[:cut]
        rest = chunk[cut:] if cut else rest + chunk
    if rest:
        yield rest + b"\n"


def _text_blocks(text: str):
    """The lines of ``text`` as _line_blocks gives those of a file."""
    return _line_blocks(text[lo:lo + _READ_BYTES].encode() for lo in range(0, len(text), _READ_BYTES))


def _read_tagged(b: np.ndarray, lines: int, width: int) -> np.ndarray | None:
    """(lines, width) rows of ``lines`` whole lines in a uint8 array,
    each starting with a one-byte tag and a space; None unless every line
    then holds exactly ``width`` tokens of 1 to 18 digits (so each fits
    in int64), each after one space, and ends in a newline.  The rows
    are int32 when no token has more than 9 digits, else int64.  The
    writing counterpart is _write_tagged."""
    delim = (b == 32) | (b == 10)
    ends = np.flatnonzero(delim)
    if len(ends) != lines * (width + 1):
        return None
    ends = ends.reshape(lines, width + 1)
    # b holds one newline per line: when each line's last delimiter is
    # one, every other delimiter is a space
    if not (b[ends[:, -1]] == 10).all():
        return None
    # and then the bytes that are no digit and no delimiter must be the
    # tags alone
    digits = b - np.uint8(48)
    if np.count_nonzero(delim | (digits < 10)) != len(b) - lines:
        return None
    size = ends[:, 1:] - ends[:, :-1] - 1
    wide = int(size.max())
    if size.min() < 1 or wide > 18:
        return None
    last = ends[:, 1:] - 1  # the last digit of each token
    rows = digits[last].astype(np.int32 if wide <= 9 else np.int64)
    for p in range(1, wide):
        digit = digits[last - p]
        digit[size <= p] = 0
        rows += digit.astype(rows.dtype) * 10 ** p
    return rows


def _split_tagged(blocks, widths: dict[bytes, int]):
    """Per block of whole lines (_line_blocks): its other lines, a list
    of (line number, text), and {tag: (k, width) int rows} of its lines
    "tag v1 ... v_width" in file order, for each tag it holds.  None,
    and then nothing, at a block that is not plain or holds a line that
    starts with a tag and a space and is not taken by _read_tagged."""
    no = 0
    for block in blocks:
        if not _plain(block):
            yield None
            return
        b = np.frombuffer(block, dtype=np.uint8)
        nl = np.flatnonzero(b == 10)
        starts = np.concatenate(([0], nl[:-1] + 1))
        first, second = b[starts], b[np.minimum(starts + 1, len(b) - 1)]
        other = np.ones(len(nl), dtype=bool)
        rows = {}
        for tag, width in widths.items():
            mine = (first == tag[0]) & (second == 32)
            if not mine.any():
                continue
            other &= ~mine
            part = b if mine.all() else b[np.repeat(mine, nl - starts + 1)]
            rows[tag] = _read_tagged(part, int(np.count_nonzero(mine)), width)
            if rows[tag] is None:
                yield None
                return
        yield [(no + i + 1, block[starts[i]:nl[i]].decode()) for i in np.flatnonzero(other).tolist()], rows
        no += len(nl)


def _repeats(pairs: np.ndarray) -> bool:
    """Whether two rows of a (k, 2) int array hold one unordered pair."""
    lo, hi = pairs.min(axis=1), pairs.max(axis=1)
    order = np.lexsort((hi, lo))
    lo, hi = lo[order], hi[order]
    return bool(((lo[1:] == lo[:-1]) & (hi[1:] == hi[:-1])).any())


def _read_graph_lines(numbered) -> tuple[int | None, list[tuple[int, int]]]:
    """The header and the edges of a graph file from its (line number,
    text) pairs: raises at the first line that cannot be read or that
    repeats an edge."""
    n = None
    edges: list[tuple[int, int]] = []
    seen = set()
    for no, raw in numbered:
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


def _read_graph_bytes(blocks) -> tuple[int | None, np.ndarray] | None:
    """What _read_graph_lines reads from the blocks of a plain file, with
    the "e" lines in bulk; None, leaving the file to _read_graph_lines,
    unless the bulk reader takes every block and every "e" line, the
    line reader takes every other line without an edge, and no edge
    repeats."""
    others, edges = [], [np.empty((0, 2), dtype=np.int32)]
    for split in _split_tagged(blocks, {b"e": 2}):
        if split is None:
            return None
        others += split[0]
        edges += split[1].values()
    try:
        n, listed = _read_graph_lines(others)
    except ValueError:
        return None
    edges = np.concatenate(edges)
    if listed or _repeats(edges):
        return None
    return n, edges


def _parse_graph(blocks, lines) -> MedianGraph:
    """The graph of a file: ``blocks`` are its bytes in blocks of whole
    lines, or None to read it by lines alone, and ``lines()`` gives its
    lines."""
    read = _read_graph_bytes(blocks) if blocks is not None else None
    n, edges = read or _read_graph_lines(enumerate(lines(), 1))
    if n is None:
        raise ValueError("missing 'vertices N' header")
    return MedianGraph(n, edges)


def parse_graph_text(text: str) -> MedianGraph:
    return _parse_graph(_text_blocks(text), text.splitlines)


class _InstanceText(NamedTuple):
    """What an instance file lists: ``pairs`` (k, 2) and ``vals`` (k,)
    from its "d" lines, ``rows`` (k, 4) from its "m" lines, each in file
    order.  Each is an int array, or an object array of Python ints
    when an entry is past int64; ``vals`` also when one is a Fraction.
    The bulk reader gives the checked operation ``table`` instead."""

    n: int | None
    d: int | None
    have_metric: bool
    have_mu: bool
    pairs: np.ndarray
    vals: np.ndarray
    rows: np.ndarray
    table: np.ndarray | None = None


def _read_instance_lines(numbered) -> _InstanceText:
    """The sections of an instance file from its (line number, text)
    pairs: raises at the first line that cannot be read, has a rank
    below 0 or a zero denominator, or lists a pair twice."""
    n = d = None
    pairs: list[tuple[int, int]] = []
    vals: list[int | Fraction] = []
    rows: list[list[int]] = []
    seen = set()
    have_metric = have_mu = False
    for no, raw in numbered:
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "points" and len(parts) == 2:
            n = int(parts[1])
        elif parts[0] == "rank" and len(parts) == 2:
            d = int(parts[1])
            if d < 0:
                raise ValueError(f"line {no}: rank {d} is below 0")
        elif line == "metric explicit":
            have_metric = True
        elif line == "mu explicit":
            have_mu = True
        elif parts[0] == "d" and len(parts) == 4:
            v = parts[3]
            try:
                vals.append(int(v) if v.isascii() and v.isdigit() else Fraction(v))
            except ZeroDivisionError:
                raise ValueError(f"line {no}: zero denominator in {raw!r}") from None
            i, j = int(parts[1]), int(parts[2])
            key = (min(i, j), max(i, j))
            if key in seen:
                raise ValueError(f"line {no}: pair ({key[0]},{key[1]}) listed twice")
            seen.add(key)
            pairs.append((i, j))
        elif parts[0] == "m" and len(parts) == 5:
            rows.append([int(x) for x in parts[1:]])
        else:
            raise ValueError(f"line {no}: cannot parse {raw!r}")
    # an int table unless a value is a Fraction or too large for int64
    wide = any(type(v) is Fraction or v >= 2**63 for v in vals)
    return _InstanceText(
        n, d, have_metric, have_mu, _int_rows(pairs, 2),
        np.array(vals, dtype=object if wide else np.int64), _int_rows(rows, 4),
    )


def _int_rows(rows: list, width: int) -> np.ndarray:
    """(k, width) int64 rows, or Python ints when one is past int64."""
    try:
        return np.array(rows, dtype=np.int64).reshape(-1, width)
    except OverflowError:
        return np.array(rows, dtype=object).reshape(-1, width)


def _read_instance_bytes(blocks) -> _InstanceText | None:
    """What _read_instance_lines reads from the blocks of a plain file,
    with the "d" lines in bulk and the "m" lines put straight into an n^3
    table, n from the lines before them (dropped unless n is in
    1..INSTANCE_LIMIT); None, leaving the file to _read_instance_lines
    and _check_mu_rows, unless the bulk reader takes every block and
    tagged line, the line reader every other line, no pair repeats, and
    a mu section has, for a final n in that range, n^3 rows that write
    every entry of its table: each triple once."""
    limit = coarse_median.INSTANCE_LIMIT
    others, metric = [], [np.empty((0, 3), dtype=np.int32)]
    table = built = None
    listed = 0
    for split in _split_tagged(blocks, {b"d": 3, b"m": 4}):
        if split is None:
            return None
        others += split[0]
        metric.append(split[1].get(b"d", metric[0]))
        rows = split[1].get(b"m")
        if rows is not None and built is None:
            try:
                built = _read_instance_lines(others).n
            except ValueError:
                return None
            table = np.full(built ** 3, -1, dtype=np.int32) if 0 < (built or 0) <= limit else None
        if rows is None or table is None:
            continue
        if rows.max() >= built:
            return None
        table[(rows[:, 0].astype(np.intp) * built + rows[:, 1]) * built + rows[:, 2]] = rows[:, 3]
        listed += len(rows)
    try:
        head = _read_instance_lines(others)
    except ValueError:
        return None
    metric, n = np.concatenate(metric), head.n
    if len(head.pairs) or len(head.rows) or _repeats(metric[:, :2]):
        return None
    if not (head.have_mu and 0 < (n or 0) <= limit):
        table = None
    elif not (built == n and listed == n ** 3 and table.min() >= 0):
        return None
    return head._replace(pairs=metric[:, :2], vals=metric[:, 2].astype(np.int64), table=table)


def _metric_table(pairs: np.ndarray, vals: np.ndarray, n: int) -> np.ndarray:
    """The n x n table of the "d" lines, each pair listed once, in the
    dtype of ``vals``: every id in 0..n-1 and every pair listed."""
    inside = ((pairs >= 0) & (pairs < n)).all(axis=1)
    if not inside.all():
        i, j = pairs[inside.argmin()].tolist()
        raise ValueError(f"d line {i} {j}: point out of range 0..{n - 1}")
    i, j = pairs.astype(np.intp).T
    dist = np.zeros((n, n), dtype=vals.dtype)
    dist[i, j] = dist[j, i] = vals
    listed = np.eye(n, dtype=bool)
    listed[i, j] = listed[j, i] = True
    if not listed.all():
        i, j = np.argwhere(~listed)[0].tolist()
        raise ValueError(f"missing distance for pair ({i},{j})")
    return dist


def _check_mu_rows(rows: np.ndarray, n: int) -> np.ndarray:
    """The operation table from (i, j, k, v) rows: every entry in
    0..n-1 and every triple listed exactly once."""
    if len(rows) and (rows.min() < 0 or rows.max() >= n):
        bad = ((rows < 0) | (rows >= n)).any(axis=1)
        i, j, k, v = rows[bad][0].tolist()
        raise ValueError(f"m line {i} {j} {k} {v}: entry out of range 0..{n - 1}")
    key = (rows[:, 0].astype(np.int64) * n + rows[:, 1]) * n + rows[:, 2]
    twice = np.flatnonzero(np.bincount(key, minlength=n ** 3) > 1)
    if len(twice):
        i, jk = divmod(int(twice[0]), n * n)
        raise ValueError(f"mu section lists triple ({i},{jk // n},{jk % n}) twice")
    if len(rows) != n ** 3:
        raise ValueError("mu section must list every triple once")
    mu = np.empty(n ** 3, dtype=np.int32)
    mu[key] = rows[:, 3]
    return mu.reshape(n, n, n)


def _parse_instance(blocks, lines,
                    graph: MedianGraph | None = None) -> CoarseMedianInstance:
    """The instance of a file, as _parse_graph reads a graph; sections
    it leaves out come from ``graph``."""
    read = _read_instance_bytes(blocks) if blocks is not None else None
    n, d, have_metric, have_mu, pairs, vals, rows, table = \
        read or _read_instance_lines(enumerate(lines(), 1))
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
        dist = _metric_table(pairs, vals, n)
    elif graph is not None:
        dist = graph.dist
    else:
        raise ValueError("no metric section and no graph to derive one from")
    if have_mu:
        mu = table.reshape(n, n, n) if read else _check_mu_rows(rows, n)
    elif graph is not None:
        mu = graph.median_table()
    else:
        raise ValueError("no mu section and no graph to derive one from")
    if d is None:
        d = rank(graph) if graph is not None else 2
    return CoarseMedianInstance(dist, mu, d=d)


def parse_instance_text(text: str, graph: MedianGraph | None = None) -> CoarseMedianInstance:
    return _parse_instance(_text_blocks(text), text.splitlines, graph)


def _read_text(path: str) -> str:
    with open(path, "r") as fh:
        return fh.read()


def _header(lines) -> str:
    """The first word of the first line that is not blank or a comment:
    "vertices" or "points"."""
    for raw in lines:
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head = line.split()[0]
        if head in ("vertices", "points"):
            return head
        raise ValueError(f"unrecognized header {head!r}")
    raise ValueError("empty input file")


def load_input(path: str):
    """Graph or instance, keyed off the header word.  A file whose first
    block of lines is plain and holds the header is read in blocks
    (_line_blocks); any other file, and one the bulk path leaves to the
    line reader, is read as text."""
    with open(path, "rb") as fh:
        # a small file in one small read: a 1 MiB read costs 20 us more
        size = min(_READ_BYTES, max(1 << 16, os.fstat(fh.fileno()).st_size))
        blocks = _line_blocks(iter(functools.partial(fh.read, size), b""))
        first = next(blocks, b"")
        try:
            head = _plain(first) and _header(raw.decode() for raw in io.BytesIO(first))
        except ValueError:  # the text path raises it, or what reading the text raises
            head = None
        if head:
            parse = _parse_graph if head == "vertices" else _parse_instance
            return parse(itertools.chain([first], blocks), lambda: _read_text(path).splitlines())
    text = _read_text(path).splitlines()
    parse = _parse_graph if _header(text) == "vertices" else _parse_instance
    return parse(None, lambda: text)


# -- plumbing ----------------------------------------------------------


def _write_atomic(path: str, text: str) -> None:
    """Write ``text`` to ``path`` through a temp file beside it; an
    OSError names ``path``, never the temp file."""
    folder = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=folder, prefix=".mediancert-")
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def _dump(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, default=str) + "\n"


def _emit(args: argparse.Namespace, text: str) -> None:
    if args.output:
        _write_atomic(args.output, text)
    else:
        sys.stdout.write(text)


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


def cmd_gen(args: argparse.Namespace) -> int:
    built = generate(args.kind, args.params, args.seed)
    write = write_instance_text if isinstance(built, CoarseMedianInstance) else write_graph_text
    _emit(args, write(built))
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    obj = load_input(args.input)
    if isinstance(obj, MedianGraph):
        ok, witness = is_median_graph(obj)
        payload = {
            "input": args.input,
            "kind": "graph",
            "vertices": obj.n,
            "edges": len(obj.edges),
            "median": ok,
        }
        if not ok:
            payload["witness"] = witness
        _emit(args, _dump(payload))
        return 0 if ok else 1
    payload = {
        "input": args.input,
        "kind": "instance",
        "points": obj.n,
        "rank_bound": obj.d,
        "m1_defect": _frac_str(obj.m1_defect),
        "m2_defect": _frac_str(obj.m2_defect),
    }
    _emit(args, _dump(payload))
    return 0


def cmd_hyperplanes(args: argparse.Namespace) -> int:
    g = _require_graph(load_input(args.input))
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
    _emit(args, _dump(payload))
    return 0


def cmd_rank(args: argparse.Namespace) -> int:
    g = _require_graph(load_input(args.input))
    r = rank(g)
    if args.output:
        _write_atomic(args.output, _dump({"rank": r}))
    print(r)
    return 0


def cmd_ncp(args: argparse.Namespace) -> int:
    g = _require_graph(load_input(args.input))
    _check_vertex("--from", args.src, g.n)
    _check_vertex("--to", args.dst, g.n)
    # each step crosses walls that still separate its start from the
    # target, so the steps partition the separating walls
    path = normal_cube_path(g, args.src, args.dst)
    payload = {
        "from": args.src,
        "to": args.dst,
        "length": len(path),
        "distance": g.distance(args.src, args.dst),
        "vertices": list(path.vertices),
        "steps": [sorted(s) for s in path.steps],
    }
    _emit(args, _dump(payload))
    return 0


def cmd_propa(args: argparse.Namespace) -> int:
    obj = load_input(args.input)
    space = _require_graph(obj) if args.provider == "cat0" else _as_instance(obj)
    if not 0 <= args.basepoint < space.n:
        raise ValueError("basepoint out of range")
    if args.provider == "cat0":
        provider = Cat0WitnessProvider(space, args.basepoint)
    else:
        coarse_median.estimate_params(space, budget=args.budget, seed=args.seed)
        provider = CoarseWitnessProvider(space, args.basepoint, t=args.t, r_floor=args.r or 0)
    sample = eligible_sample(
        provider, max(args.n_list), limit=args.sample, seed=args.seed
    )
    certs = []
    for n in args.n_list:
        certs.extend(certify(provider, [n], args.m_list, sample))
    payload = {
        "input": args.input,
        "provider": provider.name,
        "basepoint": args.basepoint,
        "sample_size": len(sample),
        "certificates": [c.to_json_dict() for c in certs],
    }
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for c in certs:
        writer.writerows(c.csv_rows())
    if args.output:
        _write_atomic(args.output + ".json", _dump(payload))
        _write_atomic(args.output + ".csv", buf.getvalue())
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


def cmd_coarse_check(args: argparse.Namespace) -> int:
    inst = _as_instance(load_input(args.input))
    params = coarse_median.estimate_params(
        inst, budget=args.budget, seed=args.seed
    )
    payload = {
        "input": args.input,
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
    h5 = measured_h5(inst, samples=min(args.sample or 40, 200), seed=args.seed)
    if h5 is not None:
        formula = 3 * params.K * (3 * params.K + 2) * h5 \
            + (3 * params.K + 2) * params.H0
        payload["h5"] = _frac_str(h5)
        payload["gamma_formula"] = _frac_str(formula)
        payload["gamma_dominated"] = params.gamma <= formula
        ok = ok and params.gamma <= formula
    sweeps = _lemma_sweeps(inst, samples=args.sample or 200, seed=args.seed)
    payload["sweeps"] = sweeps
    ok = ok and all(v["violations"] == 0 for v in sweeps.values())
    payload["ok"] = ok
    _emit(args, _dump(payload))
    return 0 if ok else 1


def cmd_deep_point(args: argparse.Namespace) -> int:
    inst = _as_instance(load_input(args.input))
    _check_vertex("--from", args.src, inst.n)
    _check_vertex("--to", args.dst, inst.n)
    params = coarse_median.estimate_params(inst, budget=args.budget, seed=args.seed)
    scales = [args.r] if args.r is not None else list(range(1, 17))
    found = None
    used = None
    for r in scales:
        h = find_deep_point(inst, args.src, args.dst, r, args.t, params.lam)
        if h is not None:
            found, used = h, r
            break
    payload = {
        "from": args.src,
        "to": args.dst,
        "t": args.t,
        "scales_tried": scales if found is None else scales[: scales.index(used) + 1],
        "r": used,
        "deep_point": found,
    }
    if found is not None:
        cs = l_constants(params, used, args.t, inst.d)
        payload["distance_from_source"] = _frac_str(Fraction(inst.rho(args.src, found)))
        payload["l3"] = _frac_str(cs.L3)
    _emit(args, _dump(payload))
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

    def common(sp, needs_input=True, seed=False, fit=False):
        # --seed where a command draws at random, --budget too where it
        # fits the coarse constants
        if needs_input:
            sp.add_argument("--input", required=True)
        sp.add_argument("--output")
        if seed or fit:
            sp.add_argument("--seed", type=int, default=0)
        if fit:
            sp.add_argument("--budget", type=int, default=200_000)

    def scale(sp):
        sp.add_argument("--t", type=int, default=1)
        sp.add_argument("--r", type=int)

    sp = sub.add_parser("gen", help="write a generated graph or instance")
    sp.add_argument("kind", choices=GENERATORS)
    sp.add_argument("params", type=int, nargs="*")
    common(sp, needs_input=False, seed=True)

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
    scale(sp)
    common(sp, fit=True)

    sp = sub.add_parser("coarse-check", help="parameter report and lemma sweeps")
    sp.add_argument("--sample", type=int)
    common(sp, fit=True)

    sp = sub.add_parser("deep-point", help="search one deep point")
    sp.add_argument("--from", dest="src", type=int, required=True)
    sp.add_argument("--to", dest="dst", type=int, required=True)
    scale(sp)
    common(sp, fit=True)

    return parser


def _check_args(args: argparse.Namespace) -> None:
    """The refusals of flag values that argparse does not make, in a
    fixed order; a command passes each check of a flag it lacks."""
    given = vars(args)
    if given.get("budget", 1) <= 0:
        raise ValueError("budget must be positive")
    if min(given.get("n_list", []) + given.get("m_list", []), default=1) < 1:
        raise ValueError("--n and --m entries must be at least 1")
    if given.get("n_list") == []:
        raise ValueError("--n must list at least 1 level")
    if given.get("sample") is not None and args.sample <= 0:
        raise ValueError("sample must be positive")
    if given.get("t", 1) < 1:
        raise ValueError(f"--t {args.t} is below 1")
    if given.get("r") is not None and args.r < 1:
        raise ValueError(f"--r {args.r} is below 1")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call of ``main``."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        _check_args(args)
        return HANDLERS[args.command](args)
    except MedianCertError as exc:
        sys.stdout.write(_dump(exc.report()))
        return 1
    except (ValueError, OSError) as exc:
        sys.stdout.write(_dump({"error": "invalid-input", "message": str(exc)}))
        return 1


if __name__ == "__main__":
    sys.exit(main())
