"""mediancert benchmark: README commands run in process on generated inputs.

    python3 perfbench/run.py --workload propa-cat0 --seed 0 --seconds 30 --trace 0

Run from the repository root.  One closed-loop caller in one process:
each job is one `mediancert.harness_cli.main(argv)` call that starts
when the previous one has ended; no threads, no job subprocesses.

The workload's job list (perfbench/workloads.py) is built from --seed.
A pass runs the whole list once; passes repeat while another one still
fits in --seconds, and at least one runs.  Every job's exit code and
output are checked, and its output digest is kept.

With --trace 0 the last stdout line holds the end-to-end metrics named
in BENCHMARK.json.  With --trace 1 one untraced pass is followed by one
pass with spans around the package's public calls (perfbench/tracer.py),
and the last line holds the per-layer metrics.  Details (environment,
per-job digests, setup samples, the tail percentile) go to
perfbench/out/<workload>-seed<seed>[-trace]/result.json, and spans to
spans.jsonl next to it.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
OUT = BENCH / "out"
SRC = ROOT / "src"
SETUP_SAMPLES = 3
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _pin_environment() -> dict:
    """Unset MEDIANCERT_THREADS and keep BLAS thread counts at or below
    nproc; must run before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    record = {"nproc": nproc,
              "MEDIANCERT_THREADS_was": os.environ.pop("MEDIANCERT_THREADS", None)}
    for var in BLAS_VARS:
        raw = os.environ.get(var)
        if raw is not None and (not raw.isdigit() or int(raw) > nproc):
            os.environ[var] = str(nproc)
        record[var] = os.environ.get(var)
    return record


def _steal_ticks() -> int:
    with open("/proc/stat") as fh:
        fields = fh.readline().split()
    return int(fields[8]) if len(fields) > 8 else 0


def _cpu_model() -> str | None:
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return None


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_s() -> float:
    t = os.times()
    return t.user + t.system


# -- set-up --------------------------------------------------------------


def _setup_child(args) -> int:
    """Import the package and write the workload's inputs with `gen`."""
    import workloads
    from mediancert import harness_cli

    wl = workloads.build(args.workload, args.seed, args.scale == "tiny")
    os.chdir(args.workdir)
    for spec in wl.inputs:
        with contextlib.redirect_stdout(io.StringIO()):
            if harness_cli.main(spec.gen) != 0:
                return 1
    print("ready", flush=True)
    return 0


def _time_setup(args, workdir: Path) -> list[float]:
    """Wall time from starting a fresh interpreter until the inputs are
    written, SETUP_SAMPLES times; the last child's files are used."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed),
           "--scale", args.scale, "--workdir", str(workdir)]
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - t0)
            proc.stdout.read()
            proc.wait(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up failed with exit code {proc.returncode}")
    return samples


# -- jobs ----------------------------------------------------------------


def _run_job(cli, job, expected: dict, seen: dict) -> dict:
    for name in job.outputs:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(name)
    buf = io.StringIO()
    error = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(job.argv)
    except SystemExit as exc:
        rc, error = exc.code, "argument error"
    except Exception:  # a traceback is a failed job, not a crashed benchmark
        rc, error = None, traceback.format_exc(limit=-3)
    wall = time.perf_counter() - t0
    stdout = buf.getvalue()
    files = {}
    for name in job.outputs:
        with contextlib.suppress(FileNotFoundError), open(name, "rb") as fh:
            files[name] = fh.read()
    digest = hashlib.sha256(stdout.encode())
    for name in job.outputs:
        digest.update(b"\0" + name.encode() + b"\0" + files.get(name, b""))
    digest = digest.hexdigest()
    key = " ".join(job.argv)
    if error is None and rc != 0:
        error = f"exit code {rc}"
    if error is None:
        try:
            error = job.check(stdout, files)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            error = f"unreadable output: {exc!r}"
    if error is None and expected and expected.get(key) != digest:
        error = "output digest differs from digests-seed0.json"
    if error is None and seen.setdefault(key, digest) != digest:
        error = "output differs between passes"
    return {"job": job.name, "argv": job.argv, "rc": rc, "wall_s": wall, "digest": digest,
            "output_bytes": len(stdout.encode()) + sum(map(len, files.values())),
            "error": error}


def _run_pass(cli, jobs, expected, seen, tracer=None) -> list[dict]:
    results = []
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = i
        results.append(_run_job(cli, job, expected, seen))
    return results


def _tail(walls: list[float]) -> tuple[float, float]:
    """Value at the highest percentile with at least 10 jobs beyond it,
    and that percentile; the maximum when there are 10 jobs or fewer."""
    ordered = sorted(walls)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


# -- metrics -------------------------------------------------------------


def _layer_metrics(tracer, traced: list[dict], untraced: list[dict], cpu_s: float) -> dict:
    """Every per-layer value the traced pass yields, by metric name."""
    values = dict(tracer.counts)
    for name in tracer.names:
        calls, s, own = tracer.stats.get(name, (0, 0.0, 0.0))
        values.update({f"{name}.calls": calls, f"{name}.s": s, f"{name}.self_s": own})
    for module, busy in tracer.module_busy.items():
        values[f"{module}.busy_s"] = busy
        values[f"{module}.self_s"] = tracer.module_self[module]
    job_s = sum(r["wall_s"] for r in traced)
    values["trace.job_s"] = job_s
    values["trace.unattributed_s"] = job_s - sum(tracer.module_self.values())
    values["trace.overhead_s"] = job_s - sum(r["wall_s"] for r in untraced)
    values["harness_cli.output_bytes"] = sum(r["output_bytes"] for r in traced)
    values["process.cpu_s"] = cpu_s
    return values


def _pick(values: dict, specs: list[dict]) -> dict:
    missing = [s["name"] for s in specs if s["name"] not in values]
    if missing:
        raise KeyError(f"metrics not computed: {missing}")
    return {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny swaps every input for a small one (smoke test)")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "mediancert" / "harness_cli.py").is_file():
        print(f"error: no mediancert sources under {SRC}", file=sys.stderr)
        return 2
    env = _pin_environment()
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    if args.setup_only:
        return _setup_child(args)

    tiny = args.scale == "tiny"
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    run_dir = OUT / (f"{args.workload}-seed{args.seed}" + ("-tiny" if tiny else "")
                     + ("-trace" if args.trace else ""))
    shutil.rmtree(run_dir, ignore_errors=True)
    work = run_dir / "work"
    work.mkdir(parents=True)

    setup = _time_setup(args, work)
    import numpy
    import scipy
    from mediancert import harness_cli

    env.update({
        "cpu_model": _cpu_model(), "python": sys.version.split()[0],
        "numpy": numpy.__version__, "scipy": scipy.__version__, "commit": _git_commit(),
    })
    expected = {}
    if args.seed == 0 and not tiny:
        expected = json.loads((BENCH / "digests-seed0.json").read_text())[args.workload]
    jobs = workloads.build(args.workload, args.seed, tiny).jobs
    seen: dict[str, str] = {}
    home = os.getcwd()
    os.chdir(work)
    try:
        steal0 = _steal_ticks()
        start = time.perf_counter()
        passes, cpu = [], []
        while True:
            c0 = _cpu_s()
            p0 = time.perf_counter()
            passes.append(_run_pass(harness_cli, jobs, expected, seen))
            cpu.append(_cpu_s() - c0)
            pass_s = time.perf_counter() - p0
            if args.trace or time.perf_counter() - start + pass_s > args.seconds:
                break
        traced = None
        if args.trace:
            from tracer import Tracer

            tr = Tracer()
            tr.install()
            try:
                traced = _run_pass(harness_cli, jobs, expected, seen, tracer=tr)
            finally:
                tr.uninstall()
            tr.write_jsonl(run_dir / "spans.jsonl")
        steal1 = _steal_ticks()
    finally:
        os.chdir(home)
    shutil.rmtree(work, ignore_errors=True)

    results = [r for p in passes for r in p] + (traced or [])
    failed = sum(r["error"] is not None for r in results)
    walls = [r["wall_s"] for p in passes for r in p]
    tail, tail_pct = _tail(walls)
    e2e = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(sum(r["wall_s"] for r in p) for p in passes),
        "job_p50_s": statistics.median(walls),
        "job_tail_s": tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "failed_frac": failed / len(results),
    }
    env["steal_ticks"] = [steal0, steal1]
    detail = {
        "workload": args.workload, "seed": args.seed, "scale": args.scale,
        "seconds": args.seconds, "environment": env, "setup_samples_s": setup,
        "passes": len(passes), "jobs_per_pass": len(jobs),
        "job_tail": {"percentile": tail_pct, "jobs": len(walls)},
        "end_to_end": e2e, "jobs": passes[0],
        "failures": [r for r in results if r["error"] is not None],
    }
    if traced is not None:
        layers = _layer_metrics(tr, traced, passes[0], cpu[0])
        detail["per_layer"] = layers
        metrics = _pick(layers, spec["per_layer"])
    else:
        metrics = _pick(e2e, spec["end_to_end"])
    (run_dir / "result.json").write_text(json.dumps(detail, indent=1) + "\n")

    for r in detail["failures"]:
        print(f"FAILED {r['job']}: {r['error']}")
    print(f"{args.workload} seed {args.seed}: {len(passes)} pass(es) of {len(jobs)} jobs, "
          f"job_tail_s is p{tail_pct:.1f} of {len(walls)} jobs, "
          f"steal ticks {steal1 - steal0}, details in {run_dir.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": len(results), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
