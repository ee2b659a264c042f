"""Smoke test of the benchmark itself, on tiny inputs (about a minute).

    python3 perfbench/smoke.py

Runs every workload at --scale tiny with tracing off and on.  Checks that
each run is correct, that the last line names exactly the metrics of
BENCHMARK.json, that result.json names all six end-to-end metrics, and
that the modules' self times add up to the traced job time.  Then checks
that the benchmark fails, printing no result, in a copy that holds only
BENCHMARK.json and perfbench/.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

from tracer import MODULES

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
E2E = ("setup_s", "wall_s", "job_p50_s", "job_tail_s", "peak_rss_mb", "failed_frac")


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--scale", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for wl in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = _run(ROOT, wl, trace)
            if proc.returncode != 0:
                problems.append(f"{wl} trace {trace}: exit {proc.returncode}\n{proc.stderr}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{wl} trace {trace}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{wl} trace {trace}: {proc.stdout}")
            if set(result["metrics"]) != {m["name"] for m in spec[key]}:
                problems.append(f"{wl} trace {trace}: metric names differ from BENCHMARK.json")
            run_dir = BENCH / "out" / f"{wl}-seed3-tiny{'-trace' if trace else ''}"
            detail = json.loads((run_dir / "result.json").read_text())
            missing = set(E2E) - set(detail["end_to_end"])
            if missing:
                problems.append(f"{wl} trace {trace}: result.json lacks {sorted(missing)}")
            if trace:
                m = {k: v["value"] for k, v in result["metrics"].items()}
                modules = sum(m[f"{mod}.self_s"] for mod in MODULES)
                if abs(m["trace.job_s"] - modules) > 0.01 * m["trace.job_s"] + 0.005:
                    problems.append(f"{wl}: module self times {modules} != job time {m['trace.job_s']}")
                if not (run_dir / "spans.jsonl").stat().st_size:
                    problems.append(f"{wl}: empty spans.jsonl")

    bare = BENCH / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = _run(bare, spec["workloads"][0]["name"], 0)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        problems.append(f"bare copy: exit {proc.returncode}, stdout {proc.stdout!r}")
    shutil.rmtree(bare)

    for p in problems:
        print("FAIL", p)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
