"""Smoke check of the benchmark's output schema at tiny scale; no timing bounds.

    python3 perfbench/smoke.py

For every workload and both trace modes, runs ``run.py --scale tiny`` and
checks that the last stdout line is one JSON object with exactly the keys
correct/attempted/failed/metrics, that its metrics are exactly the
BENCHMARK.json end_to_end (trace 0) or per_layer (trace 1) list with the
same units, and that every value is a finite number. Quality checks are not
required to pass: models trained on tiny inputs may lose to the random-head
baseline. It also checks that ``run.py`` fails without printing
a result in a directory holding only BENCHMARK.json and the benchmark.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def check_run(workload: str, trace: int, bench: dict) -> list[str]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    where = f"{workload} trace={trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr[-1000:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: keys {sorted(result)}")
    attempted, failed = result.get("attempted"), result.get("failed")
    if not (isinstance(attempted, int) and isinstance(failed, int) and 0 <= failed <= attempted
            and attempted >= 1 and isinstance(result.get("correct"), bool)):
        errors.append(f"{where}: correct={result.get('correct')} attempted={attempted} failed={failed}")
    want = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
    if got != want:
        errors.append(f"{where}: metric names/units differ: missing {sorted(set(want) - set(got))}, "
                      f"extra {sorted(set(got) - set(want))}, "
                      f"units {[k for k in want if k in got and got[k] != want[k]]}")
    for name, metric in result.get("metrics", {}).items():
        value = metric.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append(f"{where}: {name} = {value!r}")
    return errors


def check_bare_directory() -> list[str]:
    bare = ROOT / ".perfbench" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = subprocess.run(
            [sys.executable, str(bare / HERE.name / "run.py"), "--workload", "owe-complex",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    errors = check_bare_directory()
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            errors += check_run(workload, trace, bench)
            print(f"{workload} trace={trace} done", flush=True)
    for error in errors:
        print("FAIL", error)
    print("smoke: ok" if not errors else f"smoke: {len(errors)} failures")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
