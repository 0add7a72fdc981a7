"""Steadiness of the benchmark: one workload over several seeds.

    python3 perfbench/repeat.py --workload owe-complex --seeds 1-10 --seconds 35
    python3 perfbench/repeat.py --workload owe-complex --seeds 1-10 --second-seeds 11-20 \
        --seconds 35

Runs ``run.py`` once per seed and reports, for each metric, the median, the
first and third quartiles (``statistics.quantiles(values, n=4)``) and the
spread (q3 - q1) / median next to the metric's bound in BENCHMARK.json. A
spread above the bound fails the benchmark; the aim is a spread below a
third of the bound, and a spread at or above that is flagged.

With ``--second-seeds`` a second set of runs of the same code is made, its
seeds alternated with the first set's (A, B, A, B, ...) so that the host's
drift over the session falls on both sets alike. It then reports how far
each median of the second set is worse than the first's, next to the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(args, seed: int) -> dict | None:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
        return None
    result = json.loads(lines[-1])
    print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/{result['attempted']}",
          flush=True)
    return {"seed": seed, **result}


def summarise(title: str, runs: list[dict], spec: dict) -> dict:
    values: dict[str, list[float]] = {}
    for run in runs:
        for name, metric in run["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    print(f"{title}\n{'metric':48s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
    summary = {}
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = spec.get(name, {}).get("bound")
        line = f"{name:48s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.3f}"
        if bound is not None:
            line += f" {bound:6.3f}"
            if spread >= bound / 3:
                line += "  spread > bound" if spread > bound else "  spread >= bound/3"
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": vals}
        print(line)
    return summary


def compare(first: dict, second: dict, spec: dict) -> dict[str, float]:
    print("second set against the first (positive = worse)")
    worse_by = {}
    for name, row in second.items():
        base = first.get(name, {}).get("median")
        if not base:
            continue
        sign = 1 if spec.get(name, {}).get("better") == "lower" else -1
        worse = sign * (row["median"] - base) / base
        bound = spec.get(name, {}).get("bound")
        flag = " EXCEEDS BOUND" if bound is not None and worse > bound else ""
        print(f"{name:48s} {worse:+8.3f}" + (f" {bound:6.3f}" if bound is not None else "") + flag)
        worse_by[name] = worse
    return worse_by


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--second-seeds", help="a second set, alternated with the first")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    spec = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    sets = [parse_seeds(args.seeds)]
    if args.second_seeds:
        sets.append(parse_seeds(args.second_seeds))
        if len(sets[1]) != len(sets[0]):
            parser.error("--seeds and --second-seeds must name as many seeds")
    runs: list[list[dict]] = [[] for _ in sets]
    for i in range(len(sets[0])):
        for k, seeds in enumerate(sets):
            result = run_once(args, seeds[i])
            if result is None:
                return 1
            runs[k].append(result)

    summaries = [summarise(f"set {k + 1}: seeds {s}", r, spec)
                 for k, (s, r) in enumerate(zip(sets, runs))]
    record = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              "sets": [{"seeds": s, "runs": r, "summary": m} for s, r, m in zip(sets, runs, summaries)]}
    if len(summaries) == 2:
        record["second_worse_by"] = compare(summaries[0], summaries[1], spec)

    out_dir = ROOT / ".perfbench" / "repeat"
    out_dir.mkdir(parents=True, exist_ok=True)
    tag = "_".join(x.replace(",", "_") for x in (args.seeds, args.second_seeds) if x)
    out = out_dir / f"{args.workload}-trace{args.trace}-seeds{tag}.json"
    out.write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(f"summary written to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
