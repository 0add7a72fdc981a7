"""owlink benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload owe-complex --seed 1 --seconds 35 --trace 0

Run from the root of an owlink checkout (the one holding ``src/owlink``).
Inputs are generated from ``--seed`` and cached under ``.perfbench/``.
Each owlink command runs as its own child process; the whole pipeline is
repeated until ``--seconds`` is used up, and each timing is the median over
those passes. With ``--trace 0`` the last stdout line holds the end-to-end
metrics; with ``--trace 1`` it holds the per-layer metrics of traced passes,
alternated with untraced ones to report the tracing overhead. A result and
provenance record is also written to ``.perfbench/results/``.
"""

from __future__ import annotations

import os

THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_PINS)  # before numpy loads, for the checks run here

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import gen  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"
LAUNCHED = time.perf_counter()
COMMAND_DEADLINE_S = 150.0  # a run must end within 180 s; the checks need the rest
RERANK_SAMPLE = 12
BASELINE_TRIPLES = 100


class Run:
    """One benchmark run: the workload, its inputs and the passes made."""

    def __init__(self, args) -> None:
        self.args = args
        self.workload = args.workload
        self.spec = workloads.spec_for(args.workload, args.scale)
        self.inputs, self.input_record = self._inputs()
        self.work = STATE / "runs" / f"{args.workload}-{args.scale}-trace{args.trace}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.passes: list[dict] = []
        self.checks: list[tuple[str, bool, str]] = []
        self.kernel = layers.kernel_cost(None)

    def _inputs(self) -> tuple[Path, dict]:
        base = STATE / "inputs"
        spec_id = hashlib.sha256(json.dumps(self.spec, sort_keys=True).encode()).hexdigest()[:10]
        key = f"{self.workload}-{self.args.scale}-{spec_id}"
        target = base / f"{key}-{self.args.seed}"
        record = target / "inputs.json"
        if not record.is_file():
            for old in base.glob(f"{self.workload}-{self.args.scale}-*"):  # one input set per workload
                shutil.rmtree(old)
            staging = base / f"{key}-{self.args.seed}.partial"
            shutil.rmtree(staging, ignore_errors=True)
            gen.generate(self.spec, self.args.seed, staging)
            staging.rename(target)
        return target, json.loads(record.read_text(encoding="utf-8"))

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))

    def run_command(self, cmd, pass_dir: Path, traced: bool) -> dict:
        rec_dir = pass_dir / "_records" / cmd.label
        rec_dir.mkdir(parents=True)
        argv = [sys.executable, str(HERE / "child.py"), str(rec_dir), str(int(traced)), "--", *cmd.argv]
        remaining = COMMAND_DEADLINE_S - (time.perf_counter() - LAUNCHED)
        with open(rec_dir / "stdout.txt", "w") as out, open(rec_dir / "stderr.txt", "w") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, env=self.env, cwd=ROOT, stdout=out, stderr=err)
            # A blocking wait: Popen.wait(timeout) polls every 50 ms, which
            # would quantise every command's wall time.
            killer = threading.Timer(max(remaining, 1.0), proc.kill)
            killer.start()
            try:
                rc = proc.wait()
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        record_path = rec_dir / "record.json"
        record = json.loads(record_path.read_text(encoding="utf-8")) if record_path.is_file() else None
        spans_data = None
        if record is not None:
            with np.load(rec_dir / "spans.npz") as data:
                spans_data = {k: data[k] for k in data.files}
        out_dir = Path(cmd.argv[cmd.argv.index("--out") + 1])
        return {"cmd": cmd, "wall": wall, "rc": rc, "record": record, "spans": spans_data,
                "out": out_dir, "stderr": rec_dir / "stderr.txt"}

    def run_pass(self, traced: bool) -> dict:
        pass_dir = self.work / f"pass{len(self.passes)}"
        steps = workloads.pipeline(self.workload, self.spec, self.inputs, pass_dir)
        planned = [s for s in steps if isinstance(s, workloads.Command)]
        done: list[dict] = []
        for step in steps:
            if isinstance(step, workloads.Cut):
                step.apply()
                continue
            result = self.run_command(step, pass_dir, traced)
            done.append(result)
            if result["rc"] != 0:
                break
        complete = len(done) == len(planned) and done[-1]["rc"] == 0
        record = {"traced": traced, "dir": pass_dir, "commands": done, "planned": planned,
                  "complete": complete}
        self.passes.append(record)
        self._check_pass(record)
        return record

    def check_report_rows(self, name: str, res: dict) -> None:
        test = Path(res["cmd"].argv[res["cmd"].argv.index("--test") + 1])
        rows = len(checks.read_report(res["out"] / "report.tsv"))
        want = len(checks.read_triples(test))
        self.check(name, rows == want, f"{rows} rows, {want} triples")

    def _check_pass(self, p: dict) -> None:
        k = len(self.passes) - 1
        for i, cmd in enumerate(p["planned"]):
            res = p["commands"][i] if i < len(p["commands"]) else None
            ok = res is not None and res["rc"] == 0 and res["record"] is not None
            detail = "" if ok else ("not run" if res is None else
                                    res["stderr"].read_text(encoding="utf-8")[-500:])
            self.check(f"pass{k}:{cmd.label}:exit0", ok, detail)
        if not p["complete"]:
            return
        for res in p["commands"]:
            cmd = res["cmd"]
            if cmd.argv[0] == "eval":
                self.check_report_rows(f"pass{k}:{cmd.label}:report_rows", res)
            res["digest"] = _digest(res["out"], cmd.outputs)
            if k > 0:
                first = self.passes[0]["commands"]
                same = [r for r in first if r["cmd"].label == cmd.label]
                self.check(f"pass{k}:{cmd.label}:same_outputs_as_pass0",
                           bool(same) and same[0].get("digest") == res["digest"])

    def run_passes(self) -> None:
        # Compile owlink's bytecode and warm the file cache before timing.
        subprocess.run([sys.executable, "-c", "import owlink.cli"], env=self.env, cwd=ROOT)
        self.started = time.perf_counter()
        trace = self.args.trace == 1
        while True:
            traced = trace and len(self.passes) % 2 == 1
            if not self.run_pass(traced)["complete"]:
                break
            elapsed = time.perf_counter() - self.started
            per_pass = elapsed / len(self.passes)
            enough = len(self.passes) >= (2 if trace else 1)
            if enough and elapsed + per_pass > self.args.seconds:
                break

    def ok_passes(self) -> list[dict]:
        return [p for p in self.passes if p["complete"]]


def _digest(out_dir: Path, names: tuple[str, ...]) -> str:
    h = hashlib.sha256()
    for name in names:
        h.update((out_dir / name).read_bytes())
    return h.hexdigest()


def _rerank_check(run: Run, name: str, ranker, ranked: list, direction: str,
                  target_filtering: bool = False) -> None:
    """``ranked`` holds ((head, rel, tail) names, owlink's filtered rank) pairs."""
    mismatched = [f"{triple}: owlink {got}, brute force {want}" for triple, got in ranked
                  if (want := ranker.rank(triple, direction, target_filtering)) != got]
    run.check(name, bool(ranked) and not mismatched,
              "; ".join(mismatched[:3]) or f"{len(ranked)} re-ranked")


def _baseline_check(run: Run, mrr: float, kgc, graph, config) -> None:
    from owlink.evaluation import random_head_baseline

    baseline = random_head_baseline(kgc, graph, config, seed=run.args.seed,
                                    triples=graph.test[:BASELINE_TRIPLES])
    run.check("mrr_beats_random_head_baseline", mrr > baseline.mrr_filtered,
              f"{mrr:.4f} vs {baseline.mrr_filtered:.4f}")


def _arg(argv: list[str], flag: str) -> str | None:
    return argv[argv.index(flag) + 1] if flag in argv else None


def _eval_rerank(run: Run, res: dict, direction: str, kgc, target_filtering: bool):
    """Brute-force re-rank a fixed sample of an ``eval`` command's report rows;
    returns the graph it ranked on and the command's summary."""
    from owlink import graph as graphmod, mapping, text

    argv = res["cmd"].argv
    files = [Path(p) for p in (_arg(argv, "--train"), _arg(argv, "--valid"), _arg(argv, "--test"))
             if p is not None]
    graph = graphmod.load_graph(str(files[0]), _arg(argv, "--valid"), _arg(argv, "--test"),
                                open_world=True)
    map_model = raw_meta = store = None
    if "--map-checkpoint" in argv:
        map_model = mapping.load_map(_arg(argv, "--map-checkpoint"))
        raw_meta = graphmod.load_entity_text(_arg(argv, "--metadata"))
        store = text.load_word_embeddings(_arg(argv, "--embeddings"))
    rows = [r for r in checks.read_report(res["out"] / "report.tsv") if not r["skipped_reason"]]
    ranked = [((r["head"], r["rel"], r["tail"]), int(r["filtered_rank"]))
              for r in checks.sample_rows(rows, RERANK_SAMPLE, run.args.seed)]
    ranker = checks.BruteForceRanker(graph, kgc, files, map_model, raw_meta, store)
    _rerank_check(run, f"{res['cmd'].label}:brute_force_rerank", ranker, ranked, direction,
                  target_filtering)
    return graph, checks.read_summary(res["out"] / "summary.txt")


def run_output_checks(run: Run) -> dict[str, float]:
    """Once-per-run checks on the first pass; returns the final ranking's quality."""
    sys.path.insert(0, str(ROOT / "src"))
    from owlink import evaluation, models

    first = run.ok_passes()[0]
    by_label = {r["cmd"].label: r for r in first["commands"]}
    split = first["dir"] / "split"
    if "sample-owe" in by_label:
        violations = checks.split_is_valid(split)
        run.check("sampler.validate_split", not violations, "; ".join(violations[:3]))

    kgc = models.load_checkpoint(str(first["dir"] / "kgc" / "kgc.ckpt"))
    run.kernel = layers.kernel_cost((kgc.family, kgc.embeddings.num_entities, kgc.embeddings.dim))

    # Untimed commands whose output is re-ranked (see workloads.check_pipeline).
    for cmd in workloads.check_pipeline(run.workload, run.spec, run.inputs, first["dir"]):
        res = run.run_command(cmd, first["dir"] / "check", traced=False)
        ok = res["rc"] == 0 and res["record"] is not None
        run.check(f"{cmd.label}:exit0", ok, "" if ok else res["stderr"].read_text(encoding="utf-8")[-500:])
        if not ok:
            return {}
        if cmd.argv[0] == "eval":
            run.check_report_rows(f"{cmd.label}:report_rows", res)
        by_label[cmd.label] = res

    quality = {}
    if "robustness" in by_label:
        sweep = checks.read_report(by_label["robustness"]["out"] / "robustness.tsv")
        trained = [r for r in sweep if r["mode"] != "random-head-baseline"]
        want_rows = len(run.spec["run"]["fractions"].split(",")) * 2
        run.check("robustness:sweep_rows", len(trained) == want_rows, f"{len(trained)} rows")
        # a row where every query was skipped has no ranking to average
        ranked = [r for r in trained if r["mrr_filtered"] != "nan"]
        quality = {
            "mrr_filtered": statistics.fmean(float(r["mrr_filtered"]) for r in ranked),
            "hits_10": statistics.fmean(float(r["hits_10"]) for r in ranked),
        }
        res = by_label["check-eval-tail"]
        graph, _ = _eval_rerank(run, res, "tail", kgc, target_filtering=True)
        _baseline_check(run, quality["mrr_filtered"], kgc, graph,
                        evaluation.EvalConfig(target_filtering=True))
        return quality

    for label, direction in (("eval-tail", "tail"), ("eval-head", "head")):
        if label not in by_label:
            continue
        graph, summary = _eval_rerank(run, by_label[label], direction, kgc, target_filtering=False)
        if direction == "tail":
            quality = {"mrr_filtered": summary["mrr_filtered"], "hits_10": summary["hits_10"]}
            _baseline_check(run, quality["mrr_filtered"], kgc, graph, evaluation.EvalConfig())
    return quality


def end_to_end(run: Run, traced: bool = False) -> dict[str, tuple[float, str]]:
    per_pass = [layers.pass_e2e(p["commands"]) for p in run.ok_passes() if p["traced"] == traced]
    return {name: (statistics.median(v[name] for v in per_pass), unit)
            for name, unit in layers.E2E_TIMINGS}


def provenance(run: Run) -> dict:
    cpu_model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = "unknown"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version", "unknown")
    except (TypeError, KeyError):
        pass
    commit = "unavailable (checkout is not a git repository)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    return {
        "machine": {
            "cores": os.cpu_count(),
            "cpu_model": cpu_model,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "openblas": blas,
            "thread_pins": {k: os.environ.get(k) for k in THREAD_PINS},
        },
        "git_commit": commit,
        "workload": run.workload,
        "scale": run.args.scale,
        "seed": run.args.seed,
        "inputs": run.input_record,
        "scoring_kernel": run.kernel,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("bench", "tiny"), default="bench",
                        help="tiny: seconds-long smoke runs; checks the output schema only")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "owlink" / "cli.py").is_file():
        print(f"perfbench: no owlink sources under {ROOT / 'src'}; run from an owlink checkout",
              file=sys.stderr)
        return 2

    run = Run(args)
    run.run_passes()
    quality = run_output_checks(run) if run.ok_passes() else {}
    failed = sum(1 for _, ok, _ in run.checks if not ok)
    for name, ok, detail in run.checks:
        if not ok:
            print(f"FAILED {name}: {detail}")
    if not quality or not any(not p["traced"] for p in run.ok_passes()):
        print("perfbench: no complete untraced pass; no metrics", file=sys.stderr)
        return 1

    metrics = end_to_end(run)
    if args.trace:
        untraced_total = metrics["total_s"][0]
        traced = [layers.pass_layers(p["commands"], run.kernel) for p in run.ok_passes() if p["traced"]]
        metrics = {name: (statistics.median(m[name][0] for m in traced), traced[0][name][1])
                   for name in traced[0]}
        # Final-ranking quality is fixed by the seed, so it carries no timing noise.
        metrics["quality.mrr_filtered"] = (quality["mrr_filtered"], "ratio")
        metrics["quality.hits_10"] = (quality["hits_10"], "ratio")
        overhead = end_to_end(run, traced=True)["total_s"][0] - untraced_total
        metrics["trace.overhead_s"] = (overhead, "s")
        metrics["trace.overhead_frac"] = (overhead / untraced_total, "ratio")

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "quality": quality,
        "passes": [{"traced": p["traced"], **layers.pass_e2e(p["commands"]),
                    "commands": {r["cmd"].label: r["wall"] for r in p["commands"]}}
                   for p in run.ok_passes()],
        "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in run.checks],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "provenance": provenance(run),
    }
    results = STATE / "results"
    results.mkdir(parents=True, exist_ok=True)
    result_path = results / f"{args.workload}-{args.scale}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=1), encoding="utf-8")

    print(f"{args.workload} seed={args.seed} passes={len(run.ok_passes())} record={result_path}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:48s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(run.checks),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
