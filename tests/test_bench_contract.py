"""The benchmark patches owlink functions by name (perfbench/spans.py) and
drives the CLI with fixed command lines (perfbench/workloads.py).

A rename in owlink, or a flag the CLI no longer takes, would make benchmark
child processes fail; these tests make it fail here instead. The benchmark's
setup_s is the loader time before a command's first call in spans.WORK; one
test checks that an eval command runs all its loaders, the filter index
included, before it ranks, and ranks without a score_all_* call. The last
test runs a traced benchmark child, whose counters read each ranked
report's rows.
"""

import importlib
import importlib.util
import json
import logging
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from owlink.cli import build_parser, main
from test_cli import assets, golden_commands  # noqa: F401  (assets is a fixture)

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


SPANS = load_perfbench("spans")
WORKLOADS = load_perfbench("workloads")


@pytest.mark.parametrize("qualname", sorted(set(SPANS.LOADERS + SPANS.WORK + SPANS.TRACED)))
def test_traced_name_resolves(qualname):
    layer, *path = qualname.split(".")
    owner = importlib.import_module(f"owlink.{layer}")
    for attr in path:
        assert hasattr(owner, attr), f"{qualname}: owlink.{layer} has no {'.'.join(path)}"
        owner = getattr(owner, attr)
    assert callable(owner)


@pytest.mark.parametrize("scale", ["bench", "tiny"])
@pytest.mark.parametrize("workload", WORKLOADS.WORKLOADS)
def test_benchmark_command_lines_parse(workload, scale):
    spec = WORKLOADS.spec_for(workload, scale)
    inputs, work = Path("inputs"), Path("work")
    steps = (WORKLOADS.pipeline(workload, spec, inputs, work)
             + WORKLOADS.check_pipeline(workload, spec, inputs, work))
    commands = [step for step in steps if isinstance(step, WORKLOADS.Command)]
    assert commands
    parser = build_parser()
    for command in commands:
        args = parser.parse_args(command.argv)
        assert args.command == command.argv[0]


def record_calls(monkeypatch, qualnames, calls):
    """Append each named ``layer.function``'s name to ``calls`` when it is
    called, through every loaded owlink module that refers to it."""
    modules = [m for k, m in sys.modules.items() if k == "owlink" or k.startswith("owlink.")]
    for qualname in qualnames:
        layer, name = qualname.split(".")
        original = getattr(importlib.import_module(f"owlink.{layer}"), name)

        def wrapper(*args, _qualname=qualname, _original=original, **kwargs):
            calls.append(_qualname)
            return _original(*args, **kwargs)

        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, wrapper)


@pytest.mark.parametrize("direction", ["tail", "head"])
def test_eval_loads_filter_index_before_scoring(assets, direction, monkeypatch, capsys):
    commands = golden_commands(assets)
    for name in ("train-kgc", "train-map"):
        assert main([str(a) for a in commands[name]]) == 0, capsys.readouterr().err
    calls: list[str] = []
    record_calls(monkeypatch, SPANS.LOADERS + SPANS.WORK + ("models.better_or_tied",), calls)
    argv = [str(a) for a in commands["eval"]] + ["--direction", direction]
    assert main(argv) == 0, capsys.readouterr().err

    # ranking goes through models.better_or_tied, which is no spans.WORK
    # stage: every loader eval runs comes before it, and no score_all_* call
    assert calls.index("models.better_or_tied") > calls.index("graph.build_filter_index")
    assert set(calls[calls.index("models.better_or_tied"):]) == {"models.better_or_tied"}
    assert not set(calls) & set(SPANS.WORK)
    summary = (assets / "eval" / "summary.txt").read_text()
    assert int(summary.split("evaluated=")[1].split()[0]) > 0


# Graph internals the benchmark reads: perfbench/child.py parses the
# duplicate warning, perfbench/spans.py sizes the filter index, and
# perfbench/checks.py and run.py call the sampler and the baseline.

CHECKS = load_perfbench("checks")


def test_duplicate_warning_carries_the_count(tmp_path, caplog):
    from helpers import write_triples
    from owlink.graph import load_graph

    write_triples(tmp_path / "train.txt", [("a", "r", "b"), ("a", "r", "b"), ("b", "r", "a"),
                                           ("b", "r", "a"), ("a", "r", "b")])
    with caplog.at_level(logging.WARNING, logger="owlink.graph"):
        load_graph(str(tmp_path / "train.txt"))
    (record,) = caplog.records
    assert record.msg == "%s: dropped %d duplicate triples in %s split"
    assert "duplicate triples" in record.msg and record.args[1] == 3
    assert record.getMessage().endswith("dropped 3 duplicate triples in train split")


def test_filter_index_holds_one_sized_set_per_queried_key(assets):
    from owlink.graph import build_filter_index, load_graph

    graph = load_graph(str(assets / "train.txt"), str(assets / "valid.txt"),
                       str(assets / "test.txt"), open_world=True)
    queried = [*graph.test, *graph.test[:1]]  # a repeated key counts once
    index = build_filter_index(graph, ("train", "valid", "test"), queried)
    assert len(index.true_tails) == len({(h, r) for h, r, _ in graph.test.tolist()})
    assert len(index.true_heads) == len({(r, t) for _, r, t in graph.test.tolist()})
    for h, r, t in graph.test.tolist():
        assert t in index.tails(h, r)
        assert h in index.heads(r, t)
    assert len(index.tails(10 ** 6, 0)) == 0 and len(index.heads(0, 10 ** 6)) == 0


def test_validate_split_accepts_split_rebuilt_from_files(assets, capsys):
    argv = ["sample-owe", "--train", assets / "train.txt", "--head-fraction", "0.25",
            "--seed", "2", "--out", assets / "owe"]
    assert main([str(a) for a in argv]) == 0, capsys.readouterr().err
    assert CHECKS.split_is_valid(assets / "owe") == []


def test_validate_split_flags_open_entity_put_back_in_train(assets, capsys):
    argv = golden_commands(assets)["sample-owe"]
    assert main([str(a) for a in argv]) == 0, capsys.readouterr().err
    split = assets / "owe"
    opened = (split / "open_entities.txt").read_text().split()[0]
    with open(split / "train.txt", "a", encoding="utf-8") as fh:
        fh.write(f"{opened}\tnext\te0\n")
    violations = CHECKS.split_is_valid(split)
    assert any("occurs in train" in v for v in violations), violations


def test_random_head_baseline_on_a_slice_of_test(assets, capsys):
    from test_cli import train_kgc

    from owlink.evaluation import EvalConfig, random_head_baseline
    from owlink.graph import load_graph
    from owlink.models import load_checkpoint

    assert train_kgc(assets, assets / "kgc") == 0, capsys.readouterr().err
    graph = load_graph(str(assets / "train.txt"), test_path=str(assets / "train.txt"))
    kgc = load_checkpoint(str(assets / "kgc" / "kgc.ckpt"))
    report = random_head_baseline(kgc, graph, EvalConfig(), seed=1, triples=graph.test[:5])
    assert report.results.triple.tolist() == graph.test[:5].tolist()
    assert report.evaluated_count == 5


def test_brute_force_ranker_reproduces_the_eval_report(assets, capsys):
    """The benchmark re-ranks eval rows with checks.BruteForceRanker, whose
    open queries go through the one-entity text path
    (mapping.mapped_entity_embedding on a store loaded without keys); it
    must give every filtered rank that eval's row CSR path wrote."""
    from owlink.graph import load_entity_text, load_graph
    from owlink.mapping import load_map
    from owlink.models import load_checkpoint
    from owlink.text import load_word_embeddings

    commands = golden_commands(assets)
    for name in ("train-kgc", "train-map", "eval"):
        assert main([str(a) for a in commands[name]]) == 0, capsys.readouterr().err
    files = [assets / "train.txt", assets / "valid.txt", assets / "test.txt"]
    graph = load_graph(*map(str, files), open_world=True)
    ranker = CHECKS.BruteForceRanker(
        graph, load_checkpoint(str(assets / "kgc" / "kgc.ckpt")), files,
        load_map(str(assets / "map" / "map.ckpt")), load_entity_text(str(assets / "metadata.tsv")),
        load_word_embeddings(str(assets / "vectors.txt")))
    rows = [r for r in CHECKS.read_report(assets / "eval" / "report.tsv")
            if not r["skipped_reason"]]
    assert any(graph.entities.get(r["head"]) is None for r in rows)  # an open query is ranked
    for r in rows:
        triple = (r["head"], r["rel"], r["tail"])
        assert ranker.rank(triple, "tail", False) == int(r["filtered_rank"]), triple


def run_traced_child(record_dir, argv):
    """perfbench/child.py with every traced function wrapped (--trace 1), in
    its own process; returns the exit code and record.json."""
    record_dir.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(PERFBENCH / "child.py"), str(record_dir), "1",
                           "--", *map(str, argv)], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads((record_dir / "record.json").read_text())


def test_traced_child_counts_match_the_eval_report(assets, capsys):
    """A --trace 1 benchmark run reads each ranked report's rows, skip flags
    and reasons (spans.finish_counters); its counts must be those of the
    report eval writes. The baseline and validation are not eval rankings:
    robustness counts only its sweep points' rows."""
    commands = golden_commands(assets)
    for name in ("train-kgc", "train-map"):
        assert main([str(a) for a in commands[name]]) == 0, capsys.readouterr().err
    # z0 has no metadata, and y1 is open: one row skipped for each reason
    skips = (assets / "test.txt").read_text() + "z0\tnext\te1\ne0\tskip\ty1\n"
    (assets / "skips.txt").write_text(skips)
    argv = commands["eval"] + ["--test", assets / "skips.txt"]
    record = run_traced_child(assets / "records" / "pass0" / "eval", argv)
    assert record["rc"] == 0
    rows = CHECKS.read_report(assets / "eval" / "report.tsv")
    reasons = Counter(r["skipped_reason"] for r in rows if r["skipped_reason"])
    assert reasons == {"no-metadata": 1, "open-target": 1}
    counters = record["counters"]
    assert counters["evaluation.attempted"] == len(rows)
    assert counters.get("evaluation.evaluated", 0) == len(rows) - sum(reasons.values())
    assert {k: v for k, v in counters.items() if k.startswith("evaluation.skip.")} == {
        f"evaluation.skip.{reason}": count for reason, count in reasons.items()}

    record = run_traced_child(assets / "records" / "pass0" / "robust", commands["robustness"])
    assert record["rc"] == 0
    points, test_rows = 2, 3  # --fractions 0,1.0 --modes descriptions
    assert record["counters"]["evaluation.attempted"] == points * test_rows
