"""End-to-end and per-layer metrics from the commands of one pass.

A pass is the workload's whole pipeline; each command brings its wall
time, its child-process record (import time, peak RSS, counters) and its
spans. Per-layer metrics sum spans and counters over the pass's commands;
a layer that does no work in a workload reports 0.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

import spans

E2E_TIMINGS = (
    ("setup_s", "s"),
    ("total_s", "s"),
    ("train_kgc_s", "s"),
    ("eval_s", "s"),
    ("peak_rss_mb", "MiB"),
)

COMMANDS = ("sample-owe", "train-kgc", "train-map", "eval", "robustness")


def _named(command: dict):
    names = np.asarray(command["record"]["names"] or [""], dtype=object)
    data = command["spans"]
    dur = data["end"] - data["start"]
    return names[data["name_id"]] if len(dur) else np.asarray([], dtype=object), data, dur


def loader_seconds(command: dict) -> float:
    """Time in the loader calls that start before the command's first unit of
    work (spans.WORK); a loader called by a loader counts once."""
    names, data, dur = _named(command)
    if not len(dur):
        return 0.0
    is_loader = np.isin(names, spans.LOADERS)
    is_work = np.isin(names, spans.WORK)
    work_start = data["start"][is_work].min() if is_work.any() else np.inf
    parent = data["parent"]
    parent_loader = np.zeros(len(dur), dtype=bool)
    has_parent = parent >= 0
    parent_loader[has_parent] = is_loader[parent[has_parent]]
    before_work = data["start"] < work_start
    return float(dur[is_loader & ~parent_loader & before_work].sum())


def pass_e2e(commands: list[dict]) -> dict[str, float]:
    return {
        "setup_s": sum(loader_seconds(c) for c in commands),
        "total_s": sum(c["wall"] for c in commands),
        "train_kgc_s": sum(c["wall"] for c in commands if c["cmd"].stage == "train_kgc"),
        "eval_s": sum(c["wall"] for c in commands if c["cmd"].stage == "eval"),
        "peak_rss_mb": max(c["record"]["maxrss_kb"] for c in commands) / 1024.0,
    }


def kernel_cost(shape) -> dict:
    """Operations and bytes of one score_all_* call, computed from the shapes.

    Counts the arithmetic of the per-family formula over N entities of
    dimension d, and the minimum traffic: the entity table(s) read once in
    float64 and the N scores written once.
    """
    if shape is None:
        return {"label": "computed", "flops_per_query": 0, "bytes_per_query": 0}
    family, n, d = shape
    per_element = {"complex": 10, "distmult": 3, "transe": 4}[family]
    tables = 2 if family == "complex" else 1
    return {
        "label": "computed",
        "family": family,
        "entities": n,
        "dim": d,
        "flops_per_query": per_element * n * d + (n if family == "transe" else 0),
        "bytes_per_query": 8 * (tables * n * d + n),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def pass_layers(commands: list[dict], kernel: dict) -> dict[str, tuple[float, str]]:
    total: dict[str, float] = defaultdict(float)   # ms inside each span name
    own: dict[str, float] = defaultdict(float)     # self ms
    calls: dict[str, int] = defaultdict(int)
    c: dict[str, float] = defaultdict(float)       # counters
    n_spans = 0
    for command in commands:
        names, data, dur = _named(command)
        self_t = spans.self_times(data["name_id"], data["parent"], dur)
        for name in set(names.tolist()):
            mask = names == name
            total[name] += 1e3 * float(dur[mask].sum())
            own[name] += 1e3 * float(self_t[mask].sum())
            calls[name] += int(mask.sum())
        n_spans += len(dur)
        for key, value in command["record"]["counters"].items():
            c[key] += value
        c["cli.import_ms"] += command["record"]["import_ms"]

    def per_call(name: str, scale: float = 1.0) -> float:
        return scale * _ratio(total[name], calls[name])

    def per_load(value: float) -> float:
        return _ratio(value, calls["text.load_word_embeddings"])

    evaluated = c["evaluation.evaluated"]
    m: dict[str, tuple[float, str]] = {
        "graph.load_graph.ms": (total["graph.load_graph"], "ms"),
        "graph.load_graph.triples": (c["graph.load_graph.triples"], "count"),
        "graph.duplicates_dropped": (c["graph.duplicates_dropped"], "count"),
        "graph.build_filter_index.ms": (total["graph.build_filter_index"], "ms"),
        "graph.filter_index.keys": (c["graph.filter_index.keys"], "count"),
        "graph.load_entity_text.ms": (total["graph.load_entity_text"], "ms"),
        "graph.resolve_metadata.hit_frac": (
            _ratio(c["graph.resolve_metadata.hits"], c["graph.resolve_metadata.records"]), "ratio"),
        "text.load_word_embeddings.ms": (total["text.load_word_embeddings"], "ms"),
        "text.load_word_embeddings.rows": (per_load(c["text.rows"]), "count"),
        "text.store_mb": (per_load(c["text.bytes"] / 2**20), "MiB"),
        "text.rows_used_frac": (_ratio(c["text.rows_used"], c["text.rows"]), "ratio"),
        "text.text_embedding.us_per_entity": (per_call("text.text_embedding", 1e3), "us"),
        "text.aggregate.us_per_entity": (per_call("text.aggregate", 1e3), "us"),
        "text.oov_frac": (_ratio(c["text.unknown"], c["text.tokens"]), "ratio"),
        "text.phrase_hit_frac": (_ratio(c["text.phrase_hits"], c["text.names"]), "ratio"),
        "models.batch_loss_and_gradients.ms_per_batch": (
            per_call("models.batch_loss_and_gradients"), "ms"),
        "models.batch_loss_and_gradients.unique_row_frac": (
            _ratio(c["models.batch.entity_rows"], c["models.batch.entity_refs"]), "ratio"),
        "models.score_all_tails.ms_per_query": (per_call("models.score_all_tails"), "ms"),
        "models.score_all_heads.ms_per_query": (per_call("models.score_all_heads"), "ms"),
        "models.score_all.queries": (
            calls["models.score_all_tails"] + calls["models.score_all_heads"], "count"),
        "models.score.flops_per_query": (kernel["flops_per_query"], "flop"),
        "models.score.bytes_per_query": (kernel["bytes_per_query"], "B"),
        "models.load_checkpoint.ms": (total["models.load_checkpoint"], "ms"),
        "models.save_checkpoint.ms": (total["models.save_checkpoint"], "ms"),
        "models.train_kgc.self_ms": (own["models.train_kgc"], "ms"),
        "optim.Adam.update_rows.ms_per_call": (per_call("optim.Adam.update_rows"), "ms"),
        "optim.Adam.update_rows.rows_per_call": (
            _ratio(c["optim.update_rows.rows"], calls["optim.Adam.update_rows"]), "count"),
        "optim.Adam.update.ms_per_call": (per_call("optim.Adam.update"), "ms"),
        "mapping.build_training_pairs.ms": (total["mapping.build_training_pairs"], "ms"),
        "mapping.map_loss_and_gradients.ms_per_batch": (
            per_call("mapping.map_loss_and_gradients"), "ms"),
        "mapping.fit_map.self_ms": (own["mapping.fit_map"], "ms"),
        "mapping.mapped_entity_embedding.us_per_entity": (
            per_call("mapping.mapped_entity_embedding", 1e3), "us"),
        "evaluation.evaluate.ms_per_query": (
            _ratio(total["evaluation.evaluate"], c["evaluation.attempted"]), "ms"),
        "evaluation.rank.self_ms_per_query": (_ratio(own["evaluation.evaluate"], evaluated), "ms"),
        "evaluation.filter_set_size.mean": (_ratio(c["evaluation.filter_set"], evaluated), "count"),
        "evaluation.skip_frac": (
            _ratio(c["evaluation.attempted"] - evaluated, c["evaluation.attempted"]), "ratio"),
        "evaluation.random_head_baseline.ms": (total["evaluation.random_head_baseline"], "ms"),
        "sampler.sample_open_world.ms": (total["sampler.sample_open_world"], "ms"),
        "sampler.sample_open_world.ms_per_head": (
            _ratio(total["sampler.sample_open_world"], c["sampler.sampled_heads"]), "ms"),
        "sampler.validate_split.ms": (total["sampler.validate_split"], "ms"),
        "sampler.corrupt_metadata.ms": (total["sampler.corrupt_metadata"], "ms"),
        "cli.import_ms": (_ratio(c["cli.import_ms"], len(commands)), "ms"),
        "cli.main.self_ms": (own["cli.main"], "ms"),
        "trace.spans": (n_spans, "count"),
    }
    for kind in ("tail", "head", "target_filtered"):
        m[f"evaluation.evaluate.{kind}.ms_per_query"] = (
            _ratio(c[f"evaluation.evaluate.{kind}.ms"], c[f"evaluation.evaluate.{kind}.queries"]), "ms")
    for reason in ("no-metadata", "target-filtering", "open-target"):
        m[f"evaluation.skip.{reason}"] = (c[f"evaluation.skip.{reason}"], "count")
    for command in COMMANDS:
        m[f"cli.{command}.ms"] = (total[f"cli.{command}"], "ms")
        m[f"cli.{command}.self_ms"] = (own[f"cli.{command}"], "ms")
    return m
