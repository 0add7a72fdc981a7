"""Command-line orchestration for training, evaluation and dataset tooling.

Commands: train-kgc, train-map, eval, robustness, neighbors, sample-owe,
drop-metadata. Options resolve as CLI flag > config file (--config,
key=value) > default. Every command writes a manifest echoing its resolved
configuration into the output directory; exit code 0 means the command
completed and the manifest was written. All randomness flows from a single
--seed via deterministic per-stage sub-seeds.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import evaluation, graph as graphmod, mapping, models, sampler, text
from .config import Settings, load_config_file, stage_seed, write_manifest


class CliError(Exception):
    """User-facing command error; printed without a traceback."""


def _graph_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--train", help="train triples TSV")
    p.add_argument("--valid", help="validation triples TSV")
    p.add_argument("--test", help="test triples TSV")


def _common_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="owlink", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train-kgc", help="train a closed-world link prediction model")
    _common_options(p)
    _graph_options(p)
    p.add_argument("--family", choices=models.FAMILIES)
    p.add_argument("--dim", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--learning-rate", type=float)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--margin", type=float)
    p.add_argument("--reg-weight", type=float)
    p.add_argument("--negatives", type=int)
    p.add_argument("--valid-every", type=int)
    p.add_argument("--valid-max-triples", type=int)

    p = sub.add_parser("train-map", help="train the text-to-graph transformation")
    _common_options(p)
    _graph_options(p)
    p.add_argument("--kgc-checkpoint")
    p.add_argument("--metadata")
    p.add_argument("--embeddings", help="word embedding text file")
    p.add_argument("--phrase-template")
    p.add_argument("--kind", choices=mapping.KINDS)
    p.add_argument("--dropout", type=float)
    p.add_argument("--epochs", type=int)
    p.add_argument("--learning-rate", type=float)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--hidden-dim", type=int)
    p.add_argument("--loss-mode", choices=mapping.LOSS_MODES)
    p.add_argument("--valid-every", type=int)

    p = sub.add_parser("eval", help="rank test triples and report metrics")
    _common_options(p)
    _graph_options(p)
    p.add_argument("--kgc-checkpoint")
    p.add_argument("--map-checkpoint")
    p.add_argument("--metadata")
    p.add_argument("--embeddings")
    p.add_argument("--phrase-template")
    p.add_argument("--split", choices=("valid", "test"))
    p.add_argument("--direction", choices=("tail", "head"))
    p.add_argument("--target-filtering", action="store_const", const=True)
    p.add_argument("--raw-ranks", action="store_const", const=True,
                   help="aggregate MR/Hits over raw instead of filtered ranks")
    p.add_argument("--filter-splits", help="comma list, e.g. train,valid,test")
    p.add_argument("--hits", help="comma list of Hits@k cutoffs")

    p = sub.add_parser("robustness", help="metadata-dropping robustness sweep")
    _common_options(p)
    _graph_options(p)
    p.add_argument("--kgc-checkpoint")
    p.add_argument("--metadata")
    p.add_argument("--embeddings")
    p.add_argument("--phrase-template")
    p.add_argument("--kind", choices=mapping.KINDS)
    p.add_argument("--dropout", type=float)
    p.add_argument("--epochs", type=int)
    p.add_argument("--learning-rate", type=float)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--target-filtering", action="store_const", const=True)
    p.add_argument("--filter-splits")
    p.add_argument("--fractions", help="comma list of drop fractions")
    p.add_argument("--modes", help="comma list from: descriptions,all")

    p = sub.add_parser("neighbors", help="nearest entities to an entity or free text")
    _common_options(p)
    _graph_options(p)
    p.add_argument("--kgc-checkpoint")
    p.add_argument("--map-checkpoint")
    p.add_argument("--embeddings")
    p.add_argument("--phrase-template")
    p.add_argument("--entity", help="external entity id")
    p.add_argument("--text", help="free-text entity name")
    p.add_argument("--description", help="free-text entity description")
    p.add_argument("-k", "--k", type=int, dest="k")

    p = sub.add_parser("sample-owe", help="construct an open-world split")
    _common_options(p)
    p.add_argument("--train")
    p.add_argument("--head-fraction", type=float)
    p.add_argument("--head-count", type=int)
    p.add_argument("--closed-valid-fraction", type=float)
    p.add_argument("--open-valid-fraction", type=float)

    p = sub.add_parser("drop-metadata", help="corrupt a metadata file")
    _common_options(p)
    p.add_argument("--metadata")
    p.add_argument("--mode", choices=sampler.MODES)
    p.add_argument("--fraction", type=float)

    return parser


def _require(value, name: str):
    if value is None:
        raise CliError(f"missing required option --{name}")
    return value


def _check_file(path: str, name: str) -> str:
    if not Path(path).is_file():
        raise CliError(f"--{name}: file not found: {path}")
    return path


def _load_graph(s: Settings, open_world: bool) -> graphmod.KnowledgeGraph:
    train = _check_file(_require(s.get("train"), "train"), "train")
    valid = s.get("valid")
    test = s.get("test")
    if valid is not None:
        _check_file(valid, "valid")
    if test is not None:
        _check_file(test, "test")
    return graphmod.load_graph(train, valid, test, open_world=open_world)


def _load_text_assets(s: Settings, graph):
    meta_path = _check_file(_require(s.get("metadata"), "metadata"), "metadata")
    emb_path = _check_file(_require(s.get("embeddings"), "embeddings"), "embeddings")
    template = s.get("phrase-template", "{name}")
    raw_meta = graphmod.load_entity_text(meta_path)
    store = text.load_word_embeddings(emb_path, phrase_template=template)
    return raw_meta, graphmod.resolve_metadata(raw_meta, graph), store


def _out_dir(s: Settings) -> Path:
    out = Path(_require(s.get("out"), "out"))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _eval_config(s: Settings) -> evaluation.EvalConfig:
    splits = s.get("filter-splits", "train,valid,test")
    hits = s.get("hits", "1,3,10")
    return evaluation.EvalConfig(
        direction=s.get("direction", "tail"),
        filtered=not s.get("raw-ranks", False, cast=bool),
        filter_splits=tuple(x for x in splits.split(",") if x),
        target_filtering=bool(s.get("target-filtering", False, cast=bool)),
        hits_k=tuple(int(k) for k in hits.split(",")),
    )


def cmd_train_kgc(s: Settings) -> None:
    out = _out_dir(s)
    seed = s.get("seed", 0, int)
    graph = _load_graph(s, open_world=False)
    hp = models.KgcHyperparams(
        dim=s.get("dim", 300, int),
        epochs=s.get("epochs", 100, int),
        learning_rate=s.get("learning-rate", 1e-3, float),
        batch_size=s.get("batch-size", 128, int),
        margin=s.get("margin", 1.0, float),
        reg_weight=s.get("reg-weight", 1e-3, float),
        num_negatives=s.get("negatives", 1, int),
        valid_every=s.get("valid-every", 1, int),
    )
    valid_max_triples = s.get("valid-max-triples", None, int)
    family = s.get("family", "complex")
    validator = None
    if graph.valid:
        validator = evaluation.closed_world_validator(graph, valid_max_triples)
    model = models.train_kgc(graph, family, hp, seed=stage_seed(seed, "kgc"),
                             validator=validator, log_path=str(out / "train_log.tsv"))
    models.save_checkpoint(str(out / "kgc.ckpt"), model)
    write_manifest(out, "train-kgc", s.resolved)


def cmd_train_map(s: Settings) -> None:
    out = _out_dir(s)
    seed = s.get("seed", 0, int)
    graph = _load_graph(s, open_world=True)
    kgc_path = _check_file(_require(s.get("kgc-checkpoint"), "kgc-checkpoint"), "kgc-checkpoint")
    kgc = models.load_checkpoint(kgc_path)
    _, metadata, store = _load_text_assets(s, graph)
    hp = mapping.MapHyperparams(
        epochs=s.get("epochs", 200, int),
        learning_rate=s.get("learning-rate", 1e-3, float),
        batch_size=s.get("batch-size", 128, int),
        dropout=s.get("dropout", 0.0, float),
        hidden_dim=s.get("hidden-dim", None, int),
        loss=s.get("loss-mode", "squared"),
        valid_every=s.get("valid-every", 10, int),
    )
    kind = s.get("kind", "affine")

    validator = None
    if graph.valid:
        valid_config = evaluation.EvalConfig(filter_splits=("train", "valid"))

        def validator(candidate):
            report = evaluation.evaluate(
                kgc, graph, valid_config, candidate, metadata, store, triples=graph.valid
            )
            return report.mrr_filtered if report.evaluated_count else 0.0

    map_model = mapping.train_map(
        kgc, graph, metadata, store, kind, hp,
        seed=stage_seed(seed, "map"), validator=validator,
        log_path=str(out / "map_log.tsv"),
    )
    mapping.save_map(str(out / "map.ckpt"), map_model)
    write_manifest(out, "train-map", s.resolved)


def cmd_eval(s: Settings) -> None:
    out = _out_dir(s)
    graph = _load_graph(s, open_world=True)
    kgc_path = _check_file(_require(s.get("kgc-checkpoint"), "kgc-checkpoint"), "kgc-checkpoint")
    kgc = models.load_checkpoint(kgc_path)
    map_model = metadata = store = None
    map_path = s.get("map-checkpoint")
    if map_path is not None:
        map_model = mapping.load_map(_check_file(map_path, "map-checkpoint"))
        _, metadata, store = _load_text_assets(s, graph)
    config = _eval_config(s)
    split = s.get("split", "test")
    report = evaluation.evaluate(
        kgc, graph, config, map_model, metadata, store, triples=graph.split(split)
    )
    evaluation.write_report_tsv(str(out / "report.tsv"), graph, report)
    (out / "summary.txt").write_text(report.summary_text(), encoding="utf-8")
    print(report.table_text())
    write_manifest(out, "eval", s.resolved)


def cmd_robustness(s: Settings) -> None:
    out = _out_dir(s)
    seed = s.get("seed", 0, int)
    graph = _load_graph(s, open_world=True)
    kgc_path = _check_file(_require(s.get("kgc-checkpoint"), "kgc-checkpoint"), "kgc-checkpoint")
    kgc = models.load_checkpoint(kgc_path)
    raw_meta, _, store = _load_text_assets(s, graph)
    hp = mapping.MapHyperparams(
        epochs=s.get("epochs", 200, int),
        learning_rate=s.get("learning-rate", 1e-3, float),
        batch_size=s.get("batch-size", 128, int),
        dropout=s.get("dropout", 0.0, float),
        valid_every=0,
    )
    kind = s.get("kind", "affine")
    config = _eval_config(s)
    fractions = [float(x) for x in s.get("fractions", "0,0.2,0.4,0.6,0.8,0.9,1.0").split(",")]
    modes = [m for m in s.get("modes", "descriptions,all").split(",") if m]

    header = ["mode", "fraction", "mrr_filtered", "mrr_raw"]
    header += [f"hits_{k}" for k in config.hits_k]
    rows = ["\t".join(header)]

    def add_row(mode: str, fraction, report) -> None:
        cells = [mode, str(fraction), f"{report.mrr_filtered:.6f}", f"{report.mrr_raw:.6f}"]
        cells += [f"{v:.6f}" for v in report.hits.values()]
        rows.append("\t".join(cells))
        print(f"{mode} {fraction}: {report.table_text()}")

    for mode in modes:
        for fraction in fractions:
            stage = f"robust:{mode}:{fraction}"
            corrupted = sampler.corrupt_metadata(raw_meta, mode, fraction,
                                                 seed=stage_seed(seed, stage))
            resolved = graphmod.resolve_metadata(corrupted, graph)
            map_model = mapping.train_map(kgc, graph, resolved, store, kind, hp,
                                          seed=stage_seed(seed, stage + ":map"))
            report = evaluation.evaluate(kgc, graph, config, map_model, resolved, store)
            add_row(mode, fraction, report)

    baseline = evaluation.random_head_baseline(kgc, graph, config,
                                               seed=stage_seed(seed, "baseline"))
    add_row("random-head-baseline", "", baseline)

    (out / "robustness.tsv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    write_manifest(out, "robustness", s.resolved)


def cmd_neighbors(s: Settings) -> None:
    out = _out_dir(s)
    graph = _load_graph(s, open_world=True)
    kgc_path = _check_file(_require(s.get("kgc-checkpoint"), "kgc-checkpoint"), "kgc-checkpoint")
    kgc = models.load_checkpoint(kgc_path)
    k = s.get("k", 10, int)
    entity = s.get("entity")
    free_text = s.get("text")
    s.get("description")

    if entity is not None:
        eid = graph.entity_id(entity)
        if eid is None or eid >= graph.num_entities:
            raise CliError(f"--entity: unknown closed-world entity {entity!r}")
        query = kgc.embeddings.entity_embedding(eid)
    elif free_text is not None:
        map_path = _check_file(_require(s.get("map-checkpoint"), "map-checkpoint"),
                               "map-checkpoint")
        emb_path = _check_file(_require(s.get("embeddings"), "embeddings"), "embeddings")
        store = text.load_word_embeddings(emb_path,
                                          phrase_template=s.get("phrase-template", "{name}"))
        map_model = mapping.load_map(map_path)
        meta = graphmod.EntityText("query", free_text, s.resolved.get("description") or "")
        query = mapping.mapped_entity_embedding(kgc, map_model, meta, store)
    else:
        raise CliError("neighbors requires --entity or --text")

    lines = []
    for rank, (eid, dist) in enumerate(evaluation.nearest_neighbors(kgc, query, k), 1):
        lines.append(f"{rank}\t{graph.entity_name(eid)}\t{dist:.6f}")
    body = "\n".join(lines) + "\n"
    (out / "neighbors.tsv").write_text(body, encoding="utf-8")
    print(body, end="")
    write_manifest(out, "neighbors", s.resolved)


def cmd_sample_owe(s: Settings) -> None:
    out = _out_dir(s)
    train = _check_file(_require(s.get("train"), "train"), "train")
    graph = graphmod.load_graph(train)
    config = sampler.SamplerConfig(
        seed=s.get("seed", 0, int),
        head_fraction=s.get("head-fraction", None, float),
        head_count=s.get("head-count", None, int),
        closed_valid_fraction=s.get("closed-valid-fraction", 0.05, float),
        open_valid_fraction=s.get("open-valid-fraction", 0.1, float),
    )
    split = sampler.sample_open_world(graph, config)
    violations = sampler.validate_split(split)
    if violations:
        raise CliError("generated split violates invariants: " + "; ".join(violations[:5]))

    files = {
        "train.txt": split.train,
        "valid.txt": split.valid_closed,
        "test_tail.txt": split.test_tail,
        "test_head.txt": split.test_head,
        "valid_tail.txt": split.valid_open_tail,
        "valid_head.txt": split.valid_open_head,
    }
    for name, triples in files.items():
        graphmod.save_triples(str(out / name), graph, triples)
    (out / "open_entities.txt").write_text(
        "".join(graph.entity_name(e) + "\n" for e in split.open_entities), encoding="utf-8"
    )
    resolved = dict(s.resolved)
    resolved.update({f"count_{k}": v for k, v in split.manifest.items()})
    write_manifest(out, "sample-owe", resolved)


def cmd_drop_metadata(s: Settings) -> None:
    out = _out_dir(s)
    meta_path = _check_file(_require(s.get("metadata"), "metadata"), "metadata")
    metadata = graphmod.load_entity_text(meta_path)
    corrupted = sampler.corrupt_metadata(
        metadata,
        mode=s.get("mode", "descriptions"),
        fraction=s.get("fraction", 0.0, float),
        seed=s.get("seed", 0, int),
    )
    graphmod.save_entity_text(str(out / "metadata.tsv"), corrupted)
    write_manifest(out, "drop-metadata", s.resolved)


COMMANDS = {
    "train-kgc": cmd_train_kgc,
    "train-map": cmd_train_map,
    "eval": cmd_eval,
    "robustness": cmd_robustness,
    "neighbors": cmd_neighbors,
    "sample-owe": cmd_sample_owe,
    "drop-metadata": cmd_drop_metadata,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = vars(parser.parse_args(argv))
    command = args.pop("command")
    config = {}
    if args.get("config"):
        try:
            config = load_config_file(args["config"])
        except (OSError, ValueError) as exc:
            print(f"owlink: {exc}", file=sys.stderr)
            return 1
    settings = Settings(args, config)
    try:
        COMMANDS[command](settings)
    except (CliError, OSError, ValueError, FloatingPointError) as exc:
        print(f"owlink: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
