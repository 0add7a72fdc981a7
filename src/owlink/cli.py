"""Command-line orchestration for training, evaluation and dataset tooling.

Commands: train-kgc, train-map, eval, robustness, neighbors, sample-owe,
drop-metadata. Options resolve as CLI flag > config file (--config,
key=value) > default. Each option is declared once in ``OPTIONS``; options
that set a field of ``KgcHyperparams``, ``MapHyperparams``, ``SamplerConfig``
or ``EvalConfig`` take their type and default from that field. A config key
is a flag name, and its value is checked like the flag's. A command makes
its output directory once its inputs are read and its settings checked,
and writes a manifest echoing its resolved configuration there; exit code 0
means it completed and wrote the manifest. All randomness flows from a
single --seed via deterministic per-stage sub-seeds.
"""

from __future__ import annotations

import argparse
import functools
import sys
import typing
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import evaluation, graph as graphmod, mapping, models, sampler, text
from .config import Option, Settings, load_config_file, stage_seed, write_manifest


class CliError(Exception):
    """User-facing command error; printed without a traceback."""


# Flags of dataclass fields that are not the field name with dashes.
RENAMES = {"num_negatives": "negatives", "loss": "loss-mode", "hits_k": "hits"}
FIELD_CHOICES = {"loss": mapping.LOSS_MODES, "direction": evaluation.DIRECTIONS,
                 "filter_splits": graphmod.SPLITS}


def _flag(field_name: str) -> str:
    return RENAMES.get(field_name, field_name.replace("_", "-"))


def _fields(cls, *names: str) -> list[Option]:
    """Options for the named fields of a config dataclass (all when none are named)."""
    hints = typing.get_type_hints(cls)
    return [Option.from_field(_flag(f.name), hints[f.name], f.default,
                              choices=FIELD_CHOICES.get(f.name))
            for f in fields(cls) if not names or f.name in names]


def _build(s: Settings, cls, **fixed):
    """``cls`` with every field the command has an option for read from ``s``."""
    return cls(**{f.name: s.get(_flag(f.name)) for f in fields(cls)
                  if f.name not in fixed and _flag(f.name) in s}, **fixed)


COMMON = [Option("out", help="output directory"), *_fields(sampler.SamplerConfig, "seed")]
GRAPH = [Option("train", help="train triples TSV"), Option("valid", help="validation triples TSV"),
         Option("test", help="test triples TSV")]
KGC = Option("kgc-checkpoint", help="model file written by train-kgc")
MAP = Option("map-checkpoint", help="map file written by train-map")
EMBEDDINGS = [Option("embeddings", help="word embedding text file"),
              Option("phrase-template", text.check_phrase_template, "{name}",
                     help="vector key of a whole name, with one {name} field")]
TEXT = [Option("metadata", help="entity metadata TSV"), *EMBEDDINGS]
KIND = Option("kind", default="affine", choices=mapping.KINDS)
EVAL = [*_fields(evaluation.EvalConfig, "direction", "filter_splits", "target_filtering", "hits_k"),
        Option("raw-ranks", bool, not evaluation.EvalConfig.filtered,
               help="aggregate MR/Hits over raw instead of filtered ranks")]

# Every option of every command; the name is the flag, config key and manifest key.
OPTIONS = {command: {o.name: o for o in COMMON + options} for command, options in {
    "train-kgc": [*GRAPH, Option("family", default="complex", choices=models.FAMILIES),
                  *_fields(models.KgcHyperparams),
                  Option("valid-max-triples", int, help="cap on validation triples")],
    "train-map": [*GRAPH, KGC, *TEXT, KIND, *_fields(mapping.MapHyperparams)],
    "eval": [*GRAPH, KGC, MAP, *TEXT, *EVAL,
             Option("split", default="test", choices=("valid", "test"))],
    "robustness": [*GRAPH, KGC, *TEXT, KIND, *EVAL,
                   *_fields(mapping.MapHyperparams, "epochs", "learning_rate", "batch_size",
                            "dropout"),
                   Option("fractions", sampler.check_fraction, "0,0.2,0.4,0.6,0.8,0.9,1.0",
                          many=True, help="comma list of metadata drop fractions in [0, 1]"),
                   Option("modes", default="descriptions,all", choices=sampler.MODES, many=True)],
    "neighbors": [*GRAPH, KGC, MAP, *EMBEDDINGS, Option("entity", help="external entity id"),
                  Option("text", help="free-text entity name"),
                  Option("description", help="free-text entity description"),
                  Option("k", int, 10, help="number of neighbors")],
    "sample-owe": [GRAPH[0], *_fields(sampler.SamplerConfig)],
    "drop-metadata": [TEXT[0], Option("mode", default="descriptions", choices=sampler.MODES),
                      Option("fraction", sampler.check_fraction, 0.0,
                             help="fraction of entities to corrupt, in [0, 1]")],
}.items()}
DECLARED = {name: o for options in OPTIONS.values() for name, o in options.items()}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="owlink", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, options in OPTIONS.items():
        p = sub.add_parser(command, help=COMMANDS[command].__doc__)
        p.add_argument("--config", help="flat key=value config file")
        for o in options.values():
            flags = [f"-{o.name}"] * (len(o.name) == 1) + [f"--{o.name}"]
            if o.type is bool:
                p.add_argument(*flags, action="store_const", const=True, help=o.help)
            else:
                p.add_argument(*flags, type=o.convert, help=o.help or o.expected())
    return parser


def _config_value(command: str, key: str, text: str):
    """Convert a config-file value like the flag of the same name. Keys of
    every command are accepted (and checked), so commands can share a file;
    a name is declared alike by every command that has it.

    A manifest reads back as a config file: its ``command`` must be the
    command being run, ``version`` and the ``count_*`` lines are skipped,
    and ``None`` leaves an option unset. A line to skip converts to None."""
    if key == "command":
        if text != command:
            raise ValueError(f"this file is for {text!r}, not {command!r}")
        return None
    if key == "version" or key.startswith("count_"):
        return None
    if key not in DECLARED:
        raise ValueError("no owlink command has this option")
    return None if text == "None" else DECLARED[key].convert(text)


def _require(s: Settings, name: str):
    value = s.get(name)
    if value is None:
        raise CliError(f"missing required option --{name}")
    return value


def _input_file(s: Settings, name: str, required: bool = True) -> str | None:
    path = _require(s, name) if required else s.get(name)
    if path is not None and not Path(path).is_file():
        raise CliError(f"--{name}: file not found: {path}")
    return path


def _load_graph(s: Settings, open_world: bool) -> graphmod.KnowledgeGraph:
    return graphmod.load_graph(_input_file(s, "train"), _input_file(s, "valid", False),
                               _input_file(s, "test", False), open_world=open_world)


def _entity_rows(s: Settings, metadata: typing.Mapping) -> text.EntityRows:
    """The text of ``metadata`` (entity id -> text) as rows of a store that
    holds only the vectors this text can look up."""
    template = s.get("phrase-template")
    keys = text.collect_keys(metadata, template)
    store = text.load_word_embeddings(_input_file(s, "embeddings"), template, keys.keys)
    return keys.rows(store)


def _load_text_assets(s: Settings, graph, open_only: bool = False):
    """The metadata file's external ids in file order, then the record of
    each resolved entity (open ones only with ``open_only``) and their text
    as store rows, in entity order."""
    raw_meta = graphmod.load_entity_text(_input_file(s, "metadata"))
    metadata = graphmod.resolve_metadata(raw_meta, graph)
    if open_only:
        metadata = metadata.select(np.array(metadata.ids, dtype=np.int64) >= graph.num_entities)
    return raw_meta.ids, metadata.records, _entity_rows(s, metadata)


def _load_kgc(s: Settings, graph: graphmod.KnowledgeGraph) -> models.KgcModel:
    """The --kgc-checkpoint model; ValueError, naming the files, unless it has
    as many entity and relation rows as ``graph`` (from --train) has ids."""
    path = _input_file(s, "kgc-checkpoint")
    kgc = models.load_checkpoint(path)
    for what, have, want in (("entities", kgc.embeddings.num_entities, graph.num_entities),
                             ("relations", kgc.embeddings.num_relations, graph.num_relations)):
        if have != want:
            raise ValueError(f"{path}: checkpoint has {have} {what}, but {s.get('train')} "
                             f"has {want}")
    return kgc


def _out_dir(s: Settings) -> Path:
    out = Path(_require(s, "out"))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _eval_config(s: Settings) -> evaluation.EvalConfig:
    return _build(s, evaluation.EvalConfig, filtered=not s.get("raw-ranks"))


def cmd_train_kgc(s: Settings) -> None:
    """Train a closed-world link prediction model."""
    seed = s.get("seed")
    hp = _build(s, models.KgcHyperparams)
    graph = _load_graph(s, open_world=False)
    # built without a valid split too, so a bad --valid-max-triples is rejected either way
    validator = evaluation.closed_world_validator(graph, s.get("valid-max-triples"))
    out = _out_dir(s)
    model = models.train_kgc(graph, s.get("family"), hp, seed=stage_seed(seed, "kgc"),
                             validator=validator if len(graph.valid) else None,
                             log_path=str(out / "train_log.tsv"))
    models.save_checkpoint(str(out / "kgc.ckpt"), model)
    write_manifest(out, "train-kgc", s.resolved)


def cmd_train_map(s: Settings) -> None:
    """Train the text-to-graph transformation."""
    seed = s.get("seed")
    hp = _build(s, mapping.MapHyperparams)
    kind = s.get("kind")
    graph = _load_graph(s, open_world=True)
    kgc = _load_kgc(s, graph)
    *_, entity_rows = _load_text_assets(s, graph)
    if not len(mapping.build_training_pairs(kgc, graph, entity_rows)[0].entities):
        raise CliError("no training entity has usable textual metadata")

    validator = None
    if len(graph.valid):
        validator = evaluation.open_world_validator(kgc, graph, entity_rows)
    out = _out_dir(s)
    map_model = mapping.train_map(
        kgc, graph, entity_rows, kind, hp,
        seed=stage_seed(seed, "map"), validator=validator,
        log_path=str(out / "map_log.tsv"),
    )
    mapping.save_map(str(out / "map.ckpt"), map_model)
    write_manifest(out, "train-map", s.resolved)


def cmd_eval(s: Settings) -> None:
    """Rank test triples and report metrics."""
    split = s.get("split")
    _require(s, split)  # the ranked file; an empty one ranks nothing
    config = _eval_config(s)
    graph = _load_graph(s, open_world=True)
    kgc = _load_kgc(s, graph)
    map_model = entity_rows = None
    map_path = _input_file(s, "map-checkpoint", required=False)
    if map_path is not None:
        map_model = mapping.load_map(map_path)
        *_, entity_rows = _load_text_assets(s, graph, open_only=True)
        mapping.check_fit(map_model, kgc, entity_rows.store.dim, map_path,
                          s.get("kgc-checkpoint"), s.get("embeddings"))
    # --out comes after evaluate, which rejects an open query without a map
    report = evaluation.evaluate(kgc, graph, config, map_model, entity_rows,
                                 triples=graph.split(split))
    out = _out_dir(s)
    evaluation.write_report_tsv(str(out / "report.tsv"), graph, report)
    (out / "summary.txt").write_text(report.summary_text(), encoding="utf-8")
    print(report.table_text())
    write_manifest(out, "eval", s.resolved)


def cmd_robustness(s: Settings) -> None:
    """Metadata-dropping robustness sweep: each point selects the entity rows
    that ``sampler.corrupt_metadata``'s record masks keep."""
    _require(s, "test")
    config = _eval_config(s)
    hp = _build(s, mapping.MapHyperparams, valid_every=0)
    seed = s.get("seed")
    kind = s.get("kind")
    graph = _load_graph(s, open_world=True)
    kgc = _load_kgc(s, graph)
    ids, records, entity_rows = _load_text_assets(s, graph)
    out = _out_dir(s)

    header = ["mode", "fraction", "mrr_filtered", "mrr_raw"]
    header += [f"hits_{k}" for k in config.hits_k]
    rows = ["\t".join(header)]

    def add_row(mode: str, fraction, report) -> None:
        cells = [mode, str(fraction), f"{report.mrr_filtered:.6f}", f"{report.mrr_raw:.6f}"]
        cells += [f"{v:.6f}" for v in report.hits.values()]
        rows.append("\t".join(cells))
        print(f"{mode} {fraction}: {report.table_text()}")

    for mode in s.get("modes"):
        for fraction in s.get("fractions"):
            stage = f"robust:{mode}:{fraction}"
            kept, described = sampler.corrupt_metadata(ids, mode, fraction,
                                                       seed=stage_seed(seed, stage))
            point = entity_rows.select(kept[records], described[records])
            map_model = None
            if len(mapping.build_training_pairs(kgc, graph, point)[0].entities):
                map_model = mapping.train_map(kgc, graph, point, kind, hp,
                                              seed=stage_seed(seed, stage + ":map"))
            else:  # no training text: no map and no text, so each open query is no-metadata
                point = point.select(np.zeros(len(point.entities), dtype=bool))
            report = evaluation.evaluate(kgc, graph, config, map_model, point)
            add_row(mode, fraction, report)

    baseline = evaluation.random_head_baseline(kgc, graph, config,
                                               seed=stage_seed(seed, "baseline"))
    add_row("random-head-baseline", "", baseline)

    (out / "robustness.tsv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    write_manifest(out, "robustness", s.resolved)


def cmd_neighbors(s: Settings) -> None:
    """Nearest entities to an entity or free text."""
    entity, free_text, description = map(s.get, ("entity", "text", "description"))
    if (entity is None) == (free_text is None):
        raise CliError("neighbors requires exactly one of --entity and --text")
    if description is not None and free_text is None:
        raise CliError("--description needs --text")
    graph = _load_graph(s, open_world=True)
    kgc = _load_kgc(s, graph)
    k = s.get("k")

    if entity is not None:
        eid = graph.entity_id(entity)
        if eid is None or eid >= graph.num_entities:
            raise CliError(f"--entity: unknown closed-world entity {entity!r}")
        query = kgc.embeddings.entity_embedding(eid)
    else:
        map_path = _input_file(s, "map-checkpoint")
        meta = graphmod.EntityText("query", free_text, description or "")
        store = _entity_rows(s, {0: meta}).store
        map_model = mapping.load_map(map_path)
        mapping.check_fit(map_model, kgc, store.dim, map_path, s.get("kgc-checkpoint"),
                          s.get("embeddings"))
        query = mapping.mapped_entity_embedding(kgc, map_model, meta, store)

    lines = []
    for rank, (eid, dist) in enumerate(evaluation.nearest_neighbors(kgc, query, k), 1):
        lines.append(f"{rank}\t{graph.entity_name(eid)}\t{dist:.6f}")
    body = "\n".join(lines) + "\n"
    out = _out_dir(s)  # after the search, which checks -k
    (out / "neighbors.tsv").write_text(body, encoding="utf-8")
    print(body, end="")
    write_manifest(out, "neighbors", s.resolved)


def cmd_sample_owe(s: Settings) -> None:
    """Construct an open-world split."""
    config = _build(s, sampler.SamplerConfig)
    graph = graphmod.load_graph(_input_file(s, "train"))
    split = sampler.sample_open_world(graph, config)
    violations = sampler.validate_split(split)
    if violations:
        raise CliError("generated split violates invariants: " + "; ".join(violations[:5]))
    out = _out_dir(s)

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
        "".join(name + "\n" for name in graph.entity_names[split.open_entities]), encoding="utf-8"
    )
    resolved = dict(s.resolved)
    resolved.update({f"count_{k}": v for k, v in split.manifest.items()})
    write_manifest(out, "sample-owe", resolved)


def cmd_drop_metadata(s: Settings) -> None:
    """Corrupt a metadata file: the records the masks keep, in file order."""
    metadata = graphmod.load_entity_text(_input_file(s, "metadata"))
    kept, described = sampler.corrupt_metadata(
        metadata, mode=s.get("mode"), fraction=s.get("fraction"), seed=s.get("seed")
    )
    corrupted = {key: graphmod.EntityText(key, rec.name, rec.description if keep_text else "")
                 for (key, rec), keep, keep_text in zip(metadata.items(), kept, described) if keep}
    out = _out_dir(s)
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
    args = vars(build_parser().parse_args(argv))
    command = args.pop("command")
    defaults = {name: o.default for name, o in OPTIONS[command].items()}
    try:
        config = {}
        if args["config"]:
            config = load_config_file(args["config"], functools.partial(_config_value, command))
        COMMANDS[command](Settings(args, config, defaults))
    except (CliError, OSError, ValueError, FloatingPointError) as exc:
        print(f"owlink: {exc}", file=sys.stderr)
        return 1
    return 0
