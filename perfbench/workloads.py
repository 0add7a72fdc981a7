"""The three benchmark workloads: their generated inputs and CLI pipelines.

Each workload stresses a different layer and bypasses others, so that a
change to one layer shows where it should and nowhere else:

* owe-complex: the paper's setting. The sampler's per-head rescans over a
  train set of FB15k-237's entity count and open-world ranking (both
  directions) are the two largest stages; text is light.
* closed-transe: many KGC epochs with per-epoch validation, then a
  closed-world eval. The train step dominates; sampler, text and mapping
  do no work; scoring goes through TransE's distance branch.
* text-robustness: a vector file much larger than the vocabulary the
  metadata uses, phrase keys for names and long descriptions, then an MLP
  map with word dropout and target-filtered ranking over a
  metadata-dropping sweep. KGC training and the sampler are small.

Test pools are cut to a fixed number of triples so that every seed ranks
the same number of queries; the cut is done by the benchmark between
commands and is not timed.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

# FB15k-237's shape: 14,541 entities and 237 relations.
_FB_ENTITIES = 14541
_GRAPH = {"relations": 237, "domain_size": 6, "max_hubs": 4, "hub_share": 0.7,
          "head_skew_share": 0.5, "duplicate_share": 0.005}

SPECS = {
    "owe-complex": {
        "salt": 1,
        "graph": {**_GRAPH, "entities": _FB_ENTITIES, "clusters": 100, "triples": 100000},
        "text": {
            "dim": 100, "topic_words": 8, "generic_words": 1500, "desc_words": (6, 14),
            "topic_share": 0.6, "coverage": 1.0, "desc_coverage": 0.9,
            "oov_share": 0.0, "phrase_share": 0.0, "unused_rows": 0,
        },
        "run": {"head_count": 100, "tail_queries": 120, "head_queries": 50, "valid_queries": 20,
                "dim": 32, "kgc_epochs": 1, "map_epochs": 6},
    },
    "closed-transe": {
        "salt": 2,
        "graph": {**_GRAPH, "entities": _FB_ENTITIES, "clusters": 100, "triples": 40000,
                  "closed_split": (200, 200)},
        "run": {"dim": 50, "kgc_epochs": 4, "valid_max": 10},
    },
    "text-robustness": {
        "salt": 3,
        "graph": {**_GRAPH, "entities": 4000, "clusters": 40, "triples": 15000},
        "text": {
            "dim": 300, "topic_words": 12, "generic_words": 3000, "desc_words": (20, 40),
            "topic_share": 0.5, "coverage": 0.97, "desc_coverage": 0.95,
            "oov_share": 0.05, "phrase_share": 0.5, "unused_rows": 16000,
        },
        "run": {"head_count": 60, "tail_queries": 150, "dim": 50, "kgc_epochs": 4,
                "map_epochs": 2, "fractions": "0,0.4,0.8"},
    },
}

# The smoke scale keeps every stage but shrinks sizes so a run takes seconds.
TINY = {
    "graph": {"entities": 400, "triples": 1500, "clusters": 10, "closed_split": (30, 30)},
    "text": {"generic_words": 200, "unused_rows": 200},
    "run": {"head_count": 10, "tail_queries": 20, "head_queries": 10, "kgc_epochs": 1,
            "map_epochs": 2, "dim": 16},
}

WORKLOADS = tuple(SPECS)
OWLINK_SEED = "0"  # owlink sees only the generated files; its own seed is fixed


def spec_for(workload: str, scale: str) -> dict:
    spec = {k: (dict(v) if isinstance(v, dict) else v) for k, v in SPECS[workload].items()}
    if scale == "tiny":
        for part, overrides in TINY.items():
            if part in spec:
                spec[part].update({k: v for k, v in overrides.items() if k in spec[part]})
    return spec


@dataclass
class Command:
    """One owlink CLI invocation; ``stage`` groups commands into end-to-end metrics."""

    label: str
    stage: str
    argv: list[str]
    outputs: tuple[str, ...] = ()


@dataclass
class Cut:
    """Keep the first ``n`` lines of a generated test pool (untimed)."""

    src: Path
    dst: Path
    n: int

    def apply(self) -> None:
        lines = self.src.read_text(encoding="utf-8").splitlines(keepends=True)[: self.n]
        self.dst.write_text("".join(lines), encoding="utf-8")


def _kgc(train: Path, valid: Path, family: str, run: dict, out: Path, lr: str,
         valid_every: int, valid_max: int) -> Command:
    return Command("train-kgc", "train_kgc", [
        "train-kgc", "--train", str(train), "--valid", str(valid), "--family", family,
        "--dim", str(run["dim"]), "--epochs", str(run["kgc_epochs"]), "--learning-rate", lr,
        "--batch-size", "512", "--valid-every", str(valid_every),
        "--valid-max-triples", str(valid_max), "--seed", OWLINK_SEED, "--out", str(out),
    ], ("train_log.tsv",))


def pipeline(workload: str, spec: dict, inputs: Path, work: Path) -> list:
    """Commands (and untimed cuts) of one pass, writing under ``work``."""
    run = spec["run"]
    split = work / "split"
    kgc = work / "kgc" / "kgc.ckpt"
    text = ["--metadata", str(inputs / "metadata.tsv"), "--embeddings", str(inputs / "vectors.txt")]
    sample = Command("sample-owe", "sample_owe", [
        "sample-owe", "--train", str(inputs / "train.txt"), "--head-count", str(run.get("head_count")),
        "--seed", OWLINK_SEED, "--out", str(split),
    ], ("train.txt", "valid.txt", "test_tail.txt", "test_head.txt", "valid_tail.txt",
        "valid_head.txt", "open_entities.txt"))

    if workload == "owe-complex":
        steps = [
            sample,
            Cut(split / "test_tail.txt", split / "test_tail_k.txt", run["tail_queries"]),
            Cut(split / "test_head.txt", split / "test_head_k.txt", run["head_queries"]),
            Cut(split / "valid_tail.txt", split / "valid_tail_k.txt", run["valid_queries"]),
            _kgc(split / "train.txt", split / "valid.txt", "complex", run, work / "kgc", "0.05",
                 run["kgc_epochs"], 10),
            Command("train-map", "train_map", [
                "train-map", "--train", str(split / "train.txt"), "--valid", str(split / "valid_tail_k.txt"),
                "--kgc-checkpoint", str(kgc), *text, "--kind", "affine",
                "--epochs", str(run["map_epochs"]), "--learning-rate", "0.003",
                "--valid-every", str(run["map_epochs"]), "--seed", OWLINK_SEED,
                "--out", str(work / "map"),
            ], ("map_log.tsv",)),
        ]
        for direction in ("tail", "head"):
            steps.append(Command(f"eval-{direction}", "eval", [
                "eval", "--train", str(split / "train.txt"),
                "--valid", str(split / f"valid_{direction}.txt"),
                "--test", str(split / f"test_{direction}_k.txt"),
                "--kgc-checkpoint", str(kgc), "--map-checkpoint", str(work / "map" / "map.ckpt"),
                *text, "--direction", direction, "--seed", OWLINK_SEED,
                "--out", str(work / f"eval-{direction}"),
            ], ("report.tsv", "summary.txt")))
        return steps

    if workload == "closed-transe":
        files = ["--train", str(inputs / "train.txt"), "--valid", str(inputs / "valid.txt")]
        return [
            _kgc(inputs / "train.txt", inputs / "valid.txt", "transe", run, work / "kgc", "0.01",
                 1, run["valid_max"]),
            Command("eval-tail", "eval", [
                "eval", *files, "--test", str(inputs / "test.txt"), "--kgc-checkpoint", str(kgc),
                "--direction", "tail", "--seed", OWLINK_SEED, "--out", str(work / "eval-tail"),
            ], ("report.tsv", "summary.txt")),
        ]

    if workload == "text-robustness":
        return [
            sample,
            Cut(split / "test_tail.txt", split / "test_tail_k.txt", run["tail_queries"]),
            _kgc(split / "train.txt", split / "valid.txt", "distmult", run, work / "kgc", "0.05",
                 run["kgc_epochs"], 10),
            Command("robustness", "eval", [
                "robustness", "--train", str(split / "train.txt"),
                "--test", str(split / "test_tail_k.txt"), "--kgc-checkpoint", str(kgc), *text,
                "--kind", "mlp", "--dropout", "0.3", "--epochs", str(run["map_epochs"]),
                "--learning-rate", "0.003", "--target-filtering",
                "--fractions", run["fractions"], "--modes", "descriptions,all",
                "--seed", OWLINK_SEED, "--out", str(work / "robustness"),
            ], ("robustness.tsv",)),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def check_pipeline(workload: str, spec: dict, inputs: Path, work: Path) -> list[Command]:
    """Untimed commands whose output the benchmark re-ranks, run after the
    timed passes on the first pass's split and KGC checkpoint.

    The robustness sweep keeps its maps in memory, so its ranking path (an
    MLP map with word dropout, then target-filtered tail ranking) is run
    once more as ``train-map`` and ``eval --target-filtering`` with the
    sweep's settings.
    """
    if workload != "text-robustness":
        return []
    run = spec["run"]
    split = work / "split"
    check = work / "check"
    text = ["--metadata", str(inputs / "metadata.tsv"), "--embeddings", str(inputs / "vectors.txt")]
    return [
        Command("check-train-map", "check", [
            "train-map", "--train", str(split / "train.txt"),
            "--kgc-checkpoint", str(work / "kgc" / "kgc.ckpt"), *text, "--kind", "mlp",
            "--dropout", "0.3", "--epochs", str(run["map_epochs"]), "--learning-rate", "0.003",
            "--seed", OWLINK_SEED, "--out", str(check / "map"),
        ], ("map_log.tsv",)),
        Command("check-eval-tail", "check", [
            "eval", "--train", str(split / "train.txt"), "--test", str(split / "test_tail_k.txt"),
            "--kgc-checkpoint", str(work / "kgc" / "kgc.ckpt"),
            "--map-checkpoint", str(check / "map" / "map.ckpt"), *text, "--direction", "tail",
            "--target-filtering", "--seed", OWLINK_SEED, "--out", str(check / "eval-tail"),
        ], ("report.tsv", "summary.txt")),
    ]
