"""Ranking evaluation: raw/filtered ranks, MR, MRR, Hits@k, baselines.

Protocol: for each test triple the target entity is ranked among all known
entities by score. The filtered rank removes every other known-true
candidate for the same (head, relation) — only the target's own reciprocal
rank enters the MRR; it is the raw rank less the filter ids that outrank or
tie the target. Tie-breaking is pessimistic: candidates scoring equal to the
target count against it. Optional target filtering restricts candidates to
entities observed in the same role for the relation in training. A triple is
skipped for the first of: an open target, a target outside that role under
target filtering, an open query without text.

A :class:`RankingReport` is one record array, a row per input triple; its
means are Python ``sum`` over column lists, as in the brute-force oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import check_setting
from .graph import SPLITS, KnowledgeGraph, as_triples, build_filter_index, distinct
from .mapping import MapModel, mapped_embedding
from .models import NORM_BLOCK_ROWS, KgcModel, better_or_tied
from .text import EntityRows, keep_rows

SKIP_NO_METADATA = "no-metadata"
SKIP_TARGET_FILTERING = "target-filtering"
SKIP_OPEN_TARGET = "open-target"

DIRECTIONS = ("tail", "head")


@dataclass(frozen=True)
class EvalConfig:
    direction: str = "tail"
    filtered: bool = True
    filter_splits: tuple[str, ...] = SPLITS
    target_filtering: bool = False
    hits_k: tuple[int, ...] = (1, 3, 10)

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        check_setting("direction", repr(self.direction), self.direction in DIRECTIONS,
                      "'tail' or 'head'")
        splits = self.filter_splits
        check_setting("filter_splits", ",".join(splits), set(splits) <= set(SPLITS),
                      f"each one of {SPLITS}")
        hits = self.hits_k
        ok = bool(hits) and hits[0] >= 1 and all(a < b for a, b in zip(hits, hits[1:]))
        check_setting("hits_k", hits, ok, "strictly ascending and >= 1")


@dataclass
class RankingReport:
    """``results`` is one record array with a row per input triple:
    ``triple`` (head, rel, tail), ``raw_rank`` and ``filtered_rank`` (0 on
    skipped rows), ``skipped`` and the skip ``reason`` ("" on ranked rows)."""

    config: EvalConfig
    results: np.recarray

    @property
    def evaluated(self) -> np.recarray:
        return self.results[~self.results.skipped]

    @property
    def evaluated_count(self) -> int:
        return len(self.evaluated)

    @property
    def skipped_count(self) -> int:
        return len(self.results) - self.evaluated_count

    def _ranks(self) -> np.ndarray:
        evaluated = self.evaluated
        return evaluated.filtered_rank if self.config.filtered else evaluated.raw_rank

    @property
    def mr(self) -> float:
        return _mean(self._ranks().tolist())

    @property
    def mrr_raw(self) -> float:
        return _mean((1.0 / self.evaluated.raw_rank).tolist())

    @property
    def mrr_filtered(self) -> float:
        return _mean((1.0 / self.evaluated.filtered_rank).tolist())

    @property
    def hits(self) -> dict[int, float]:
        ranks = self._ranks()
        if len(ranks) == 0:
            return {k: float("nan") for k in self.config.hits_k}
        return {k: int(np.count_nonzero(ranks <= k)) / len(ranks) for k in self.config.hits_k}

    def summary(self) -> dict[str, float | int]:
        return {"evaluated": self.evaluated_count, "skipped": self.skipped_count,
                "mr": self.mr, "mrr_raw": self.mrr_raw, "mrr_filtered": self.mrr_filtered,
                **{f"hits_{k}": v for k, v in self.hits.items()}}

    def summary_text(self) -> str:
        return "".join(f"{key}={value!r}\n" for key, value in self.summary().items())

    def table_text(self) -> str:
        """Metrics as percentages with one decimal."""
        parts = [
            f"MRR(filt) {100 * self.mrr_filtered:.1f}",
            f"MRR(raw) {100 * self.mrr_raw:.1f}",
        ]
        for k, v in self.hits.items():
            parts.append(f"Hits@{k} {100 * v:.1f}")
        return "  ".join(parts)


def _mean(values: list) -> float:
    return sum(values) / len(values) if values else float("nan")


def rank_target(scores: np.ndarray, target: int, exclude: set[int] | None = None,
                candidates: np.ndarray | None = None) -> int:
    """Pessimistic rank of the target among non-excluded candidates.

    rank = 1 + #(better) + #(ties), counting only entities inside the
    boolean ``candidates`` mask (every entity when None), outside
    ``exclude`` and distinct from the target. This is :func:`_rank_pair`,
    the one ranking rule, over a score vector; evaluation, baselines and
    KGC validation apply that rule to ``models.better_or_tied``'s comparison.
    """
    scores = np.asarray(scores)
    if not 0 <= target < len(scores):
        raise IndexError(f"target {target} out of range for {len(scores)} scores")
    if exclude and target in exclude:
        raise ValueError("target must not be excluded")
    return _rank_pair(scores >= scores[target], target, candidates, list(exclude or ()))[1]


def _rank_pair(better: np.ndarray, target: int, candidates: np.ndarray | None,
               excluded: np.ndarray | list[int]) -> tuple[int, int]:
    """The ranking rule: from ``better`` (each score >= the target's; modified
    in place), the raw rank 1 + #(better among ``candidates``, not the target)
    and that rank less the distinct ``excluded`` ids (the target may be one)."""
    if candidates is not None:
        better &= candidates
    better[target] = False
    raw = 1 + int(np.count_nonzero(better))
    return raw, raw - int(np.count_nonzero(better[excluded]))


def _evaluate_core(
    kgc_model: KgcModel,
    graph: KnowledgeGraph,
    config: EvalConfig | None,
    triples,
    map_model: MapModel | None = None,
    entity_rows: EntityRows | None = None,
    rng: np.random.Generator | None = None,
) -> RankingReport:
    """The one ranking loop over ``triples`` (``graph.test`` when None). Before
    any scoring, each row gets the first skip reason that holds (module
    docstring) and each ranked row a query id: its own, or with ``rng`` one
    draw per ranked row, in row order, from the train entities in its role.
    Open queries are averaged in one :func:`text.keep_rows` call and mapped
    once each. Ranked rows go in blocks through ``models.better_or_tied`` (one
    GEMM per block, the kernel where its rounding bound cannot decide)."""
    config = config if config is not None else EvalConfig()
    triples = as_triples(triples if triples is not None else graph.test)
    filter_index = build_filter_index(graph, config.filter_splits, triples)
    tail_direction = config.direction == "tail"
    num_e = graph.num_entities
    q_col, t_col = (0, 2) if tail_direction else (2, 0)
    queries, targets = triples[:, q_col], triples[:, t_col]

    in_role = targets < num_e  # open targets are skipped before target filtering
    if config.target_filtering:  # one candidate mask per relation that occurs
        relations, slot = np.unique(triples[:, 1], return_inverse=True)
        known = graph.known_tails if tail_direction else graph.known_heads
        masks = np.zeros((len(relations), num_e), dtype=bool)
        for i, r in enumerate(relations.tolist()):
            masks[i, known[r]] = True
        in_role[in_role] = masks[slot[in_role], targets[in_role]]
    no_text = np.zeros(len(triples), dtype=bool)
    if entity_rows is not None:
        with_text = entity_rows.entities[entity_rows.has_text]
        no_text = (queries >= num_e) & ~np.isin(queries, with_text)
    reasons = np.select([targets >= num_e, ~in_role, no_text],
                        [SKIP_OPEN_TARGET, SKIP_TARGET_FILTERING, SKIP_NO_METADATA], "")
    ranked = np.flatnonzero(reasons == "")

    query_ids = queries[ranked]
    if rng is not None:
        pool = distinct(graph.train[:, q_col])
        if len(pool) == 0:
            raise ValueError("empty training split")
        query_ids = pool[rng.integers(0, len(pool), size=len(ranked))]
    open_ids, mapped = query_ids[query_ids >= num_e], {}
    if len(open_ids):  # each has rows: the no-metadata skip came first
        if map_model is None or entity_rows is None:
            raise ValueError("open-world query entity encountered but no map_model/entity_rows")
        texts = entity_rows.select(np.isin(entity_rows.entities, open_ids))
        means = np.asarray(keep_rows(texts.store.matrix, texts.rows, texts.offsets[::3]))
        mapped = {q: mapped_embedding(kgc_model, map_model, mean)
                  for q, mean in zip(texts.entities.tolist(), means)}

    raw_rank, filtered_rank = np.zeros((2, len(triples)), dtype=np.int64)
    embeddings = (kgc_model.embeddings.entity_embedding(q) if q < num_e else mapped[q]
                  for q in query_ids.tolist())
    blocks = better_or_tied(kgc_model, embeddings, triples[ranked, 1], targets[ranked],
                            tail_direction)
    rows = (row for block in blocks for row in block)
    for i, h, r, t, better in zip(ranked.tolist(), *triples[ranked].T.tolist(), rows):
        true_ids = filter_index.tails(h, r) if tail_direction else filter_index.heads(r, t)
        true_ids = true_ids[:np.searchsorted(true_ids, num_e)]
        raw_rank[i], filtered_rank[i] = _rank_pair(
            better, targets[i], masks[slot[i]] if config.target_filtering else None, true_ids)
    results = np.rec.fromarrays(
        [triples, raw_rank, filtered_rank, reasons != "", reasons],
        dtype=[("triple", np.int64, (3,)), ("raw_rank", np.int64), ("filtered_rank", np.int64),
               ("skipped", bool), ("reason", reasons.dtype)])
    return RankingReport(config, results)


def evaluate(
    kgc_model: KgcModel,
    graph: KnowledgeGraph,
    config: EvalConfig | None = None,
    map_model: MapModel | None = None,
    entity_rows: EntityRows | None = None,
    triples=None,
) -> RankingReport:
    """Rank every test triple and aggregate MR / MRR / Hits@k.

    Closed-world query entities use their trained embedding rows; open-world
    ones map the mean of their rows in ``entity_rows`` through ``map_model``,
    once per distinct entity, and are skipped when they have no rows. An open
    query that would be ranked without both raises ValueError before any
    scoring.
    """
    return _evaluate_core(kgc_model, graph, config, triples, map_model, entity_rows)


def closed_world_validator(graph: KnowledgeGraph, max_triples: int | None = None):
    """Filtered MRR over tail and head prediction of the first ``max_triples``
    (all when None) of ``graph.valid``, as a ``model -> score`` callable for
    ``models.train_kgc``. Each call ranks through ``_evaluate_core``, which builds
    the train+valid filter index of those triples, as every ranking does."""
    check_setting("valid max triples", max_triples, max_triples is None or max_triples >= 1, ">= 1")
    triples = graph.valid[:max_triples]
    configs = [EvalConfig(direction=d, filter_splits=("train", "valid")) for d in ("tail", "head")]

    def validator(kgc_model: KgcModel) -> float:
        if len(triples) == 0:
            return 0.0
        tails, heads = [_evaluate_core(kgc_model, graph, config, triples) for config in configs]
        total = 0.0  # one rank at a time, tail before head: the order fixes the last bits
        for tail, head in zip(tails.results, heads.results):
            total = total + 1.0 / tail.filtered_rank + 1.0 / head.filtered_rank
        return total / (2 * len(triples))

    return validator


def open_world_validator(kgc_model: KgcModel, graph: KnowledgeGraph, entity_rows: EntityRows):
    """Filtered tail MRR over ``graph.valid`` (0 when nothing is ranked), as
    a ``map_model -> score`` callable for ``mapping.train_map``."""
    config = EvalConfig(filter_splits=("train", "valid"))

    def validator(map_model: MapModel) -> float:
        report = evaluate(kgc_model, graph, config, map_model, entity_rows, triples=graph.valid)
        return report.mrr_filtered if report.evaluated_count else 0.0

    return validator


def random_head_baseline(
    kgc_model: KgcModel,
    graph: KnowledgeGraph,
    config: EvalConfig | None = None,
    seed: int = 0,
    triples=None,
) -> RankingReport:
    """Evaluation with each ranked row's query replaced by a uniformly drawn
    distinct training head (tail direction) or tail (head direction), drawn
    in row order from ``np.random.default_rng(seed)``. Simulates an
    uninformative transformation."""
    return _evaluate_core(kgc_model, graph, config, triples, rng=np.random.default_rng(seed))


def nearest_neighbors(
    kgc_model: KgcModel, query_embedding, k: int
) -> list[tuple[int, float]]:
    """k nearest known entities by Euclidean distance on the real part,
    ascending, ties broken by entity id. Distances go ``NORM_BLOCK_ROWS``
    rows at a time, so no table-sized temporary is made."""
    query = np.asarray(query_embedding[0] if isinstance(query_embedding, tuple)
                       else query_embedding)
    table = kgc_model.embeddings.entity_real
    check_setting("k", k, 1 <= k <= len(table),
                  f"between 1 and the number of entities {len(table)}")
    dist = np.empty(len(table))
    for start in range(0, len(table), NORM_BLOCK_ROWS):
        diff = table[start:start + NORM_BLOCK_ROWS] - query
        dist[start:start + NORM_BLOCK_ROWS] = np.sqrt((diff * diff).sum(axis=1))
    order = np.lexsort((np.arange(len(table)), dist))[:k]
    return [(int(i), float(dist[i])) for i in order]


def write_report_tsv(path: str, graph: KnowledgeGraph, report: RankingReport) -> None:
    """Per-triple report: head, rel, tail, raw_rank, filtered_rank, reason."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("head\trel\ttail\traw_rank\tfiltered_rank\tskipped_reason\n")
        for (h, r, t), raw, filtered, skipped, reason in report.results.tolist():
            ranks = "\t" if skipped else f"{raw}\t{filtered}"
            fh.write(
                f"{graph.entity_name(h)}\t{graph.relations.name(r)}\t{graph.entity_name(t)}"
                f"\t{ranks}\t{reason}\n"
            )
