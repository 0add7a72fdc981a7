"""Open-world split construction and metadata corruption.

Starting from a closed-world graph, heads are sampled uniformly without
replacement; each sampled head x is removed from the train set by moving
its outgoing triples (x, ?, t) to the tail-prediction test pool and
dropping incoming triples (?, ?, x). A head-prediction test pool is
assembled from dropped triples whose head stays known and whose tail is
open. A final pass enforces that every test triple's known-side entities
and relation are still represented in the reduced train set. Two
validation splits are carved out: a closed-world one from train and an
open-world one from each test pool.

The triple fields of :class:`OwSplit` are ``(n, 3)`` int64 arrays, the
format of the graph's splits: the sampler works on ``graph.train`` with
masks. :func:`validate_split` accepts any ``(head, rel, tail)`` rows.

Outputs are deterministic: same graph + config gives byte-identical files.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .config import ConfigError, check_setting
from .graph import EntityText, KnowledgeGraph, _first_occurrences, as_triples, distinct

MODES = ("descriptions", "all")


class SamplerError(ValueError):
    """Open-world sampling cannot satisfy its invariants."""


@dataclass(frozen=True)
class SamplerConfig:
    seed: int = 0
    head_fraction: float | None = None   # fraction of distinct heads to extract
    head_count: int | None = None        # or an absolute count; exactly one required
    closed_valid_fraction: float = 0.05  # of the remaining train triples
    open_valid_fraction: float = 0.1     # of each test pool

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        hf, hc = self.head_fraction, self.head_count
        if (hf is None) == (hc is None):
            raise ConfigError("exactly one of head_fraction / head_count must be set")
        check_setting("seed", self.seed, self.seed >= 0, ">= 0")
        check_setting("head_fraction", hf, hf is None or 0.0 <= hf < 1.0, "in [0, 1)")
        check_setting("head_count", hc, hc is None or hc >= 0, ">= 0")
        for name in ("closed_valid_fraction", "open_valid_fraction"):
            check_setting(name, getattr(self, name), 0.0 <= getattr(self, name) < 1.0, "in [0, 1)")


@dataclass
class OwSplit:
    train: np.ndarray
    test_tail: np.ndarray                # open head, known relation, known tail
    test_head: np.ndarray                # known head, known relation, open tail
    valid_closed: np.ndarray
    valid_open_tail: np.ndarray
    valid_open_head: np.ndarray
    open_entities: list[int]
    manifest: dict[str, object] = field(default_factory=dict)


_TRIPLE_FIELDS = ("train", "test_tail", "test_head", "valid_closed",
                  "valid_open_tail", "valid_open_head")


def _presence(ids, size: int) -> np.ndarray:
    """A boolean array of ``size`` that is True at each of ``ids``."""
    present = np.zeros(size, dtype=bool)
    present[ids] = True
    return present


def _rows_in_order(rows: np.ndarray, order: np.ndarray):
    """``(index, [head, rel, tail])`` for the rows at ``order``, converted a few
    thousand at a time, so that no Python list per row of all of train is held."""
    for start in range(0, len(order), 4096):
        block = order[start:start + 4096]
        yield from zip(block.tolist(), rows[block].tolist())


def sample_open_world(graph: KnowledgeGraph, config: SamplerConfig) -> OwSplit:
    """Construct an open-world split of a closed-world graph (``config`` is checked when built)."""
    rng = np.random.default_rng(config.seed)

    train = graph.train
    heads = distinct(train[:, 0])
    if config.head_count is not None:
        n_extract = min(config.head_count, len(heads))
    else:
        n_extract = int(round(config.head_fraction * len(heads)))
    sampled = heads[rng.choice(len(heads), size=n_extract, replace=False)]

    # A triple leaves train with whichever of its head and tail comes first
    # in ``sampled`` (the head when both are the same entity): into the tail
    # pool if it is the head, else into the dropped pool. A pool holds the
    # rows of each entity in ``sampled`` order, in train order within one
    # entity; the final filters below drop the triples whose other end is
    # no longer in train.
    size = int(train.max(initial=-1)) + 1  # past every entity and relation id
    position = np.full(size, n_extract)
    position[sampled] = np.arange(n_extract)
    i, j = position[train[:, 0]], position[train[:, 2]]
    to_tail = (i < n_extract) & (i <= j)
    to_drop = ~to_tail & (j < n_extract)
    tail_pool = train[to_tail][np.argsort(i[to_tail], kind="stable")]
    dropped_pool = train[to_drop][np.argsort(j[to_drop], kind="stable")]
    train = train[~(to_tail | to_drop)]

    if not len(train):
        raise SamplerError("sampling would empty the train set")

    # Closed-world validation: random train triples, moved out of train, but
    # only when every id they mention stays represented elsewhere in train.
    valid_closed = train[:0]
    n_valid = int(round(config.closed_valid_fraction * len(train)))
    if n_valid:
        ent_count = np.bincount(train[:, ::2].ravel()).tolist()
        rel_count = np.bincount(train[:, 1]).tolist()
        chosen = []
        for idx, (h, r, t) in _rows_in_order(train, rng.permutation(len(train))):
            ok = rel_count[r] > 1 and (ent_count[h] > 2 if h == t else ent_count[h] > 1 and ent_count[t] > 1)
            if ok:
                ent_count[h] -= 1
                ent_count[t] -= 1
                rel_count[r] -= 1
                chosen.append(idx)
                if len(chosen) == n_valid:
                    break
        is_valid = _presence(chosen, len(train))
        valid_closed, train = train[is_valid], train[~is_valid]

    # Every sampled entity left train whole, so the heads of the tail pool
    # and the tails of the dropped pool are open; their other end and their
    # relation must still occur in train.
    entity_known = _presence(train[:, ::2], size)
    relation_known = _presence(train[:, 1], size)
    tail_pool = tail_pool[_first_occurrences(tail_pool)]
    test_tail = tail_pool[relation_known[tail_pool[:, 1]] & entity_known[tail_pool[:, 2]]]
    dropped_pool = dropped_pool[_first_occurrences(dropped_pool)]
    test_head = dropped_pool[entity_known[dropped_pool[:, 0]] & relation_known[dropped_pool[:, 1]]]

    def carve_valid(pool: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        n = int(round(config.open_valid_fraction * len(pool)))
        is_valid = np.zeros(len(pool), dtype=bool)
        if n:
            is_valid[rng.choice(len(pool), size=n, replace=False)] = True
        return pool[is_valid], pool[~is_valid]

    valid_open_tail, test_tail = carve_valid(test_tail)
    valid_open_head, test_head = carve_valid(test_head)

    split = OwSplit(train, test_tail, test_head, valid_closed, valid_open_tail,
                    valid_open_head, np.sort(sampled).tolist())
    split.manifest = {**asdict(config), "sampled_heads": n_extract,
                      **{f"{name}_triples": len(getattr(split, name)) for name in _TRIPLE_FIELDS},
                      "open_entities": len(split.open_entities)}
    return split


# validate_split's checks of each triple, in message order: a column, and
# whether its id must occur in train or must not (the entity is open).
_FAILURES = {(0, True): "head unknown in train", (1, True): "relation unknown in train",
             (2, True): "tail unknown in train", (0, False): "head is not open",
             (2, False): "tail is not open"}
_OPEN_HEAD, _OPEN_TAIL = ((0, False), (1, True), (2, True)), ((0, True), (2, False), (1, True))
_ROW_CHECKS = {"test_tail": _OPEN_HEAD, "valid_open_tail": _OPEN_HEAD,
               "test_head": _OPEN_TAIL, "valid_open_head": _OPEN_TAIL,
               "valid_closed": ((0, True), (1, True), (2, True))}


def validate_split(split: OwSplit) -> list[str]:
    """Check every OwSplit invariant; empty list means the split is valid.

    The triple fields may be ``(n, 3)`` arrays or sequences of ``(head, rel,
    tail)`` rows; a violating row prints as ``graph.Triple`` prints it.
    """
    pools = {name: as_triples(getattr(split, name)) for name in _TRIPLE_FIELDS}
    open_ids = distinct(np.asarray(split.open_entities, dtype=np.int64))
    size = 1 + max(int(ids.max(initial=0)) for ids in [open_ids, *pools.values()])
    train = pools["train"]
    entity_known = _presence(train[:, ::2], size)
    known = (entity_known, _presence(train[:, 1], size), entity_known)  # by column

    violations = [f"open entity {ent} occurs in train"
                  for ent in open_ids[entity_known[open_ids]].tolist()]

    for name, checks in _ROW_CHECKS.items():
        pool = pools[name]
        failed = np.column_stack([known[col][pool[:, col]] != must_be_known
                                  for col, must_be_known in checks])
        bad = failed.any(axis=1)
        for (h, r, t), fails in zip(pool[bad].tolist(), failed[bad].tolist()):
            violations += [f"{name} Triple(head={h}, rel={r}, tail={t}): {_FAILURES[check]}"
                           for check, fail in zip(checks, fails) if fail]

    rel_base = 1 + max(int(pool[:, 1].max(initial=0)) for pool in pools.values())
    seen = np.empty(0, dtype=np.int64)  # sorted packed keys of the earlier splits
    for name, pool in pools.items():
        keys = distinct((pool[:, 0] * rel_base + pool[:, 1]) * size + pool[:, 2])
        if len(keys) != len(pool):
            violations.append(f"{name}: contains duplicate triples")
        union = distinct(np.concatenate([seen, keys]))
        overlap = len(seen) + len(keys) - len(union)
        if overlap:
            violations.append(f"{name}: {overlap} triples overlap earlier splits")
        seen = union
    return violations


def check_fraction(value) -> float:
    """``value`` as a float when it is in [0, 1]; raises ``ConfigError`` otherwise."""
    fraction = float(value)
    check_setting("fraction", value, 0.0 <= fraction <= 1.0, "in [0, 1]")
    return fraction


def corrupt_metadata(
    metadata: dict[str, EntityText],
    mode: str,
    fraction: float,
    seed: int = 0,
) -> dict[str, EntityText]:
    """Blank descriptions or drop whole records for a sampled entity subset.

    ``mode="descriptions"`` blanks the description (name kept);
    ``mode="all"`` removes the record entirely. Deterministic under seed.
    """
    check_setting("mode", repr(mode), mode in MODES, f"one of {MODES}")
    check_fraction(fraction)
    check_setting("seed", seed, seed >= 0, ">= 0")
    rng = np.random.default_rng(seed)
    keys = sorted(metadata)
    n_hit = int(round(fraction * len(keys)))
    hit = {keys[i] for i in rng.choice(len(keys), size=n_hit, replace=False)}
    return {key: EntityText(rec.entity, rec.name, "" if key in hit else rec.description)
            for key, rec in metadata.items() if key not in hit or mode == "descriptions"}
