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

Outputs are deterministic: same graph + config gives byte-identical files.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graph import EntityText, KnowledgeGraph, Triple

MODES = ("descriptions", "all")


class SamplerError(ValueError):
    """Open-world sampling cannot satisfy its invariants."""


@dataclass
class SamplerConfig:
    seed: int = 0
    head_fraction: float | None = None   # fraction of distinct heads to extract
    head_count: int | None = None        # or an absolute count; exactly one required
    closed_valid_fraction: float = 0.05  # of the remaining train triples
    open_valid_fraction: float = 0.1     # of each test pool

    def validate(self) -> None:
        if (self.head_fraction is None) == (self.head_count is None):
            raise SamplerError("exactly one of head_fraction / head_count must be set")
        if self.head_fraction is not None and not 0.0 <= self.head_fraction < 1.0:
            raise SamplerError(f"head_fraction must be in [0, 1), got {self.head_fraction}")
        if self.head_count is not None and self.head_count < 0:
            raise SamplerError(f"head_count must be >= 0, got {self.head_count}")
        if not 0.0 <= self.closed_valid_fraction < 1.0:
            raise SamplerError("closed_valid_fraction must be in [0, 1)")
        if not 0.0 <= self.open_valid_fraction < 1.0:
            raise SamplerError("open_valid_fraction must be in [0, 1)")


@dataclass
class OwSplit:
    train: list[Triple]
    test_tail: list[Triple]              # open head, known relation, known tail
    test_head: list[Triple]              # known head, known relation, open tail
    valid_closed: list[Triple]
    valid_open_tail: list[Triple]
    valid_open_head: list[Triple]
    open_entities: list[int]
    manifest: dict[str, object] = field(default_factory=dict)


def _entity_and_relation_sets(triples) -> tuple[set[int], set[int]]:
    entities: set[int] = set()
    relations: set[int] = set()
    for h, r, t in triples:
        entities.add(h)
        entities.add(t)
        relations.add(r)
    return entities, relations


def sample_open_world(graph: KnowledgeGraph, config: SamplerConfig) -> OwSplit:
    """Construct an open-world split from a closed-world source graph."""
    config.validate()
    rng = np.random.default_rng(config.seed)

    train = list(map(Triple, *graph.train.T.tolist()))
    heads = sorted({h for h, _, _ in train})
    if config.head_count is not None:
        n_extract = min(config.head_count, len(heads))
    else:
        n_extract = int(round(config.head_fraction * len(heads)))
    sampled = [heads[i] for i in rng.choice(len(heads), size=n_extract, replace=False)]
    open_set = set(sampled)

    # One pass: a triple leaves train with whichever of its head and tail
    # comes first in ``sampled`` (the head when both are the same entity),
    # into that entity's tail-pool bucket if it is the head, else its dropped
    # bucket. The pools are the buckets in ``sampled`` order; the final
    # filters below drop the triples whose other end is no longer in train.
    position = {x: i for i, x in enumerate(sampled)}
    moved: list[list[Triple]] = [[] for _ in sampled]
    dropped: list[list[Triple]] = [[] for _ in sampled]
    remaining = []
    for trip in train:
        i = position.get(trip.head, n_extract)
        j = position.get(trip.tail, n_extract)
        if i < n_extract and i <= j:
            moved[i].append(trip)
        elif j < n_extract:
            dropped[j].append(trip)
        else:
            remaining.append(trip)
    train = remaining
    tail_pool = [trip for bucket in moved for trip in bucket]
    dropped_pool = [trip for bucket in dropped for trip in bucket]

    if not train:
        raise SamplerError("sampling would empty the train set")

    # Closed-world validation: random train triples, moved out of train, but
    # only when every id they mention stays represented elsewhere in train.
    valid_closed: list[Triple] = []
    n_valid = int(round(config.closed_valid_fraction * len(train)))
    if n_valid:
        ent_count: dict[int, int] = {}
        rel_count: dict[int, int] = {}
        for h, r, t in train:
            ent_count[h] = ent_count.get(h, 0) + 1
            ent_count[t] = ent_count.get(t, 0) + 1
            rel_count[r] = rel_count.get(r, 0) + 1
        order = rng.permutation(len(train))
        chosen: set[int] = set()
        for i in order:
            if len(chosen) >= n_valid:
                break
            h, r, t = train[i]
            ok = rel_count[r] > 1 and (ent_count[h] > 2 if h == t else ent_count[h] > 1 and ent_count[t] > 1)
            if ok:
                ent_count[h] -= 1
                ent_count[t] -= 1
                rel_count[r] -= 1
                chosen.add(i)
        valid_closed = [train[i] for i in sorted(chosen)]
        train = [trip for i, trip in enumerate(train) if i not in chosen]

    final_entities, final_relations = _entity_and_relation_sets(train)

    test_tail = [
        trip
        for trip in dict.fromkeys(tail_pool)
        if trip.head in open_set
        and trip.head not in final_entities
        and trip.rel in final_relations
        and trip.tail in final_entities
    ]
    test_head = [
        trip
        for trip in dict.fromkeys(dropped_pool)
        if trip.head in final_entities
        and trip.rel in final_relations
        and trip.tail in open_set
        and trip.tail not in final_entities
    ]

    def carve_valid(pool: list[Triple]) -> tuple[list[Triple], list[Triple]]:
        n = int(round(config.open_valid_fraction * len(pool)))
        if not n:
            return [], pool
        idx = set(rng.choice(len(pool), size=n, replace=False).tolist())
        valid = [pool[i] for i in sorted(idx)]
        rest = [trip for i, trip in enumerate(pool) if i not in idx]
        return valid, rest

    valid_open_tail, test_tail = carve_valid(test_tail)
    valid_open_head, test_head = carve_valid(test_head)

    open_entities = sorted(open_set)
    manifest = {
        "seed": config.seed,
        "head_fraction": config.head_fraction,
        "head_count": config.head_count,
        "closed_valid_fraction": config.closed_valid_fraction,
        "open_valid_fraction": config.open_valid_fraction,
        "sampled_heads": n_extract,
        "train_triples": len(train),
        "valid_closed_triples": len(valid_closed),
        "test_tail_triples": len(test_tail),
        "valid_open_tail_triples": len(valid_open_tail),
        "test_head_triples": len(test_head),
        "valid_open_head_triples": len(valid_open_head),
        "open_entities": len(open_entities),
    }
    return OwSplit(
        train, test_tail, test_head, valid_closed,
        valid_open_tail, valid_open_head, open_entities, manifest,
    )


def validate_split(split: OwSplit) -> list[str]:
    """Check every OwSplit invariant; empty list means the split is valid."""
    violations: list[str] = []
    train_entities, train_relations = _entity_and_relation_sets(split.train)
    open_set = set(split.open_entities)

    for ent in sorted(open_set & train_entities):
        violations.append(f"open entity {ent} occurs in train")

    for name, pool in (
        ("test_tail", split.test_tail),
        ("valid_open_tail", split.valid_open_tail),
    ):
        for trip in pool:
            if trip.head in train_entities:
                violations.append(f"{name} {trip}: head is not open")
            if trip.rel not in train_relations:
                violations.append(f"{name} {trip}: relation unknown in train")
            if trip.tail not in train_entities:
                violations.append(f"{name} {trip}: tail unknown in train")

    for name, pool in (
        ("test_head", split.test_head),
        ("valid_open_head", split.valid_open_head),
    ):
        for trip in pool:
            if trip.head not in train_entities:
                violations.append(f"{name} {trip}: head unknown in train")
            if trip.tail in train_entities:
                violations.append(f"{name} {trip}: tail is not open")
            if trip.rel not in train_relations:
                violations.append(f"{name} {trip}: relation unknown in train")

    seen: set[Triple] = set()
    for name in ("train", "test_tail", "test_head", "valid_closed",
                 "valid_open_tail", "valid_open_head"):
        pool = getattr(split, name)
        if len(set(pool)) != len(pool):
            violations.append(f"{name}: contains duplicate triples")
        overlap = seen & set(pool)
        if overlap:
            violations.append(f"{name}: {len(overlap)} triples overlap earlier splits")
        seen |= set(pool)
    return violations


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
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    rng = np.random.default_rng(seed)
    keys = sorted(metadata)
    n_hit = int(round(fraction * len(keys)))
    hit = {keys[i] for i in rng.choice(len(keys), size=n_hit, replace=False)}
    out: dict[str, EntityText] = {}
    for key in metadata:
        rec = metadata[key]
        if key not in hit:
            out[key] = EntityText(rec.entity, rec.name, rec.description)
        elif mode == "descriptions":
            out[key] = EntityText(rec.entity, rec.name, "")
        # mode == "all": record removed
    return out
