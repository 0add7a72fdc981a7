"""Output checks that run in the benchmark process, outside the timed region.

The re-rank here is written independently of ``owlink.evaluation``: it
reads triples as strings, builds each candidate list explicitly, scores
candidates with complex arithmetic (or the TransE distance) and counts
ties against the target. owlink is used only to read checkpoints, the
graph vocabulary and, for open-world queries, the text-to-graph map.
"""

from __future__ import annotations

from collections import defaultdict
from pathlib import Path

import numpy as np


def read_triples(path: Path) -> list[tuple[str, str, str]]:
    with open(path, encoding="utf-8") as fh:
        return [tuple(line.rstrip("\n").split("\t")) for line in fh if line.strip()]


def read_report(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split("\t")
        return [dict(zip(header, line.rstrip("\n").split("\t"))) for line in fh]


def read_summary(path: Path) -> dict[str, float]:
    out = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        key, value = line.split("=", 1)
        out[key] = float(value)
    return out


def split_is_valid(split_dir: Path) -> list[str]:
    """``sampler.validate_split`` on a split as written by ``sample-owe``."""
    from owlink.graph import Triple
    from owlink.sampler import OwSplit, validate_split

    ids: dict[str, int] = {}

    def intern(name: str) -> int:
        return ids.setdefault(name, len(ids))

    def load(name: str) -> list:
        return [Triple(intern(h), intern("rel:" + r), intern(t))
                for h, r, t in read_triples(split_dir / name)]

    open_entities = [intern(line.strip()) for line in
                     (split_dir / "open_entities.txt").read_text(encoding="utf-8").splitlines()
                     if line.strip()]
    split = OwSplit(load("train.txt"), load("test_tail.txt"), load("test_head.txt"),
                    load("valid.txt"), load("valid_tail.txt"), load("valid_head.txt"),
                    open_entities)
    return validate_split(split)


class BruteForceRanker:
    """Pessimistic filtered ranks from explicit candidate lists.

    ``filter_files`` are the splits whose true triples are filtered out. The
    first must be train: entities seen there in a relation's head or tail
    role are that relation's target-filtering candidates.
    """

    def __init__(self, graph, kgc, filter_files: list[Path], map_model=None,
                 metadata=None, store=None) -> None:
        self.graph = graph
        self.kgc = kgc
        self.map_model = map_model
        self.metadata = metadata or {}
        self.store = store
        self.true_tails: dict[tuple[str, str], set[str]] = defaultdict(set)
        self.true_heads: dict[tuple[str, str], set[str]] = defaultdict(set)
        for path in filter_files:
            for h, r, t in read_triples(path):
                self.true_tails[(h, r)].add(t)
                self.true_heads[(r, t)].add(h)
        self.seen_tail: dict[str, set[str]] = defaultdict(set)
        self.seen_head: dict[str, set[str]] = defaultdict(set)
        for h, r, t in read_triples(filter_files[0]):
            self.seen_tail[r].add(t)
            self.seen_head[r].add(h)
        emb = kgc.embeddings
        self.entities = np.asarray(emb.entity_real, dtype=np.complex128)
        self.relations = np.asarray(emb.relation_real, dtype=np.complex128)
        if emb.is_complex:
            self.entities = self.entities + 1j * emb.entity_imag
            self.relations = self.relations + 1j * emb.relation_imag

    def _query(self, name: str) -> np.ndarray:
        eid = self.graph.entities.get(name)
        if eid is not None:
            return self.entities[eid]
        from owlink.mapping import mapped_entity_embedding

        meta = self.metadata[name]
        mapped = mapped_entity_embedding(self.kgc, self.map_model, meta, self.store)
        if isinstance(mapped, tuple):
            return mapped[0] + 1j * mapped[1]
        return np.asarray(mapped, dtype=np.complex128)

    def _scores(self, query: np.ndarray, rel: np.ndarray, candidates: np.ndarray, tail: bool):
        others = self.entities[candidates]
        if self.kgc.family == "transe":
            diff = (query.real + rel.real - others.real) if tail else (others.real + rel.real - query.real)
            return -np.sqrt((diff * diff).sum(axis=1))
        if tail:
            return np.real((query * rel)[None, :] * np.conj(others)).sum(axis=1)
        return np.real(others * rel[None, :] * np.conj(query)[None, :]).sum(axis=1)

    def rank(self, triple: tuple[str, str, str], direction: str, target_filtering: bool) -> int:
        h, r, t = triple
        tail = direction == "tail"
        query, target = (h, t) if tail else (t, h)
        names = self.graph.entities.names
        if target_filtering:
            allowed = self.seen_tail[r] if tail else self.seen_head[r]
            candidates = [n for n in names if n in allowed]
        else:
            candidates = list(names)
        true = self.true_tails[(h, r)] if tail else self.true_heads[(r, t)]
        candidates = [n for n in candidates if n != target and n not in true]
        idx = np.asarray([self.graph.entities.get(n) for n in candidates + [target]], dtype=np.int64)
        rel = self.relations[self.graph.relations.get(r)]
        scores = self._scores(self._query(query), rel, idx, tail)
        return 1 + int((scores[:-1] >= scores[-1]).sum())


def sample_rows(rows: list, n: int, seed: int) -> list:
    rng = np.random.default_rng(seed)
    if len(rows) <= n:
        return rows
    return [rows[i] for i in sorted(rng.choice(len(rows), size=n, replace=False))]
