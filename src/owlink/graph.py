"""Knowledge graph loading, interning, filter indices and entity metadata.

On-disk formats:
  * Triple files: UTF-8, one triple per line, exactly two TAB separators,
    no header: ``head<TAB>relation<TAB>tail``.
  * Metadata files: UTF-8 TSV ``entity_id<TAB>name<TAB>description``;
    literal tabs/newlines/backslashes inside text fields are escaped as
    ``\\t``, ``\\n`` and ``\\\\``.

Entity and relation ids are interned to dense integers (first occurrence
wins, file order). Open-world entities (unseen in train) get ids starting
at ``num_entities``, so a single integer id space covers both vocabularies.
"""

from __future__ import annotations

import logging
import re
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

logger = logging.getLogger(__name__)


class ParseError(ValueError):
    """A line in an input file does not match the expected format."""


class VocabularyError(ValueError):
    """An id references an entity or relation outside the vocabulary."""


class MetadataError(ValueError):
    """Entity metadata file is ambiguous or malformed."""


class Triple(NamedTuple):
    head: int
    rel: int
    tail: int


class Vocab:
    """Interns string ids to dense contiguous indices, first occurrence wins."""

    __slots__ = ("_index", "_names")

    def __init__(self, names: Iterable[str] = ()) -> None:
        self._index: dict[str, int] = {}
        self._names: list[str] = []
        for name in names:
            self.intern(name)

    def intern(self, name: str) -> int:
        idx = self._index.get(name)
        if idx is None:
            idx = len(self._names)
            self._index[name] = idx
            self._names.append(name)
        return idx

    def get(self, name: str) -> int | None:
        return self._index.get(name)

    def name(self, idx: int) -> str:
        return self._names[idx]

    @property
    def names(self) -> list[str]:
        return list(self._names)

    def __len__(self) -> int:
        return len(self._names)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Vocab) and self._names == other._names


@dataclass
class EntityText:
    """Name and optional description for one entity; either may be empty."""

    entity: str
    name: str = ""
    description: str = ""

    def is_empty(self) -> bool:
        return not self.name and not self.description


class KnowledgeGraph:
    """Immutable interned triple store with train/valid/test splits.

    Ids below ``num_entities`` are closed-world (seen in train); ids at or
    above it index the separate open-entity vocabulary.
    """

    def __init__(
        self,
        entities: Vocab,
        relations: Vocab,
        train: list[Triple],
        valid: list[Triple] | None = None,
        test: list[Triple] | None = None,
        open_entities: Vocab | None = None,
    ) -> None:
        self.entities = entities
        self.relations = relations
        self.open_entities = open_entities if open_entities is not None else Vocab()
        self.train = list(train)
        self.valid = list(valid) if valid else []
        self.test = list(test) if test else []

        self.known_tails: dict[int, set[int]] = defaultdict(set)
        self.known_heads: dict[int, set[int]] = defaultdict(set)
        for h, r, t in self.train:
            self.known_tails[r].add(t)
            self.known_heads[r].add(h)
        self.known_tails = dict(self.known_tails)
        self.known_heads = dict(self.known_heads)

    @property
    def num_entities(self) -> int:
        return len(self.entities)

    @property
    def num_relations(self) -> int:
        return len(self.relations)

    @property
    def num_open_entities(self) -> int:
        return len(self.open_entities)

    def is_open(self, entity_id: int) -> bool:
        return entity_id >= len(self.entities)

    def entity_name(self, entity_id: int) -> str:
        if self.is_open(entity_id):
            return self.open_entities.name(entity_id - len(self.entities))
        return self.entities.name(entity_id)

    def entity_id(self, name: str) -> int | None:
        """Resolve an external string id against both vocabularies."""
        idx = self.entities.get(name)
        if idx is not None:
            return idx
        open_idx = self.open_entities.get(name)
        if open_idx is not None:
            return len(self.entities) + open_idx
        return None

    def split(self, name: str) -> list[Triple]:
        try:
            return {"train": self.train, "valid": self.valid, "test": self.test}[name]
        except KeyError:
            raise ValueError(f"unknown split {name!r}") from None


def _parse_triple_line(line: str, path: str, lineno: int) -> tuple[str, str, str]:
    fields = line.split("\t")
    if len(fields) != 3:
        raise ParseError(
            f"{path}:{lineno}: expected 3 tab-separated fields, got {len(fields)}"
        )
    return fields[0], fields[1], fields[2]


def _read_split(
    path: str,
    entities: Vocab,
    relations: Vocab,
    open_entities: Vocab,
    split: str,
    extend_vocab: bool,
    open_world: bool,
) -> list[Triple]:
    triples: list[Triple] = []
    seen: set[Triple] = set()
    duplicates = 0
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.rstrip("\r\n")
            if not line:
                continue
            h, r, t = _parse_triple_line(line, path, lineno)
            if extend_vocab:
                hid = entities.intern(h)
                rid = relations.intern(r)
                tid = entities.intern(t)
            else:
                rid = relations.get(r)
                if rid is None:
                    raise VocabularyError(f"{path}:{lineno}: unknown relation {r!r}")
                hid = _resolve_entity(h, entities, open_entities, open_world, path, lineno)
                tid = _resolve_entity(t, entities, open_entities, open_world, path, lineno)
            triple = Triple(hid, rid, tid)
            if triple in seen:
                duplicates += 1
                continue
            seen.add(triple)
            triples.append(triple)
    if duplicates:
        logger.warning("%s: dropped %d duplicate triples in %s split", path, duplicates, split)
    return triples


def _resolve_entity(
    name: str,
    entities: Vocab,
    open_entities: Vocab,
    open_world: bool,
    path: str,
    lineno: int,
) -> int:
    idx = entities.get(name)
    if idx is not None:
        return idx
    if not open_world:
        raise VocabularyError(f"{path}:{lineno}: unknown entity {name!r} in closed-world mode")
    return len(entities) + open_entities.intern(name)


def load_graph(
    train_path: str,
    valid_path: str | None = None,
    test_path: str | None = None,
    open_world: bool = False,
) -> KnowledgeGraph:
    """Load a knowledge graph from TSV triple files.

    Vocabularies are built from the train split. With ``open_world`` set,
    entities in valid/test that are absent from the train vocabulary are
    interned into a separate open-entity vocabulary (ids offset by
    ``num_entities``); otherwise they raise :class:`VocabularyError`.
    Unknown relations are always an error. Duplicate triples within a split
    are dropped with a warning.
    """
    entities = Vocab()
    relations = Vocab()
    open_entities = Vocab()
    train = _read_split(train_path, entities, relations, open_entities,
                        "train", extend_vocab=True, open_world=False)
    valid = []
    if valid_path is not None:
        valid = _read_split(valid_path, entities, relations, open_entities,
                            "valid", extend_vocab=False, open_world=open_world)
    test = []
    if test_path is not None:
        test = _read_split(test_path, entities, relations, open_entities,
                           "test", extend_vocab=False, open_world=open_world)
    return KnowledgeGraph(entities, relations, train, valid, test, open_entities)


def save_triples(path: str, graph: KnowledgeGraph, triples: list[Triple]) -> None:
    """Write triples back to TSV using external string ids."""
    with open(path, "w", encoding="utf-8") as fh:
        for h, r, t in triples:
            fh.write(f"{graph.entity_name(h)}\t{graph.relations.name(r)}\t{graph.entity_name(t)}\n")


@dataclass
class FilterIndex:
    """All true tails per (head, rel) and true heads per (rel, tail)."""

    true_tails: dict[tuple[int, int], set[int]] = field(default_factory=dict)
    true_heads: dict[tuple[int, int], set[int]] = field(default_factory=dict)
    splits: tuple[str, ...] = ("train", "valid", "test")

    def tails(self, head: int, rel: int) -> set[int]:
        return self.true_tails.get((head, rel), set())

    def heads(self, rel: int, tail: int) -> set[int]:
        return self.true_heads.get((rel, tail), set())


def build_filter_index(
    graph: KnowledgeGraph,
    splits: Iterable[str] = ("train", "valid", "test"),
    triples: Iterable[Triple] | None = None,
) -> FilterIndex:
    """Index (h, r) -> {t} and (r, t) -> {h} over the chosen splits.

    With ``triples``, only the (head, rel) and (rel, tail) keys those
    triples query are indexed, each with the same set as in the full index
    (empty when no split holds the key); without, every key of the splits.
    """
    splits = tuple(splits)
    indexed = [graph.split(name) for name in splits]
    queried = [trip for rows in indexed for trip in rows] if triples is None else list(triples)
    true_tails = {key: set() for key in {(h, r) for h, r, _ in queried}}
    true_heads = {key: set() for key in {(r, t) for _, r, t in queried}}
    for rows in indexed:
        for h, r, t in rows:
            tails = true_tails.get((h, r))
            if tails is not None:
                tails.add(t)
            heads = true_heads.get((r, t))
            if heads is not None:
                heads.add(h)
    return FilterIndex(true_tails, true_heads, splits)


_ESCAPED = re.compile(r"\\([tn\\])")
_UNESCAPE = {"t": "\t", "n": "\n", "\\": "\\"}


def escape_field(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\t", "\\t").replace("\n", "\\n")


def unescape_field(text: str) -> str:
    if "\\" not in text:
        return text
    return _ESCAPED.sub(lambda m: _UNESCAPE[m.group(1)], text)


def load_entity_text(path: str) -> dict[str, EntityText]:
    """Load entity metadata TSV keyed by external entity id.

    Raises :class:`MetadataError` on a duplicate entity line (ambiguous
    metadata) and :class:`ParseError` on a malformed line.
    """
    records: dict[str, EntityText] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.rstrip("\r\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != 3:
                raise ParseError(
                    f"{path}:{lineno}: expected 3 tab-separated fields, got {len(fields)}"
                )
            ext_id, name, desc = fields
            if ext_id in records:
                raise MetadataError(f"{path}:{lineno}: duplicate metadata for entity {ext_id!r}")
            records[ext_id] = EntityText(ext_id, unescape_field(name), unescape_field(desc))
    return records


def save_entity_text(path: str, metadata: dict[str, EntityText]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for ext_id, rec in metadata.items():
            fh.write(f"{ext_id}\t{escape_field(rec.name)}\t{escape_field(rec.description)}\n")


def resolve_metadata(
    metadata: dict[str, EntityText], graph: KnowledgeGraph
) -> dict[int, EntityText]:
    """Re-key metadata by interned entity id; entries for entities not in the
    graph are dropped."""
    resolved: dict[int, EntityText] = {}
    for ext_id, rec in metadata.items():
        eid = graph.entity_id(ext_id)
        if eid is not None:
            resolved[eid] = rec
    return resolved
