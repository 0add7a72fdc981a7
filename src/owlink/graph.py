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

Each split is an ``(n, 3)`` int64 array of ``(head, rel, tail)`` rows.
A split file is parsed on its own, ``LOAD_CHUNK_LINES`` lines at a time,
into its names in first-occurrence order and its distinct triples in those
local ids; the train file's names are the vocabularies, and a valid or test
file's are looked up in them once each. The first parse of a file's bytes
also writes that parse to ``<file>.store`` beside it, and a later load of
the same bytes reads it from there (:mod:`owlink.stores`, which owns the
byte layout). One line reader, ``_tsv_lines``, raises every ``file:line``
ParseError of a split or metadata file; a bad chunk or a vocabulary miss
that must raise reads the text through it again. The filter index holds
its true tails and its true heads, keyed by packed pairs, as one
:class:`IdSets` (sorted CSR) each.
"""

from __future__ import annotations

import functools
import itertools
import logging
import re
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, NoReturn

import numpy as np

from . import stores
from .config import check_setting

logger = logging.getLogger(__name__)

# Lines of a triple file split and interned at a time. A chunk's field
# strings are freed before the next is read, so only the names the
# vocabularies keep stay resident.
LOAD_CHUNK_LINES = 4096

SPLITS = ("train", "valid", "test")


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


def as_triples(rows) -> np.ndarray:
    """``rows`` (an array or an iterable of ``(head, rel, tail)``; none when
    None) as an ``(n, 3)`` int64 array."""
    if rows is None:
        return np.empty((0, 3), dtype=np.int64)
    if not isinstance(rows, np.ndarray):
        rows = list(rows)
    return np.asarray(rows, dtype=np.int64).reshape(-1, 3)


def distinct(values: np.ndarray) -> np.ndarray:
    """The sorted distinct entries of an integer array. Same as ``np.unique``
    without its hash table, which took 16 ms against 0.7 ms on 77k packed
    keys, and without the import of ``numpy.ma`` (about 15 ms) on its first
    call in a process."""
    values = np.sort(values, axis=None)
    keep = np.ones(len(values), dtype=bool)
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


class Vocab:
    """Interns string ids to dense contiguous indices, first occurrence wins."""

    __slots__ = ("_index", "_names")

    def __init__(self, names: Iterable[str] = ()) -> None:
        self._index: dict[str, int] = {}
        self._names: list[str] = []
        self.extend(names)

    def extend(self, names: Iterable[str]) -> np.ndarray:
        """Intern every name not yet present, in first-occurrence order; return
        the int64 id of each of ``names``. New names are read off the index's end."""
        index, start = self._index, len(self._names)
        ids = np.fromiter((index.setdefault(name, len(index)) for name in names), dtype=np.int64)
        self._names.extend(reversed(list(itertools.islice(reversed(index), len(index) - start))))
        return ids

    def ids(self, names: list[str]) -> np.ndarray:
        """The ids of ``names`` as int64, -1 where a name is not interned."""
        return np.fromiter(map(self._index.get, names, itertools.repeat(-1)),
                           dtype=np.int64, count=len(names))

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


class IdSets:
    """Sorted distinct ids per integer key, in CSR form: the sorted distinct
    ``keys[i]`` holds ``ids[offsets[i]:offsets[i + 1]]``, and a key not in
    ``keys`` holds none. A key may hold no ids. A :class:`FilterIndex` holds
    one for each direction."""

    __slots__ = ("keys", "offsets", "ids")

    def __init__(self, keys: np.ndarray, slots: np.ndarray, ids: np.ndarray) -> None:
        """``keys`` (sorted, distinct) with the distinct ``ids[j]`` of each
        ``keys[slots[j]]``; an id given twice for a key is held once."""
        base = int(ids.max(initial=0)) + 1
        packed = distinct(slots * base + ids)
        self.keys = keys
        self.offsets = np.searchsorted(packed // base, np.arange(len(keys) + 1))
        self.ids = packed % base

    def __len__(self) -> int:
        return len(self.keys)

    def __getitem__(self, key: int) -> np.ndarray:
        i = int(np.searchsorted(self.keys, key))
        if i == len(self.keys) or self.keys[i] != key:
            return self.ids[:0]
        return self.ids[self.offsets[i]:self.offsets[i + 1]]


class KnowledgeGraph:
    """Immutable interned triple store with train/valid/test splits.

    Each split is an ``(n, 3)`` int64 array of ``(head, rel, tail)`` rows.
    Ids below ``num_entities`` are closed-world (seen in train); ids at or
    above it index the separate open-entity vocabulary.
    """

    def __init__(
        self,
        entities: Vocab,
        relations: Vocab,
        train,
        valid=None,
        test=None,
        open_entities: Vocab | None = None,
    ) -> None:
        self.entities = entities
        self.relations = relations
        self.open_entities = open_entities if open_entities is not None else Vocab()
        self.train = as_triples(train)
        self.valid = as_triples(valid)
        self.test = as_triples(test)

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

    @functools.cached_property
    def entity_names(self) -> np.ndarray:
        """The external id of every entity as an object array indexed by
        entity id: the closed-world names, then the open ones."""
        return np.array(self.entities.names + self.open_entities.names, dtype=object)

    def entity_name(self, entity_id: int) -> str:
        return self.entity_names[entity_id]

    def entity_id(self, name: str) -> int | None:
        """Resolve an external string id against both vocabularies."""
        idx = self.entities.get(name)
        if idx is not None:
            return idx
        open_idx = self.open_entities.get(name)
        if open_idx is not None:
            return len(self.entities) + open_idx
        return None

    def split(self, name: str) -> np.ndarray:
        check_setting("split", repr(name), name in SPLITS, f"one of {SPLITS}")
        return getattr(self, name)


class _Parse(NamedTuple):
    """A split file's own parse: its names in first-occurrence order (heads
    and tails interleaved, line order), its distinct triples in those local
    ids and in first-occurrence order, and its count of dropped duplicates."""

    entities: Vocab
    relations: Vocab
    triples: np.ndarray
    duplicates: int


# The store of a split file: a header (magic, the sha256 of its text, then
# the counts of entities, relations, triples, duplicates and name bytes),
# the triples as int64 rows, then the entity names and the relation names
# as one names block (no name holds "\n"; layout in :mod:`owlink.stores`).
_TRIPLES = stores.Format("triple", b"owlink-triples1\n", 5,
                         lambda entities, relations, triples, duplicates, name_bytes:
                         24 * triples + name_bytes)


def _parse_text(path: str, writer: stores.Writer, _lines: int) -> _Parse:
    """The parse of the split file ``path``, read ``LOAD_CHUNK_LINES`` lines at
    a time; it also goes to ``writer``. ParseError names the first line
    without exactly three fields."""
    entities, relations, chunks = Vocab(), Vocab(), []
    with open(path, encoding="utf-8-sig") as fh:
        for raw in iter(lambda: list(itertools.islice(fh, LOAD_CHUNK_LINES)), []):
            rows = _chunk_triples("".join(raw).split("\n"), entities, relations)
            if rows is None:
                _raise_first_bad_line(path)
            chunks.append(rows)
    triples = np.concatenate(chunks) if chunks else as_triples(None)
    first = _first_occurrences(triples)
    duplicates = len(triples) - len(first)
    if duplicates:
        triples = triples[first]
    writer.write(triples)
    name_bytes = writer.write_names(itertools.chain(entities.names, relations.names))
    writer.publish(len(entities), len(relations), len(triples), duplicates, name_bytes)
    return _Parse(entities, relations, triples, duplicates)


def _read_store(fh, num_entities: int, num_relations: int, num_triples: int, duplicates: int,
                _name_bytes: int) -> _Parse:
    """The parse from the split store open as ``fh``; its names must be
    distinct and its ids in range."""
    triples = np.empty((num_triples, 3), dtype=np.int64)
    stores.read_into(fh, triples)
    names = stores.read_names(fh, num_entities + num_relations)
    entities = Vocab(itertools.islice(names, num_entities))
    relations = Vocab(names)
    if len(entities) != num_entities or len(relations) != num_relations:
        raise stores.BadStore("repeated names")
    if len(triples) and (triples.min() < 0 or triples[:, 1].max() >= num_relations
                         or max(triples[:, 0].max(), triples[:, 2].max()) >= num_entities):
        raise stores.BadStore("ids out of range")
    return _Parse(entities, relations, triples, duplicates)


def _load_split(path: str) -> _Parse:
    """The parse of the split file ``path``, from its store or its text."""
    return stores.load(path, _TRIPLES, _read_store, functools.partial(_parse_text, path))


def _warn_duplicates(path: str, split: str, parse: _Parse) -> None:
    if parse.duplicates:
        logger.warning("%s: dropped %d duplicate triples in %s split", path, parse.duplicates,
                       split)


def _chunk_triples(lines: list[str], entities: Vocab, relations: Vocab) -> np.ndarray | None:
    """The triples of the non-blank ``lines``, interned in line order, or
    None (with nothing interned) when a line has not exactly three fields."""
    lines = list(filter(None, lines))
    if list(map(str.count, lines, itertools.repeat("\t"))).count(2) != len(lines):
        return None
    fields = "\t".join(lines).split("\t") if lines else []
    rels = fields[1::3]
    del fields[1::3]  # heads and tails, interleaved in line order
    rel_ids, ent_ids = relations.extend(rels), entities.extend(fields)
    rows = np.empty((len(rels), 3), dtype=np.int64)
    rows[:, 0] = ent_ids[0::2]
    rows[:, 1] = rel_ids
    rows[:, 2] = ent_ids[1::2]
    return rows


def _tsv_lines(path: str) -> Iterator[tuple[int, list[str]]]:
    """The line number and the three tab-separated fields of each non-blank
    line of the TSV file ``path``. ParseError names the first line without
    exactly three fields."""
    with open(path, encoding="utf-8-sig") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.rstrip("\r\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != 3:
                raise ParseError(
                    f"{path}:{lineno}: expected 3 tab-separated fields, got {len(fields)}")
            yield lineno, fields


def _raise_first_bad_line(path: str, entities: Vocab | None = None,
                          relations: Vocab | None = None, open_world: bool = False) -> NoReturn:
    """Read the split file ``path`` through :func:`_tsv_lines` to raise its
    first line's error: three fields, then (given the vocabularies) a known
    relation, then a known head and tail (unless ``open_world``)."""
    for lineno, (h, r, t) in _tsv_lines(path):
        if relations is None:
            continue
        if r not in relations:
            raise VocabularyError(f"{path}:{lineno}: unknown relation {r!r}")
        for name in (h, t):
            if not open_world and name not in entities:
                raise VocabularyError(
                    f"{path}:{lineno}: unknown entity {name!r} in closed-world mode")


def _read_split(path: str, split: str, entities: Vocab, relations: Vocab,
                open_entities: Vocab, open_world: bool) -> np.ndarray:
    """The triples of a valid or test file in the ids of the train
    vocabularies: each distinct name of the file is looked up once, its open
    entities interned in first-occurrence order, and its triples remapped in
    one gather."""
    try:
        parse = _load_split(path)
    except ParseError:  # an earlier line may break the vocabulary rule
        _raise_first_bad_line(path, entities, relations, open_world)
    names = parse.entities.names
    rel_ids, ent_ids = relations.ids(parse.relations.names), entities.ids(names)
    unknown = np.flatnonzero(ent_ids < 0)
    if (rel_ids < 0).any() or (len(unknown) and not open_world):
        _raise_first_bad_line(path, entities, relations, open_world)
    if len(unknown):
        ent_ids[unknown] = len(entities) + open_entities.extend([names[i] for i in unknown.tolist()])
    _warn_duplicates(path, split, parse)
    local = parse.triples
    return np.column_stack([ent_ids[local[:, 0]], rel_ids[local[:, 1]], ent_ids[local[:, 2]]])


def _first_occurrences(triples: np.ndarray) -> np.ndarray:
    """Sorted row indices of the first occurrence of each distinct triple."""
    if not len(triples):
        return np.arange(0)
    entity_base = int(max(triples[:, 0].max(), triples[:, 2].max())) + 1
    rel_base = int(triples[:, 1].max()) + 1
    packed = (triples[:, 0] * rel_base + triples[:, 1]) * entity_base + triples[:, 2]
    _, first = np.unique(packed, return_index=True)
    first.sort()
    return first


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
    are dropped with a warning; the first occurrence of each is kept.

    Each file's own parse comes from its store, ``path + stores.SUFFIX``,
    when that was made from the same bytes; otherwise the text is parsed
    and the store written (see :mod:`owlink.stores`).
    """
    train = _load_split(train_path)
    _warn_duplicates(train_path, "train", train)
    entities, relations, open_entities = train.entities, train.relations, Vocab()
    valid, test = (None if path is None else
                   _read_split(path, split, entities, relations, open_entities, open_world)
                   for split, path in (("valid", valid_path), ("test", test_path)))
    return KnowledgeGraph(entities, relations, train.triples, valid, test, open_entities)


def save_triples(path: str, graph: KnowledgeGraph, triples: np.ndarray) -> None:
    """Write ``(n, 3)`` triples back to TSV using external string ids."""
    names = graph.entity_names
    relation_names = np.array(graph.relations.names, dtype=object)
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(map("{}\t{}\t{}\n".format, names[triples[:, 0]].tolist(),
                          relation_names[triples[:, 1]].tolist(), names[triples[:, 2]].tolist()))


@dataclass
class FilterIndex:
    """The true tails of each (head, rel) and the true heads of each
    (rel, tail) over the splits it was built from, keyed by the pair packed as
    ``first * base + second`` (no key when ``second`` is out of range)."""

    true_tails: IdSets
    true_heads: IdSets
    base: int

    def tails(self, head: int, rel: int) -> np.ndarray:
        return self.true_tails[head * self.base + rel if 0 <= rel < self.base else -1]

    def heads(self, rel: int, tail: int) -> np.ndarray:
        return self.true_heads[rel * self.base + tail if 0 <= tail < self.base else -1]


def build_filter_index(
    graph: KnowledgeGraph,
    splits: Iterable[str] = SPLITS,
    triples=None,
) -> FilterIndex:
    """Index (h, r) -> t and (r, t) -> h over the chosen splits.

    With ``triples``, only the (head, rel) and (rel, tail) keys those
    triples query are indexed, each with the same ids as in the full index
    (none when no split holds the key); without, every key of the splits.
    """
    indexed = [graph.split(name) for name in splits]
    if triples is None:
        queried = np.concatenate([as_triples(None), *indexed])
    else:
        queried = as_triples(triples)
    base = 1 + max(int(rows.max(initial=0)) for rows in [queried, *indexed])
    return FilterIndex(_true_ids(indexed, queried, base, (0, 1), 2),
                       _true_ids(indexed, queried, base, (1, 2), 0), base)


def _true_ids(indexed: list[np.ndarray], queried: np.ndarray, base: int,
              key: tuple[int, int], value: int) -> IdSets:
    """For each distinct pair of ``key`` columns in ``queried``, packed as
    ``first * base + second``, the ``value`` column entries of the
    ``indexed`` rows with that pair."""
    a, b = key
    wanted = distinct(queried[:, a] * base + queried[:, b])
    # A binary search into the few queried keys: np.isin compares every row
    # with each of them when they are few (4-7 ms against 1.4-1.8 ms per
    # split and direction on owe-complex's 72k train rows and 87 keys).
    slots, values = [wanted[:0]], [wanted[:0]]
    for rows in indexed if len(wanted) else ():
        packed = rows[:, a] * base + rows[:, b]
        slot = np.searchsorted(wanted, packed)
        hit = wanted[np.minimum(slot, len(wanted) - 1)] == packed
        slots.append(slot[hit])
        values.append(rows[hit, value])
    return IdSets(wanted, np.concatenate(slots), np.concatenate(values))


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
    for lineno, (ext_id, name, desc) in _tsv_lines(path):
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
