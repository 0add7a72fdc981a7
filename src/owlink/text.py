"""Word embedding loading, tokenization, and text-to-entity aggregation.

A store holds its vectors as the rows of one float64 matrix, with a
key -> row dict; the last row is the all-zeros vector of unknown tokens.
An entity's name and description become a sequence of row ids (a single
phrase row for the full name when the store has one, token-wise rows
otherwise; description tokens after the name), and the mean of those
rows is the text-based entity embedding. During training, word dropout
leaves a random subset of the rows out of the sum; dropped tokens still
count in the denominator.

A command's entity text is one :class:`EntityRows` (CSR of store rows):
``collect_keys`` gives each key an id, ``load_word_embeddings`` keeps those
keys' vectors alone, and :meth:`TextKeys.rows` resolves the ids;
``entity_tokens`` is the one-entity case. The one mean rule is a
:class:`KeptRows` indexed by entities: :func:`keep_rows` draws the dropout,
and indexing or ``np.asarray`` averages the entities asked for.
"""

from __future__ import annotations

import itertools
import math
import re
import string
from dataclasses import dataclass, replace
from typing import Iterable, Mapping

import numpy as np

from .config import check_setting
from .graph import EntityText

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)

# Lines handed to numpy's text parser at a time by load_word_embeddings; the
# chunk's text is held about three times over while it is parsed, and 1,024
# lines were no faster.
LOAD_CHUNK_LINES = 256
# Vector rows (entities x positions) gathered at a time by KeptRows; at 300
# columns a block stays in cache, and 2,048 rows were about 20 % slower.
MEAN_BLOCK_ROWS = 512

# ASCII characters numpy's parser reads as blanks that float() rejects.
_PARSER_ONLY_BLANKS = "\x1c\x1d\x1e\x1f"


class WordEmbeddingFormatError(ValueError):
    """Word embedding file has inconsistent or malformed entries."""


class NoTextError(ValueError):
    """Entity has no usable textual metadata."""


def check_phrase_template(template: str) -> str:
    """``template`` when its one replacement field is a bare ``{name}``.

    Raises ``ValueError`` otherwise: a template without ``{name}`` would give
    every name the same phrase key, and any other field cannot be filled.
    """
    try:
        fields = [(f, spec, conv) for _, f, spec, conv in string.Formatter().parse(template)
                  if f is not None]
    except ValueError as exc:
        raise ValueError(f"phrase template {template!r}: {exc}") from None
    if fields != [("name", "", None)]:
        raise ValueError(f"phrase template {template!r} must hold one {{name}} field "
                         "and no other replacement field")
    return template


def _phrase_key(template: str, name: str) -> str:
    return template.format(name="_".join(name.split()))


class WordEmbeddingStore:
    """Immutable token -> vector map with a zero vector for unknown tokens.

    ``matrix`` holds the vector of each key of ``rows`` (key -> row id) plus
    a last, all-zeros row, whose id ``len(store)`` stands for every unknown
    token. ``phrase_template`` controls how a multi-word entity name is
    keyed for phrase lookup: ``{name}`` is replaced by the name's whitespace
    tokens joined with underscores (e.g. ``"ENTITY/{name}"`` for stores that
    prefix phrase keys).
    """

    def __init__(self, matrix: np.ndarray, rows: dict[str, int],
                 phrase_template: str = "{name}") -> None:
        self.matrix = matrix
        self.rows = rows
        self.dim = matrix.shape[1]
        self.phrase_template = check_phrase_template(phrase_template)

    def __len__(self) -> int:
        return len(self.rows)

    def __contains__(self, token: str) -> bool:
        return token in self.rows

    def phrase_key(self, name: str) -> str:
        return _phrase_key(self.phrase_template, name)


@dataclass
class EntityRows:
    """Entity text in CSR form, three segments per entity: ``entities[i]``
    (sorted) holds ``rows[offsets[3 * i]:offsets[3 * i + 3]]``, the ``store``
    rows (key ids when there is no store) of its name's phrase key, its
    name's tokens and its description's tokens. On a store, the phrase row
    is kept where the store has the key, else the name's token rows."""

    store: WordEmbeddingStore | None
    entities: np.ndarray
    offsets: np.ndarray
    rows: np.ndarray

    def __getitem__(self, entity: int) -> np.ndarray:
        i = int(np.searchsorted(self.entities, entity))
        if i == len(self.entities) or self.entities[i] != entity:
            return self.rows[:0]
        return self.rows[self.offsets[3 * i]:self.offsets[3 * i + 3]]

    @property
    def has_text(self) -> np.ndarray:
        """Per entity of ``entities``, whether it has any row (usable text)."""
        return np.diff(self.offsets[::3]) > 0

    def mean(self, entity: int) -> np.ndarray:
        """The mean of ``entity``'s rows (:func:`keep_rows`); NoTextError when it has none."""
        rows = self[entity]
        return np.asarray(keep_rows(self.store.matrix, rows, np.array([0, len(rows)])))[0]

    def select(self, entities: np.ndarray, segments: np.ndarray | None = None) -> "EntityRows":
        """The entities of the boolean mask ``entities``, with only the segments
        set in their rows of the (len, 3) mask ``segments`` (all when None)."""
        keep = entities[:, None] & (np.ones(3, dtype=bool) if segments is None else segments)
        sizes = np.diff(self.offsets)
        return EntityRows(self.store, self.entities[entities],
                          np.concatenate([[0], np.cumsum((sizes.reshape(-1, 3) * keep)[entities])]),
                          self.rows[np.repeat(keep.ravel(), sizes)])


@dataclass
class TextKeys:
    """The store keys some entity text can look up, by key id, and that text
    as an :class:`EntityRows` of key ids (-1 for the phrase key of no name)."""

    keys: list[str]
    ids: EntityRows

    def rows(self, store: WordEmbeddingStore) -> EntityRows:
        """``ids`` on ``store``: one lookup per key, then one gather."""
        unknown = len(store)
        key_rows = np.fromiter(map(store.rows.get, self.keys, itertools.repeat(unknown)), np.int64)
        rows = replace(self.ids, store=store, rows=np.append(key_rows, unknown)[self.ids.rows])
        hit = rows.rows[rows.offsets[:-1:3]] != unknown
        return rows.select(np.ones(len(hit), dtype=bool),
                           np.column_stack([hit, ~hit, np.ones_like(hit)]))


def collect_keys(metadata: Mapping[int, EntityText], phrase_template: str = "{name}"
                 ) -> TextKeys:
    """Each store key the text of ``metadata`` (entity id -> text) can look
    up (phrase keys and tokens), and that text as key ids; each distinct
    string is tokenized once."""
    check_phrase_template(phrase_template)
    ids: dict[str, int] = {}
    tokens: dict[str, list[int]] = {}
    entities = sorted(metadata)
    flat, ends = [], [0]
    for meta in map(metadata.__getitem__, entities):
        flat.append(ids.setdefault(_phrase_key(phrase_template, meta.name), len(ids))
                    if meta.name else -1)
        ends.append(len(flat))
        for text in (meta.name, meta.description):
            if text not in tokens:
                tokens[text] = [ids.setdefault(t, len(ids)) for t in tokenize(text)]
            flat += tokens[text]
            ends.append(len(flat))
    return TextKeys(list(ids), EntityRows(None, np.array(entities, dtype=np.int64),
                                          np.array(ends, dtype=np.int64),
                                          np.array(flat, dtype=np.int64)))


def entity_rows(metadata: Mapping[int, EntityText], store: WordEmbeddingStore) -> EntityRows:
    """The text of ``metadata`` (entity id -> text) as rows of ``store``."""
    return collect_keys(metadata, store.phrase_template).rows(store)


def _line_bound(path: str) -> int:
    """At least the number of lines of the file (text mode ends a line at
    "\\n", "\\r" or "\\r\\n"; the bytes up to "\\r" include all three)."""
    with open(path, "rb") as fh:
        return sum(np.count_nonzero(np.frombuffer(chunk, np.uint8) <= ord("\r"))
                   for chunk in iter(lambda: fh.read(1 << 20), b""))


def _parse_line(path: str, lineno: int, line: str, dim: int | None) -> tuple[str, list[float]]:
    """One ``key value...`` line by the reference rule: fields split on single
    spaces, empty fields ignored, each value read by ``float``."""
    parts = line.split(" ")
    try:
        values = [float(x) for x in parts[1:] if x]
    except ValueError as exc:
        raise WordEmbeddingFormatError(f"{path}:{lineno}: {exc}") from None
    if dim is None and not values:
        raise WordEmbeddingFormatError(f"{path}:{lineno}: entry has no vector values")
    if dim is not None and len(values) != dim:
        raise WordEmbeddingFormatError(
            f"{path}:{lineno}: vector length {len(values)} != expected {dim}")
    if not all(map(math.isfinite, values)):
        raise WordEmbeddingFormatError(f"{path}:{lineno}: non-finite vector value")
    return parts[0], values


def _parse_chunk(path: str, chunk: list[tuple[int, str]], dim: int
                 ) -> tuple[list[str], np.ndarray]:
    """Keys and (len, dim) values of a chunk's non-blank lines.

    numpy's parser reads the chunk when every line is plain ASCII ``key
    value...`` with single spaces; any chunk it rejects or mis-sizes is
    read again line by line with :func:`_parse_line`, which names the line.
    """
    keys, bodies, linenos = [], [], []
    for lineno, raw in chunk:
        line = raw.rstrip("\n")
        if line:
            key, _, body = line.partition(" ")
            keys.append(key)
            bodies.append(body.strip(" "))
            linenos.append(lineno)
    if not bodies:
        return keys, np.zeros((0, dim))
    values = None
    text = "\n".join(bodies)
    if "" not in bodies and text.isascii() and not any(c in text for c in _PARSER_ONLY_BLANKS):
        try:
            values = np.loadtxt(bodies, dtype=np.float64, delimiter=" ", comments=None, ndmin=2)
        except ValueError:
            pass
    if values is None or values.shape != (len(bodies), dim):
        values = np.array([_parse_line(path, lineno, raw.rstrip("\n"), dim)[1]
                           for lineno, raw in chunk if raw.rstrip("\n")], dtype=np.float64)
    finite = np.isfinite(values).all(axis=1)
    if not finite.all():
        lineno = linenos[int(np.argmin(finite))]
        raise WordEmbeddingFormatError(f"{path}:{lineno}: non-finite vector value")
    return keys, values


def load_word_embeddings(path: str, phrase_template: str = "{name}",
                         keys: Iterable[str] | None = None) -> WordEmbeddingStore:
    """Load a text-format embedding file: token followed by decimals.

    A first line of exactly two integer fields ("count dim") is treated as
    a header and consumed. Every line is parsed and checked, but only the
    vectors of ``keys`` (all when None) are kept, so the store's memory
    follows the rows a command can use, not the file. The matrix is sized
    once, by the number of keys or a bound on the file's line count,
    whichever is smaller, and each kept vector is written into its row as
    it is parsed (the zero row last). The phrase template is checked before
    the file is read. All vectors must share one dimension and be finite; a
    bad line raises :class:`WordEmbeddingFormatError` naming it. A repeated
    key keeps its first row and its last vector.
    """
    check_phrase_template(phrase_template)
    wanted = None if keys is None else set(keys)
    bound = _line_bound(path) + 1
    capacity = bound if wanted is None else min(len(wanted), bound)
    rows: dict[str, int] = {}
    matrix: np.ndarray | None = None

    def keep(key: str, vector) -> None:
        if wanted is None or key in wanted:
            matrix[rows.setdefault(key, len(rows))] = vector

    with open(path, encoding="utf-8-sig") as fh:
        numbered = enumerate(fh, 1)
        for lineno, raw in numbered:  # up to the first vector, which sets the dimension
            line = raw.rstrip("\n")
            if not line:
                continue
            parts = line.split(" ")
            if lineno == 1 and len(parts) == 2:
                try:
                    int(parts[0]), int(parts[1])
                    continue  # header "count dim"
                except ValueError:
                    pass
            key, values = _parse_line(path, lineno, line, None)
            matrix = np.empty((capacity + 1, len(values)))  # every kept row and the zero row
            keep(key, values)
            break
        if matrix is None:
            raise WordEmbeddingFormatError(f"{path}: no embeddings found")
        for chunk in iter(lambda: list(itertools.islice(numbered, LOAD_CHUNK_LINES)), []):
            chunk_keys, values = _parse_chunk(path, chunk, matrix.shape[1])
            for key, vector in zip(chunk_keys, values):
                keep(key, vector)
    matrix.resize((len(rows) + 1, matrix.shape[1]), refcheck=False)
    matrix[-1] = 0.0
    return WordEmbeddingStore(matrix, rows, phrase_template)


def tokenize(text: str) -> list[str]:
    """Lowercase and split on whitespace/punctuation; digits kept."""
    return _TOKEN_RE.findall(text.lower())


def entity_tokens(meta: EntityText, store: WordEmbeddingStore) -> tuple[np.ndarray, int]:
    """Row ids of an entity's text: the one-entity case of :func:`entity_rows`.

    Returns the int64 row ids (name segment, then description segment) and
    the count of unknown tokens, which get the zero row. Empty metadata
    yields no rows.
    """
    rows = entity_rows({0: meta}, store).rows
    return rows, int(np.count_nonzero(rows == len(store)))


@dataclass(frozen=True)
class KeptRows:
    """Entities' vector rows after word dropout, in CSR form: entity i keeps
    ``rows[offsets[i]:offsets[i + 1]]`` of ``matrix`` out of the ``counts[i]``
    rows it had. Indexing with entity positions gives their (len, dim)
    means, computed then; ``np.asarray`` gives every entity's mean. numpy
    adds a block's rows in order from +0.0, as ``matrix[rows_i].sum(axis=0)``
    does, so each mean is bit for bit that of the entity alone with its
    dropped rows zeroed, whichever entities share its block (for two or
    more columns; numpy sums one column pairwise): a sum from +0.0 is never
    -0.0, and adding +0.0 (padding) or a signed zero (a zeroed dropped row)
    leaves it unchanged. An entity whose every row is dropped gets a +0.0 row."""

    matrix: np.ndarray
    rows: np.ndarray
    offsets: np.ndarray
    counts: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.counts), self.matrix.shape[1]

    def __getitem__(self, ids) -> np.ndarray:
        """Per entity position of ``ids``, the sum of its kept rows divided
        by its full row count.

        Entities of similar kept length are gathered together, about
        ``MEAN_BLOCK_ROWS`` rows at a time, as an (entities, positions, dim)
        block that is summed along positions; the padding after a shorter
        entity is set to +0.0.
        """
        ids = np.asarray(ids, dtype=np.int64)
        starts, ends = self.offsets[ids], self.offsets[ids + 1]
        kept = ends - starts
        out = np.empty((len(ids), self.matrix.shape[1]))
        order = np.argsort(kept, kind="stable")
        per_block = max(1, MEAN_BLOCK_ROWS // int(kept.max(initial=1)))
        for start in range(0, len(order), per_block):
            block_ids = order[start:start + per_block]  # ascending, so the last is the longest
            at = starts[block_ids, None] + np.arange(kept[block_ids[-1]])
            pad = at >= ends[block_ids, None]
            at[pad] = 0
            block = self.matrix[self.rows[at]]
            block[pad] = 0.0
            out[block_ids] = block.sum(axis=1)
        out /= self.counts[ids, None]
        return out

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        out = self[np.arange(len(self.counts))]
        return out if dtype is None else out.astype(dtype, copy=False)


def keep_rows(matrix: np.ndarray, rows: np.ndarray, offsets: np.ndarray,
              dropout_rate: float = 0.0, rng: np.random.Generator | None = None) -> KeptRows:
    """The rows of entity i, ``rows[offsets[i]:offsets[i + 1]]`` (``offsets``
    runs from 0 to ``len(rows)``), that word dropout keeps, as a
    :class:`KeptRows` of ``matrix``.

    Dropout drops each row at ``dropout_rate``, by one
    ``rng.random(len(rows))`` draw per call (entity i's draws are those at
    its own offsets), and the kept rows are copied once into their own CSR;
    without dropout ``rows`` is used as it is. It is a training-time
    operation and must be disabled (rate 0) at evaluation. An entity
    without rows raises :class:`NoTextError`.
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    counts = np.diff(offsets)
    if not counts.all():
        raise NoTextError("cannot aggregate an empty embedding sequence")
    check_setting("dropout_rate", dropout_rate, 0.0 <= dropout_rate < 1.0, "in [0, 1)")
    if dropout_rate > 0.0:
        if rng is None:
            raise ValueError("dropout requires a random generator")
        kept = np.flatnonzero(rng.random(len(rows)) >= dropout_rate)
        offsets = np.searchsorted(kept, offsets)  # kept rows before each entity's first
        rows = rows[kept]
    return KeptRows(matrix, rows, offsets, counts)


def aggregate(embeddings: np.ndarray, dropout_rate: float = 0.0,
              rng: np.random.Generator | None = None) -> np.ndarray:
    """Mean of the rows of an (n, d) array, optionally with word dropout:
    :func:`keep_rows` of one entity, so one ``rng.random(n)`` draw per call."""
    n = len(embeddings)
    return np.asarray(keep_rows(embeddings, np.arange(n), np.array([0, n]), dropout_rate, rng))[0]


def text_embedding(
    meta: EntityText,
    store: WordEmbeddingStore,
    dropout_rate: float = 0.0,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Full pipeline: text -> row ids -> averaged entity embedding.

    Raises :class:`NoTextError` when the entity has no usable text.
    """
    rows, _ = entity_tokens(meta, store)
    if not len(rows):
        raise NoTextError(f"entity {meta.entity!r} has no usable text")
    return aggregate(store.matrix[rows], dropout_rate, rng)
