"""Word embedding loading, tokenization, and text-to-entity aggregation.

A store holds its vectors as the rows of one float64 matrix, with a
key -> row dict; the last row is the all-zeros vector of unknown tokens.
An entity's name and description become a sequence of row ids (a single
phrase row for the full name when the store has one, token-wise rows
otherwise; description tokens after the name), and the mean of those
rows is the text-based entity embedding. During training, word dropout
replaces a random subset of the rows with zeros before averaging;
dropped tokens still count in the denominator.
"""

from __future__ import annotations

import re

import numpy as np

from .graph import EntityText

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


class WordEmbeddingFormatError(ValueError):
    """Word embedding file has inconsistent or malformed entries."""


class NoTextError(ValueError):
    """Entity has no usable textual metadata."""


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
        self.phrase_template = phrase_template

    def __len__(self) -> int:
        return len(self.rows)

    def __contains__(self, token: str) -> bool:
        return token in self.rows

    def phrase_key(self, name: str) -> str:
        return self.phrase_template.format(name="_".join(name.split()))


def load_word_embeddings(path: str, phrase_template: str = "{name}") -> WordEmbeddingStore:
    """Load a text-format embedding file: token followed by decimals.

    A first line of exactly two integer fields ("count dim") is treated as
    a header and consumed. A bound on the file's line count sizes the
    matrix, and each vector is written into its row as it is parsed, so no
    row is ever held twice. All vectors must share one dimension; a
    mismatch raises :class:`WordEmbeddingFormatError` naming the line. A
    repeated key keeps its first row and its last vector.
    """
    rows: dict[str, int] = {}
    matrix: np.ndarray | None = None
    # Text mode ends a line at "\n", "\r" or "\r\n"; the bytes up to "\r" include both.
    with open(path, "rb") as fh:
        ends = sum(np.count_nonzero(np.frombuffer(chunk, np.uint8) <= ord("\r"))
                   for chunk in iter(lambda: fh.read(1 << 20), b""))
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
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
            try:
                values = [float(x) for x in parts[1:] if x]
            except ValueError as exc:
                raise WordEmbeddingFormatError(f"{path}:{lineno}: {exc}") from None
            if matrix is None:
                if not values:
                    raise WordEmbeddingFormatError(f"{path}:{lineno}: entry has no vector values")
                matrix = np.empty((ends + 2, len(values)))  # every key's row and the zero row
            elif len(values) != matrix.shape[1]:
                raise WordEmbeddingFormatError(
                    f"{path}:{lineno}: vector length {len(values)} != expected {matrix.shape[1]}"
                )
            matrix[rows.setdefault(parts[0], len(rows))] = values
    if matrix is None:
        raise WordEmbeddingFormatError(f"{path}: no embeddings found")
    matrix.resize((len(rows) + 1, matrix.shape[1]), refcheck=False)
    matrix[-1] = 0.0
    return WordEmbeddingStore(matrix, rows, phrase_template)


def tokenize(text: str) -> list[str]:
    """Lowercase and split on whitespace/punctuation; digits kept."""
    return _TOKEN_RE.findall(text.lower())


def entity_tokens(meta: EntityText, store: WordEmbeddingStore) -> tuple[np.ndarray, int]:
    """Row ids of an entity's text: the name's rows, then the description's.

    The full name contributes a single phrase row when the store has one
    under the phrase key; otherwise the name is tokenized and looked up
    token-wise. Returns the int64 row ids and the count of unknown tokens,
    which get the zero row. Empty metadata yields no rows.
    """
    keys: list[str] = []
    if meta.name:
        phrase = store.phrase_key(meta.name)
        keys = [phrase] if phrase in store else tokenize(meta.name)
    keys += tokenize(meta.description)
    unknown = len(store)
    rows = np.fromiter((store.rows.get(k, unknown) for k in keys), np.int64, len(keys))
    return rows, int(np.count_nonzero(rows == unknown))


def aggregate(embeddings: np.ndarray, dropout_rate: float = 0.0,
              rng: np.random.Generator | None = None) -> np.ndarray:
    """Mean of the rows of an (n, d) array, optionally with word dropout.

    Dropout replaces rows by zeros, one ``rng.random(n)`` draw per call,
    but keeps the denominator fixed at n; it is a training-time operation
    and must be disabled (rate 0) at evaluation.
    """
    if not len(embeddings):
        raise NoTextError("cannot aggregate an empty embedding sequence")
    if not 0.0 <= dropout_rate < 1.0:
        raise ValueError(f"dropout_rate must be in [0, 1), got {dropout_rate}")
    if dropout_rate > 0.0:
        if rng is None:
            raise ValueError("dropout requires a random generator")
        keep = rng.random(len(embeddings)) >= dropout_rate
        embeddings = embeddings * keep[:, None]
    return embeddings.sum(axis=0) / len(embeddings)


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
