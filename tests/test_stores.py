"""A store's names block read in pieces: ``stores.read_names`` reads
``SCAN_BYTES`` at a time, so a name, and a multi-byte UTF-8 character in
it, may span two or more reads."""

import logging
from pathlib import Path

import pytest

import owlink.stores as stores
import test_graph
import test_text
from test_text import bits

# multi-byte UTF-8 names, and one longer than any piece below
NAMES = ["a", "été", "北京", "a-name-longer-than-any-piece-é-" + "x" * 9]
PIECES = [1, 2, 3, 5, 7]


def write_inputs(root):
    """A train split and a vectors file keyed by ``NAMES``."""
    train, vectors = root / "train.txt", root / "vectors.txt"
    train.write_text(f"{NAMES[0]}\t{NAMES[2]}\t{NAMES[1]}\n{NAMES[3]}\tr\t{NAMES[2]}\n"
                     f"{NAMES[1]}\t{NAMES[3]}\t{NAMES[0]}\n", encoding="utf-8")
    vectors.write_text("".join(f"{key} {i} {-i / 4} 0.5\n" for i, key in enumerate(NAMES + ["b"])),
                       encoding="utf-8")
    return train, vectors


def load(kind, route, path):
    """What a load of the ``kind`` input at ``path`` gives, asserting its route."""
    if kind == "graph":
        g = test_graph.load_by(route, path)
        return g.entities.names, g.relations.names, g.train.tolist()
    store = test_text.load_by(route, path)
    return list(store.rows.items()), bits(store.matrix)


@pytest.mark.parametrize("piece", PIECES)
def test_warm_load_equals_cold_parse(tmp_path, monkeypatch, piece):
    monkeypatch.setattr(stores, "SCAN_BYTES", piece)
    train, vectors = write_inputs(tmp_path)
    graph_cold, vectors_cold = load("graph", "text", train), load("vectors", "text", vectors)
    assert load("graph", "store", train) == graph_cold
    assert load("vectors", "store", vectors) == vectors_cold
    assert graph_cold[:2] == ([NAMES[0], NAMES[1], NAMES[3], NAMES[2]], [NAMES[2], "r", NAMES[3]])
    assert vectors_cold[0] == [(key, row) for row, key in enumerate(NAMES + ["b"])]
    subset = test_text.load_by("store", vectors, keys=[NAMES[3], "b", "missing"])
    assert list(subset.rows) == [NAMES[3], "b"]
    assert bits(subset.matrix) == bits([[3, -0.75, 0.5], [4, -1, 0.5], [0, 0, 0]])


@pytest.mark.parametrize("piece", PIECES)
@pytest.mark.parametrize("kind, block", [("graph", "names"), ("vectors", "keys")])
def test_unended_names_block_is_parsed_again(tmp_path, monkeypatch, caplog, piece, kind, block):
    """A names block whose final "\\n" is overwritten (same store size) is
    parsed again and the store rewritten, with the store warning."""
    monkeypatch.setattr(stores, "SCAN_BYTES", piece)
    path = dict(zip(("graph", "vectors"), write_inputs(tmp_path)))[kind]
    want = load(kind, "text", path)
    store = Path(f"{path}{stores.SUFFIX}")
    data = store.read_bytes()
    assert data.endswith(b"\n")
    store.write_bytes(data[:-1] + b"x")
    with caplog.at_level(logging.WARNING):
        assert load(kind, "text", path) == want
    assert caplog.messages == [f"{store}: malformed {block}; parsing {path} and writing it again"]
    assert store.read_bytes() == data
    caplog.clear()
    with caplog.at_level(logging.WARNING):
        assert load(kind, "store", path) == want
    assert not caplog.messages
