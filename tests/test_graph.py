import logging
import os
import random
import re
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import owlink.graph as graphmod
from owlink.graph import (
    EntityText,
    KnowledgeGraph,
    MetadataError,
    ParseError,
    Triple,
    Vocab,
    VocabularyError,
    build_filter_index,
    escape_field,
    load_entity_text,
    load_graph,
    resolve_metadata,
    save_entity_text,
    save_triples,
    unescape_field,
)
from owlink.text import collect_keys
from helpers import (STORE_WRITE_FAILURES, fail_store_writes, graph_from_triples,
                     reference_load_graph, write_triples)
from test_text import make_store


TRAIN = [("a", "r", "b"), ("a", "r", "c"), ("b", "s", "c")]


def load_by(route, *paths, **kwargs):
    """``load_graph``, asserting that it parsed some split's text (``route``
    "text") or read every split from the store beside it ("store")."""
    with mock.patch.object(graphmod, "_chunk_triples", wraps=graphmod._chunk_triples) as chunk:
        try:
            return load_graph(*(None if p is None else str(p) for p in paths), **kwargs)
        finally:
            assert chunk.called == (route == "text"), route


class TestLoadGraph:
    def test_interning_is_first_occurrence_order(self, tmp_path):
        g = graph_from_triples(tmp_path, TRAIN)
        assert g.entities.names == ["a", "b", "c"]
        assert g.relations.names == ["r", "s"]
        assert np.array_equal(g.train, [Triple(0, 0, 1), Triple(0, 0, 2), Triple(1, 1, 2)])

    def test_empty_test_file_loads(self, tmp_path):
        g = graph_from_triples(tmp_path, TRAIN, test=[])
        assert g.test.shape == (0, 3)

    def test_duplicate_dropped_and_reported(self, tmp_path, caplog):
        with caplog.at_level(logging.WARNING, logger="owlink.graph"):
            g = graph_from_triples(tmp_path, [("a", "r", "b"), ("a", "r", "b"), ("b", "r", "a")])
        assert len(g.train) == 2
        assert any("duplicate" in rec.message for rec in caplog.records)

    def test_malformed_line_names_line_number(self, tmp_path):
        (tmp_path / "train.txt").write_text("a\tr\tb\nbadline\n")
        with pytest.raises(ParseError, match="train.txt:2"):
            load_graph(str(tmp_path / "train.txt"))

    def test_unknown_entity_closed_world_errors(self, tmp_path):
        with pytest.raises(VocabularyError, match="unknown entity"):
            graph_from_triples(tmp_path, TRAIN, test=[("zzz", "r", "b")])

    def test_unknown_relation_always_errors(self, tmp_path):
        with pytest.raises(VocabularyError, match="unknown relation"):
            graph_from_triples(tmp_path, TRAIN, test=[("a", "qq", "b")], open_world=True)

    def test_open_world_heads_get_separate_vocabulary(self, tmp_path):
        g = graph_from_triples(tmp_path, TRAIN, test=[("new1", "r", "b"), ("new2", "s", "c")],
                               open_world=True)
        assert g.num_entities == 3
        assert g.num_open_entities == 2
        assert g.test[0, 0] == 3 and g.test[1, 0] == 4
        assert g.entity_name(3) == "new1"
        assert g.entity_id("new2") == 4
        # no open entity appears in any train triple
        open_ids = {3, 4}
        assert all(h not in open_ids and t not in open_ids for h, _, t in g.train)

    def test_round_trip(self, tmp_path):
        g = graph_from_triples(tmp_path, TRAIN)
        save_triples(str(tmp_path / "out.txt"), g, g.train)
        g2 = load_graph(str(tmp_path / "out.txt"))
        assert np.array_equal(g2.train, g.train)
        assert g2.entities == g.entities
        assert g2.relations == g.relations


class TestVocab:
    def test_extend_returns_first_occurrence_ids(self):
        vocab = Vocab()
        assert vocab.extend(["x", "y", "x", "y"]).tolist() == [0, 1, 0, 1]
        assert vocab.extend(iter(["z", "x", "z", "y"])).tolist() == [2, 0, 2, 1]
        empty = vocab.extend([])
        assert empty.dtype == np.int64 and empty.shape == (0,)
        assert vocab.names == ["x", "y", "z"]
        assert [vocab.name(i) for i in range(3)] == ["x", "y", "z"]
        assert vocab.ids(["z", "w", "x"]).tolist() == [2, -1, 0]


class TestByteOrderMark:
    """A UTF-8 byte-order mark opening a text input is not part of its first
    field: each file loads as its copy without the mark does."""

    SPLITS = {"train": TRAIN, "valid": [("a", "s", "c"), ("b", "r", "a")],
              "test": [("c", "r", "a"), ("a", "s", "b")]}
    OPEN_SPLITS = {"train": TRAIN, "valid": [("n1", "s", "c"), ("b", "r", "a")],
                   "test": [("n2", "r", "a"), ("n1", "s", "b")]}

    @staticmethod
    def load(root, splits, marked, open_world):
        root.mkdir()
        for name, rows in splits.items():
            body = "".join("\t".join(row) + "\n" for row in rows)
            (root / f"{name}.txt").write_text("\ufeff" * (name == marked) + body, encoding="utf-8")
        return load_graph(*(str(root / f"{name}.txt") for name in splits), open_world=open_world)

    @pytest.mark.parametrize("open_world", [False, True])
    @pytest.mark.parametrize("marked", ["train", "valid", "test"])
    def test_triples(self, tmp_path, marked, open_world):
        splits = self.OPEN_SPLITS if open_world else self.SPLITS
        got = self.load(tmp_path / "bom", splits, marked, open_world)
        want = self.load(tmp_path / "plain", splits, None, open_world)
        for vocab in ("entities", "relations", "open_entities"):
            assert getattr(got, vocab).names == getattr(want, vocab).names
        for split in ("train", "valid", "test"):
            assert np.array_equal(got.split(split), want.split(split))

    def test_metadata(self, tmp_path):
        body = "E1\tBram Stoker\tnovelist\nE2\tParma\t\n"
        (tmp_path / "bom.tsv").write_text("\ufeff" + body, encoding="utf-8")
        (tmp_path / "plain.tsv").write_text(body, encoding="utf-8")
        got = load_entity_text(str(tmp_path / "bom.tsv"))
        assert got == load_entity_text(str(tmp_path / "plain.tsv"))
        assert list(got) == ["E1", "E2"]


def write_lines(path, lines, rng):
    """``lines`` with a random mix of LF and CRLF endings; sometimes none
    after the last line."""
    text = "".join(line + rng.choice(["\n", "\r\n"]) for line in lines)
    if lines and rng.random() < 0.3:
        text = text.rstrip("\r\n")
    path.write_bytes(text.encode("utf-8"))
    return str(path)


class TestLoaderMatchesLineLoop:
    """``load_graph`` reads chunks of ``LOAD_CHUNK_LINES`` lines; a few-line
    chunk puts blank lines, duplicates and bad lines on both sides of many
    chunk boundaries. The oracle is the line loop in helpers.py."""

    @staticmethod
    def random_files(rng, tmp_path, open_world):
        entities = [f"e{i}" for i in range(rng.randint(2, 9))] + ["é\u00fc"]
        relations = [f"r{i}" for i in range(rng.randint(1, 4))]

        def lines(count, heads, rels, tails):
            out = []
            for _ in range(count):
                roll = rng.random()
                if roll < 0.15:
                    out.append("")
                elif roll < 0.35 and out:
                    out.append(rng.choice(out))  # a duplicate, near or far
                else:
                    out.append(f"{rng.choice(heads)}\t{rng.choice(rels)}\t{rng.choice(tails)}")
            return out

        train = lines(rng.randint(1, 40), entities, relations, entities)
        used = [f for line in train if line for f in line.split("\t")]
        known = [e for e in entities if e in used] or entities[:1]
        known_rels = [r for r in relations if r in used] or relations[:1]
        if not any(train):
            train.append(f"{known[0]}\t{known_rels[0]}\t{known[0]}")
        opens = [f"o{i}" for i in range(rng.randint(1, 4))] if open_world else []
        paths = [write_lines(tmp_path / "train.txt", train, rng)]
        for name in ("valid", "test"):
            split = lines(rng.randint(0, 15), known + opens, known_rels, known + opens)
            paths.append(write_lines(tmp_path / f"{name}.txt", split, rng))
        return paths

    def test_same_graph_as_line_loop(self, tmp_path, monkeypatch, caplog):
        rng = random.Random(808)
        for case in range(300):
            monkeypatch.setattr(graphmod, "LOAD_CHUNK_LINES", rng.randint(3, 7))
            open_world = rng.random() < 0.5
            (tmp_path / str(case)).mkdir()
            paths = self.random_files(rng, tmp_path / str(case), open_world)
            ref = reference_load_graph(*paths, open_world=open_world)
            for route in ("text", "store"):  # the parse writes the stores the second load reads
                caplog.clear()
                with caplog.at_level(logging.WARNING, logger="owlink.graph"):
                    g = load_by(route, *paths, open_world=open_world)
                assert g.entities.names == list(ref.entities), case
                assert g.relations.names == list(ref.relations), case
                assert g.open_entities.names == list(ref.open_entities), case
                for name in ("train", "valid", "test"):
                    assert g.split(name).dtype == np.int64 and g.split(name).shape[1:] == (3,)
                    assert g.split(name).tolist() == [list(t) for t in ref.splits[name]], \
                        (case, name)
                dropped = {rec.args[2]: rec.args[1] for rec in caplog.records}
                assert dropped == {k: v for k, v in ref.duplicates.items() if v}, case

    BAD = {
        "malformed": lambda rng: rng.choice(["e0\tr0", "e0\tr0\te1\te0", "e0", "\t\t\t"]),
        "relation": lambda rng: rng.choice(["e0\tnope\te1", "zz\tnope\tyy"]),
        "entity": lambda rng: rng.choice(["zz\tr0\te1", "e0\tr0\tzz", "zz\tr0\tyy"]),
    }

    @pytest.mark.parametrize("where", ["first", "middle", "last", "two-in-one-chunk"])
    @pytest.mark.parametrize("file, kind", [("train", "malformed"), ("test", "malformed"),
                                            ("test", "relation"), ("test", "entity")])
    def test_bad_line_raises_line_loop_error(self, tmp_path, monkeypatch, file, kind, where):
        rng = random.Random(f"{file}-{kind}-{where}")
        for _ in range(20):
            chunk = rng.randint(3, 7)
            monkeypatch.setattr(graphmod, "LOAD_CHUNK_LINES", chunk)
            good = [f"e{rng.randint(0, 3)}\tr{rng.randint(0, 1)}\te{rng.randint(0, 3)}"
                    for _ in range(rng.randint(2 * chunk, 5 * chunk))]
            good += ["e0\tr0\te1", "e2\tr1\te3", ""]
            rng.shuffle(good)
            bad = [self.BAD[kind](rng)]
            if where == "two-in-one-chunk":
                bad.append(self.BAD[rng.choice(list(self.BAD))](rng))
            size = len(good) + len(bad)
            first_of_chunk = {"first": 0, "middle": (size // chunk // 2) * chunk,
                              "last": (size - 1) // chunk * chunk}.get(where)
            if first_of_chunk is None:
                first_of_chunk = rng.randrange(0, size - chunk + 1, chunk)
            spots = sorted(rng.sample(range(first_of_chunk, min(first_of_chunk + chunk, size)),
                                      len(bad)))
            lines = list(good)
            for spot, line in zip(spots, bad):
                lines.insert(spot, line)
            files = {"train": good, "test": ["e1\tr0\te2"]}
            files[file] = lines
            paths = [write_lines(tmp_path / "train.txt", files["train"], rng), None,
                     write_lines(tmp_path / "test.txt", files["test"], rng)]
            with pytest.raises((ParseError, VocabularyError)) as expected:
                reference_load_graph(*paths)
            # a well-formed file's store is written before the vocabulary
            # check, so then the second load reads every split from its store
            malformed = any(line and line.count("\t") != 2 for line in lines)
            for route in ("text", "text" if malformed else "store"):
                with pytest.raises(type(expected.value), match=re.escape(str(expected.value))):
                    load_by(route, *paths)


def split_variant(name):
    """Train, valid and test bytes and the open-world flag of one loader case:
    a byte-order mark, each line ending, blank lines, no final newline,
    duplicate lines, open-world names, an unknown relation, an unknown
    closed-world entity, or an empty file."""
    train = ["a\tr\tb", "b\ts\t\u00e9", "a\tr\tb", "\u00e9\tr\ta", "", "a\ts\tb"]
    valid = ["a\tr\t\u00e9", "b\ts\ta", "b\ts\ta"]
    test = ["\u00e9\ts\tb", "a\tr\tb"]
    end, open_world, bom = "\n", False, ""
    if name == "bom":
        bom = "\ufeff"
    elif name in ("crlf", "cr"):
        end = {"crlf": "\r\n", "cr": "\r"}[name]
    elif name == "blank_lines_no_final_newline":
        train, test = ["", ""] + train + ["", ""], ["", "", *test, "", ""]
    elif name == "open_world":
        valid, test, open_world = valid + ["n1\tr\ta", "b\ts\tn2", "n1\ts\tn1"], \
            ["n2\tr\tn3", *test, "n3\ts\tb"], True
    elif name == "unknown_relation":
        test = test + ["a\tq\tb"]
    elif name == "unknown_entity":
        valid = valid + ["a\tr\tn1"]
    elif name == "empty":
        valid = []

    def text(lines):
        body = end.join(lines)
        return (bom + body + (end if lines and name != "blank_lines_no_final_newline" else "")
                ).encode()

    return [text(lines) for lines in (train, valid, test)], open_world


def load_outcome(route, paths, open_world, caplog):
    """What a load of ``paths`` gives: the vocabularies' names and each
    split's dtype and rows, or the error, and the warnings it logs."""
    caplog.clear()
    with caplog.at_level(logging.WARNING):
        try:
            g = load_by(route, *paths, open_world=open_world)
        except (ParseError, VocabularyError) as exc:
            result = (type(exc), str(exc))
        else:
            result = (g.entities.names, g.relations.names, g.open_entities.names,
                      [(g.split(n).dtype, g.split(n).tolist()) for n in graphmod.SPLITS])
    return result, [rec.getMessage() for rec in caplog.records]


class TestSplitStore:
    """The store beside a split file serves a later load of the same bytes
    with the parse's vocabularies, triples, warnings and errors; anything
    else is parsed again."""

    VARIANTS = ["plain", "bom", "crlf", "cr", "blank_lines_no_final_newline", "open_world",
                "unknown_relation", "unknown_entity", "empty"]

    @staticmethod
    def write(root, texts):
        root.mkdir(exist_ok=True)
        paths = [root / f"{name}.txt" for name in graphmod.SPLITS]
        for path, data in zip(paths, texts):
            path.write_bytes(data)
        return paths

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_warm_load_equals_cold_parse(self, tmp_path, caplog, variant):
        texts, open_world = split_variant(variant)
        paths = self.write(tmp_path, texts)
        cold = load_outcome("text", paths, open_world, caplog)
        warm = load_outcome("store", paths, open_world, caplog)
        assert warm == cold
        assert f"{paths[0]}: dropped 1 duplicate triples in train split" in cold[1]
        if variant == "unknown_relation":
            assert cold[0] == (VocabularyError, f"{paths[2]}:3: unknown relation 'q'")
        elif variant == "unknown_entity":
            assert cold[0] == (VocabularyError,
                               f"{paths[1]}:4: unknown entity 'n1' in closed-world mode")
        else:
            assert cold[0][:2] == (["a", "b", "\u00e9"], ["r", "s"])
            assert cold[0][3][0] == (np.int64, [[0, 0, 1], [1, 1, 2], [2, 0, 0], [0, 1, 1]])
        read = paths[:2] if variant == "unknown_entity" else paths  # valid raises
        assert sorted(os.listdir(tmp_path)) == sorted(
            [p.name for p in paths] + [f"{p.name}.store" for p in read])

    def test_store_holds_the_file_own_parse(self, tmp_path):
        """Names in first-occurrence order (heads and tails interleaved), the
        distinct triples in those ids, the duplicate count; no train vocabulary."""
        paths = self.write(tmp_path, [b"b\tr\tc\nc\ts\tb\n", b"x\ts\tc\nc\tr\ty\nx\ts\tc\n", b""])
        g = load_graph(*map(str, paths), open_world=True)
        data = Path(f"{paths[1]}.store").read_bytes()
        header = graphmod._TRIPLES.header
        assert data[:16] == b"owlink-triples1\n"
        assert header.unpack(data[:header.size])[2:] == (3, 2, 2, 1, 10)
        assert np.frombuffer(data[header.size:header.size + 48], "<i8").tolist() == \
            [0, 0, 1, 1, 1, 2]
        assert data[header.size + 48:] == b"x\nc\ny\ns\nr\n"
        assert g.valid.tolist() == [[2, 1, 1], [1, 0, 3]] and g.open_entities.names == ["x", "y"]

    def test_store_of_other_text_is_parsed_over(self, tmp_path, caplog):
        paths = self.write(tmp_path, [b"a\tr\tb\n", b"", b""])
        load_by("text", *paths)
        paths[0].write_bytes(b"b\tr\ta\nc\tr\ta\n")
        got = load_outcome("text", paths, False, caplog)
        assert got[0][:2] == (["b", "a", "c"], ["r"])
        assert len(got[1]) == 1
        assert f"{paths[0]}.store: made from other text" in got[1][0]
        assert load_outcome("store", paths, False, caplog) == (got[0], [])

    def test_same_size_rewrite_is_parsed_again(self, tmp_path):
        paths = self.write(tmp_path, [b"a\tr\tb\n", b"", b""])
        load_by("text", *paths)
        stat = paths[0].stat()
        paths[0].write_bytes(b"b\tr\ta\n")
        os.utime(paths[0], ns=(stat.st_atime_ns, stat.st_mtime_ns))  # same size and mtime
        assert paths[0].stat().st_size == stat.st_size
        assert load_by("text", *paths).entities.names == ["b", "a"]
        assert load_by("store", *paths).entities.names == ["b", "a"]

    @pytest.mark.parametrize("damage", ["empty", "header_only", "cut_last_byte", "extra_byte",
                                        "magic", "names_not_utf8", "repeated_name", "name_count",
                                        "id_out_of_range", "negative_id", "count_grown"])
    def test_damaged_store_is_rebuilt_with_a_warning(self, tmp_path, caplog, damage):
        paths = self.write(tmp_path, [b"a\tr\tb\na\ts\tc\nb\tr\tc\na\tr\tb\n", b"", b""])
        want = load_outcome("text", paths, False, caplog)
        store = Path(f"{paths[0]}.store")
        data = bytearray(store.read_bytes())
        header = graphmod._TRIPLES.header.size
        assert data[-10:] == b"a\nb\nc\nr\ns\n"
        if damage == "empty":
            data = b""
        elif damage == "header_only":
            data = data[:header]
        elif damage == "cut_last_byte":
            data = data[:-1]
        elif damage == "extra_byte":
            data += b"\n"
        elif damage == "magic":
            data[0] ^= 1
        elif damage == "names_not_utf8":
            data[-2] = 0xFF
        elif damage == "repeated_name":
            data[-6] = ord("a")  # entities a, b, a
        elif damage == "name_count":
            data[-3] = ord("x")  # relations "rxs": one name fewer
        elif damage == "id_out_of_range":
            data[header] = 3
        elif damage == "negative_id":
            data[header + 7] = 0xFF
        elif damage == "count_grown":
            data[header - 24] += 1  # the triple count
        store.write_bytes(bytes(data))
        got = load_outcome("text", paths, False, caplog)
        assert got[0] == want[0]
        assert len(got[1]) == 2 and got[1][1] == want[1][0]
        assert got[1][0].startswith(f"{store}: ")
        assert load_outcome("store", paths, False, caplog) == want  # rebuilt

    @pytest.mark.parametrize("fails", [f for f in STORE_WRITE_FAILURES if f != "tempfile"])
    def test_write_failure_still_returns_the_parse(self, tmp_path, monkeypatch, caplog, fails):
        """A directory whose stores cannot be written still loads, and keeps
        only the text (no store, no temporary file)."""
        texts, open_world = split_variant("open_world")
        want = load_outcome("text", self.write(tmp_path / "ok", texts), open_world, caplog)
        paths = self.write(tmp_path / "full", texts)
        fail_store_writes(monkeypatch, fails)
        for _ in range(2):
            got = load_outcome("text", paths, open_world, caplog)
            assert got[0] == want[0]
        assert sorted(os.listdir(tmp_path / "full")) == ["test.txt", "train.txt", "valid.txt"]


class TestWrittenSplitStore:
    """``save_triples`` loads the file it wrote, so the store beside it is
    the one a cold load of that file writes, byte for byte; none when the
    file does not parse."""

    CASES = {  # entity names and rows
        "non_ascii": (["\u00e9t\u00e9", "b", "\u5317\u4eac"], [[0, 0, 2], [1, 1, 0], [2, 0, 1]]),
        "empty": (["a", "b"], []),
        "duplicate_rows": (["a", "b", "c"], [[1, 1, 2], [0, 0, 1], [1, 1, 2], [2, 0, 0],
                                             [0, 0, 1], [1, 1, 2]]),
        "byte_order_mark": (["\ufeffa", "b"], [[0, 0, 1], [1, 0, 0]]),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_store_equals_the_cold_load_store(self, tmp_path, case):
        names, rows = self.CASES[case]
        g = KnowledgeGraph(Vocab(names), Vocab(["r", "\u00fc"]), [(0, 0, 1)])
        path = tmp_path / "written.txt"
        save_triples(str(path), g, np.array(rows, dtype=np.int64).reshape(-1, 3))
        cold = tmp_path / "cold" / "written.txt"
        cold.parent.mkdir()
        cold.write_bytes(path.read_bytes())
        want = load_graph(str(cold))
        if case == "byte_order_mark":  # the utf-8-sig read drops the first name's U+FEFF
            assert want.entities.names == ["a", "b", "\ufeffa"]
        assert Path(f"{path}.store").read_bytes() == Path(f"{cold}.store").read_bytes()
        got = load_by("store", path)
        assert (got.entities, got.relations) == (want.entities, want.relations)
        assert got.train.tolist() == want.train.tolist()
        assert sorted(os.listdir(tmp_path)) == ["cold", "written.txt", "written.txt.store"]

    def test_equal_names_are_left_to_the_load(self, tmp_path):
        """A graph whose open vocabulary repeats a closed name writes two
        rows a load reads as one entity: the load writes the store."""
        g = KnowledgeGraph(Vocab(["a", "b"]), Vocab(["r"]), [(0, 0, 1)],
                           open_entities=Vocab(["a"]))
        path = tmp_path / "written.txt"
        save_triples(str(path), g, [(0, 0, 1), (2, 0, 1)])
        assert path.read_text() == "a\tr\tb\na\tr\tb\n"
        cold = tmp_path / "cold" / "written.txt"
        cold.parent.mkdir()
        cold.write_bytes(path.read_bytes())
        assert load_by("text", cold).train.tolist() == [[0, 0, 1]]
        assert Path(f"{path}.store").read_bytes() == Path(f"{cold}.store").read_bytes()
        assert load_by("store", path).train.tolist() == [[0, 0, 1]]

    def test_a_store_made_from_other_text_is_replaced(self, tmp_path, caplog):
        """A store left beside the path is removed before the load, so the
        load writes the new file's store and warns of no stale one."""
        g = graph_from_triples(tmp_path, TRAIN)
        path = tmp_path / "written.txt"
        save_triples(str(path), g, g.train[:1])
        stale = Path(f"{path}.store").read_bytes()
        with caplog.at_level(logging.WARNING, logger="owlink.stores"):
            save_triples(str(path), g, g.train)
        assert not caplog.records
        assert Path(f"{path}.store").read_bytes() != stale
        assert load_by("store", path).train.tolist() == g.train.tolist()

    @pytest.mark.parametrize("name, line, fields", [("b\tc", 1, 4), ("b\nc", 2, 1),
                                                    ("b\rc", 2, 1)])
    def test_names_that_split_a_line_are_left_to_the_load(self, tmp_path, name, line, fields):
        """A name holding a tab or a line break does not read back as
        itself, so no store is written and the load raises the text's error."""
        g = KnowledgeGraph(Vocab(["a", name]), Vocab(["r"]), [(0, 0, 1)])
        path = tmp_path / "written.txt"
        save_triples(str(path), g, g.train)
        assert not Path(f"{path}.store").exists()
        with pytest.raises(ParseError) as got:
            load_graph(str(path))
        assert str(got.value) == f"{path}:{line}: expected 3 tab-separated fields, got {fields}"

    @pytest.mark.parametrize("fails", [f for f in STORE_WRITE_FAILURES if f != "tempfile"])
    def test_write_failure_still_writes_the_text(self, tmp_path, monkeypatch, fails):
        g = graph_from_triples(tmp_path, TRAIN)
        (tmp_path / "train.txt.store").unlink()
        fail_store_writes(monkeypatch, fails)
        path = tmp_path / "written.txt"
        save_triples(str(path), g, g.train)
        assert path.read_bytes() == (tmp_path / "train.txt").read_bytes()
        assert sorted(os.listdir(tmp_path)) == ["train.txt", "written.txt"]


def load_metadata_by(route, path):
    """``load_entity_text``, asserting that it parsed the text (``route``
    "text") or read the metadata store beside it ("store")."""
    with mock.patch.object(graphmod, "_tsv_lines", wraps=graphmod._tsv_lines) as lines:
        try:
            return load_entity_text(str(path))
        finally:
            assert lines.called == (route == "text"), route


METADATA_RECORDS = ["E1\tBram Stoker\tIrish novelist, born 1847", "E2\tParma\t",
                    "E3\t\tno name, only a description", "E4\t\t",
                    "E5\ta\\tb\tline1\\nline2\\\\end w1",
                    "\u00c96\t\u00c9t\u00e9 \u5317\u4eac\tw1 w2 w1", "E7\tParma\tIrish w2"]


def metadata_variant(name):
    """``METADATA_RECORDS`` as a file's bytes: plain, after a byte-order mark,
    with each line ending, or between blank lines."""
    lines, end = METADATA_RECORDS, {"crlf": "\r\n", "cr": "\r"}.get(name, "\n")
    if name == "blank_lines":
        lines = ["", *lines[:3], "", "", *lines[3:], ""]
    return ("\ufeff" * (name == "bom") + end.join(lines) + end).encode()


def metadata_outcome(route, path, graph, store):
    """What a load of the metadata file ``path`` gives: its records, and the
    TextKeys and their rows on ``store`` of the ``graph`` entities' text."""
    meta = load_metadata_by(route, path)
    keys = collect_keys(resolve_metadata(meta, graph), store.phrase_template)
    rows = keys.rows(store)
    return (list(meta.items()), keys.keys,
            [getattr(ids, f).tolist() for ids in (keys.ids, rows)
             for f in ("entities", "offsets", "rows")])


class TestMetadataStore:
    """The store beside a metadata file serves a later load of the same bytes
    with the parse's records, tokens and text keys; anything else is parsed
    again, and every error comes from the text."""

    @staticmethod
    def graph_and_store(tmp_path):
        g = graph_from_triples(tmp_path, [("E1", "r", "E2"), ("\u00c96", "r", "E3"),
                                          ("E4", "r", "E5")], test=[("E7", "r", "E1")],
                               open_world=True)
        return g, make_store(["irish", "w1", "w2", "line1", "\u00e9t\u00e9", "parma", "P/Parma",
                              "P/Bram_Stoker"], phrase_template="P/{name}")

    @pytest.mark.parametrize("variant", ["plain", "bom", "crlf", "cr", "blank_lines"])
    def test_warm_load_equals_cold_parse(self, tmp_path, variant):
        path = tmp_path / "meta.tsv"
        path.write_bytes(metadata_variant(variant))
        g, store = self.graph_and_store(tmp_path)
        cold = metadata_outcome("text", path, g, store)
        assert metadata_outcome("store", path, g, store) == cold
        assert cold[0] == [(f[0], EntityText(f[0], unescape_field(f[1]), unescape_field(f[2])))
                           for f in (r.split("\t") for r in METADATA_RECORDS)]
        assert cold[0][4][1] == EntityText("E5", "a\tb", "line1\nline2\\end w1")
        # the in-memory route: same rows, whatever order its keys take
        plain = {g.entity_id(k): m for k, m in cold[0] if g.entity_id(k) is not None}
        keys = collect_keys(plain, store.phrase_template)
        assert sorted(keys.keys) == sorted(cold[1])
        rows = keys.rows(store)
        assert [getattr(rows, f).tolist() for f in ("entities", "offsets", "rows")] == cold[2][3:]
        assert sorted(os.listdir(tmp_path)) == ["meta.tsv", "meta.tsv.store", "test.txt",
                                                "test.txt.store", "train.txt", "train.txt.store"]

    def test_store_holds_the_records_and_the_token_csr(self, tmp_path):
        path = tmp_path / "meta.tsv"
        path.write_text("b\tX y\ty\\tz\na\t\tY\n")
        meta = load_entity_text(str(path))
        data = Path(f"{path}.store").read_bytes()
        header = graphmod._METADATA.header
        assert data[:16] == b"owlink-metatsv1\n"
        assert header.unpack(data[:header.size])[2:] == (2, 3, 5, 22)
        offsets = np.frombuffer(data[header.size:header.size + 40], "<i8").tolist()
        token_ids = np.frombuffer(data[header.size + 40:header.size + 60], "<i4").tolist()
        assert (offsets, token_ids) == ([0, 2, 4, 4, 5], [0, 1, 1, 2, 1])
        assert data[header.size + 60:] == b"b\na\nX y\n\ny\\tz\nY\nx\ny\nz\n"
        assert dict(meta) == {"b": EntityText("b", "X y", "y\tz"), "a": EntityText("a", "", "Y")}
        assert meta.table.tokens == ["x", "y", "z"]

    @pytest.mark.parametrize("bad, error", [
        ("E1\tA\tx\nE2\tB\n", "{path}:2: expected 3 tab-separated fields, got 2"),
        ("E1\tA\tx\nE1\tB\ty\n", "{path}:2: duplicate metadata for entity 'E1'"),
    ])
    def test_bad_text_with_an_earlier_store_raises_its_error(self, tmp_path, caplog, bad,
                                                             error):
        path = tmp_path / "meta.tsv"
        path.write_text("E1\tA\tx\nE2\tB\ty\n")
        load_metadata_by("text", path)
        path.write_text(bad)
        with caplog.at_level(logging.WARNING, logger="owlink.stores"):
            with pytest.raises((ParseError, MetadataError)) as got:
                load_entity_text(str(path))
        assert str(got.value) == error.format(path=path)
        assert caplog.messages == [f"{path}.store: made from other text; parsing {path} and "
                                   "writing it again"]

    def test_store_of_other_text_is_parsed_over(self, tmp_path, caplog):
        path = tmp_path / "meta.tsv"
        path.write_text("E1\tA\tx\n")
        load_metadata_by("text", path)
        path.write_text("E2\tB\ty z\nE1\tA\tx\n")
        with caplog.at_level(logging.WARNING):
            meta = load_metadata_by("text", path)
        assert list(meta) == ["E2", "E1"] and meta.table.tokens == ["b", "y", "z", "a", "x"]
        assert len(caplog.messages) == 1 and "made from other text" in caplog.messages[0]
        caplog.clear()
        assert dict(load_metadata_by("store", path)) == dict(meta)
        assert not caplog.messages

    def test_same_size_rewrite_is_parsed_again(self, tmp_path):
        path = tmp_path / "meta.tsv"
        path.write_text("E1\tA\tx\n")
        load_metadata_by("text", path)
        stat = path.stat()
        path.write_text("E2\tB\ty\n")
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))  # same size and mtime
        assert path.stat().st_size == stat.st_size
        assert dict(load_metadata_by("text", path)) == {"E2": EntityText("E2", "B", "y")}
        assert dict(load_metadata_by("store", path)) == {"E2": EntityText("E2", "B", "y")}

    @pytest.mark.parametrize("damage", ["empty", "header_only", "cut_last_byte", "extra_byte",
                                        "magic", "names_not_utf8", "repeated_id", "name_count",
                                        "token_id_out_of_range", "negative_token_id",
                                        "offsets_descending", "count_grown"])
    def test_damaged_store_is_rebuilt_with_a_warning(self, tmp_path, caplog, damage):
        path = tmp_path / "meta.tsv"
        path.write_text("a\tA\tx y\nb\tB\ty\n")
        want = dict(load_metadata_by("text", path))
        store = Path(f"{path}.store")
        data = bytearray(store.read_bytes())
        header = graphmod._METADATA.header.size
        assert data[header:header + 40] == np.array([0, 1, 3, 4, 5], "<i8").tobytes()
        tokens = header + 40  # the token ids: a x y b y
        assert data[-22:] == b"a\nb\nA\nB\nx y\ny\na\nx\ny\nb\n"
        if damage == "empty":
            data = b""
        elif damage == "header_only":
            data = data[:header]
        elif damage == "cut_last_byte":
            data = data[:-1]
        elif damage == "extra_byte":
            data += b"\n"
        elif damage == "magic":
            data[0] ^= 1
        elif damage == "names_not_utf8":
            data[-2] = 0xFF
        elif damage == "repeated_id":
            data[-20] = ord("a")  # ids a, a
        elif damage == "name_count":
            data[-3] = ord("x")  # tokens "yxb": one name fewer
        elif damage == "token_id_out_of_range":
            data[tokens] = 4
        elif damage == "negative_token_id":
            data[tokens + 3] = 0xFF
        elif damage == "offsets_descending":
            data[header + 8] = 4  # 0, 4, 3, ...
        elif damage == "count_grown":
            data[header - 24] += 1  # the token count
        store.write_bytes(bytes(data))
        with caplog.at_level(logging.WARNING):
            assert dict(load_metadata_by("text", path)) == want
        assert len(caplog.messages) == 1 and caplog.messages[0].startswith(f"{store}: ")
        caplog.clear()
        assert dict(load_metadata_by("store", path)) == want  # rebuilt
        assert not caplog.messages

    @pytest.mark.parametrize("fails", [f for f in STORE_WRITE_FAILURES if f != "tempfile"])
    def test_write_failure_still_returns_the_parse(self, tmp_path, monkeypatch, fails):
        path = tmp_path / "meta.tsv"
        path.write_text("".join(f"e{i}\tA\tx y\n" for i in range(2000)) + "c\tC\t\n")
        fail_store_writes(monkeypatch, fails)
        for _ in range(2):
            meta = load_metadata_by("text", path)
            assert len(meta) == 2001 and meta["c"] == EntityText("c", "C", "")
        assert sorted(os.listdir(tmp_path)) == ["meta.tsv"]


class TestFilterIndex:
    def test_true_tails_direct_definition(self, tmp_path):
        g = graph_from_triples(tmp_path, [("a", "r", "b"), ("a", "r", "c")])
        idx = build_filter_index(g, splits=("train",))
        assert idx.tails(0, 0).tolist() == [1, 2]
        assert idx.heads(0, 1).tolist() == [0]

    def test_no_repeated_pair_gives_singletons(self, tmp_path):
        g = graph_from_triples(tmp_path, [("a", "r", "b"), ("b", "r", "c"), ("c", "s", "a")])
        idx = build_filter_index(g, splits=("train",))
        assert all(len(idx.true_tails[k]) == 1 for k in idx.true_tails.keys.tolist())

    def test_covers_configured_splits(self, tmp_path):
        g = graph_from_triples(tmp_path, TRAIN, valid=[("b", "r", "c")], test=[("c", "s", "a")])
        idx = build_filter_index(g)
        total = sum(len(idx.true_tails[k]) for k in idx.true_tails.keys.tolist())
        assert total == len(g.train) + len(g.valid) + len(g.test)
        idx_train = build_filter_index(g, splits=("train",))
        tails = idx_train.true_tails
        assert sum(len(tails[k]) for k in tails.keys.tolist()) == len(g.train)


    def test_triple_in_two_splits_counts_once(self, tmp_path):
        g = graph_from_triples(tmp_path, TRAIN, valid=[("a", "r", "b")], test=[("a", "r", "b")])
        for idx in (build_filter_index(g), build_filter_index(g, triples=g.test)):
            assert idx.tails(0, 0).tolist() == [1, 2]
            assert idx.heads(0, 1).tolist() == [0]


class TestRestrictedFilterIndex:
    """``build_filter_index(g, splits, triples)`` holds exactly the full
    index's sets for every key the triples query, and no other key."""

    @staticmethod
    def random_split_graph(rng):
        n_e, n_open, n_r = int(rng.integers(2, 12)), int(rng.integers(0, 4)), int(rng.integers(1, 4))

        def triples(count, entity_limit):
            return [Triple(int(rng.integers(entity_limit)), int(rng.integers(n_r)),
                           int(rng.integers(entity_limit))) for _ in range(count)]

        train = triples(int(rng.integers(1, 40)), n_e)
        # valid and test may hold open-world ids (>= n_e) on either side
        valid = triples(int(rng.integers(0, 10)), n_e + n_open)
        test = triples(int(rng.integers(0, 10)), n_e + n_open)
        return KnowledgeGraph(Vocab([f"e{i}" for i in range(n_e)]),
                              Vocab([f"r{i}" for i in range(n_r)]), train, valid, test,
                              Vocab([f"o{i}" for i in range(n_open)])), n_e + n_open, n_r

    def test_matches_full_index_on_queried_keys(self):
        rng = np.random.default_rng(404)
        split_choices = [("train",), ("train", "valid"), ("train", "valid", "test"), ("test",)]
        for _ in range(500):
            g, n_ids, n_r = self.random_split_graph(rng)
            splits = split_choices[int(rng.integers(len(split_choices)))]
            # queried triples: some from the splits, some with keys no split holds
            pool = [*g.train, *g.valid, *g.test]
            queried = [pool[int(i)] for i in rng.integers(len(pool), size=int(rng.integers(0, 8)))]
            queried += [Triple(int(rng.integers(n_ids + 2)), int(rng.integers(n_r)),
                               int(rng.integers(n_ids + 2))) for _ in range(int(rng.integers(0, 4)))]
            full = build_filter_index(g, splits)
            restricted = build_filter_index(g, splits, queried)
            keys = {divmod(k, restricted.base) for k in restricted.true_tails.keys.tolist()}
            assert keys == {(h, r) for h, r, _ in queried}
            keys = {divmod(k, restricted.base) for k in restricted.true_heads.keys.tolist()}
            assert keys == {(r, t) for _, r, t in queried}
            for h, r, t in queried:
                assert restricted.tails(h, r).tolist() == full.tails(h, r).tolist()
                assert restricted.heads(r, t).tolist() == full.heads(r, t).tolist()


class TestEntityText:
    def test_load_basic(self, tmp_path):
        path = tmp_path / "meta.tsv"
        path.write_text(
            "E1\tBram Stoker\tIrish novelist and short story writer\n"
            "E2\tParma\t\n"
        )
        meta = load_entity_text(str(path))
        assert meta["E1"].name == "Bram Stoker"
        assert meta["E1"].description.startswith("Irish novelist")
        assert meta["E2"].description == ""

    def test_duplicate_entity_errors(self, tmp_path):
        path = tmp_path / "meta.tsv"
        # a duplicate on an earlier line than a malformed one is the error
        for text in ("E1\tA\tx\nE1\tB\ty\n", "E1\tA\tx\nE1\tB\ty\nE2\tC\n"):
            path.write_text(text)
            with pytest.raises(MetadataError) as exc:
                load_entity_text(str(path))
            assert str(exc.value) == f"{path}:2: duplicate metadata for entity 'E1'"

    def test_malformed_line(self, tmp_path):
        """A malformed line before a duplicate is the error, and a split file
        with the same lines gives the same message."""
        path = tmp_path / "meta.tsv"
        for text, lineno, fields in [("E1\tonly-name\n", 1, 2),
                                     ("E1\tA\tx\n\nE2\tB\n\tx\nE1\tB\ty\n", 3, 2),
                                     ("E1\tA\tx\nE2\tB\tx\ty\nE1\tB\ty\n", 2, 4),
                                     ("E1\tA\tx\nE2\nE1\tB\ty\n", 2, 1)]:
            path.write_text(text)
            for load in (load_entity_text, load_graph):
                with pytest.raises(ParseError) as exc:
                    load(str(path))
                assert str(exc.value) == \
                    f"{path}:{lineno}: expected 3 tab-separated fields, got {fields}"

    def test_escaping_round_trip(self, tmp_path):
        """Tabs, line feeds and backslashes read back in names and descriptions."""
        texts = ["a\tb", "line1\nline2\\end", "\\t not a tab", "\t\n\\", ""]
        original = {f"E{i}": EntityText(f"E{i}", name, description)
                    for i, (name, description) in enumerate(zip(texts, reversed(texts)))}
        path = tmp_path / "meta.tsv"
        save_entity_text(str(path), original)
        assert dict(load_entity_text(str(path))) == original

    @pytest.mark.parametrize("ext_id, name, description, what, char", [
        ("e\t1", "A", "x", "id", "\t"), ("e\n1", "A", "x", "id", "\n"),
        ("e\r1", "A", "x", "id", "\r"), ("e1", "A\rB", "x", "name", "\r"),
        ("e1", "A", "x\ry", "description", "\r")])
    def test_save_refuses_records_that_would_not_read_back(self, tmp_path, ext_id, name,
                                                           description, what, char):
        path = tmp_path / "m.tsv"
        metadata = {"e0": EntityText("e0", "ok", ""), ext_id: EntityText(ext_id, name, description)}
        with pytest.raises(ValueError) as exc:
            save_entity_text(str(path), metadata)
        assert str(exc.value) == (f"{path}: entity {ext_id!r}: its {what} holds {char!r}, "
                                  "which a metadata file cannot hold")
        assert not path.exists()

    def test_save_refuses_a_first_id_with_a_byte_order_mark(self, tmp_path):
        """The read drops a U+FEFF that starts the file, so the first id would
        not read back."""
        path = tmp_path / "m.tsv"
        metadata = {"\ufeffe1": EntityText("\ufeffe1", "A", "x"), "e2": EntityText("e2", "B", "")}
        with pytest.raises(ValueError) as exc:
            save_entity_text(str(path), metadata)
        assert str(exc.value) == (f"{path}: entity '\\ufeffe1': its id starts with '\\ufeff', "
                                  "which the first line of a metadata file cannot hold")
        assert not path.exists()

    def test_a_later_id_with_a_byte_order_mark_reads_back(self, tmp_path):
        path = tmp_path / "m.tsv"
        metadata = {"e1": EntityText("e1", "A", "x"), "\ufeffe2": EntityText("\ufeffe2", "B", "")}
        save_entity_text(str(path), metadata)
        assert list(load_entity_text(str(path))) == ["e1", "\ufeffe2"]
        assert dict(load_entity_text(str(path))) == metadata

    def test_escape_unescape_inverse(self):
        for s in ("", "plain", "a\tb\nc", "\\t literal", "\\\\"):
            assert unescape_field(escape_field(s)) == s

    @pytest.mark.parametrize("field, expected", [
        ("trailing\\", "trailing\\"),  # a lone backslash at the end stays
        ("a\\xb", "a\\xb"),  # a backslash before another character stays
        ("\\\\t", "\\t"),  # an escaped backslash, then a plain t
        ("a\\tb\\nc\\\\", "a\tb\nc\\"),
        ("no backslash\there", "no backslash\there"),
    ])
    def test_unescape_cases(self, field, expected):
        assert unescape_field(field) == expected

    def test_unescape_matches_character_loop(self):
        def reference(text):
            out, i = [], 0
            while i < len(text):
                if text[i] == "\\" and i + 1 < len(text) and text[i + 1] in "tn\\":
                    out.append({"t": "\t", "n": "\n", "\\": "\\"}[text[i + 1]])
                    i += 2
                else:
                    out.append(text[i])
                    i += 1
            return "".join(out)

        rng = random.Random(0)
        for _ in range(5000):
            field = "".join(rng.choice("ab\\tn\t\n x") for _ in range(rng.randint(0, 12)))
            assert unescape_field(field) == reference(field), repr(field)

    def test_resolve_metadata_drops_unknown(self, tmp_path):
        g = graph_from_triples(tmp_path, TRAIN)
        meta = {"a": EntityText("a", "A"), "nope": EntityText("nope", "X")}
        resolved = resolve_metadata(meta, g)
        assert set(resolved) == {0}
        assert resolved[0].name == "A"
