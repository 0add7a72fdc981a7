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
from helpers import (STORE_WRITE_FAILURES, fail_store_writes, graph_from_triples,
                     reference_load_graph, write_triples)


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
        assert g.is_open(3) and not g.is_open(0)
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
        original = {"E1": EntityText("E1", "a\tb", "line1\nline2\\end")}
        path = tmp_path / "meta.tsv"
        save_entity_text(str(path), original)
        loaded = load_entity_text(str(path))
        assert loaded["E1"].name == "a\tb"
        assert loaded["E1"].description == "line1\nline2\\end"

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
