import logging
import random
import re

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
from helpers import graph_from_triples, reference_load_graph, write_triples


TRAIN = [("a", "r", "b"), ("a", "r", "c"), ("b", "s", "c")]


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

    def test_known_tails_matches_brute_force(self, tmp_path):
        g = graph_from_triples(tmp_path, TRAIN)
        for r in range(g.num_relations):
            expected = {t for (_, rr, t) in g.train if rr == r}
            assert g.known_tails[r].tolist() == sorted(expected)

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
            paths = self.random_files(rng, tmp_path, open_world)
            ref = reference_load_graph(*paths, open_world=open_world)
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="owlink.graph"):
                g = load_graph(*paths, open_world=open_world)
            assert g.entities.names == list(ref.entities), case
            assert g.relations.names == list(ref.relations), case
            assert g.open_entities.names == list(ref.open_entities), case
            for name in ("train", "valid", "test"):
                assert g.split(name).dtype == np.int64 and g.split(name).shape[1:] == (3,)
                assert g.split(name).tolist() == [list(t) for t in ref.splits[name]], (case, name)
            dropped = {rec.args[2]: rec.args[1] for rec in caplog.records}
            assert dropped == {k: v for k, v in ref.duplicates.items() if v}, case
            for r in range(g.num_relations):
                assert g.known_tails[r].tolist() == sorted(ref.known_tails.get(r, ())), case
                assert g.known_heads[r].tolist() == sorted(ref.known_heads.get(r, ())), case

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
            with pytest.raises(type(expected.value), match=re.escape(str(expected.value))):
                load_graph(*paths)


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
        path.write_text("E1\tA\tx\nE1\tB\ty\n")
        with pytest.raises(MetadataError, match="duplicate"):
            load_entity_text(str(path))

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "meta.tsv"
        path.write_text("E1\tonly-name\n")
        with pytest.raises(ParseError):
            load_entity_text(str(path))

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
