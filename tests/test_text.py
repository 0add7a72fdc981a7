import logging
import os
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import owlink.mapping as mapping
import owlink.text as text
from owlink.graph import EntityText
from owlink.mapping import MapHyperparams, train_map
from owlink.text import (
    LOAD_CHUNK_LINES,
    NoTextError,
    WordEmbeddingFormatError,
    WordEmbeddingStore,
    aggregate,
    collect_keys,
    entity_rows,
    entity_tokens,
    keep_rows,
    load_word_embeddings,
    text_embedding,
    tokenize,
)
from owlink.stores import SUFFIX
from helpers import (STORE_WRITE_FAILURES, fail_store_writes, graph_from_triples, random_model,
                     store_from_vectors)


def make_store(tokens, dim=3, seed=0, phrase_template="{name}"):
    rng = np.random.default_rng(seed)
    vectors = {tok: rng.normal(size=dim) for tok in tokens}
    return store_from_vectors(vectors, dim, phrase_template)


def vec(store, token):
    """A token's vector; the zero row when the token is unknown."""
    return store.matrix[store.rows.get(token, len(store))]


def bits(a):
    return np.asarray(a, dtype=np.float64).tobytes()


def load_by(route, path, *args, **kwargs):
    """``load_word_embeddings``, asserting that it parsed the text (``route``
    "text") or read the vector store beside it ("store")."""
    with mock.patch.object(text, "_parse_chunk", wraps=text._parse_chunk) as parse:
        store = load_word_embeddings(str(path), *args, **kwargs)
    assert parse.called == (route == "text"), route
    return store


def store_file(path):
    return Path(f"{path}{SUFFIX}")


class TestLoader:
    def test_plain_file(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("cat 1.0 2.0\ndog -1.0 0.5\n")
        store = load_word_embeddings(str(path))
        assert store.dim == 2
        assert len(store) == 2
        np.testing.assert_array_equal(vec(store, "cat"), [1.0, 2.0])

    def test_count_dim_header_is_skipped(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("2 3\ncat 1 2 3\ndog 4 5 6\n")
        store = load_word_embeddings(str(path))
        assert len(store) == 2 and store.dim == 3

    @pytest.mark.parametrize("header", ["", "2 3\n"])
    def test_byte_order_mark_is_not_part_of_the_first_line(self, tmp_path, header):
        body = header + "cat 1 2 3\ndog 4 5 6\n"
        (tmp_path / "bom.txt").write_text("\ufeff" + body, encoding="utf-8")
        (tmp_path / "plain.txt").write_text(body, encoding="utf-8")
        got = load_word_embeddings(str(tmp_path / "bom.txt"))
        want = load_word_embeddings(str(tmp_path / "plain.txt"))
        assert got.rows == want.rows == {"cat": 0, "dog": 1}
        assert bits(got.matrix) == bits(want.matrix)

    def test_two_field_first_line_without_numbers_is_data(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("cat 1.5\ndog 2.5\n")
        store = load_word_embeddings(str(path))
        assert store.dim == 1
        assert "cat" in store

    def test_dimension_mismatch_names_line(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("cat 1 2 3\ndog 4 5\n")
        with pytest.raises(WordEmbeddingFormatError, match="vec.txt:2"):
            load_word_embeddings(str(path))

    def test_non_numeric_value(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("cat 1 oops 3\n")
        with pytest.raises(WordEmbeddingFormatError, match="vec.txt:1"):
            load_word_embeddings(str(path))

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan", "NaN", "1e400", "-Infinity"])
    def test_non_finite_value_names_line(self, tmp_path, value):
        path = tmp_path / "vec.txt"
        path.write_text(f"cat 1 2 3\ndog 4 {value} 6\nemu 7 8 9\n")
        with pytest.raises(WordEmbeddingFormatError, match=r"vec.txt:2: non-finite"):
            load_word_embeddings(str(path))

    @pytest.mark.parametrize("keys", [None, ["k0"]])
    @pytest.mark.parametrize("tidy", [True, False])  # parsed in bulk, or line by line
    def test_non_finite_value_names_line_in_any_chunk(self, tmp_path, keys, tidy):
        lines = [f"k{i} {i} 1 2" for i in range(2 * LOAD_CHUNK_LINES + 5)]
        lines[LOAD_CHUNK_LINES + 3] = "bad 1 nan 2"
        if not tidy:
            lines[LOAD_CHUNK_LINES + 1] = "k  1  2 3"
        path = tmp_path / "vec.txt"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(WordEmbeddingFormatError,
                           match=rf"vec.txt:{LOAD_CHUNK_LINES + 4}: non-finite"):
            load_word_embeddings(str(path), keys=keys)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("")
        with pytest.raises(WordEmbeddingFormatError, match="no embeddings"):
            load_word_embeddings(str(path))

    def test_oov_lookup_is_zero(self):
        store = make_store(["cat"])
        np.testing.assert_array_equal(vec(store, "zebra"), np.zeros(3))


class TestLoaderMatrix:
    """One (keys + 1, dim) matrix, filled in file order, zero row last."""

    def test_header_count_and_dim_are_not_trusted(self, tmp_path):
        path = tmp_path / "vec.txt"
        # the vectors set the dim, and the file's lines bound the rows
        path.write_text("1 9\ncat 1 2\ndog 3 4\nemu 5 6\n")
        store = load_by("text", path)
        assert store.matrix.shape == (4, 2) and store.dim == 2
        assert store.rows == {"cat": 0, "dog": 1, "emu": 2}
        np.testing.assert_array_equal(store.matrix, [[1, 2], [3, 4], [5, 6], [0, 0]])
        for count in (10, 10**15):  # each rewrite is parsed, not read from the store
            path.write_text(f"{count} 2\ncat 1 2\n")
            np.testing.assert_array_equal(load_by("text", path).matrix, [[1, 2], [0, 0]])

    def test_header_only_on_the_first_line(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("cat 1.5\n2 3\n")
        store = load_word_embeddings(str(path))
        assert store.rows == {"cat": 0, "2": 1}
        np.testing.assert_array_equal(vec(store, "2"), [3.0])

    def test_headerless_file_fills_the_whole_matrix(self, tmp_path):
        n = 2500
        rng = np.random.default_rng(4)
        table = np.round(rng.normal(size=(n, 3)), 4)
        path = tmp_path / "vec.txt"
        path.write_text("".join(f"k{i} " + " ".join(repr(x) for x in row) + "\n"
                                for i, row in enumerate(table.tolist())))
        store = load_word_embeddings(str(path))
        assert len(store) == n and store.matrix.shape == (n + 1, 3)
        assert store.matrix.flags.c_contiguous and store.matrix.dtype == np.float64
        assert bits(store.matrix[:n]) == bits(table)
        assert bits(store.matrix[n]) == bits(np.zeros(3))

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
    def test_every_line_ending(self, tmp_path, end):
        path = tmp_path / "vec.txt"
        path.write_bytes(end.join(["2 2", "cat 1 2", "", "dog 3 4", "emu 5 6"]).encode())
        store = load_word_embeddings(str(path))
        assert store.rows == {"cat": 0, "dog": 1, "emu": 2}
        np.testing.assert_array_equal(store.matrix, [[1, 2], [3, 4], [5, 6], [0, 0]])

    def test_duplicate_key_keeps_first_row_and_last_vector(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("cat 1 1\ndog 2 2\ncat 3 3\nemu 4 4\n")
        store = load_word_embeddings(str(path))
        assert store.rows == {"cat": 0, "dog": 1, "emu": 2}
        np.testing.assert_array_equal(store.matrix, [[3, 3], [2, 2], [4, 4], [0, 0]])

    def test_phrase_template_is_kept(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("ENTITY/Bram_Stoker 1\n")
        store = load_word_embeddings(str(path), phrase_template="ENTITY/{name}")
        assert store.phrase_key("Bram  Stoker") in store


# ---------------------------------------------------------------------------
# Reference: the per-line rule of the loader. Every load, with or without
# keys, gives its rows bit for bit or its file:line error.


def reference_load(path):
    """Key -> vector in first-seen key order (a repeated key: first place,
    last vector), or the WordEmbeddingFormatError of the first bad line."""
    vectors = {}
    dim = None
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.rstrip("\n")
            if not line:
                continue
            parts = line.split(" ")
            if lineno == 1 and len(parts) == 2:
                try:
                    int(parts[0]), int(parts[1])
                    continue
                except ValueError:
                    pass
            try:
                values = [float(x) for x in parts[1:] if x]
            except ValueError as exc:
                raise WordEmbeddingFormatError(f"{path}:{lineno}: {exc}") from None
            if dim is None:
                if not values:
                    raise WordEmbeddingFormatError(f"{path}:{lineno}: entry has no vector values")
                dim = len(values)
            elif len(values) != dim:
                raise WordEmbeddingFormatError(
                    f"{path}:{lineno}: vector length {len(values)} != expected {dim}")
            vectors[parts[0]] = values
    if dim is None:
        raise WordEmbeddingFormatError(f"{path}: no embeddings found")
    return vectors


# One odd line, written in place of the data line of key "s".
ODD_LINES = {
    "double_spaces": "s  1.5 -2.25  3",
    "leading_space": " s 1 2 3",
    "trailing_space": "s 1 2 3 ",
    "trailing_spaces": "s 1 2 3   ",
    "underscores": "s 1_0 2_5.0 3",
    "tab_after_value": "s 1\t 2 3",
    "exponents_and_signs": "s 1e-3 -2E+2 +.5",
    "negative_zero": "s -0.0 0 -0",
    "arabic_digits": "s \u0661 2 3",
    "fullwidth_digit": "s \uff11 2 3",
    "file_separator": "s 1\x1c 2 3",
    "bad_value": "s 1 oops 3",
    "hash": "s 1 2 #3",
    "short_row": "s 1 2",
    "long_row": "s 1 2 3 4",
    "key_only": "s",
    "key_and_space": "s ",
    "blank": "",
    "spaces_only": "   ",
    "duplicate_key": "k0 9 8 7",
    "header_like": "3 3",
}
LOADABLE = {"double_spaces", "trailing_space", "trailing_spaces", "underscores",
            "tab_after_value", "exponents_and_signs", "negative_zero", "arabic_digits",
            "fullwidth_digit", "blank", "duplicate_key"}


def odd_file(path, odd, position, n_lines, header, end, trailing=""):
    rng = np.random.default_rng(position)
    lines = [f"k{i} " + " ".join(repr(x) for x in rng.normal(size=3).tolist()) + trailing
             for i in range(n_lines)]
    lines[position] = odd
    if header:
        lines.insert(0, f"{n_lines} 3")
    path.write_bytes(end.join(lines + [""]).encode())


def assert_load_matches_reference(path, keys) -> bool:
    """Whether the file loads; either way the parser agrees with the
    reference, and so does the store of a file that loads."""
    store_file(path).unlink(missing_ok=True)
    try:
        expected = reference_load(str(path))
    except WordEmbeddingFormatError as exc:
        with pytest.raises(WordEmbeddingFormatError) as got:
            load_word_embeddings(str(path), keys=keys)
        assert str(got.value) == str(exc)
        assert sorted(os.listdir(path.parent)) == [path.name]  # no store, no temporary file
        return False
    if keys is not None:
        expected = {k: v for k, v in expected.items() if k in keys}
    table = np.asarray(list(expected.values()) + [[0.0] * 3], dtype=np.float64)
    for route in ("text", "store"):
        store = load_by(route, path, keys=keys)
        assert list(store.rows) == list(expected)
        assert bits(store.matrix) == bits(table)
    return True


class TestLoaderEquivalence:
    """Bulk parsing, its line-by-line fallback and the keys subset against
    the per-line rule, with the odd line on both sides of chunk edges."""

    @pytest.mark.parametrize("odd", sorted(ODD_LINES))
    def test_odd_line_anywhere(self, tmp_path, monkeypatch, odd):
        path = tmp_path / "vec.txt"
        monkeypatch.setattr(text, "LOAD_CHUNK_LINES", 4)
        n = 14  # chunks of 4 after the first vector line
        loaded = []
        for header in (False, True):
            for end in ("\n", "\r\n"):
                for position in (0, 1, 4, 5, 8, n - 1):
                    odd_file(path, ODD_LINES[odd], position, n, header, end)
                    # the odd line's key "s" is never asked for
                    for keys in (None, {f"k{i}" for i in range(0, n, 3)} | {"missing"}):
                        loaded.append(assert_load_matches_reference(path, keys))
        if odd in LOADABLE:
            assert all(loaded)
        elif odd != "header_like":  # a header only on the first line
            assert not any(loaded)

    @pytest.mark.parametrize("odd", ["double_spaces", "bad_value", "short_row", "blank",
                                     "trailing_space"])
    def test_odd_line_at_a_real_chunk_edge(self, tmp_path, odd):
        path = tmp_path / "vec.txt"
        for position in (LOAD_CHUNK_LINES, LOAD_CHUNK_LINES + 1):
            odd_file(path, ODD_LINES[odd], position, 2 * LOAD_CHUNK_LINES + 3, False, "\n")
            for keys in (None, {"k1", "k2000"}):
                assert assert_load_matches_reference(path, keys) == (odd in LOADABLE)

    def test_every_line_with_a_trailing_space(self, tmp_path, monkeypatch):
        path = tmp_path / "vec.txt"
        calls = Counter()
        parse_line = text._parse_line
        monkeypatch.setattr(text, "_parse_line",
                            lambda *a: calls.update(["line"]) or parse_line(*a))
        odd_file(path, "k3 1 2 3 ", 3, 3000, True, "\n", trailing=" ")
        for keys in (None, {"k7", "k2999"}):
            assert assert_load_matches_reference(path, keys)
        # word2vec's layout is read in bulk: only the first vector line goes line by line
        store_file(path).unlink()
        store = load_by("text", path)
        assert len(store) == 3000 and calls["line"] == 3

    def test_keys_keep_the_file_order_and_size_the_matrix(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("emu 1 1\ncat 2 2\ndog 3 3\ncat 4 4\nyak 5 5\n")
        for keys, rows, matrix in ((["dog", "cat", "gnu"], {"cat": 0, "dog": 1},
                                    [[4, 4], [3, 3], [0, 0]]), ([], {}, [[0, 0]])):
            store_file(path).unlink(missing_ok=True)
            for route in ("text", "store"):
                store = load_by(route, path, keys=keys)
                assert store.rows == rows
                np.testing.assert_array_equal(store.matrix, matrix)


class TestPhraseTemplate:
    @pytest.mark.parametrize("template", ["{nam}", "{0}", "{}", "ENTITY/", "{name}{name}",
                                          "{name}/{x}", "{name!r}", "{name:>9}", "{name.x}",
                                          "{{name}}", "{name", "name}"])
    def test_rejected_by_store_loader_and_collector(self, tmp_path, template):
        path = tmp_path / "vec.txt"
        path.write_text("cat 1\n")
        with pytest.raises(ValueError, match="phrase template"):
            WordEmbeddingStore(np.zeros((1, 1)), {}, template)
        with pytest.raises(ValueError, match="phrase template"):
            load_word_embeddings(str(path), phrase_template=template)
        with pytest.raises(ValueError, match="phrase template"):
            collect_keys([EntityText("E", "Bram Stoker")], template)

    @pytest.mark.parametrize("template", ["{name}", "ENTITY/{name}", "{name}_(film)"])
    def test_accepted(self, template):
        store = WordEmbeddingStore(np.zeros((1, 1)), {}, template)
        assert store.phrase_key("Bram  Stoker") == template.replace("{name}", "Bram_Stoker")


class TestTokenize:
    def test_sentence(self):
        assert tokenize("1897 Gothic novel Dracula.") == ["1897", "gothic", "novel", "dracula"]

    def test_punctuation_and_case(self):
        assert tokenize("Bram Stoker, (Irish) novelist!") == [
            "bram", "stoker", "irish", "novelist",
        ]

    def test_underscore_splits(self):
        assert tokenize("new_york") == ["new", "york"]

    def test_empty(self):
        assert tokenize("") == []
        assert tokenize("  ... !! ") == []


class TestEntityTokens:
    def test_phrase_hit_uses_single_vector(self):
        store = make_store(["Bram_Stoker", "bram", "stoker"])
        meta = EntityText("E1", "Bram Stoker", "")
        seq, unknown = entity_tokens(meta, store)
        assert len(seq) == 1 and unknown == 0
        np.testing.assert_array_equal(store.matrix[seq[0]], vec(store, "Bram_Stoker"))

    def test_phrase_miss_falls_back_to_tokens(self):
        store = make_store(["bram", "stoker"])
        meta = EntityText("E1", "Bram Stoker", "")
        seq, unknown = entity_tokens(meta, store)
        assert len(seq) == 2 and unknown == 0
        np.testing.assert_array_equal(store.matrix[seq[0]], vec(store, "bram"))
        np.testing.assert_array_equal(store.matrix[seq[1]], vec(store, "stoker"))

    def test_phrase_template_prefix(self):
        # template keys are used verbatim, so store the exact key
        store = store_from_vectors(
            {"ENTITY/Bram_Stoker".lower(): np.zeros(3), "ENTITY/Bram_Stoker": np.ones(3)},
            3, phrase_template="ENTITY/{name}")
        meta = EntityText("E1", "Bram Stoker", "")
        seq, _ = entity_tokens(meta, store)
        assert len(seq) == 1
        np.testing.assert_array_equal(store.matrix[seq[0]], np.ones(3))

    def test_name_then_description_order(self):
        store = make_store(["alpha", "beta", "gamma"])
        meta = EntityText("E1", "alpha", "beta gamma")
        seq, unknown = entity_tokens(meta, store)
        assert len(seq) == 3 and unknown == 0
        np.testing.assert_array_equal(store.matrix[seq[1]], vec(store, "beta"))
        np.testing.assert_array_equal(store.matrix[seq[2]], vec(store, "gamma"))

    def test_unknown_tokens_counted_and_zero(self):
        store = make_store(["novel"])
        meta = EntityText("E1", "Dracula", "Gothic novel")
        seq, unknown = entity_tokens(meta, store)
        assert len(seq) == 3
        assert unknown == 2
        np.testing.assert_array_equal(store.matrix[seq[0]], np.zeros(3))

    def test_empty_metadata_gives_empty_sequence(self):
        store = make_store(["x"])
        seq, unknown = entity_tokens(EntityText("E1", "", ""), store)
        assert len(seq) == 0 and unknown == 0

    def test_row_ids_are_int64_and_unknown_is_the_last_row(self):
        store = make_store(["b", "a"])
        seq, unknown = entity_tokens(EntityText("E1", "a zz", "b"), store)
        assert seq.dtype == np.int64
        assert seq.tolist() == [1, 2, 0] and unknown == 1


class TestAggregate:
    def test_single_vector_identity(self):
        v = np.array([1.0, -2.0, 3.0])
        out = aggregate(np.array([v]))
        np.testing.assert_array_equal(out, v)
        assert out.shape == (3,)

    def test_mean_of_two(self):
        a = np.array([2.0, 0.0])
        b = np.array([0.0, 4.0])
        out = aggregate(np.array([a, b]))
        np.testing.assert_allclose(out, [1.0, 2.0])

    def test_zero_unknowns_still_divide(self):
        # unknown-token zeros dilute the average rather than being dropped
        a = np.array([3.0, 3.0])
        out = aggregate(np.array([a, np.zeros(2), np.zeros(2)]))
        np.testing.assert_allclose(out, [1.0, 1.0])

    def test_empty_sequence_raises(self):
        with pytest.raises(NoTextError):
            aggregate(np.zeros((0, 2)))

    def test_dropout_requires_rng(self):
        with pytest.raises(ValueError, match="generator"):
            aggregate(np.ones((1, 2)), dropout_rate=0.5)

    def test_bad_rate(self):
        with pytest.raises(ValueError):
            aggregate(np.ones((1, 2)), dropout_rate=1.0, rng=np.random.default_rng(0))

    def test_dropout_keeps_denominator(self):
        # replay the generator to know exactly which entries survive
        vecs = np.array([np.full(2, float(i + 1)) for i in range(6)])
        rng = np.random.default_rng(42)
        keep = np.random.default_rng(42).random(6) >= 0.5
        out = aggregate(vecs, dropout_rate=0.5, rng=rng)
        expected = sum(v for v, k in zip(vecs, keep) if k) / 6.0
        np.testing.assert_allclose(out, expected)

    def test_dropout_zero_is_plain_mean(self):
        rng = np.random.default_rng(1)
        vecs = rng.normal(size=(5, 4))
        out = aggregate(vecs, dropout_rate=0.0)
        np.testing.assert_allclose(out, np.mean(vecs, axis=0))

    def test_dropout_seed_determinism(self):
        vecs = np.array([np.random.default_rng(7).normal(size=3) for _ in range(4)])
        a = aggregate(vecs, 0.4, np.random.default_rng(5))
        b = aggregate(vecs, 0.4, np.random.default_rng(5))
        np.testing.assert_array_equal(a, b)


class TestTextEmbedding:
    def test_pipeline_mean(self):
        store = make_store(["dracula", "gothic", "novel"])
        meta = EntityText("E1", "Dracula", "Gothic novel")
        out = text_embedding(meta, store)
        expected = (
            vec(store, "dracula") + vec(store, "gothic") + vec(store, "novel")
        ) / 3.0
        np.testing.assert_allclose(out, expected)
        rows, unknown = entity_tokens(meta, store)
        assert len(rows) == 3 and unknown == 0

    def test_all_unknown_is_zero_vector_not_error(self):
        store = make_store(["other"])
        meta = EntityText("E1", "Dracula", "")
        out = text_embedding(meta, store)
        np.testing.assert_array_equal(out, np.zeros(3))
        assert entity_tokens(meta, store)[1] == 1

    def test_no_text_raises(self):
        store = make_store(["x"])
        with pytest.raises(NoTextError):
            text_embedding(EntityText("E1", "", ""), store)

    def test_norm_bounded_by_max_token_norm(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(1, 6))
            tokens = [f"t{i}" for i in range(n)]
            store = make_store(tokens, dim=4, seed=int(rng.integers(1000)))
            meta = EntityText("E", " ".join(tokens) + " extra", "")
            out = text_embedding(meta, store)
            max_norm = max(np.linalg.norm(vec(store, t)) for t in tokens)
            assert np.linalg.norm(out) <= max_norm + 1e-12

    def test_token_permutation_invariance_of_mean(self):
        store = make_store(["a", "b", "c"], dim=5, seed=9)
        fwd = text_embedding(EntityText("E", "a b c", ""), store)
        rev = text_embedding(EntityText("E", "c b a", ""), store)
        np.testing.assert_allclose(fwd, rev)


# ---------------------------------------------------------------------------
# Reference: the text path as a list of per-token vectors, stacked and
# averaged per entity, with one dropout draw per entity in entity order. The
# row-id path must reproduce it bit for bit.


def reference_sequence(meta, vectors, phrase_template, dim):
    zero = np.zeros(dim)
    sequence = []
    if meta.name:
        key = phrase_template.format(name="_".join(meta.name.split()))
        if key in vectors:
            sequence.append(vectors[key])
        else:
            sequence += [vectors.get(tok, zero) for tok in tokenize(meta.name)]
    sequence += [vectors.get(tok, zero) for tok in tokenize(meta.description)]
    return sequence


def reference_mean(sequence, dropout_rate=0.0, rng=None):
    stacked = np.asarray(sequence, dtype=np.float64)
    if dropout_rate > 0.0:
        keep = rng.random(len(sequence)) >= dropout_rate
        stacked = stacked * keep[:, None]
    return stacked.sum(axis=0) / len(sequence)


def seeded_text(seed, n_entities=40, dim=5):
    """Vectors (with phrase keys, ``-0.0`` rows and mixed-sign zeros) and
    metadata with phrase hits, unknown tokens, empty descriptions and no
    usable text."""
    rng = np.random.default_rng(seed)
    words = [f"w{i}" for i in range(30)]
    vectors = {w: rng.normal(size=dim) for w in words}
    vectors["w3"] = np.full(dim, -0.0)
    vectors["w4"] = np.where(rng.random(dim) < 0.5, -0.0, 0.0)
    vectors["w5"] = np.where(rng.random(dim) < 0.5, -0.0, rng.normal(size=dim))
    metadata = {}
    for e in range(n_entities):
        name = " ".join(rng.choice(words + ["oov1", "oov2"], size=int(rng.integers(1, 4))))
        if e % 3 == 0:
            vectors["_".join(name.split())] = rng.normal(size=dim)  # a phrase hit
        n_desc = int(rng.integers(0, 12)) if e % 4 else 0  # every fourth: no description
        pool = words + ["oov1", "oov2", "oov3"] if e % 5 else ["w3", "w4"]
        metadata[e] = EntityText(f"e{e}", name, " ".join(rng.choice(pool, size=n_desc)))
    metadata[n_entities - 2] = EntityText(f"e{n_entities - 2}", "", "...")  # no usable text
    metadata[n_entities - 1] = EntityText(f"e{n_entities - 1}", "w3", "w3 w3")  # all -0.0
    keys = list(vectors)
    rng.shuffle(keys)
    return {k: vectors[k] for k in keys}, metadata


class TestReferenceMean:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_text_embedding_bitwise(self, seed, tmp_path):
        vectors, metadata = seeded_text(seed)
        path = tmp_path / "vec.txt"
        path.write_text("".join(f"{k} " + " ".join(repr(x) for x in v.tolist()) + "\n"
                                for k, v in vectors.items()))
        loaded = load_word_embeddings(str(path))
        for store in (store_from_vectors(vectors, 5), loaded):
            for rate in (0.0, 0.3):
                rng_new, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
                for meta in metadata.values():
                    seq = reference_sequence(meta, vectors, "{name}", 5)
                    assert len(entity_tokens(meta, store)[0]) == len(seq)
                    if not seq:
                        with pytest.raises(NoTextError):
                            text_embedding(meta, store, rate, rng_new)
                        continue
                    out = text_embedding(meta, store, rate, rng_new)
                    assert bits(out) == bits(reference_mean(seq, rate, rng_ref)), meta
        assert bits(loaded.matrix) == bits(store_from_vectors(vectors, 5).matrix)

    def test_phrase_hits_unknowns_and_negative_zero_are_exercised(self):
        vectors, metadata = seeded_text(0)
        store = store_from_vectors(vectors, 5)
        metas = list(metadata.values())
        assert any(store.phrase_key(m.name) in store for m in metas)
        assert any(entity_tokens(m, store)[1] for m in metas)
        assert any(not m.description for m in metas)
        assert any(not len(entity_tokens(m, store)[0]) for m in metas)
        assert np.signbit(vec(store, "w3")).all() and not vec(store, "w3").any()
        out = text_embedding(metas[-1], store)  # only -0.0 rows: the sum starts at +0.0
        assert not np.signbit(out).any() and not out.any()

    @pytest.mark.parametrize("dropout", [0.0, 0.3])
    def test_train_map_inputs_bitwise(self, dropout, tmp_path, monkeypatch):
        vectors, metadata = seeded_text(5, n_entities=12)
        train = [(f"e{i}", "r", f"e{(i + 1) % 12}") for i in range(12)]
        g = graph_from_triples(tmp_path, train)
        metadata = {g.entity_id(m.entity): m for m in metadata.values()}
        del metadata[g.entity_id("e2")]  # an entity without text is left out
        model = random_model("distmult", g.num_entities, g.num_relations, 4,
                             np.random.default_rng(6))
        store = store_from_vectors(vectors, 5)
        captured = {}
        monkeypatch.setattr(mapping, "fit_map",
                            lambda inputs, *args: captured.setdefault("inputs", inputs))
        train_map(model, g, entity_rows(metadata, store), "affine", MapHyperparams(dropout=dropout))
        inputs = captured["inputs"]
        seqs = [reference_sequence(metadata[e], vectors, "{name}", 5)
                for e in range(g.num_entities) if e in metadata]
        seqs = [s for s in seqs if s]
        if dropout == 0.0:
            expected = np.stack([reference_mean(s) for s in seqs])
            assert bits(inputs) == bits(expected)
            return
        rng_new, rng_ref = np.random.default_rng(8), np.random.default_rng(8)
        for _ in range(3):  # one re-sample per epoch, sharing the fit's generator
            expected = np.stack([reference_mean(s, dropout, rng_ref) for s in seqs])
            assert bits(inputs(rng_new)) == bits(expected)

    def test_batch_mean_across_blocks_bitwise(self, monkeypatch):
        vectors, metadata = seeded_text(3, n_entities=60)
        store = store_from_vectors(vectors, 5)
        seqs = [reference_sequence(m, vectors, "{name}", 5) for m in metadata.values()]
        row_ids = [entity_tokens(m, store)[0] for m in metadata.values()]
        kept = [i for i, s in enumerate(seqs) if s]
        rows = np.concatenate([row_ids[i] for i in kept])
        offsets = np.cumsum([0] + [len(row_ids[i]) for i in kept])
        monkeypatch.setattr(text, "MEAN_BLOCK_ROWS", 24)  # a few entities per block
        for rate in (0.0, 0.3, 0.7):
            rng_new, rng_ref = np.random.default_rng(9), np.random.default_rng(9)
            for _ in range(2):
                out = np.asarray(keep_rows(store.matrix, rows, offsets, rate, rng_new))
                expected = np.stack([reference_mean(seqs[i], rate, rng_ref) for i in kept])
                assert bits(out) == bits(expected)

    @pytest.mark.parametrize("rate", [0.3, 0.7])
    def test_kept_rows_per_batch_bitwise(self, rate):
        rng = np.random.default_rng(10)
        matrix = rng.normal(size=(30, 5))
        matrix[7] = -0.0
        matrix[-1] = 0.0
        lengths = rng.choice([1, 2, 3, 40, 700], size=200)  # 700 fills more than a block
        offsets = np.concatenate([[0], np.cumsum(lengths)])
        rows = rng.integers(0, len(matrix), size=offsets[-1])
        rows[offsets[0]:offsets[2]] = 7  # two entities of -0.0 rows only
        seqs = [matrix[rows[a:b]] for a, b in zip(offsets[:-1], offsets[1:])]
        rng_ref = np.random.default_rng(12)
        expected = np.stack([reference_mean(s, rate, rng_ref) for s in seqs])
        keep = np.random.default_rng(12).random(len(rows)) >= rate
        dropped = [i for i, (a, b) in enumerate(zip(offsets[:-1], offsets[1:]))
                   if not keep[a:b].any()]
        assert dropped  # entities whose every row is dropped
        kept = keep_rows(matrix, rows, offsets, rate, np.random.default_rng(12))
        assert len(kept.rows) == keep.sum() and kept.shape == expected.shape
        order = rng.permutation(len(lengths))
        for start in range(0, len(order), 32):  # short and long entities share batches
            batch = order[start:start + 32]
            assert bits(kept[batch]) == bits(expected[batch])
        assert bits(kept) == bits(expected)
        assert not np.signbit(expected[[0, 1, *dropped]]).any()
        assert bits(np.asarray(keep_rows(matrix, rows, offsets, rate,
                                         np.random.default_rng(12)))) == bits(expected)

    def test_batch_mean_rejects_an_entity_without_rows(self):
        with pytest.raises(NoTextError):
            np.asarray(keep_rows(np.ones((3, 2)), np.array([0, 1]), np.array([0, 2, 2])))
        empty = keep_rows(np.ones((3, 2)), np.zeros(0, np.int64), np.array([0]))
        assert np.asarray(empty).shape == (0, 2)


class TestCollectKeys:
    """A store of only the collected keys gives every entity the same text."""

    @pytest.mark.parametrize("template", ["{name}", "P/{name}"])
    def test_subset_store_means_bitwise(self, tmp_path, template):
        vectors, metadata = seeded_text(4)
        vectors = {template.format(name=k) if i % 3 == 0 else k: v
                   for i, (k, v) in enumerate(vectors.items())}
        vectors.update({f"unused{i}": np.full(5, float(i)) for i in range(50)})
        path = tmp_path / "vec.txt"
        path.write_text("".join(f"{k} " + " ".join(repr(x) for x in v.tolist()) + "\n"
                                for k, v in vectors.items()))
        full = load_word_embeddings(str(path), template)
        keys = collect_keys(metadata, template)
        subset = load_word_embeddings(str(path), template, keys.keys)
        rows = keys.rows(subset)
        assert set(subset.rows) <= set(keys.keys) and len(subset) < len(full)
        assert not any(k.startswith("unused") for k in subset.rows)
        for entity, meta in metadata.items():
            rows_full, unknown_full = entity_tokens(meta, full)
            rows_sub = rows[entity]
            unknown_sub = int(np.count_nonzero(rows_sub == len(subset)))
            assert len(rows_sub) == len(rows_full) and unknown_sub == unknown_full
            if len(rows_full):
                mean = np.asarray(rows.select(rows.entities == entity).kept())[0]
                assert bits(mean) == bits(text_embedding(meta, full))

    def test_each_string_is_tokenized_once(self, monkeypatch):
        vectors, metadata = seeded_text(2)
        metas = list(metadata.values()) * 2
        metas.append(EntityText("dup", metas[0].description, metas[0].name))
        calls = Counter()
        monkeypatch.setattr(text, "tokenize",
                            lambda s: calls.update([s]) or tokenize(s))
        keys = collect_keys(dict(enumerate(metas)))
        store = store_from_vectors({k: v for k, v in vectors.items() if k in keys.keys}, 5)
        keys.rows(store)
        assert calls and max(calls.values()) == 1


class TestEntityRows:
    """The row CSR gives each entity the rows of the one-entity path."""

    @pytest.mark.parametrize("template", ["{name}", "P/{name}"])
    def test_rows_match_entity_tokens(self, tmp_path, template):
        vectors, metadata = seeded_text(4)
        vectors = {template.format(name=k) if i % 3 == 0 else k: v
                   for i, (k, v) in enumerate(vectors.items())}
        path = tmp_path / "vec.txt"
        path.write_text("".join(f"{k} " + " ".join(repr(x) for x in v.tolist()) + "\n"
                                for k, v in vectors.items()))
        full = load_word_embeddings(str(path), template)
        keys = collect_keys(metadata, template)
        subset = keys.rows(load_word_embeddings(str(path), template, keys.keys))
        for rows in (entity_rows(metadata, full), subset):
            assert rows.entities.tolist() == sorted(metadata)
            for i, (entity, meta) in enumerate(sorted(metadata.items())):
                seq = reference_sequence(meta, vectors, template, 5)
                expected = full.matrix[entity_tokens(meta, full)[0]]
                got = rows.store.matrix[rows[entity]]
                assert bits(got) == bits(expected) == bits(np.reshape(seq, (-1, 5))), meta
                names = rows.store.matrix[rows.rows[rows.offsets[3 * i]:rows.offsets[3 * i + 2]]]
                name_only = reference_sequence(EntityText("", meta.name), vectors, template, 5)
                assert bits(names) == bits(np.reshape(name_only, (-1, 5)))
        metas = list(metadata.values())
        assert any(full.phrase_key(m.name) in full for m in metas)
        assert any(m.name and full.phrase_key(m.name) not in full for m in metas)
        assert any(entity_tokens(m, full)[1] for m in metas)
        assert any(not m.description for m in metas)
        assert any(not len(entity_tokens(m, full)[0]) for m in metas)

    def test_absent_entity_and_mean(self):
        store = make_store(["a", "b"])
        rows = entity_rows({3: EntityText("x", "a", "b zz"), 1: EntityText("y", "", "")}, store)
        assert rows.entities.tolist() == [1, 3] and rows.offsets.tolist() == [0, 0, 0, 0, 1, 1, 3]
        assert len(rows[2]) == 0 and len(rows[7]) == 0
        mean = np.asarray(rows.select(rows.has_text).kept())[0]
        assert bits(mean) == bits(text_embedding(EntityText("x", "a", "b zz"), store))
        with pytest.raises(NoTextError):
            rows.kept()

    def test_select_masks_entities_and_descriptions(self):
        store = make_store(["a", "b", "c"])
        metadata = {0: EntityText("x", "a", "b c"), 1: EntityText("y", "b", "a"),
                    2: EntityText("z", "c", "")}
        rows = entity_rows(metadata, store)
        point = rows.select(np.array([True, False, True]), np.array([False, True, True]))
        expected = entity_rows({0: EntityText("x", "a", ""), 2: metadata[2]}, store)
        for field in ("entities", "offsets", "rows"):
            assert getattr(point, field).tolist() == getattr(expected, field).tolist()


def vector_lines(vectors):
    return [f"{k} " + " ".join(repr(x) for x in v.tolist()) for k, v in vectors.items()]


def store_lines():
    """Vector lines with phrase keys, -0.0 rows, non-ASCII and empty keys and
    a repeated key (w7)."""
    vectors, _ = seeded_text(6)
    return vector_lines(vectors) + ["h\u00e9llo 1 2 3 4 5", "\u65e5\u672c 0.5 -0 0 1e-300 7",
                                    " 0.25 0.5 0.75 1 1.25", "w7 9 8 7 6 5"]


def store_variant(name):
    """``store_lines`` as a file: plain, after a "count dim" header (and a
    byte-order mark), with each line ending, or around a whole parser chunk
    of blank lines."""
    lines = store_lines()
    end, body = {"plain": ("\n", lines), "header": ("\n", [f"{len(lines)} 5"] + lines),
                 "bom": ("\n", [f"\ufeff{len(lines)} 5"] + lines),
                 "crlf": ("\r\n", lines), "cr": ("\r", lines),
                 "blank_chunk": ("\n", lines[:3] + [""] * (2 * LOAD_CHUNK_LINES) + lines[3:]),
                 }[name]
    return end.join(body + [""]).encode()


class TestVectorStore:
    """The store beside a vectors file serves a repeated load of the same
    bytes, bit for bit as the parse; anything else is parsed again."""

    @pytest.mark.parametrize("variant", ["plain", "header", "bom", "crlf", "cr", "blank_chunk"])
    @pytest.mark.parametrize("template", ["{name}", "P/{name}"])
    def test_warm_load_equals_cold_parse(self, tmp_path, variant, template):
        path = tmp_path / "vec.txt"
        path.write_bytes(store_variant(variant))
        _, metadata = seeded_text(6)
        phrase_keys = collect_keys(metadata, template).keys
        subsets = [None, phrase_keys, ["w7", "h\u00e9llo", "", "missing"], []]
        for keys in subsets:
            store_file(path).unlink(missing_ok=True)
            cold = load_by("text", path, template, keys)
            warm = load_by("store", path, template, keys)
            assert list(warm.rows.items()) == list(cold.rows.items())
            assert bits(warm.matrix) == bits(cold.matrix) and warm.matrix.flags.c_contiguous
            assert warm.phrase_template == template
        everything = load_by("store", path)
        assert everything.rows["w7"] < everything.rows["h\u00e9llo"]  # w7's first place...
        np.testing.assert_array_equal(vec(everything, "w7"), [9, 8, 7, 6, 5])  # ...last vector
        assert np.signbit(vec(everything, "\u65e5\u672c")).tolist() == [0, 1, 0, 0, 0]
        # 8 bytes per value of every line, duplicates too, and the keys
        lines = store_lines()
        keys = "".join(line.partition(" ")[0] + "\n" for line in lines).encode()
        assert store_file(path).stat().st_size == (text._VECTORS.header.size + 8 * 5 * len(lines)
                                                   + len(keys))

    def test_same_size_rewrite_is_parsed_again(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("cat 1 2\ndog 3 4\n")
        load_by("text", path)
        stat = path.stat()
        path.write_text("cat 5 6\ndog 7 8\n")
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))  # same size and mtime
        assert path.stat().st_size == stat.st_size
        np.testing.assert_array_equal(load_by("text", path).matrix, [[5, 6], [7, 8], [0, 0]])
        np.testing.assert_array_equal(load_by("store", path).matrix, [[5, 6], [7, 8], [0, 0]])

    @pytest.mark.parametrize("bad", ["cat 1 2\ndog 3\n", "cat 1 2\ndog 3 nan\n", "\n\n"])
    def test_bad_text_with_an_earlier_store_raises_its_error(self, tmp_path, caplog, bad):
        fresh = tmp_path / "fresh"
        fresh.mkdir()
        (fresh / "vec.txt").write_text(bad)
        with pytest.raises(WordEmbeddingFormatError) as expected:
            load_word_embeddings(str(fresh / "vec.txt"))
        path = tmp_path / "vec.txt"
        path.write_text("cat 1 2\ndog 3 4\n")
        load_by("text", path)
        path.write_text(bad)
        with caplog.at_level(logging.WARNING, logger="owlink.text"):
            with pytest.raises(WordEmbeddingFormatError) as got:
                load_word_embeddings(str(path))
        assert str(got.value) == str(expected.value).replace(str(fresh), str(tmp_path))
        assert str(store_file(path)) in caplog.text and "other text" in caplog.text

    @pytest.mark.parametrize("damage", ["empty", "header_only", "cut_last_byte", "extra_byte",
                                        "magic", "keys_not_utf8", "key_count", "nan_row",
                                        "dim_grown", "dim_shrunk"])
    def test_damaged_store_is_rebuilt_with_a_warning(self, tmp_path, caplog, damage):
        path = tmp_path / "vec.txt"
        # these values' bytes are ASCII without "\n", so with a shrunk dim the
        # rows' tail reads as part of a first key and only the size check fails
        path.write_text("cat 2 4\ndog 8 3\ncat 2.5 4\n")
        want = load_by("text", path)
        data = bytearray(store_file(path).read_bytes())
        header = text._VECTORS.header.size
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
        elif damage == "keys_not_utf8":
            data[-2] = 0xFF
        elif damage == "key_count":
            data[-4] = ord("\n")  # the last "cat" -> "\nat": one key more
        elif damage == "nan_row":
            data[header + 16:header + 24] = np.float64(np.nan).tobytes()
        elif damage.startswith("dim"):
            data[header - 24] += 1 if damage == "dim_grown" else -1
        store_file(path).write_bytes(bytes(data))
        with caplog.at_level(logging.WARNING, logger="owlink.text"):
            got = load_by("text", path)
        assert str(store_file(path)) in caplog.text
        assert got.rows == want.rows and bits(got.matrix) == bits(want.matrix)
        caplog.clear()
        again = load_by("store", path)  # rebuilt
        assert again.rows == want.rows and bits(again.matrix) == bits(want.matrix)
        assert not caplog.text

    @pytest.mark.parametrize("fails", STORE_WRITE_FAILURES)
    def test_write_failure_still_returns_the_parse(self, tmp_path, monkeypatch, fails):
        """A store that cannot be written leaves no store and no temporary
        file (simulated: the tests may run as root, whom chmod cannot stop)."""
        path = tmp_path / "vec.txt"
        path.write_text("cat 1 2\ndog 3 4\n" * 300)
        fail_store_writes(monkeypatch, fails)
        store = load_by("text", path)
        assert store.rows == {"cat": 0, "dog": 1}
        np.testing.assert_array_equal(store.matrix, [[1, 2], [3, 4], [0, 0]])
        assert sorted(os.listdir(tmp_path)) == ["vec.txt"]
