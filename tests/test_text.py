import numpy as np
import pytest

import owlink.mapping as mapping
from owlink.graph import EntityText
from owlink.mapping import MapHyperparams, train_map
from owlink.text import (
    NoTextError,
    WordEmbeddingFormatError,
    aggregate,
    entity_tokens,
    load_word_embeddings,
    text_embedding,
    tokenize,
)
from helpers import graph_from_triples, random_model, store_from_vectors


def make_store(tokens, dim=3, seed=0, phrase_template="{name}"):
    rng = np.random.default_rng(seed)
    vectors = {tok: rng.normal(size=dim) for tok in tokens}
    return store_from_vectors(vectors, dim, phrase_template)


def vec(store, token):
    """A token's vector; the zero row when the token is unknown."""
    return store.matrix[store.rows.get(token, len(store))]


def bits(a):
    return np.asarray(a, dtype=np.float64).tobytes()


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
        store = load_word_embeddings(str(path))
        assert store.matrix.shape == (4, 2) and store.dim == 2
        assert store.rows == {"cat": 0, "dog": 1, "emu": 2}
        np.testing.assert_array_equal(store.matrix, [[1, 2], [3, 4], [5, 6], [0, 0]])
        for count in (10, 10**15):
            path.write_text(f"{count} 2\ncat 1 2\n")
            np.testing.assert_array_equal(load_word_embeddings(str(path)).matrix,
                                          [[1, 2], [0, 0]])

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
        train_map(model, g, metadata, store, "affine", MapHyperparams(dropout=dropout))
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
