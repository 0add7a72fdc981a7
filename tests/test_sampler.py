import hashlib

import numpy as np
import pytest

from owlink.config import ConfigError
from owlink.graph import EntityText, KnowledgeGraph, Triple, Vocab
from owlink.sampler import (
    OwSplit,
    SamplerConfig,
    SamplerError,
    corrupt_metadata,
    sample_open_world,
    validate_split,
)
from helpers import graph_from_triples, reference_sample_open_world


TRIPLE_FIELDS = ("train", "test_tail", "test_head", "valid_closed",
                 "valid_open_tail", "valid_open_head")


def rows(triples):
    """The rows of an ``(n, 3)`` array as a set of tuples."""
    return set(map(tuple, triples.tolist()))


def chain_graph(tmp_path, n=30, relations=("r", "s")):
    train = []
    for i in range(n):
        rel = relations[i % len(relations)]
        train.append((f"e{i}", rel, f"e{(i + 1) % n}"))
        train.append((f"e{i}", relations[0], f"e{(i + 3) % n}"))
    return graph_from_triples(tmp_path, train)


class TestConfig:
    def test_exactly_one_selector(self):
        with pytest.raises(ConfigError):
            SamplerConfig(seed=0)
        with pytest.raises(ConfigError):
            SamplerConfig(seed=0, head_fraction=0.1, head_count=2)
        SamplerConfig(seed=0, head_fraction=0.1)
        SamplerConfig(seed=0, head_count=2)

    def test_ranges(self):
        with pytest.raises(ConfigError):
            SamplerConfig(head_fraction=1.0)
        with pytest.raises(ConfigError):
            SamplerConfig(head_count=-1)
        with pytest.raises(ConfigError):
            SamplerConfig(head_count=1, open_valid_fraction=1.0)


class TestHandVerified:
    def test_single_head_extraction(self, tmp_path):
        # removing head "a" moves its outgoing triples and drops incoming ones
        train = [
            ("a", "r", "b"),
            ("a", "r", "c"),
            ("b", "r", "c"),
            ("c", "r", "b"),
            ("b", "r", "a"),
            ("c", "s", "c"),
        ]
        g = graph_from_triples(tmp_path, train)
        a = g.entity_id("a")
        # force "a" to be the sampled head by trying seeds
        for seed in range(50):
            cfg = SamplerConfig(seed=seed, head_count=1,
                                closed_valid_fraction=0.0, open_valid_fraction=0.0)
            split = sample_open_world(g, cfg)
            if split.open_entities == [a]:
                break
        else:
            pytest.fail("no seed sampled head 'a'")
        assert rows(split.train) == {
            Triple(g.entity_id("b"), 0, g.entity_id("c")),
            Triple(g.entity_id("c"), 0, g.entity_id("b")),
            Triple(g.entity_id("c"), 1, g.entity_id("c")),
        }
        assert rows(split.test_tail) == {
            Triple(a, 0, g.entity_id("b")),
            Triple(a, 0, g.entity_id("c")),
        }
        assert rows(split.test_head) == {Triple(g.entity_id("b"), 0, a)}
        assert validate_split(split) == []

    def test_fraction_zero_is_noop(self, tmp_path):
        g = chain_graph(tmp_path, n=10)
        cfg = SamplerConfig(seed=1, head_fraction=0.0,
                            closed_valid_fraction=0.0, open_valid_fraction=0.0)
        split = sample_open_world(g, cfg)
        assert split.train.tolist() == g.train.tolist()
        assert len(split.test_tail) == 0 and len(split.test_head) == 0
        assert split.open_entities == []

    def test_emptying_train_raises(self, tmp_path):
        g = graph_from_triples(tmp_path, [("a", "r", "b")])
        with pytest.raises(SamplerError, match="empty"):
            sample_open_world(g, SamplerConfig(seed=0, head_count=1))


class TestInvariants:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_generated_splits_are_valid(self, tmp_path, seed):
        g = chain_graph(tmp_path)
        cfg = SamplerConfig(seed=seed, head_fraction=0.2)
        split = sample_open_world(g, cfg)
        assert validate_split(split) == []
        assert len(split.test_tail), "expected a nonempty tail-prediction pool"

    def test_conservation(self, tmp_path):
        # every source train triple lands in exactly one bucket or is filtered
        g = chain_graph(tmp_path, n=20)
        cfg = SamplerConfig(seed=7, head_fraction=0.15)
        split = sample_open_world(g, cfg)
        kept = (rows(split.train) | rows(split.valid_closed) | rows(split.test_tail)
                | rows(split.test_head) | rows(split.valid_open_tail)
                | rows(split.valid_open_head))
        assert kept <= rows(g.train)

    def test_closed_valid_entities_stay_represented(self, tmp_path):
        g = chain_graph(tmp_path)
        cfg = SamplerConfig(seed=3, head_fraction=0.1, closed_valid_fraction=0.2)
        split = sample_open_world(g, cfg)
        train_entities = {e for h, _, t in split.train for e in (h, t)}
        train_relations = {r for _, r, _ in split.train}
        for h, r, t in split.valid_closed:
            assert h in train_entities and t in train_entities
            assert r in train_relations

    def test_validator_flags_injected_violation(self, tmp_path):
        g = chain_graph(tmp_path)
        split = sample_open_world(g, SamplerConfig(seed=2, head_fraction=0.2))
        assert validate_split(split) == []
        # put an open entity back into train
        bad = OwSplit(
            np.vstack([split.train, [[split.open_entities[0], 0, split.train[0, 2]]]]),
            split.test_tail, split.test_head, split.valid_closed,
            split.valid_open_tail, split.valid_open_head, split.open_entities,
        )
        msgs = validate_split(bad)
        assert any("occurs in train" in m for m in msgs)

    def test_validator_flags_duplicates(self, tmp_path):
        g = chain_graph(tmp_path)
        split = sample_open_world(g, SamplerConfig(seed=2, head_fraction=0.2))
        dup = OwSplit(np.vstack([split.train, split.train[:1]]), split.test_tail,
                      split.test_head, split.valid_closed, split.valid_open_tail,
                      split.valid_open_head, split.open_entities)
        assert any("duplicate" in m for m in validate_split(dup))

    def test_random_small_graphs(self, tmp_path):
        rng = np.random.default_rng(0)
        for trial in range(30):
            n_e = int(rng.integers(6, 15))
            triples = []
            for _ in range(int(rng.integers(15, 40))):
                triples.append((f"e{rng.integers(n_e)}", f"r{rng.integers(3)}",
                                f"e{rng.integers(n_e)}"))
            d = tmp_path / f"t{trial}"
            d.mkdir()
            g = graph_from_triples(d, triples)
            cfg = SamplerConfig(seed=trial, head_fraction=0.2)
            try:
                split = sample_open_world(g, cfg)
            except SamplerError:
                continue
            assert validate_split(split) == []

    def test_manifest_counts(self, tmp_path):
        g = chain_graph(tmp_path)
        split = sample_open_world(g, SamplerConfig(seed=5, head_fraction=0.2))
        m = split.manifest
        assert m["train_triples"] == len(split.train)
        assert m["test_tail_triples"] == len(split.test_tail)
        assert m["open_entities"] == len(split.open_entities)


class TestMatchesReference:
    """The array sampler gives the split of the ``Triple``-row loop kept in
    ``tests/helpers.py``, or raises the same error."""

    @staticmethod
    def random_graph(rng):
        # few entities and many rows, so that some graphs lose their whole
        # train set; rows may repeat, which the loader would not allow
        n_e, n_r = int(rng.integers(2, 25)), int(rng.integers(1, 5))
        train = rng.integers(0, [n_e, n_r, n_e], size=(int(rng.integers(1, 80)), 3))
        return KnowledgeGraph(Vocab(f"e{i}" for i in range(n_e)),
                              Vocab(f"r{i}" for i in range(n_r)), train)

    @pytest.mark.parametrize("open_valid", [0.0, 0.1, 0.5])
    @pytest.mark.parametrize("closed_valid", [0.0, 0.05, 0.3])
    def test_random_graphs(self, closed_valid, open_valid):
        rng = np.random.default_rng([int(closed_valid * 100), int(open_valid * 10)])
        outcomes = {"split": 0, "empty": 0}
        for trial in range(40):
            graph = self.random_graph(rng)
            selector = ({"head_count": 0} if trial % 4 == 0 else
                        {"head_count": int(rng.integers(1, 12))} if trial % 4 == 1 else
                        {"head_fraction": float(rng.uniform(0.0, 0.9))})
            cfg = SamplerConfig(seed=trial, closed_valid_fraction=closed_valid,
                                open_valid_fraction=open_valid, **selector)
            try:
                want = reference_sample_open_world(graph, cfg)
            except SamplerError as exc:
                with pytest.raises(SamplerError, match=str(exc)):
                    sample_open_world(graph, cfg)
                outcomes["empty"] += 1
                continue
            got = sample_open_world(graph, cfg)
            for name in TRIPLE_FIELDS:
                rows_got = getattr(got, name)
                assert rows_got.dtype == np.int64 and rows_got.shape[1:] == (3,), name
                assert rows_got.tolist() == [list(t) for t in getattr(want, name)], name
            assert got.open_entities == want.open_entities
            assert got.manifest == want.manifest
            outcomes["split"] += 1
        assert outcomes["split"] >= 20 and outcomes["empty"] >= 1, outcomes


class TestValidateSplit:
    """Every kind of violation, planted once, with its exact message."""

    SPLIT = dict(
        train=[(0, 0, 1), (1, 0, 2), (2, 1, 0), (9, 0, 0), (0, 0, 1)],
        test_tail=[(8, 0, 1), (1, 0, 2), (8, 3, 1), (8, 0, 7)],
        test_head=[(0, 1, 8), (5, 1, 8), (0, 1, 2), (0, 2, 8)],
        valid_closed=[(6, 0, 1), (0, 3, 1), (0, 0, 6), (0, 1, 1), (0, 1, 1)],
        valid_open_tail=[(8, 3, 7)],
        valid_open_head=[(5, 2, 1)],
        open_entities=[8, 9],
    )
    MESSAGES = [
        "open entity 9 occurs in train",
        "test_tail Triple(head=1, rel=0, tail=2): head is not open",
        "test_tail Triple(head=8, rel=3, tail=1): relation unknown in train",
        "test_tail Triple(head=8, rel=0, tail=7): tail unknown in train",
        "valid_open_tail Triple(head=8, rel=3, tail=7): relation unknown in train",
        "valid_open_tail Triple(head=8, rel=3, tail=7): tail unknown in train",
        "test_head Triple(head=5, rel=1, tail=8): head unknown in train",
        "test_head Triple(head=0, rel=1, tail=2): tail is not open",
        "test_head Triple(head=0, rel=2, tail=8): relation unknown in train",
        "valid_open_head Triple(head=5, rel=2, tail=1): head unknown in train",
        "valid_open_head Triple(head=5, rel=2, tail=1): tail is not open",
        "valid_open_head Triple(head=5, rel=2, tail=1): relation unknown in train",
        "valid_closed Triple(head=6, rel=0, tail=1): head unknown in train",
        "valid_closed Triple(head=0, rel=3, tail=1): relation unknown in train",
        "valid_closed Triple(head=0, rel=0, tail=6): tail unknown in train",
        "train: contains duplicate triples",
        "test_tail: 1 triples overlap earlier splits",
        "valid_closed: contains duplicate triples",
    ]

    def test_arrays_and_triple_lists_give_the_same_messages(self):
        as_lists = {k: v if k == "open_entities" else [Triple(*t) for t in v]
                    for k, v in self.SPLIT.items()}
        as_arrays = {k: v if k == "open_entities" else np.array(v, dtype=np.int64)
                     for k, v in self.SPLIT.items()}
        assert validate_split(OwSplit(**as_lists)) == self.MESSAGES
        assert validate_split(OwSplit(**as_arrays)) == self.MESSAGES

    @pytest.mark.parametrize("planted, message", [
        ((5, 0, 1), "head unknown in train"),
        ((0, 0, 5), "tail unknown in train"),
        ((0, 2, 1), "relation unknown in train"),
    ])
    def test_closed_valid_ids_must_stay_in_train(self, planted, message):
        train = np.array([(0, 0, 1), (1, 1, 0)])
        empty = train[:0]
        split = OwSplit(train, empty, empty, np.array([planted]), empty, empty, [])
        assert validate_split(split) == [f"valid_closed {Triple(*planted)}: {message}"]


class TestGolden:
    """Splits pinned to digests: any change to what the sampler produces shows."""

    @pytest.mark.parametrize("graph_seed, n_e, n_r, n_t, head_count, seed, digest", [
        (0, 12, 2, 40, 3, 0, "353439e4b1252253"),
        (1, 25, 3, 120, 6, 1, "047b2bdc1faefb06"),
        (2, 40, 4, 300, 10, 2, "0d17e88ee02122b6"),
        (3, 60, 5, 400, 25, 3, "573a54b6946979c7"),
    ])
    def test_split_digest(self, tmp_path, graph_seed, n_e, n_r, n_t, head_count, seed, digest):
        rng = np.random.default_rng(graph_seed)
        triples = [(f"e{rng.integers(n_e)}", f"r{rng.integers(n_r)}", f"e{rng.integers(n_e)}")
                   for _ in range(n_t)]
        g = graph_from_triples(tmp_path, triples)
        split = sample_open_world(g, SamplerConfig(seed=seed, head_count=head_count,
                                                   closed_valid_fraction=0.1))
        assert validate_split(split) == []
        body = repr([[tuple(x) for x in getattr(split, name).tolist()]
                     for name in TRIPLE_FIELDS] + [split.open_entities])
        assert hashlib.sha256(body.encode()).hexdigest()[:16] == digest


class TestDeterminism:
    def test_same_seed_identical(self, tmp_path):
        g = chain_graph(tmp_path)
        cfg = SamplerConfig(seed=11, head_fraction=0.2)
        a = sample_open_world(g, cfg)
        b = sample_open_world(g, cfg)
        for name in (*TRIPLE_FIELDS, "open_entities"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_different_seed_differs(self, tmp_path):
        g = chain_graph(tmp_path)
        a = sample_open_world(g, SamplerConfig(seed=1, head_fraction=0.3))
        b = sample_open_world(g, SamplerConfig(seed=2, head_fraction=0.3))
        assert a.open_entities != b.open_entities


class TestCorruptMetadata:
    """A corruption is two boolean masks over the records' ids, ``(kept,
    described)``; a mapping passes its keys."""

    def build(self):
        return {
            f"E{i}": EntityText(f"E{i}", f"name{i}", f"description {i}")
            for i in range(10)
        }

    def test_fraction_zero_identity(self):
        kept, described = corrupt_metadata(self.build(), "descriptions", 0.0, seed=0)
        assert kept.dtype == described.dtype == bool
        assert kept.tolist() == described.tolist() == [True] * 10

    def test_descriptions_mode_blanks_only_descriptions(self):
        kept, described = corrupt_metadata(self.build(), "descriptions", 1.0, seed=0)
        assert kept.all() and not described.any()

    def test_all_mode_removes_records(self):
        kept, described = corrupt_metadata(self.build(), "all", 1.0, seed=0)
        assert not kept.any() and not described.any()

    def test_half_fraction_counts(self):
        for mode in ("descriptions", "all"):
            kept, described = corrupt_metadata(list(self.build()), mode, 0.5, seed=3)
            assert described.sum() == 5
            assert kept.tolist() == (described.tolist() if mode == "all" else [True] * 10)

    def test_seed_replay(self):
        meta = self.build()
        a = corrupt_metadata(meta, "all", 0.4, seed=9)
        b = corrupt_metadata(meta, "all", 0.4, seed=9)
        assert [m.tolist() for m in a] == [m.tolist() for m in b]

    def test_draw_runs_over_sorted_ids(self):
        """A dict in reverse key order draws the same ids: the draw picks
        ``round(fraction * n)`` positions of the sorted ids."""
        meta = self.build()
        hit = {sorted(meta)[i] for i in np.random.default_rng(9).choice(10, 4, replace=False)}
        for keys in (meta, dict(reversed(meta.items()))):
            kept, described = corrupt_metadata(keys, "all", 0.4, seed=9)
            assert {key for key, keep in zip(keys, kept) if not keep} == hit
            assert kept.tolist() == described.tolist()

    def test_bad_mode_and_fraction(self):
        with pytest.raises(ValueError):
            corrupt_metadata(self.build(), "names", 0.5)
        with pytest.raises(ValueError):
            corrupt_metadata(self.build(), "all", 1.5)

    def test_source_not_mutated(self):
        meta = self.build()
        corrupt_metadata(meta, "descriptions", 1.0, seed=0)
        assert meta == self.build()
