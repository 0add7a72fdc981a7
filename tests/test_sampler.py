import hashlib

import numpy as np
import pytest

from owlink.graph import EntityText, Triple
from owlink.sampler import (
    OwSplit,
    SamplerConfig,
    SamplerError,
    corrupt_metadata,
    sample_open_world,
    validate_split,
)
from helpers import graph_from_triples


def chain_graph(tmp_path, n=30, relations=("r", "s")):
    train = []
    for i in range(n):
        rel = relations[i % len(relations)]
        train.append((f"e{i}", rel, f"e{(i + 1) % n}"))
        train.append((f"e{i}", relations[0], f"e{(i + 3) % n}"))
    return graph_from_triples(tmp_path, train)


class TestConfig:
    def test_exactly_one_selector(self):
        with pytest.raises(SamplerError):
            SamplerConfig(seed=0).validate()
        with pytest.raises(SamplerError):
            SamplerConfig(seed=0, head_fraction=0.1, head_count=2).validate()
        SamplerConfig(seed=0, head_fraction=0.1).validate()
        SamplerConfig(seed=0, head_count=2).validate()

    def test_ranges(self):
        with pytest.raises(SamplerError):
            SamplerConfig(head_fraction=1.0).validate()
        with pytest.raises(SamplerError):
            SamplerConfig(head_count=-1).validate()
        with pytest.raises(SamplerError):
            SamplerConfig(head_count=1, open_valid_fraction=1.0).validate()


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
        assert set(split.train) == {
            Triple(g.entity_id("b"), 0, g.entity_id("c")),
            Triple(g.entity_id("c"), 0, g.entity_id("b")),
            Triple(g.entity_id("c"), 1, g.entity_id("c")),
        }
        assert set(split.test_tail) == {
            Triple(a, 0, g.entity_id("b")),
            Triple(a, 0, g.entity_id("c")),
        }
        assert set(split.test_head) == {Triple(g.entity_id("b"), 0, a)}
        assert validate_split(split) == []

    def test_fraction_zero_is_noop(self, tmp_path):
        g = chain_graph(tmp_path, n=10)
        cfg = SamplerConfig(seed=1, head_fraction=0.0,
                            closed_valid_fraction=0.0, open_valid_fraction=0.0)
        split = sample_open_world(g, cfg)
        assert split.train == [Triple(*row) for row in g.train.tolist()]
        assert split.test_tail == [] and split.test_head == []
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
        assert split.test_tail, "expected a nonempty tail-prediction pool"

    def test_conservation(self, tmp_path):
        # every source train triple lands in exactly one bucket or is filtered
        g = chain_graph(tmp_path, n=20)
        cfg = SamplerConfig(seed=7, head_fraction=0.15)
        split = sample_open_world(g, cfg)
        kept = (set(split.train) | set(split.valid_closed) | set(split.test_tail)
                | set(split.test_head) | set(split.valid_open_tail)
                | set(split.valid_open_head))
        assert kept <= {Triple(*row) for row in g.train.tolist()}

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
            split.train + [Triple(split.open_entities[0], 0, split.train[0].tail)],
            split.test_tail, split.test_head, split.valid_closed,
            split.valid_open_tail, split.valid_open_head, split.open_entities,
        )
        msgs = validate_split(bad)
        assert any("occurs in train" in m for m in msgs)

    def test_validator_flags_duplicates(self, tmp_path):
        g = chain_graph(tmp_path)
        split = sample_open_world(g, SamplerConfig(seed=2, head_fraction=0.2))
        dup = OwSplit(split.train + [split.train[0]], split.test_tail,
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


class TestGolden:
    """Splits pinned to digests: any change to what the sampler produces shows."""

    SPLIT_FIELDS = ("train", "test_tail", "test_head", "valid_closed",
                    "valid_open_tail", "valid_open_head", "open_entities")

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
        body = repr([[tuple(x) if isinstance(x, tuple) else x for x in getattr(split, name)]
                     for name in self.SPLIT_FIELDS])
        assert hashlib.sha256(body.encode()).hexdigest()[:16] == digest


class TestDeterminism:
    def test_same_seed_identical(self, tmp_path):
        g = chain_graph(tmp_path)
        cfg = SamplerConfig(seed=11, head_fraction=0.2)
        a = sample_open_world(g, cfg)
        b = sample_open_world(g, cfg)
        for name in ("train", "test_tail", "test_head", "valid_closed",
                     "valid_open_tail", "valid_open_head", "open_entities"):
            assert getattr(a, name) == getattr(b, name)

    def test_different_seed_differs(self, tmp_path):
        g = chain_graph(tmp_path)
        a = sample_open_world(g, SamplerConfig(seed=1, head_fraction=0.3))
        b = sample_open_world(g, SamplerConfig(seed=2, head_fraction=0.3))
        assert a.open_entities != b.open_entities


class TestCorruptMetadata:
    def build(self):
        return {
            f"E{i}": EntityText(f"E{i}", f"name{i}", f"description {i}")
            for i in range(10)
        }

    def test_fraction_zero_identity(self):
        meta = self.build()
        out = corrupt_metadata(meta, "descriptions", 0.0, seed=0)
        assert out == meta

    def test_descriptions_mode_blanks_only_descriptions(self):
        meta = self.build()
        out = corrupt_metadata(meta, "descriptions", 1.0, seed=0)
        assert set(out) == set(meta)
        for key, rec in out.items():
            assert rec.description == ""
            assert rec.name == meta[key].name

    def test_all_mode_removes_records(self):
        meta = self.build()
        out = corrupt_metadata(meta, "all", 1.0, seed=0)
        assert out == {}

    def test_half_fraction_counts(self):
        meta = self.build()
        out = corrupt_metadata(meta, "all", 0.5, seed=3)
        assert len(out) == 5

    def test_seed_replay(self):
        meta = self.build()
        a = corrupt_metadata(meta, "all", 0.4, seed=9)
        b = corrupt_metadata(meta, "all", 0.4, seed=9)
        assert set(a) == set(b)

    def test_bad_mode_and_fraction(self):
        with pytest.raises(ValueError):
            corrupt_metadata(self.build(), "names", 0.5)
        with pytest.raises(ValueError):
            corrupt_metadata(self.build(), "all", 1.5)

    def test_source_not_mutated(self):
        meta = self.build()
        corrupt_metadata(meta, "descriptions", 1.0, seed=0)
        assert meta["E0"].description == "description 0"
