import tracemalloc

import numpy as np
import pytest

from owlink import evaluation, models
from owlink.evaluation import (
    SKIP_NO_METADATA,
    SKIP_OPEN_TARGET,
    SKIP_TARGET_FILTERING,
    EvalConfig,
    closed_world_validator,
    evaluate,
    nearest_neighbors,
    open_world_validator,
    random_head_baseline,
    rank_target,
    write_report_tsv,
)
from owlink.graph import EntityText, KnowledgeGraph, Triple, Vocab
from owlink.mapping import MapHyperparams, train_map
from owlink.text import entity_rows
from helpers import (
    assert_reports_equal,
    brute_force_report,
    graph_from_triples,
    random_graph,
    random_model,
)
from test_text import make_store


class TestRankTarget:
    def test_best_score_is_rank_one(self):
        assert rank_target(np.array([0.1, 0.9, 0.5]), 1) == 1

    def test_pessimistic_ties(self):
        # all candidates equal: the target is counted behind every tie
        assert rank_target(np.array([1.0, 1.0, 1.0, 1.0, 1.0]), 2) == 5

    def test_middle(self):
        assert rank_target(np.array([3.0, 2.0, 1.0]), 1) == 2

    def test_exclusion_removes_competitors(self):
        scores = np.array([5.0, 4.0, 3.0])
        assert rank_target(scores, 2) == 3
        assert rank_target(scores, 2, exclude={0}) == 2
        assert rank_target(scores, 2, exclude={0, 1}) == 1

    def test_excluded_target_rejected(self):
        with pytest.raises(ValueError):
            rank_target(np.array([1.0, 2.0]), 0, exclude={0})

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            rank_target(np.array([1.0]), 3)

    def test_candidate_mask_restricts_competitors(self):
        scores = np.array([5.0, 4.0, 3.0, 2.0])
        candidates = np.array([False, True, True, True])
        assert rank_target(scores, 2, candidates=candidates) == 2
        assert rank_target(scores, 2, exclude={1}, candidates=candidates) == 1
        assert candidates.tolist() == [False, True, True, True]


class TestConfig:
    def test_bad_direction(self):
        with pytest.raises(ValueError):
            EvalConfig(direction="sideways").validate()

    def test_bad_hits(self):
        with pytest.raises(ValueError):
            EvalConfig(hits_k=(3, 1)).validate()
        with pytest.raises(ValueError):
            EvalConfig(hits_k=()).validate()
        with pytest.raises(ValueError, match="strictly ascending"):
            EvalConfig(hits_k=(1, 1, 3)).validate()


class TestClosedWorldEvaluate:
    def build(self, tmp_path, family="distmult", seed=0):
        train = [("a", "r", "b"), ("a", "r", "c"), ("b", "s", "c"), ("c", "r", "a")]
        test = [("a", "r", "b"), ("b", "s", "a"), ("c", "r", "b")]
        g = graph_from_triples(tmp_path, train, valid=[("b", "r", "a")], test=test)
        model = random_model(family, g.num_entities, g.num_relations, 4,
                             np.random.default_rng(seed))
        return g, model

    @pytest.mark.parametrize("direction", ["tail", "head"])
    @pytest.mark.parametrize("target_filtering", [False, True])
    def test_matches_brute_force(self, tmp_path, direction, target_filtering):
        g, model = self.build(tmp_path)
        config = EvalConfig(direction=direction, target_filtering=target_filtering)
        report = evaluate(model, g, config)
        oracle = brute_force_report(model, g, config, g.test)
        assert_reports_equal(report, oracle)

    def test_filtered_rank_never_worse(self, tmp_path):
        g, model = self.build(tmp_path)
        report = evaluate(model, g, EvalConfig())
        for res in report.evaluated:
            assert res.filtered_rank <= res.raw_rank
        assert report.mrr_filtered >= report.mrr_raw

    def test_counts_add_up(self, tmp_path):
        g, model = self.build(tmp_path)
        report = evaluate(model, g, EvalConfig(target_filtering=True))
        assert report.evaluated_count + report.skipped_count == len(g.test)

    def test_repeated_relation_always_hits_with_target_filtering(self, tmp_path):
        # every (x, time_zone, UTC): with one known tail per relation the
        # restricted candidate list is only the target itself
        train = [(f"p{i}", "time_zone", "UTC") for i in range(4)]
        g = graph_from_triples(tmp_path, train, test=[("p0", "time_zone", "UTC")])
        model = random_model("distmult", g.num_entities, g.num_relations, 3,
                             np.random.default_rng(1))
        report = evaluate(model, g, EvalConfig(target_filtering=True))
        assert report.hits[1] == 1.0 and report.mrr_filtered == 1.0

    def test_filter_splits_respected(self, tmp_path):
        g, model = self.build(tmp_path)
        full = evaluate(model, g, EvalConfig(filter_splits=("train", "valid", "test")))
        train_only = evaluate(model, g, EvalConfig(filter_splits=("train",)))
        for a, b in zip(full.evaluated, train_only.evaluated):
            assert a.filtered_rank >= b.filtered_rank or a.raw_rank == b.raw_rank
        oracle = brute_force_report(
            model, g, EvalConfig(filter_splits=("train",)), g.test
        )
        assert_reports_equal(train_only, oracle)

    @pytest.mark.parametrize("family", ["transe", "distmult", "complex"])
    def test_random_graphs_match_oracle(self, family):
        rng = np.random.default_rng(42)
        for trial in range(25):
            g = random_graph(rng)
            model = random_model(family, g.num_entities, g.num_relations, 3, rng)
            for direction in ("tail", "head"):
                for tf in (False, True):
                    config = EvalConfig(direction=direction, target_filtering=tf,
                                        filter_splits=("train", "test"))
                    report = evaluate(model, g, config)
                    oracle = brute_force_report(model, g, config, g.test)
                    assert_reports_equal(report, oracle)


class TestClosedWorldValidator:
    @pytest.mark.parametrize("family", ["transe", "distmult", "complex"])
    def test_matches_oracle_over_both_directions(self, family):
        rng = np.random.default_rng(7)
        for trial in range(15):
            base = random_graph(rng)
            g = KnowledgeGraph(base.entities, base.relations, base.train, valid=base.test)
            model = random_model(family, g.num_entities, g.num_relations, 3, rng)
            ranks = []
            for direction in ("tail", "head"):
                config = EvalConfig(direction=direction, filter_splits=("train", "valid"))
                oracle = brute_force_report(model, g, config, g.valid)
                ranks.append([p[2] for p in oracle["per_triple"]])
            total = 0.0
            for tail_rank, head_rank in zip(*ranks):
                total += 1.0 / tail_rank
                total += 1.0 / head_rank
            assert closed_world_validator(g)(model) == total / (2 * len(g.valid))
            first = 1.0 / ranks[0][0] + 1.0 / ranks[1][0]
            assert closed_world_validator(g, max_triples=1)(model) == first / 2

    def test_max_triples_below_one_rejected(self):
        g = KnowledgeGraph(Vocab(), Vocab(), [], valid=[Triple(0, 0, 0)] * 3)
        for cap in (0, -2):
            with pytest.raises(ValueError, match="valid max triples must be >= 1"):
                closed_world_validator(g, cap)


class TestOpenWorldValidator:
    @pytest.mark.parametrize("family", ["distmult", "complex"])
    def test_matches_evaluate_on_valid(self, tmp_path, family):
        train = [("a", "r", "b"), ("b", "r", "c"), ("c", "s", "a"), ("a", "s", "c")]
        valid = [("new1", "r", "b"), ("new1", "r", "c"), ("new2", "s", "c"), ("new3", "r", "a"),
                 ("a", "r", "c"), ("new1", "s", "new_tail"), ("new4", "s", "a")]
        g = graph_from_triples(tmp_path, train, valid=valid, open_world=True)
        model = random_model(family, g.num_entities, g.num_relations, 4,
                             np.random.default_rng(8))
        store = make_store(["alpha", "beta", "gamma", "delta"], dim=3, seed=9)
        metadata = {
            0: EntityText("a", "alpha"),
            1: EntityText("b", "beta"),
            2: EntityText("c", "gamma"),
            g.entity_id("new1"): EntityText("new1", "alpha", "beta gamma"),
            g.entity_id("new2"): EntityText("new2", "delta"),
            g.entity_id("new3"): EntityText("new3", "", "..."),  # no usable text
        }  # new4 has no metadata at all
        validator = open_world_validator(model, g, entity_rows(metadata, store))
        config = EvalConfig(filter_splits=("train", "valid"))
        for seed in range(3):
            mm = train_map(model, g, entity_rows(metadata, store), "affine",
                           MapHyperparams(epochs=5, learning_rate=1e-2), seed=seed)
            report = evaluate(model, g, config, mm, entity_rows(metadata, store), triples=g.valid)
            assert validator(mm) == report.mrr_filtered
        assert {r.reason for r in report.results} == {
            "", SKIP_NO_METADATA, SKIP_OPEN_TARGET}

    def test_nothing_ranked_scores_zero(self, tmp_path):
        g = graph_from_triples(tmp_path, [("a", "r", "b")], valid=[("new", "r", "b")],
                               open_world=True)
        model = random_model("distmult", g.num_entities, g.num_relations, 3,
                             np.random.default_rng(1))
        store = make_store(["alpha"], dim=3)
        mm = train_map(model, g, entity_rows({0: EntityText("a", "alpha")}, store), "linear",
                       MapHyperparams(epochs=1))
        assert open_world_validator(model, g, entity_rows({}, store))(mm) == 0.0


class TestOpenWorldEvaluate:
    def build(self, tmp_path, family="complex"):
        train = [("a", "r", "b"), ("b", "r", "c"), ("c", "s", "a"), ("a", "s", "c")]
        test = [("new1", "r", "b"), ("new2", "s", "c"), ("a", "r", "new_tail")]
        g = graph_from_triples(tmp_path, train, test=test, open_world=True)
        model = random_model(family, g.num_entities, g.num_relations, 4,
                             np.random.default_rng(2))
        store = make_store(["alpha", "beta", "gamma", "delta"], dim=3, seed=3)
        metadata = {
            0: EntityText("a", "alpha"),
            1: EntityText("b", "beta"),
            2: EntityText("c", "gamma"),
            g.entity_id("new1"): EntityText("new1", "alpha", "beta gamma"),
            g.entity_id("new2"): EntityText("new2", "delta"),
        }
        mm = train_map(model, g, entity_rows(metadata, store), "affine",
                       MapHyperparams(epochs=20, learning_rate=1e-2), seed=4)
        return g, model, store, metadata, mm

    def test_matches_brute_force_with_open_heads(self, tmp_path):
        g, model, store, metadata, mm = self.build(tmp_path)
        config = EvalConfig(filter_splits=("train", "test"))
        report = evaluate(model, g, config, map_model=mm,
                          entity_rows=entity_rows(metadata, store))
        oracle = brute_force_report(model, g, config, g.test, metadata, mm, store)
        assert_reports_equal(report, oracle)

    @pytest.mark.parametrize("direction", ["tail", "head"])
    def test_open_ids_in_a_filter_set_are_left_out(self, tmp_path, direction):
        # (a, r, b) is ranked; its filter sets hold open ids: the tail
        # new_tail of (a, r) and the head new1 of (r, b)
        g, model, store, metadata, mm = self.build(tmp_path)
        config = EvalConfig(direction=direction, filter_splits=("train", "test"))
        triples = [Triple(0, 0, 1), *g.test.tolist()]
        report = evaluate(model, g, config, map_model=mm,
                          entity_rows=entity_rows(metadata, store), triples=triples)
        assert not report.results[0].skipped
        oracle = brute_force_report(model, g, config, triples, metadata, mm, store)
        assert_reports_equal(report, oracle)

    def test_open_target_skipped(self, tmp_path):
        g, model, store, metadata, mm = self.build(tmp_path)
        report = evaluate(model, g, EvalConfig(), map_model=mm,
                          entity_rows=entity_rows(metadata, store))
        by_triple = {tuple(r.triple): r for r in report.results}
        open_tail = by_triple[(0, 0, g.entity_id("new_tail"))]
        assert open_tail.skipped and open_tail.reason == SKIP_OPEN_TARGET

    def test_missing_metadata_skipped(self, tmp_path):
        g, model, store, metadata, mm = self.build(tmp_path)
        del metadata[g.entity_id("new2")]
        report = evaluate(model, g, EvalConfig(), map_model=mm,
                          entity_rows=entity_rows(metadata, store))
        reasons = {tuple(r.triple): r.reason for r in report.results if r.skipped}
        assert reasons[(g.entity_id("new2"), 1, 2)] == SKIP_NO_METADATA

    def test_target_filtering_skip_reason(self, tmp_path):
        g, model, store, metadata, mm = self.build(tmp_path)
        # tail b was never a training tail of relation s
        triples = [Triple(g.entity_id("new1"), 1, 1)]
        report = evaluate(model, g, EvalConfig(target_filtering=True), map_model=mm,
                          entity_rows=entity_rows(metadata, store), triples=triples)
        assert report.results[0].reason == SKIP_TARGET_FILTERING

    def test_each_open_query_is_averaged_and_mapped_once(self, tmp_path, monkeypatch):
        g, model, store, metadata, mm = self.build(tmp_path)
        new1, new2 = g.entity_id("new1"), g.entity_id("new2")
        triples = [Triple(new1, 0, 1), Triple(0, 0, 1), Triple(new1, 1, 0), Triple(new2, 1, 2),
                   Triple(new1, 0, 2), Triple(new2, 0, 1)]
        calls = {"keep_rows": 0, "mapped_embedding": 0}
        for name in calls:
            def counted(*args, _name=name, _call=getattr(evaluation, name)):
                calls[_name] += 1
                return _call(*args)
            monkeypatch.setattr(evaluation, name, counted)
        config = EvalConfig(filter_splits=("train", "test"))
        report = evaluate(model, g, config, map_model=mm,
                          entity_rows=entity_rows(metadata, store), triples=triples)
        assert calls == {"keep_rows": 1, "mapped_embedding": 2}
        assert report.evaluated_count == len(triples)
        oracle = brute_force_report(model, g, config, triples, metadata, mm, store)
        assert_reports_equal(report, oracle)

    def test_open_query_without_map_errors(self, tmp_path):
        g, model, store, metadata, mm = self.build(tmp_path)
        with pytest.raises(ValueError, match="open-world"):
            evaluate(model, g, EvalConfig())

    def test_open_query_after_a_closed_one_errors_before_scoring(self, tmp_path, monkeypatch):
        # neither the per-query kernel, nor the block ranking, nor the kernel
        # it runs on gathered rows is reached
        g, model, store, metadata, mm = self.build(tmp_path)
        scored = []
        for module, name in ((models, "score_all_tails"), (models, "score_all_heads"),
                             (models, "_score"), (evaluation, "better_or_tied")):
            monkeypatch.setattr(module, name, lambda *args, _name=name: scored.append(_name))
        with pytest.raises(ValueError, match="open-world"):
            evaluate(model, g, EvalConfig(), triples=[Triple(0, 0, 1), *g.test.tolist()])
        assert scored == []

    @pytest.mark.parametrize("direction", ["tail", "head"])
    def test_skip_precedence(self, tmp_path, direction):
        # open queries without text: an open target comes first, then
        # target filtering, then the missing text
        g, model, store, metadata, mm = self.build(tmp_path)
        no_text, open_target = g.entity_id("new2"), g.entity_id("new_tail")
        del metadata[no_text]
        rows = [(no_text, 0, open_target), (no_text, 1, 1), (no_text, 0, 1)]
        triples = [row if direction == "tail" else row[::-1] for row in rows]
        config = EvalConfig(direction=direction, target_filtering=True)
        report = evaluate(model, g, config, map_model=mm,
                          entity_rows=entity_rows(metadata, store), triples=triples)
        assert [r.reason for r in report.results] == [
            SKIP_OPEN_TARGET, SKIP_TARGET_FILTERING, SKIP_NO_METADATA]
        oracle = brute_force_report(model, g, config, triples, metadata, mm, store)
        assert_reports_equal(report, oracle)

    def test_head_direction_open_tails(self, tmp_path):
        train = [("a", "r", "b"), ("b", "r", "c"), ("c", "r", "a")]
        test = [("a", "r", "new1"), ("b", "r", "new2")]
        g = graph_from_triples(tmp_path, train, test=test, open_world=True)
        model = random_model("distmult", g.num_entities, g.num_relations, 4,
                             np.random.default_rng(5))
        store = make_store(["alpha", "beta", "gamma"], dim=3, seed=6)
        metadata = {
            0: EntityText("a", "alpha"),
            1: EntityText("b", "beta"),
            2: EntityText("c", "gamma"),
            g.entity_id("new1"): EntityText("new1", "alpha beta"),
            g.entity_id("new2"): EntityText("new2", "gamma"),
        }
        mm = train_map(model, g, entity_rows(metadata, store), "linear",
                       MapHyperparams(epochs=10), seed=7)
        config = EvalConfig(direction="head", filter_splits=("train", "test"))
        report = evaluate(model, g, config, map_model=mm,
                          entity_rows=entity_rows(metadata, store))
        oracle = brute_force_report(model, g, config, g.test, metadata, mm, store)
        assert_reports_equal(report, oracle)


class TestBaseline:
    def test_matches_seeded_replay(self, tmp_path):
        train = [("a", "r", "b"), ("b", "r", "c"), ("c", "s", "a")]
        test = [("a", "r", "c"), ("b", "s", "a"), ("c", "r", "b")]
        g = graph_from_triples(tmp_path, train, test=test)
        model = random_model("distmult", g.num_entities, g.num_relations, 4,
                             np.random.default_rng(8))
        config = EvalConfig(filter_splits=("train",))
        report = random_head_baseline(model, g, config, seed=99)

        # replay the generator to reconstruct the replacement embeddings
        rng = np.random.default_rng(99)
        pool = sorted({h for (h, _, _) in g.train})
        override = {}
        for idx, (h, r, t) in enumerate(g.test):
            pick = pool[int(rng.integers(0, len(pool)))]
            override[idx] = model.embeddings.entity_embedding(pick)
        oracle = brute_force_report(model, g, config, g.test, query_override=override)
        assert_reports_equal(report, oracle)

    def test_target_filtering_draws_for_ranked_rows_only(self, tmp_path):
        # (c, s, c) and (a, s, b) are skipped by target filtering: one draw is
        # made per ranked row, in row order
        train = [("a", "r", "b"), ("b", "r", "c"), ("c", "s", "a")]
        test = [("a", "r", "c"), ("c", "s", "c"), ("b", "s", "a"), ("a", "s", "b"),
                ("c", "r", "b")]
        g = graph_from_triples(tmp_path, train, test=test)
        model = random_model("distmult", g.num_entities, g.num_relations, 4,
                             np.random.default_rng(8))
        config = EvalConfig(filter_splits=("train",), target_filtering=True)
        report = random_head_baseline(model, g, config, seed=99)
        assert [r.reason for r in report.results] == [
            "", SKIP_TARGET_FILTERING, "", SKIP_TARGET_FILTERING, ""]

        rng = np.random.default_rng(99)
        pool = sorted({h for (h, _, _) in g.train})
        override = {}
        for idx in (0, 2, 4):
            pick = pool[int(rng.integers(0, len(pool)))]
            override[idx] = model.embeddings.entity_embedding(pick)
        oracle = brute_force_report(model, g, config, g.test, query_override=override)
        assert_reports_equal(report, oracle)

    def test_seed_changes_results(self, tmp_path):
        train = [(f"e{i}", "r", f"e{(i + 1) % 8}") for i in range(8)]
        g = graph_from_triples(tmp_path, train, test=train[:4])
        model = random_model("transe", g.num_entities, g.num_relations, 6,
                             np.random.default_rng(9))
        a = random_head_baseline(model, g, EvalConfig(filter_splits=("train",)), seed=1)
        b = random_head_baseline(model, g, EvalConfig(filter_splits=("train",)), seed=1)
        assert [r.raw_rank for r in a.results] == [r.raw_rank for r in b.results]

    def test_head_direction_uses_tail_pool(self, tmp_path):
        # single training tail: every replacement must be that embedding
        train = [("a", "r", "z"), ("b", "r", "z"), ("c", "r", "z")]
        g = graph_from_triples(tmp_path, train, test=[("a", "r", "z")])
        model = random_model("distmult", g.num_entities, g.num_relations, 3,
                             np.random.default_rng(10))
        config = EvalConfig(direction="head", filter_splits=("train",))
        report = random_head_baseline(model, g, config, seed=0)
        z = g.entity_id("z")
        override = {0: model.embeddings.entity_embedding(z)}
        oracle = brute_force_report(model, g, config, g.test, query_override=override)
        assert_reports_equal(report, oracle)


class TestNearestNeighbors:
    def test_exact_match_is_first_with_zero_distance(self):
        model = random_model("distmult", 6, 2, 4, np.random.default_rng(11))
        query = model.embeddings.entity_real[3]
        out = nearest_neighbors(model, query, 3)
        assert out[0] == (3, 0.0)

    def test_hand_ordering(self):
        from owlink.models import EmbeddingTable, KgcHyperparams, KgcModel

        table = np.array([[0.0, 0.0], [3.0, 4.0], [1.0, 0.0]])
        model = KgcModel("distmult", EmbeddingTable(table, np.zeros((1, 2))),
                         KgcHyperparams(dim=2))
        out = nearest_neighbors(model, np.array([0.0, 0.0]), 3)
        assert [i for i, _ in out] == [0, 2, 1]
        assert out[2][1] == pytest.approx(5.0)

    def test_tie_broken_by_id(self):
        from owlink.models import EmbeddingTable, KgcHyperparams, KgcModel

        table = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
        model = KgcModel("distmult", EmbeddingTable(table, np.zeros((1, 2))),
                         KgcHyperparams(dim=2))
        out = nearest_neighbors(model, np.array([0.0, 0.0]), 3)
        assert [i for i, _ in out] == [0, 1, 2]

    def test_complex_query_pair_uses_real_part(self):
        model = random_model("complex", 5, 2, 3, np.random.default_rng(12))
        query = (model.embeddings.entity_real[1], model.embeddings.entity_imag[1])
        out = nearest_neighbors(model, query, 1)
        assert out[0][0] == 1

    def test_k_too_large(self):
        model = random_model("distmult", 3, 1, 2, np.random.default_rng(13))
        with pytest.raises(ValueError):
            nearest_neighbors(model, np.zeros(2), 4)

    @pytest.mark.parametrize("k", [0, -3])
    def test_k_below_one(self, k):
        model = random_model("distmult", 5, 1, 2, np.random.default_rng(13))
        with pytest.raises(ValueError, match="between 1 and the number of entities 5, got"):
            nearest_neighbors(model, np.zeros(2), k)

    @pytest.mark.parametrize("num_entities", [models.NORM_BLOCK_ROWS - 1,
                                              2 * models.NORM_BLOCK_ROWS + 37])
    def test_distances_bitwise_across_blocks(self, num_entities):
        model = random_model("transe", num_entities, 1, 5, np.random.default_rng(14))
        query = np.random.default_rng(15).normal(size=5)
        diff = model.embeddings.entity_real - query
        dist = np.sqrt((diff * diff).sum(axis=1))
        order = np.lexsort((np.arange(num_entities), dist))
        assert nearest_neighbors(model, query, num_entities) == \
            [(int(i), float(dist[i])) for i in order]

    def test_no_table_sized_temporary(self):
        model = random_model("distmult", 20_000, 1, 64, np.random.default_rng(16))
        table = model.embeddings.entity_real
        tracemalloc.start()
        try:
            nearest_neighbors(model, table[7] + 0.5, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < table.nbytes


class TestReportOutput:
    def test_tsv_contains_names_and_reasons(self, tmp_path):
        g = graph_from_triples(tmp_path, [("a", "r", "b"), ("b", "r", "a")],
                               test=[("a", "r", "b")])
        model = random_model("distmult", 2, 1, 3, np.random.default_rng(14))
        report = evaluate(model, g, EvalConfig(filter_splits=("train",)))
        path = tmp_path / "report.tsv"
        write_report_tsv(str(path), g, report)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("head\trel\ttail")
        assert lines[1].split("\t")[:3] == ["a", "r", "b"]

    def test_summary_keys(self, tmp_path):
        g = graph_from_triples(tmp_path, [("a", "r", "b")], test=[("a", "r", "b")])
        model = random_model("distmult", 2, 1, 3, np.random.default_rng(15))
        report = evaluate(model, g, EvalConfig(filter_splits=("train",)))
        s = report.summary()
        for key in ("evaluated", "skipped", "mr", "mrr_raw", "mrr_filtered",
                    "hits_1", "hits_3", "hits_10"):
            assert key in s
        assert "MRR" in report.table_text()
