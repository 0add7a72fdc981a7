import copy
import hashlib
import tracemalloc
import zlib

import numpy as np
import pytest

from owlink.graph import Triple
from owlink import models
from owlink.models import (
    FAMILIES,
    NORM_BLOCK_ROWS,
    SCORE_BLOCK_ROWS,
    ConfigError,
    EmbeddingTable,
    KgcHyperparams,
    KgcModel,
    gradients,
    init_embeddings,
    load_checkpoint,
    normalize_entities,
    save_checkpoint,
    score,
    score_all_heads,
    score_all_tails,
    train_kgc,
    _accumulate,
    _score,
    better_or_tied,
)
from owlink.optim import Adam
from owlink.evaluation import EvalConfig, _rank_pair, closed_world_validator, evaluate, rank_target
from helpers import graph_from_triples, random_model
from test_optim import bits, reference_update_rows


def fd_gradient_error(model, positive, negatives, h=1e-6):
    """Max relative error of analytic vs central finite-difference gradients."""
    _, grads = gradients(model, positive, negatives)
    tables = model.embeddings.arrays()
    worst = 0.0
    for (name, row), g in grads.items():
        arr = tables[name]
        for j in range(arr.shape[1]):
            orig = arr[row, j]
            arr[row, j] = orig + h
            lp, _ = gradients(model, positive, negatives)
            arr[row, j] = orig - h
            lm, _ = gradients(model, positive, negatives)
            arr[row, j] = orig
            fd = (lp - lm) / (2 * h)
            worst = max(worst, abs(fd - g[j]) / max(1.0, abs(fd), abs(g[j])))
    return worst


def near_hinge(model, positive, negatives, tol=1e-4):
    """True when a margin-loss hinge sits within finite-difference reach."""
    emb = model.embeddings

    def dist(trip):
        diff = emb.entity_real[trip.head] + emb.relation_real[trip.rel] - emb.entity_real[trip.tail]
        return np.sqrt((diff * diff).sum())

    dp = dist(positive)
    return any(abs(model.hyperparams.margin + dp - dist(n)) < tol for n in negatives)


def random_batch(rng, num_entities, num_relations, num_negatives=2):
    pos = Triple(*(int(x) for x in (rng.integers(num_entities), rng.integers(num_relations),
                                    rng.integers(num_entities))))
    negs = [
        Triple(int(rng.integers(num_entities)), pos.rel, int(rng.integers(num_entities)))
        for _ in range(num_negatives)
    ]
    return pos, negs


class TestScoring:
    def test_transe_exact_translation_scores_zero(self):
        emb = EmbeddingTable(np.array([[1.0, 1.0]]), np.array([[0.0, 1.0]]))
        model = KgcModel("transe", emb)
        assert score(model, np.array([1.0, 0.0]), 0, 0) == 0.0

    def test_distmult_all_ones(self):
        emb = EmbeddingTable(np.array([[1.0, 1.0]]), np.array([[1.0, 1.0]]))
        model = KgcModel("distmult", emb)
        assert score(model, np.array([1.0, 1.0]), 0, 0) == 2.0

    def test_complex_zero_imag_degenerates_to_distmult(self):
        rng = np.random.default_rng(0)
        real_model = random_model("distmult", 4, 2, 3, rng)
        emb = real_model.embeddings
        cplx = KgcModel("complex", EmbeddingTable(
            emb.entity_real, emb.relation_real,
            np.zeros_like(emb.entity_real), np.zeros_like(emb.relation_real)))
        h = rng.normal(size=3)
        for t in range(4):
            assert score(cplx, (h, np.zeros(3)), 1, t) == score(real_model, h, 1, t)

    def test_complex_hand_case(self):
        # h=1+i, r=1, t=1-i, d=1: Re((1+i)*1*conj(1-i)) = Re((1+i)(1+i)) = 0
        emb = EmbeddingTable(np.array([[1.0]]), np.array([[1.0]]),
                             np.array([[-1.0]]), np.array([[0.0]]))
        model = KgcModel("complex", emb)
        assert score(model, (np.array([1.0]), np.array([1.0])), 0, 0) == 0.0

    def test_dimension_mismatch_raises(self):
        rng = np.random.default_rng(1)
        model = random_model("transe", 3, 1, 4, rng)
        with pytest.raises(ValueError, match="shape"):
            score(model, np.zeros(5), 0, 0)
        with pytest.raises(ValueError, match="pair"):
            cm = random_model("complex", 3, 1, 4, rng)
            score(cm, np.zeros(4), 0, 0)


class TestScoreAll:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_matches_individual_scores(self, family):
        rng = np.random.default_rng(2)
        model = random_model(family, 5, 2, 4, rng)
        h = model.embeddings.entity_embedding(0)
        t_emb = model.embeddings.entity_embedding(3)
        tails = score_all_tails(model, h, 1)
        heads = score_all_heads(model, 1, t_emb)
        for e in range(5):
            assert tails[e] == score(model, h, 1, e)
            assert heads[e] == score(model, model.embeddings.entity_embedding(e), 1, 3)

    def test_argmax_is_best_tail(self):
        rng = np.random.default_rng(3)
        model = random_model("distmult", 6, 2, 4, rng)
        h = model.embeddings.entity_embedding(2)
        scores = score_all_tails(model, h, 0)
        best = int(np.argmax(scores))
        assert all(scores[best] >= scores[e] for e in range(6))

    def test_distmult_head_tail_symmetric(self):
        rng = np.random.default_rng(4)
        model = random_model("distmult", 5, 2, 3, rng)
        v = rng.normal(size=3)
        np.testing.assert_array_equal(score_all_heads(model, 1, v), score_all_tails(model, v, 1))

    def test_transe_hand_case_d1(self):
        # entities 0, 1, 2 at positions 0, 1, 3; relation shift +1
        emb = EmbeddingTable(np.array([[0.0], [1.0], [3.0]]), np.array([[1.0]]))
        model = KgcModel("transe", emb)
        scores = score_all_tails(model, np.array([0.0]), 0)
        np.testing.assert_array_equal(scores, [-1.0, 0.0, -2.0])
        heads = score_all_heads(model, 0, np.array([1.0]))
        np.testing.assert_array_equal(heads, [0.0, -1.0, -3.0])


class TestScoreBlocks:
    """score_all_* run the kernel over blocks of SCORE_BLOCK_ROWS entity rows."""

    @pytest.mark.parametrize("direction", ["tail", "head"])
    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("num_entities", [SCORE_BLOCK_ROWS - 3, SCORE_BLOCK_ROWS,
                                              2 * SCORE_BLOCK_ROWS + 37])
    def test_block_edges_bitwise_and_ties_pessimistic(self, num_entities, family, direction):
        rng = np.random.default_rng(zlib.crc32(f"{num_entities}:{family}:{direction}".encode()))
        model = random_model(family, num_entities, 2, 10, rng)
        emb = model.embeddings
        tables = [emb.entity_real] + ([emb.entity_imag] if emb.is_complex else [])
        target, last = 5, num_entities - 1
        # the rows either side of every block edge inside the table are equal,
        # as are the last row and the target row
        edges = list(range(SCORE_BLOCK_ROWS, num_entities, SCORE_BLOCK_ROWS))
        for table in tables:
            for edge in edges:
                table[edge] = table[edge - 1]
            table[last] = table[target]
        query = (rng.normal(size=10), rng.normal(size=10) if emb.is_complex else None)
        if direction == "tail":
            scores = score_all_tails(model, query, 1)
            unblocked = _score(model, query, 1, (emb.entity_real, emb.entity_imag))
        else:
            scores = score_all_heads(model, 1, query)
            unblocked = _score(model, (emb.entity_real, emb.entity_imag), 1, query)

        assert scores.shape == (num_entities,)
        assert scores.tobytes() == unblocked.tobytes()
        for edge in edges:
            assert scores[edge] == scores[edge - 1]
        assert scores[last] == scores[target]
        better_or_tied = int((np.delete(scores, target) >= scores[target]).sum())
        assert rank_target(scores, target) == 1 + better_or_tied
        assert rank_target(scores, target) > rank_target(scores, target, exclude={last})


def kernel_rows(model, query, r, target, query_is_head):
    """score_all_*'s comparison with the target's score: the reference."""
    with np.errstate(all="ignore"):
        scores = (score_all_tails(model, query, r) if query_is_head else
                  score_all_heads(model, r, query))
        return scores >= scores[target]


def block_rows(model, queries, relations, targets, query_is_head):
    with np.errstate(all="ignore"):
        return [row for block in better_or_tied(model, queries, relations, targets, query_is_head)
                for row in block]


def near_rows(model, query, r, target, query_is_head, per_step=3):
    """Copies of the target row with one real entry changed, whose kernel
    scores are the target's or one or two ulps either side of it: for each
    entry, aimed by its slope at each of those scores, then a few ulps of
    the entry around each aim."""
    def kernel(rows):
        with np.errstate(all="ignore"):
            return (_score(model, query, r, rows) if query_is_head else
                    _score(model, rows, r, query))

    def copies(real):
        return real, None if target[1] is None else np.repeat(target[1][None, :], len(real), 0)

    s_star = float(kernel(copies(target[0][None, :]))[0])
    ulp = np.spacing(abs(s_star))
    if not np.isfinite(s_star) or s_star == 0:
        return np.empty((0, len(target[0])))
    real = []
    for j, value in enumerate(target[0]):
        nudged = target[0].copy()
        nudged[j] += 1e-6 * (abs(value) + 1e-3)
        slope = (kernel(copies(nudged[None, :]))[0] - s_star) / (nudged[j] - value)
        if not np.isfinite(slope) or slope == 0:
            continue
        for aim in value + np.arange(-2, 3) * ulp / slope:
            for entry in aim + np.arange(-3, 4) * np.spacing(aim):
                row = target[0].copy()
                row[j] = entry
                real.append(row)
    real = np.array(real).reshape(-1, len(target[0]))
    steps = (kernel(copies(real)) - s_star) / ulp
    keep = [np.flatnonzero(steps == k)[:per_step] for k in range(-2, 3)]
    return real[np.concatenate(keep)]


def planted_model(family, num_entities, dim, rng, query_is_head, num_queries=10):
    """A random model and queries whose targets each have, elsewhere in the
    table, two duplicates and ``near_rows``; plus zero rows, rows scaled
    from 1e-300 to 1e300, rows with a NaN or an infinity, rows with entries
    of +-1e150, and queries that are zero, hold a NaN or an infinity, or are
    of order 1e160 on a relation of order 1e-200 (products of the kernel
    overflow where the GEMM's do not)."""
    model = random_model(family, num_entities, 3, dim, rng)
    emb = model.embeddings
    tables = [emb.entity_real] + ([emb.entity_imag] if emb.is_complex else [])
    for k, exponent in enumerate(range(-300, 301, 25)):
        for table in tables:
            table[k] *= 10.0 ** exponent
    special = 25
    for table in tables:
        table[special:special + 3] = 0.0
        table[special + 3, 0] = np.nan
        table[special + 4, -1] = np.inf
        table[special + 5, 0] = -np.inf
        table[special + 6:special + 12, :2] = 1e150 * rng.choice([-1.0, 1.0], size=(6, 2))
    for table in emb.arrays().values():
        if table.shape[0] == 3:  # relation 2 is tiny
            table[2] *= 1e-200
    free = iter(range(special + 12, num_entities))

    def query():
        return (rng.normal(size=dim), rng.normal(size=dim) if emb.is_complex else None)

    queries = [query() for _ in range(num_queries)]
    for part in queries[-4]:
        if part is not None:
            part *= 1e160
    for part in queries[-3]:
        if part is not None:
            part[:] = 0.0
    queries[-2][0][dim // 2] = np.nan
    queries[-1][0][dim // 2] = np.inf
    relations = rng.integers(0, 3, size=num_queries)
    relations[-4] = 2
    targets = np.array([next(free) for _ in range(num_queries)])
    for q, r, t in zip(queries, relations, targets):
        target = emb.entity_embedding(t)
        near = near_rows(model, q, r, target, query_is_head)
        for real in [*near, target[0], target[0]]:
            slot = next(free)
            emb.entity_real[slot] = real
            if emb.is_complex:
                emb.entity_imag[slot] = target[1]
    return model, queries, relations, targets


class TestBetterOrTied:
    """models.better_or_tied gives score_all_*'s comparison with the
    target's score, cell for cell, and so the ranks of _rank_pair."""

    @pytest.mark.parametrize("query_is_head", [True, False])
    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("num_entities", [SCORE_BLOCK_ROWS - 3, SCORE_BLOCK_ROWS + 5])
    def test_adversarial_rows_match_the_kernel(self, monkeypatch, num_entities, family,
                                               query_is_head):
        rng = np.random.default_rng(zlib.crc32(f"{num_entities}:{family}:{query_is_head}".encode()))
        model, queries, relations, targets = planted_model(family, num_entities, 6, rng,
                                                           query_is_head)
        # three queries per block: blocks of 3, 3, 3 and 1
        monkeypatch.setattr(models, "RANK_BLOCK_BYTES", 3 * 8 * num_entities)
        got = block_rows(model, queries, relations, targets, query_is_head)
        assert len(got) == len(queries)
        for row, q, r, t in zip(got, queries, relations, targets):
            want = kernel_rows(model, q, r, t, query_is_head)
            np.testing.assert_array_equal(row, want)
            mask = rng.random(num_entities) < 0.7
            excluded = np.unique(np.append(rng.integers(0, num_entities, 20), t))
            for candidates in (None, mask):
                assert _rank_pair(row.copy(), t, candidates, excluded) == \
                    _rank_pair(want.copy(), t, candidates, excluded)

    @pytest.mark.parametrize("dim", [1, 2, 3, 7, 8, 9, 16, 17, 33, 129, 300])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_gathered_rows_are_score_all_bitwise(self, monkeypatch, family, dim):
        # the one block loop (gathered query rows with one relation per
        # query, gathered entity rows, blocks of 7 pairs) and score_all_*
        # against the unblocked kernel over the whole (N, d) table
        monkeypatch.setattr(models, "SCORE_BLOCK_ROWS", 7)
        rng = np.random.default_rng(zlib.crc32(f"{family}:{dim}".encode()))
        model = random_model(family, 60, 3, dim, rng)
        emb = model.embeddings
        table = (emb.entity_real, emb.entity_imag)
        qr = rng.normal(size=(4, dim))
        qi = rng.normal(size=(4, dim)) if emb.is_complex else None
        cells = rng.integers(0, 4, size=90)
        rows = rng.integers(0, 60, size=90)
        relations = rng.integers(0, 3, size=4)
        for query_is_head in (True, False):
            got = models._score_cells(model, qr, qi, relations, cells, rows, query_is_head)
            for i, r in enumerate(relations):
                query = (qr[i], None if qi is None else qi[i])
                head, tail = (query, table) if query_is_head else (table, query)
                full = _score(model, head, r, tail)
                assert got[cells == i].tobytes() == full[rows[cells == i]].tobytes()
                scores = (score_all_tails(model, query, r) if query_is_head
                          else score_all_heads(model, r, query))
                assert scores.tobytes() == full.tobytes()

    # d = 1 inputs (query, relation, entity row) found by a search over
    # rounding errors: the GEMM estimate of the target row falls below its
    # kernel score by more than half the derived bound, so a duplicate of
    # the target row ties it only because the bound sends it to the kernel
    DISTMULT = {"query": ["0x1.00128d04e4423p-1"], "relation": ["-0x1.035fce184c262p+2"],
                "entity": ["-0x1.018ae4577fc47p+0"]}
    WORST_CASES = {  # (family, query_is_head): [real, imag] of each
        ("distmult", True): DISTMULT,
        ("distmult", False): DISTMULT,
        ("complex", True): {"query": ["0x1.0027075b866f2p+2", "0x1.038cc2950c7efp-2"],
                            "relation": ["0x1.003f75be7513ap+2", "-0x1.00368a2523dcep-2"],
                            "entity": ["-0x1.001d861bb10abp+2", "-0x1.00346970688a8p-2"]},
        ("complex", False): {"query": ["-0x1.005cb68a8046dp+2", "0x1.015ca19e4f433p-2"],
                             "relation": ["0x1.007bd31c44546p-2", "0x1.015763d4e97b6p+2"],
                             "entity": ["-0x1.00196e01c345cp-2", "-0x1.0013efac02baep+2"]},
    }

    @pytest.mark.parametrize("family, query_is_head", sorted(WORST_CASES))
    def test_rounding_worst_case(self, family, query_is_head):
        case = {k: [float.fromhex(v) for v in values]
                for k, values in self.WORST_CASES[family, query_is_head].items()}
        tables = [np.array([[v], [v], [0.0], [-v]]) for v in case["entity"]]
        relations = [np.array([[v]]) for v in case["relation"]]
        model = KgcModel(family, EmbeddingTable(tables[0], relations[0], *tables[1:],
                                                *relations[1:]))
        query = tuple(np.array([v]) for v in case["query"])
        query = query if family == "complex" else query[0]
        (got,) = better_or_tied(model, [query], [0], [0], query_is_head)
        want = kernel_rows(model, query, 0, 0, query_is_head)
        np.testing.assert_array_equal(got[0], want)
        assert want[1]  # the duplicate ties the target
        qr, qi = models._query_pair(model, query)
        estimate, bound, _ = models._bilinear_block(
            model, qr[None, :], None if qi is None else qi[None, :], np.array([0]),
            query_is_head, models._row_norms(model.embeddings)[1])
        s_star = (score_all_tails(model, query, 0) if query_is_head else
                  score_all_heads(model, 0, query))[0]
        assert s_star - estimate[0, 0] > bound[0, 0] / 2

    def test_block_ranking_allocates_less_than_one_table(self):
        # the bound comes from row norms: no array of the entity table's
        # size (such as [real imag] or |real|) is made
        rng = np.random.default_rng(17)
        num_entities, dim = 20000, 64
        model = random_model("complex", num_entities, 4, dim, rng)
        block = models.RANK_BLOCK_BYTES // (8 * num_entities)
        queries = [model.embeddings.entity_embedding(i) for i in range(block)]
        relations, targets = np.arange(block) % 4, np.arange(block) + 100
        tracemalloc.start()
        try:
            (rows,) = better_or_tied(model, queries, relations, targets, True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rows.shape == (block, num_entities)
        assert peak < num_entities * dim * 8


class TestNormalizeBlocks:
    @pytest.mark.parametrize("num_entities", [NORM_BLOCK_ROWS - 1, 2 * NORM_BLOCK_ROWS + 37])
    def test_blocks_match_the_whole_table_bitwise(self, num_entities):
        rng = np.random.default_rng(num_entities)
        emb = random_model("transe", num_entities, 2, 7, rng).embeddings
        emb.entity_real[[3, NORM_BLOCK_ROWS - 2, -1]] = 0.0  # zero rows stay zero
        table = emb.entity_real.copy()
        norms = np.sqrt((table * table).sum(axis=1, keepdims=True))
        np.divide(table, norms, out=table, where=norms > 0)
        normalize_entities(emb)
        assert emb.entity_real.tobytes() == table.tobytes()


class TestInvariants:
    def test_distmult_symmetry(self):
        rng = np.random.default_rng(5)
        model = random_model("distmult", 6, 3, 5, rng)
        emb = model.embeddings
        for _ in range(50):
            h, r, t = rng.integers(6), rng.integers(3), rng.integers(6)
            assert score(model, emb.entity_real[h], r, t) == score(model, emb.entity_real[t], r, h)

    def test_complex_conjugate_symmetry(self):
        rng = np.random.default_rng(6)
        model = random_model("complex", 6, 1, 5, rng)
        emb = model.embeddings
        pair = lambda e: emb.entity_embedding(e)
        emb.relation_imag[0] = 0.0  # purely real relation -> symmetric
        for h, t in [(0, 1), (2, 3), (4, 5)]:
            assert score(model, pair(h), 0, t) == pytest.approx(score(model, pair(t), 0, h), abs=1e-12)
        emb.relation_real[0] = 0.0  # purely imaginary relation -> antisymmetric
        emb.relation_imag[0] = rng.normal(size=5)
        for h, t in [(0, 1), (2, 3), (4, 5)]:
            assert score(model, pair(h), 0, t) == pytest.approx(-score(model, pair(t), 0, h), abs=1e-12)

    def test_transe_nonpositive_with_equality_iff_translation(self):
        rng = np.random.default_rng(7)
        model = random_model("transe", 8, 2, 4, rng)
        emb = model.embeddings
        for _ in range(100):
            h, r, t = rng.integers(8), rng.integers(2), rng.integers(8)
            assert score(model, emb.entity_real[h], r, t) <= 0.0
        emb.entity_real[1] = emb.entity_real[0] + emb.relation_real[0]  # planted translation
        assert score(model, emb.entity_real[0], 0, 1) == 0.0


class TestGradients:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_finite_differences(self, family):
        rng = np.random.default_rng(8)
        checked = 0
        while checked < 20:
            model = random_model(family, 6, 3, 4, rng)
            pos, negs = random_batch(rng, 6, 3)
            if family == "transe" and near_hinge(model, pos, negs):
                continue  # margin loss is non-differentiable at the hinge
            assert fd_gradient_error(model, pos, negs) < 1e-5
            checked += 1

    def test_saturated_logistic_loss_has_near_zero_gradient(self):
        emb = EmbeddingTable(np.array([[10.0], [10.0]]), np.array([[10.0]]))
        model = KgcModel("distmult", emb, KgcHyperparams(dim=1, reg_weight=0.0))
        loss, grads = gradients(model, Triple(0, 0, 1), [])
        assert loss < 1e-6
        assert all(abs(g).max() < 1e-6 for g in grads.values())

    def test_transe_zero_distance_subgradient_is_zero(self):
        emb = EmbeddingTable(np.array([[0.0, 0.0], [1.0, 1.0], [1.5, 1.5]]),
                             np.array([[1.0, 1.0]]))
        model = KgcModel("transe", emb, KgcHyperparams(dim=2, margin=1.0))
        loss, grads = gradients(model, Triple(0, 0, 1), [Triple(0, 0, 2)])
        # positive is an exact translation: only the negative contributes
        assert loss > 0
        np.testing.assert_allclose(grads[("entity_real", 1)], 0.0)

    def test_gradient_touches_only_batch_rows(self):
        rng = np.random.default_rng(9)
        model = random_model("complex", 10, 4, 3, rng)
        _, grads = gradients(model, Triple(0, 1, 2), [Triple(3, 1, 2)])
        touched_entities = {row for (name, row) in grads if name.startswith("entity")}
        touched_relations = {row for (name, row) in grads if name.startswith("relation")}
        assert touched_entities == {0, 2, 3}
        assert touched_relations == {1}


def reference_accumulate(dim, indices, *grads):
    """``_accumulate`` as first written: per block, ``np.add.at`` into zeros."""
    idx = np.concatenate([np.asarray(a, dtype=np.int64).ravel() for a in indices])
    rows, inv = np.unique(idx, return_inverse=True)
    sums = []
    for block in grads:
        acc = np.zeros((len(rows), dim))
        np.add.at(acc, inv, np.concatenate([np.asarray(a).reshape(-1, dim) for a in block]))
        sums.append(acc)
    return rows, sums


class TestAccumulate:
    """Row sums bitwise equal to the ``np.add.at`` reference."""

    @staticmethod
    def assert_same(got, want):
        assert bits(got[0]) == bits(want[0])
        assert len(got[1]) == len(want[1])
        for a, b in zip(got[1], want[1]):
            assert a.shape == b.shape and bits(a) == bits(b)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_add_at(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(1, 7))
        shapes = [(int(rng.integers(0, 9)),) + (() if rng.random() < 0.5 else (int(rng.integers(0, 4)),))
                  for _ in range(int(rng.integers(1, 5)))]
        indices = [rng.integers(0, 12, size=shape) for shape in shapes]
        blocks = []
        for _ in range(int(rng.integers(1, 3))):
            block = []
            for shape in shapes:
                g = rng.normal(size=shape + (dim,)) * 10.0 ** rng.integers(-4, 4, size=shape + (dim,))
                g[rng.random(shape) < 0.2] = -0.0
                g[rng.random(shape) < 0.1] = 0.0
                block.append(g)
            blocks.append(block)
        self.assert_same(_accumulate(dim, indices, *blocks), reference_accumulate(dim, indices, *blocks))

    def test_repeated_once_and_negative_zero_rows(self):
        indices = [np.array([3, 1, 3, 0]), np.array([[3, 5], [1, 3]])]
        g = np.array([[1e16, -0.0], [-0.0, -0.0], [1.0, -0.0], [-0.0, 0.0],
                      [-1e16, -0.0], [2.0, 3.0], [-0.0, -0.0], [1.0, 1.0]])
        grads = [g[:4], g[4:].reshape(2, 2, 2)]
        rows, (sums,) = _accumulate(2, indices, grads)
        self.assert_same((rows, [sums]), reference_accumulate(2, indices, grads))
        assert rows.tolist() == [0, 1, 3, 5]
        # row 3 adds 1e16, 1.0, -1e16, 1.0 in that order (the first 1.0 is lost);
        # rows 0 and 1 hold only zeros, -0.0 among them, and sum to 0.0
        assert sums.tolist() == [[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [2.0, 3.0]]
        assert not np.signbit(sums[:2]).any()

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("num_negatives", [0, 1, 4])
    def test_batch_gradients_match_add_at(self, monkeypatch, family, num_negatives):
        rng = np.random.default_rng(30 + num_negatives)
        hp = KgcHyperparams(dim=5, margin=0.5)
        negative_zeros = []

        def recording_reference(dim, indices, *grads):
            cells = np.concatenate([np.asarray(a).ravel() for block in grads for a in block])
            negative_zeros.append(int((np.signbit(cells) & (cells == 0)).sum()))
            return reference_accumulate(dim, indices, *grads)

        for _ in range(10):
            model = random_model(family, 8, 3, 5, rng, scale=0.5)
            model.hyperparams = hp
            pos = np.stack([rng.integers(8, size=16), rng.integers(3, size=16), rng.integers(8, size=16)], 1)
            neg = np.stack([rng.integers(8, size=(16, num_negatives)),
                            np.repeat(pos[:, 1:2], num_negatives, axis=1),
                            rng.integers(8, size=(16, num_negatives))], 2)
            loss, got = models.batch_loss_and_gradients(model, pos, neg)
            with monkeypatch.context() as m:
                m.setattr(models, "_accumulate", recording_reference)
                ref_loss, want = models.batch_loss_and_gradients(model, pos, neg)
            assert loss == ref_loss and list(got) == list(want)
            for name in got:
                assert bits(got[name][0]) == bits(want[name][0])
                assert bits(got[name][1]) == bits(want[name][1])
        if family == "transe" and num_negatives:
            assert sum(negative_zeros) > 0  # inactive negatives give -0.0 gradient cells

    @pytest.mark.parametrize("family", FAMILIES)
    def test_no_negatives_single_triple(self, monkeypatch, family):
        rng = np.random.default_rng(40)
        model = random_model(family, 6, 2, 4, rng)
        pos = Triple(1, 0, 1)  # head and tail share a row
        loss, got = gradients(model, pos, [])
        with monkeypatch.context() as m:
            m.setattr(models, "_accumulate", reference_accumulate)
            ref_loss, want = gradients(model, pos, [])
        assert loss == ref_loss and list(got) == list(want)
        assert all(bits(got[key]) == bits(want[key]) for key in got)


class TestBatchGolden:
    """One seeded batch per family pinned to the sha256 of its float64 loss
    and of each table's touched rows and gradient sums, in the dict's order.
    Rows repeat, K = 3, and TransE has active and inactive negatives, so a
    train step that moves any last bit of a gradient shows."""

    @staticmethod
    def batch(family):
        rng = np.random.default_rng(23)
        model = random_model(family, 12, 3, 7, rng, scale=0.5)
        model.hyperparams = KgcHyperparams(dim=7, margin=0.5, reg_weight=0.01)
        pos = np.stack([rng.integers(12, size=20), rng.integers(3, size=20),
                        rng.integers(12, size=20)], 1)
        neg = np.repeat(pos[:, None, :], 3, axis=1)
        neg[..., 0] = np.where(rng.random((20, 3)) < 0.5, rng.integers(12, size=(20, 3)),
                               neg[..., 0])
        neg[..., 2] = np.where(neg[..., 0] == pos[:, None, 0], rng.integers(12, size=(20, 3)),
                               neg[..., 2])
        return model, pos, neg

    @pytest.mark.parametrize("family, digest", [
        ("transe", "f16a9a5cce0ca8f7"),
        ("distmult", "bc79889fb938d63c"),
        ("complex", "aa3e011ac3b26bf5"),
    ])
    def test_digest(self, family, digest):
        loss, sparse = models.batch_loss_and_gradients(*self.batch(family))
        h = hashlib.sha256(np.array(loss, dtype="<f8").tobytes())
        for name, (rows, sums) in sparse.items():
            h.update(name.encode())
            h.update(rows.astype("<i8").tobytes())
            h.update(sums.astype("<f8").tobytes())
        assert h.hexdigest()[:16] == digest

    def test_batch_repeats_rows_and_has_inactive_negatives(self):
        model, pos, neg = self.batch("transe")
        emb = model.embeddings

        def dist(trip):
            diff = (emb.entity_real[trip[..., 0]] + emb.relation_real[trip[..., 1]]
                    - emb.entity_real[trip[..., 2]])
            return np.sqrt((diff * diff).sum(axis=-1))

        violation = model.hyperparams.margin + dist(pos)[:, None] - dist(neg)
        assert (violation > 0).any() and (violation <= 0).any()
        assert len(np.unique(pos[:, 0])) < len(pos) and len(np.unique(pos[:, 1])) < len(pos)


class TestTraining:
    def test_zero_learning_rate_keeps_initialization(self, tmp_path):
        g = graph_from_triples(tmp_path, [("a", "r", "b"), ("b", "r", "c")])
        hp = KgcHyperparams(dim=4, epochs=1, learning_rate=0.0)
        model = train_kgc(g, "distmult", hp, seed=11)
        rng = np.random.default_rng(11)
        init = init_embeddings("distmult", g.num_entities, g.num_relations, 4, rng)
        np.testing.assert_array_equal(model.embeddings.entity_real, init.entity_real)
        np.testing.assert_array_equal(model.embeddings.relation_real, init.relation_real)

    def test_toy_chain_overfit(self, tmp_path):
        chain = [(f"e{i}", "next", f"e{i+1}") for i in range(4)]
        g = graph_from_triples(tmp_path, chain)
        hp = KgcHyperparams(dim=8, epochs=200, learning_rate=0.05,
                            num_negatives=4, batch_size=4)
        model = train_kgc(g, "transe", hp, seed=1)
        report = evaluate(model, g, EvalConfig(filter_splits=("train",)), triples=g.train)
        assert report.hits[1] >= 0.8

    def test_determinism(self, tmp_path):
        g = graph_from_triples(tmp_path, [("a", "r", "b"), ("b", "r", "c"), ("c", "s", "a")])
        hp = KgcHyperparams(dim=4, epochs=5, learning_rate=0.01)
        m1 = train_kgc(g, "complex", hp, seed=42)
        m2 = train_kgc(g, "complex", hp, seed=42)
        for a, b in zip(m1.embeddings.arrays().values(), m2.embeddings.arrays().values()):
            np.testing.assert_array_equal(a, b)

    def test_embeddings_finite_after_training(self, tmp_path):
        g = graph_from_triples(tmp_path, [("a", "r", "b"), ("b", "r", "c")])
        hp = KgcHyperparams(dim=4, epochs=20, learning_rate=0.1)
        model = train_kgc(g, "distmult", hp, seed=0)
        assert all(np.isfinite(arr).all() for arr in model.embeddings.arrays().values())

    def test_validation_log_written(self, tmp_path):
        g = graph_from_triples(tmp_path, [("a", "r", "b"), ("b", "r", "c"), ("c", "r", "a")],
                               valid=[("a", "r", "c")])
        hp = KgcHyperparams(dim=4, epochs=3, learning_rate=0.01)
        log = tmp_path / "log.tsv"
        train_kgc(g, "distmult", hp, seed=0, log_path=str(log))
        lines = log.read_text().splitlines()
        assert lines[0] == "epoch\tloss\tvalid_mrr"
        assert len(lines) == 4
        assert all(len(line.split("\t")) == 3 for line in lines[1:])

    def test_validator_selects_best_epoch(self, tmp_path):
        g = graph_from_triples(tmp_path, [("a", "r", "b"), ("b", "r", "c"), ("c", "r", "a")])
        snapshots = []
        scores = iter([0.3, 0.9, 0.1, 0.2])

        def validator(model):
            snapshots.append(copy.deepcopy(model.embeddings))
            return next(scores)

        hp = KgcHyperparams(dim=4, epochs=4, learning_rate=0.05)
        model = train_kgc(g, "distmult", hp, seed=0, validator=validator)
        assert len(snapshots) == 4
        np.testing.assert_array_equal(model.embeddings.entity_real, snapshots[1].entity_real)

    def test_non_finite_loss_stops_at_its_epoch(self, tmp_path):
        g = graph_from_triples(tmp_path, [("a", "r", "b"), ("b", "r", "c"), ("c", "r", "a")])
        validated = []
        hp = KgcHyperparams(dim=4, epochs=10, learning_rate=1e200)
        with np.errstate(all="ignore"), pytest.raises(FloatingPointError, match="at epoch 2$"):
            train_kgc(g, "distmult", hp, seed=0, validator=lambda m: validated.append(m) or 0.0)
        assert len(validated) == 1  # epoch 1 finished; epoch 2 raised before validation

    def test_config_errors(self, tmp_path):
        g = graph_from_triples(tmp_path, [("a", "r", "b")])
        with pytest.raises(ConfigError):
            train_kgc(g, "distmult", KgcHyperparams(dim=0))
        with pytest.raises(ConfigError):
            train_kgc(g, "distmult", KgcHyperparams(learning_rate=-1))
        with pytest.raises(ConfigError):
            train_kgc(g, "nope", KgcHyperparams())

    def test_negative_valid_every_rejected(self, tmp_path):
        g = graph_from_triples(tmp_path, [("a", "r", "b"), ("b", "r", "c")])
        with pytest.raises(ConfigError, match="valid_every"):
            train_kgc(g, "distmult", KgcHyperparams(dim=2, epochs=1, valid_every=-1),
                      validator=lambda m: 0.0)
        validated = []
        train_kgc(g, "distmult", KgcHyperparams(dim=2, epochs=2, valid_every=0),
                  validator=lambda m: validated.append(m) or 0.0)
        assert validated == []  # 0 means never


class TestCheckpoint:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_round_trip(self, tmp_path, family):
        rng = np.random.default_rng(12)
        model = random_model(family, 5, 3, 4, rng)
        path = tmp_path / "m.ckpt"
        save_checkpoint(str(path), model)
        loaded = load_checkpoint(str(path))
        assert loaded.family == family
        assert loaded.embeddings.is_complex == (family == "complex")
        for a, b in zip(model.embeddings.arrays().values(), loaded.embeddings.arrays().values()):
            np.testing.assert_allclose(a, b, atol=1e-6)  # float32 payload

    # a complex model with 4 entities, 2 relations, d=3: 72 bytes per part
    @pytest.mark.parametrize("corrupt, message", [
        (lambda data: data[:-8], "truncated"),
        (lambda data: data + bytes(4), "trailing bytes"),
        (lambda data: data.replace(b"family=complex", b"family=bogus"), "unknown model family"),
        (lambda data: data.replace(b"complex=1", b"complex=0")[:-72], "contradicts"),
        (lambda data: data.replace(b"dim=3\n", b""), "lacks dim="),
        (lambda data: data.replace(b"dim=3", b"dim=x"), "bad checkpoint header value"),
        (lambda data: data.replace(b"\nend\n", b"\n"), "no end line"),
        (lambda data: data.replace(b"dim=3\n", b"dim=3\ngarbage line\n"), "is not key=value"),
        (lambda data: data.replace(b"dim=3\n", b"dim=3\ndim=4\n"), "repeats dim="),
    ], ids=["truncated", "trailing", "family", "complex-flag", "no-dim", "bad-dim", "no-end",
            "no-equals", "repeated-key"])
    def test_malformed_rejected(self, tmp_path, corrupt, message):
        rng = np.random.default_rng(13)
        model = random_model("complex", 4, 2, 3, rng)
        path = tmp_path / "m.ckpt"
        save_checkpoint(str(path), model)
        path.write_bytes(corrupt(path.read_bytes()))
        with pytest.raises(ValueError, match=message) as info:
            load_checkpoint(str(path))
        assert str(path) in str(info.value)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_payload_rejected(self, tmp_path, value):
        model = random_model("complex", 4, 2, 3, np.random.default_rng(13))
        path = tmp_path / "m.ckpt"
        save_checkpoint(str(path), model)
        data = path.read_bytes()
        at = data.index(b"\nend\n") + 5 + 4 * 7  # a value of entity row 2
        path.write_bytes(data[:at] + np.array(value, dtype="<f4").tobytes() + data[at + 4:])
        with pytest.raises(ValueError, match="non-finite value in checkpoint payload") as info:
            load_checkpoint(str(path))
        assert str(path) in str(info.value)


    def test_blocks_are_written_in_row_chunks_bitwise(self, tmp_path, monkeypatch):
        model = random_model("complex", 10, 4, 3, np.random.default_rng(14))
        monkeypatch.setattr(models, "CHECKPOINT_BLOCK_ROWS", 3)  # chunks of 3, 3, 3 and 1
        path = tmp_path / "m.ckpt"
        save_checkpoint(str(path), model)
        data = path.read_bytes()
        payload = b"".join(np.ascontiguousarray(a, dtype="<f4").tobytes()
                           for a in model.embeddings.arrays().values())
        assert data[data.index(b"\nend\n") + 5:] == payload

    def test_writing_allocates_less_than_a_float32_table(self, tmp_path):
        num_entities, dim = 20000, 32
        model = random_model("transe", num_entities, 2, dim, np.random.default_rng(15))
        tracemalloc.start()
        try:
            save_checkpoint(str(tmp_path / "m.ckpt"), model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < num_entities * dim  # a quarter of the table's float32 bytes


class TestTrainGolden:
    """Two seeded epochs per family pinned to the sha256 of the checkpoint and
    of the training log. Repeated rows, rows seen once, TransE's inactive
    negatives (-0.0 gradient rows) and per-epoch validation all occur, so a
    train-step kernel that moves a bit of the saved float32 payload shows."""

    @staticmethod
    def train(tmp_path, family):
        rng = np.random.default_rng(21)

        def triples(n):
            return [(f"e{rng.integers(30)}", f"r{rng.integers(4)}", f"e{rng.integers(30)}")
                    for _ in range(n)]

        g = graph_from_triples(tmp_path, triples(400), valid=triples(15))
        hp = KgcHyperparams(dim=6, epochs=2, learning_rate=0.05, batch_size=64,
                            num_negatives=3, margin=0.25)
        log = tmp_path / "train_log.tsv"
        # seed 11: epoch 2 validates best for every family, so it is the one saved
        model = train_kgc(g, family, hp, seed=11, validator=closed_world_validator(g),
                          log_path=str(log))
        ckpt = tmp_path / "kgc.ckpt"
        save_checkpoint(str(ckpt), model)
        return model, ckpt.read_bytes(), log.read_bytes()

    @pytest.mark.parametrize("family, ckpt_digest, log_digest", [
        ("transe", "f7a28f38dbc53d0a", "e2a79572aea315fc"),
        ("distmult", "887852e361a8c623", "b1fca991dc8c125a"),
        ("complex", "a0a5ac83342e3e48", "68f6872d62020d9e"),
    ])
    def test_digests(self, tmp_path, family, ckpt_digest, log_digest):
        _, ckpt, log = self.train(tmp_path, family)
        assert len(log.splitlines()) == 3
        assert hashlib.sha256(ckpt).hexdigest()[:16] == ckpt_digest
        assert hashlib.sha256(log).hexdigest()[:16] == log_digest

    @pytest.mark.parametrize("family", FAMILIES)
    def test_matches_reference_kernels(self, tmp_path, monkeypatch, family):
        """The same two epochs with the first-written row sums and row update
        give bitwise the same float64 embeddings, on any machine."""
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        model, _, log = self.train(tmp_path / "a", family)
        with monkeypatch.context() as m:
            m.setattr(models, "_accumulate", reference_accumulate)
            m.setattr(Adam, "update_rows", reference_update_rows)
            ref_model, _, ref_log = self.train(tmp_path / "b", family)
        assert log == ref_log
        for a, b in zip(model.embeddings.arrays().values(), ref_model.embeddings.arrays().values()):
            assert bits(a) == bits(b)
