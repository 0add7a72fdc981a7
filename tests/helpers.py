"""Shared test utilities: tiny graph builders, random models, an
independent brute-force ranking oracle (explicit candidate lists, sorted),
line-loop oracles of the loader and the open-world sampler, and a map fit
on dense word-dropout inputs."""

from __future__ import annotations

import errno
import io
from types import SimpleNamespace

import numpy as np

import owlink.stores as stores

from owlink.graph import (EntityText, KnowledgeGraph, ParseError, Triple, VocabularyError,
                          load_graph)
from owlink.models import EmbeddingTable, KgcHyperparams, KgcModel, score_all_heads, score_all_tails
from owlink.mapping import build_training_pairs, fit_map, mapped_entity_embedding
from owlink.sampler import OwSplit, SamplerError
from owlink.text import NoTextError, WordEmbeddingStore


# Each step of a store write that can fail: the temporary file's creation,
# a write to it once the disk is full, the anonymous tail file, the rename.
STORE_WRITE_FAILURES = ["os.replace", "open", "tempfile", "disk_full"]


class NoSpace:
    def __init__(self, *args, **kwargs):
        raise OSError(errno.ENOSPC, "No space left on device")


class FillsUp(io.FileIO):
    """A file whose disk fills up once its first bytes are written."""

    def write(self, data):
        if self.tell():
            NoSpace()
        return super().write(data)


def fail_store_writes(monkeypatch, fails):
    """Make the ``fails`` step of every store write raise ENOSPC (simulated:
    the tests may run as root, whom chmod cannot stop)."""
    writer_file = {"open": NoSpace, "disk_full": FillsUp}.get(fails, io.FileIO)
    monkeypatch.setattr(stores, "open", lambda file, mode="r", *args, **kwargs: (
        writer_file(file, mode) if "x" in mode else open(file, mode, *args, **kwargs)),
        raising=False)
    if fails == "os.replace":
        monkeypatch.setattr(stores.os, "replace", NoSpace)
    elif fails == "tempfile":
        monkeypatch.setattr(stores.tempfile, "TemporaryFile", NoSpace)


def write_triples(path, triples):
    with open(path, "w", encoding="utf-8") as fh:
        for h, r, t in triples:
            fh.write(f"{h}\t{r}\t{t}\n")


def store_from_vectors(vectors, dim, phrase_template="{name}"):
    """Store of an in-memory token -> vector dict, rows in dict order."""
    matrix = np.zeros((len(vectors) + 1, dim))
    for row, vec in enumerate(vectors.values()):
        matrix[row] = vec
    return WordEmbeddingStore(matrix, {tok: row for row, tok in enumerate(vectors)},
                              phrase_template)


def dense_dropout_means(matrix, rows, offsets, dropout_rate, rng):
    """Every entity's word-dropout mean as one (m, d') array: one
    ``rng.random(len(rows))`` draw, every row gathered and the dropped ones
    zeroed, then entity i's rows ``offsets[i]:offsets[i + 1]`` summed from
    +0.0 and divided by their count."""
    keep = rng.random(len(rows)) >= dropout_rate
    gathered = matrix[rows] * keep[:, None]
    return np.stack([gathered[a:b].sum(axis=0) / (b - a)
                     for a, b in zip(offsets[:-1], offsets[1:])])


def reference_dropout_map(kgc_model, graph, entity_rows, kind, hyperparams, seed):
    """``train_map`` under word dropout with dense inputs: each epoch builds
    the whole (m, d') array of :func:`dense_dropout_means`."""
    pairs, u_real, u_imag = build_training_pairs(kgc_model, graph, entity_rows)
    matrix, rows, offsets = pairs.store.matrix, pairs.rows, pairs.offsets[::3]
    return fit_map(lambda rng: dense_dropout_means(matrix, rows, offsets, hyperparams.dropout, rng),
                   u_real, u_imag, kind, hyperparams, seed)


def graph_from_triples(tmp_path, train, valid=None, test=None, open_world=False):
    write_triples(tmp_path / "train.txt", train)
    valid_path = test_path = None
    if valid is not None:
        valid_path = tmp_path / "valid.txt"
        write_triples(valid_path, valid)
    if test is not None:
        test_path = tmp_path / "test.txt"
        write_triples(test_path, test)
    return load_graph(
        str(tmp_path / "train.txt"),
        str(valid_path) if valid_path else None,
        str(test_path) if test_path else None,
        open_world=open_world,
    )


def reference_load_graph(train_path, valid_path=None, test_path=None, open_world=False):
    """Independent line-by-line loader, the oracle of ``load_graph``: one
    ``Triple`` and one set lookup per line. Returns the vocabularies (name ->
    id dicts), each split's triples and each split's duplicate count."""
    entities, relations, open_entities = {}, {}, {}

    def entity(name, path, lineno):
        idx = entities.get(name)
        if idx is not None:
            return idx
        if not open_world:
            raise VocabularyError(f"{path}:{lineno}: unknown entity {name!r} in closed-world mode")
        return len(entities) + open_entities.setdefault(name, len(open_entities))

    def read(path, extend_vocab):
        triples, seen, duplicates = [], set(), 0
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.rstrip("\r\n")
                if not line:
                    continue
                fields = line.split("\t")
                if len(fields) != 3:
                    raise ParseError(
                        f"{path}:{lineno}: expected 3 tab-separated fields, got {len(fields)}")
                h, r, t = fields
                if extend_vocab:
                    triple = Triple(entities.setdefault(h, len(entities)),
                                    relations.setdefault(r, len(relations)),
                                    entities.setdefault(t, len(entities)))
                else:
                    rid = relations.get(r)
                    if rid is None:
                        raise VocabularyError(f"{path}:{lineno}: unknown relation {r!r}")
                    triple = Triple(entity(h, path, lineno), rid, entity(t, path, lineno))
                if triple in seen:
                    duplicates += 1
                    continue
                seen.add(triple)
                triples.append(triple)
        return triples, duplicates

    splits, duplicates = {}, {}
    for name, path in (("train", train_path), ("valid", valid_path), ("test", test_path)):
        splits[name], duplicates[name] = read(path, name == "train") if path else ([], 0)
    return SimpleNamespace(entities=entities, relations=relations, open_entities=open_entities,
                           splits=splits, duplicates=duplicates)


def random_model(family, num_entities, num_relations, dim, rng, scale=1.0):
    def table(n):
        return rng.normal(scale=scale, size=(n, dim))

    if family == "complex":
        emb = EmbeddingTable(table(num_entities), table(num_relations),
                             table(num_entities), table(num_relations))
    else:
        emb = EmbeddingTable(table(num_entities), table(num_relations))
    return KgcModel(family, emb, KgcHyperparams(dim=dim))


def random_graph(rng, max_entities=20, max_relations=4, max_triples=30, open_heads=0):
    """Random small graph; optionally with open-world test heads."""
    n_e = int(rng.integers(3, max_entities + 1))
    n_r = int(rng.integers(1, max_relations + 1))
    n_t = int(rng.integers(3, max_triples + 1))
    train = []
    for _ in range(n_t):
        train.append(Triple(int(rng.integers(n_e)), int(rng.integers(n_r)), int(rng.integers(n_e))))
    train = list(dict.fromkeys(train))
    n_test = int(rng.integers(1, 8))
    test = []
    for i in range(n_test):
        if open_heads and i < open_heads:
            head = n_e + int(rng.integers(open_heads))
        else:
            head = int(rng.integers(n_e))
        test.append(Triple(head, int(rng.integers(n_r)), int(rng.integers(n_e))))
    test = list(dict.fromkeys(test))

    entities = [f"e{i}" for i in range(n_e)]
    opens = [f"o{i}" for i in range(open_heads)]
    relations = [f"r{i}" for i in range(n_r)]
    from owlink.graph import Vocab

    graph = KnowledgeGraph(Vocab(entities), Vocab(relations), train,
                           valid=[], test=test, open_entities=Vocab(opens))
    return graph


def brute_force_report(model, graph, config, triples, metadata=None,
                       map_model=None, store=None, query_override=None):
    """Independent re-implementation of the ranking protocol.

    Materializes explicit candidate lists per triple and sorts them; all
    aggregation is plain Python. ``query_override`` maps a triple index to
    an explicit query embedding (used for the baseline replay oracle).
    Returns a dict of per-triple ranks and aggregate metrics.
    """
    tail_dir = config.direction == "tail"
    num_e = graph.num_entities

    # filter sets by scanning the raw split lists
    pool = []
    for name in config.filter_splits:
        pool.extend(graph.split(name))
    per_triple = []
    for idx, (h, r, t) in enumerate(triples):
        qid, target = (h, t) if tail_dir else (t, h)
        if target >= num_e:
            per_triple.append(("skipped", "open-target"))
            continue
        if config.target_filtering:
            if tail_dir:
                known = {tt for (hh, rr, tt) in graph.train if rr == r}
            else:
                known = {hh for (hh, rr, tt) in graph.train if rr == r}
            if target not in known:
                per_triple.append(("skipped", "target-filtering"))
                continue
            candidates = sorted(known)
        else:
            candidates = list(range(num_e))

        if query_override is not None and idx in query_override:
            emb = query_override[idx]
        elif qid < num_e:
            emb = model.embeddings.entity_embedding(qid)
        else:
            meta = (metadata or {}).get(qid)
            if meta is None or not (meta.name or meta.description):
                per_triple.append(("skipped", "no-metadata"))
                continue
            try:
                emb = mapped_entity_embedding(model, map_model, meta, store)
            except NoTextError:
                per_triple.append(("skipped", "no-metadata"))
                continue

        if tail_dir:
            scores = score_all_tails(model, emb, r)
            true_set = {tt for (hh, rr, tt) in pool if hh == h and rr == r}
        else:
            scores = score_all_heads(model, r, emb)
            true_set = {hh for (hh, rr, tt) in pool if rr == r and tt == t}

        def rank_in(cands):
            others = [e for e in cands if e != target]
            ordered = sorted(others, key=lambda e: -scores[e])
            return 1 + sum(1 for e in ordered if scores[e] >= scores[target])

        raw = rank_in(candidates)
        filtered_cands = [e for e in candidates if e == target or e not in true_set]
        filt = rank_in(filtered_cands)
        per_triple.append(("ok", raw, filt))

    evaluated = [p for p in per_triple if p[0] == "ok"]
    use_filtered = config.filtered
    sel = [(p[2] if use_filtered else p[1]) for p in evaluated]
    out = {
        "per_triple": per_triple,
        "evaluated": len(evaluated),
        "skipped": len(per_triple) - len(evaluated),
    }
    if evaluated:
        out["mr"] = sum(sel) / len(sel)
        out["mrr_raw"] = sum(1.0 / p[1] for p in evaluated) / len(evaluated)
        out["mrr_filtered"] = sum(1.0 / p[2] for p in evaluated) / len(evaluated)
        out["hits"] = {k: sum(1 for x in sel if x <= k) / len(sel) for k in config.hits_k}
    return out


def assert_reports_equal(report, oracle):
    assert report.evaluated_count == oracle["evaluated"]
    assert report.skipped_count == oracle["skipped"]
    for res, orc in zip(report.results, oracle["per_triple"]):
        if orc[0] == "skipped":
            assert res.skipped and res.reason == orc[1]
        else:
            assert not res.skipped
            assert res.raw_rank == orc[1]
            assert res.filtered_rank == orc[2]
    if oracle["evaluated"]:
        assert report.mr == oracle["mr"]
        assert report.mrr_raw == oracle["mrr_raw"]
        assert report.mrr_filtered == oracle["mrr_filtered"]
        assert report.hits == oracle["hits"]


def _reference_sets(triples):
    entities: set[int] = set()
    relations: set[int] = set()
    for h, r, t in triples:
        entities.add(h)
        entities.add(t)
        relations.add(r)
    return entities, relations


def reference_sample_open_world(graph, config):
    """The sampler as a loop over ``Triple`` rows with Python sets and dicts,
    the oracle of ``sample_open_world``: the same rng draws in the same
    order, so both give the same split or raise the same error."""
    rng = np.random.default_rng(config.seed)

    train = list(map(Triple, *graph.train.T.tolist()))
    heads = sorted({h for h, _, _ in train})
    if config.head_count is not None:
        n_extract = min(config.head_count, len(heads))
    else:
        n_extract = int(round(config.head_fraction * len(heads)))
    sampled = [heads[i] for i in rng.choice(len(heads), size=n_extract, replace=False)]
    open_set = set(sampled)

    # One pass: a triple leaves train with whichever of its head and tail
    # comes first in ``sampled`` (the head when both are the same entity),
    # into that entity's tail-pool bucket if it is the head, else its dropped
    # bucket. The pools are the buckets in ``sampled`` order; the final
    # filters below drop the triples whose other end is no longer in train.
    position = {x: i for i, x in enumerate(sampled)}
    moved: list[list[Triple]] = [[] for _ in sampled]
    dropped: list[list[Triple]] = [[] for _ in sampled]
    remaining = []
    for trip in train:
        i = position.get(trip.head, n_extract)
        j = position.get(trip.tail, n_extract)
        if i < n_extract and i <= j:
            moved[i].append(trip)
        elif j < n_extract:
            dropped[j].append(trip)
        else:
            remaining.append(trip)
    train = remaining
    tail_pool = [trip for bucket in moved for trip in bucket]
    dropped_pool = [trip for bucket in dropped for trip in bucket]

    if not train:
        raise SamplerError("sampling would empty the train set")

    # Closed-world validation: random train triples, moved out of train, but
    # only when every id they mention stays represented elsewhere in train.
    valid_closed: list[Triple] = []
    n_valid = int(round(config.closed_valid_fraction * len(train)))
    if n_valid:
        ent_count: dict[int, int] = {}
        rel_count: dict[int, int] = {}
        for h, r, t in train:
            ent_count[h] = ent_count.get(h, 0) + 1
            ent_count[t] = ent_count.get(t, 0) + 1
            rel_count[r] = rel_count.get(r, 0) + 1
        order = rng.permutation(len(train))
        chosen: set[int] = set()
        for i in order:
            if len(chosen) >= n_valid:
                break
            h, r, t = train[i]
            ok = rel_count[r] > 1 and (ent_count[h] > 2 if h == t else ent_count[h] > 1 and ent_count[t] > 1)
            if ok:
                ent_count[h] -= 1
                ent_count[t] -= 1
                rel_count[r] -= 1
                chosen.add(i)
        valid_closed = [train[i] for i in sorted(chosen)]
        train = [trip for i, trip in enumerate(train) if i not in chosen]

    final_entities, final_relations = _reference_sets(train)

    test_tail = [
        trip
        for trip in dict.fromkeys(tail_pool)
        if trip.head in open_set
        and trip.head not in final_entities
        and trip.rel in final_relations
        and trip.tail in final_entities
    ]
    test_head = [
        trip
        for trip in dict.fromkeys(dropped_pool)
        if trip.head in final_entities
        and trip.rel in final_relations
        and trip.tail in open_set
        and trip.tail not in final_entities
    ]

    def carve_valid(pool: list[Triple]) -> tuple[list[Triple], list[Triple]]:
        n = int(round(config.open_valid_fraction * len(pool)))
        if not n:
            return [], pool
        idx = set(rng.choice(len(pool), size=n, replace=False).tolist())
        valid = [pool[i] for i in sorted(idx)]
        rest = [trip for i, trip in enumerate(pool) if i not in idx]
        return valid, rest

    valid_open_tail, test_tail = carve_valid(test_tail)
    valid_open_head, test_head = carve_valid(test_head)

    open_entities = sorted(open_set)
    manifest = {
        "seed": config.seed,
        "head_fraction": config.head_fraction,
        "head_count": config.head_count,
        "closed_valid_fraction": config.closed_valid_fraction,
        "open_valid_fraction": config.open_valid_fraction,
        "sampled_heads": n_extract,
        "train_triples": len(train),
        "valid_closed_triples": len(valid_closed),
        "test_tail_triples": len(test_tail),
        "valid_open_tail_triples": len(valid_open_tail),
        "test_head_triples": len(test_head),
        "valid_open_head_triples": len(valid_open_head),
        "open_entities": len(open_entities),
    }
    return OwSplit(
        train, test_tail, test_head, valid_closed,
        valid_open_tail, valid_open_head, open_entities, manifest,
    )
