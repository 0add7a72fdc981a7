"""Seeded synthetic inputs for the owlink benchmark.

The graph has planted relational structure: entities fall into clusters,
and each relation links heads to a few hub tails inside each of a few
clusters, so a trained model ranks the head's cluster first and its
filtered MRR clearly beats the random-head baseline. Entity text is built from
per-cluster topic words, so averaged word vectors carry the cluster and a
text-to-graph map can place entities the graph never saw.

Every array and string is drawn from one ``numpy`` generator seeded by
the workload seed, so the same (spec, seed) always writes the same bytes.
"""

from __future__ import annotations

import json
import string
from pathlib import Path

import numpy as np

_LETTERS = string.ascii_lowercase


def _word(prefix: str, i: int) -> str:
    """Alphanumeric token for index ``i``; owlink's tokenizer keeps it whole."""
    chars = []
    while True:
        i, rem = divmod(i, 26)
        chars.append(_LETTERS[rem])
        if i == 0:
            break
    return prefix + "".join(reversed(chars))


def _zipf_rank(rng, size: int, n: int, exponent: float) -> np.ndarray:
    weights = 1.0 / np.arange(1, size + 1) ** exponent
    return rng.choice(size, size=n, p=weights / weights.sum())


def _clustered_triples(rng, g):
    n_ent, n_rel, n_clusters, n_triples = g["entities"], g["relations"], g["clusters"], g["triples"]
    cluster = rng.permutation(n_ent) % n_clusters
    order = np.argsort(cluster, kind="stable")
    sizes = np.bincount(cluster, minlength=n_clusters)
    starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])

    # Each relation links entities inside each of `domain_size` clusters.
    # Heads spread over the cluster with a popularity skew. Most tails are one
    # of a few hub members of the same cluster, as for many-to-one relations
    # such as nationality or genre; the rest spread over the cluster, so every
    # entity has some in-degree. A tail thus depends on the head's cluster,
    # which every model family here can learn within a few epochs.
    domain = g["domain_size"]
    dom = np.stack([rng.choice(n_clusters, size=domain, replace=False) for _ in range(n_rel)])
    hubs = rng.integers(1, g["max_hubs"] + 1, size=n_rel)
    weights = 1.0 / np.arange(1, n_rel + 1) ** 0.8  # skewed relation frequencies
    rel = rng.permutation(n_rel)[rng.choice(n_rel, size=n_triples, p=weights / weights.sum())]
    home = dom[rel, rng.integers(0, domain, size=n_triples)]

    head_rank = np.where(
        rng.random(n_triples) < g["head_skew_share"],
        _zipf_rank(rng, int(sizes.min()), n_triples, 1.0),
        (rng.random(n_triples) * sizes[home]).astype(np.int64),
    )
    tail_rank = np.where(
        rng.random(n_triples) < g["hub_share"],
        _zipf_rank(rng, g["max_hubs"], n_triples, 1.0) % hubs[rel],
        (rng.random(n_triples) * sizes[home]).astype(np.int64),
    )
    heads = order[starts[home] + head_rank]
    tails = order[starts[home] + tail_rank]

    # Every entity appears at least once, as a head of a relation whose
    # domain holds its cluster where there is one, so the vocabulary keeps
    # the full entity count.
    unused = np.setdiff1d(np.arange(n_ent), np.concatenate([heads, tails]))
    rels_of = [np.flatnonzero((dom == c).any(axis=1)) for c in range(n_clusters)]
    extra_rel = rng.integers(0, n_rel, size=len(unused))
    extra_home = dom[extra_rel, rng.integers(0, domain, size=len(unused))]
    for i, e in enumerate(unused):
        options = rels_of[cluster[e]]
        if len(options):
            extra_rel[i], extra_home[i] = options[rng.integers(0, len(options))], cluster[e]
    extra_tail = order[starts[extra_home]
                       + _zipf_rank(rng, g["max_hubs"], len(unused), 1.0) % hubs[extra_rel]]
    heads = np.concatenate([heads, unused])
    rel = np.concatenate([rel, extra_rel])
    tails = np.concatenate([tails, extra_tail])
    triples = np.unique(np.stack([heads, rel, tails], axis=1), axis=0)
    triples = triples[triples[:, 0] != triples[:, 2]]
    return triples[rng.permutation(len(triples))], cluster


def _carve_closed(rng, triples, n_valid, n_test):
    """Hold out valid/test triples whose entities and relation stay in train."""
    ent_count = np.bincount(triples[:, [0, 2]].ravel())
    rel_count = np.bincount(triples[:, 1])
    held: list[int] = []
    for i in rng.permutation(len(triples)):
        if len(held) == n_valid + n_test:
            break
        h, r, t = triples[i]
        if ent_count[h] > 1 and ent_count[t] > 1 and rel_count[r] > 1:
            ent_count[h] -= 1
            ent_count[t] -= 1
            rel_count[r] -= 1
            held.append(i)
    keep = np.ones(len(triples), dtype=bool)
    keep[held] = False
    held_arr = triples[held]
    return triples[keep], held_arr[:n_valid], held_arr[n_valid:]


def _write_triples(path: Path, triples: np.ndarray) -> None:
    lines = [f"e{h:05d}\tr{r:03d}\te{t:05d}\n" for h, r, t in triples.tolist()]
    path.write_text("".join(lines), encoding="utf-8")


def _text(rng, spec, cluster, n_clusters):
    """Metadata records and the word-vector table they draw on."""
    n_ent = len(cluster)
    n_topic, n_generic = spec["topic_words"], spec["generic_words"]
    topic = [[_word("k", c * n_topic + j) for j in range(n_topic)] for c in range(n_clusters)]
    generic = [_word("g", j) for j in range(n_generic)]

    lo, hi = spec["desc_words"]
    topic_pick = rng.integers(0, n_topic, size=(n_ent, hi + 1))
    generic_pick = rng.integers(0, n_generic, size=(n_ent, hi + 1))
    use_topic = rng.random((n_ent, hi)) < spec["topic_share"]
    lengths = rng.integers(lo, hi + 1, size=n_ent)
    has_meta = rng.random(n_ent) < spec["coverage"]
    has_desc = rng.random(n_ent) < spec["desc_coverage"]

    records = []
    names = []
    for e in range(n_ent):
        c = cluster[e]
        name = f"{topic[c][topic_pick[e, hi]]} {generic[generic_pick[e, hi]]}"
        names.append(name)
        if not has_meta[e]:
            continue
        desc = ""
        if has_desc[e]:
            desc = " ".join(
                topic[c][topic_pick[e, k]] if use_topic[e, k] else generic[generic_pick[e, k]]
                for k in range(lengths[e])
            )
        records.append(f"e{e:05d}\t{name}\t{desc}\n")

    dim = spec["dim"]
    centroid = rng.normal(size=(n_clusters, dim))
    keys: list[str] = []
    blocks: list[np.ndarray] = []
    keys += [w for ws in topic for w in ws]
    blocks.append(np.repeat(centroid, n_topic, axis=0) + 0.5 * rng.normal(size=(n_clusters * n_topic, dim)))
    known_generic = rng.random(n_generic) >= spec["oov_share"]
    keys += [w for w, k in zip(generic, known_generic) if k]
    blocks.append(rng.normal(size=(int(known_generic.sum()), dim)))
    phrase = np.flatnonzero(has_meta & (rng.random(n_ent) < spec["phrase_share"]))
    keys += ["_".join(names[e].split()) for e in phrase]
    blocks.append(centroid[cluster[phrase]] + 0.3 * rng.normal(size=(len(phrase), dim)))
    keys += [_word("x", j) for j in range(spec["unused_rows"])]
    blocks.append(rng.normal(size=(spec["unused_rows"], dim)))
    table = np.concatenate(blocks)
    order = rng.permutation(len(keys))
    return records, [keys[i] for i in order], table[order]


def _write_vectors(path: Path, keys: list[str], table: np.ndarray) -> None:
    fmt = " ".join(["%.4f"] * table.shape[1])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(keys)} {table.shape[1]}\n")
        for key, row in zip(keys, table.tolist()):
            fh.write(key + " " + fmt % tuple(row) + "\n")


def generate(spec: dict, seed: int, out: Path) -> dict:
    """Write train/valid/test (as the spec asks), metadata and vectors into
    ``out``; return a record of what was written."""
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, spec["salt"]])
    g = spec["graph"]
    triples, cluster = _clustered_triples(rng, g)
    files = {}
    if g.get("closed_split"):
        n_valid, n_test = g["closed_split"]
        triples, valid, test = _carve_closed(rng, triples, n_valid, n_test)
        _write_triples(out / "valid.txt", valid)
        _write_triples(out / "test.txt", test)
        files["valid"] = "valid.txt"
        files["test"] = "test.txt"
    n_dup = int(round(g["duplicate_share"] * len(triples)))
    dup = triples[rng.choice(len(triples), size=n_dup, replace=False)]
    with_dups = np.concatenate([triples, dup])
    _write_triples(out / "train.txt", with_dups[rng.permutation(len(with_dups))])
    files["train"] = "train.txt"

    if "text" in spec:
        records, keys, table = _text(rng, spec["text"], cluster, g["clusters"])
        (out / "metadata.tsv").write_text("".join(records), encoding="utf-8")
        _write_vectors(out / "vectors.txt", keys, table)
        files["metadata"] = "metadata.tsv"
        files["embeddings"] = "vectors.txt"

    record = {
        "seed": seed,
        "files": files,
        "train_lines": len(with_dups),
        "duplicates_planted": n_dup,
        "bytes": {k: (out / v).stat().st_size for k, v in files.items()},
    }
    if "text" in spec:
        record["vector_rows"] = len(keys)
        record["vector_dim"] = int(table.shape[1])
        record["metadata_records"] = len(records)
    (out / "inputs.json").write_text(json.dumps(record, indent=1, sort_keys=True), encoding="utf-8")
    return record
