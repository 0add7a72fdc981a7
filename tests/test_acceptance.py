"""Acceptance suite.

Criteria 1-7 run at desk scale. Criteria 8-10 reproduce published-scale
numbers and need external assets; they are skipped unless the environment
provides OWLINK_FB15K237OWE_DIR (directory with train.txt, valid.txt,
test.txt, metadata.tsv) and OWLINK_WIKIPEDIA2VEC_PATH (300-dim word
embedding text file). Each criterion prints one PASS/FAIL line.
"""

import os

import numpy as np
import pytest

from owlink.evaluation import EvalConfig, closed_world_validator, evaluate, random_head_baseline
from owlink.graph import EntityText, load_graph, load_entity_text, resolve_metadata
from owlink.mapping import (
    MapHyperparams,
    MapModel,
    fit_map,
    map_loss_and_gradients,
    train_map,
)
from owlink.models import (
    EmbeddingTable,
    KgcHyperparams,
    KgcModel,
    gradients,
    score,
    train_kgc,
)
from owlink.sampler import SamplerConfig, SamplerError, sample_open_world, validate_split
from owlink.text import collect_keys, entity_rows, load_word_embeddings
from helpers import (
    assert_reports_equal,
    brute_force_report,
    graph_from_triples,
    random_graph,
    random_model,
    store_from_vectors,
    write_triples,
)
from owlink.graph import Triple


def report_line(num: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {num}: {status} - {description}{suffix}")
    assert ok, f"criterion {num} failed: {description}{suffix}"


# ---------------------------------------------------------------------------
# 1. Gradient checks


def kgc_fd_error(model, positive, negatives, eps=1e-6):
    _, grads = gradients(model, positive, negatives)
    emb = model.embeddings
    tables = {
        "entity_real": emb.entity_real, "relation_real": emb.relation_real,
        "entity_imag": emb.entity_imag, "relation_imag": emb.relation_imag,
    }
    worst = 0.0
    for (name, row), g in grads.items():
        table = tables[name]
        for j in range(table.shape[1]):
            orig = table[row, j]
            table[row, j] = orig + eps
            up = gradients(model, positive, negatives)[0]
            table[row, j] = orig - eps
            dn = gradients(model, positive, negatives)[0]
            table[row, j] = orig
            numeric = (up - dn) / (2 * eps)
            worst = max(worst, _fd_error(numeric, g[j]))
    return worst


def _fd_error(numeric, analytic):
    """Relative error, except near-zero pairs are compared absolutely
    (central differences carry O(1e-9) cancellation noise)."""
    scale = max(abs(numeric), abs(analytic))
    gap = abs(numeric - analytic)
    return gap if scale < 1e-4 else gap / scale


def random_kgc_config(family, rng):
    """Random tiny model + batch, resampled away from hinge/kink points."""
    for _ in range(100):
        n_e, n_r, dim = 6, 3, 3
        model = random_model(family, n_e, n_r, dim, rng)
        pos = Triple(int(rng.integers(n_e)), int(rng.integers(n_r)), int(rng.integers(n_e)))
        negs = [Triple(int(rng.integers(n_e)), pos.rel, int(rng.integers(n_e)))
                for _ in range(int(rng.integers(1, 3)))]
        if family != "transe":
            return model, pos, negs
        emb = model.embeddings
        dp = -score(model, emb.entity_real[pos.head], pos.rel, pos.tail)
        smooth = dp > 1e-3
        for neg in negs:
            dn = -score(model, emb.entity_real[neg.head], neg.rel, neg.tail)
            if abs(model.hyperparams.margin + dp - dn) < 1e-3 or dn < 1e-3:
                smooth = False
        if smooth:
            return model, pos, negs
    raise AssertionError("could not sample a smooth TransE configuration")


def map_fd_error(model, V, tr, ti, mode, eps=1e-6):
    _, grads = map_loss_and_gradients(model, V, tr, ti, mode)
    worst = 0.0
    for key, g in grads.items():
        branch, name = key.split("/")
        param = (model.real if branch == "real" else model.imag)[name]
        flat, gflat = param.reshape(-1), g.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + eps
            up = map_loss_and_gradients(model, V, tr, ti, mode)[0]
            flat[j] = orig - eps
            dn = map_loss_and_gradients(model, V, tr, ti, mode)[0]
            flat[j] = orig
            numeric = (up - dn) / (2 * eps)
            worst = max(worst, _fd_error(numeric, gflat[j]))
    return worst


def mlp_min_preactivation(model, V):
    """Smallest |pre-activation| over all hidden ReLU units and inputs."""
    smallest = np.inf
    for branch in (model.real, model.imag):
        if branch is None:
            continue
        a = V
        n_layers = sum(1 for k in branch if k.startswith("W"))
        for i in range(1, n_layers):
            z = a @ branch[f"W{i}"].T + branch[f"b{i}"]
            smallest = min(smallest, np.abs(z).min())
            a = np.maximum(z, 0.0)
    return smallest


class TestCriterion1:
    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(101)
        worst = 0.0
        for family in ("transe", "distmult", "complex"):
            for _ in range(100):
                model, pos, negs = random_kgc_config(family, rng)
                worst = max(worst, kgc_fd_error(model, pos, negs))

        from owlink.mapping import init_map

        for kind in ("linear", "affine", "mlp"):
            for trial in range(100):
                complex_pair = bool(trial % 2)
                mode = ("squared", "euclidean")[trial % 2]
                # resample configurations whose ReLU pre-activations sit at
                # the kink, where the loss is not differentiable
                for _ in range(100):
                    model = init_map(kind, 3, 2, rng, complex_pair=complex_pair)
                    for branch in (model.real, model.imag):
                        if branch is None:
                            continue
                        for name in list(branch):
                            if name.startswith("b"):
                                branch[name] = rng.normal(scale=0.3, size=branch[name].shape)
                    V = rng.normal(size=(4, 3))
                    if kind != "mlp" or mlp_min_preactivation(model, V) > 1e-3:
                        break
                tr = rng.normal(size=(4, 2))
                ti = rng.normal(size=(4, 2)) if complex_pair else None
                worst = max(worst, map_fd_error(model, V, tr, ti, mode))

        report_line(1, "analytic gradients match finite differences (<1e-5 rel)",
                    worst < 1e-5, f"worst rel error {worst:.2e}")


# ---------------------------------------------------------------------------
# 2. Ranking oracle


class TestCriterion2:
    def test_ranking_matches_brute_force_oracle(self):
        rng = np.random.default_rng(202)
        families = ("transe", "distmult", "complex")
        checked = 0
        for trial in range(200):
            g = random_graph(rng, max_entities=20)
            model = random_model(families[trial % 3], g.num_entities,
                                 g.num_relations, 3, rng)
            for direction in ("tail", "head"):
                for tf in (False, True):
                    for filtered in (True, False):
                        config = EvalConfig(direction=direction, filtered=filtered,
                                            target_filtering=tf,
                                            filter_splits=("train", "test"))
                        rep = evaluate(model, g, config)
                        oracle = brute_force_report(model, g, config, g.test)
                        assert_reports_equal(rep, oracle)
                        checked += 1
        report_line(2, "evaluate() exactly matches the brute-force oracle",
                    True, f"{checked} graph/flag combinations")


# ---------------------------------------------------------------------------
# 3. Model identities


class TestCriterion3:
    def test_scoring_identities(self):
        rng = np.random.default_rng(303)
        dim = 4

        ok_degenerate = True
        for _ in range(1000):
            e = rng.normal(size=(3, dim))
            r = rng.normal(size=(1, dim))
            dm = KgcModel("distmult", EmbeddingTable(e.copy(), r.copy()),
                          KgcHyperparams(dim=dim))
            cx = KgcModel("complex",
                          EmbeddingTable(e.copy(), r.copy(),
                                         np.zeros((3, dim)), np.zeros((1, dim))),
                          KgcHyperparams(dim=dim))
            s_dm = score(dm, e[0], 0, 1)
            s_cx = score(cx, (e[0], np.zeros(dim)), 0, 1)
            ok_degenerate &= s_dm == s_cx

        ok_symmetry = True
        for _ in range(1000):
            e = rng.normal(size=(3, dim))
            r = rng.normal(size=(1, dim))
            dm = KgcModel("distmult", EmbeddingTable(e, r), KgcHyperparams(dim=dim))
            ok_symmetry &= score(dm, e[0], 0, 1) == score(dm, e[1], 0, 0)

        ok_transe = True
        for _ in range(1000):
            e = rng.normal(size=(2, dim))
            r = rng.normal(size=(1, dim))
            te = KgcModel("transe", EmbeddingTable(e, r), KgcHyperparams(dim=dim))
            s = score(te, e[0], 0, 1)
            ok_transe &= s <= 0
            exact = (e[0] + r[0] == e[1]).all()
            ok_transe &= (s == 0.0) == bool(exact)
        # planted exact translation
        e = rng.normal(size=(2, dim))
        r = (e[1] - e[0])[None, :]
        e[1] = e[0] + r[0]  # re-plant so the identity holds bitwise
        te = KgcModel("transe", EmbeddingTable(e, r), KgcHyperparams(dim=dim))
        ok_transe &= score(te, e[0], 0, 1) == 0.0

        report_line(3, "scoring identities hold exactly",
                    ok_degenerate and ok_symmetry and ok_transe,
                    f"degenerate={ok_degenerate} symmetry={ok_symmetry} transe={ok_transe}")


# ---------------------------------------------------------------------------
# 4. Composition identity


class TestCriterion4:
    def test_identity_map_reproduces_closed_world_scoring(self, tmp_path):
        train = [(f"e{i}", "next", f"e{(i + 1) % 6}") for i in range(6)]
        train += [(f"e{i}", "skip", f"e{(i + 2) % 6}") for i in range(6)]
        g = graph_from_triples(tmp_path, train)
        hp = KgcHyperparams(dim=4, epochs=20, learning_rate=0.05, batch_size=4)
        model = train_kgc(g, "distmult", hp, seed=7)

        dim = model.embeddings.dim
        store = store_from_vectors(
            {f"tok{e}": model.embeddings.entity_real[e] for e in range(g.num_entities)},
            dim,
        )
        identity = MapModel("affine", dim, dim, (),
                            {"W": np.eye(dim), "b": np.zeros(dim)})

        from owlink.mapping import mapped_entity_embedding
        from owlink.models import score_all_tails

        ok = True
        for e in range(g.num_entities):
            meta = EntityText(f"e{e}", f"tok{e}")
            mapped = mapped_entity_embedding(model, identity, meta, store)
            for r in range(g.num_relations):
                closed = score_all_tails(model, model.embeddings.entity_embedding(e), r)
                open_ = score_all_tails(model, mapped, r)
                ok &= bool(np.array_equal(closed, open_))
        report_line(4, "identity transformation makes open-world scoring "
                       "bit-identical to closed-world", ok)


# ---------------------------------------------------------------------------
# 5. Planted-map recovery


class TestCriterion5:
    def test_planted_affine_recovered(self):
        rng = np.random.default_rng(505)
        A = rng.normal(size=(4, 5))
        b = rng.normal(size=4)
        V = rng.normal(size=(60, 5))
        targets = V @ A.T + b
        hp = MapHyperparams(epochs=1000, learning_rate=1e-2, batch_size=16)
        model = fit_map(V, targets, None, "affine", hp, seed=506)
        loss, _ = map_loss_and_gradients(model, V, targets)
        report_line(5, "noiseless planted affine map recovered (loss < 1e-4)",
                    loss < 1e-4, f"loss {loss:.2e}")


# ---------------------------------------------------------------------------
# 6. Sampler invariants


class TestCriterion6:
    def test_sampler_invariants_and_determinism(self, tmp_path):
        rng = np.random.default_rng(606)
        valid_count = 0
        for trial in range(100):
            n_e = int(rng.integers(8, 20))
            triples = [(f"e{rng.integers(n_e)}", f"r{rng.integers(3)}",
                        f"e{rng.integers(n_e)}")
                       for _ in range(int(rng.integers(20, 60)))]
            d = tmp_path / f"g{trial}"
            d.mkdir()
            g = graph_from_triples(d, triples)
            cfg = SamplerConfig(seed=trial, head_fraction=0.2)
            try:
                split = sample_open_world(g, cfg)
            except SamplerError:
                continue
            assert validate_split(split) == []
            valid_count += 1

            if trial < 10:
                twin = sample_open_world(g, cfg)
                assert twin.__dict__.keys() == split.__dict__.keys()
                for name, value in split.__dict__.items():
                    if isinstance(value, np.ndarray):  # the triple arrays
                        assert np.array_equal(getattr(twin, name), value), name
                    else:  # open_entities and manifest
                        assert getattr(twin, name) == value, name
        report_line(6, "split invariants hold and sampling is deterministic",
                    valid_count >= 90, f"{valid_count}/100 graphs sampled")


# ---------------------------------------------------------------------------
# 7. Toy end-to-end


class TestCriterion7:
    def test_open_world_mrr_beats_random_baseline(self, tmp_path):
        n_groups, group_size = 10, 3
        train = []
        for gix in range(n_groups):
            members = [f"e{gix * group_size + j}" for j in range(group_size)]
            anchor = members[0]
            for m in members:
                train.append((m, "in_group", anchor))
            for j in range(group_size):
                train.append((members[j], "peer", members[(j + 1) % group_size]))
        test = []
        for gix in range(5):
            members = [f"e{gix * group_size + j}" for j in range(group_size)]
            test.append((f"o{gix}", "in_group", members[0]))
            test.append((f"o{gix}", "peer", members[1]))
        write_triples(tmp_path / "train.txt", train)
        write_triples(tmp_path / "test.txt", test)
        g = load_graph(str(tmp_path / "train.txt"), None,
                       str(tmp_path / "test.txt"), open_world=True)

        word_rng = np.random.default_rng(1)
        store = store_from_vectors(
            {f"w{i}": word_rng.normal(size=6) for i in range(g.num_entities)}, 6
        )
        metadata = {}
        for e in range(g.num_entities):
            metadata[e] = EntityText(g.entity_name(e), f"w{e}")
        for gix in range(5):
            oid = g.entity_id(f"o{gix}")
            toks = " ".join(f"w{gix * group_size + j}" for j in range(group_size))
            metadata[oid] = EntityText(f"o{gix}", toks)

        kgc_hp = KgcHyperparams(dim=8, epochs=300, learning_rate=0.05,
                                num_negatives=4, batch_size=8)
        kgc = train_kgc(g, "complex", kgc_hp, seed=3)
        map_hp = MapHyperparams(epochs=400, learning_rate=1e-2, batch_size=16)
        rows = entity_rows(metadata, store)
        mm = train_map(kgc, g, rows, "affine", map_hp, seed=5)

        config = EvalConfig(filter_splits=("train", "test"))
        rep = evaluate(kgc, g, config, mm, rows)
        base = random_head_baseline(kgc, g, config, seed=11)
        ratio = rep.mrr_filtered / base.mrr_filtered
        report_line(7, "toy end-to-end open-world MRR is at least twice the "
                       "random-head baseline", ratio >= 2.0,
                    f"mrr {rep.mrr_filtered:.3f} vs baseline "
                    f"{base.mrr_filtered:.3f}, ratio {ratio:.2f}")


# ---------------------------------------------------------------------------
# 8-10. Published-scale reproduction (external assets required)

DATASET_DIR = os.environ.get("OWLINK_FB15K237OWE_DIR")
EMBEDDING_PATH = os.environ.get("OWLINK_WIKIPEDIA2VEC_PATH")
HAVE_ASSETS = bool(
    DATASET_DIR and EMBEDDING_PATH
    and os.path.isdir(DATASET_DIR) and os.path.isfile(EMBEDDING_PATH)
)
needs_assets = pytest.mark.skipif(
    not HAVE_ASSETS,
    reason="set OWLINK_FB15K237OWE_DIR and OWLINK_WIKIPEDIA2VEC_PATH to run "
           "published-scale reproduction",
)


def build_fb_assets(dataset_dir, embedding_path, dim, epochs, map_epochs, template="{name}"):
    """Criteria 8-10's inputs: the open-world graph and metadata in
    ``dataset_dir`` (train.txt, valid.txt, test.txt, metadata.tsv), the entity
    rows over the vectors at ``embedding_path``, a ComplEx model of ``dim``
    trained ``epochs`` epochs with the uncapped closed-world validator, and
    the settings of every map fit (``map_epochs`` epochs)."""
    graph = load_graph(
        os.path.join(dataset_dir, "train.txt"),
        os.path.join(dataset_dir, "valid.txt"),
        os.path.join(dataset_dir, "test.txt"),
        open_world=True,
    )
    raw_meta = load_entity_text(os.path.join(dataset_dir, "metadata.tsv"))
    metadata = resolve_metadata(raw_meta, graph)
    # only the vectors the metadata can use: the full Wikipedia2Vec file does not fit in memory
    keys = collect_keys(metadata, template)
    rows = keys.rows(load_word_embeddings(str(embedding_path), template, keys.keys))
    hp = KgcHyperparams(dim=dim, epochs=epochs, learning_rate=1e-3, batch_size=128)
    kgc = train_kgc(graph, "complex", hp, seed=0, validator=closed_world_validator(graph))
    map_hp = MapHyperparams(epochs=map_epochs, learning_rate=1e-3, batch_size=128)
    return graph, kgc, raw_meta, rows, map_hp


@pytest.fixture(scope="session")
def fb_assets():
    return build_fb_assets(DATASET_DIR, EMBEDDING_PATH, dim=300, epochs=100, map_epochs=200,
                           template=os.environ.get("OWLINK_PHRASE_TEMPLATE", "{name}"))


def _trained_eval(fb, kind, seed=1):
    graph, kgc, _, rows, hp = fb
    mm = train_map(kgc, graph, rows, kind, hp, seed=seed)
    rep = evaluate(kgc, graph, EvalConfig(), mm, rows)
    return rep


def _robustness_mrrs(fb):
    """Criterion 10's filtered MRRs in percent: full metadata, every
    description blanked, and half of the records dropped."""
    from owlink.cli import _sweep_point
    from owlink.sampler import corrupt_metadata

    graph, kgc, raw_meta, rows, hp = fb
    config = EvalConfig()

    def run(mode, fraction, seed):
        corrupted = corrupt_metadata(raw_meta, mode, fraction, seed=seed)
        point = _sweep_point(rows, graph, corrupted)
        mm = train_map(kgc, graph, point, "affine", hp, seed=seed)
        return 100 * evaluate(kgc, graph, config, mm, point).mrr_filtered

    return run("descriptions", 0.0, 1), run("descriptions", 1.0, 2), run("all", 0.5, 3)


def write_owe_assets(path, n=30, dim=6):
    """A small open-world asset set in ``path``, laid out as criteria 8-10
    expect: closed train and valid triples over ``n`` entities, test triples
    with open heads and closed heads, metadata for every entity and a word
    vector file (``vectors.txt``) for every metadata token."""
    rng = np.random.default_rng(8)
    ring = [(f"e{i}", f"r{k}", f"e{(i + step) % n}")
            for i in range(n) for k, step in enumerate((1, 3, 7))]
    write_triples(path / "train.txt", ring[3:])
    write_triples(path / "valid.txt", ring[:3])
    write_triples(path / "test.txt", [(f"o{j}", "r0", f"e{3 * j}") for j in range(6)]
                  + [(f"e{j}", "r2", f"e{j + 2}") for j in range(4)])
    entities = [f"e{i}" for i in range(n)] + [f"o{j}" for j in range(6)]
    with open(path / "metadata.tsv", "w", encoding="utf-8") as fh:
        for i, ent in enumerate(entities):
            fh.write(f"{ent}\tw{i % n}\tw{(i + 1) % n} w{(i + 2) % n}\n")
    with open(path / "vectors.txt", "w", encoding="utf-8") as fh:
        for i in range(n):
            fh.write(f"w{i} " + " ".join(f"{v:.6f}" for v in rng.normal(size=dim)) + "\n")


class TestCriteria8To10CodePath:
    """Criteria 8-10's code, at a scale of seconds, on generated assets:
    every criterion produces finite numbers (not the paper's thresholds)."""

    def test_runs_on_generated_assets(self, tmp_path):
        write_owe_assets(tmp_path)
        fb = build_fb_assets(tmp_path, tmp_path / "vectors.txt", dim=8, epochs=3, map_epochs=3)
        graph = fb[0]
        assert graph.num_open_entities == 6 and len(graph.valid) == 3
        criterion_9 = [_trained_eval(fb, kind) for kind in ("linear", "affine", "mlp")]
        assert all(rep.evaluated_count == len(graph.test) for rep in criterion_9)
        numbers = [rep.mrr_filtered for rep in criterion_9] + [criterion_9[1].hits[10]]
        numbers += _robustness_mrrs(fb)  # criterion 8 is criterion 9's affine report
        assert np.isfinite(numbers).all(), numbers


@needs_assets
class TestCriterion8:
    def test_complex_owe_300_tail_prediction(self, fb_assets):
        rep = _trained_eval(fb_assets, "affine")
        mrr = 100 * rep.mrr_filtered
        hits10 = 100 * rep.hits[10]
        ok = abs(mrr - 35.2) <= 3.0 and abs(hits10 - 49.1) <= 3.0
        report_line(8, "ComplEx-OWE-300 filtered MRR / Hits@10 within 3 points "
                       "of 35.2 / 49.1", ok, f"MRR {mrr:.1f}, Hits@10 {hits10:.1f}")


@needs_assets
class TestCriterion9:
    def test_affine_is_best_transformation(self, fb_assets):
        scores = {kind: _trained_eval(fb_assets, kind).mrr_filtered
                  for kind in ("linear", "affine", "mlp")}
        ok = scores["affine"] >= scores["linear"] and scores["affine"] >= scores["mlp"]
        report_line(9, "affine transformation is at least as good as linear and MLP",
                    ok, ", ".join(f"{k} {100 * v:.1f}" for k, v in scores.items()))


@needs_assets
class TestCriterion10:
    def test_metadata_dropping_robustness(self, fb_assets):
        full, no_desc, half_all = _robustness_mrrs(fb_assets)
        ok = (full - no_desc) <= 5.0 and (full - half_all) <= 2.0
        report_line(10, "metadata-dropping robustness within tolerance",
                    ok, f"full {full:.1f}, no-descriptions {no_desc:.1f}, "
                        f"half-metadata {half_all:.1f}")
