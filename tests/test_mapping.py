import copy
import hashlib
import re
import tracemalloc
import zlib

import numpy as np
import pytest

from owlink.graph import EntityText
from owlink.mapping import (
    MapHyperparams,
    MapModel,
    build_training_pairs,
    fit_map,
    init_map,
    load_map,
    map_loss_and_gradients,
    map_vector,
    mapped_embedding,
    mapped_entity_embedding,
    save_map,
    train_map,
    _forward,
)
from owlink.models import ConfigError
from owlink.text import entity_rows
from helpers import graph_from_triples, random_model, reference_dropout_map
from test_text import make_store


def fd_loss(model, V, tr, ti, mode):
    loss, _ = map_loss_and_gradients(model, V, tr, ti, mode)
    return loss


def relu_pattern(model, V):
    """Signs of every ReLU pre-activation of both branches on batch ``V``."""
    pattern = []
    for branch in (model.real, model.imag):
        if branch is not None and model.kind == "mlp":
            _, cache = _forward(branch, V)
            pattern += [z > 0 for z in cache[1::2]]  # cache is V, z1, a1, z2, a2, ...
    return pattern


def max_fd_error(model, V, tr, ti, mode, eps=1e-5, bound=1e-5):
    """Largest relative error between analytic and central-difference grads,
    and the number of coordinates compared out of all of them.

    A coordinate whose +-eps step flips a ReLU pre-activation is skipped:
    the loss has a kink between the two evaluations, so their difference is
    not a derivative. The central difference carries a rounding error of
    about machine-eps * |loss| / eps; entries too small for that to stay
    under ``bound`` relative to them are measured against that floor
    instead. A larger step trades rounding for truncation error, which
    breaks the bound on the euclidean loss at eps=1e-4.
    """
    loss, grads = map_loss_and_gradients(model, V, tr, ti, mode)
    floor = max(1e-8, np.finfo(float).eps * abs(loss) / eps / bound)
    worst = 0.0
    checked = total = 0
    for key, g in grads.items():
        branch, name = key.split("/")
        param = (model.real if branch == "real" else model.imag)[name]
        flat = param.reshape(-1)
        gflat = g.reshape(-1)
        for j in range(flat.size):
            total += 1
            orig = flat[j]
            flat[j] = orig + eps
            up = fd_loss(model, V, tr, ti, mode)
            up_pattern = relu_pattern(model, V)
            flat[j] = orig - eps
            dn = fd_loss(model, V, tr, ti, mode)
            dn_pattern = relu_pattern(model, V)
            flat[j] = orig
            if any((a != b).any() for a, b in zip(up_pattern, dn_pattern)):
                continue
            checked += 1
            numeric = (up - dn) / (2 * eps)
            denom = max(abs(numeric), abs(gflat[j]), floor)
            worst = max(worst, abs(numeric - gflat[j]) / denom)
    return worst, checked, total


def randomized_model(kind, in_dim, out_dim, rng, complex_pair=False):
    """Init a map and perturb the biases so no ReLU sits at its kink."""
    model = init_map(kind, in_dim, out_dim, rng, complex_pair=complex_pair)
    for branch in (model.real, model.imag):
        if branch is None:
            continue
        for name, arr in branch.items():
            if name.startswith("b"):
                branch[name] = rng.normal(scale=0.3, size=arr.shape)
    return model


class TestForward:
    def test_linear_hand_case(self):
        model = MapModel("linear", 2, 2, (), {"W": np.array([[1.0, 0.0], [0.0, 2.0]])})
        out, imag = map_vector(model, np.array([3.0, 4.0]))
        np.testing.assert_array_equal(out, [3.0, 8.0])
        assert imag is None

    def test_affine_hand_case(self):
        model = MapModel(
            "affine", 2, 2, (),
            {"W": np.array([[1.0, 0.0], [0.0, 2.0]]), "b": np.array([1.0, -1.0])},
        )
        out, _ = map_vector(model, np.array([3.0, 4.0]))
        np.testing.assert_array_equal(out, [4.0, 7.0])

    def test_mlp_hand_case(self):
        # 1 -> (1,1,1) -> 1 with unit weights: three ReLUs then affine output
        real = {}
        for i in range(1, 5):
            real[f"W{i}"] = np.array([[1.0]])
            real[f"b{i}"] = np.array([-0.5 if i == 1 else 0.0])
        model = MapModel("mlp", 1, 1, (1, 1, 1), real)
        out, _ = map_vector(model, np.array([2.0]))
        np.testing.assert_allclose(out, [1.5])
        # negative pre-activation clamps to zero at the first hidden layer
        out2, _ = map_vector(model, np.array([0.25]))
        np.testing.assert_allclose(out2, [0.0])

    def test_complex_pair_maps_both_branches(self):
        rng = np.random.default_rng(0)
        model = init_map("affine", 3, 4, rng, complex_pair=True)
        real, imag = map_vector(model, rng.normal(size=3))
        assert real.shape == (4,) and imag.shape == (4,)

    def test_input_shape_checked(self):
        model = init_map("linear", 3, 2, np.random.default_rng(0))
        with pytest.raises(ValueError, match="shape"):
            map_vector(model, np.zeros(5))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            init_map("quadratic", 2, 2, np.random.default_rng(0))

    @pytest.mark.parametrize("family, paired, message", [
        ("distmult", True, "distmult model requires an unpaired transformation"),
        ("complex", False, "complex model requires a paired \\(real\\+imag\\) transformation"),
    ])
    def test_mapped_embedding_pairing_must_match_the_family(self, family, paired, message):
        rng = np.random.default_rng(0)
        model = init_map("affine", 3, 4, rng, complex_pair=paired)
        kgc = random_model(family, 5, 2, 4, rng)
        with pytest.raises(ValueError, match=message):
            mapped_embedding(kgc, model, rng.normal(size=3))


class TestGradients:
    @pytest.mark.parametrize("kind", ["linear", "affine", "mlp"])
    @pytest.mark.parametrize("mode", ["squared", "euclidean"])
    @pytest.mark.parametrize("complex_pair", [False, True])
    def test_matches_finite_differences(self, kind, mode, complex_pair):
        # crc32, unlike hash(), is not salted per process
        rng = np.random.default_rng(zlib.crc32(f"{kind}:{mode}:{complex_pair}".encode()))
        in_dim, out_dim, batch = 3, 2, 5
        model = randomized_model(kind, in_dim, out_dim, rng, complex_pair)
        V = rng.normal(size=(batch, in_dim))
        tr = rng.normal(size=(batch, out_dim))
        ti = rng.normal(size=(batch, out_dim)) if complex_pair else None
        worst, checked, total = max_fd_error(model, V, tr, ti, mode)
        assert worst < 1e-5
        assert checked >= 0.9 * total

    def test_paired_model_requires_imag_targets(self):
        rng = np.random.default_rng(1)
        model = init_map("linear", 2, 2, rng, complex_pair=True)
        with pytest.raises(ValueError, match="imaginary"):
            map_loss_and_gradients(model, np.ones((1, 2)), np.ones((1, 2)))

    def test_squared_loss_value(self):
        model = MapModel("linear", 1, 1, (), {"W": np.array([[2.0]])})
        # outputs 2, 4 against targets 0, 1 -> ((2)^2 + (3)^2)/2
        loss, _ = map_loss_and_gradients(
            model, np.array([[1.0], [2.0]]), np.array([[0.0], [1.0]])
        )
        assert loss == pytest.approx(6.5)

    def test_euclidean_loss_value(self):
        model = MapModel("linear", 1, 2, (), {"W": np.array([[1.0], [0.0]])})
        loss, _ = map_loss_and_gradients(
            model, np.array([[3.0]]), np.array([[0.0, 4.0]]), mode="euclidean"
        )
        assert loss == pytest.approx(5.0, abs=1e-6)


class TestFit:
    def test_planted_affine_recovery(self):
        rng = np.random.default_rng(2)
        A = rng.normal(size=(3, 4))
        b = rng.normal(size=3)
        V = rng.normal(size=(40, 4))
        targets = V @ A.T + b
        hp = MapHyperparams(epochs=1000, learning_rate=1e-2, batch_size=16)
        model = fit_map(V, targets, None, "affine", hp, seed=3)
        loss, _ = map_loss_and_gradients(model, V, targets)
        assert loss < 1e-4
        np.testing.assert_allclose(model.real["W"], A, atol=1e-2)

    def test_planted_linear_recovery(self):
        rng = np.random.default_rng(4)
        A = rng.normal(size=(2, 3))
        V = rng.normal(size=(30, 3))
        targets = V @ A.T
        hp = MapHyperparams(epochs=800, learning_rate=1e-2, batch_size=8)
        model = fit_map(V, targets, None, "linear", hp, seed=5)
        np.testing.assert_allclose(model.real["W"], A, atol=1e-3)

    def test_zero_learning_rate_keeps_initialization(self):
        rng = np.random.default_rng(6)
        V = rng.normal(size=(10, 3))
        targets = rng.normal(size=(10, 2))
        hp = MapHyperparams(epochs=5, learning_rate=0.0)
        model = fit_map(V, targets, None, "affine", hp, seed=7)
        replay = init_map("affine", 3, 2, np.random.default_rng(7))
        np.testing.assert_array_equal(model.real["W"], replay.real["W"])
        np.testing.assert_array_equal(model.real["b"], replay.real["b"])

    def test_seed_determinism(self):
        rng = np.random.default_rng(8)
        V = rng.normal(size=(12, 3))
        targets = rng.normal(size=(12, 2))
        hp = MapHyperparams(epochs=20, batch_size=4)
        m1 = fit_map(V, targets, None, "mlp", hp, seed=9)
        m2 = fit_map(V, targets, None, "mlp", hp, seed=9)
        for name in m1.param_names():
            np.testing.assert_array_equal(m1.real[name], m2.real[name])

    def test_validator_selects_best_epoch(self):
        rng = np.random.default_rng(10)
        V = rng.normal(size=(8, 2))
        targets = rng.normal(size=(8, 2))
        snapshots = []
        scores = iter([0.3, 0.9, 0.1, 0.2])

        def validator(model):
            snapshots.append(copy.deepcopy(model))
            return next(scores)

        hp = MapHyperparams(epochs=4, valid_every=1, learning_rate=1e-2)
        model = fit_map(V, targets, None, "linear", hp, seed=11, validator=validator)
        np.testing.assert_array_equal(model.real["W"], snapshots[1].real["W"])

    def test_training_log(self, tmp_path):
        rng = np.random.default_rng(12)
        V = rng.normal(size=(6, 2))
        targets = rng.normal(size=(6, 2))
        log = tmp_path / "map_log.tsv"
        fit_map(V, targets, None, "linear", MapHyperparams(epochs=3), seed=0,
                log_path=str(log))
        lines = log.read_text().splitlines()
        assert lines[0] == "epoch\tloss\tvalid_score"
        assert len(lines) == 4

    def test_non_finite_loss_stops_at_its_epoch(self):
        rng = np.random.default_rng(0)
        V = rng.normal(size=(8, 2))
        targets = rng.normal(size=(8, 2))
        validated = []
        hp = MapHyperparams(epochs=10, valid_every=1, learning_rate=1e200)
        with np.errstate(all="ignore"), pytest.raises(FloatingPointError, match="at epoch 2$"):
            fit_map(V, targets, None, "linear", hp, seed=0,
                    validator=lambda m: validated.append(m) or 0.0)
        assert len(validated) == 1  # epoch 1 finished; epoch 2 raised before validation

    @pytest.mark.parametrize("imag_shape", [(20, 1), (25, 3)])
    def test_mis_shaped_imaginary_targets_rejected(self, imag_shape):
        rng = np.random.default_rng(1)
        V, real = rng.normal(size=(20, 4)), rng.normal(size=(20, 3))
        message = f"imaginary targets have shape {imag_shape}, not the real targets' (20, 3)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            fit_map(V, real, rng.normal(size=imag_shape), "linear", MapHyperparams(epochs=1))

    def test_inputs_and_targets_of_different_lengths_rejected(self):
        rng = np.random.default_rng(1)
        with pytest.raises(ValueError, match="^inputs and targets disagree on the number of pairs$"):
            fit_map(rng.normal(size=(20, 4)), rng.normal(size=(19, 3)), None, "linear",
                    MapHyperparams(epochs=1))

    def test_empty_training_set_rejected(self):
        with pytest.raises(ConfigError, match="empty"):
            fit_map(np.zeros((0, 2)), np.zeros((0, 2)), None, "linear")

    def test_bad_hyperparams(self):
        with pytest.raises(ConfigError):
            MapHyperparams(dropout=1.5)
        with pytest.raises(ConfigError):
            MapHyperparams(loss="huber")

    def test_negative_valid_every_rejected(self):
        with pytest.raises(ConfigError, match="valid_every"):
            MapHyperparams(valid_every=-1)
        MapHyperparams(valid_every=0)  # 0 means never

    def test_hidden_dim_below_one_rejected(self):
        for width in (0, -2):
            with pytest.raises(ConfigError, match="hidden_dim must be >= 1"):
                MapHyperparams(hidden_dim=width)
        MapHyperparams(hidden_dim=None)  # None: the output dim
        MapHyperparams(hidden_dim=1)


class TestTrainMapIntegration:
    def build(self, tmp_path, family="distmult"):
        train = [("a", "r", "b"), ("b", "r", "c"), ("c", "r", "a")]
        g = graph_from_triples(tmp_path, train)
        model = random_model(family, g.num_entities, g.num_relations, 4,
                             np.random.default_rng(13))
        store = make_store(["alpha", "beta", "gamma"], dim=3, seed=14)
        metadata = {
            0: EntityText("a", "alpha"),
            1: EntityText("b", "beta"),
            2: EntityText("c", "gamma"),
        }
        return g, model, store, metadata

    def test_build_training_pairs_skips_missing_text(self, tmp_path):
        g, model, store, metadata = self.build(tmp_path)
        del metadata[1]
        pairs, u_real, u_imag = build_training_pairs(model, g, entity_rows(metadata, store))
        assert pairs.entities.tolist() == [0, 2]
        assert len(pairs.entities) == 2 and u_real.shape == (2, 4) and u_imag is None

    def test_train_map_runs_and_maps(self, tmp_path):
        g, model, store, metadata = self.build(tmp_path)
        hp = MapHyperparams(epochs=50, learning_rate=1e-2, batch_size=2)
        mm = train_map(model, g, entity_rows(metadata, store), "affine", hp, seed=15)
        mapped = mapped_entity_embedding(model, mm, metadata[0], store)
        assert mapped.shape == (4,)

    def test_train_map_complex_gets_paired_branches(self, tmp_path):
        g, model, store, metadata = self.build(tmp_path, family="complex")
        hp = MapHyperparams(epochs=5)
        mm = train_map(model, g, entity_rows(metadata, store), "linear", hp, seed=16)
        assert mm.is_complex
        real, imag = mapped_entity_embedding(model, mm, metadata[1], store)
        assert real.shape == (4,) and imag.shape == (4,)

    def test_no_text_anywhere_rejected(self, tmp_path):
        g, model, store, _ = self.build(tmp_path)
        with pytest.raises(ConfigError, match="metadata"):
            train_map(model, g, entity_rows({}, store), "affine", MapHyperparams(epochs=1))

    def test_dropout_training_is_deterministic(self, tmp_path):
        g, model, store, metadata = self.build(tmp_path)
        hp = MapHyperparams(epochs=10, dropout=0.5)
        m1 = train_map(model, g, entity_rows(metadata, store), "affine", hp, seed=17)
        m2 = train_map(model, g, entity_rows(metadata, store), "affine", hp, seed=17)
        np.testing.assert_array_equal(m1.real["W"], m2.real["W"])


class TestDropoutInputs:
    """Under word dropout each batch averages only its own entities' kept
    rows: the fit is bitwise the one on each epoch's dense (m, d') means,
    and no such array is made."""

    @staticmethod
    def build(tmp_path, num_entities, text_dim, family, seed, description_tokens=30):
        rng = np.random.default_rng(seed)
        train = [(f"e{i}", "r", f"e{(i + 1) % num_entities}") for i in range(num_entities)]
        g = graph_from_triples(tmp_path, train)
        model = random_model(family, g.num_entities, g.num_relations, 4, rng)
        words = [f"w{i}" for i in range(40)]
        store = make_store(words, dim=text_dim, seed=seed + 1)

        def text(low, high, pool):
            return " ".join(rng.choice(pool, size=int(rng.integers(low, high))))

        # one-row entities lose every row at times
        metadata = {e: EntityText(g.entity_name(e), text(1, 3, words),
                                  text(0, description_tokens + 1, words + ["oov"]))
                    for e in range(g.num_entities)}
        return g, model, entity_rows(metadata, store)

    @pytest.mark.parametrize("kind", ["affine", "mlp"])
    @pytest.mark.parametrize("paired", [False, True])
    def test_fit_is_the_dense_fit_bitwise(self, tmp_path, kind, paired):
        g, model, rows = self.build(tmp_path, 300, 6, "complex" if paired else "distmult", 41)
        hp = MapHyperparams(epochs=3, learning_rate=0.01, batch_size=32, dropout=0.4)
        got = train_map(model, g, rows, kind, hp, seed=42)
        want = reference_dropout_map(model, g, rows, kind, hp, seed=42)
        assert got.is_complex == paired
        for branch, params in want.branches().items():
            for name, value in params.items():
                assert got.branches()[branch][name].tobytes() == value.tobytes(), (branch, name)

    def test_no_text_matrix_is_held(self, tmp_path):
        num_entities, text_dim = 6000, 64
        g, model, rows = self.build(tmp_path, num_entities, text_dim, "distmult", 43,
                                    description_tokens=8)
        hp = MapHyperparams(epochs=2, dropout=0.3)
        tracemalloc.start()
        try:
            train_map(model, g, rows, "mlp", hp, seed=44)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < num_entities * text_dim * 8


class TestCheckpoint:
    @pytest.mark.parametrize("kind", ["linear", "affine", "mlp"])
    @pytest.mark.parametrize("complex_pair", [False, True])
    def test_round_trip(self, tmp_path, kind, complex_pair):
        rng = np.random.default_rng(18)
        model = randomized_model(kind, 3, 2, rng, complex_pair)
        path = tmp_path / "map.ckpt"
        save_map(str(path), model)
        loaded = load_map(str(path))
        assert loaded.kind == kind
        assert loaded.hidden_dims == model.hidden_dims
        assert loaded.is_complex == complex_pair
        for name in model.param_names():
            np.testing.assert_allclose(loaded.real[name], model.real[name], atol=1e-6)
            if complex_pair:
                np.testing.assert_allclose(loaded.imag[name], model.imag[name], atol=1e-6)

    @pytest.mark.parametrize("corrupt, message", [
        (lambda data: data[:-8], "truncated"),
        (lambda data: data + bytes(4), "trailing bytes"),
        (lambda data: data.replace(b"kind=affine", b"kind=bogus"), "unknown transformation kind"),
        (lambda data: data.replace(b"in_dim=3\n", b""), "lacks in_dim="),
        (lambda data: data.replace(b"\nend\n", b"\n"), "no end line"),
        (lambda data: data.replace(b"in_dim=3\n", b"in_dim=3\ngarbage line\n"),
         "is not key=value"),
        (lambda data: data.replace(b"in_dim=3\n", b"in_dim=3\nin_dim=4\n"), "repeats in_dim="),
        (lambda data: data.replace(b"hidden=\n", b"hidden=2\n"),
         "hidden=2 contradicts kind=affine"),
        (lambda data: data.replace(b"kind=affine", b"kind=mlp"), "hidden= contradicts kind=mlp"),
    ], ids=["truncated", "trailing", "kind", "no-in-dim", "no-end", "no-equals", "repeated-key",
            "hidden-for-affine", "no-hidden-for-mlp"])
    def test_malformed_rejected(self, tmp_path, corrupt, message):
        model = init_map("affine", 3, 2, np.random.default_rng(19))
        path = tmp_path / "map.ckpt"
        save_map(str(path), model)
        path.write_bytes(corrupt(path.read_bytes()))
        with pytest.raises(ValueError, match=message) as info:
            load_map(str(path))
        assert str(path) in str(info.value)

    @pytest.mark.parametrize("value", [np.nan, -np.inf])
    def test_non_finite_payload_rejected(self, tmp_path, value):
        model = init_map("affine", 3, 2, np.random.default_rng(19))
        path = tmp_path / "map.ckpt"
        save_map(str(path), model)
        data = path.read_bytes()
        at = data.index(b"\nend\n") + 5 + 4 * 4  # a value of W
        path.write_bytes(data[:at] + np.array(value, dtype="<f4").tobytes() + data[at + 4:])
        with pytest.raises(ValueError, match="non-finite value in checkpoint payload") as info:
            load_map(str(path))
        assert str(path) in str(info.value)

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "map.ckpt"
        path.write_bytes(b"something else\nend\n")
        with pytest.raises(ValueError, match="map v1"):
            load_map(str(path))


class TestMapGolden:
    """Seeded map fits pinned to the sha256 of the saved checkpoint and of
    the training log, for every kind with one branch and with the paired
    (ComplEx) branches. Word dropout draws new kept rows every epoch, and
    the validator's best epoch is the first validation for the paired fits
    and the last for the others, so both the best-epoch snapshot and the
    final model are saved somewhere in the table."""

    @staticmethod
    def train(tmp_path, kind, paired):
        rng = np.random.default_rng(31)
        train = [(f"e{rng.integers(12)}", "r", f"e{rng.integers(12)}") for _ in range(40)]
        g = graph_from_triples(tmp_path, train)
        model = random_model("complex" if paired else "distmult", g.num_entities,
                             g.num_relations, 4, rng)
        words = [f"w{i}" for i in range(10)]
        store = make_store(words, dim=5, seed=32)
        metadata = {e: EntityText(g.entity_name(e), " ".join(rng.choice(words, size=3)))
                    for e in range(g.num_entities)}
        V = rng.normal(size=(6, 5))
        tr = rng.normal(size=(6, 4))
        ti = rng.normal(size=(6, 4)) if paired else None

        def validator(m):
            return -map_loss_and_gradients(m, V, tr, ti)[0]

        hp = MapHyperparams(epochs=6, learning_rate=0.05, batch_size=4, dropout=0.3,
                            valid_every=2)
        log = tmp_path / "map_log.tsv"
        mm = train_map(model, g, entity_rows(metadata, store), kind, hp, seed=33,
                       validator=validator, log_path=str(log))
        ckpt = tmp_path / "map.ckpt"
        save_map(str(ckpt), mm)
        return ckpt.read_bytes(), log.read_bytes()

    @pytest.mark.parametrize("kind, paired, ckpt_digest, log_digest", [
        ("linear", False, "04cd40c740a337b7", "3760e1824a352129"),
        ("linear", True, "331a51a52ded8fea", "6995fbffe758a954"),
        ("affine", False, "2b0ddc85334aa9fe", "722873407b0cd109"),
        ("affine", True, "6bde381de4325da5", "e0d8b58b741323be"),
        ("mlp", False, "5c0feaf209c284a5", "bb84b4f2f3eb964b"),
        ("mlp", True, "e4e4e77251f70141", "2256eca60dca6dbe"),
    ])
    def test_digests(self, tmp_path, kind, paired, ckpt_digest, log_digest):
        ckpt, log = self.train(tmp_path, kind, paired)
        assert len(log.splitlines()) == 7
        assert hashlib.sha256(ckpt).hexdigest()[:16] == ckpt_digest
        assert hashlib.sha256(log).hexdigest()[:16] == log_digest
