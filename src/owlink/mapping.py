"""Learned transformation from text embedding space to graph embedding space.

Three kinds are supported: linear (W v), affine (W v + b), and a four
layer MLP (three ReLU hidden layers, affine output). When the target
link prediction model is ComplEx, an independent second parameter set
maps to the imaginary part and the regression loss is summed over both
parts. Training minimizes Euclidean regression loss between mapped text
embeddings and the trained graph embeddings with mini-batch Adam; neither
the graph nor the word embeddings are fine-tuned.

The loss mode is configurable: "squared" (default, mean squared L2) or
"euclidean" (mean unsquared L2, with a 1e-12 guard inside the square
root); the two differ only in gradient weighting.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graph import EntityText, KnowledgeGraph
from .models import ConfigError, KgcModel, _flag, _positive_int, read_checkpoint, write_checkpoint
from .optim import Adam
from .text import WordEmbeddingStore, batch_mean, entity_tokens, text_embedding

KINDS = ("linear", "affine", "mlp")
LOSS_MODES = ("squared", "euclidean")

_EUCLIDEAN_GUARD = 1e-12


@dataclass
class MapHyperparams:
    epochs: int = 200
    learning_rate: float = 1e-3
    batch_size: int = 128
    dropout: float = 0.0
    hidden_dim: int | None = None  # MLP hidden width; defaults to the output dim
    loss: str = "squared"
    valid_every: int = 10

    def validate(self) -> None:
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        if self.learning_rate < 0:
            raise ConfigError(f"learning_rate must be >= 0, got {self.learning_rate}")
        if self.batch_size <= 0:
            raise ConfigError(f"batch_size must be positive, got {self.batch_size}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.hidden_dim is not None and self.hidden_dim < 1:
            raise ConfigError(f"hidden_dim must be >= 1, got {self.hidden_dim}")
        if self.loss not in LOSS_MODES:
            raise ConfigError(f"unknown loss mode {self.loss!r}")
        if self.valid_every < 0:
            raise ConfigError(f"valid_every must be >= 0 (0: never), got {self.valid_every}")


@dataclass
class MapModel:
    kind: str
    in_dim: int
    out_dim: int
    hidden_dims: tuple[int, ...] = ()
    real: dict[str, np.ndarray] = field(default_factory=dict)
    imag: dict[str, np.ndarray] | None = None

    @property
    def is_complex(self) -> bool:
        return self.imag is not None

    def param_names(self) -> list[str]:
        if self.kind == "linear":
            return ["W"]
        if self.kind == "affine":
            return ["W", "b"]
        n = len(self.hidden_dims) + 1
        names = []
        for i in range(1, n + 1):
            names += [f"W{i}", f"b{i}"]
        return names

    def copy(self) -> "MapModel":
        return MapModel(
            self.kind,
            self.in_dim,
            self.out_dim,
            self.hidden_dims,
            {k: v.copy() for k, v in self.real.items()},
            None if self.imag is None else {k: v.copy() for k, v in self.imag.items()},
        )


def init_map(
    kind: str,
    in_dim: int,
    out_dim: int,
    rng: np.random.Generator,
    hidden_dim: int | None = None,
    complex_pair: bool = False,
) -> MapModel:
    """Xavier-uniform weights, zero biases; seeded via ``rng``."""
    if kind not in KINDS:
        raise ConfigError(f"unknown transformation kind {kind!r}")
    if in_dim <= 0 or out_dim <= 0:
        raise ConfigError(f"dims must be positive, got {in_dim} -> {out_dim}")
    hidden: tuple[int, ...] = ()
    if kind == "mlp":
        h = hidden_dim if hidden_dim is not None else out_dim
        hidden = (h, h, h)

    def branch() -> dict[str, np.ndarray]:
        params: dict[str, np.ndarray] = {}
        if kind in ("linear", "affine"):
            bound = np.sqrt(6.0 / (in_dim + out_dim))
            params["W"] = rng.uniform(-bound, bound, size=(out_dim, in_dim))
            if kind == "affine":
                params["b"] = np.zeros(out_dim)
            return params
        widths = (in_dim,) + hidden + (out_dim,)
        for i in range(len(widths) - 1):
            fan_in, fan_out = widths[i], widths[i + 1]
            bound = np.sqrt(6.0 / (fan_in + fan_out))
            params[f"W{i + 1}"] = rng.uniform(-bound, bound, size=(fan_out, fan_in))
            params[f"b{i + 1}"] = np.zeros(fan_out)
        return params

    real = branch()
    imag = branch() if complex_pair else None
    return MapModel(kind, in_dim, out_dim, hidden, real, imag)


def _forward(kind: str, params: dict[str, np.ndarray], V: np.ndarray):
    """Batch forward pass; returns (output, cache for backprop)."""
    if kind == "linear":
        return V @ params["W"].T, (V,)
    if kind == "affine":
        return V @ params["W"].T + params["b"], (V,)
    a = V
    cache = [V]
    n_layers = sum(1 for k in params if k.startswith("W"))
    for i in range(1, n_layers + 1):
        z = a @ params[f"W{i}"].T + params[f"b{i}"]
        if i < n_layers:
            a = np.maximum(z, 0.0)
            cache += [z, a]
        else:
            return z, tuple(cache)
    raise AssertionError("unreachable")


def _backward(
    kind: str, params: dict[str, np.ndarray], cache, grad_out: np.ndarray
) -> dict[str, np.ndarray]:
    """Parameter gradients given d(loss)/d(output)."""
    if kind == "linear":
        (V,) = cache
        return {"W": grad_out.T @ V}
    if kind == "affine":
        (V,) = cache
        return {"W": grad_out.T @ V, "b": grad_out.sum(axis=0)}
    n_layers = sum(1 for k in params if k.startswith("W"))
    grads: dict[str, np.ndarray] = {}
    g = grad_out
    for i in range(n_layers, 0, -1):
        a_prev = cache[2 * (i - 1)]
        grads[f"W{i}"] = g.T @ a_prev
        grads[f"b{i}"] = g.sum(axis=0)
        if i > 1:
            z_prev = cache[2 * i - 3]
            g = (g @ params[f"W{i}"]) * (z_prev > 0)
    return grads


def map_vector(model: MapModel, v: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """Map one text embedding into graph space; (real, imag-or-None)."""
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (model.in_dim,):
        raise ValueError(f"input has shape {v.shape}, expected ({model.in_dim},)")
    out_r, _ = _forward(model.kind, model.real, v[None, :])
    if model.imag is None:
        return out_r[0], None
    out_i, _ = _forward(model.kind, model.imag, v[None, :])
    return out_r[0], out_i[0]


def _loss_and_grad_out(out: np.ndarray, targets: np.ndarray, mode: str):
    diff = out - targets
    b = len(out)
    if mode == "squared":
        return float((diff * diff).sum()) / b, 2.0 * diff / b
    norms = np.sqrt((diff * diff).sum(axis=1) + _EUCLIDEAN_GUARD)
    return float(norms.sum()) / b, diff / (norms[:, None] * b)


def map_loss_and_gradients(
    model: MapModel,
    V: np.ndarray,
    targets_real: np.ndarray,
    targets_imag: np.ndarray | None = None,
    mode: str = "squared",
) -> tuple[float, dict[str, np.ndarray]]:
    """Regression loss over a batch and gradients for every parameter.

    Gradient keys are ``real/<name>`` and, for paired models,
    ``imag/<name>``. For paired models the real and imaginary losses are
    summed.
    """
    if mode not in LOSS_MODES:
        raise ConfigError(f"unknown loss mode {mode!r}")
    out_r, cache_r = _forward(model.kind, model.real, V)
    loss, g_out = _loss_and_grad_out(out_r, targets_real, mode)
    grads = {f"real/{k}": g for k, g in _backward(model.kind, model.real, cache_r, g_out).items()}
    if model.imag is not None:
        if targets_imag is None:
            raise ValueError("paired map model requires imaginary targets")
        out_i, cache_i = _forward(model.kind, model.imag, V)
        loss_i, g_out_i = _loss_and_grad_out(out_i, targets_imag, mode)
        loss += loss_i
        grads.update(
            {f"imag/{k}": g for k, g in _backward(model.kind, model.imag, cache_i, g_out_i).items()}
        )
    return loss, grads


def _param(model: MapModel, key: str) -> np.ndarray:
    branch, name = key.split("/", 1)
    return (model.real if branch == "real" else model.imag)[name]


def fit_map(
    inputs,
    targets_real: np.ndarray,
    targets_imag: np.ndarray | None,
    kind: str,
    hyperparams: MapHyperparams | None = None,
    seed: int = 0,
    validator=None,
    log_path: str | None = None,
) -> MapModel:
    """Fit a transformation on (text embedding, graph embedding) pairs.

    ``inputs`` is either an (m, d') array or a callable ``rng -> array``
    re-sampled every epoch (used for word dropout). When a ``validator``
    callable is given, it is invoked every ``valid_every`` epochs and the
    best-scoring epoch's parameters are returned; otherwise the final
    epoch's. A non-finite epoch loss raises ``FloatingPointError`` naming
    the epoch. Deterministic for a fixed seed.
    """
    hp = hyperparams if hyperparams is not None else MapHyperparams()
    hp.validate()
    rng = np.random.default_rng(seed)

    resample = callable(inputs)
    V = inputs(rng) if resample else np.asarray(inputs, dtype=np.float64)
    m, in_dim = V.shape
    if m == 0:
        raise ConfigError("empty map training set")
    if len(targets_real) != m:
        raise ValueError("inputs and targets disagree on the number of pairs")
    out_dim = targets_real.shape[1]

    model = init_map(kind, in_dim, out_dim, rng, hp.hidden_dim,
                     complex_pair=targets_imag is not None)
    adam = Adam(lr=hp.learning_rate)

    best_score = -np.inf
    best_params = None
    log_rows: list[str] = []
    for epoch in range(1, hp.epochs + 1):
        if resample and epoch > 1:
            del V  # the last epoch's inputs go before the next are averaged
            V = inputs(rng)
        perm = rng.permutation(m)
        epoch_loss = 0.0
        for start in range(0, m, hp.batch_size):
            idx = perm[start : start + hp.batch_size]
            ti = None if targets_imag is None else targets_imag[idx]
            loss, grads = map_loss_and_gradients(model, V[idx], targets_real[idx], ti, hp.loss)
            epoch_loss += loss * len(idx)
            if hp.learning_rate > 0:
                adam.begin_step()
                for key, g in grads.items():
                    adam.update(key, _param(model, key), g)
        if not np.isfinite(epoch_loss):
            raise FloatingPointError(f"non-finite loss {epoch_loss} at epoch {epoch}")
        valid_score = ""
        if validator is not None and hp.valid_every > 0 and epoch % hp.valid_every == 0:
            s = float(validator(model))
            valid_score = f"{s:.6f}"
            if s > best_score:
                best_score = s
                best_params = model.copy()
        log_rows.append(f"{epoch}\t{epoch_loss / m:.8f}\t{valid_score}")

    if log_path is not None:
        with open(log_path, "w", encoding="utf-8") as fh:
            fh.write("epoch\tloss\tvalid_score\n")
            fh.write("\n".join(log_rows) + ("\n" if log_rows else ""))
    return best_params if best_params is not None else model


def build_training_pairs(
    kgc_model: KgcModel,
    graph: KnowledgeGraph,
    metadata: dict[int, EntityText],
    word_store: WordEmbeddingStore,
):
    """Word-vector row ids and graph-embedding targets for training entities
    that have usable text. Returns (entity_ids, row_ids, U_real, U_imag)."""
    ids: list[int] = []
    row_ids: list[np.ndarray] = []
    for eid in range(graph.num_entities):
        meta = metadata.get(eid)
        if meta is None or meta.is_empty():
            continue
        rows, _ = entity_tokens(meta, word_store)
        if not len(rows):
            continue
        ids.append(eid)
        row_ids.append(rows)
    emb = kgc_model.embeddings
    idx = np.asarray(ids, dtype=np.int64)
    u_real = emb.entity_real[idx] if len(idx) else np.zeros((0, emb.dim))
    u_imag = None
    if emb.is_complex:
        u_imag = emb.entity_imag[idx] if len(idx) else np.zeros((0, emb.dim))
    return ids, row_ids, u_real, u_imag


def train_map(
    kgc_model: KgcModel,
    graph: KnowledgeGraph,
    metadata: dict[int, EntityText],
    word_store: WordEmbeddingStore,
    kind: str = "affine",
    hyperparams: MapHyperparams | None = None,
    seed: int = 0,
    validator=None,
    log_path: str | None = None,
) -> MapModel:
    """Train the text-to-graph transformation on training entities with text.

    The text embeddings of all training entities are averaged in one
    :func:`text.batch_mean`; word dropout (``hyperparams.dropout``)
    re-samples them every epoch. Raises :class:`ConfigError` when no
    training entity has usable text.
    """
    hp = hyperparams if hyperparams is not None else MapHyperparams()
    hp.validate()
    ids, row_ids, u_real, u_imag = build_training_pairs(kgc_model, graph, metadata, word_store)
    if not ids:
        raise ConfigError("no training entity has usable textual metadata")

    rows = np.concatenate(row_ids)
    offsets = np.cumsum([0] + [len(r) for r in row_ids])

    def inputs(rng: np.random.Generator | None = None) -> np.ndarray:
        return batch_mean(word_store.matrix, rows, offsets, hp.dropout, rng)

    return fit_map(inputs if hp.dropout > 0 else inputs(), u_real, u_imag, kind, hp, seed,
                   validator, log_path)


def mapped_entity_embedding(
    kgc_model: KgcModel,
    map_model: MapModel,
    meta: EntityText,
    word_store: WordEmbeddingStore,
):
    """Text -> aggregated -> mapped embedding, shaped for the KGC family."""
    v = text_embedding(meta, word_store)
    real, imag = map_vector(map_model, v)
    if kgc_model.family == "complex":
        if imag is None:
            raise ValueError("ComplEx model requires a paired (real+imag) transformation")
        return real, imag
    return real


# Checkpoint format: models' checkpoint header and float32 blocks, with the
# parameter blocks real branch first, in the declared parameter order.

def save_map(path: str, model: MapModel) -> None:
    fields = {
        "kind": model.kind,
        "in_dim": model.in_dim,
        "out_dim": model.out_dim,
        "complex": int(model.is_complex),
        "hidden": ",".join(str(h) for h in model.hidden_dims),
    }
    branches = [b for b in (model.real, model.imag) if b is not None]
    write_checkpoint(path, "map v1", fields,
                     [branch[name] for branch in branches for name in model.param_names()])


def _hidden_dims(value: str) -> tuple[int, ...]:
    return tuple(_positive_int(h) for h in value.split(",") if h)


def load_map(path: str) -> MapModel:
    meta, blocks = read_checkpoint(path, "map v1", {
        "kind": str, "in_dim": _positive_int, "out_dim": _positive_int,
        "complex": _flag, "hidden": _hidden_dims,
    })
    kind, in_dim, out_dim, hidden = meta["kind"], meta["in_dim"], meta["out_dim"], meta["hidden"]
    if kind not in KINDS:
        raise ValueError(f"{path}: unknown transformation kind {kind!r}")
    model = MapModel(kind, in_dim, out_dim, hidden)
    names = model.param_names()
    widths = (in_dim,) + hidden + (out_dim,)
    # (W, b) per layer in param_names() order; a linear map has no b
    shapes = [shape for fan_in, fan_out in zip(widths, widths[1:])
              for shape in ((fan_out, fan_in), (fan_out,))][:len(names)]
    arrays = blocks(shapes * (2 if meta["complex"] else 1))
    model.real = dict(zip(names, arrays))
    if meta["complex"]:
        model.imag = dict(zip(names, arrays[len(names):]))
    return model
