"""Learned transformation from text embedding space to graph embedding space.

A map is one stack of affine layers with widths
``(in_dim, *hidden_dims, out_dim)``; every layer but the last is followed
by a ReLU. The three kinds differ only in that stack: linear (``W v``, one
layer without a bias), affine (``W v + b``) and a four layer MLP (three
ReLU hidden layers, affine output). When the target link prediction model
is ComplEx, an independent second parameter set (the imaginary branch)
maps to the imaginary part; every function runs the same code over each
branch in turn, real first, and the regression loss is summed over both.
Training minimizes Euclidean regression loss between mapped text
embeddings and the trained graph embeddings with mini-batch Adam and the
trainers' shared :class:`optim.EpochPolicy`; neither the graph nor the word
embeddings are fine-tuned.

The loss mode is configurable: "squared" (default, mean squared L2) or
"euclidean" (mean unsquared L2, with a 1e-12 guard inside the square
root); the two differ only in gradient weighting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .config import ConfigError, check_setting
from .graph import EntityText, KnowledgeGraph
from .models import KgcModel, _flag, _positive_int, check_loop, read_checkpoint, write_checkpoint
from .optim import Adam, EpochPolicy
from .text import EntityRows, WordEmbeddingStore, text_embedding

KINDS = ("linear", "affine", "mlp")
LOSS_MODES = ("squared", "euclidean")

_EUCLIDEAN_GUARD = 1e-12


@dataclass(frozen=True)
class MapHyperparams:
    epochs: int = 200
    learning_rate: float = 1e-3
    batch_size: int = 128
    dropout: float = 0.0
    hidden_dim: int | None = None  # MLP hidden width; defaults to the output dim
    loss: str = "squared"
    valid_every: int = 10

    def __post_init__(self) -> None:
        check_loop(self)
        check_setting("dropout", self.dropout, 0.0 <= self.dropout < 1.0, "in [0, 1)")
        check_setting("hidden_dim", self.hidden_dim,
                      self.hidden_dim is None or self.hidden_dim >= 1, ">= 1")
        check_setting("loss", repr(self.loss), self.loss in LOSS_MODES, f"one of {LOSS_MODES}")


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

    def branches(self) -> dict[str, dict[str, np.ndarray]]:
        """The parameter sets by branch name, real first."""
        return {"real": self.real} if self.imag is None else {"real": self.real, "imag": self.imag}

    def param_shapes(self) -> dict[str, tuple[int, ...]]:
        """Each parameter's shape, layer by layer from the input: ``W`` then
        ``b``, or ``W{i}`` and ``b{i}`` when there are hidden layers. A linear
        map has no ``b``."""
        widths = (self.in_dim, *self.hidden_dims, self.out_dim)
        shapes: dict[str, tuple[int, ...]] = {}
        for i, (fan_in, fan_out) in enumerate(zip(widths, widths[1:]), 1):
            tag = str(i) if self.hidden_dims else ""
            shapes[f"W{tag}"] = (fan_out, fan_in)
            if self.kind != "linear":
                shapes[f"b{tag}"] = (fan_out,)
        return shapes

    def param_names(self) -> list[str]:
        return list(self.param_shapes())


def _init_param(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Xavier-uniform for a weight of shape (fan_out, fan_in), zeros for a bias."""
    if len(shape) == 1:
        return np.zeros(shape)
    bound = np.sqrt(6.0 / sum(shape))
    return rng.uniform(-bound, bound, size=shape)


def init_map(
    kind: str,
    in_dim: int,
    out_dim: int,
    rng: np.random.Generator,
    hidden_dim: int | None = None,
    complex_pair: bool = False,
) -> MapModel:
    """Xavier-uniform weights, zero biases; seeded via ``rng``, real branch first."""
    check_setting("kind", repr(kind), kind in KINDS, f"one of {KINDS}")
    check_setting("dims", f"{in_dim} -> {out_dim}", min(in_dim, out_dim) > 0, "positive")
    h = hidden_dim if hidden_dim is not None else out_dim
    hidden = (h, h, h) if kind == "mlp" else ()
    shapes = MapModel(kind, in_dim, out_dim, hidden).param_shapes()
    branches = [{name: _init_param(rng, shape) for name, shape in shapes.items()}
                for _ in range(1 + complex_pair)]
    return MapModel(kind, in_dim, out_dim, hidden, *branches)


def _layers(params: dict[str, np.ndarray]) -> list[tuple[str, str | None]]:
    """Each layer's (weight, bias) names in ``params``' order, input layer
    first; the bias is None in a linear map."""
    return [(w, f"b{w[1:]}" if f"b{w[1:]}" in params else None) for w in params if w[0] == "W"]


def _affine(params: dict[str, np.ndarray], layer: tuple[str, str | None], a: np.ndarray):
    w, b = layer
    z = a @ params[w].T
    return z if b is None else z + params[b]


def _forward(params: dict[str, np.ndarray], V: np.ndarray):
    """Batch forward pass through one branch; returns (output, cache) with
    the cache holding V, then z and ReLU(z) for each hidden layer."""
    *hidden, last = _layers(params)
    a, cache = V, [V]
    for layer in hidden:
        z = _affine(params, layer, a)
        a = np.maximum(z, 0.0)
        cache += [z, a]
    return _affine(params, last, a), tuple(cache)


def _backward(params: dict[str, np.ndarray], cache, grad_out: np.ndarray) -> dict[str, np.ndarray]:
    """Parameter gradients of one branch given d(loss)/d(output)."""
    grads: dict[str, np.ndarray] = {}
    g = grad_out
    layers = _layers(params)
    for i in range(len(layers) - 1, -1, -1):
        w, b = layers[i]
        grads[w] = g.T @ cache[2 * i]  # the layer's input
        if b is not None:
            grads[b] = g.sum(axis=0)
        if i > 0:
            g = (g @ params[w]) * (cache[2 * i - 1] > 0)  # through the ReLU before it
    return grads


def map_vector(model: MapModel, v: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """Map one text embedding into graph space; (real, imag-or-None)."""
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (model.in_dim,):
        raise ValueError(f"input has shape {v.shape}, expected ({model.in_dim},)")
    out = [_forward(params, v[None, :])[0][0] for params in model.branches().values()]
    return out[0], out[1] if model.is_complex else None


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
    check_setting("loss", repr(mode), mode in LOSS_MODES, f"one of {LOSS_MODES}")
    if model.is_complex and targets_imag is None:
        raise ValueError("paired map model requires imaginary targets")
    targets = {"real": targets_real, "imag": targets_imag}
    loss = 0.0
    grads: dict[str, np.ndarray] = {}
    for branch, params in model.branches().items():
        out, cache = _forward(params, V)
        part, g_out = _loss_and_grad_out(out, targets[branch], mode)
        loss += part
        grads.update({f"{branch}/{k}": g for k, g in _backward(params, cache, g_out).items()})
    return loss, grads


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
    """Fit a map on (text, graph) embedding pairs; ``hyperparams`` is checked when built.

    ``inputs`` is either an (m, d') array or a callable ``rng -> inputs``,
    called again before each epoch's permutation (the first time before the
    map's initial weights). What it returns has a ``shape`` of (m, d') and,
    indexed by a batch's positions, gives that batch's (len, d') array. For
    word dropout it is a :class:`text.KeptRows`, so each batch averages
    only its own entities' kept rows and no (m, d') array is made. Epochs
    end in an :class:`optim.EpochPolicy`: with a ``validator`` the
    best-scoring epoch's parameters are returned, otherwise the final
    epoch's. Deterministic for a fixed seed.
    """
    hp = hyperparams if hyperparams is not None else MapHyperparams()
    rng = np.random.default_rng(seed)

    resample = callable(inputs)
    V = inputs(rng) if resample else np.asarray(inputs, dtype=np.float64)
    m, in_dim = V.shape
    if m == 0:
        raise ConfigError("empty map training set")
    if len(targets_real) != m:
        raise ValueError("inputs and targets disagree on the number of pairs")
    if targets_imag is not None and targets_imag.shape != targets_real.shape:
        raise ValueError(f"imaginary targets have shape {targets_imag.shape}, "
                         f"not the real targets' {targets_real.shape}")
    out_dim = targets_real.shape[1]

    model = init_map(kind, in_dim, out_dim, rng, hp.hidden_dim,
                     complex_pair=targets_imag is not None)
    adam = Adam(lr=hp.learning_rate)
    policy = EpochPolicy(validator, hp.valid_every, "valid_score", loss_digits=8)
    arrays = [a for branch in model.branches().values() for a in branch.values()]
    for epoch in range(1, hp.epochs + 1):
        if resample and epoch > 1:
            del V  # the last epoch's kept rows go before the next are drawn
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
                for branch, params in model.branches().items():
                    for name, param in params.items():
                        adam.update(f"{branch}/{name}", param, grads[f"{branch}/{name}"])
        policy.end_epoch(epoch, epoch_loss / m, model, arrays)
    policy.close(log_path, arrays)
    return model


def build_training_pairs(kgc_model: KgcModel, graph: KnowledgeGraph, entity_rows: EntityRows):
    """The rows of the training entities that have usable text, in id order,
    and their graph-embedding targets: (rows, U_real, U_imag)."""
    pairs = entity_rows.select((entity_rows.entities < graph.num_entities) & entity_rows.has_text)
    emb = kgc_model.embeddings
    u_imag = emb.entity_imag[pairs.entities] if emb.is_complex else None
    return pairs, emb.entity_real[pairs.entities], u_imag


def train_map(
    kgc_model: KgcModel,
    graph: KnowledgeGraph,
    entity_rows: EntityRows,
    kind: str = "affine",
    hyperparams: MapHyperparams | None = None,
    seed: int = 0,
    validator=None,
    log_path: str | None = None,
) -> MapModel:
    """Train the text-to-graph transformation on training entities with text.

    Without word dropout the text embeddings of all training entities are
    averaged once, as one array of :meth:`text.EntityRows.kept`. With it
    (``hyperparams.dropout``), each epoch draws which rows to keep with
    :meth:`text.EntityRows.kept`, and each batch averages its own entities' kept
    rows, bit for bit the rows of that epoch's whole (m, d') mean array.
    ``hyperparams`` is checked when built. Raises :class:`ConfigError` when
    no training entity has usable text.
    """
    hp = hyperparams if hyperparams is not None else MapHyperparams()
    pairs, u_real, u_imag = build_training_pairs(kgc_model, graph, entity_rows)
    if not len(pairs.entities):
        raise ConfigError("no training entity has usable textual metadata")

    inputs = partial(pairs.kept, hp.dropout) if hp.dropout > 0 else np.asarray(pairs.kept())
    return fit_map(inputs, u_real, u_imag, kind, hp, seed, validator, log_path)


def check_fit(map_model: MapModel, kgc_model: KgcModel, text_dim: int, map_path: str,
              kgc_path: str, vectors_path: str) -> None:
    """Raise ValueError, naming the files, unless the map reads ``text_dim``-d
    vectors and writes ``kgc_model``'s embeddings: its dim, paired for ComplEx."""
    if map_model.in_dim != text_dim:
        raise ValueError(f"{map_path}: map input dim {map_model.in_dim} does not match "
                         f"the {text_dim}-d vectors of {vectors_path}")
    if map_model.out_dim != kgc_model.embeddings.dim:
        raise ValueError(f"{map_path}: map output dim {map_model.out_dim} does not match "
                         f"the {kgc_model.embeddings.dim}-d embeddings of {kgc_path}")
    if map_model.is_complex != (kgc_model.family == "complex"):
        pairing = "a paired (real+imag)" if map_model.is_complex else "an unpaired"
        raise ValueError(f"{map_path}: {pairing} map does not fit the {kgc_model.family} "
                         f"model of {kgc_path}")


def mapped_embedding(kgc_model: KgcModel, map_model: MapModel, text_vector: np.ndarray):
    """A text embedding mapped into graph space, shaped for the KGC family:
    a paired map for ComplEx, an unpaired one otherwise."""
    real, imag = map_vector(map_model, text_vector)
    if (imag is not None) != (kgc_model.family == "complex"):
        need = "an unpaired" if imag is not None else "a paired (real+imag)"
        raise ValueError(f"{kgc_model.family} model requires {need} transformation")
    return real if imag is None else (real, imag)


def mapped_entity_embedding(kgc_model: KgcModel, map_model: MapModel, meta: EntityText,
                            word_store: WordEmbeddingStore):
    """Text -> aggregated -> mapped embedding of one entity."""
    return mapped_embedding(kgc_model, map_model, text_embedding(meta, word_store))


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
    write_checkpoint(path, "map v1", fields, [params[name] for params in model.branches().values()
                                              for name in model.param_names()])


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
    if bool(hidden) != (kind == "mlp"):
        raise ValueError(f"{path}: hidden={','.join(map(str, hidden))} contradicts kind={kind}")
    shapes = MapModel(kind, in_dim, out_dim, hidden).param_shapes()
    n_branches = 1 + meta["complex"]
    arrays = iter(blocks(list(shapes.values()) * n_branches))
    branches = [dict(zip(shapes, arrays)) for _ in range(n_branches)]
    return MapModel(kind, in_dim, out_dim, hidden, *branches)
