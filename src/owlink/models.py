"""Closed-world link prediction models: TransE, DistMult, ComplEx.

Scoring functions (higher = more plausible):
  * TransE:   -||u_h + u_r - u_t||_2
  * DistMult: <u_h, u_r, u_t>  (trilinear dot product)
  * ComplEx:  Re(<u_h, u_r, conj(u_t)>)  (complex-valued embeddings)

Training uses uniform negative sampling with the models' original losses:
margin ranking loss for TransE (entity embeddings L2-normalized once per
epoch), softplus logistic loss with L2 regularization for DistMult and
ComplEx. All gradients are closed-form; Adam performs sparse row updates.

Each family's score is written once, in a broadcasting kernel that one block
loop over gathered (query, entity) pairs runs for ``score``, ``score_all_*``
and ``better_or_tied``. Head (and tail) embeddings can be passed explicitly
instead of entity ids, which is what allows scoring entities that only
exist as mapped text embeddings. ``better_or_tied`` compares every entity
with a target for a block of queries from one GEMM and a proven rounding
bound, running the kernel only on the cells the bound cannot decide. The
train step is written once too: a family gives only its loss and one
gradient per gathered (head, relation, tail) row. Ranking lives in
``evaluation``; best-epoch selection goes through a ``validator``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graph import KnowledgeGraph
from .optim import Adam, EpochPolicy

FAMILIES = ("transe", "distmult", "complex")

GradKey = tuple[str, int]


class ConfigError(ValueError):
    """Invalid model or training hyperparameter."""


@dataclass
class KgcHyperparams:
    dim: int = 300
    epochs: int = 100
    learning_rate: float = 1e-3
    batch_size: int = 128
    margin: float = 1.0
    reg_weight: float = 1e-3
    num_negatives: int = 1
    valid_every: int = 1

    def validate(self) -> None:
        check_setting("dim", self.dim, self.dim > 0, "positive")
        check_loop(self)
        check_setting("margin", self.margin, self.margin > 0, "positive")
        check_setting("reg_weight", self.reg_weight, self.reg_weight >= 0, ">= 0")
        check_setting("num_negatives", self.num_negatives, self.num_negatives >= 1, ">= 1")


def check_setting(name: str, value, ok: bool, rule: str) -> None:
    """The one rule for a numeric setting: ``ok`` says it is in its range
    (written so that NaN fails every range), and it must also be finite."""
    if not ok:
        raise ConfigError(f"{name} must be {rule}, got {value}")
    if value in (np.inf, -np.inf):
        raise ConfigError(f"{name} must be finite, got {value}")


def check_loop(hp) -> None:
    """Check the settings both epoch loops read (``train_kgc``, ``mapping.fit_map``)."""
    check_setting("epochs", hp.epochs, hp.epochs >= 0, ">= 0")
    check_setting("learning_rate", hp.learning_rate, hp.learning_rate >= 0, ">= 0")
    check_setting("batch_size", hp.batch_size, hp.batch_size > 0, "positive")
    check_setting("valid_every", hp.valid_every, hp.valid_every >= 0, ">= 0 (0: never)")


@dataclass
class EmbeddingTable:
    """Dense per-entity and per-relation embeddings.

    Imaginary components are present exactly when the model family is
    ComplEx.
    """

    entity_real: np.ndarray
    relation_real: np.ndarray
    entity_imag: np.ndarray | None = None
    relation_imag: np.ndarray | None = None

    @property
    def dim(self) -> int:
        return self.entity_real.shape[1]

    @property
    def is_complex(self) -> bool:
        return self.entity_imag is not None

    @property
    def num_entities(self) -> int:
        return self.entity_real.shape[0]

    @property
    def num_relations(self) -> int:
        return self.relation_real.shape[0]

    def arrays(self) -> dict[str, np.ndarray]:
        out = {"entity_real": self.entity_real, "relation_real": self.relation_real}
        if self.is_complex:
            out["entity_imag"] = self.entity_imag
            out["relation_imag"] = self.relation_imag
        return out

    def entity_embedding(self, entity_id: int) -> tuple[np.ndarray, np.ndarray | None]:
        real = self.entity_real[entity_id]
        imag = self.entity_imag[entity_id] if self.is_complex else None
        return real, imag


@dataclass
class KgcModel:
    family: str
    embeddings: EmbeddingTable
    hyperparams: KgcHyperparams = field(default_factory=KgcHyperparams)


def init_embeddings(
    family: str, num_entities: int, num_relations: int, dim: int, rng: np.random.Generator
) -> EmbeddingTable:
    """Seeded uniform(-1/sqrt(d), 1/sqrt(d)) initialization."""
    if family not in FAMILIES:
        raise ConfigError(f"unknown model family {family!r}")
    check_setting("dim", dim, dim > 0, "positive")
    bound = 1.0 / np.sqrt(dim)

    def table(n: int) -> np.ndarray:
        return rng.uniform(-bound, bound, size=(n, dim))

    ent_r, rel_r = table(num_entities), table(num_relations)
    if family == "complex":
        return EmbeddingTable(ent_r, rel_r, table(num_entities), table(num_relations))
    return EmbeddingTable(ent_r, rel_r)


def _query_pair(model: KgcModel, embedding) -> tuple[np.ndarray, np.ndarray | None]:
    """An explicit embedding argument as a (real, imag) pair checked against
    the model's family and dimension."""
    if isinstance(embedding, tuple):
        real, imag = embedding
        real, imag = np.asarray(real), None if imag is None else np.asarray(imag)
    else:
        real, imag = np.asarray(embedding), None
    d = model.embeddings.dim
    if real.shape != (d,):
        raise ValueError(f"embedding has shape {real.shape}, expected ({d},)")
    if model.family == "complex":
        if imag is None:
            raise ValueError("ComplEx model requires a (real, imag) embedding pair")
        if imag.shape != (d,):
            raise ValueError(f"imag embedding has shape {imag.shape}, expected ({d},)")
    elif imag is not None:
        raise ValueError(f"{model.family} model takes a real embedding, got a pair")
    return real, imag


def _score(model: KgcModel, head, r, tail) -> np.ndarray:
    """The scoring kernel: one formula per family over the last axis.

    ``head`` and ``tail`` are (real, imag-or-None) pairs whose arrays have
    shape (d,) or (N, d) and broadcast against each other and ``r``'s rows.
    """
    emb = model.embeddings
    (hr, hi), (tr, ti) = head, tail
    rr = emb.relation_real[r]
    if model.family == "transe":
        diff = hr + rr - tr
        return -np.sqrt((diff * diff).sum(axis=-1))
    if model.family == "distmult":
        return (hr * tr * rr).sum(axis=-1)
    ri = emb.relation_imag[r]
    # Re(h * r * conj(t)) grouped as (h * conj(t)) * r so that the
    # zero-imaginary case coincides bitwise with DistMult
    return ((hr * tr + hi * ti) * rr - (hi * tr - hr * ti) * ri).sum(axis=-1)


# Pairs per kernel call in _score_cells, the loop every score goes through:
# the (rows, d) temporaries stay in cache instead of streaming (N, d) arrays
# through memory. Blocking changes no pair's arithmetic: scores are bitwise equal.
SCORE_BLOCK_ROWS = 1024


def _score_cells(model: KgcModel, qr, qi, r, which, rows, query_is_head: bool) -> np.ndarray:
    """The kernel for each pair of query ``which[k]`` (a row of ``qr`` and
    ``qi``, with relation ``r[which[k]]``) and entity ``rows[k]``, gathered
    SCORE_BLOCK_ROWS pairs per call."""
    real, imag = model.embeddings.entity_real, model.embeddings.entity_imag
    out = np.empty(len(rows))
    for start in range(0, len(rows), SCORE_BLOCK_ROWS):
        i, j = which[start:start + SCORE_BLOCK_ROWS], rows[start:start + SCORE_BLOCK_ROWS]
        query = (qr[i], None if qi is None else qi[i])
        entity = (real[j], None if imag is None else imag[j])
        head, tail = (query, entity) if query_is_head else (entity, query)
        out[start:start + SCORE_BLOCK_ROWS] = _score(model, head, r[i], tail)
    return out


def _score_query(model: KgcModel, embedding, r: int, rows, query_is_head: bool) -> np.ndarray:
    """The kernel for one explicit query embedding against entity ``rows``."""
    qr, qi = _query_pair(model, embedding)
    return _score_cells(model, qr[None], None if qi is None else qi[None], np.array([r]),
                        np.zeros(len(rows), dtype=np.intp), rows, query_is_head)


def score(model: KgcModel, h_embedding, r: int, t: int) -> float:
    """Score one triple with an explicit head embedding."""
    return float(_score_query(model, h_embedding, r, np.array([t]), query_is_head=True)[0])


def score_all_tails(model: KgcModel, h_embedding, r: int) -> np.ndarray:
    """Score (h, r, t) for every known entity t; element t matches score()."""
    rows = np.arange(model.embeddings.num_entities)
    return _score_query(model, h_embedding, r, rows, query_is_head=True)


def score_all_heads(model: KgcModel, r: int, t_embedding) -> np.ndarray:
    """Score (h, r, t) for every known entity h, given an explicit tail."""
    rows = np.arange(model.embeddings.num_entities)
    return _score_query(model, t_embedding, r, rows, query_is_head=False)


# Bytes of each (queries, N) float64 array of better_or_tied: a block of
# RANK_BLOCK_BYTES // (8 N) queries (at least one) shares one GEMM, which is
# 4 queries at N = 14,541 entities. Blocks of 9 (1 MiB) were 25 % faster but
# raised train-map's peak RSS by 3 MiB on the owe-complex benchmark.
RANK_BLOCK_BYTES = 1 << 19

_U = 2.0 ** -53  # unit roundoff of float64
_SMALL = 2.0 ** -1022  # smallest normal float64
_NORM_FLOOR = 2.0 ** -500  # added to every computed norm (squares that underflowed)
_LIMIT = 2.0 ** 1000  # bilinear guard: no intermediate of a cell reaches 2**1020


def _gamma(n: int) -> float:
    """Higham's gamma_n = n u / (1 - n u), widened by 2**-20 relative to
    cover the rounding of the bound's own arithmetic (better_or_tied)."""
    return n * _U / (1 - n * _U) * (1 + 2.0 ** -20)


def _bilinear_block(model: KgcModel, qr, qi, r, query_is_head: bool, norms):
    """DistMult (``qi`` None) and ComplEx: the block's GEMM estimate S of
    every score, its bound B and each query's row-norm limit.

    A query's coefficient row is built once; S is one GEMM against
    ``entity_real`` (plus one against ``entity_imag``). With s the exact
    score and u = 2**-53, in Higham's model fl(x op y) = (x op y)(1 + d),
    |d| <= u, a product of n factors (1 + d)^(+-1) is 1 + t with
    |t| <= gamma_n, and a sum of n terms in any order (BLAS's included)
    errs by at most gamma_(n-1) times the sum of their absolute values:

    * DistMult, a = fl(q * r) (q is h or t). The kernel rounds each term
      twice, fl(fl(q_j e_j) r_j), then adds d terms: |kernel - s| <=
      gamma_(d+1) T, T = sum_j |q_j r_j e_j|. The GEMM's terms carry a's
      rounding and d more: |S - s| <= u T + gamma_d (1 + u) T <=
      gamma_(d+1) T. So |S - kernel| <= gamma_(2d+2) T.
    * ComplEx, tail: a = [hr rr - hi ri, hi rr + hr ri]; head, with r
      conjugated: a = [tr rr + ti ri, ti rr - tr ri]. Each of the kernel's
      four products per element, ``((hr tr + hi ti) rr - (hi tr - hr ti) ri)``,
      passes four roundings (product, inner sum, times rr or ri, outer
      difference) and then d - 1 additions: gamma_(d+3) T, with
      T = sum_j al_j |e_j| over the 2d entries of [e_real, e_imag] and
      al = [|qr||rr| + |qi||ri|, |qi||rr| + |qr||ri|]. The coefficients
      round twice (|a - exact| <= gamma_2 al), the two GEMMs and their sum
      d + 1 times: gamma_2 T + gamma_(d+1) (1 + gamma_2) T <= gamma_(d+3) T.
      So |S - kernel| <= gamma_(2d+6) T.

    T <= ||al|| ||e|| (Cauchy-Schwarz; al = |a| for DistMult), so
    B = gamma_K ||al|| n_j + z (1 + n_j), with n_j the entity row norms and
    z = 8 d 2**-1022 (1 + max|r|): an underflowing product errs by up to
    2**-1075 more, then is multiplied by at most one relation entry (kernel)
    or one entity entry (coefficient times row); z covers the 6d products
    of both paths with a factor 2**51 to spare. Every intermediate of a
    cell is at most 4 d max|q| (1 + max|r|) n_j (1 + u)^(2d+3), so cells
    with n_j below ``limit`` = 2**1000 / (8 d max|q| (1 + max|r|)) cannot
    overflow.
    """
    emb = model.embeddings
    d = emb.dim
    rr = emb.relation_real[r]
    if qi is None:
        coef = qr * rr
        estimate, bound = coef @ emb.entity_real.T, None
        alpha, terms = np.abs(coef), 2 * d + 2
        qmax, rmax = np.abs(qr).max(axis=1), np.abs(rr).max(axis=1)
    else:
        ri = emb.relation_imag[r] if query_is_head else -emb.relation_imag[r]
        estimate = (qr * rr - qi * ri) @ emb.entity_real.T
        bound = (qi * rr + qr * ri) @ emb.entity_imag.T
        estimate += bound  # the buffer is reused for the bound
        aqr, aqi, arr, ari = map(np.abs, (qr, qi, rr, ri))
        alpha, terms = np.hstack([aqr * arr + aqi * ari, aqi * arr + aqr * ari]), 2 * d + 6
        qmax = np.maximum(aqr.max(axis=1), aqi.max(axis=1))
        rmax = np.maximum(arr.max(axis=1), ari.max(axis=1))
    size = np.sqrt(np.einsum("ij,ij->i", alpha, alpha)) + _NORM_FLOOR
    z = 8 * d * _SMALL * (1 + rmax)
    bound = np.multiply.outer(_gamma(terms) * size + z, norms, out=bound)
    bound += z[:, None]
    limit = _LIMIT / (8 * d * qmax * (1 + rmax))
    return estimate, bound, np.where(np.isfinite(size), limit, np.nan)


def _transe_block(model: KgcModel, qr, r, query_is_head: bool, norms, squares, s_star):
    """TransE: the block's GEMM estimate S of minus each squared distance,
    its bound B, each query's threshold on S and its row-norm limit.

    The kernel's score is -fl(sqrt(sig)), sig its float sum of squared
    differences. With u and gamma_n as in ``_bilinear_block``:

    * Tail: the kernel's first sum c = fl(h + r) is the coefficient row, so
      both paths use the same c. The kernel's fl(c_j - e_j) squared and
      summed gives sig = ||c - e||^2 (1 + t), |t| <= gamma_(d+2). The GEMM
      path's D = fl(fl(Q + N) - 2G), with Q = fl(||c||^2), N the entity
      rows' float squared norms and G = fl(c . e), errs by at most
      gamma_(d+2) (||c|| + ||e||)^2. So |D - sig| <= gamma_(2d+4) T,
      T = (||c|| + ||e||)^2.
    * Head: the kernel computes fl(fl(e + r) - t), c = fl(t - r). Each
      kernel difference is within gamma_2 M_j of e_j + r_j - t_j, with
      M_j = |e_j| + |r_j| + |t_j|, so sig is within (d + 4) u (1 + O(u))
      sum M_j^2 of the exact squared distance; e - c is within u M_j of it
      per entry, which moves ||e - c||^2 by 2u (1 + O(u)) sum M_j^2; and D
      errs by gamma_(d+2) (||c|| + ||e||)^2 from ||e - c||^2. With
      mu = || |r| + |t| || >= ||c|| / (1 + u) and sum M_j^2 <= (mu + ||e||)^2:
      |D - sig| <= gamma_(2d+8) T, T = (mu + ||e||)^2.

    The square root: row j scores >= s* exactly when fl(sqrt(sig_j)) <=
    rho = -s*. That holds when sig_j <= rho^2 (sqrt is monotone and
    correctly rounded) and fails when sig_j >= rho+^2, rho+ the next float
    above rho; rows between may round onto rho, a tie, so they belong in the
    band. P = fl(rho^2) and w = 8 u P + 2**-1022 give [P - w, P + w] ⊇
    [rho^2, rho+^2], so S = -D is compared with -P and B = gamma_K T + z + w,
    z = 8 d 2**-1022 for underflowing products. A cell's intermediates stay
    below 2**1020 when n_j < ``limit`` = 2**500 - mu (mu = ||c|| for the tail).
    """
    emb = model.embeddings
    d = emb.dim
    rr = emb.relation_real[r]
    if query_is_head:
        coef = qr + rr
        size, terms = np.sqrt(np.einsum("ij,ij->i", coef, coef)), 2 * d + 4
    else:
        coef = qr - rr
        mag = np.abs(rr) + np.abs(qr)
        size, terms = np.sqrt(np.einsum("ij,ij->i", mag, mag)), 2 * d + 8
    estimate = coef @ emb.entity_real.T
    estimate *= 2
    bound = np.add.outer(np.einsum("ij,ij->i", coef, coef), squares)
    estimate -= bound  # the buffer is reused for the bound
    threshold = s_star * s_star
    np.add.outer(size + _NORM_FLOOR, norms, out=bound)
    bound *= bound
    bound *= _gamma(terms)
    bound += (8 * d * _SMALL + 8 * _U * threshold + _SMALL)[:, None]
    return estimate, bound, -threshold, 2.0 ** 500 - size


def _row_norms(emb: EmbeddingTable) -> tuple[np.ndarray, np.ndarray]:
    """Each entity row's float squared norm over [real, imag], and its norm
    plus 2**-500; no (N, d) temporary is made."""
    squares = np.einsum("ij,ij->i", emb.entity_real, emb.entity_real)
    if emb.is_complex:
        squares += np.einsum("ij,ij->i", emb.entity_imag, emb.entity_imag)
    return squares, np.sqrt(squares) + _NORM_FLOOR


def better_or_tied(model: KgcModel, queries, relations, targets, query_is_head: bool):
    """Per block of queries, a (block, N) bool array whose [i, j] is the
    kernel's ``scores[j] >= scores[targets[i]]``, bitwise as over
    ``score_all_tails`` (``query_is_head``) or ``score_all_heads``, for the
    query embedding ``queries[i]`` and relation ``relations[i]``.

    ``queries`` is iterated lazily, one block at a time. Per block, s* is
    the kernel on each target's own row, S a GEMM estimate of every score
    and B a bound on |S - kernel| per cell, derived for each family's exact
    operation order in ``_bilinear_block`` and ``_transe_block``. A cell
    with |S - s*| >= B is decided by the sign of S - s*; every other cell
    (the band: ties, near-ties, the target itself) is scored by the kernel
    on gathered rows. Rounding of the bound's own arithmetic (norms, the
    products forming B, the difference S - s*) adds relative errors of
    order (d + 10) u to quantities of order d u; ``_gamma``'s factor
    1 + 2**-20 covers them for d < 2**20. A non-finite s*, coefficient or
    coefficient norm puts every cell of that query in the band, and a
    non-finite or too large entity row norm every cell of that row, through
    the same comparison with ``limit``; a NaN in S or B fails both tests.
    No array of the entity table's size is made: B comes from row norms,
    computed once per call.
    """
    emb = model.embeddings
    num_e = emb.num_entities
    relations, targets = np.asarray(relations), np.asarray(targets)
    squares, norms = _row_norms(emb)
    queries = iter(queries)
    block = max(1, RANK_BLOCK_BYTES // (8 * max(num_e, 1)))
    for start in range(0, len(relations), block):
        r, t = relations[start:start + block], targets[start:start + block]
        pairs = [_query_pair(model, next(queries)) for _ in range(len(r))]
        qr = np.stack([real for real, _ in pairs])
        qi = np.stack([imag for _, imag in pairs]) if emb.is_complex else None
        with np.errstate(all="ignore"):
            s_star = _score_cells(model, qr, qi, r, np.arange(len(r)), t, query_is_head)
            if model.family == "transe":
                estimate, bound, s_ref, limit = _transe_block(
                    model, qr, r, query_is_head, norms, squares, s_star)
            else:
                estimate, bound, limit = _bilinear_block(model, qr, qi, r, query_is_head, norms)
                s_ref = s_star
            limit[~np.isfinite(s_ref)] = np.nan
            estimate -= s_ref[:, None]
            settled = estimate >= bound
            settled |= estimate <= np.negative(bound, out=bound)
            settled &= norms < limit[:, None]
            better = estimate >= 0
            better &= settled
            which, rows = np.nonzero(~settled)
            better[which, rows] = _score_cells(
                model, qr, qi, r, which, rows, query_is_head) >= s_star[which]
        yield better


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x, dtype=float)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _softplus(x: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, x)


def _accumulate(dim: int, indices: list[np.ndarray], *grads: list[np.ndarray]):
    """Sum the gradient rows that share a table row, in batch order.

    ``indices`` lists the index arrays into one table; each further argument
    lists one parameter block's gradient arrays, matching ``indices`` (ComplEx
    passes a real and an imaginary block). Returns the sorted unique rows and
    one (rows, dim) sum per block. Each cell starts at 0.0 and adds its
    contributions one at a time in batch order, as an unbuffered ``np.add``
    scatter does, so a row of -0.0 gradients sums to 0.0. ``np.add.reduceat``
    over sorted rows would not give the same bits: it sums a segment in
    another order.
    """
    idx = np.concatenate([np.asarray(a, dtype=np.int64).ravel() for a in indices])
    rows, inv = np.unique(idx, return_inverse=True)
    cells = (inv[:, None] * dim + np.arange(dim)).ravel()
    sums = []
    for block in grads:
        g = np.concatenate([np.asarray(a).reshape(-1, dim) for a in block])
        acc = np.bincount(cells, weights=g.ravel(), minlength=len(rows) * dim)
        sums.append(acc.reshape(len(rows), dim))
    return rows, sums


def batch_loss_and_gradients(
    model: KgcModel, positives: np.ndarray, negatives: np.ndarray
) -> tuple[float, dict[str, tuple[np.ndarray, np.ndarray]]]:
    """Loss and sparse gradients for a batch of positives with negatives.

    ``positives`` has shape (B, 3); ``negatives`` has shape (B, K, 3).
    Returns the summed batch loss and, per parameter table, the unique
    touched rows with their accumulated gradient rows.
    """
    emb = model.embeddings
    pos = np.asarray(positives, dtype=np.int64).reshape(-1, 3)
    neg = np.asarray(negatives, dtype=np.int64).reshape(pos.shape[0], -1, 3)
    # the (head, relation, tail) rows of each table part, real then imaginary
    tables = [(emb.entity_real, emb.relation_real)]
    if emb.is_complex:
        tables.append((emb.entity_imag, emb.relation_imag))

    def gather(trip):
        return [rows for E, R in tables
                for rows in (E[trip[..., 0]], R[trip[..., 1]], E[trip[..., 2]])]

    family_loss = _margin_loss if model.family == "transe" else _logistic_loss
    # held through the row sums (TransE's loss empties them): freed first, they
    # let the heap shrink and refault every batch (ComplEx: 1.3-2.2x the faults)
    rows_p, rows_n = gather(pos), gather(neg)
    loss, gp, gn = family_loss(model.hyperparams, rows_p, rows_n)
    starts = range(0, len(gp), 3)  # each table part's head gradient
    ent_rows, ent_sums = _accumulate(emb.dim, [pos[:, 0], pos[:, 2], neg[..., 0], neg[..., 2]],
                                     *[[gp[k], gp[k + 2], gn[k], gn[k + 2]] for k in starts])
    rel_rows, rel_sums = _accumulate(emb.dim, [pos[:, 1], neg[..., 1]],
                                     *[[gp[k + 1], gn[k + 1]] for k in starts])
    sparse = {}
    for part, ent_sum, rel_sum in zip(("real", "imag"), ent_sums, rel_sums):
        sparse[f"entity_{part}"] = (ent_rows, ent_sum)
        sparse[f"relation_{part}"] = (rel_rows, rel_sum)
    return loss, sparse


def _margin_loss(hp: KgcHyperparams, parts_p, parts_n):
    """TransE's margin loss and its gradient per gathered row. It empties the
    row lists once h + r - t is formed: rows held to the end made train-kgc
    fault in three to seven times as many heap pages."""
    diff_p = parts_p[0] + parts_p[1] - parts_p[2]
    parts_p.clear()
    dist_p = np.sqrt((diff_p * diff_p).sum(axis=1))
    diff_n = parts_n[0] + parts_n[1] - parts_n[2]
    parts_n.clear()
    dist_n = np.sqrt((diff_n * diff_n).sum(axis=2))

    viol = hp.margin + dist_p[:, None] - dist_n
    active = viol > 0
    loss = float(viol[active].sum())

    # d||x||/dx = x/||x||; subgradient at the origin fixed to 0
    with np.errstate(invalid="ignore", divide="ignore"):
        unit_p = np.where(dist_p[:, None] > 0, diff_p / np.where(dist_p == 0, 1, dist_p)[:, None], 0.0)
        unit_n = np.where(dist_n[..., None] > 0, diff_n / np.where(dist_n == 0, 1, dist_n)[..., None], 0.0)

    count_p = active.sum(axis=1).astype(float)  # violations per positive
    gp = unit_p * count_p[:, None]
    gn = unit_n * active[..., None]
    return loss, [gp, gp, -gp], [-gn, -gn, gn]


def _logistic_loss(hp: KgcHyperparams, parts_p, parts_n):
    """DistMult's and ComplEx's softplus loss with L2 regularization, and its
    gradient per gathered row; the parts are hr, rr, tr (then hi, ri, ti)."""
    is_complex = len(parts_p) == 6

    def phi(parts):
        if not is_complex:
            hr, rr, tr = parts
            return (hr * rr * tr).sum(axis=-1)
        hr, rr, tr, hi, ri, ti = parts
        return (tr * (hr * rr - hi * ri)).sum(axis=-1) + (ti * (hi * rr + hr * ri)).sum(axis=-1)

    def phi_grads(parts, dphi):
        # dphi broadcasts over the trailing embedding axis
        w = dphi[..., None]
        if not is_complex:
            hr, rr, tr = parts
            return [w * rr * tr, w * hr * tr, w * hr * rr]
        hr, rr, tr, hi, ri, ti = parts
        return [
            w * (rr * tr + ri * ti),        # d/d hr
            w * (hr * tr + hi * ti),        # d/d rr
            w * (hr * rr - hi * ri),        # d/d tr
            w * (rr * ti - ri * tr),        # d/d hi
            w * (hr * ti - hi * tr),        # d/d ri
            w * (hi * rr + hr * ri),        # d/d ti
        ]

    lam = hp.reg_weight
    phi_p = phi(parts_p)
    phi_n = phi(parts_n)

    loss = float(_softplus(-phi_p).sum() + _softplus(phi_n).sum())
    loss += lam * float(sum((p * p).sum() for p in parts_p + parts_n))

    gp = phi_grads(parts_p, -_sigmoid(-phi_p))
    gn = phi_grads(parts_n, _sigmoid(phi_n))
    # L2 regularization applies per appearance in the batch
    gp = [g + 2 * lam * p for g, p in zip(gp, parts_p)]
    gn = [g + 2 * lam * p for g, p in zip(gn, parts_n)]
    return loss, gp, gn


def gradients(
    model: KgcModel, positive: tuple[int, int, int], negatives: list[tuple[int, int, int]]
) -> tuple[float, dict[GradKey, np.ndarray]]:
    """Loss and per-row gradients for a single positive with its negatives.

    Keys are (table_name, row_index); only embeddings appearing in the
    batch are touched.
    """
    pos = np.asarray([positive], dtype=np.int64)
    if negatives:
        neg = np.asarray([negatives], dtype=np.int64)
    else:
        neg = np.zeros((1, 0, 3), dtype=np.int64)
    loss, sparse = batch_loss_and_gradients(model, pos, neg)
    flat: dict[GradKey, np.ndarray] = {}
    for name, (rows, grad_rows) in sparse.items():
        for row, g in zip(rows, grad_rows):
            flat[(name, int(row))] = g
    return loss, flat


# Entity rows per norm computation in normalize_entities; each row's sum is
# the same reduction as over the whole table.
NORM_BLOCK_ROWS = 1024


def normalize_entities(emb: EmbeddingTable) -> None:
    """L2-normalize entity rows in place (TransE convention); zero rows kept.
    Rows go ``NORM_BLOCK_ROWS`` at a time, so no full-table temporary is made."""
    for start in range(0, len(emb.entity_real), NORM_BLOCK_ROWS):
        block = emb.entity_real[start:start + NORM_BLOCK_ROWS]
        norms = np.sqrt((block * block).sum(axis=1, keepdims=True))
        np.divide(block, norms, out=block, where=norms > 0)


def train_kgc(
    graph: KnowledgeGraph,
    family: str,
    hyperparams: KgcHyperparams | None = None,
    seed: int = 0,
    validator=None,
    log_path: str | None = None,
) -> KgcModel:
    """Train a link prediction model with uniform negative sampling.

    Deterministic for a fixed seed in this single-threaded mode. Epochs end
    in an :class:`optim.EpochPolicy`: with a ``validator`` (such as
    ``evaluation.closed_world_validator``) the best-scoring epoch's
    embeddings are returned, otherwise the final epoch's.
    """
    hp = hyperparams if hyperparams is not None else KgcHyperparams()
    hp.validate()
    if len(graph.train) == 0:
        raise ConfigError("cannot train on an empty train split")

    rng = np.random.default_rng(seed)
    emb = init_embeddings(family, graph.num_entities, graph.num_relations, hp.dim, rng)
    model = KgcModel(family, emb, hp)
    adam = Adam(lr=hp.learning_rate)

    train = graph.train
    n = len(train)
    num_e = graph.num_entities
    K = hp.num_negatives

    policy = EpochPolicy(validator, hp.valid_every, "valid_mrr", loss_digits=6)
    arrays = list(emb.arrays().values())

    for epoch in range(1, hp.epochs + 1):
        perm = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, hp.batch_size):
            pos = train[perm[start : start + hp.batch_size]]
            b = len(pos)
            neg = np.repeat(pos[:, None, :], K, axis=1)
            corrupt_head = rng.random((b, K)) < 0.5
            replacement = rng.integers(0, num_e, size=(b, K))
            neg[..., 0] = np.where(corrupt_head, replacement, neg[..., 0])
            neg[..., 2] = np.where(corrupt_head, neg[..., 2], replacement)

            loss, sparse = batch_loss_and_gradients(model, pos, neg)
            epoch_loss += loss
            if hp.learning_rate > 0:
                adam.begin_step()
                tables = emb.arrays()
                for name, (rows, grad_rows) in sparse.items():
                    adam.update_rows(name, tables[name], rows, grad_rows)
        if family == "transe" and hp.learning_rate > 0:
            normalize_entities(emb)
        policy.end_epoch(epoch, epoch_loss / n, model, arrays)
    policy.close(log_path, arrays)

    if not all(np.isfinite(a).all() for a in model.embeddings.arrays().values()):
        raise FloatingPointError("non-finite embeddings after training")
    return model


# Checkpoint format, shared with mapping's map checkpoints: a magic line,
# ASCII key=value header lines and an "end" line, then row-major
# little-endian float32 blocks.

def write_checkpoint(path: str, magic: str, fields: dict[str, object], blocks) -> None:
    header = "".join(f"{key}={value}\n" for key, value in fields.items())
    with open(path, "wb") as fh:
        fh.write(f"{magic}\n{header}end\n".encode("ascii"))
        for arr in blocks:
            fh.write(np.ascontiguousarray(arr, dtype="<f4"))  # through the buffer, no bytes copy


def _positive_int(value: str) -> int:
    n = int(value)
    if n <= 0:
        raise ValueError(value)
    return n


def _flag(value: str) -> bool:
    if value not in ("0", "1"):
        raise ValueError(value)
    return value == "1"


def read_checkpoint(path: str, magic: str, fields: dict):
    """Parse a checkpoint header and split off its payload.

    ``fields`` maps each required header key to a parser. Returns the parsed
    fields and a reader ``blocks(shapes)`` that yields one float64 array per
    shape and requires the payload to hold exactly those blocks. Every
    malformed file raises ValueError naming ``path``, including a header
    line that is not ``key=value`` and a key given twice.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    marker = data.find(b"\nend\n")
    if marker < 0:
        raise ValueError(f"{path}: checkpoint header has no end line")
    magic_line, *lines = data[:marker].decode("ascii", "replace").split("\n")
    if magic_line != magic:
        raise ValueError(f"{path}: not a {magic} checkpoint")
    raw: dict[str, str] = {}
    for line in lines:
        key, eq, value = line.partition("=")
        if not eq:
            raise ValueError(f"{path}: checkpoint header line {line!r} is not key=value")
        if key in raw:
            raise ValueError(f"{path}: checkpoint header repeats {key}=")
        raw[key] = value
    meta = {}
    for key, parse in fields.items():
        if key not in raw:
            raise ValueError(f"{path}: checkpoint header lacks {key}=")
        try:
            meta[key] = parse(raw[key])
        except ValueError:
            raise ValueError(f"{path}: bad checkpoint header value {key}={raw[key]}") from None
    payload = memoryview(data)[marker + len(b"\nend\n"):]

    def blocks(shapes: list[tuple[int, ...]]) -> list[np.ndarray]:
        sizes = [4 * int(np.prod(shape)) for shape in shapes]
        if len(payload) < sum(sizes):
            raise ValueError(f"{path}: truncated checkpoint payload")
        if len(payload) > sum(sizes):
            raise ValueError(f"{path}: {len(payload) - sum(sizes)} trailing bytes after the payload")
        offsets = np.cumsum([0] + sizes)
        return [
            np.frombuffer(payload[a:b], dtype="<f4").reshape(shape).astype(np.float64)
            for a, b, shape in zip(offsets, offsets[1:], shapes)
        ]

    return meta, blocks


def save_checkpoint(path: str, model: KgcModel) -> None:
    emb = model.embeddings
    fields = {
        "family": model.family,
        "entities": emb.num_entities,
        "relations": emb.num_relations,
        "dim": emb.dim,
        "complex": int(emb.is_complex),
    }
    write_checkpoint(path, "kgc v1", fields, emb.arrays().values())


def load_checkpoint(path: str) -> KgcModel:
    meta, blocks = read_checkpoint(path, "kgc v1", {
        "family": str, "entities": _positive_int, "relations": _positive_int,
        "dim": _positive_int, "complex": _flag,
    })
    family = meta["family"]
    if family not in FAMILIES:
        raise ValueError(f"{path}: unknown model family {family!r}")
    if meta["complex"] != (family == "complex"):
        raise ValueError(f"{path}: complex={int(meta['complex'])} contradicts family={family}")
    d = meta["dim"]
    shapes = [(meta["entities"], d), (meta["relations"], d)] * (2 if meta["complex"] else 1)
    return KgcModel(family, EmbeddingTable(*blocks(shapes)))
