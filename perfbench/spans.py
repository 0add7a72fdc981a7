"""Span recording around owlink's public functions.

A :class:`Recorder` wraps chosen functions with a timer that records one
span per call: name, start, end and parent span. The wrapper is patched
into every owlink module that holds the function, because modules import
functions by name (``evaluation`` does ``from .models import
score_all_tails``). Spans stay in memory and are written once, at exit.

Self time is a span's duration minus the durations of its direct
children; owlink is single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import sys
import time

import numpy as np

# Loaders a command runs to read its inputs; their summed time is setup_s.
LOADERS = (
    "graph.load_graph",
    "graph.load_entity_text",
    "graph.resolve_metadata",
    "graph.build_filter_index",
    "text.load_word_embeddings",
    "models.load_checkpoint",
    "mapping.load_map",
)

# A command's first unit of work is its first call to one of these: the
# sampler, the metadata corruption of a sweep, or a train or scoring kernel.
# Loader calls that start later (the filter index of a validation or a
# sweep point, the metadata of a sweep point) are work, not set-up.
WORK = (
    "sampler.sample_open_world",
    "sampler.corrupt_metadata",
    "models.batch_loss_and_gradients",
    "models.score_all_tails",
    "models.score_all_heads",
    "mapping.map_loss_and_gradients",
)

# Every traced public function, grouped by the module (layer) it lives in.
TRACED = LOADERS + WORK + (
    "graph.save_triples",
    "text.entity_tokens",
    "text.aggregate",
    "text.text_embedding",
    "models.train_kgc",
    "models.save_checkpoint",
    "optim.Adam.update",
    "optim.Adam.update_rows",
    "mapping.train_map",
    "mapping.build_training_pairs",
    "mapping.fit_map",
    "mapping.mapped_entity_embedding",
    "mapping.save_map",
    "evaluation.evaluate",
    "evaluation.random_head_baseline",
    "evaluation.write_report_tsv",
    "sampler.validate_split",
)


class Recorder:
    """In-memory span store plus per-call counters taken at the same boundary."""

    def __init__(self) -> None:
        self._name_ids: dict[str, int] = {}
        self.name_id: list[int] = []
        self.parent: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self._stack: list[int] = []
        self.counters: dict[str, float] = {}
        self.captured: dict[str, object] = {}

    @property
    def names(self) -> list[str]:
        return list(self._name_ids)  # in id order

    def count(self, key: str, value: float = 1.0) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + value

    def span(self, name: str, fn, post=None):
        nid = self._name_ids.setdefault(name, len(self._name_ids))
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.end.append(0.0)
            self._stack.append(i)
            self.start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end[i] = clock()
                self._stack.pop()
            if post is not None:
                post(self, i, args, kwargs, out)
            return out

        return wrapper

    def install(self, qualnames, with_counters: bool) -> None:
        """Wrap each ``layer.function`` (or ``layer.Class.method``) in place,
        in every loaded owlink module that refers to it. Counters (and the
        objects they keep until the command ends) only with ``with_counters``."""
        modules = [m for k, m in sys.modules.items() if k == "owlink" or k.startswith("owlink.")]
        for qual in qualnames:
            layer, *path = qual.split(".")
            owner = sys.modules[f"owlink.{layer}"]
            for attr in path[:-1]:
                owner = getattr(owner, attr)
            original = getattr(owner, path[-1])
            wrapped = self.span(qual, original, _POST.get(qual) if with_counters else None)
            setattr(owner, path[-1], wrapped)
            if len(path) == 1:
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapped)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.asarray(self.name_id, dtype=np.int32),
            "parent": np.asarray(self.parent, dtype=np.int64),
            "start": np.asarray(self.start, dtype=np.float64),
            "end": np.asarray(self.end, dtype=np.float64),
        }


# Counters read from arguments and results at the traced boundary. Each is
# O(1) per call; anything heavier runs after the command, outside all spans.

def _post_load_graph(rec, i, args, kwargs, graph):
    rec.count("graph.load_graph.triples", len(graph.train) + len(graph.valid) + len(graph.test))


def _post_filter_index(rec, i, args, kwargs, index):
    rec.count("graph.filter_index.keys", len(index.true_tails) + len(index.true_heads))
    rec.captured["filter_index"] = index


def _post_load_entity_text(rec, i, args, kwargs, records):
    rec.captured["metadata"] = records


def _post_resolve(rec, i, args, kwargs, resolved):
    rec.count("graph.resolve_metadata.records", len(args[0]))
    rec.count("graph.resolve_metadata.hits", len(resolved))


def _post_store(rec, i, args, kwargs, store):
    rec.captured["store"] = store


def _post_entity_tokens(rec, i, args, kwargs, out):
    meta, store = args[0], args[1]
    sequence, unknown = out
    rec.count("text.tokens", len(sequence))
    rec.count("text.unknown", unknown)
    if meta.name:
        rec.count("text.names")
        if store.phrase_key(meta.name) in store:
            rec.count("text.phrase_hits")


def _post_batch(rec, i, args, kwargs, out):
    pos, neg = args[1], args[2]
    rec.count("models.batch.entity_refs", 2 * (len(pos) + int(np.size(neg)) // 3))
    rec.count("models.batch.entity_rows", len(out[1]["entity_real"][0]))


def _post_update_rows(rec, i, args, kwargs, out):
    rec.count("optim.update_rows.rows", len(args[3]))  # (self, name, param, rows, grad_rows)


def _post_evaluate(rec, i, args, kwargs, report):
    config = report.config
    kind = "target_filtered" if config.target_filtering else config.direction
    rec.count(f"evaluation.evaluate.{kind}.ms", 1e3 * (rec.end[i] - rec.start[i]))
    rec.count(f"evaluation.evaluate.{kind}.queries", len(report.results))
    rec.captured.setdefault("reports", []).append((report, rec.captured.get("filter_index")))


def _post_sample(rec, i, args, kwargs, split):
    rec.count("sampler.sampled_heads", split.manifest["sampled_heads"])


_POST = {
    "graph.load_graph": _post_load_graph,
    "graph.build_filter_index": _post_filter_index,
    "graph.load_entity_text": _post_load_entity_text,
    "graph.resolve_metadata": _post_resolve,
    "text.load_word_embeddings": _post_store,
    "text.entity_tokens": _post_entity_tokens,
    "models.batch_loss_and_gradients": _post_batch,
    "optim.Adam.update_rows": _post_update_rows,
    "evaluation.evaluate": _post_evaluate,
    "sampler.sample_open_world": _post_sample,
}


def finish_counters(rec: Recorder) -> None:
    """Counters that need a whole command's results; run after it returns."""
    from owlink import text

    for report, index in rec.captured.get("reports", []):
        for res in report.results:
            rec.count("evaluation.attempted")
            if res.skipped:
                rec.count(f"evaluation.skip.{res.reason}")
                continue
            rec.count("evaluation.evaluated")
            if index is not None:
                h, r, t = res.triple
                true = index.tails(h, r) if report.config.direction == "tail" else index.heads(r, t)
                rec.count("evaluation.filter_set", len(true))
    store = rec.captured.get("store")
    meta = rec.captured.get("metadata")
    if store is not None:
        rec.count("text.rows", len(store))
        rec.count("text.bytes", 8 * len(store) * store.dim)  # float64 rows
        if meta is not None:
            used = set()
            for m in meta.values():
                if m.name:
                    used.add(store.phrase_key(m.name))
                    used.update(text.tokenize(m.name))
                used.update(text.tokenize(m.description))
            rec.count("text.rows_used", sum(1 for k in used if k in store))


def self_times(name_id: np.ndarray, parent: np.ndarray, dur: np.ndarray) -> np.ndarray:
    """Each span's duration minus the summed duration of its direct children."""
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    return dur - child
