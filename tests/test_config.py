"""The settings rule (``config.check_setting``), the frozen settings objects
and the import layering that lets every module call the rule."""

import ast
import math
import sys
from dataclasses import FrozenInstanceError, fields
from pathlib import Path

import numpy as np
import pytest

from owlink import models
from owlink.config import ConfigError, check_setting
from owlink.evaluation import EvalConfig, closed_world_validator, nearest_neighbors
from owlink.graph import KnowledgeGraph, Triple, Vocab
from owlink.mapping import MapHyperparams, init_map, map_loss_and_gradients
from owlink.models import KgcHyperparams, init_embeddings
from owlink.optim import Adam
from owlink.sampler import SamplerConfig, check_fraction, corrupt_metadata
from owlink.text import keep_rows
from helpers import random_model

SRC = Path(__file__).resolve().parents[1] / "src" / "owlink"


class TestCheckSetting:
    def test_out_of_range(self):
        with pytest.raises(ConfigError, match=r"^epochs must be >= 0, got -1$"):
            check_setting("epochs", -1, -1 >= 0, ">= 0")

    @pytest.mark.parametrize("value", [math.nan, np.float64("nan")])
    def test_nan_fails_its_range(self, value):
        with pytest.raises(ConfigError, match=r"^rate must be >= 0, got nan$"):
            check_setting("rate", value, value >= 0, ">= 0")

    @pytest.mark.parametrize("value", [math.inf, -math.inf])
    def test_infinite_value_in_range_rejected(self, value):
        with pytest.raises(ConfigError, match=f"^x must be finite, got {value}$"):
            check_setting("x", value, True, "anything")

    def test_in_range_passes(self):
        check_setting("x", 0.5, True, "in [0, 1)")
        check_setting("choice", "'a'", True, "one of ('a',)")

    def test_one_rule_and_one_error(self):
        assert check_setting.__module__ == "owlink.config"
        assert models.ConfigError is ConfigError and issubclass(ConfigError, ValueError)


SETTINGS = [KgcHyperparams(), MapHyperparams(), SamplerConfig(head_count=1), EvalConfig()]


class TestSettingsObjects:
    @pytest.mark.parametrize("settings", SETTINGS, ids=lambda s: type(s).__name__)
    def test_frozen(self, settings):
        for f in fields(settings):
            with pytest.raises(FrozenInstanceError):
                setattr(settings, f.name, getattr(settings, f.name))

    @pytest.mark.parametrize("build, message", [
        (lambda: KgcHyperparams(dim=0), "dim must be positive, got 0"),
        (lambda: MapHyperparams(dropout=1.0), "dropout must be in [0, 1), got 1.0"),
        (lambda: SamplerConfig(), "exactly one of head_fraction / head_count must be set"),
        (lambda: SamplerConfig(head_fraction=1.5), "head_fraction must be in [0, 1), got 1.5"),
        (lambda: SamplerConfig(head_count=-1), "head_count must be >= 0, got -1"),
        (lambda: SamplerConfig(head_count=1, closed_valid_fraction=1.0),
         "closed_valid_fraction must be in [0, 1), got 1.0"),
        (lambda: SamplerConfig(head_count=1, open_valid_fraction=math.nan),
         "open_valid_fraction must be in [0, 1), got nan"),
        (lambda: SamplerConfig(head_count=1, seed=-1), "seed must be >= 0, got -1"),
        (lambda: EvalConfig(direction="sideways"),
         "direction must be 'tail' or 'head', got 'sideways'"),
        (lambda: EvalConfig(hits_k=(1, 1, 3)),
         "hits_k must be strictly ascending and >= 1, got (1, 1, 3)"),
        (lambda: EvalConfig(filter_splits=("dev",)),
         "filter_splits must be each one of ('train', 'valid', 'test'), got dev"),
        (lambda: EvalConfig(filter_splits=("train", "tset")),
         "filter_splits must be each one of ('train', 'valid', 'test'), got train,tset"),
    ], ids=["dim", "dropout", "head-selector", "head-fraction", "head-count",
            "closed-valid-fraction", "open-valid-fraction", "seed", "direction", "hits",
            "filter-splits", "filter-splits-typo"])
    def test_checked_when_built(self, build, message):
        with pytest.raises(ConfigError) as info:
            build()
        assert str(info.value) == message


def _graph_with_valid():
    return KnowledgeGraph(Vocab(), Vocab(), [], valid=[Triple(0, 0, 0)] * 3)


class TestEveryLayerUsesTheRule:
    """Each range or choice check outside the settings objects raises the
    rule's ConfigError with the rule's message."""

    @pytest.mark.parametrize("call, message", [
        (lambda: Adam(lr=-1.0), "learning rate must be >= 0, got -1.0"),
        (lambda: Adam(lr=math.nan), "learning rate must be >= 0, got nan"),
        (lambda: Adam(lr=math.inf), "learning rate must be finite, got inf"),
        (lambda: closed_world_validator(_graph_with_valid(), math.nan),
         "valid max triples must be >= 1, got nan"),
        (lambda: closed_world_validator(_graph_with_valid(), 0),
         "valid max triples must be >= 1, got 0"),
        (lambda: np.asarray(keep_rows(np.ones((2, 2)), np.array([0]), np.array([0, 1]), 1.0)),
         "dropout_rate must be in [0, 1), got 1.0"),
        (lambda: check_fraction("1.5"), "fraction must be in [0, 1], got 1.5"),
        (lambda: corrupt_metadata({}, "some", 0.0),
         "mode must be one of ('descriptions', 'all'), got 'some'"),
        (lambda: corrupt_metadata({}, "all", 0.0, seed=-1), "seed must be >= 0, got -1"),
        (lambda: nearest_neighbors(random_model("distmult", 5, 1, 2, np.random.default_rng(0)),
                                   np.zeros(2), 0),
         "k must be between 1 and the number of entities 5, got 0"),
        (lambda: init_embeddings("nope", 3, 1, 2, np.random.default_rng(0)),
         "family must be one of ('transe', 'distmult', 'complex'), got 'nope'"),
        (lambda: init_map("quadratic", 2, 2, np.random.default_rng(0)),
         "kind must be one of ('linear', 'affine', 'mlp'), got 'quadratic'"),
        (lambda: init_map("affine", 2, 0, np.random.default_rng(0)),
         "dims must be positive, got 2 -> 0"),
        (lambda: MapHyperparams(loss="huber"),
         "loss must be one of ('squared', 'euclidean'), got 'huber'"),
        (lambda: map_loss_and_gradients(init_map("linear", 2, 2, np.random.default_rng(0)),
                                        np.ones((1, 2)), np.ones((1, 2)), mode="huber"),
         "loss must be one of ('squared', 'euclidean'), got 'huber'"),
        (lambda: _graph_with_valid().split("dev"),
         "split must be one of ('train', 'valid', 'test'), got 'dev'"),
    ], ids=["adam-negative", "adam-nan", "adam-inf", "validator-cap-nan", "validator-cap-0",
            "dropout-rate", "fraction", "corrupt-mode", "corrupt-seed", "neighbors-k", "family",
            "kind", "dims", "hyperparams-loss", "batch-loss", "split"])
    def test_config_error(self, call, message):
        with pytest.raises(ConfigError) as info:
            call()
        assert str(info.value) == message


def owlink_imports(module: str, module_level: bool) -> set[str]:
    """The owlink modules ``module`` imports (``__init__`` for the package
    itself); with ``module_level``, only the imports that run when it loads."""
    modules = {p.stem for p in SRC.glob("*.py")}

    def named(package_names: list[str]) -> set[str]:
        return {name if name in modules else "__init__" for name in package_names}

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if module_level and isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                                   ast.Lambda)):
                continue
            yield child
            yield from visit(child)

    found = set()
    for node in visit(ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found |= {a.name.split(".")[1] if "." in a.name else "__init__"
                      for a in node.names if a.name.split(".")[0] == "owlink"}
        elif isinstance(node, ast.ImportFrom):
            path = ("owlink." * (node.level > 0) + (node.module or "")).strip(".")
            if path == "owlink":
                found |= named([a.name for a in node.names])
            elif path.startswith("owlink."):
                found.add(path.split(".")[1])
    return found


class TestLayering:
    """``config`` loads no owlink module, and the lower layers never import
    the upper ones, so every module can call ``config.check_setting``."""

    def test_parser_sees_imports(self):
        assert {"evaluation", "graph", "mapping", "models", "sampler", "text", "config"} <= \
            owlink_imports("cli", module_level=True)
        assert owlink_imports("config", module_level=False) == {"__init__"}  # write_manifest

    def test_config_imports_no_owlink_module_when_loaded(self):
        assert owlink_imports("config", module_level=True) == set()

    def test_stores_imports_no_owlink_module(self):
        # graph and text both read their stores through it
        assert owlink_imports("stores", module_level=False) == set()
        assert {"stores"} <= owlink_imports("graph", True) & owlink_imports("text", True)

    @pytest.mark.parametrize("lower", ["graph", "text", "optim", "sampler"])
    def test_lower_layers_do_not_import_upper_layers(self, lower):
        upper = {"models", "mapping", "evaluation", "cli"}
        assert owlink_imports(lower, module_level=False) & upper == set()


class TestNumpyOnly:
    """owlink needs numpy and the standard library alone."""

    def test_every_import_is_owlink_numpy_or_the_standard_library(self):
        found = set()
        for path in SRC.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    found |= {a.name.split(".")[0] for a in node.names}
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    found.add(node.module.split(".")[0])
        assert "numpy" in found and "re" in found  # the walk sees both kinds
        assert found - {"owlink", "numpy"} - set(sys.stdlib_module_names) == set()
