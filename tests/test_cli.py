import hashlib
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import owlink.text as text
from owlink.cli import DECLARED, OPTIONS, _sweep_point, main
from owlink.config import Option, Settings, load_config_file, stage_seed, write_manifest
from owlink.evaluation import nearest_neighbors
from owlink.graph import EntityText, load_graph, resolve_metadata
from owlink.mapping import load_map, mapped_entity_embedding
from owlink.models import load_checkpoint
from owlink.sampler import corrupt_metadata
from owlink.text import entity_rows
from helpers import graph_from_triples, store_from_vectors, write_triples
from test_text import seeded_text


@pytest.fixture
def assets(tmp_path):
    """Tiny but trainable open-world dataset on disk."""
    entities = [f"e{i}" for i in range(8)]
    train = []
    for i in range(8):
        train.append((entities[i], "next", entities[(i + 1) % 8]))
        train.append((entities[i], "skip", entities[(i + 2) % 8]))
    valid = [("x0", "next", "e1"), ("x1", "skip", "e3")]
    test = [("y0", "next", "e2"), ("y1", "skip", "e5"), ("e0", "next", "e1")]

    write_triples(tmp_path / "train.txt", train)
    write_triples(tmp_path / "valid.txt", valid)
    write_triples(tmp_path / "test.txt", test)

    rng = np.random.default_rng(0)
    tokens = [f"w{i}" for i in range(8)]
    with open(tmp_path / "vectors.txt", "w") as fh:
        for tok in tokens:
            vec = " ".join(f"{v:.6f}" for v in rng.normal(size=4))
            fh.write(f"{tok} {vec}\n")

    with open(tmp_path / "metadata.tsv", "w") as fh:
        for i, ent in enumerate(entities):
            fh.write(f"{ent}\tw{i}\tw{(i + 1) % 8} w{(i + 2) % 8}\n")
        fh.write("x0\tw0\tw1 w2\n")
        fh.write("x1\tw2\tw3\n")
        fh.write("y0\tw1\tw2 w3\n")
        fh.write("y1\tw4\tw5 w6\n")
    return tmp_path


def run(argv):
    return main([str(a) for a in argv])


def train_kgc(assets, out, extra=()):
    return run([
        "train-kgc", "--train", assets / "train.txt", "--out", out,
        "--family", "distmult", "--dim", "6", "--epochs", "15",
        "--learning-rate", "0.05", "--batch-size", "4", "--seed", "1", *extra,
    ])


class TestTrainKgc:
    def test_writes_checkpoint_log_manifest(self, assets):
        out = assets / "kgc"
        assert train_kgc(assets, out) == 0
        assert (out / "kgc.ckpt").is_file()
        assert (out / "train_log.tsv").read_text().startswith("epoch\tloss")
        manifest = (out / "manifest.txt").read_text()
        assert "command=train-kgc" in manifest
        assert "family=distmult" in manifest

    def test_same_seed_identical_checkpoint(self, assets):
        a, b = assets / "a", assets / "b"
        assert train_kgc(assets, a) == 0
        assert train_kgc(assets, b) == 0
        assert (a / "kgc.ckpt").read_bytes() == (b / "kgc.ckpt").read_bytes()

    def test_missing_train_file(self, assets, capsys):
        code = run(["train-kgc", "--train", assets / "nope.txt", "--out", assets / "o"])
        assert code == 1
        err = capsys.readouterr().err
        assert "nope.txt" in err and err.startswith("owlink:")

    def test_missing_required_option(self, assets, capsys):
        code = run(["train-kgc", "--out", assets / "o"])
        assert code == 1
        assert "--train" in capsys.readouterr().err

    def test_negative_valid_every_rejected(self, assets, capsys):
        assert train_kgc(assets, assets / "o", ["--valid-every", "-1"]) == 1
        assert "valid_every must be >= 0" in capsys.readouterr().err
        assert not (assets / "o" / "kgc.ckpt").exists()

    @pytest.mark.parametrize("cap", ["-25", "0"])
    def test_valid_max_triples_below_one_rejected(self, assets, capsys, cap):
        write_triples(assets / "valid_closed.txt", [("e0", "next", "e1"), ("e1", "skip", "e3")])
        extra = ["--valid", assets / "valid_closed.txt", "--valid-max-triples", cap]
        assert train_kgc(assets, assets / "o", extra) == 1
        assert f"valid max triples must be >= 1, got {cap}" in capsys.readouterr().err
        assert not (assets / "o" / "kgc.ckpt").exists()
        # rejected without a valid split too, so no manifest records the bad value
        assert train_kgc(assets, assets / "p", ["--valid-max-triples", cap]) == 1
        assert f"valid max triples must be >= 1, got {cap}" in capsys.readouterr().err
        assert not (assets / "p" / "manifest.txt").exists()

    def test_blank_train_file_rejected(self, assets, capsys):
        (assets / "blank.txt").write_text("\n\n\r\n\n")
        code = run(["train-kgc", "--train", assets / "blank.txt", "--out", assets / "o"])
        assert code == 1
        assert "cannot train on an empty train split" in capsys.readouterr().err
        assert not (assets / "o" / "kgc.ckpt").exists()

    def test_config_file_with_flag_override(self, assets):
        cfg = assets / "run.cfg"
        cfg.write_text("family=transe\ndim=6\nepochs=2\nlearning-rate=0.01\n"
                       "batch-size=4\nseed=3\n# a comment\n")
        out = assets / "cfg_out"
        code = run(["train-kgc", "--config", cfg, "--train", assets / "train.txt",
                    "--out", out, "--family", "distmult"])
        assert code == 0
        manifest = (out / "manifest.txt").read_text()
        assert "family=distmult" in manifest  # flag beats config
        assert "dim=6" in manifest            # config beats default


class TestPipeline:
    def test_full_open_world_pipeline(self, assets, capsys):
        kgc_out = assets / "kgc"
        assert train_kgc(assets, kgc_out) == 0

        map_out = assets / "map"
        code = run([
            "train-map", "--train", assets / "train.txt",
            "--valid", assets / "valid.txt",
            "--kgc-checkpoint", kgc_out / "kgc.ckpt",
            "--metadata", assets / "metadata.tsv",
            "--embeddings", assets / "vectors.txt",
            "--kind", "affine", "--epochs", "30", "--learning-rate", "0.01",
            "--batch-size", "4", "--seed", "1", "--out", map_out,
        ])
        assert code == 0
        assert (map_out / "map.ckpt").is_file()
        assert (map_out / "map_log.tsv").is_file()

        eval_out = assets / "eval"
        code = run([
            "eval", "--train", assets / "train.txt", "--valid", assets / "valid.txt",
            "--test", assets / "test.txt",
            "--kgc-checkpoint", kgc_out / "kgc.ckpt",
            "--map-checkpoint", map_out / "map.ckpt",
            "--metadata", assets / "metadata.tsv",
            "--embeddings", assets / "vectors.txt",
            "--out", eval_out,
        ])
        assert code == 0
        printed = capsys.readouterr().out
        assert "MRR" in printed
        report = (eval_out / "report.tsv").read_text().splitlines()
        assert len(report) == 4  # header + 3 test triples
        summary = (eval_out / "summary.txt").read_text()
        assert "mrr_filtered=" in summary and "evaluated=3" in summary

    def test_train_map_with_empty_valid_file_runs_without_validator(self, assets, capsys):
        assert train_kgc(assets, assets / "kgc") == 0
        (assets / "empty.txt").write_text("")
        code = run([
            "train-map", "--train", assets / "train.txt", "--valid", assets / "empty.txt",
            "--kgc-checkpoint", assets / "kgc" / "kgc.ckpt",
            "--metadata", assets / "metadata.tsv", "--embeddings", assets / "vectors.txt",
            "--epochs", "3", "--valid-every", "1", "--batch-size", "4", "--out", assets / "map",
        ])
        assert code == 0, capsys.readouterr().err
        rows = (assets / "map" / "map_log.tsv").read_text().splitlines()
        assert len(rows) == 4 and all(row.endswith("\t") for row in rows[1:])  # no valid_score

    def test_train_map_zero_hidden_dim_rejected(self, assets, capsys):
        assert train_kgc(assets, assets / "kgc") == 0
        code = run([
            "train-map", "--train", assets / "train.txt",
            "--kgc-checkpoint", assets / "kgc" / "kgc.ckpt",
            "--metadata", assets / "metadata.tsv", "--embeddings", assets / "vectors.txt",
            "--kind", "mlp", "--hidden-dim", "0", "--out", assets / "map",
        ])
        assert code == 1
        assert "hidden_dim must be >= 1, got 0" in capsys.readouterr().err
        assert not (assets / "map" / "map.ckpt").exists()

    def test_eval_without_map_on_closed_split(self, assets):
        kgc_out = assets / "kgc"
        assert train_kgc(assets, kgc_out) == 0
        out = assets / "eval_closed"
        code = run([
            "eval", "--train", assets / "train.txt",
            "--test", assets / "train.txt",
            "--kgc-checkpoint", kgc_out / "kgc.ckpt",
            "--filter-splits", "train", "--hits", "1,5",
            "--out", out,
        ])
        assert code == 0
        assert "hits_5=" in (out / "summary.txt").read_text()

    def test_neighbors_by_entity_and_text(self, assets, capsys):
        kgc_out = assets / "kgc"
        assert train_kgc(assets, kgc_out) == 0
        map_out = assets / "map"
        assert run([
            "train-map", "--train", assets / "train.txt",
            "--kgc-checkpoint", kgc_out / "kgc.ckpt",
            "--metadata", assets / "metadata.tsv",
            "--embeddings", assets / "vectors.txt",
            "--epochs", "10", "--out", map_out,
        ]) == 0

        out = assets / "nn1"
        code = run([
            "neighbors", "--train", assets / "train.txt",
            "--kgc-checkpoint", kgc_out / "kgc.ckpt",
            "--entity", "e0", "-k", "3", "--out", out,
        ])
        assert code == 0
        lines = (out / "neighbors.tsv").read_text().splitlines()
        assert len(lines) == 3
        # the entity itself is its own nearest neighbor at distance zero
        assert lines[0].split("\t")[1] == "e0"
        capsys.readouterr()

        out2 = assets / "nn2"
        code = run([
            "neighbors", "--train", assets / "train.txt",
            "--kgc-checkpoint", kgc_out / "kgc.ckpt",
            "--map-checkpoint", map_out / "map.ckpt",
            "--embeddings", assets / "vectors.txt",
            "--text", "w3", "--description", "w4 w5", "-k", "2", "--out", out2,
        ])
        assert code == 0
        assert len((out2 / "neighbors.tsv").read_text().splitlines()) == 2

    def test_neighbors_unknown_entity(self, assets, capsys):
        kgc_out = assets / "kgc"
        assert train_kgc(assets, kgc_out) == 0
        code = run([
            "neighbors", "--train", assets / "train.txt",
            "--kgc-checkpoint", kgc_out / "kgc.ckpt",
            "--entity", "nope", "--out", assets / "nn3",
        ])
        assert code == 1
        assert "unknown" in capsys.readouterr().err

    def test_neighbors_k_below_one_rejected(self, assets, capsys):
        assert train_kgc(assets, assets / "kgc") == 0
        code = run([
            "neighbors", "--train", assets / "train.txt",
            "--kgc-checkpoint", assets / "kgc" / "kgc.ckpt",
            "--entity", "e0", "-k", "-3", "--out", assets / "nn",
        ])
        assert code == 1
        assert "k must be between 1 and the number of entities 8, got -3" in \
            capsys.readouterr().err
        assert not (assets / "nn" / "neighbors.tsv").exists()

    def test_robustness_sweep(self, assets, capsys):
        kgc_out = assets / "kgc"
        assert train_kgc(assets, kgc_out) == 0
        out = assets / "robust"
        code = run([
            "robustness", "--train", assets / "train.txt",
            "--test", assets / "test.txt",
            "--kgc-checkpoint", kgc_out / "kgc.ckpt",
            "--metadata", assets / "metadata.tsv",
            "--embeddings", assets / "vectors.txt",
            "--epochs", "5", "--fractions", "0,1.0", "--modes", "descriptions",
            "--filter-splits", "train,test", "--out", out,
        ])
        assert code == 0
        rows = (out / "robustness.tsv").read_text().splitlines()
        # header + 2 fractions + baseline row
        assert len(rows) == 4
        assert rows[-1].startswith("random-head-baseline")


    def test_robustness_tokenizes_each_string_once(self, assets, monkeypatch):
        kgc_out = assets / "kgc"
        assert train_kgc(assets, kgc_out) == 0
        calls = Counter()
        tokenize = text.tokenize
        monkeypatch.setattr(text, "tokenize", lambda s: calls.update([s]) or tokenize(s))
        code = run([
            "robustness", "--train", assets / "train.txt", "--test", assets / "test.txt",
            "--kgc-checkpoint", kgc_out / "kgc.ckpt", "--metadata", assets / "metadata.tsv",
            "--embeddings", assets / "vectors.txt", "--epochs", "2", "--dropout", "0.3",
            "--fractions", "0,0.5", "--modes", "descriptions,all", "--out", assets / "r",
        ])
        assert code == 0
        assert "w1 w2" in calls and max(calls.values()) == 1

    def test_robustness_default_sweep_point_without_training_text(self, assets, capsys):
        """The default sweep ends at mode all, fraction 1.0, which leaves no
        training entity with text: that point trains no map, skips every open
        query as no-metadata and writes nan. valid.txt's queries are all open."""
        assert run(golden_commands(assets)["train-kgc"]) == 0, capsys.readouterr().err
        out = assets / "robust"
        code = run(["robustness", "--train", assets / "train.txt", "--test", assets / "valid.txt",
                    "--kgc-checkpoint", assets / "kgc" / "kgc.ckpt",
                    "--metadata", assets / "metadata.tsv", "--embeddings", assets / "vectors.txt",
                    "--epochs", "2", "--out", out])
        assert code == 0, capsys.readouterr().err
        rows = [line.split("\t") for line in (out / "robustness.tsv").read_text().splitlines()]
        defaults = OPTIONS["robustness"]
        points = [(mode, fraction) for mode in defaults["modes"].default
                  for fraction in defaults["fractions"].default]
        assert [(row[0], float(row[1])) for row in rows[1:-1]] == points
        assert rows[-1][0] == "random-head-baseline"
        assert "nan" not in rows[1]  # descriptions 0.0 ranks both queries
        assert rows[-2] == ["all", "1.0"] + ["nan"] * 5


class TestRankedSplitRequired:
    """eval ranks the file of --split and robustness that of --test: a
    missing flag is an error, an empty file ranks nothing."""

    def command(self, assets, name, *drop):
        assert train_kgc(assets, assets / "kgc") == 0
        files = {"--train": assets / "train.txt", "--valid": assets / "valid.txt",
                 "--test": assets / "test.txt"}
        argv = [name, "--kgc-checkpoint", assets / "kgc" / "kgc.ckpt", "--out", assets / name]
        for flag, path in files.items():
            if flag not in drop:
                argv += [flag, path]
        return argv

    @pytest.mark.parametrize("split", ["valid", "test"])
    def test_eval_without_the_split_file(self, assets, capsys, split):
        argv = self.command(assets, "eval", f"--{split}") + ["--split", split]
        assert run(argv) == 1
        assert f"missing required option --{split}" in capsys.readouterr().err
        assert not (assets / "eval").exists()

    def test_robustness_without_test_file(self, assets, capsys):
        argv = self.command(assets, "robustness", "--test") + [
            "--metadata", assets / "metadata.tsv", "--embeddings", assets / "vectors.txt"]
        assert run(argv) == 1
        assert "missing required option --test" in capsys.readouterr().err
        assert not (assets / "robustness").exists()

    def test_eval_of_an_empty_file_ranks_nothing(self, assets, capsys):
        (assets / "empty.txt").write_text("")
        argv = self.command(assets, "eval", "--valid") + [
            "--valid", assets / "empty.txt", "--split", "valid"]
        assert run(argv) == 0, capsys.readouterr().err
        summary = (assets / "eval" / "summary.txt").read_text()
        assert "evaluated=0" in summary and "mrr_filtered=nan" in summary


class TestSampleOwe:
    def test_writes_split_files(self, assets):
        out = assets / "owe"
        code = run([
            "sample-owe", "--train", assets / "train.txt",
            "--head-fraction", "0.25", "--seed", "2", "--out", out,
        ])
        assert code == 0
        for name in ("train.txt", "valid.txt", "test_tail.txt", "test_head.txt",
                     "valid_tail.txt", "valid_head.txt", "open_entities.txt"):
            assert (out / name).is_file()
        manifest = (out / "manifest.txt").read_text()
        assert "count_train_triples=" in manifest

    def test_determinism(self, assets):
        a, b = assets / "owe_a", assets / "owe_b"
        for out in (a, b):
            assert run(["sample-owe", "--train", assets / "train.txt",
                        "--head-count", "2", "--seed", "5", "--out", out]) == 0
        for name in ("train.txt", "test_tail.txt", "open_entities.txt"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_selector_required(self, assets, capsys):
        code = run(["sample-owe", "--train", assets / "train.txt",
                    "--out", assets / "owe_bad"])
        assert code == 1
        assert "head_fraction" in capsys.readouterr().err
        assert not (assets / "owe_bad").exists()

    def test_config_checked_before_the_graph_is_read(self, assets, capsys):
        code = run(["sample-owe", "--train", assets / "missing.txt", "--head-fraction", "1.5",
                    "--out", assets / "owe_bad"])
        assert code == 1
        assert "head_fraction must be in [0, 1), got 1.5" in capsys.readouterr().err
        assert not (assets / "owe_bad").exists()

    def test_negative_seed_is_rejected_before_the_output_is_made(self, assets, capsys):
        code = run(["sample-owe", "--train", assets / "train.txt", "--head-count", "2",
                    "--seed", "-1", "--out", assets / "owe_bad"])
        assert code == 1
        assert "seed must be >= 0, got -1" in capsys.readouterr().err
        assert not (assets / "owe_bad").exists()

    SPLIT_FILES = ("train.txt", "valid.txt", "test_tail.txt", "test_head.txt",
                   "valid_tail.txt", "valid_head.txt", "open_entities.txt")

    @pytest.mark.parametrize("variant, digests", [
        ("golden", ("6e22418ec3a768a6d993ca5d7ee34a0d4de4bf344a5ef2076ca91d71d3ae4f6f",
                    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
                    "36fe36f2d844c3147af7a45e86fe5252f874dbd772917e8159f41eea31bf21f7",
                    "8b2dbb5bea7db7e8b1f044ae49e90ab1e82a16d1710144adfefc624ea2482688",
                    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
                    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
                    "be47ada30b5b8752c69dbc8d09ab16e3bce905f764bf0aea4b0758fd5ad6d92e")),
        ("every-file-nonempty",
         ("8618bbcf1fde13e6def268f21295869563932651583c37ca52f4345fc42fc8e2",
          "2bab0068413112d3865cd72e5d9783ec85e3f8123a278b97dcbe314c92c51c72",
          "81f62c71b7cb7e0664acae8dbb723a45cd71dddea5616c804dabea8506d635e4",
          "ecd9aa061691b28af13e57f43cfa58f122bb81b024b76e5f3b46de502d24a858",
          "d5c421b5fe839aecde8f813ffe54a883efd14e0047162bcb3c63805849c1bf26",
          "332d55a0c82fc23a2d07de0ca98559d26f6da1863eb0f0fbeafda4a06ae4a3fd",
          "1c01cca997634c2e27da169d7a69ed52044915ea114022e2c30dde1287ffbdf2")),
    ])
    def test_golden_split_bytes(self, assets, capsys, variant, digests):
        argv = golden_commands(assets)["sample-owe"]
        if variant == "every-file-nonempty":
            argv = ["sample-owe", "--train", assets / "train.txt", "--head-count", "3",
                    "--closed-valid-fraction", "0.2", "--open-valid-fraction", "0.5",
                    "--seed", "3", "--out", assets / "owe"]
        assert run(argv) == 0, capsys.readouterr().err
        written = [hashlib.sha256((assets / "owe" / name).read_bytes()).hexdigest()
                   for name in self.SPLIT_FILES]
        assert dict(zip(self.SPLIT_FILES, written)) == dict(zip(self.SPLIT_FILES, digests))


class TestFractionChecks:
    """A drop fraction outside [0, 1] is rejected as its value is read,
    before any input is loaded or output directory made."""

    CASES = [("robustness", "fractions", "0,1.5"), ("drop-metadata", "fraction", "1.5")]

    @pytest.mark.parametrize("command, key, value", CASES)
    def test_bad_flag_is_a_usage_error(self, assets, capsys, command, key, value):
        with pytest.raises(SystemExit) as exc:
            run([command, f"--{key}", value, "--out", assets / "o"])
        assert exc.value.code == 2
        assert f"argument --{key}: fraction must be in [0, 1], got 1.5" in capsys.readouterr().err
        assert not (assets / "o").exists()

    @pytest.mark.parametrize("command, key, value", CASES)
    def test_bad_config_value_names_file_line(self, assets, capsys, command, key, value):
        (assets / "run.cfg").write_text(f"# sweep\n{key}={value}\n")
        assert run([command, "--config", assets / "run.cfg", "--out", assets / "o"]) == 1
        assert f"run.cfg:2: {key}: fraction must be in [0, 1], got 1.5" in capsys.readouterr().err
        assert not (assets / "o").exists()


class TestListChecks:
    """A comma list with no items is rejected as it is read, and a repeated
    Hits@k cut-off before anything is ranked."""

    CASES = [("eval", "filter-splits", "a comma list from {train,valid,test}"),
             ("robustness", "fractions", "a comma list of values"),
             ("robustness", "modes", "a comma list from {descriptions,all}")]

    @pytest.mark.parametrize("value", ["", ","])
    @pytest.mark.parametrize("command, key, expected", CASES)
    def test_empty_flag_is_a_usage_error(self, assets, capsys, command, key, expected, value):
        with pytest.raises(SystemExit) as exc:
            run([command, f"--{key}", value, "--out", assets / "o"])
        assert exc.value.code == 2
        assert f"argument --{key}: expected {expected}, got {value!r}" in capsys.readouterr().err
        assert not (assets / "o").exists()

    @pytest.mark.parametrize("command, key, expected", CASES)
    def test_empty_config_value_names_file_line(self, assets, capsys, command, key, expected):
        (assets / "run.cfg").write_text(f"{key}=\n")
        assert run([command, "--config", assets / "run.cfg", "--out", assets / "o"]) == 1
        assert f"run.cfg:1: {key}: expected {expected}, got ''" in capsys.readouterr().err
        assert not (assets / "o").exists()

    @pytest.mark.parametrize("command, extra", [("eval", []), ("robustness", ["--epochs", "1"])])
    def test_repeated_hits_rejected(self, assets, capsys, command, extra):
        assert train_kgc(assets, assets / "kgc") == 0
        code = run([command, "--train", assets / "train.txt", "--test", assets / "test.txt",
                    "--kgc-checkpoint", assets / "kgc" / "kgc.ckpt",
                    "--metadata", assets / "metadata.tsv", "--embeddings", assets / "vectors.txt",
                    *extra, "--hits", "1,1,3", "--out", assets / "o"])
        assert code == 1
        assert "hits_k must be strictly ascending and >= 1, got 1,1,3" in capsys.readouterr().err
        assert not list(assets.glob("o/*.tsv")) and not list(assets.glob("o/*.txt"))


class TestFilterSplitChecks:
    """A --filter-splits name that is not a split is rejected as it is read,
    before any input is loaded or output directory made."""

    def argv(self, assets, command):
        assert train_kgc(assets, assets / "kgc") == 0
        extra = ["--epochs", "1"] if command == "robustness" else []
        return [command, "--train", assets / "train.txt", "--test", assets / "test.txt",
                "--kgc-checkpoint", assets / "kgc" / "kgc.ckpt",
                "--metadata", assets / "metadata.tsv", "--embeddings", assets / "vectors.txt",
                *extra, "--out", assets / "o"]

    @pytest.mark.parametrize("command", ["eval", "robustness"])
    def test_bad_flag_is_a_usage_error(self, assets, capsys, command):
        with pytest.raises(SystemExit) as exc:
            run(self.argv(assets, command) + ["--filter-splits", "train,bogus"])
        assert exc.value.code == 2
        assert ("argument --filter-splits: expected a comma list from {train,valid,test}, "
                "got 'train,bogus'") in capsys.readouterr().err
        assert not (assets / "o").exists()

    @pytest.mark.parametrize("command", ["eval", "robustness"])
    def test_bad_config_value_names_file_line(self, assets, capsys, command):
        (assets / "run.cfg").write_text("filter-splits=train,bogus\n")
        assert run(self.argv(assets, command) + ["--config", assets / "run.cfg"]) == 1
        assert ("run.cfg:1: filter-splits: expected a comma list from {train,valid,test}, "
                "got 'train,bogus'") in capsys.readouterr().err
        assert not (assets / "o").exists()


class TestNeighborsQueryFlags:
    """neighbors takes exactly one query, --entity or --text (with an
    optional --description), and rejects any other mix before it makes its
    output directory."""

    @pytest.mark.parametrize("flags, message", [
        (["--entity", "e0", "--text", "w3"], "exactly one of --entity and --text"),
        (["--entity", "e0", "--description", "w4"], "--description needs --text"),
        ([], "exactly one of --entity and --text"),
    ])
    def test_rejected_before_the_output_directory(self, assets, capsys, flags, message):
        assert train_kgc(assets, assets / "kgc") == 0
        code = run(["neighbors", "--train", assets / "train.txt",
                    "--kgc-checkpoint", assets / "kgc" / "kgc.ckpt",
                    "--embeddings", assets / "vectors.txt", *flags, "--out", assets / "nn"])
        assert code == 1
        assert message in capsys.readouterr().err
        assert not (assets / "nn").exists()

    def test_text_query_is_the_mapped_entity_embedding(self, assets, capsys):
        # the name "w3 w6" is no vector key, so its tokens' rows stand for it
        commands = golden_commands(assets)
        for name in ("train-kgc", "train-map"):
            assert run(commands[name]) == 0, capsys.readouterr().err
        argv = commands["neighbors"]
        argv[argv.index("--text") + 1] = "w3 w6"
        argv[argv.index("-k") + 1] = "8"
        assert run(argv) == 0, capsys.readouterr().err
        kgc = load_checkpoint(str(assets / "kgc" / "kgc.ckpt"))
        store = text.load_word_embeddings(str(assets / "vectors.txt"))
        query = mapped_entity_embedding(kgc, load_map(str(assets / "map" / "map.ckpt")),
                                        EntityText("query", "w3 w6", "w4 w5"), store)
        graph = load_graph(str(assets / "train.txt"), open_world=True)
        want = "".join(f"{rank}\t{graph.entity_name(eid)}\t{dist:.6f}\n"
                       for rank, (eid, dist) in enumerate(nearest_neighbors(kgc, query, 8), 1))
        assert (assets / "nn" / "neighbors.tsv").read_text() == want

    def test_text_without_usable_tokens_rejected(self, assets, capsys):
        assert train_kgc(assets, assets / "kgc") == 0
        assert run(["train-map", "--train", assets / "train.txt",
                    "--kgc-checkpoint", assets / "kgc" / "kgc.ckpt",
                    "--metadata", assets / "metadata.tsv", "--embeddings", assets / "vectors.txt",
                    "--epochs", "1", "--out", assets / "map"]) == 0
        code = run(["neighbors", "--train", assets / "train.txt",
                    "--kgc-checkpoint", assets / "kgc" / "kgc.ckpt",
                    "--map-checkpoint", assets / "map" / "map.ckpt",
                    "--embeddings", assets / "vectors.txt", "--text", "...", "--out", assets / "nn"])
        assert code == 1
        assert "entity 'query' has no usable text" in capsys.readouterr().err
        assert not (assets / "nn" / "neighbors.tsv").exists()


class TestFailedCommandLeavesNoOutput:
    """A command makes --out only after it has read its inputs and checked
    its settings, so a rejected setting leaves no output directory."""

    @pytest.mark.parametrize("command, flags, message", [
        ("train-kgc", ["--dim", "0"], "dim must be positive, got 0"),
        ("train-kgc", ["--epochs", "-1"], "epochs must be >= 0, got -1"),
        ("train-kgc", ["--batch-size", "0"], "batch_size must be positive, got 0"),
        ("train-map", ["--dropout", "1.5"], "dropout must be in [0, 1), got 1.5"),
        ("train-map", ["--hidden-dim", "0"], "hidden_dim must be >= 1, got 0"),
        ("train-map", ["--valid-every", "-1"], "valid_every must be >= 0 (0: never), got -1"),
        ("robustness", ["--epochs", "-2"], "epochs must be >= 0, got -2"),
        ("neighbors", ["-k", "0"], "k must be between 1 and the number of entities 8, got 0"),
        ("train-kgc", ["--margin", "nan"], "margin must be positive, got nan"),
        ("train-kgc", ["--learning-rate", "nan"], "learning_rate must be >= 0, got nan"),
        ("train-kgc", ["--learning-rate", "inf"], "learning_rate must be finite, got inf"),
        ("train-kgc", ["--reg-weight", "nan"], "reg_weight must be >= 0, got nan"),
        ("train-map", ["--learning-rate", "nan"], "learning_rate must be >= 0, got nan"),
        ("train-map", ["--learning-rate", "inf"], "learning_rate must be finite, got inf"),
        ("train-map", ["--epochs", "-1"], "epochs must be >= 0, got -1"),
        ("train-map", ["--batch-size", "0"], "batch_size must be positive, got 0"),
        ("robustness", ["--learning-rate", "nan"], "learning_rate must be >= 0, got nan"),
        ("robustness", ["--learning-rate", "inf"], "learning_rate must be finite, got inf"),
        ("robustness", ["--batch-size", "0"], "batch_size must be positive, got 0"),
        ("train-kgc", ["--valid-every", "-1"], "valid_every must be >= 0 (0: never), got -1"),
        ("train-kgc", ["--margin", "inf"], "margin must be finite, got inf"),
        ("train-kgc", ["--reg-weight", "inf"], "reg_weight must be finite, got inf"),
        ("drop-metadata", ["--seed", "-1"], "seed must be >= 0, got -1"),
    ])
    def test_rejected_setting(self, assets, capsys, command, flags, message):
        commands = golden_commands(assets)
        for name in ("train-kgc", "train-map"):
            assert run(commands[name]) == 0, capsys.readouterr().err
        capsys.readouterr()
        assert run(commands[command] + flags + ["--out", assets / "failed"]) == 1
        assert capsys.readouterr().err == f"owlink: {message}\n"
        assert not (assets / "failed").exists()

    def test_open_query_without_a_map(self, assets, capsys):
        # eval's own manifest, less its map, as --config
        commands = golden_commands(assets)
        for name in ("train-kgc", "train-map", "eval"):
            assert run(commands[name]) == 0, capsys.readouterr().err
        manifest = (assets / "eval" / "manifest.txt").read_text().splitlines(keepends=True)
        config = assets / "no-map.cfg"
        config.write_text("".join(line for line in manifest if not line.startswith("map-")))
        capsys.readouterr()
        assert run(["eval", "--config", config, "--out", assets / "no-map"]) == 1
        assert capsys.readouterr().err == (
            "owlink: open-world query entity encountered but no map_model/entity_rows\n")
        assert not (assets / "no-map").exists()


class TestMapFit:
    """eval and neighbors --text check, right after loading, that the map
    reads the vectors' dimension and writes the KGC checkpoint's dimension
    and family, and name the files when it does not."""

    @pytest.mark.parametrize("case", ["vectors-dim", "kgc-dim", "paired-map", "unpaired-map"])
    @pytest.mark.parametrize("command", ["eval", "neighbors"])
    def test_mismatch_names_the_files(self, assets, capsys, case, command):
        commands = golden_commands(assets)
        for name in ("train-kgc", "train-map"):
            assert run(commands[name]) == 0, capsys.readouterr().err
        kgc, mp = assets / "kgc" / "kgc.ckpt", assets / "map" / "map.ckpt"
        vectors = assets / "vectors.txt"
        if case == "vectors-dim":
            vectors = assets / "vectors3.txt"
            vectors.write_text("".join(f"w{i} 0.1 0.2 0.3\n" for i in range(8)))
            message = f"{mp}: map input dim 4 does not match the 3-d vectors of {vectors}"
        elif case == "kgc-dim":
            assert run(commands["train-kgc"] + ["--dim", "5", "--out", assets / "kgc5"]) == 0
            kgc = assets / "kgc5" / "kgc.ckpt"
            message = f"{mp}: map output dim 6 does not match the 5-d embeddings of {kgc}"
        else:
            complex_kgc = ["--family", "complex", "--out", assets / "kgcc"]
            assert run(commands["train-kgc"] + complex_kgc) == 0
            if case == "paired-map":
                assert run(commands["train-map"] + ["--kgc-checkpoint", assets / "kgcc" / "kgc.ckpt",
                                                    "--out", assets / "mapc"]) == 0
                mp = assets / "mapc" / "map.ckpt"
                message = f"{mp}: a paired (real+imag) map does not fit the distmult model of {kgc}"
            else:
                kgc = assets / "kgcc" / "kgc.ckpt"
                message = f"{mp}: an unpaired map does not fit the complex model of {kgc}"
        capsys.readouterr()
        fit = ["--kgc-checkpoint", kgc, "--map-checkpoint", mp, "--embeddings", vectors]
        assert run(commands[command] + fit + ["--out", assets / "mismatch"]) == 1
        assert capsys.readouterr().err == f"owlink: {message}\n"
        assert not (assets / "mismatch").exists()


class TestKgcFit:
    """Every command that loads --kgc-checkpoint checks, before making --out,
    that the checkpoint has a row for each entity and relation of --train."""

    EDITS = {  # the golden train lines -> the --train lines of each case
        "more-entities": lambda lines: lines + ["e7\tnext\te8"],
        "fewer-entities": lambda lines: [x for x in lines if "e7" not in x.split("\t")],
        "more-relations": lambda lines: lines + ["e0\tback\te7"],
    }
    MESSAGE = {"more-entities": "8 entities, but {train} has 9",
               "fewer-entities": "8 entities, but {train} has 7",
               "more-relations": "2 relations, but {train} has 3"}

    @pytest.mark.parametrize("case", sorted(EDITS))
    @pytest.mark.parametrize("command", ["train-map", "eval", "robustness", "neighbors"])
    def test_mismatch_names_the_files(self, assets, capsys, case, command):
        commands = golden_commands(assets)
        for name in ("train-kgc", "train-map"):
            assert run(commands[name]) == 0, capsys.readouterr().err
        train = assets / "other-train.txt"
        lines = self.EDITS[case]((assets / "train.txt").read_text().splitlines())
        train.write_text("".join(line + "\n" for line in lines))
        capsys.readouterr()
        argv = commands[command] + ["--train", train, "--out", assets / "mismatch"]
        assert run(argv) == 1
        message = self.MESSAGE[case].format(train=train)
        assert capsys.readouterr().err == \
            f"owlink: {assets / 'kgc' / 'kgc.ckpt'}: checkpoint has {message}\n"
        assert not (assets / "mismatch").exists()


class TestSweepPoint:
    """A robustness sweep point masks the command's one row CSR; it holds
    what a CSR rebuilt from corrupt_metadata's output holds."""

    @pytest.mark.parametrize("mode", ["descriptions", "all"])
    @pytest.mark.parametrize("fraction", [0.0, 0.5, 1.0])
    def test_masks_match_a_rebuilt_csr(self, tmp_path, mode, fraction):
        vectors, metadata = seeded_text(6)
        raw = {m.entity: m for m in metadata.values()}
        raw["ghost"] = EntityText("ghost", "w1", "w2")  # not in the graph
        closed = len(raw) - 6
        train = [(f"e{i}", "r", f"e{(i + 1) % closed}") for i in range(closed)]
        test = [(f"e{i}", "r", "e0") for i in range(closed, len(raw) - 1)]  # open heads
        graph = graph_from_triples(tmp_path, train, test=test, open_world=True)
        store = store_from_vectors(vectors, 5)
        rows = entity_rows(resolve_metadata(raw, graph), store)
        corrupted = corrupt_metadata(raw, mode, fraction, seed=3)
        point = _sweep_point(rows, graph, corrupted)
        rebuilt = entity_rows(resolve_metadata(corrupted, graph), store)
        for field in ("entities", "offsets", "rows"):
            assert getattr(point, field).tolist() == getattr(rebuilt, field).tolist(), field
        assert point.store is store
        if fraction == 1.0:
            assert len(point.entities) == (len(rows.entities) if mode == "descriptions" else 0)
            assert (point.offsets[2::3] == point.offsets[3::3]).all()  # no description rows


class TestDropMetadata:
    def test_blanks_descriptions(self, assets):
        out = assets / "dropped"
        code = run(["drop-metadata", "--metadata", assets / "metadata.tsv",
                    "--mode", "descriptions", "--fraction", "1.0", "--out", out])
        assert code == 0
        for line in (out / "metadata.tsv").read_text().splitlines():
            assert line.split("\t")[2] == ""

    def test_all_mode_shrinks_file(self, assets):
        out = assets / "dropped_all"
        code = run(["drop-metadata", "--metadata", assets / "metadata.tsv",
                    "--mode", "all", "--fraction", "0.5", "--out", out])
        assert code == 0
        n_before = len((assets / "metadata.tsv").read_text().splitlines())
        n_after = len((out / "metadata.tsv").read_text().splitlines())
        assert n_after == n_before - round(0.5 * n_before)


class TestConfigHelpers:
    def test_load_config_file(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("# comment\nalpha = 1\nbeta=two words\n\n")
        assert load_config_file(str(p)) == {"alpha": "1", "beta": "two words"}

    def test_byte_order_mark_is_not_part_of_the_first_key(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("\ufeffalpha = 1\nbeta=two words\n", encoding="utf-8")
        assert load_config_file(str(p)) == {"alpha": "1", "beta": "two words"}

    def test_malformed_line(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("no equals sign\n")
        with pytest.raises(ValueError, match="c.cfg:1"):
            load_config_file(str(p))

    def test_settings_precedence(self):
        s = Settings({"dim": 4}, {"dim": 8, "epochs": 3}, {"dim": 2, "epochs": 1, "margin": 1.0})
        assert s.get("dim") == 4
        assert s.get("epochs") == 3
        assert s.get("margin") == 1.0
        assert s.resolved == {"dim": 4, "epochs": 3, "margin": 1.0}

    def test_bool_cast(self):
        option = Option("flag", bool, False)
        for text in ("1", "true", "Yes", "ON"):
            assert option.convert(text) is True
        for text in ("0", "False", "no", "off"):
            assert option.convert(text) is False

    def test_manifest_round_trip(self, tmp_path):
        path = write_manifest(tmp_path, "demo", {"b": 2, "a": 1})
        lines = path.read_text().splitlines()
        assert lines[0] == "command=demo"
        assert lines[2:] == ["a=1", "b=2"]

    def test_stage_seed_stable_and_distinct(self):
        assert stage_seed(1, "kgc") == stage_seed(1, "kgc")
        assert stage_seed(1, "kgc") != stage_seed(1, "map")
        assert stage_seed(1, "kgc") != stage_seed(2, "kgc")


class TestConfigChecks:
    """A config-file value is checked like the flag of the same name."""

    def run_with_config(self, assets, body, capsys):
        cfg = assets / "run.cfg"
        cfg.write_text(body)
        code = run(["train-kgc", "--config", cfg, "--train", assets / "train.txt",
                    "--out", assets / "o", "--epochs", "1"])
        return code, capsys.readouterr().err

    def test_bad_type_names_file_line_and_key(self, assets, capsys):
        code, err = self.run_with_config(assets, "# header\ndim=abc\n", capsys)
        assert code == 1
        assert "run.cfg:2: dim: expected an integer, got 'abc'" in err

    def test_bad_bool_spelling(self, assets, capsys):
        code, err = self.run_with_config(assets, "raw-ranks=maybe\n", capsys)
        assert code == 1
        assert "run.cfg:1: raw-ranks: expected one of 1/true/yes/on/0/false/no/off" in err

    def test_bad_choice(self, assets, capsys):
        code, err = self.run_with_config(assets, "family=transee\n", capsys)
        assert code == 1
        assert "run.cfg:1: family: expected one of {transe,distmult,complex}" in err

    def test_unknown_key(self, assets, capsys):
        code, err = self.run_with_config(assets, "learning_rate=0.1\n", capsys)
        assert code == 1
        assert "run.cfg:1: learning_rate: no owlink command has this option" in err

    def test_key_of_another_command_allowed(self, assets, capsys):
        # kind and fractions belong to train-map and robustness, not train-kgc
        code, err = self.run_with_config(assets, "kind=mlp\nfractions=0,0.5\n", capsys)
        assert code == 0, err
        manifest = (assets / "o" / "manifest.txt").read_text()
        assert "kind=" not in manifest and "fractions=" not in manifest

    def test_key_of_another_command_still_checked(self, assets, capsys):
        code, err = self.run_with_config(assets, "kind=cubic\n", capsys)
        assert code == 1
        assert "run.cfg:1: kind: expected one of {linear,affine,mlp}" in err

    def test_bad_phrase_template_names_file_line(self, assets, capsys):
        code, err = self.run_with_config(assets, "phrase-template=ENTITY/\n", capsys)
        assert code == 1
        assert ("run.cfg:1: phrase-template: phrase template 'ENTITY/' must hold one "
                "{name} field and no other replacement field") in err

    @pytest.mark.parametrize("template", ["{nam}", "{0}", "ENTITY/", "{name"])
    def test_bad_phrase_template_flag_is_a_usage_error(self, assets, capsys, template):
        kgc_out = assets / "kgc"
        assert train_kgc(assets, kgc_out) == 0
        with pytest.raises(SystemExit) as exc:
            run(["eval", "--train", assets / "train.txt", "--test", assets / "test.txt",
                 "--kgc-checkpoint", kgc_out / "kgc.ckpt", "--metadata", assets / "metadata.tsv",
                 "--embeddings", assets / "vectors.txt", "--out", assets / "e",
                 "--phrase-template", template])
        assert exc.value.code == 2
        assert f"argument --phrase-template: phrase template {template!r}" in \
            capsys.readouterr().err

    def test_bad_flag_value_is_a_usage_error(self, assets, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["train-kgc", "--dim", "abc"])
        assert exc.value.code == 2
        assert "argument --dim: expected an integer, got 'abc'" in capsys.readouterr().err

    def test_same_name_same_declaration(self):
        for options in OPTIONS.values():
            for name, option in options.items():
                other = DECLARED[name]
                assert (option.type, option.choices, option.many) == \
                       (other.type, other.choices, other.many), name


# Manifests of the seven commands on the assets fixture, with the fixture's
# directory written as <tmp>; captured before option declarations were
# derived from the config dataclasses.
GOLDEN_MANIFESTS = {
    'train-kgc': (
        'command=train-kgc\n'
        'version=0.1.0\n'
        'batch-size=4\n'
        'dim=6\n'
        'epochs=3\n'
        'family=distmult\n'
        'learning-rate=0.05\n'
        'margin=1.0\n'
        'negatives=1\n'
        'out=<tmp>/kgc\n'
        'reg-weight=0.001\n'
        'seed=1\n'
        'test=None\n'
        'train=<tmp>/train.txt\n'
        'valid=None\n'
        'valid-every=1\n'
        'valid-max-triples=2\n'
    ),
    'train-map': (
        'command=train-map\n'
        'version=0.1.0\n'
        'batch-size=4\n'
        'dropout=0.1\n'
        'embeddings=<tmp>/vectors.txt\n'
        'epochs=4\n'
        'hidden-dim=3\n'
        'kgc-checkpoint=<tmp>/kgc/kgc.ckpt\n'
        'kind=mlp\n'
        'learning-rate=0.001\n'
        'loss-mode=euclidean\n'
        'metadata=<tmp>/metadata.tsv\n'
        'out=<tmp>/map\n'
        'phrase-template={name}\n'
        'seed=0\n'
        'test=None\n'
        'train=<tmp>/train.txt\n'
        'valid=<tmp>/valid.txt\n'
        'valid-every=10\n'
    ),
    'eval': (
        'command=eval\n'
        'version=0.1.0\n'
        'direction=tail\n'
        'embeddings=<tmp>/vectors.txt\n'
        'filter-splits=train,valid,test\n'
        'hits=1,3,10\n'
        'kgc-checkpoint=<tmp>/kgc/kgc.ckpt\n'
        'map-checkpoint=<tmp>/map/map.ckpt\n'
        'metadata=<tmp>/metadata.tsv\n'
        'out=<tmp>/eval\n'
        'phrase-template={name}\n'
        'raw-ranks=False\n'
        'split=test\n'
        'target-filtering=False\n'
        'test=<tmp>/test.txt\n'
        'train=<tmp>/train.txt\n'
        'valid=<tmp>/valid.txt\n'
    ),
    'robustness': (
        'command=robustness\n'
        'version=0.1.0\n'
        'batch-size=128\n'
        'direction=tail\n'
        'dropout=0.0\n'
        'embeddings=<tmp>/vectors.txt\n'
        'epochs=2\n'
        'filter-splits=train,valid,test\n'
        'fractions=0,1.0\n'
        'hits=1,3,10\n'
        'kgc-checkpoint=<tmp>/kgc/kgc.ckpt\n'
        'kind=affine\n'
        'learning-rate=0.001\n'
        'metadata=<tmp>/metadata.tsv\n'
        'modes=descriptions\n'
        'out=<tmp>/robust\n'
        'phrase-template={name}\n'
        'raw-ranks=False\n'
        'seed=0\n'
        'target-filtering=True\n'
        'test=<tmp>/test.txt\n'
        'train=<tmp>/train.txt\n'
        'valid=None\n'
    ),
    'neighbors': (
        'command=neighbors\n'
        'version=0.1.0\n'
        'description=w4 w5\n'
        'embeddings=<tmp>/vectors.txt\n'
        'entity=None\n'
        'k=2\n'
        'kgc-checkpoint=<tmp>/kgc/kgc.ckpt\n'
        'map-checkpoint=<tmp>/map/map.ckpt\n'
        'out=<tmp>/nn\n'
        'phrase-template={name}\n'
        'test=None\n'
        'text=w3\n'
        'train=<tmp>/train.txt\n'
        'valid=None\n'
    ),
    'sample-owe': (
        'command=sample-owe\n'
        'version=0.1.0\n'
        'closed-valid-fraction=0.05\n'
        'count_closed_valid_fraction=0.05\n'
        'count_head_count=None\n'
        'count_head_fraction=0.25\n'
        'count_open_entities=2\n'
        'count_open_valid_fraction=0.1\n'
        'count_sampled_heads=2\n'
        'count_seed=2\n'
        'count_test_head_triples=4\n'
        'count_test_tail_triples=4\n'
        'count_train_triples=8\n'
        'count_valid_closed_triples=0\n'
        'count_valid_open_head_triples=0\n'
        'count_valid_open_tail_triples=0\n'
        'head-count=None\n'
        'head-fraction=0.25\n'
        'open-valid-fraction=0.1\n'
        'out=<tmp>/owe\n'
        'seed=2\n'
        'train=<tmp>/train.txt\n'
    ),
    'drop-metadata': (
        'command=drop-metadata\n'
        'version=0.1.0\n'
        'fraction=0.5\n'
        'metadata=<tmp>/metadata.tsv\n'
        'mode=all\n'
        'out=<tmp>/dropped\n'
        'seed=0\n'
    ),
}


def golden_commands(a):
    kgc, mp = a / "kgc", a / "map"
    text = ["--metadata", a / "metadata.tsv", "--embeddings", a / "vectors.txt"]
    (a / "map.cfg").write_text("dropout=0.1\nhidden-dim=3\nloss-mode=euclidean\n")
    return {
        "train-kgc": ["train-kgc", "--train", a / "train.txt", "--out", kgc,
                      "--family", "distmult", "--dim", "6", "--epochs", "3",
                      "--learning-rate", "0.05", "--batch-size", "4",
                      "--valid-max-triples", "2", "--seed", "1"],
        "train-map": ["train-map", "--config", a / "map.cfg", "--train", a / "train.txt",
                      "--valid", a / "valid.txt", "--kgc-checkpoint", kgc / "kgc.ckpt", *text,
                      "--kind", "mlp", "--epochs", "4", "--batch-size", "4", "--out", mp],
        "eval": ["eval", "--train", a / "train.txt", "--valid", a / "valid.txt",
                 "--test", a / "test.txt", "--kgc-checkpoint", kgc / "kgc.ckpt",
                 "--map-checkpoint", mp / "map.ckpt", *text, "--out", a / "eval"],
        "robustness": ["robustness", "--train", a / "train.txt", "--test", a / "test.txt",
                       "--kgc-checkpoint", kgc / "kgc.ckpt", *text, "--epochs", "2",
                       "--fractions", "0,1.0", "--modes", "descriptions",
                       "--target-filtering", "--out", a / "robust"],
        "neighbors": ["neighbors", "--train", a / "train.txt",
                      "--kgc-checkpoint", kgc / "kgc.ckpt", "--map-checkpoint", mp / "map.ckpt",
                      "--embeddings", a / "vectors.txt", "--text", "w3",
                      "--description", "w4 w5", "-k", "2", "--out", a / "nn"],
        "sample-owe": ["sample-owe", "--train", a / "train.txt", "--head-fraction", "0.25",
                       "--seed", "2", "--out", a / "owe"],
        "drop-metadata": ["drop-metadata", "--metadata", a / "metadata.tsv", "--mode", "all",
                          "--fraction", "0.5", "--out", a / "dropped"],
    }


def test_golden_manifests(assets, capsys):
    for name, argv in golden_commands(assets).items():
        assert run(argv) == 0, capsys.readouterr().err
        out = Path(str(argv[argv.index("--out") + 1]))
        text = (out / "manifest.txt").read_text().replace(str(assets), "<tmp>")
        assert text == GOLDEN_MANIFESTS[name], name


GOLDEN_OUTPUT_DIGESTS = {
    "eval/report.tsv": "c9dff35c1c6735f677c3ecd9760a6a1b15402a3e5d7ed1714c5a3618a89c1db7",
    "robust/robustness.tsv": "7336aab54c5270e50b34da9734322cc8bf929d31074b48df9c88134056413b6f",
}


def test_golden_eval_and_sweep_bytes(assets, capsys):
    """The golden eval's per-triple report and the golden sweep's table,
    byte for byte. summary.txt is not pinned: its repr floats come from
    sum(), which Python 3.12 computes with compensated summation."""
    commands = golden_commands(assets)
    for name in ("train-kgc", "train-map", "eval", "robustness"):
        assert run(commands[name]) == 0, capsys.readouterr().err
    written = {name: hashlib.sha256((assets / name).read_bytes()).hexdigest()
               for name in GOLDEN_OUTPUT_DIGESTS}
    assert written == GOLDEN_OUTPUT_DIGESTS
    summary = (assets / "eval" / "summary.txt").read_text().splitlines()
    assert [line.split("=")[0] for line in summary] == [
        "evaluated", "skipped", "mr", "mrr_raw", "mrr_filtered", "hits_1", "hits_3", "hits_10"]
    for line in summary:  # plain Python reprs, not numpy scalar reprs
        float(line.split("=")[1])


def test_golden_bytes_from_inputs_with_a_byte_order_mark(assets, capsys):
    """Every text input (triples, metadata, vectors, the --config file) read
    with a leading UTF-8 byte-order mark gives the same golden bytes."""
    commands = golden_commands(assets)
    for name in ("train.txt", "valid.txt", "test.txt", "metadata.tsv", "vectors.txt", "map.cfg"):
        path = assets / name
        path.write_text("\ufeff" + path.read_text(encoding="utf-8"), encoding="utf-8")
    for name in ("train-kgc", "train-map", "eval", "robustness"):
        assert run(commands[name]) == 0, capsys.readouterr().err
    written = {name: hashlib.sha256((assets / name).read_bytes()).hexdigest()
               for name in GOLDEN_OUTPUT_DIGESTS}
    assert written == GOLDEN_OUTPUT_DIGESTS


def test_golden_commands_rerun_from_their_manifests(assets, capsys):
    """A manifest passed back as --config reproduces its run byte for byte."""
    for name, argv in golden_commands(assets).items():
        assert run(argv) == 0, capsys.readouterr().err
        out = Path(str(argv[argv.index("--out") + 1]))
        first = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        manifest = assets / f"{name}.manifest.txt"
        manifest.write_bytes(first["manifest.txt"])
        for path in out.iterdir():
            path.unlink()
        assert run([name, "--config", manifest]) == 0, capsys.readouterr().err
        again = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        assert again == first, name


def test_manifest_of_another_command_rejected(assets, capsys):
    assert train_kgc(assets, assets / "kgc") == 0
    code = run(["eval", "--config", assets / "kgc" / "manifest.txt"])
    assert code == 1
    assert "manifest.txt:1: command: this file is for 'train-kgc', not 'eval'" in \
        capsys.readouterr().err


def test_python_dash_m_owlink_runs_the_cli():
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-m", "owlink", "--help"], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=str(src)), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: owlink") and "sample-owe" in proc.stdout
