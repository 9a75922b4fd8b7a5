"""Command-line interface: subcommand pipeline, config overrides, and exit
codes (0 ok, 2 bad arguments, 3 verification failure, 4 divergence, 5 i/o
error)."""

import argparse
import csv
import dataclasses
import json
import os
import re
import shlex
import shutil
from pathlib import Path

import numpy as np
import pytest

from particlesim import tensor as T
from particlesim.cli import main, load_config, BadConfig, build_parser, _restore_model
from particlesim.training import TrainConfig, dataset_norm_stats, one_step_eval
from particlesim.worlds import WorldSpec, read_dataset


SMALL_DATA = [
    "--set", "dataset.counts=[10]",
    "--set", "dataset.n_frames=8",
    "--set", "dataset.train_rollouts=3",
    "--set", "dataset.valid_rollouts=2",
]
SMALL_MODEL = [
    "--set", "model.d=16",
    "--set", "model.heads=2",
    "--set", "model.blocks=1",
    "--set", "model.mlp_hidden=16",
]
SMALL_TRAIN = [
    "--set", "train.epochs=1",
    "--set", "train.steps_per_epoch=3",
    "--set", "train.batch_size=2",
    "--set", "train.valid_samples=2",
]


# the options each subcommand's cmd_* reads, and no others
OPTIONS = {
    "gen-data": {"--config", "--set", "--out"},
    "train": {"--config", "--set", "--out", "--data"},
    "eval": {"--out", "--data", "--model-dir", "--samples"},
    "rollout": {"--out", "--data", "--model-dir", "--steps", "--count"},
    "bench": {"--config", "--set", "--out"},
    "verify": {"--fast"},
}


def readme_cli_commands():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("particlesim ")]


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    """gen-data + train once; downstream commands reuse the artifacts."""
    root = tmp_path_factory.mktemp("cli")
    data_out = root / "data"
    assert main(["gen-data", "--out", str(data_out)] + SMALL_DATA) == 0
    model_out = root / "model"
    assert main(["train", "--out", str(model_out), "--data", str(data_out / "dataset")]
                + SMALL_MODEL + SMALL_TRAIN) == 0
    return root


class TestConfig:
    def parse(self, argv):
        return build_parser().parse_args(argv)

    def test_defaults_load(self):
        args = self.parse(["gen-data", "--out", "x"])
        config = load_config(args)
        assert config["model"]["backbone"] == "tie"

    def test_override_precedence(self, tmp_path):
        # the file, then each --set in order
        cf = tmp_path / "c.json"
        cf.write_text(json.dumps({"model": {"backbone": "gnn", "d": 48, "heads": 8},
                                  "train": {"seed": 3}}))
        args = self.parse(["train", "--out", "x", "--data", "d", "--config", str(cf),
                           "--set", "model.d=32", "--set", "model.backbone=vanilla",
                           "--set", "train.seed=5", "--set", "train.seed=7"])
        config = load_config(args)
        assert config["model"]["d"] == 32
        assert config["model"]["backbone"] == "vanilla"
        assert config["model"]["heads"] == 8
        assert config["train"]["seed"] == 7

    def test_normalized_attention_is_a_json_bool(self):
        args = self.parse(["train", "--out", "x", "--data", "d",
                           "--set", "model.normalized_attention=false"])
        assert load_config(args)["model"]["normalized_attention"] is False

    def test_config_file_merge(self, tmp_path):
        cf = tmp_path / "c.json"
        cf.write_text(json.dumps({"model": {"blocks": 7}}))
        args = self.parse(["gen-data", "--out", "x", "--config", str(cf)])
        config = load_config(args)
        assert config["model"]["blocks"] == 7
        assert config["model"]["d"] == 64  # untouched default

    def test_unknown_keys_rejected(self):
        for override in ("model.nonsense=1", "nonsense.key=1", "model=1", "broken"):
            args = self.parse(["gen-data", "--out", "x", "--set", override])
            with pytest.raises(BadConfig):
                load_config(args)

    def test_missing_config_file(self):
        args = self.parse(["gen-data", "--out", "x", "--config", "/nope/c.json"])
        with pytest.raises(BadConfig):
            load_config(args)

    def test_each_subcommand_declares_the_options_it_reads(self):
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        declared = {name: {s for a in p._actions if not isinstance(a, argparse._HelpAction)
                           for s in a.option_strings}
                    for name, p in sub.choices.items()}
        assert declared == OPTIONS
        assert sum(len(v) for v in declared.values()) == 20

    def test_readme_commands_parse(self):
        commands = readme_cli_commands()
        assert {argv[0] for argv in commands} == set(OPTIONS)
        for argv in commands:
            build_parser().parse_args(argv)


class TestExitCodes:
    def test_unknown_subcommand_is_bad_args(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_unknown_backbone_is_bad_args(self, tmp_path, capsys, pipeline_dir):
        out = tmp_path / "m"
        assert main(["train", "--out", str(out), "--data", str(pipeline_dir / "data" / "dataset"),
                     "--set", "model.backbone=rnn"]) == 2
        assert "unknown backbone 'rnn'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("override, key", [
        ("train.seed=1.5", "seed"), ("model.precision=f16", "precision"),
        ("model.backbone=rnn", "backbone"), ("model.normalized_attention=off",
                                             "normalized_attention"),
        ("model.n_abstract=2", "n_abstract"), ("model.radius=0", "radius"),
        ("model.history=0", "history")])
    def test_bad_value_of_a_model_choice_names_its_key(self, tmp_path, capsys, pipeline_dir,
                                                        override, key):
        # the keys that the paper's comparisons vary are set like any other
        out = tmp_path / "m"
        assert main(["train", "--out", str(out), "--data", str(pipeline_dir / "data" / "dataset"),
                     "--set", override] + SMALL_MODEL + SMALL_TRAIN) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    def test_bad_model_dims_is_bad_args(self, tmp_path, capsys, pipeline_dir):
        code = main(["train", "--out", str(tmp_path / "m"),
                     "--data", str(pipeline_dir / "data" / "dataset"),
                     "--set", "model.d=10", "--set", "model.heads=3"])
        assert code == 2
        capsys.readouterr()

    @pytest.mark.parametrize("override", ["model.heads=0", "model.d=0", "model.history=0",
                                          "model.blocks=0", "model.mlp_hidden=0",
                                          "model.n_abstract=-1"])
    def test_non_positive_model_size_is_bad_args(self, tmp_path, capsys, pipeline_dir,
                                                  override):
        code = main(["train", "--out", str(tmp_path / "m"),
                     "--data", str(pipeline_dir / "data" / "dataset"), "--set", override])
        assert code == 2
        assert override.split(".")[1].split("=")[0] in capsys.readouterr().err

    def test_unknown_precision_is_bad_args(self, tmp_path, capsys, pipeline_dir):
        code = main(["train", "--out", str(tmp_path / "m"),
                     "--data", str(pipeline_dir / "data" / "dataset"),
                     "--set", "model.precision=f16"])
        assert code == 2
        err = capsys.readouterr().err
        assert "precision" in err and "f32" in err and "f64" in err

    @pytest.mark.parametrize("override", ['model.d="abc"', 'model.radius="x"',
                                          'model.history="x"', "model.history=1.5",
                                          "model.normalized_attention=1", 'train.lr="x"',
                                          "train.seed=true", "train.epochs=2.5"])
    def test_value_of_the_wrong_type_is_bad_args(self, tmp_path, capsys, pipeline_dir,
                                                  override):
        code = main(["train", "--out", str(tmp_path / "m"),
                     "--data", str(pipeline_dir / "data" / "dataset"), "--set", override])
        assert code == 2
        assert override.split(".")[1].split("=")[0] in capsys.readouterr().err

    @pytest.mark.parametrize("override", ['dataset.counts="ab"', 'dataset.stiffness="x"',
                                          'dataset.gravity=[0,"x",0]', "dataset.counts=[2.5]",
                                          "dataset.n_frames=2.5", 'dataset.train_rollouts="x"'])
    def test_dataset_value_of_the_wrong_type_is_bad_args(self, tmp_path, capsys, override):
        assert main(["gen-data", "--out", str(tmp_path), "--set", override]) == 2
        assert f"{override.split('.')[1].split('=')[0]} must be" in capsys.readouterr().err

    @pytest.mark.parametrize("override, key", [
        ("dataset.counts=[]", "counts"), ("dataset.kind=box_wash", "counts"),
        ("dataset.kind=grip_block", "counts"), ("dataset.gravity=[0,-9.8]", "gravity"),
        ("dataset.box_lo=[0,0]", "box_lo"), ("dataset.box_hi=[1,1,1,1]", "box_hi"),
        ("dataset.box_lo=[0,1,0]", "box_lo"), ("dataset.wall_period=0", "wall_period")])
    def test_malformed_world_is_bad_args(self, tmp_path, capsys, override, key):
        assert main(["gen-data", "--out", str(tmp_path)] + SMALL_DATA
                    + ["--set", override]) == 2
        assert f"error: {key}" in capsys.readouterr().err
        assert not (tmp_path / "dataset").exists()

    @pytest.mark.parametrize("key", ["train_rollouts", "valid_rollouts"])
    def test_negative_rollout_count_is_bad_args(self, tmp_path, capsys, key):
        assert main(["gen-data", "--out", str(tmp_path)] + SMALL_DATA
                    + ["--set", f"dataset.{key}=-3"]) == 2
        assert "rollout count must be >= 0, got -3" in capsys.readouterr().err
        assert not os.listdir(tmp_path)

    @pytest.mark.parametrize("train, valid", [(0, 0), (2, 1)])
    def test_fewer_than_two_frames_is_bad_args_before_any_output(self, tmp_path, capsys,
                                                                  train, valid):
        # a dataset of one frame holds no transition, and read_dataset rejects it
        out = tmp_path / "data"
        assert main(["gen-data", "--out", str(out), "--set", "dataset.counts=[4]",
                     "--set", "dataset.n_frames=1", "--set", f"dataset.train_rollouts={train}",
                     "--set", f"dataset.valid_rollouts={valid}"]) == 2
        assert "n_frames must be >= 2, got 1" in capsys.readouterr().err
        assert not out.exists()

    def test_lattice_that_does_not_fit_the_box_is_bad_args(self, tmp_path, capsys):
        big = ["--set", "dataset.counts=[4096]", "--set", "dataset.n_frames=2",
               "--set", "dataset.train_rollouts=1", "--set", "dataset.valid_rollouts=0"]
        assert main(["gen-data", "--out", str(tmp_path / "a")] + big) == 2
        err = capsys.readouterr().err
        assert "counts [4096] at spacing 0.055" in err and "lower spacing or counts" in err
        assert not (tmp_path / "a").exists()
        assert main(["gen-data", "--out", str(tmp_path / "b")] + big
                    + ["--set", "dataset.spacing=0.04"]) == 0
        assert read_dataset(tmp_path / "b" / "dataset").train[0].shape == (2, 4096, 6)

    def test_reference_world_blow_up_is_divergence(self, tmp_path, capsys):
        assert main(["gen-data", "--out", str(tmp_path)] + SMALL_DATA
                    + ["--set", "dataset.stiffness=1e12"]) == 4
        assert "reference world blew up" in capsys.readouterr().err

    @pytest.mark.parametrize("command, override", [
        ("train", "train.lr=NaN"), ("train", "model.radius=NaN"),
        ("train", "model.radius=Infinity"), ("gen-data", "dataset.dt=NaN"),
        ("gen-data", "dataset.force_radius=NaN")])
    def test_non_finite_number_is_bad_args(self, tmp_path, capsys, pipeline_dir, command,
                                           override):
        # Python's json reads NaN and Infinity
        extra = ([] if command == "gen-data"
                 else ["--data", str(pipeline_dir / "data" / "dataset")])
        out = tmp_path / "out"
        assert main([command, "--out", str(out), "--set", override] + extra) == 2
        key = override.split(".")[1].split("=")[0]
        assert f"error: {key} must be finite float" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_radius_is_bad_args_before_any_output(self, tmp_path, capsys, pipeline_dir):
        out = tmp_path / "m"
        assert main(["train", "--out", str(out), "--set", "model.radius=0",
                     "--data", str(pipeline_dir / "data" / "dataset")]) == 2
        assert "radius must be positive" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("history", [8, 9])
    def test_history_without_a_transition_is_bad_args_before_any_output(
            self, tmp_path, capsys, pipeline_dir, history):
        # the pipeline's rollouts have 8 frames: a history of 8 leaves no
        # frame to predict
        out = tmp_path / "m"
        assert main(["train", "--out", str(out), "--set", f"model.history={history}",
                     "--data", str(pipeline_dir / "data" / "dataset")]
                    + SMALL_MODEL + SMALL_TRAIN) == 2
        err = capsys.readouterr().err
        assert f"model.history {history}" in err and "n_frames 8" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["eval", "rollout"])
    def test_dataset_too_short_for_the_model_history_is_bad_args_before_any_output(
            self, tmp_path, capsys, pipeline_dir, command):
        model = tmp_path / "h2"
        assert main(["train", "--out", str(model), "--set", "model.history=2",
                     "--data", str(pipeline_dir / "data" / "dataset")]
                    + SMALL_MODEL + SMALL_TRAIN) == 0
        short = tmp_path / "short"
        assert main(["gen-data", "--out", str(short)] + SMALL_DATA
                    + ["--set", "dataset.n_frames=2"]) == 0
        capsys.readouterr()
        out = tmp_path / "out"
        assert main([command, "--out", str(out), "--model-dir", str(model),
                     "--data", str(short / "dataset")]) == 2
        err = capsys.readouterr().err
        assert "model.history 2" in err and "n_frames 2" in err
        assert not out.exists()

    @pytest.mark.parametrize("override", ['bench.d="x"', 'bench.e_values=["x"]'])
    def test_bench_value_of_the_wrong_type_is_bad_args(self, tmp_path, capsys, override):
        assert main(["bench", "--out", str(tmp_path), "--set", override]) == 2
        assert f"{override.split('.')[1].split('=')[0]} must be" in capsys.readouterr().err

    @pytest.mark.parametrize("override, message", [
        ("bench.n=0", "bench.n must be >= 1, got 0"),
        ("bench.e_values=[400,-1]", "bench.e_values must all be >= 0, got [400, -1]"),
        ("bench.trials=4", "bench.trials must be >= 5, got 4"),
        ("bench.e_values=[]", "bench.e_values must name at least one pair count"),
        ("bench.d=0", "bench.d must be >= 1, got 0"),
        ("bench.heads=0", "bench.heads must be >= 1, got 0"),
        ("bench.blocks=0", "bench.blocks must be >= 1, got 0"),
        ("bench.heads=3", "bench.heads (3) must divide bench.d (128)")])
    def test_bench_value_out_of_range_is_bad_args_before_any_output(self, tmp_path, capsys,
                                                                     override, message):
        out = tmp_path / "bench"
        assert main(["bench", "--out", str(out), "--set", override]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [("stiffness", "x"), ("counts", "ab"), ("zzz", 1)])
    def test_bad_world_spec_in_dataset_is_io_error(self, tmp_path, capsys, pipeline_dir,
                                                   key, value):
        bad = tmp_path / "bad"
        shutil.copytree(pipeline_dir / "data" / "dataset", bad)
        meta = json.loads((bad / "meta.json").read_text())
        meta["world_spec"][key] = value
        (bad / "meta.json").write_text(json.dumps(meta))
        code = main(["train", "--out", str(tmp_path / "m"), "--data", str(bad)] + SMALL_TRAIN)
        assert code == 5
        err = capsys.readouterr().err
        assert "world_spec" in err and key in err

    @pytest.mark.parametrize("n_frames", ["x", 2.5, 1, True])
    def test_bad_n_frames_in_dataset_is_io_error(self, tmp_path, capsys, pipeline_dir,
                                                 n_frames):
        bad = tmp_path / "bad"
        shutil.copytree(pipeline_dir / "data" / "dataset", bad)
        meta = json.loads((bad / "meta.json").read_text())
        meta["n_frames"] = n_frames
        (bad / "meta.json").write_text(json.dumps(meta))
        code = main(["train", "--out", str(tmp_path / "m"), "--data", str(bad)] + SMALL_TRAIN)
        assert code == 5
        assert "n_frames must be an int >= 2" in capsys.readouterr().err

    @pytest.mark.parametrize("counts", [{"train": "1", "valid": 1}, {"train": 1},
                                        {"train": 1, "valid": -1}, [3, 2]])
    def test_bad_counts_in_dataset_is_io_error(self, tmp_path, capsys, pipeline_dir, counts):
        bad = tmp_path / "bad"
        shutil.copytree(pipeline_dir / "data" / "dataset", bad)
        meta = json.loads((bad / "meta.json").read_text())
        meta["counts"] = counts
        (bad / "meta.json").write_text(json.dumps(meta))
        code = main(["train", "--out", str(tmp_path / "m"), "--data", str(bad)] + SMALL_TRAIN)
        assert code == 5
        assert "counts" in capsys.readouterr().err

    def test_meta_json_that_is_not_an_object_is_io_error(self, tmp_path, capsys, pipeline_dir):
        bad = tmp_path / "bad"
        shutil.copytree(pipeline_dir / "data" / "dataset", bad)
        (bad / "meta.json").write_text("[1, 2]")
        code = main(["train", "--out", str(tmp_path / "m"), "--data", str(bad)] + SMALL_TRAIN)
        assert code == 5
        assert str(bad / "meta.json") in capsys.readouterr().err

    @pytest.mark.parametrize("content, named", [('{"model": 5}', "'model'"),
                                                ('{"train": [1]}', "'train'"),
                                                ("[1]", "not a JSON object")])
    def test_config_file_that_is_not_an_object_is_bad_args(self, tmp_path, capsys, content,
                                                            named):
        cf = tmp_path / "c.json"
        cf.write_text(content)
        assert main(["gen-data", "--out", str(tmp_path / "o"), "--config", str(cf)]) == 2
        err = capsys.readouterr().err
        assert str(cf) in err and named in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("backbone", ["gnn", "vanilla", "tie"])
    def test_linear_mode_is_unknown_model_key(self, tmp_path, capsys, pipeline_dir, backbone):
        code = main(["train", "--out", str(tmp_path / "m"),
                     "--data", str(pipeline_dir / "data" / "dataset"),
                     "--set", f"model.backbone={backbone}",
                     "--set", "model.linear_mode=true"] + SMALL_TRAIN)
        assert code == 2
        assert "unknown model key 'linear_mode'" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, named", [
        (["gen-data", "--out", "x", "--seed", "3"], "--seed"),
        (["eval", "--out", "x", "--data", "d", "--model-dir", "m", "--precision", "f64"],
         "--precision"),
        (["rollout", "--out", "x", "--data", "d", "--model-dir", "m", "--set", "model.d=8"],
         "--set"),
        (["bench", "--out", "x", "--backbone", "gnn"], "--backbone"),
        (["verify", "--radius", "0.2"], "--radius"),
        (["train", "--out", "x", "--data", "d", "--set", "model.d_in=9"], "d_in"),
    ], ids=["gen-data", "eval", "rollout", "bench", "verify", "train"])
    def test_value_the_command_would_drop_is_bad_args(self, capsys, argv, named):
        assert main(argv) == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("argv, named, message", [
        (["eval", "--samples", "0"], "--samples", "must be >= 1, got 0"),
        (["rollout", "--count", "0"], "--count", "must be >= 1, got 0"),
        (["rollout", "--steps", "-3"], "--steps", "must be >= 0, got -3"),
        (["rollout", "--count", "x"], "--count", "invalid int value: 'x'"),
    ], ids=["samples", "count", "steps", "not an int"])
    def test_bad_count_is_bad_args(self, capsys, argv, named, message):
        argv = argv[:1] + ["--out", "x", "--data", "d", "--model-dir", "m"] + argv[1:]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"argument {named}: {message}" in err

    def test_unknown_key_in_saved_model_config_is_bad_args(self, tmp_path, capsys,
                                                            pipeline_dir):
        model = tmp_path / "model"
        shutil.copytree(pipeline_dir / "model", model)
        config = json.loads((model / "config.json").read_text())
        config["model"]["zzz"] = 1
        (model / "config.json").write_text(json.dumps(config))
        for command in ("eval", "rollout"):
            code = main([command, "--out", str(tmp_path / command),
                         "--data", str(pipeline_dir / "data" / "dataset"),
                         "--model-dir", str(model)])
            assert code == 2
            assert "zzz" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["eval", "rollout"])
    @pytest.mark.parametrize("edit, named", [
        (lambda config: "[1, 2]", "is not a JSON object"),
        (lambda config: json.dumps({**config, "train": []}), "section 'train' is not an object"),
        (lambda config: '{"model": ', "malformed config"),
    ], ids=["list", "train section", "not json"])
    def test_saved_model_config_that_is_not_an_object_is_bad_args(
            self, tmp_path, capsys, pipeline_dir, command, edit, named):
        model = tmp_path / "model"
        shutil.copytree(pipeline_dir / "model", model)
        config = json.loads((model / "config.json").read_text())
        (model / "config.json").write_text(edit(config))
        out = tmp_path / "out"
        assert main([command, "--out", str(out), "--data", str(pipeline_dir / "data" / "dataset"),
                     "--model-dir", str(model)]) == 2
        err = capsys.readouterr().err
        assert str(model / "config.json") in err and named in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["eval", "rollout"])
    @pytest.mark.parametrize("section", ["model", "train"])
    def test_saved_model_config_without_a_section_names_it(
            self, tmp_path, capsys, pipeline_dir, command, section):
        model = tmp_path / "model"
        shutil.copytree(pipeline_dir / "model", model)
        config = json.loads((model / "config.json").read_text())
        del config[section]
        (model / "config.json").write_text(json.dumps(config))
        out = tmp_path / "out"
        assert main([command, "--out", str(out), "--data", str(pipeline_dir / "data" / "dataset"),
                     "--model-dir", str(model)]) == 2
        err = capsys.readouterr().err
        assert str(model / "config.json") in err and f"no {section!r} section" in err
        assert not out.exists()

    def test_unknown_config_key_is_bad_args(self, capsys):
        assert main(["gen-data", "--out", "x", "--set", "model.zzz=1"]) == 2
        capsys.readouterr()

    def test_missing_dataset_is_io_error(self, tmp_path, capsys):
        code = main(["train", "--out", str(tmp_path / "m"), "--data", "/does/not/exist"]
                    + SMALL_TRAIN)
        assert code == 5
        capsys.readouterr()

    def test_corrupt_dataset_is_io_error(self, tmp_path, capsys, pipeline_dir):
        import shutil
        bad = tmp_path / "bad"
        shutil.copytree(pipeline_dir / "data" / "dataset", bad)
        target = bad / "train" / "rollout_00000.bin"
        raw = bytearray(target.read_bytes())
        raw[5] ^= 0xFF
        target.write_bytes(bytes(raw))
        code = main(["train", "--out", str(tmp_path / "m"), "--data", str(bad)]
                    + SMALL_TRAIN)
        assert code == 5
        capsys.readouterr()

    def eval_copied_model(self, tmp_path, pipeline_dir, corrupt) -> int:
        model = tmp_path / "model"
        shutil.copytree(pipeline_dir / "model", model)
        corrupt(model / "final.manifest.json", model / "final.blob.bin")
        return main(["eval", "--out", str(tmp_path / "eval"),
                     "--data", str(pipeline_dir / "data" / "dataset"),
                     "--model-dir", str(model), "--samples", "2"])

    def test_checkpoint_with_per_head_names_is_io_error(self, tmp_path, capsys, pipeline_dir):
        def split_heads(man, blob):  # save each per-head role one head at a time
            per_head = {}
            for name, t in T.load_checkpoint(man, blob).items():
                if re.search(r"w_r0|w_s0|w_q|w_r$|w_s$|w_m|attn_ln", name):
                    for h, part in enumerate(np.split(t.data, 2, axis=-1)):
                        per_head[f"{name}.h{h}"] = T.Tensor(part)
                else:
                    per_head[name] = t
            T.save_checkpoint(per_head, man, blob)

        assert self.eval_copied_model(tmp_path, pipeline_dir, split_heads) == 5
        assert "block0.w_q" in capsys.readouterr().err

    def test_malformed_checkpoint_manifest_is_io_error(self, tmp_path, capsys, pipeline_dir):
        def drop_size(man, blob):
            man.write_text('{"tensors": []}')

        assert self.eval_copied_model(tmp_path, pipeline_dir, drop_size) == 5
        assert "total_bytes" in capsys.readouterr().err

    def test_checkpoint_with_a_flipped_blob_byte_is_io_error(self, tmp_path, capsys,
                                                             pipeline_dir):
        def flip_byte(man, blob):
            raw = bytearray(blob.read_bytes())
            raw[len(raw) // 2] ^= 0x01
            blob.write_bytes(bytes(raw))

        assert self.eval_copied_model(tmp_path, pipeline_dir, flip_byte) == 5
        assert "SHA-256" in capsys.readouterr().err

    def test_checkpoint_manifest_without_digest_is_io_error(self, tmp_path, capsys,
                                                            pipeline_dir):
        def drop_digest(man, blob):
            manifest = json.loads(man.read_text())
            del manifest["sha256"]
            man.write_text(json.dumps(manifest))

        assert self.eval_copied_model(tmp_path, pipeline_dir, drop_digest) == 5
        assert "sha256" in capsys.readouterr().err

    @pytest.mark.parametrize("edit,message", [({"precision": "f16"}, "unknown precision"),
                                              ({"shape": [4096, 4096]}, "do not hold shape")])
    def test_checkpoint_manifest_entry_off_the_blob_is_io_error(self, tmp_path, capsys,
                                                                pipeline_dir, edit, message):
        def edit_entry(man, blob):
            manifest = json.loads(man.read_text())
            manifest["tensors"][0].update(edit)
            man.write_text(json.dumps(manifest))

        assert self.eval_copied_model(tmp_path, pipeline_dir, edit_entry) == 5
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("edit", [lambda m: [m], lambda m: {**m, "tensors": {}},
                                      lambda m: {**m, "tensors": [1]}],
                             ids=["list", "tensors an object", "entry an int"])
    def test_checkpoint_manifest_of_the_wrong_type_is_io_error(self, tmp_path, capsys,
                                                               pipeline_dir, edit):
        def replace(man, blob):
            man.write_text(json.dumps(edit(json.loads(man.read_text()))))

        assert self.eval_copied_model(tmp_path, pipeline_dir, replace) == 5
        assert "final.manifest.json" in capsys.readouterr().err

    @pytest.mark.parametrize("edit,message", [({"shape": "ab"}, "shape 'ab'"),
                                              ({"shape": [2, -1]}, "shape [2, -1]"),
                                              ({"shape": [2.0, 3]}, "shape [2.0, 3]"),
                                              ({"offset": 1.5}, "offset 1.5"),
                                              ({"nbytes": "8"}, "nbytes '8'"),
                                              ({"offset": True}, "offset True"),
                                              ({"precision": ["f32"]}, "unknown precision"),
                                              ({"name": ["x"]}, "not a string")])
    def test_checkpoint_manifest_entry_of_the_wrong_type_is_io_error(self, tmp_path, capsys,
                                                                     pipeline_dir, edit,
                                                                     message):
        names = []

        def edit_entry(man, blob):
            manifest = json.loads(man.read_text())
            manifest["tensors"][0].update(edit)
            names.append(manifest["tensors"][0]["name"])
            man.write_text(json.dumps(manifest))

        assert self.eval_copied_model(tmp_path, pipeline_dir, edit_entry) == 5
        err = capsys.readouterr().err
        assert message in err and repr(names[0]) in err and "final.manifest.json" in err

    @pytest.mark.parametrize("command", ["eval", "rollout"])
    def test_norm_stats_of_the_wrong_width_is_io_error(self, tmp_path, capsys, pipeline_dir,
                                                       command):
        model = tmp_path / "model"
        shutil.copytree(pipeline_dir / "model", model)
        stats = json.loads((model / "norm_stats.json").read_text())
        (model / "norm_stats.json").write_text(json.dumps(
            {"mean": stats["mean"][:2], "std": stats["std"][:2]}))
        out = tmp_path / "out"
        assert main([command, "--out", str(out),
                     "--data", str(pipeline_dir / "data" / "dataset"),
                     "--model-dir", str(model)]) == 5
        err = capsys.readouterr().err
        assert "norm_stats.json" in err and "7 channels" in err
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("command", ["eval", "rollout"])
    @pytest.mark.parametrize("key, value", [("std", 0.0), ("mean", float("nan")),
                                            ("std", -1.0), ("std", float("inf"))])
    def test_corrupt_norm_stats_is_io_error(self, tmp_path, capsys, pipeline_dir, command,
                                            key, value):
        model = tmp_path / "model"
        shutil.copytree(pipeline_dir / "model", model)
        stats = json.loads((model / "norm_stats.json").read_text())
        stats[key][4] = value
        (model / "norm_stats.json").write_text(json.dumps(stats))
        out = tmp_path / "out"
        assert main([command, "--out", str(out),
                     "--data", str(pipeline_dir / "data" / "dataset"),
                     "--model-dir", str(model)]) == 5
        err = capsys.readouterr().err
        assert "norm_stats.json" in err and "non-finite entry or a std below" in err
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("key", ["steps_per_epoch", "valid_samples"])
    def test_zero_steps_or_valid_samples_is_bad_args(self, tmp_path, capsys, pipeline_dir, key):
        out = tmp_path / "m"
        assert main(["train", "--out", str(out), "--data", str(pipeline_dir / "data" / "dataset")]
                    + SMALL_MODEL + SMALL_TRAIN + ["--set", f"train.{key}=0"]) == 2
        assert f"train.{key} must be >= 1" in capsys.readouterr().err
        assert not (out / "history.csv").exists()

    def test_model_dir_without_norm_stats_is_io_error(self, tmp_path, capsys, pipeline_dir):
        def drop_stats(man, blob):
            os.remove(man.parent / "norm_stats.json")

        assert self.eval_copied_model(tmp_path, pipeline_dir, drop_stats) == 5
        assert "norm_stats.json" in capsys.readouterr().err


    @pytest.mark.parametrize("command", ["train", "eval", "rollout"])
    def test_dataset_without_valid_rollouts_is_io_error(self, tmp_path, capsys, pipeline_dir,
                                                        command):
        data = tmp_path / "data"
        assert main(["gen-data", "--out", str(data)] + SMALL_DATA
                    + ["--set", "dataset.valid_rollouts=0"]) == 0
        extra = (SMALL_MODEL + SMALL_TRAIN if command == "train"
                 else ["--model-dir", str(pipeline_dir / "model")])
        out = tmp_path / "out"
        assert main([command, "--out", str(out), "--data", str(data / "dataset")] + extra) == 5
        assert "empty 'valid' split" in capsys.readouterr().err
        assert not (out / "report.json").exists() and not (out / "history.csv").exists()

    @pytest.mark.parametrize("command", ["eval", "rollout"])
    def test_non_finite_score_writes_no_report(self, tmp_path, capsys, pipeline_dir, command):
        model = tmp_path / "model"
        shutil.copytree(pipeline_dir / "model", model)
        params = T.load_checkpoint(model / "final.manifest.json", model / "final.blob.bin")
        params["dec.w2"].data[:] = np.nan
        T.save_checkpoint(params, model / "final.manifest.json", model / "final.blob.bin")
        out = tmp_path / "out"
        assert main([command, "--out", str(out),
                     "--data", str(pipeline_dir / "data" / "dataset"),
                     "--model-dir", str(model)]) == 4
        assert "non-finite" in capsys.readouterr().err
        assert not (out / "report.json").exists()


class TestPipeline:
    def test_gen_data_artifacts(self, pipeline_dir):
        data = pipeline_dir / "data"
        assert (data / "config.json").exists()
        meta = json.loads((data / "dataset" / "meta.json").read_text())
        assert meta["counts"] == {"train": 3, "valid": 2}
        assert len(list((data / "dataset" / "train").glob("*.bin"))) == 3

    def test_train_artifacts(self, pipeline_dir):
        model = pipeline_dir / "model"
        assert (model / "config.json").exists()
        assert (model / "history.csv").exists()
        assert (model / "final.manifest.json").exists()
        assert (model / "norm_stats.json").exists()
        lines = (model / "history.csv").read_text().strip().splitlines()
        assert lines[0] == "epoch,train_loss,valid_loss,lr"
        assert len(lines) == 2  # header + 1 epoch

    def test_each_config_json_holds_the_sections_its_command_read(self, tmp_path,
                                                                  pipeline_dir, capsys):
        # as the run used them: the whole world, and every training setting
        def read(path):
            return json.loads((path / "config.json").read_text())

        dataset = {**dataclasses.asdict(WorldSpec(counts=(10,))), "n_frames": 8,
                   "train_rollouts": 3, "valid_rollouts": 2, "seed": 0}
        assert read(pipeline_dir / "data") == {"dataset": json.loads(json.dumps(dataset))}
        trained = read(pipeline_dir / "model")
        assert set(trained) == {"model", "train"}
        assert trained["model"]["d"] == 16 and trained["model"]["backbone"] == "tie"
        assert trained["train"] == dataclasses.asdict(
            TrainConfig(epochs=1, steps_per_epoch=3, batch_size=2, valid_samples=2))
        for command, argv in (("eval", ["--samples", "2"]),
                              ("rollout", ["--steps", "2", "--count", "1"])):
            out = tmp_path / command
            assert main([command, "--out", str(out), "--model-dir", str(pipeline_dir / "model"),
                         "--data", str(pipeline_dir / "data" / "dataset")] + argv) == 0
            assert read(out) == trained
        capsys.readouterr()

    @pytest.mark.parametrize("command", ["eval", "rollout"])
    def test_model_dir_whose_config_holds_every_section_restores(self, tmp_path, capsys,
                                                                 pipeline_dir, command):
        # a model directory whose config.json also holds the dataset and bench
        # defaults, and a train section without valid_samples, as train wrote
        # it before each command kept only the sections it read
        model = tmp_path / "model"
        shutil.copytree(pipeline_dir / "model", model)
        config = json.loads((model / "config.json").read_text())
        del config["train"]["valid_samples"]
        config["dataset"] = {"kind": "box_splash", "counts": [64], "n_frames": 50,
                             "train_rollouts": 200, "valid_rollouts": 20, "seed": 0}
        config["bench"] = {"n": 512, "e_values": [2000, 4000, 8000, 16000], "d": 128,
                           "blocks": 4, "heads": 4, "trials": 5}
        (model / "config.json").write_text(json.dumps(config))
        argv = {"eval": ["--samples", "4"], "rollout": ["--steps", "4", "--count", "1"]}
        reports = []
        for i, model_dir in enumerate((pipeline_dir / "model", model)):
            out = tmp_path / f"out{i}"
            assert main([command, "--out", str(out), "--model-dir", str(model_dir),
                         "--data", str(pipeline_dir / "data" / "dataset")] + argv[command]) == 0
            reports.append(json.loads((out / "report.json").read_text()))
        capsys.readouterr()
        assert reports[0] == reports[1]

    def test_eval(self, pipeline_dir, capsys):
        out = pipeline_dir / "eval"
        code = main(["eval", "--out", str(out),
                     "--data", str(pipeline_dir / "data" / "dataset"),
                     "--model-dir", str(pipeline_dir / "model"),
                     "--samples", "4"])
        assert code == 0
        capsys.readouterr()
        report = json.loads((out / "report.json").read_text())
        assert np.isfinite(report["one_step"]["m3se_mean"])
        assert np.isfinite(report["constant_velocity_baseline"]["m3se_mean"])

    def test_eval_normalizes_with_the_training_stats(self, tmp_path, pipeline_dir, capsys):
        other = tmp_path / "other"
        assert main(["gen-data", "--out", str(other), "--set", "dataset.seed=1"]
                    + SMALL_DATA) == 0
        out = tmp_path / "eval"
        assert main(["eval", "--out", str(out), "--data", str(other / "dataset"),
                     "--model-dir", str(pipeline_dir / "model"), "--samples", "4"]) == 0
        capsys.readouterr()
        ds = read_dataset(other / "dataset")
        model = _restore_model(pipeline_dir / "model", ds)[0]
        train_stats = dataset_norm_stats(read_dataset(pipeline_dir / "data" / "dataset"))
        expected = one_step_eval(model, ds, train_stats, max_samples=4, seed=0).to_json()
        report = json.loads((out / "report.json").read_text())
        assert report["one_step"] == json.loads(json.dumps(expected))

    def test_rollout(self, pipeline_dir, capsys):
        out = pipeline_dir / "rollout"
        code = main(["rollout", "--out", str(out),
                     "--data", str(pipeline_dir / "data" / "dataset"),
                     "--model-dir", str(pipeline_dir / "model"),
                     "--steps", "4", "--count", "1"])
        assert code == 0
        capsys.readouterr()
        report = json.loads((out / "report.json").read_text())
        assert len(report["rollouts"]) == 1
        assert (out / "rollout_000.bin").exists()

    def test_bench_small(self, tmp_path, capsys):
        out = tmp_path / "bench"
        code = main(["bench", "--out", str(out),
                     "--set", "bench.n=24", "--set", "bench.e_values=[40,80]",
                     "--set", "bench.d=16", "--set", "bench.blocks=1",
                     "--set", "bench.heads=2", "--set", "bench.trials=5"])
        assert code == 0
        captured = capsys.readouterr()
        assert "WARNING" not in captured.out  # analytic == measured everywhere
        lines = (out / "bench.csv").read_text().strip().splitlines()
        assert lines[0] == ("backbone,n,e,macs,wall_ms_median,wall_ms_iqr,fwd_ms_median,"
                            "minor_faults,peak_alloc_mb,slots_per_pair")
        assert len(lines) == 1 + 3 * 2  # three backbones, two pair counts
        assert json.loads((out / "config.json").read_text()) == {"bench": {
            "n": 24, "e_values": [40, 80], "d": 16, "blocks": 1, "heads": 2, "trials": 5}}

    def test_bench_csv_reports_minor_faults(self, tmp_path, capsys):
        out = tmp_path / "bench"
        assert main(["bench", "--out", str(out),
                     "--set", "bench.n=12", "--set", "bench.e_values=[30]",
                     "--set", "bench.d=8", "--set", "bench.blocks=1",
                     "--set", "bench.heads=2", "--set", "bench.trials=5"]) == 0
        capsys.readouterr()
        with open(out / "bench.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 3
        for row in rows:
            assert re.fullmatch(r"\d+", row["minor_faults"]), row
            assert float(row["peak_alloc_mb"]) > 0.0, row
        # padded slots per pair of the attention backbones' pair index
        spp = {row["backbone"]: row["slots_per_pair"] for row in rows}
        assert spp["gnn"] == ""
        assert all(1.0 <= float(spp[b]) < 2.0 for b in ("tie", "vanilla")), spp

    def test_bench_mac_mismatch_fails(self, tmp_path, capsys, monkeypatch):
        from particlesim import bench
        exact = bench.count_macs

        def off_by_one(cfg, n, e):
            phases = exact(cfg, n, e)
            phases["total"] += 1
            return phases

        monkeypatch.setattr(bench, "count_macs", off_by_one)
        code = main(["bench", "--out", str(tmp_path / "bench"),
                     "--set", "bench.n=12", "--set", "bench.e_values=[30]",
                     "--set", "bench.d=8", "--set", "bench.blocks=1",
                     "--set", "bench.heads=2", "--set", "bench.trials=5"])
        assert code == 3
        assert "analytic MACs" in capsys.readouterr().err

    def test_verify_fast(self, capsys):
        assert main(["verify", "--fast"]) == 0
        out = capsys.readouterr().out
        assert out.count("[PASS]") == 6
        assert "[PASS] fused attention" in out
        assert "[PASS] pair attention" in out
