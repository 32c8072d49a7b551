import csv
import itertools
import json
import os
import re
import threading
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from posediff.cli import main, run_estimate, run_eval, run_plot, run_synth, run_train
from posediff.config import config_hash, load_config, preset
from posediff.container import read_container, write_container
from posediff.data import load_dataset, save_dataset, synth_generate
from posediff.denoiser import Denoiser
from posediff.exceptions import ConfigError, NumericsError

from test_autodiff import composed_attention, composed_layer_norm
from test_denoiser import pin_cpus, record_pools, spy_forwards


# config keys that left the schema, each with a value it used to take
REMOVED_KEYS = [("prompt.encoder", "hashed"), ("prompt.encoder_seed", 0),
                ("train.adam_beta1", 0.9), ("train.adam_beta2", 0.999),
                ("sample.rigid_only", False), ("sample.per_frame_jpma", False),
                ("train.max_steps", 5)]

# one row per bounded config key at a first value outside its range, then the
# rules that join two model values: (the dotted key named, the values set)
OUT_OF_RANGE_CONFIG = [
    ("dtype", {"dtype": "float16"}),
    ("schedule.T", {"schedule.T": 0}),
    ("model.feature_dim", {"model.feature_dim": 0, "model.use_fpp": False}),
    ("model.heads", {"model.heads": 0}),
    ("model.heads", {"model.heads": -1}),
    ("model.blocks_spatial", {"model.blocks_spatial": -1}),
    ("model.blocks_temporal", {"model.blocks_temporal": -1}),
    ("model.blocks_spatio_temporal", {"model.blocks_spatio_temporal": -1}),
    ("model.mlp_ratio", {"model.mlp_ratio": 0}),
    ("model.mlp_ratio", {"model.mlp_ratio": -1}),
    ("data.n_frames", {"data.n_frames": 0}),
    ("data.n_joints", {"data.n_joints": 2}),
    ("data.normalize", {"data.normalize": "zscore"}),
    ("train.epochs", {"train.epochs": 0}),
    ("train.batch_size", {"train.batch_size": 0}),
    ("train.lr0", {"train.lr0": 0}),
    ("train.lr_decay", {"train.lr_decay": 0}),
    ("train.lr_decay", {"train.lr_decay": 1.5}),
    ("train.weight_decay", {"train.weight_decay": -0.1}),
    ("train.checkpoint_every", {"train.checkpoint_every": 0}),
    ("sample.hypotheses", {"sample.hypotheses": 0}),
    ("sample.iterations", {"sample.iterations": 0}),
    ("model.feature_dim", {"model.feature_dim": 63, "model.heads": 1}),  # odd
    ("model.feature_dim", {"model.feature_dim": 10, "model.heads": 4}),  # heads don't divide it
    ("model.mlp_ratio", {"model.mlp_ratio": 0.005}),  # MLP width round(0.32) = 0
]

# one row per way a checkpoint can be malformed: (the tensor, meta key or dotted
# config key damaged, how, the value set, what the error names besides the file,
# the commands that read it); "resume" is ``train --resume``
MALFORMED_CHECKPOINT = [
    ("weights/head/w", "drop", None, "'weights/head/w'", ("estimate", "resume")),
    ("weights/head/w", "shape", None, "'weights/head/w'", ("estimate", "resume")),
    ("prompt/0/modifier", "drop", None, "'prompt/0/modifier'", ("estimate", "resume")),
    ("prompt/0/modifier", "shape", None, "'prompt/0/modifier'", ("estimate", "resume")),
    ("opt/m/head/w", "drop", None, "'opt/m/head/w'", ("resume",)),
    ("opt/v/head/w", "negative", None, "'opt/v/head/w' holds a negative", ("resume",)),
    ("epoch", "meta", -1, "'epoch'", ("resume",)),
    ("model.heads", "config", None, "'model.heads'", ("resume",)),  # off the schema
    ("train.lr0", "config", 1.0, "different config", ("resume",)),  # another hash
]
CHECKPOINT_CASES = [(command, *row[:4]) for row in MALFORMED_CHECKPOINT for command in row[4]]

# one row per way an embeddings file can be malformed: (what is wrong, what the
# error names besides the file); the model is the tiny preset's, 64 wide
MALFORMED_EMBEDDINGS = [
    ("missing_file", "file not found"),
    ("texts_list", "meta.texts"),
    ("text_int", "'prompt/0/frozen'"),
    ("entry_3xD", "'prompt/2/frozen'"),
    ("two_widths", "inconsistent"),
    ("no_entries", "no prompt embeddings"),
    ("width_16", "dim 16"),
]


# one row per way a predictions file can be malformed: (the tensor or meta key
# damaged, how, what the error names besides the file, the commands that read
# it); the file is the workspace's, and ``plot`` draws seq001
MALFORMED_PREDICTIONS = [
    ("kind", "drop", "kind=None", ("eval", "plot")),
    ("pred/seq001/poses", "drop", "'seq001'", ("eval", "plot")),
    ("pred/seq001/poses", "xy", "(8, 17, 2) poses", ("eval", "plot")),
    ("pred/seq001/poses", "nan", "'pred/seq001/poses'", ("eval", "plot")),
    ("pred/seq001/poses", "zero_depth", "'seq001': degenerate depth 0 at frame 3, joint 5",
     ("plot",)),
    ("pred/seq001/poses", "negative_depth", "'seq001': degenerate depth -50 at frame 3, joint 5",
     ("plot",)),
    ("pred/seq001/poses", "coincident", "'seq001' frame 2: all joints coincide", ("eval",)),
    ("pred/seq001/poses", "huge", "'seq001' frame 2: coordinates too large", ("eval", "plot")),
    ("pred/ghost/poses", "orphan", "predictions without records ['ghost']", ("eval",)),
]
PREDICTION_CASES = [(command, *row[:3]) for row in MALFORMED_PREDICTIONS for command in row[3]]


def nested(values):
    """Dotted keys to a config overlay: {"model.heads": 0} -> {"model": {"heads": 0}}."""
    out = {}
    for key, value in values.items():
        section, _, name = key.rpartition(".")
        (out.setdefault(section, {}) if section else out)[name] = value
    return out


def tiny_cfg(**model_flags):
    cfg = load_config(None, "tiny")
    cfg["data"]["n_frames"] = 8
    cfg["model"]["feature_dim"] = 32
    cfg["model"].update(model_flags)
    cfg["train"]["checkpoint_every"] = 1000
    return cfg


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One short train run shared by the estimate/eval/plot tests."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data.ptc"
    run_synth(data, n_sequences=4, n_frames=8, n_joints=17, seed=1, motion="mixed")
    cfg = tiny_cfg()
    ckpt, trainer = run_train(cfg, data, root / "run", max_steps=8, epochs=10**6)
    pred = run_estimate(ckpt, data, root / "pred.ptc", hypotheses=2, iterations=2, seed=4)
    return {"root": root, "data": data, "ckpt": ckpt, "pred": pred, "trainer": trainer}


@pytest.fixture(scope="module")
def tiny_data(tmp_path_factory):
    """A dataset of the tiny preset's shape (16 frames, 17 joints)."""
    data = tmp_path_factory.mktemp("tiny") / "data.ptc"
    return run_synth(data, n_sequences=2, n_frames=16, n_joints=17, seed=2, motion="walk_cycle")


def write_embeddings(path, dim=32):
    """Embeddings file with a 4 x dim block for each default prompt text only."""
    from posediff.prompts import PromptSpec

    rng = np.random.default_rng(0)
    tensors, texts = {}, {}
    for k, text in enumerate(PromptSpec().texts):
        tensors[f"prompt/{k}/frozen"] = rng.standard_normal((4, dim))
        texts[f"prompt/{k}"] = text
    write_container(path, tensors, meta={"texts": texts})
    return path


def log_rows(run_dir):
    """log.csv rows without the wall-clock column."""
    with open(os.path.join(run_dir, "log.csv")) as f:
        return [row[:-1] for row in csv.reader(f)]


class TestConfig:
    def test_defaults_match_published_settings(self):
        cfg = preset("paper")
        assert cfg["sample"]["hypotheses"] == 20
        assert cfg["sample"]["iterations"] == 10
        assert cfg["train"]["lr0"] == 6e-5
        assert cfg["train"]["lr_decay"] == 0.993
        assert cfg["train"]["weight_decay"] == 0.1
        assert cfg["train"]["batch_size"] == 4
        assert cfg["train"]["epochs"] == 100
        assert cfg["data"]["n_frames"] == 243
        assert cfg["model"]["feature_dim"] == 512
        assert (cfg["model"]["blocks_spatial"], cfg["model"]["blocks_temporal"],
                cfg["model"]["blocks_spatio_temporal"]) == (1, 1, 3)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"modle": {}}))
        with pytest.raises(ConfigError, match="modle"):
            load_config(path)

    def test_nested_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"train": {"lr": 1.0}}))
        with pytest.raises(ConfigError, match="train.lr"):
            load_config(path)

    @pytest.mark.parametrize(
        "override, key",
        [({"sample": {"deterministic": "no"}}, "sample.deterministic"),
         ({"model": {"heads": "4"}}, "model.heads"),
         ({"model": {"heads": 4.0}}, "model.heads"),
         ({"model": {"use_fpc": 1}}, "model.use_fpc"),
         ({"train": {"lr0": True}}, "train.lr0"),
         ({"data": {"normalize": 1}}, "data.normalize"),
         ({"prompt": {"embeddings_file": 3}}, "prompt.embeddings_file"),
         ({"dtype": None}, "dtype"),
         ({"seed": False}, "seed"),
         ({"model": {"mlp_ratio": float("inf")}}, "model.mlp_ratio"),
         ({"train": {"weight_decay": float("nan")}}, "train.weight_decay")],
    )
    def test_value_of_wrong_json_type_rejected(self, tmp_path, override, key):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(override))
        with pytest.raises(ConfigError, match=f"'{re.escape(key)}' must be"):
            load_config(path)

    def test_value_types_accepted(self, tmp_path):
        path = tmp_path / "ok.json"
        path.write_text(json.dumps({
            "train": {"lr0": 1},
            "prompt": {"embeddings_file": "emb.ptc"},
        }))
        cfg = load_config(path)
        assert cfg["train"]["lr0"] == 1 and cfg["prompt"]["embeddings_file"] == "emb.ptc"
        assert load_config()["prompt"]["embeddings_file"] is None

    def test_wrong_type_exits_one(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"model": {"heads": "4"}}))
        assert main(["train", "--preset", "tiny", "--config", str(config), "--data",
                     str(tmp_path / "d.ptc"), "--out", str(tmp_path / "run")]) == 1
        assert "'model.heads'" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", REMOVED_KEYS)
    def test_removed_key_exits_one(self, tmp_path, capsys, key, value):
        section, name = key.split(".")
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({section: {name: value}}))
        capsys.readouterr()
        assert main(["train", "--preset", "tiny", "--config", str(config), "--data",
                     str(tmp_path / "d.ptc"), "--out", str(tmp_path / "run")]) == 1
        assert f"unknown config key {key!r}" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize(
        "key, values", OUT_OF_RANGE_CONFIG,
        ids=[",".join(f"{k}={v}" for k, v in values.items()) for _, values in OUT_OF_RANGE_CONFIG],
    )
    def test_out_of_range_value_exits_one(self, tmp_path, capsys, tiny_data, key, values):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(nested(values)))
        with pytest.raises(ConfigError, match=f"config key {re.escape(repr(key))} must "):
            load_config(config, "tiny")
        capsys.readouterr()
        run = tmp_path / "run"
        assert main(["train", "--preset", "tiny", "--config", str(config), "--data",
                     str(tiny_data), "--out", str(run), "--steps", "1"]) == 1
        assert repr(key) in capsys.readouterr().err
        assert not run.exists()

    def test_every_bad_value_is_named(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(nested(
            {"dtype": "float16", "model.heads": 0, "train.epochs": 0}
        )))
        with pytest.raises(ConfigError) as err:
            load_config(config)
        assert all(k in str(err.value) for k in ("'dtype'", "'model.heads'", "'train.epochs'"))

    def test_hash_stable_and_sensitive(self):
        a, b = preset("paper"), preset("paper")
        assert config_hash(a) == config_hash(b)
        b["seed"] = 1
        assert config_hash(a) != config_hash(b)

    def test_presets(self):
        tiny = preset("tiny")
        assert tiny["model"]["feature_dim"] == 64
        assert tiny["data"]["n_frames"] == 16
        paper = preset("paper")
        assert paper == load_config()  # no preset named: paper
        with pytest.raises(ConfigError):
            preset("huge")

    def test_readme_schema_is_the_default_config(self):
        readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                              "README.md")
        with open(readme) as f:
            section = f.read().split("\n## Configuration\n", 1)[1]
        block = section.split("```json\n", 1)[1].split("```", 1)[0]
        assert json.loads(block) == preset("paper")

    def test_file_encoder_runtime(self, tmp_path):
        from posediff.config import build_runtime

        emb = write_embeddings(tmp_path / "emb.ptc")
        cfg = tiny_cfg()
        cfg["prompt"]["embeddings_file"] = str(emb)
        runtime = build_runtime(cfg)
        assert runtime.bank.assemble("motion").tokens.shape == (77, 32)

        cfg["model"]["feature_dim"] = 64  # mismatched embedding width
        with pytest.raises(ConfigError, match="dim"):
            build_runtime(cfg)


class TestSynthCommand:
    def test_writes_loadable_dataset(self, tmp_path):
        out = tmp_path / "d.ptc"
        rc = main(["synth", "--out", str(out), "--sequences", "2", "--frames", "6",
                   "--seed", "3", "--characters", "2"])
        assert rc == 0
        records = load_dataset(out)
        assert len(records) == 4  # 2 singles + 2-character scene
        assert sum(1 for r in records if r.scene) == 2

    @pytest.mark.parametrize("flag", ["--sequences", "--frames"])
    def test_zero_count_exits_one(self, tmp_path, capsys, flag):
        out = tmp_path / "d.ptc"
        capsys.readouterr()
        assert main(["synth", "--out", str(out), flag, "0"]) == 1
        assert flag in capsys.readouterr().err
        assert not out.exists()

    def test_byte_identical_under_seed(self, tmp_path):
        a, b = tmp_path / "a.ptc", tmp_path / "b.ptc"
        run_synth(a, 2, 6, 17, seed=3, motion="mixed")
        run_synth(b, 2, 6, 17, seed=3, motion="mixed")
        assert a.read_bytes() == b.read_bytes()


class TestTrainCommand:
    def test_log_rows_equal_steps(self, workspace):
        log = os.path.join(workspace["root"], "run", "log.csv")
        with open(log) as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == workspace["trainer"].opt.step_count == 8
        assert [r["step"] for r in rows] == [str(i) for i in range(1, 9)]

    @pytest.mark.parametrize("flag, value", [("--epochs", "0"), ("--steps", "-5"),
                                             ("--hypotheses", "0"), ("--iterations", "-2"),
                                             ("--characters", "-1")])
    def test_step_flag_below_one_exits_one(self, tmp_path, capsys, monkeypatch, tiny_data,
                                           flag, value):
        """A count flag below its floor is judged before anything is read or
        written: the estimate flags before the checkpoint loads."""
        from posediff import cli

        def refuse(path):
            raise AssertionError("checkpoint loaded")

        monkeypatch.setattr(cli, "_load_model", refuse)
        estimate = ["estimate", "--checkpoint", str(tmp_path / "ckpt.ptc"),
                    "--data", str(tiny_data)]
        command, floor = {
            "--hypotheses": (estimate, 1), "--iterations": (estimate, 1),
            "--characters": (["synth"], 0),
        }.get(flag, (["train", "--preset", "tiny", "--data", str(tiny_data)], 1))
        out = tmp_path / "out"
        capsys.readouterr()
        assert main(command + ["--out", str(out), flag, value]) == 1
        assert f"{flag} must be >= {floor}" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_dataset_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="synth"):
            run_train(tiny_cfg(), tmp_path / "none.ptc", tmp_path / "out")

    def test_frame_mismatch_is_actionable(self, tmp_path):
        data = tmp_path / "d.ptc"
        save_dataset(data, synth_generate(1, 12, 17, seed=0))
        with pytest.raises(ConfigError, match="data.n_frames"):
            run_train(tiny_cfg(), data, tmp_path / "out", max_steps=1)

    def test_resume_reproduces_uninterrupted_run(self, tmp_path):
        data = tmp_path / "d.ptc"
        save_dataset(data, synth_generate(4, 8, 17, seed=2))
        cfg = tiny_cfg()
        cfg["train"]["checkpoint_every"] = 1

        run_train(cfg, data, tmp_path / "full", epochs=4)
        run_train(cfg, data, tmp_path / "split", epochs=2)
        run_train(cfg, data, tmp_path / "split", resume=True, epochs=4)

        a = (tmp_path / "full" / "ckpt_last.ptc").read_bytes()
        b = (tmp_path / "split" / "ckpt_last.ptc").read_bytes()
        assert a == b
        assert log_rows(tmp_path / "split") == log_rows(tmp_path / "full")
        assert len(log_rows(tmp_path / "full")) == 1 + 4

    def test_resume_inside_an_epoch_matches_uninterrupted_run(self, tmp_path):
        data = tmp_path / "d.ptc"
        save_dataset(data, synth_generate(8, 8, 17, seed=2))  # 2 steps per epoch
        cfg = tiny_cfg()
        run_train(cfg, data, tmp_path / "full", max_steps=4)
        run_train(cfg, data, tmp_path / "split", max_steps=3)
        _, trainer = run_train(cfg, data, tmp_path / "split", resume=True, max_steps=4)
        assert (trainer.epoch, trainer.epoch_step, trainer.opt.step_count) == (2, 0, 4)

        full, split = tmp_path / "full", tmp_path / "split"
        assert sorted(os.listdir(full)) == sorted(os.listdir(split))
        for name in os.listdir(full):
            if name != "log.csv":
                assert (full / name).read_bytes() == (split / name).read_bytes(), name
        assert log_rows(split) == log_rows(full)

    def test_resume_at_step_target_changes_nothing(self, tmp_path, capsys):
        data = tmp_path / "d.ptc"
        save_dataset(data, synth_generate(8, 8, 17, seed=2))
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"data": {"n_frames": 8}, "model": {"feature_dim": 32}}))
        run = tmp_path / "run"
        args = ["train", "--preset", "tiny", "--config", str(config),
                "--data", str(data), "--out", str(run), "--steps", "4"]
        assert main(args) == 0
        before = {p.name: p.read_bytes() for p in run.iterdir()}
        capsys.readouterr()
        assert main(args + ["--resume"]) == 0
        assert {p.name: p.read_bytes() for p in run.iterdir()} == before
        out = capsys.readouterr().out
        assert "trained 4 steps" in out and "nan" not in out

    @staticmethod
    def one_step_run(tmp_path):
        """Train one step through ``main``; returns its train args and last checkpoint."""
        data = tmp_path / "d.ptc"
        save_dataset(data, synth_generate(2, 8, 17, seed=2))
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"data": {"n_frames": 8}, "model": {"feature_dim": 32}}))
        args = ["train", "--preset", "tiny", "--config", str(config),
                "--data", str(data), "--out", str(tmp_path / "run")]
        assert main(args + ["--steps", "1"]) == 0
        return args, tmp_path / "run" / "ckpt_last.ptc"

    @pytest.mark.parametrize("moment", ["m", "v"])
    def test_resume_rejects_missing_optimizer_moment(self, tmp_path, capsys, moment):
        args, last = self.one_step_run(tmp_path)
        tensors, meta = read_container(last)
        dropped = sorted(k for k in tensors if k.startswith(f"opt/{moment}/"))[0]
        del tensors[dropped]
        write_container(last, tensors, meta)
        capsys.readouterr()
        assert main(args + ["--resume", "--steps", "2"]) == 1
        assert dropped in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value",
        [("opt_step", None), ("epoch", "1"), ("epoch_step", 0.0), ("run_config", None),
         # one batch per epoch: 2 samples, batch size 4
         ("opt_step", -1), ("epoch", -1), ("epoch_step", -1), ("epoch_step", 1),
         ("epoch_step", 99)],
    )
    def test_resume_rejects_malformed_meta(self, tmp_path, capsys, key, value):
        args, last = self.one_step_run(tmp_path)
        tensors, meta = read_container(last)
        if value is None:
            del meta[key]
        else:
            meta[key] = value
        write_container(last, tensors, meta)
        written = {p.name: p.read_bytes() for p in last.parent.iterdir()}
        capsys.readouterr()
        assert main(args + ["--resume", "--steps", "2"]) == 1
        assert key in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in last.parent.iterdir()} == written

    def test_resume_rejects_empty_run_config(self, tmp_path, capsys):
        args, last = self.one_step_run(tmp_path)
        tensors, meta = read_container(last)
        meta["run_config"] = {}
        write_container(last, tensors, meta)
        capsys.readouterr()
        assert main(args + ["--resume", "--steps", "2"]) == 1
        err = capsys.readouterr().err
        assert "different config" in err and "missing config key 'model'" in err

    @pytest.mark.parametrize(
        "key, value", [("model.heads", None), ("schedule.kind", "cosine"), ("train.bogus", 1)]
    )
    def test_resume_names_off_schema_stored_keys(self, tmp_path, capsys, key, value):
        args, last = self.one_step_run(tmp_path)
        tensors, meta = read_container(last)
        section, name = key.split(".")
        if value is None:
            del meta["run_config"][section][name]
        else:
            meta["run_config"][section][name] = value
        write_container(last, tensors, meta)
        capsys.readouterr()
        assert main(args + ["--resume", "--steps", "2"]) == 1
        assert repr(key) in capsys.readouterr().err

    def test_action_missing_from_embeddings_file(self, tmp_path, capsys):
        data = tmp_path / "d.ptc"
        save_dataset(data, synth_generate(1, 8, 17, seed=2, motion_kind="walk_cycle"))
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "data": {"n_frames": 8}, "model": {"feature_dim": 32},
            "prompt": {"embeddings_file": str(write_embeddings(tmp_path / "emb.ptc"))},
        }))
        capsys.readouterr()
        assert main(["train", "--preset", "tiny", "--config", str(config), "--data", str(data),
                     "--out", str(tmp_path / "run"), "--steps", "1"]) == 1
        assert "walk_cycle" in capsys.readouterr().err

    def test_resume_builds_the_model_from_the_checkpoint(self, tmp_path, monkeypatch):
        """``train --resume`` seeds no weights, and still matches the uninterrupted run."""
        from posediff import denoiser

        data = tmp_path / "d.ptc"
        save_dataset(data, synth_generate(8, 8, 17, seed=2))  # 2 steps per epoch
        cfg = tiny_cfg()
        run_train(cfg, data, tmp_path / "full", max_steps=5)
        run_train(cfg, data, tmp_path / "split", max_steps=3)

        def refuse(*args, **kwargs):
            raise AssertionError("init_denoiser_weights called")

        monkeypatch.setattr(denoiser, "init_denoiser_weights", refuse)
        run_train(cfg, data, tmp_path / "split", resume=True, max_steps=5)
        full, split = tmp_path / "full", tmp_path / "split"
        assert (full / "ckpt_last.ptc").read_bytes() == (split / "ckpt_last.ptc").read_bytes()
        assert log_rows(split) == log_rows(full)

    def test_resume_rejects_config_change(self, tmp_path):
        data = tmp_path / "d.ptc"
        save_dataset(data, synth_generate(2, 8, 17, seed=2))
        cfg = tiny_cfg()
        run_train(cfg, data, tmp_path / "out", epochs=1)
        changed = tiny_cfg()
        changed["train"]["lr0"] = 123e-5
        with pytest.raises(ConfigError, match="different config"):
            run_train(changed, data, tmp_path / "out", resume=True, epochs=2)


class TestEstimateCommand:
    def test_prediction_container_layout(self, workspace):
        tensors, meta = read_container(workspace["pred"])
        assert meta["kind"] == "predictions"
        assert meta["hypotheses"] == 2 and meta["iterations"] == 2
        assert meta["config_hash"] == config_hash(meta["config"])
        for rec in load_dataset(workspace["data"]):
            poses = tensors[f"pred/{rec.seq_id}/poses"]
            idx = tensors[f"pred/{rec.seq_id}/per_joint_hypothesis_index"]
            assert poses.shape == (8, 17, 3)
            assert idx.shape == (17,)
            assert np.all((idx >= 0) & (idx < 2))

    def test_same_seed_is_byte_identical(self, workspace, tmp_path):
        p1 = tmp_path / "p1.ptc"
        p2 = tmp_path / "p2.ptc"
        run_estimate(workspace["ckpt"], workspace["data"], p1, hypotheses=2, iterations=1, seed=9)
        run_estimate(workspace["ckpt"], workspace["data"], p2, hypotheses=2, iterations=1, seed=9)
        assert p1.read_bytes() == p2.read_bytes()
        p3 = tmp_path / "p3.ptc"
        run_estimate(workspace["ckpt"], workspace["data"], p3, hypotheses=2, iterations=1, seed=10)
        assert p1.read_bytes() != p3.read_bytes()

    def test_per_frame_jpma_flag(self, workspace, tmp_path):
        for flag, shape in (([], (17,)), (["--per-frame-jpma"], (8, 17))):
            out = tmp_path / f"p{len(flag)}.ptc"
            assert main(["estimate", "--checkpoint", str(workspace["ckpt"]),
                         "--data", str(workspace["data"]), "--out", str(out),
                         "--hypotheses", "3", "--iterations", "1", *flag]) == 0
            tensors, meta = read_container(out)
            assert meta["per_frame_jpma"] is bool(flag)
            for rec in load_dataset(workspace["data"]):
                idx = tensors[f"pred/{rec.seq_id}/per_joint_hypothesis_index"]
                assert idx.shape == shape
                assert np.all((idx >= 0) & (idx < 3) & (idx == np.round(idx)))

    def test_h1_m1_fast_mode(self, workspace, tmp_path):
        out = tmp_path / "fast.ptc"
        run_estimate(workspace["ckpt"], workspace["data"], out, hypotheses=1, iterations=1, seed=0)
        tensors, _ = read_container(out)
        idx = tensors["pred/seq000/per_joint_hypothesis_index"]
        assert np.all(idx == 0)

    def test_thread_env_does_not_change_output(self, workspace, tmp_path, monkeypatch):
        from posediff import denoiser

        p1 = tmp_path / "p1.ptc"
        run_estimate(workspace["ckpt"], workspace["data"], p1, hypotheses=5, iterations=2, seed=5)
        # tiny_cfg's forward is 8 frames x 17 joints x 32 features = 4352, and
        # 5 hypotheses on 2 or 3 threads make shares of 2 or 3: gate 0 runs a
        # hypothesis per pool task, gate 4353 one share per thread
        for gate in (0, 4353):
            monkeypatch.setattr(denoiser, "PARALLEL_MIN_ELEMENTS", gate)
            for threads in (1, 2, 3):
                pin_cpus(monkeypatch, threads)
                p2 = tmp_path / f"p{threads}.ptc"
                run_estimate(workspace["ckpt"], workspace["data"], p2, hypotheses=5,
                             iterations=2, seed=5)
                assert p1.read_bytes() == p2.read_bytes(), (gate, threads)

    @pytest.mark.parametrize("threads, max_workers", [(2, 2), (8, 3)])
    def test_one_pool_serves_the_whole_run(self, workspace, tmp_path, monkeypatch, threads,
                                           max_workers):
        from posediff import denoiser

        pools = record_pools(monkeypatch)
        monkeypatch.setattr(denoiser, "PARALLEL_MIN_ELEMENTS", 0)
        pin_cpus(monkeypatch, threads)
        _, forwards = spy_forwards(monkeypatch)
        run_estimate(workspace["ckpt"], workspace["data"], tmp_path / "p.ptc", hypotheses=3,
                     iterations=3, seed=5)
        assert sum(forwards.values()) == 4 * 3 * 3  # records x steps x hypotheses
        assert pools == [max_workers]

    def spied_run(self, workspace, tmp_path, monkeypatch):
        """An H=2, M=3 estimate of the 4 records, one hypothesis per task on 2
        workers that each run a forward in the first step, under ``spy_forwards``."""
        from posediff import denoiser

        monkeypatch.setattr(denoiser, "PARALLEL_MIN_ELEMENTS", 0)
        pin_cpus(monkeypatch, 2)
        allocations, forwards = spy_forwards(monkeypatch, meet=2)
        run_estimate(workspace["ckpt"], workspace["data"], tmp_path / "p.ptc", hypotheses=2,
                     iterations=3, seed=5)
        assert sum(forwards.values()) == 4 * 3 * 2
        return allocations, forwards

    def test_no_arena_buffer_is_allocated_after_the_first_step(self, workspace, tmp_path,
                                                               monkeypatch):
        allocations, forwards = self.spied_run(workspace, tmp_path, monkeypatch)
        workers = set(forwards) - {threading.current_thread()}
        assert {thread for thread, _, _ in allocations} >= workers and len(workers) == 2
        assert {step for _, step, _ in allocations} == {1}  # the caller's arena too

    def test_pool_threads_live_as_long_as_the_run(self, workspace, tmp_path, monkeypatch):
        from posediff import autodiff

        before = set(threading.enumerate())
        _, forwards = self.spied_run(workspace, tmp_path, monkeypatch)
        workers = set(forwards) - {threading.current_thread()}
        assert len(workers) == 2  # the same 2 for all 12 steps
        assert not any(w.is_alive() for w in workers)
        assert set(threading.enumerate()) == before
        assert getattr(autodiff._state, "arena", None) is None

    def test_failing_worker_leaves_no_thread_or_file(self, workspace, tmp_path, monkeypatch,
                                                     capsys):
        from posediff import denoiser

        calls, forward = itertools.count(1), Denoiser._forward
        caller = threading.current_thread()

        def third_fails(self, *args):
            if next(calls) == 3:
                assert threading.current_thread() is not caller
                raise NumericsError("injected")
            return forward(self, *args)

        monkeypatch.setattr(Denoiser, "_forward", third_fails)
        monkeypatch.setattr(denoiser, "PARALLEL_MIN_ELEMENTS", 0)
        pin_cpus(monkeypatch, 2)
        before = set(threading.enumerate())
        out = tmp_path / "p.ptc"
        assert main(["estimate", "--checkpoint", str(workspace["ckpt"]),
                     "--data", str(workspace["data"]), "--out", str(out),
                     "--hypotheses", "2", "--iterations", "2"]) == 2
        assert "injected" in capsys.readouterr().err
        assert not out.exists()
        assert set(threading.enumerate()) == before

    @pytest.mark.parametrize(
        "env, cpus, workers",
        [({}, 2, 1), ({}, 8, 1), ({"MKL_NUM_THREADS": "1"}, 2, 1),
         ({"OPENBLAS_NUM_THREADS": "1"}, 2, 2), ({"OPENBLAS_NUM_THREADS": "1"}, 1, 1),
         ({"OPENBLAS_NUM_THREADS": "2"}, 8, 4), ({"OPENBLAS_NUM_THREADS": "4"}, 2, 1),
         ({"GOTO_NUM_THREADS": "1"}, 3, 3), ({"OMP_NUM_THREADS": "1"}, 2, 2),
         ({"OPENBLAS_NUM_THREADS": "2", "GOTO_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}, 4, 2),
         ({"GOTO_NUM_THREADS": "4", "OMP_NUM_THREADS": "1"}, 4, 1),
         ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, 2, 2),
         ({"OPENBLAS_NUM_THREADS": "many", "OMP_NUM_THREADS": "2"}, 4, 2),
         ({"OMP_NUM_THREADS": "4,2"}, 4, 1)],
    )
    def test_default_thread_budget(self, monkeypatch, env, cpus, workers):
        from posediff.denoiser import thread_budget

        for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        assert thread_budget() == workers

    @pytest.mark.parametrize(
        "key, value",
        [("model.heads", None), ("schedule.T", None), ("sample.deterministic", None),
         ("schedule.kind", "cosine"), ("train.bogus", 1), *REMOVED_KEYS,
         ("model.heads", 0), ("train.epochs", 0)],
    )
    def test_stored_config_off_schema_is_config_error(self, workspace, tmp_path, capsys,
                                                      key, value):
        tensors, meta = read_container(workspace["ckpt"])
        section, name = key.split(".")
        if value is None:
            del meta["run_config"][section][name]
        else:
            meta["run_config"][section][name] = value
        ckpt = tmp_path / "ckpt.ptc"
        write_container(ckpt, tensors, meta)
        capsys.readouterr()
        out = tmp_path / "p.ptc"
        assert main(["estimate", "--checkpoint", str(ckpt), "--data", str(workspace["data"]),
                     "--out", str(out), "--hypotheses", "1", "--iterations", "1"]) == 1
        err = capsys.readouterr().err
        assert f"{ckpt}: stored run config" in err and repr(key) in err
        assert not out.exists()

    def test_load_model_draws_no_seeded_weights(self, workspace, monkeypatch):
        from posediff import denoiser
        from posediff.cli import _load_model

        def refuse(*args, **kwargs):
            raise AssertionError("init_denoiser_weights called")

        monkeypatch.setattr(denoiser, "init_denoiser_weights", refuse)
        runtime = _load_model(workspace["ckpt"])
        trained = workspace["trainer"].model.weights
        for name, w in runtime.model.weights.items():
            assert np.array_equal(w.data, trained[name].data)

    def test_load_model_reads_no_optimizer_moments(self, workspace, monkeypatch):
        from posediff import training
        from posediff.cli import _load_model

        read = []

        def spy(*args, **kwargs):
            tensors, meta = read_container(*args, **kwargs)
            read.extend(tensors)
            return tensors, meta

        monkeypatch.setattr(training, "read_container", spy)
        _load_model(workspace["ckpt"])
        assert read and not [k for k in read if k.startswith("opt/")]
        assert {k.split("/")[0] for k in read} == {"weights", "prompt"}

    def test_outputs_match_seeded_then_restored_model(self, workspace, tmp_path, monkeypatch):
        """Estimate and eval bytes equal those of a model built seeded, then
        overwritten with every checkpoint tensor."""
        from posediff import cli
        from posediff.config import build_runtime
        from posediff.training import read_checkpoint, restore_modifiers

        def seeded_then_restored(path):
            tensors, meta = read_checkpoint(path)
            runtime = build_runtime(meta["run_config"])
            for name, p in runtime.model.weights.items():
                p.data = tensors[f"weights/{name}"].astype(p.data.dtype)
            restore_modifiers(runtime.bank, tensors)
            return runtime

        outputs = []
        for name in ("checkpoint", "restored"):
            if name == "restored":
                monkeypatch.setattr(cli, "_load_model", seeded_then_restored)
            pred = run_estimate(workspace["ckpt"], workspace["data"], tmp_path / f"{name}.ptc",
                                hypotheses=2, iterations=2, seed=4)
            report, per_joint, _ = run_eval(pred, workspace["data"], tmp_path / name)
            outputs.append([Path(p).read_bytes() for p in (pred, report, per_joint)])
        assert outputs[0] == outputs[1]
        assert outputs[0][0] == Path(workspace["pred"]).read_bytes()

    @pytest.mark.parametrize("damage", ["missing", "shape", "nan"])
    def test_bad_checkpoint_weight_is_config_error(self, workspace, tmp_path, capsys, damage):
        tensors, meta = read_container(workspace["ckpt"])
        key = "weights/head/w"
        if damage == "missing":
            del tensors[key]
        elif damage == "shape":
            tensors[key] = tensors[key][:-1]
        else:
            tensors[key][0, 0] = np.nan
        ckpt, out = tmp_path / "ckpt.ptc", tmp_path / "p.ptc"
        write_container(ckpt, tensors, meta)
        capsys.readouterr()
        assert main(["estimate", "--checkpoint", str(ckpt), "--data", str(workspace["data"]),
                     "--out", str(out), "--hypotheses", "1", "--iterations", "1"]) == 1
        assert key in capsys.readouterr().err
        assert not out.exists()

    def test_missing_output_directory_exits_before_loading(self, workspace, tmp_path, capsys,
                                                           monkeypatch):
        from posediff import cli

        def refuse(path):
            raise AssertionError("checkpoint loaded")

        monkeypatch.setattr(cli, "_load_model", refuse)
        out = tmp_path / "missing" / "p.ptc"
        capsys.readouterr()
        assert main(["estimate", "--checkpoint", str(workspace["ckpt"]),
                     "--data", str(workspace["data"]), "--out", str(out)]) == 1
        assert str(out.parent) in capsys.readouterr().err
        assert not out.parent.exists()

    def test_output_directory_exits_before_loading(self, workspace, tmp_path, capsys,
                                                   monkeypatch):
        from posediff import cli

        def refuse(path):
            raise AssertionError("checkpoint loaded")

        monkeypatch.setattr(cli, "_load_model", refuse)
        out = tmp_path / "adir"
        out.mkdir()
        capsys.readouterr()
        assert main(["estimate", "--checkpoint", str(workspace["ckpt"]),
                     "--data", str(workspace["data"]), "--out", str(out)]) == 1
        assert f"{out} is a directory" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("field, value", [("cx", 1e308), ("fy", 1e-300)])
    def test_camera_overflowing_float32_exits_one(self, workspace, tmp_path, capsys,
                                                  field, value):
        tensors, meta = read_container(workspace["data"])
        meta["sequences"][1]["camera"][field] = value
        data = tmp_path / "data.ptc"
        write_container(data, tensors, meta)
        out = tmp_path / "p.ptc"
        capsys.readouterr()
        assert main(["estimate", "--checkpoint", str(workspace["ckpt"]),
                     "--data", str(data), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert str(data) in err and "'seq001'" in err and f"{field}={value!r}" in err
        assert not out.exists()

    @pytest.mark.parametrize("characters", [1, 2])
    def test_scene_matches_stacked_estimate_single(self, workspace, tmp_path, characters):
        from posediff.cli import _load_model
        from posediff.data import denormalize_poses, normalize_record, synth_generate_multi
        from posediff.prompts import prompt_for
        from posediff.sampler import character_seed, estimate_single, scene_seed

        records = synth_generate_multi(characters, 8, 17, seed=12)
        data = tmp_path / "scene.ptc"
        save_dataset(data, records)
        out = tmp_path / "p.ptc"
        run_estimate(workspace["ckpt"], data, out, hypotheses=2, iterations=2, seed=9)
        tensors, _ = read_container(out)

        runtime = _load_model(workspace["ckpt"])
        for c, rec in enumerate(records):
            norm, params = normalize_record(rec, runtime.cfg["data"]["normalize"])
            prompt = prompt_for(runtime.bank, rec.action)
            poses, index = estimate_single(
                norm.keypoints_2d.astype(runtime.dtype), rec.camera,
                lambda yt, x, t: runtime.model.denoise_array(
                    yt.astype(runtime.dtype), x, t, prompt
                ),
                runtime.sched, H=2, M=2, seed=character_seed(scene_seed(9, rec.scene), c),
                to_camera=lambda y: denormalize_poses(y, params),
                x_pixels=rec.keypoints_2d, frame_mask=rec.presence,
            )
            assert np.array_equal(tensors[f"pred/{rec.seq_id}/poses"], poses)
            assert np.array_equal(tensors[f"pred/{rec.seq_id}/per_joint_hypothesis_index"], index)

    @pytest.mark.parametrize("damage", ["missing_modifier", "modifier_shape"])
    def test_incomplete_prompt_state_is_config_error(self, workspace, tmp_path, capsys, damage):
        tensors, meta = read_container(workspace["ckpt"])
        key = "prompt/3/modifier"
        if damage == "missing_modifier":
            del tensors[key]
        else:
            tensors[key] = tensors[key][:-1]
        ckpt = tmp_path / "ckpt.ptc"
        write_container(ckpt, tensors, meta)
        capsys.readouterr()
        assert main(["estimate", "--checkpoint", str(ckpt), "--data", str(workspace["data"]),
                     "--out", str(tmp_path / "p.ptc"), "--hypotheses", "1",
                     "--iterations", "1"]) == 1
        assert key in capsys.readouterr().err

    def test_inference_only_records(self, workspace, tmp_path, capsys):
        from dataclasses import replace

        data = tmp_path / "d.ptc"
        run_synth(data, n_sequences=2, n_frames=8, n_joints=17, seed=3, motion="mixed",
                  characters=2)
        no_gt = tmp_path / "no_gt.ptc"
        save_dataset(no_gt, [replace(rec, gt_3d=None) for rec in load_dataset(data)])

        cfg = tiny_cfg()
        cfg["data"]["normalize"] = "image_normalized"
        ckpt, _ = run_train(cfg, data, tmp_path / "run", max_steps=8, epochs=10**6)
        kept, dropped = tmp_path / "kept.ptc", tmp_path / "dropped.ptc"
        run_estimate(ckpt, data, kept, hypotheses=2, iterations=2, seed=4)
        run_estimate(ckpt, no_gt, dropped, hypotheses=2, iterations=2, seed=4)
        assert kept.read_bytes() == dropped.read_bytes()

        # root_centered re-anchors poses on the ground-truth root track
        capsys.readouterr()
        assert main(["estimate", "--checkpoint", str(workspace["ckpt"]), "--data", str(no_gt),
                     "--out", str(tmp_path / "p.ptc"), "--hypotheses", "1",
                     "--iterations", "1"]) == 1
        assert "scene000/ch0: root_centered normalization needs gt_3d" in capsys.readouterr().err

    def test_checkpoint_dataset_mismatch(self, workspace, tmp_path):
        data = tmp_path / "other.ptc"
        save_dataset(data, synth_generate(1, 12, 17, seed=0))
        with pytest.raises(ConfigError, match="checkpoint"):
            run_estimate(workspace["ckpt"], data, tmp_path / "p.ptc", hypotheses=1, iterations=1)

    def test_default_camera_recorded_in_outputs(self, workspace, tmp_path):
        from dataclasses import replace

        records = [
            replace(rec, camera=None) for rec in load_dataset(workspace["data"])[:1]
        ]
        data = tmp_path / "nocam.ptc"
        save_dataset(data, records)
        out = tmp_path / "p.ptc"
        run_estimate(workspace["ckpt"], data, out, hypotheses=1, iterations=1, seed=0)
        _, meta = read_container(out)
        note = meta["cameras"][records[0].seq_id]
        assert note["default_camera"] is True
        assert note["camera"]["fx"] == 1000.0


class TestEvalCommand:
    def test_perfect_predictions_score_perfectly(self, workspace, tmp_path):
        records = load_dataset(workspace["data"])
        tensors = {}
        for rec in records:
            tensors[f"pred/{rec.seq_id}/poses"] = rec.gt_3d
        pred = tmp_path / "perfect.ptc"
        write_container(pred, tensors, meta={"kind": "predictions"})
        report, per_joint, rows = run_eval(pred, workspace["data"], tmp_path / "eval")
        overall = next(r for r in rows if r[0] == "overall")[5]
        assert overall["mpjpe_mm"] == 0.0
        assert overall["pck150_percent"] == 100.0
        assert overall["auc_percent"] == 100.0

    def test_rigid_only_flag_keeps_scale_error(self, workspace, tmp_path):
        # a pure scale error: similarity alignment removes it, rigid alignment cannot
        tensors = {
            f"pred/{rec.seq_id}/poses": 1.5 * rec.gt_3d for rec in load_dataset(workspace["data"])
        }
        # a stored config never decides the alignment, whatever it holds
        pred = tmp_path / "pred.ptc"
        write_container(pred, tensors, meta={"kind": "predictions", "config": ["ignored"]})

        def overall_p_mpjpe(flags):
            out = tmp_path / f"eval_{len(flags)}"
            assert main(["eval", "--predictions", str(pred), "--data", str(workspace["data"]),
                         "--out", str(out)] + flags) == 0
            with open(out / "report.csv") as f:
                return next(float(r["p_mpjpe_mm"]) for r in csv.DictReader(f)
                            if r["scope"] == "overall")

        assert overall_p_mpjpe([]) < 1e-6
        assert overall_p_mpjpe(["--rigid-only"]) > 1.0

    @pytest.mark.parametrize("command", ["eval", "plot"])
    def test_prediction_shape_mismatch_writes_nothing(self, workspace, tmp_path, capsys,
                                                      command):
        records = load_dataset(workspace["data"])
        tensors = {f"pred/{rec.seq_id}/poses": rec.gt_3d for rec in records}
        tensors["pred/seq002/poses"] = tensors["pred/seq002/poses"][:4]  # (4, 17, 3) of 8
        pred, out = tmp_path / "pred.ptc", tmp_path / "out"
        write_container(pred, tensors, meta={"kind": "predictions"})
        out.mkdir()
        args = ["--sequence", "seq002"] if command == "plot" else []
        capsys.readouterr()
        assert main([command, "--predictions", str(pred), "--data", str(workspace["data"]),
                     "--out", str(out)] + args) == 1
        assert "'seq002'" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_pairing_error_lists_orphans(self, workspace, tmp_path):
        pred = tmp_path / "orphan.ptc"
        write_container(
            pred,
            {"pred/ghost/poses": np.zeros((8, 17, 3))},
            meta={"kind": "predictions"},
        )
        with pytest.raises(ConfigError, match="ghost"):
            run_eval(pred, workspace["data"], tmp_path / "eval")

    def test_report_structure(self, workspace, tmp_path):
        report, per_joint, rows = run_eval(
            workspace["pred"], workspace["data"], tmp_path / "eval"
        )
        with open(report) as f:
            lines = list(csv.reader(f))
        assert lines[0] == list(
            ("scope", "id", "action", "frames", "joints", "mpjpe_mm",
             "p_mpjpe_mm", "pck150_percent", "auc_percent")
        )
        scopes = [l[0] for l in lines[1:]]
        assert scopes.count("sequence") == 4
        assert "overall" in scopes and "overall_by_action" in scopes
        seq_ids = [l[1] for l in lines[1:] if l[0] == "sequence"]
        assert seq_ids == sorted(seq_ids)

    def test_deterministic_report(self, workspace, tmp_path):
        r1, _, _ = run_eval(workspace["pred"], workspace["data"], tmp_path / "e1")
        r2, _, _ = run_eval(workspace["pred"], workspace["data"], tmp_path / "e2")
        assert open(r1).read() == open(r2).read()

    def test_record_absent_in_every_frame_is_config_error(self, tmp_path, capsys):
        from dataclasses import replace

        present, absent = synth_generate(2, 8, 17, seed=3)
        absent = replace(absent, keypoints_2d=np.zeros_like(absent.keypoints_2d),
                         presence=np.zeros(8, bool))
        data, pred, out = tmp_path / "data.ptc", tmp_path / "pred.ptc", tmp_path / "eval"
        save_dataset(data, [present, absent])
        write_container(pred, {f"pred/{r.seq_id}/poses": r.gt_3d for r in (present, absent)},
                        meta={"kind": "predictions"})
        capsys.readouterr()
        assert main(["eval", "--predictions", str(pred), "--data", str(data),
                     "--out", str(out)]) == 1
        assert repr(absent.seq_id) in capsys.readouterr().err
        assert not out.exists()


class TestPlotCommand:
    def test_svg_wellformed_and_joint_count(self, workspace, tmp_path):
        svg_path, csv_path = run_plot(
            workspace["pred"], workspace["data"], "seq000", tmp_path / "plots"
        )
        tree = ET.parse(svg_path)
        ns = {"svg": "http://www.w3.org/2000/svg"}
        joints = tree.getroot().findall(".//svg:circle[@class='joint']", ns)
        # 8 frames x 17 joints x (pred + gt)
        assert len(joints) == 8 * 17 * 2

    def test_error_csv_matches_eval(self, workspace, tmp_path):
        _, plot_csv = run_plot(workspace["pred"], workspace["data"], "seq001", tmp_path / "plots")
        _, per_joint, _ = run_eval(workspace["pred"], workspace["data"], tmp_path / "eval")
        with open(plot_csv) as f:
            plot_rows = {
                (r["sequence_id"], r["joint"]): float(r["mpjpe_mm"])
                for r in csv.DictReader(f)
            }
        with open(per_joint) as f:
            eval_rows = {
                (r["sequence_id"], r["joint"]): float(r["mpjpe_mm"])
                for r in csv.DictReader(f)
                if r["sequence_id"] == "seq001"
            }
        assert plot_rows.keys() == eval_rows.keys()
        for key in plot_rows:
            assert abs(plot_rows[key] - eval_rows[key]) <= 1e-9

    def test_unknown_sequence(self, workspace, tmp_path):
        with pytest.raises(ConfigError, match="nope"):
            run_plot(workspace["pred"], workspace["data"], "nope", tmp_path / "plots")

    def test_record_without_ground_truth_writes_nothing(self, tmp_path, capsys):
        from dataclasses import replace

        rec = replace(synth_generate(1, 8, 17, seed=3)[0], gt_3d=None)
        data, pred, out = tmp_path / "data.ptc", tmp_path / "pred.ptc", tmp_path / "plots"
        save_dataset(data, [rec])
        write_container(pred, {f"pred/{rec.seq_id}/poses": np.full((8, 17, 3), 3000.0)},
                        meta={"kind": "predictions"})
        out.mkdir()
        capsys.readouterr()
        assert main(["plot", "--predictions", str(pred), "--data", str(data),
                     "--sequence", rec.seq_id, "--out", str(out)]) == 1
        assert "ground truth" in capsys.readouterr().err
        assert list(out.iterdir()) == []


class TestMalformedFiles:
    @pytest.mark.parametrize(
        "command, key, how, value, named", CHECKPOINT_CASES,
        ids=[f"{c}-{k}-{h}" for c, k, h, _, _ in CHECKPOINT_CASES],
    )
    def test_checkpoint_error_names_file(self, workspace, tmp_path, capsys, command, key, how,
                                         value, named):
        if command == "estimate":
            ckpt = tmp_path / "ckpt.ptc"
            tensors, meta = read_container(workspace["ckpt"])
            args = ["estimate", "--checkpoint", str(ckpt), "--data", str(workspace["data"]),
                    "--out", str(tmp_path / "p.ptc")]
        else:
            args, ckpt = TestTrainCommand.one_step_run(tmp_path)
            tensors, meta = read_container(ckpt)
            args += ["--resume", "--steps", "2"]
        if how == "drop":
            del tensors[key]
        elif how == "shape":
            tensors[key] = tensors[key][:-1]
        elif how == "negative":
            tensors[key] = tensors[key].copy()
            tensors[key].flat[0] = -1e-12
        elif how == "meta":
            meta[key] = value
        else:
            section, name = key.split(".")
            if value is None:
                del meta["run_config"][section][name]
            else:
                meta["run_config"][section][name] = value
        write_container(ckpt, tensors, meta)
        written = {p.name: p.read_bytes() for p in ckpt.parent.iterdir()}
        capsys.readouterr()
        assert main(args) == 1
        err = capsys.readouterr().err
        assert f"{ckpt}: " in err and named in err
        assert {p.name: p.read_bytes() for p in ckpt.parent.iterdir()} == written

    @pytest.mark.parametrize(
        "command, key, how, named", PREDICTION_CASES,
        ids=[f"{c}-{k}-{h}" for c, k, h, _ in PREDICTION_CASES],
    )
    def test_predictions_error_names_file(self, workspace, tmp_path, capsys, command, key, how,
                                          named):
        tensors, meta = read_container(workspace["pred"])
        if how == "drop" and key == "kind":
            del meta[key]
        elif how == "drop":
            del tensors[key]
        elif how == "orphan":
            tensors[key] = tensors["pred/seq000/poses"]
        else:
            poses = tensors[key]
            if how == "xy":
                poses = poses[..., :2]
            elif how == "nan":
                poses[0, 0, 0] = np.nan
            elif how == "zero_depth":
                poses[3, 5, 2] = 0.0
            elif how == "negative_depth":
                poses[3, 5, 2] = -50.0
            elif how == "huge":
                poses[2] *= 1e200
            else:
                poses[2] = poses[2, 0]
            tensors[key] = poses
        pred, out = tmp_path / "pred.ptc", tmp_path / "out"
        write_container(pred, tensors, meta)
        args = ["--sequence", "seq001"] if command == "plot" else []
        capsys.readouterr()
        assert main([command, "--predictions", str(pred), "--data", str(workspace["data"]),
                     "--out", str(out)] + args) == 1
        err = capsys.readouterr().err
        assert f"{pred}" in err and named in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["eval", "plot"])
    def test_huge_ground_truth_exits_one(self, workspace, tmp_path, capsys, command):
        """Ground truth is judged by the predictions' overflow rule."""
        records = load_dataset(workspace["data"])
        rec = next(r for r in records if r.seq_id == "seq001")
        rec.gt_3d = rec.gt_3d.copy()
        rec.gt_3d[2, 4, 0] = 1e300
        data, out = tmp_path / "data.ptc", tmp_path / "out"
        save_dataset(data, records)
        args = ["--sequence", "seq001"] if command == "plot" else []
        capsys.readouterr()
        assert main([command, "--predictions", str(workspace["pred"]), "--data", str(data),
                     "--out", str(out)] + args) == 1
        err = capsys.readouterr().err
        assert "record 'seq001' ground truth frame 2: coordinates too large" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "estimate", "eval", "plot"])
    def test_empty_dataset_exits_one(self, workspace, tmp_path, capsys, command):
        """Every command reads a dataset through ``load_dataset``, the one judge
        of a dataset that holds no sequence."""
        data, pred, out = tmp_path / "empty.ptc", tmp_path / "pred.ptc", tmp_path / "out"
        save_dataset(data, [])
        write_container(pred, {}, {"kind": "predictions"})
        args = {
            "train": ["train", "--preset", "tiny"],
            "estimate": ["estimate", "--checkpoint", str(workspace["ckpt"])],
            "eval": ["eval", "--predictions", str(pred)],
            "plot": ["plot", "--predictions", str(pred), "--sequence", "seq001"],
        }[command]
        capsys.readouterr()
        assert main(args + ["--data", str(data), "--out", str(out)]) == 1
        assert f"error: {data}: dataset holds no sequences" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, how", [("eval", "negative_depth"), ("plot", "orphan")])
    def test_predictions_accepted_as_intended(self, workspace, tmp_path, command, how):
        """``eval`` never projects, so it scores a pose behind the camera; ``plot``
        reads only its sequence's prediction."""
        tensors, meta = read_container(workspace["pred"])
        if how == "negative_depth":
            tensors["pred/seq001/poses"][3, 5, 2] = -50.0
        else:
            tensors["pred/ghost/poses"] = tensors["pred/seq000/poses"]
        pred = tmp_path / "pred.ptc"
        write_container(pred, tensors, meta)
        args = ["--sequence", "seq001"] if command == "plot" else []
        assert main([command, "--predictions", str(pred), "--data", str(workspace["data"]),
                     "--out", str(tmp_path / "out")] + args) == 0

    @pytest.mark.parametrize("command", ["train", "eval", "plot"])
    @pytest.mark.parametrize("where", ["out", "parent"])
    def test_out_under_a_file_exits_before_reading(self, tmp_path, capsys, command, where):
        """An ``--out`` that a regular file stands in the place of is judged before
        any input is read: here every input is missing."""
        blocker = tmp_path / "file"
        blocker.write_text("kept")
        out = blocker if where == "out" else blocker / "run"
        missing = str(tmp_path / "missing.ptc")
        args = {
            "train": ["train", "--preset", "tiny", "--data", missing],
            "eval": ["eval", "--predictions", missing, "--data", missing],
            "plot": ["plot", "--predictions", missing, "--data", missing, "--sequence", "s"],
        }[command]
        capsys.readouterr()
        assert main(args + ["--out", str(out)]) == 1
        assert f"--out {out} cannot be a directory: {blocker} is a file" in capsys.readouterr().err
        assert blocker.read_text() == "kept"

    @pytest.mark.parametrize("damage, named", MALFORMED_EMBEDDINGS,
                             ids=[d for d, _ in MALFORMED_EMBEDDINGS])
    def test_embeddings_error_names_file(self, tmp_path, capsys, tiny_data, damage, named):
        emb = tmp_path / "emb.ptc"
        if damage != "missing_file":
            dim = 16 if damage == "width_16" else 64
            tensors, meta = read_container(write_embeddings(emb, dim))
            if damage == "texts_list":
                meta["texts"] = list(meta["texts"].values())
            elif damage == "text_int":
                meta["texts"]["prompt/0"] = 7
            elif damage == "entry_3xD":
                tensors["prompt/2/frozen"] = tensors["prompt/2/frozen"][:3]
            elif damage == "two_widths":
                tensors["prompt/6/frozen"] = tensors["prompt/6/frozen"][:, :16]
            elif damage == "no_entries":
                tensors, meta = {}, {"texts": {}}
            write_container(emb, tensors, meta)
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"prompt": {"embeddings_file": str(emb)}}))
        run = tmp_path / "run"
        capsys.readouterr()
        assert main(["train", "--preset", "tiny", "--config", str(config), "--data", str(tiny_data),
                     "--out", str(run), "--steps", "1"]) == 1
        err = capsys.readouterr().err
        assert str(emb) in err and named in err
        assert not run.exists()


class TestExitCodes:
    def test_success_is_zero(self, tmp_path):
        rc = main(["synth", "--out", str(tmp_path / "d.ptc"), "--sequences", "1",
                   "--frames", "4"])
        assert rc == 0

    def test_user_error_is_one(self, tmp_path):
        rc = main(["train", "--data", str(tmp_path / "missing.ptc"),
                   "--out", str(tmp_path / "o"), "--preset", "tiny"])
        assert rc == 1

    def test_bad_flag_is_one(self):
        assert main(["synth", "--nonsense"]) == 1

    def test_missing_input_file_is_one(self, tmp_path):
        rc = main(["eval", "--predictions", str(tmp_path / "missing.ptc"),
                   "--data", str(tmp_path / "missing.ptc"),
                   "--out", str(tmp_path / "e")])
        assert rc == 1

    def test_internal_error_is_two(self, monkeypatch, tmp_path):
        from posediff import cli
        from posediff.exceptions import NumericsError

        def boom(*a, **k):
            raise NumericsError("invariant violated")

        monkeypatch.setattr(cli, "run_synth", boom)
        rc = main(["synth", "--out", str(tmp_path / "d.ptc")])
        assert rc == 2

    def test_out_of_memory_is_one(self, monkeypatch, tmp_path, capsys, tiny_data):
        from posediff import config

        def too_big(T):
            raise MemoryError("Unable to allocate 72.8 TiB for an array with shape "
                              "(10000000000001,) and data type float64")

        monkeypatch.setattr(config, "build_schedule", too_big)
        run = tmp_path / "run"
        capsys.readouterr()
        assert main(["train", "--preset", "tiny", "--data", str(tiny_data),
                     "--out", str(run)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "72.8 TiB" in err
        assert not run.exists()


class TestAblationPlumbing:
    @pytest.mark.parametrize(
        "flags",
        [
            {"use_fpp": False, "use_fpc": False, "use_pts": False},  # w/o Prompt
            {"use_fpc": False},  # w/o FPC
            {"use_pts": False},  # w/o PTS
        ],
    )
    def test_variant_trains_and_evaluates(self, flags, tmp_path):
        data = tmp_path / "d.ptc"
        save_dataset(data, synth_generate(2, 8, 17, seed=5))
        cfg = tiny_cfg(**flags)
        ckpt, _ = run_train(cfg, data, tmp_path / "run", max_steps=3, epochs=10**6)
        pred = run_estimate(ckpt, data, tmp_path / "p.ptc", hypotheses=1, iterations=1, seed=0)
        report, _, rows = run_eval(pred, data, tmp_path / "eval")
        assert os.path.exists(report)
        assert np.isfinite(next(r for r in rows if r[0] == "overall")[5]["mpjpe_mm"])


class TestPipelineDeterminism:
    def test_train_estimate_eval_byte_identical(self, tmp_path):
        data = tmp_path / "d.ptc"
        save_dataset(data, synth_generate(3, 8, 17, seed=6))

        def pipeline(tag):
            cfg = tiny_cfg()
            ckpt, _ = run_train(cfg, data, tmp_path / f"{tag}_run", max_steps=6, epochs=10**6)
            pred = run_estimate(ckpt, data, tmp_path / f"{tag}.ptc",
                                hypotheses=2, iterations=2, seed=3)
            report, per_joint, _ = run_eval(pred, data, tmp_path / f"{tag}_eval")
            return (tmp_path / f"{tag}.ptc").read_bytes(), open(report).read()

        pred_a, rep_a = pipeline("a")
        pred_b, rep_b = pipeline("b")
        assert pred_a == pred_b
        assert rep_a == rep_b

    @staticmethod
    def assert_checkpoint_matches_composition(tmp_path, monkeypatch, tiny_data, op, composition):
        """A few tiny-preset steps with the denoiser's ``op`` and with
        ``composition`` in its place write the same checkpoint tensors, byte for byte."""
        from posediff import denoiser

        def checkpoint(tag):
            cfg = load_config(None, "tiny")
            ckpt, _ = run_train(cfg, tiny_data, tmp_path / tag, max_steps=3, epochs=10**6)
            return read_container(ckpt)[0]

        node = checkpoint("node")
        monkeypatch.setattr(denoiser, op, composition)
        composed = checkpoint("composed")
        assert node.keys() == composed.keys()
        for name, t in node.items():
            assert t.dtype == composed[name].dtype and t.tobytes() == composed[name].tobytes(), name

    def test_training_checkpoint_matches_composed_layer_norm(self, tmp_path, monkeypatch, tiny_data):
        # layer_norm records one node whose backward repeats the arithmetic of
        # its Tensor-op composition
        self.assert_checkpoint_matches_composition(
            tmp_path, monkeypatch, tiny_data, "layer_norm", composed_layer_norm)

    def test_training_checkpoint_matches_composed_attention(self, tmp_path, monkeypatch, tiny_data):
        # so does the attention core's node, through every attention block
        self.assert_checkpoint_matches_composition(
            tmp_path, monkeypatch, tiny_data, "attention", composed_attention)
