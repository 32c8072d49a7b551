import csv
import json
import os
import re
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from posediff.cli import main, run_estimate, run_eval, run_plot, run_synth, run_train
from posediff.config import config_hash, default_config, load_config, preset
from posediff.container import read_container, write_container
from posediff.data import load_dataset, save_dataset, synth_generate
from posediff.exceptions import ConfigError


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
        cfg = default_config()
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
         ({"train": {"max_steps": "10"}}, "train.max_steps"),
         ({"prompt": {"embeddings_file": 3}}, "prompt.embeddings_file"),
         ({"dtype": None}, "dtype"),
         ({"seed": False}, "seed")],
    )
    def test_value_of_wrong_json_type_rejected(self, tmp_path, override, key):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(override))
        with pytest.raises(ConfigError, match=f"'{re.escape(key)}' must be"):
            load_config(path)

    def test_value_types_accepted(self, tmp_path):
        path = tmp_path / "ok.json"
        path.write_text(json.dumps({
            "train": {"lr0": 1, "max_steps": 5},
            "prompt": {"encoder": "file", "embeddings_file": "emb.ptc"},
        }))
        cfg = load_config(path)
        assert cfg["train"]["lr0"] == 1 and cfg["train"]["max_steps"] == 5
        assert load_config()["train"]["max_steps"] is None

    def test_wrong_type_exits_one(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"model": {"heads": "4"}}))
        assert main(["train", "--preset", "tiny", "--config", str(config), "--data",
                     str(tmp_path / "d.ptc"), "--out", str(tmp_path / "run")]) == 1
        assert "'model.heads'" in capsys.readouterr().err

    def test_hash_stable_and_sensitive(self):
        a, b = default_config(), default_config()
        assert config_hash(a) == config_hash(b)
        b["seed"] = 1
        assert config_hash(a) != config_hash(b)

    def test_presets(self):
        tiny = preset("tiny")
        assert tiny["model"]["feature_dim"] == 64
        assert tiny["data"]["n_frames"] == 16
        paper = preset("paper")
        assert paper == default_config()
        with pytest.raises(ConfigError):
            preset("huge")

    def test_readme_schema_is_the_default_config(self):
        readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                              "README.md")
        with open(readme) as f:
            section = f.read().split("\n## Configuration\n", 1)[1]
        block = section.split("```json\n", 1)[1].split("```", 1)[0]
        assert json.loads(block) == default_config()

    def test_file_encoder_runtime(self, tmp_path):
        from posediff.config import build_runtime

        emb = write_embeddings(tmp_path / "emb.ptc")
        cfg = tiny_cfg()
        cfg["prompt"]["encoder"] = "file"
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
        [("opt_step", None), ("epoch", "1"), ("epoch_step", 0.0), ("run_config", None)],
    )
    def test_resume_rejects_malformed_meta(self, tmp_path, capsys, key, value):
        args, last = self.one_step_run(tmp_path)
        tensors, meta = read_container(last)
        if value is None:
            del meta[key]
        else:
            meta[key] = value
        write_container(last, tensors, meta)
        capsys.readouterr()
        assert main(args + ["--resume", "--steps", "2"]) == 1
        assert key in capsys.readouterr().err

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
            "prompt": {"encoder": "file",
                       "embeddings_file": str(write_embeddings(tmp_path / "emb.ptc"))},
        }))
        capsys.readouterr()
        assert main(["train", "--preset", "tiny", "--config", str(config), "--data", str(data),
                     "--out", str(tmp_path / "run"), "--steps", "1"]) == 1
        assert "walk_cycle" in capsys.readouterr().err

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

    def test_h1_m1_fast_mode(self, workspace, tmp_path):
        out = tmp_path / "fast.ptc"
        run_estimate(workspace["ckpt"], workspace["data"], out, hypotheses=1, iterations=1, seed=0)
        tensors, _ = read_container(out)
        idx = tensors["pred/seq000/per_joint_hypothesis_index"]
        assert np.all(idx == 0)

    def test_thread_env_does_not_change_output(self, workspace, tmp_path, monkeypatch):
        from posediff import denoiser

        p1 = tmp_path / "p1.ptc"
        run_estimate(workspace["ckpt"], workspace["data"], p1, hypotheses=2, iterations=2, seed=5)
        monkeypatch.setattr(denoiser, "PARALLEL_MIN_ELEMENTS", 0)  # every model takes the pool
        for threads in ("1", "2", "3"):
            monkeypatch.setenv("POSEDIFF_THREADS", threads)
            p2 = tmp_path / f"p{threads}.ptc"
            run_estimate(workspace["ckpt"], workspace["data"], p2, hypotheses=2, iterations=2,
                         seed=5)
            assert p1.read_bytes() == p2.read_bytes(), threads

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
         ({"OMP_NUM_THREADS": "4,2"}, 4, 1),
         ({"OPENBLAS_NUM_THREADS": "1", "POSEDIFF_THREADS": "3"}, 2, 3),
         ({"POSEDIFF_THREADS": "2"}, 1, 2)],
    )
    def test_default_thread_budget(self, monkeypatch, env, cpus, workers):
        from posediff.denoiser import thread_budget

        for var in ("POSEDIFF_THREADS", "OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                    "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        assert thread_budget() == workers

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_thread_count_below_one_is_config_error(self, workspace, tmp_path, monkeypatch,
                                                    capsys, threads):
        monkeypatch.setenv("POSEDIFF_THREADS", threads)
        capsys.readouterr()
        out = tmp_path / "p.ptc"
        assert main(["estimate", "--checkpoint", str(workspace["ckpt"]),
                     "--data", str(workspace["data"]), "--out", str(out),
                     "--hypotheses", "1", "--iterations", "1"]) == 1
        assert "POSEDIFF_THREADS" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value",
        [("model.heads", None), ("schedule.T", None), ("sample.deterministic", None),
         ("schedule.kind", "cosine"), ("train.bogus", 1)],
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
        assert repr(key) in capsys.readouterr().err
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
        from posediff.training import read_checkpoint, restore_model

        def seeded_then_restored(path):
            tensors, meta = read_checkpoint(path)
            runtime = build_runtime(meta["run_config"])
            restore_model(runtime.model, runtime.bank, tensors)
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

    @pytest.mark.parametrize("damage", ["missing", "shape"])
    def test_bad_checkpoint_weight_is_config_error(self, workspace, tmp_path, capsys, damage):
        tensors, meta = read_container(workspace["ckpt"])
        key = "weights/head/w"
        if damage == "missing":
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

    @pytest.mark.parametrize("characters", [1, 2])
    def test_scene_matches_stacked_estimate_single(self, workspace, tmp_path, characters):
        from posediff.cli import _load_model
        from posediff.data import denormalize_poses, normalize_record, synth_generate_multi
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
            prompt = runtime.prompt_for(rec.action)
            solo = estimate_single(
                norm.keypoints_2d.astype(runtime.dtype), rec.camera,
                lambda yt, x, t: runtime.model.denoise_array(
                    yt.astype(runtime.dtype), x, t, prompt
                ),
                runtime.sched, H=2, M=2, seed=character_seed(scene_seed(9, rec.scene), c),
                to_camera=lambda y: denormalize_poses(y, params),
                x_pixels=rec.keypoints_2d, frame_mask=rec.presence,
            )
            assert np.array_equal(tensors[f"pred/{rec.seq_id}/poses"], solo.poses)
            assert np.array_equal(
                tensors[f"pred/{rec.seq_id}/per_joint_hypothesis_index"], solo.hypothesis_index
            )

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

    def test_rigid_only_default_comes_from_predictions_config(self, workspace, tmp_path):
        # a pure scale error: similarity alignment removes it, rigid alignment cannot
        tensors = {
            f"pred/{rec.seq_id}/poses": 1.5 * rec.gt_3d for rec in load_dataset(workspace["data"])
        }

        def overall_p_mpjpe(rigid_only, flags):
            cfg = tiny_cfg()
            cfg["sample"]["rigid_only"] = rigid_only
            pred = tmp_path / f"pred_{rigid_only}.ptc"
            write_container(pred, tensors, meta={"kind": "predictions", "config": cfg})
            out = tmp_path / f"eval_{rigid_only}_{len(flags)}"
            assert main(["eval", "--predictions", str(pred), "--data", str(workspace["data"]),
                         "--out", str(out)] + flags) == 0
            with open(out / "report.csv") as f:
                return next(float(r["p_mpjpe_mm"]) for r in csv.DictReader(f)
                            if r["scope"] == "overall")

        similarity = overall_p_mpjpe(False, [])
        rigid = overall_p_mpjpe(True, [])
        assert similarity < 1e-6 and rigid > 1.0
        assert overall_p_mpjpe(False, ["--rigid-only"]) == rigid

    @pytest.mark.parametrize(
        "config, field",
        [(["tiny"], "config"), ({"sample": [False]}, "sample"),
         ({"sample": {"rigid_only": "no"}}, "sample.rigid_only")],
        ids=["config", "sample", "rigid_only"],
    )
    def test_malformed_predictions_config_is_config_error(self, workspace, tmp_path, capsys,
                                                          config, field):
        tensors = {f"pred/{rec.seq_id}/poses": rec.gt_3d for rec in load_dataset(workspace["data"])}
        pred = tmp_path / "pred.ptc"
        write_container(pred, tensors, meta={"kind": "predictions", "config": config})
        capsys.readouterr()
        assert main(["eval", "--predictions", str(pred), "--data", str(workspace["data"]),
                     "--out", str(tmp_path / "eval")]) == 1
        assert repr(field) in capsys.readouterr().err

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
        assert list(out.iterdir()) == []


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
