import csv
import dataclasses
import io
import json
import os
import re
import shutil
import struct
import tempfile
from pathlib import Path

import numpy as np
import oracles
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from phaseflow import data as data_mod
from phaseflow import eval as eval_mod
from phaseflow import nn
from phaseflow.cli import (
    ABLATION_METRICS,
    _confidence,
    load_config,
    main,
    read_prediction_csv,
    write_prediction_csv,
)
from phaseflow.core import (
    CSV_UNREAD,
    DataValidationError,
    ExperimentConfig,
    FeatureSequence,
    PhaseTaxonomy,
    UsageError,
)
from phaseflow.data import WorkflowGrammar, generate_dataset, read_dataset, write_video_dir
from phaseflow.model import InferenceResult, hmm_smooth_posthoc, infer_dataset, load_model

# tiny end-to-end configuration
CONFIG = {"hidden_dim": 4, "embed_dim": 6, "epochs": 2, "batch_size": 4,
          "learning_rate": 0.01, "enabled_ssm_features": ["csl", "hmm"],
          "csl_levels": [0.5], "gabor_num_scales": 2, "gabor_scale_min": 3,
          "gabor_scale_max": 5, "rng_seed": 0}

# every float-valued config key, csl_levels (a list of floats) included
FLOAT_KEYS = ("learning_rate", "proximal_weight", "gabor_scale_min", "gabor_scale_max",
              "hmm_smoothing", "grad_clip", "csl_levels")


def tiny_grammar_dict():
    tax = PhaseTaxonomy(("setup", "work", "closeout"))
    rng = np.random.default_rng(0)
    means = rng.standard_normal((3, 6))
    g = WorkflowGrammar(
        taxonomy=tax,
        precedence=((0, 1), (1, 2)),
        duration_median_s=np.array([4.0, 8.0, 4.0]),
        duration_sigma=np.array([0.3, 0.3, 0.3]),
        emission_means=means,
        emission_noise=0.4,
        name="tiny",
    )
    return g.to_dict()


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """synth -> train -> infer -> eval pipeline artifacts, built once."""
    root = tmp_path_factory.mktemp("cli")
    grammar_path = root / "grammar.json"
    grammar_path.write_text(json.dumps(tiny_grammar_dict()))
    config_path = root / "run.json"
    config_path.write_text(json.dumps(CONFIG))
    data = root / "data"
    ckpt = root / "ckpt"
    pred = root / "pred"
    report = root / "report"
    assert main(["synth", "--grammar", str(grammar_path), "--videos", "10",
                 "--seed", "3", "--out", str(data)]) == 0
    assert main(["train", "--data", str(data), "--config", str(config_path),
                 "--out", str(ckpt)]) == 0
    assert main(["infer", "--ckpt", str(ckpt / "best.ckpt"),
                 "--data", str(data), "--out", str(pred)]) == 0
    assert main(["eval", "--pred", str(pred), "--data", str(data),
                 "--out", str(report)]) == 0
    return {"root": root, "grammar": grammar_path, "config": config_path,
            "data": data, "ckpt": ckpt, "pred": pred, "report": report}


def with_header(ckpt: bytes, header: bytes) -> bytes:
    """The PHCK checkpoint `ckpt` with its JSON header replaced by `header`."""
    n = struct.unpack("<I", ckpt[8:12])[0]
    return ckpt[:8] + struct.pack("<I", len(header)) + header + ckpt[12 + n:]


def tree_bytes(path: Path, skip_names=()):
    out = {}
    for p in sorted(path.rglob("*")):
        if p.is_file() and p.name not in skip_names:
            out[str(p.relative_to(path))] = p.read_bytes()
    return out


class TestSynth:
    def test_dataset_layout_and_manifest(self, workspace):
        data = workspace["data"]
        manifest = json.loads((data / "manifest.json").read_text())
        splits = [v["split"] for v in manifest["videos"]]
        assert splits.count("train") == 6
        assert splits.count("val") == 2
        assert splits.count("test") == 2
        vid = manifest["videos"][0]["id"]
        assert (data / vid / "features.bin").exists()
        assert (data / vid / "labels.csv").exists()
        assert (data / vid / "meta.json").exists()

    def test_idempotent_rerun_bitwise(self, workspace, tmp_path):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        for out in (out1, out2):
            assert main(["synth", "--grammar", str(workspace["grammar"]),
                         "--videos", "4", "--seed", "9", "--out", str(out)]) == 0
        assert tree_bytes(out1) == tree_bytes(out2)

    def test_labels_csv_bytes_match_the_csv_module(self, workspace):
        grammar = WorkflowGrammar.from_dict(tiny_grammar_dict())
        for seq in generate_dataset(grammar, 10, 3):
            written = (workspace["data"] / seq.video_id / "labels.csv").read_bytes()
            assert written == oracles.csv_labels_bytes(seq.labels)

    def test_unknown_grammar_is_usage_error(self, tmp_path):
        assert main(["synth", "--grammar", "nope", "--videos", "2",
                     "--seed", "0", "--out", str(tmp_path / "x")]) == 2


class TestTrain:
    def test_outputs(self, workspace):
        ckpt = workspace["ckpt"]
        # one file per checkpoint: the transition matrix is in its header
        assert sorted(p.name for p in ckpt.iterdir()) == [
            "best.ckpt", "config.json", "epoch_001.ckpt", "epoch_002.ckpt",
            "training_log.jsonl"]
        _, extra = nn.load_checkpoint(ckpt / "best.ckpt")
        np.testing.assert_allclose(load_model(ckpt / "best.ckpt").transition.a,
                                   extra["transition"], rtol=1e-15)
        lines = (ckpt / "training_log.jsonl").read_text().strip().splitlines()
        assert len(lines) == 2
        entry = json.loads(lines[0])
        assert {"epoch", "train_loss", "val_accuracy", "wall_time_s", "train_s",
                "train_fps", "refresh_s", "validate_s", "grad_norm_p50",
                "clipped_frac", "hmm_underflows", "stat_ranges"} == set(entry)
        # the workspace trains the csl|hmm arm, causal
        ranges = entry["stat_ranges"]
        assert ranges["gabor"] is None and ranges["acausal"] is None
        for group in ("csl", "hmm"):
            assert 0.0 <= ranges[group]["min"] <= ranges[group]["mean"] \
                <= ranges[group]["max"]

    def test_config_echo_round_trips(self, workspace):
        # config.json is the checkpoint header's config object, every field
        # written, and loads back to the config that was trained
        echo = workspace["ckpt"] / "config.json"
        echoed = load_config(str(echo))
        assert echoed == ExperimentConfig.from_dict(CONFIG)
        assert echoed.hidden_dim == 4
        assert echoed.enabled_ssm_features == ("csl", "hmm")
        header = nn.load_checkpoint(workspace["ckpt"] / "best.ckpt")[1]["config"]
        assert json.loads(echo.read_text()) == header == echoed.to_dict()

    def test_empty_validation_split_trains_without_validation(self, workspace, tmp_path):
        # two videos split into train and test: the manifest has no val video
        data, out = tmp_path / "data", tmp_path / "ckpt"
        assert main(["synth", "--grammar", str(workspace["grammar"]), "--videos", "2",
                     "--seed", "4", "--out", str(data)]) == 0
        splits = [v["split"] for v in json.loads((data / "manifest.json").read_text())["videos"]]
        assert sorted(splits) == ["test", "train"]
        assert main(["train", "--data", str(data), "--config", str(workspace["config"]),
                     "--out", str(out)]) == 0
        lines = (out / "training_log.jsonl").read_text().splitlines()
        assert [json.loads(line)["val_accuracy"] for line in lines] == [None, None]
        # an empty train split is still an error
        manifest = json.loads((data / "manifest.json").read_text())
        for v in manifest["videos"]:
            v["split"] = "test"
        (data / "manifest.json").write_text(json.dumps(manifest))
        assert main(["train", "--data", str(data), "--config", str(workspace["config"]),
                     "--out", str(tmp_path / "none")]) == 3

    def test_zero_epochs_report_no_accuracy(self, workspace, tmp_path, capsys):
        # no epoch ran, so there is no best accuracy: nan, as without a
        # validation split, never a start value
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({**CONFIG, "epochs": 0}))
        assert main(["train", "--data", str(workspace["data"]), "--config", str(cfg),
                     "--out", str(tmp_path / "ckpt")]) == 0
        assert capsys.readouterr().out.startswith("best epoch 0 (val accuracy nan);")

    def test_missing_data_dir_is_data_error(self, workspace, tmp_path):
        assert main(["train", "--data", str(tmp_path / "missing"),
                     "--config", str(workspace["config"]),
                     "--out", str(tmp_path / "out")]) == 3


@pytest.mark.parametrize("cmd", ["train", "infer", "ablate"])
def test_each_command_reads_the_manifest_once(workspace, tmp_path, monkeypatch, cmd):
    reads = []
    real_read_json = data_mod.read_json
    monkeypatch.setattr(data_mod, "read_json",
                        lambda path: reads.append(path) or real_read_json(path))
    config = ["--config", str(workspace["config"])]
    source = {"train": config, "infer": ["--ckpt", str(workspace["ckpt"] / "best.ckpt")],
              "ablate": config + ["--seeds", "1", "--arms", "baseline"]}[cmd]
    assert main([cmd, "--data", str(workspace["data"]), "--out", str(tmp_path / "out")]
                + source) == 0
    assert [os.path.basename(p) for p in reads].count("manifest.json") == 1


class TestInfer:
    def test_prediction_csvs_for_test_split(self, workspace):
        data = workspace["data"]
        manifest = json.loads((data / "manifest.json").read_text())
        test_ids = sorted(v["id"] for v in manifest["videos"]
                          if v["split"] == "test")
        files = sorted(p.name for p in workspace["pred"].glob("*.csv"))
        assert files == [f"{vid}.csv" for vid in test_ids]
        header = (workspace["pred"] / files[0]).read_text().splitlines()[0]
        assert header == "frame_idx,predicted_id,prob_0,prob_1,prob_2"

    def test_hmm_smooth_flag(self, workspace, tmp_path):
        out = tmp_path / "pred_smooth"
        assert main(["infer", "--ckpt", str(workspace["ckpt"] / "best.ckpt"),
                     "--data", str(workspace["data"]), "--out", str(out),
                     "--hmm-smooth"]) == 0
        files = sorted(p.name for p in out.glob("*.csv"))
        assert files == sorted(p.name for p in workspace["pred"].glob("*.csv"))
        transition = load_model(workspace["ckpt"] / "best.ckpt").transition
        changed = 0
        for name in files:
            labels, probs = read_prediction_csv(workspace["pred"] / name)
            smoothed, smoothed_probs = read_prediction_csv(out / name)
            # one batched filter over all videos gives, on this fixture, the
            # labels of one filter per video; the probabilities are untouched
            assert np.array_equal(smoothed, hmm_smooth_posthoc(probs, transition))
            assert np.array_equal(smoothed_probs, probs)
            changed += int((smoothed != labels).sum())
        assert changed > 0      # the smoothing does act on this fixture

    def test_hmm_smooth_on_a_baseline_checkpoint(self, workspace, tmp_path, capsys):
        # every checkpoint holds the matrix fit estimated, the plain LSTM's
        # too, and none loads without one
        cfg = tmp_path / "baseline.json"
        cfg.write_text(json.dumps({**CONFIG, "epochs": 1, "enabled_ssm_features": []}))
        ckpt = tmp_path / "ckpt"
        assert main(["train", "--data", str(workspace["data"]), "--config", str(cfg),
                     "--out", str(ckpt)]) == 0
        infer = ["infer", "--data", str(workspace["data"]), "--hmm-smooth", "--ckpt"]
        assert main(infer + [str(ckpt / "best.ckpt"), "--out", str(tmp_path / "p")]) == 0
        params, extra = nn.load_checkpoint(ckpt / "best.ckpt")
        nn.save_checkpoint(ckpt / "null.ckpt", params, {**extra, "transition": None})
        capsys.readouterr()
        assert main(infer + [str(ckpt / "null.ckpt"), "--out", str(tmp_path / "q")]) == 3
        assert str(ckpt / "null.ckpt") in capsys.readouterr().err

    def test_confidence_summary(self, workspace, capsys, tmp_path):
        out = tmp_path / "pred"
        assert main(["infer", "--ckpt", str(workspace["ckpt"] / "best.ckpt"),
                     "--data", str(workspace["data"]), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        tops = []
        for path in sorted(out.glob("*.csv")):
            _, probs = read_prediction_csv(path)
            top = probs.max(axis=1).astype(np.float64)
            tops.append(top)
            assert summary["videos"][path.stem] == pytest.approx({
                "frames": len(top), "mean_max_prob": top.mean(),
                "low_confidence_frac": (top < 0.5).mean()}, abs=1e-12)
        assert len(summary["videos"]) == len(tops)
        top = np.concatenate(tops)
        assert summary["total"] == pytest.approx({
            "frames": len(top), "mean_max_prob": top.mean(),
            "low_confidence_frac": (top < 0.5).mean()}, abs=1e-12)
        assert f"{len(top)} frames, mean max-probability {top.mean():.4f}" in \
            capsys.readouterr().out

    def test_confidence_counts_frames_below_one_half(self):
        probs = np.array([[0.5, 0.5], [0.25, 0.75], [0.45, 0.3]], dtype=np.float32)
        assert _confidence(probs) == pytest.approx(
            {"frames": 3, "mean_max_prob": 0.5666666666, "low_confidence_frac": 1 / 3})

    def test_acausal_checkpoint_writes_pass_2(self, workspace, tmp_path):
        # the checkpoint decides the passes: `infer` writes what infer_dataset
        # returns for an acausal model, and `eval` scores those labels
        data, ckpt, pred = workspace["data"], tmp_path / "ckpt", tmp_path / "pred"
        cfg = tmp_path / "acausal.json"
        cfg.write_text(json.dumps({**CONFIG, "acausal": True}))
        assert main(["train", "--data", str(data), "--config", str(cfg),
                     "--out", str(ckpt)]) == 0
        assert main(["infer", "--ckpt", str(ckpt / "best.ckpt"), "--data", str(data),
                     "--out", str(pred)]) == 0
        assert main(["eval", "--pred", str(pred), "--data", str(data),
                     "--out", str(tmp_path / "report")]) == 0
        seqs, _ = read_dataset(data, split="test")
        expected = infer_dataset(load_model(ckpt / "best.ckpt"), seqs)
        assert sorted(p.stem for p in pred.glob("*.csv")) == sorted(expected)
        reports = []
        for seq in sorted(seqs, key=lambda s: s.video_id):
            labels, probs = read_prediction_csv(pred / f"{seq.video_id}.csv")
            result = expected[seq.video_id]
            assert result.pass1_probs is not None
            assert np.array_equal(labels, result.labels)
            assert probs.dtype == np.float32 and np.array_equal(probs, result.probs)
            reports.append(eval_mod.compute_report(seq.labels, labels, 3))
        metrics = json.loads((tmp_path / "report" / "metrics.json").read_text())
        assert metrics["dataset"]["frame_accuracy"] == \
            eval_mod.aggregate_reports(reports, 3).frame_accuracy
        # the flags are gone: the config alone decides, and argparse refuses them
        assert main(["infer", "--ckpt", str(ckpt / "best.ckpt"), "--data", str(data),
                     "--out", str(tmp_path / "p"), "--acausal"]) == 2
        for flag in (["--acausal"], ["--features", "csl"]):
            assert main(["train", "--data", str(data), "--config", str(cfg),
                         "--out", str(tmp_path / "p")] + flag) == 2
        assert not (tmp_path / "p").exists()


class TestTypedErrors:
    def test_infer_missing_checkpoint_is_usage_error(self, workspace, tmp_path, capsys):
        missing = tmp_path / "nope" / "best.ckpt"
        assert main(["infer", "--ckpt", str(missing), "--data", str(workspace["data"]),
                     "--out", str(tmp_path / "p")]) == 2
        assert str(missing) in capsys.readouterr().err

    @staticmethod
    def eval_with_field_replaced(workspace, tmp_path, field, value):
        """Run `eval` on the workspace predictions with one field of line 4
        of the first CSV replaced; returns the exit code and that CSV."""
        pred = tmp_path / "pred"
        pred.mkdir()
        for src in sorted(workspace["pred"].glob("*.csv")):
            (pred / src.name).write_bytes(src.read_bytes())
        bad = sorted(pred.glob("*.csv"))[0]
        lines = bad.read_text().splitlines()
        fields = lines[3].split(",")
        fields[field] = value
        lines[3] = ",".join(fields)
        bad.write_text("\n".join(lines) + "\n")
        return main(["eval", "--pred", str(pred), "--data", str(workspace["data"]),
                     "--out", str(tmp_path / "r")]), bad

    def test_eval_non_integer_prediction_is_data_error(self, workspace, tmp_path, capsys):
        code, bad = self.eval_with_field_replaced(workspace, tmp_path, 1, "x")
        assert code == 3
        err = capsys.readouterr().err
        assert str(bad) in err
        assert "line 4: predicted_id 'x' is not an integer" in err

    def test_eval_probability_outside_unit_interval_is_data_error(
            self, workspace, tmp_path, capsys):
        code, bad = self.eval_with_field_replaced(workspace, tmp_path, 2, "nan")
        assert code == 3
        err = capsys.readouterr().err
        assert str(bad) in err
        assert "line 4: prob_0 'nan' is not a probability" in err

    @pytest.mark.parametrize("manifest", [
        "{bad", "{}", '{"videos": [{"id": "video_000"}]}',
        '{"videos": [{"split": "train"}]}',
    ])
    def test_malformed_manifest_is_data_error(self, tmp_path, capsys, manifest):
        data = tmp_path / "data"
        data.mkdir()
        (data / "manifest.json").write_text(manifest)
        assert main(["train", "--data", str(data), "--out", str(tmp_path / "c")]) == 3
        assert str(data / "manifest.json") in capsys.readouterr().err

    @pytest.mark.parametrize("broken", [
        "header {bad", "header {}", "transition non-numeric", "transition ragged",
        "transition size", "transition null", "transition missing",
        "block head_w", "name head_b", "value nan", "value inf", "value -inf",
        "extra block", "taxonomy name",
    ])
    def test_malformed_checkpoint_is_data_error(self, workspace, tmp_path, capsys,
                                                broken):
        bad = tmp_path / "best.ckpt"
        params, extra = nn.load_checkpoint(workspace["ckpt"] / "best.ckpt")
        rows = extra["transition"]
        kind, what = broken.split(" ")
        if kind == "header":
            bad.write_bytes(with_header((workspace["ckpt"] / "best.ckpt").read_bytes(),
                                        what.encode()))
        elif kind == "name":     # a block name that is not UTF-8
            bad.write_bytes((workspace["ckpt"] / "best.ckpt").read_bytes()
                            .replace(what.encode(), b"head_\xff"))
        else:
            if kind == "block":
                params[what] = np.zeros((params[what].shape[0], 1), np.float32)
            elif kind == "extra":    # save_model would write it back
                params["extra"] = np.zeros(3, np.float32)
            elif kind == "taxonomy":
                extra["taxonomy"]["0"] = 0
            elif kind == "value":    # a weight that is not finite
                params["head_b"][0] = float(what)
            elif what == "non-numeric":
                rows[1][0] = "x"
            elif what == "ragged":
                rows[1].append(0.5)
            elif what == "size":     # the matrix of one phase fewer
                extra["transition"] = [row[:-1] for row in rows[:-1]]
            elif what == "null":
                extra["transition"] = None
            else:
                del extra["transition"]
            nn.save_checkpoint(bad, params, extra)
        assert main(["infer", "--ckpt", str(bad),
                     "--data", str(workspace["data"]), "--out", str(tmp_path / "p")]) == 3
        err = capsys.readouterr().err
        assert str(bad) in err
        if kind == "value":
            assert "block head_b" in err and "not finite" in err
        if kind == "transition":
            assert "transition" in err
        if kind == "extra":
            assert "unexpected block extra" in err
        if kind == "taxonomy":
            assert "phase names must be strings, got 0" in err
        assert not (tmp_path / "p").exists()

    def test_version_1_checkpoint_is_data_error(self, workspace, tmp_path, capsys):
        # version 1 kept the transition matrix in a transition.csv beside it
        bad = tmp_path / "best.ckpt"
        raw = (workspace["ckpt"] / "best.ckpt").read_bytes()
        bad.write_bytes(raw[:4] + struct.pack("<I", 1) + raw[8:])
        assert main(["infer", "--ckpt", str(bad), "--data", str(workspace["data"]),
                     "--out", str(tmp_path / "p")]) == 3
        assert f"unsupported checkpoint version 1 in {bad}" in capsys.readouterr().err

    def test_overflowing_finite_weights_are_numeric_error(self, workspace, tmp_path,
                                                          capsys):
        # finite weights whose logits overflow give NaN probabilities, and
        # no prediction file or summary.json is written from them: gates
        # saturated open drive h towards 1, and h @ head_w exceeds the
        # float32 range
        bad = tmp_path / "best.ckpt"
        params, extra = nn.load_checkpoint(workspace["ckpt"] / "best.ckpt")
        params["lstm_b"][:] = 1e30
        params["head_w"][:] = 3e38
        nn.save_checkpoint(bad, params, extra)
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["infer", "--ckpt", str(bad), "--data", str(workspace["data"]),
                         "--out", str(tmp_path / "p")])
        assert code == 4
        assert "not finite" in capsys.readouterr().err
        assert not (tmp_path / "p").exists()

    def test_checkpoint_with_a_string_bool_is_data_error(self, workspace, tmp_path, capsys):
        # "false" is a true value to bool(); the header must not load an
        # acausal model
        bad = tmp_path / "best.ckpt"
        params, extra = nn.load_checkpoint(workspace["ckpt"] / "best.ckpt")
        extra["config"]["acausal"] = "false"
        nn.save_checkpoint(bad, params, extra)
        assert main(["infer", "--ckpt", str(bad), "--data", str(workspace["data"]),
                     "--out", str(tmp_path / "p")]) == 3
        err = capsys.readouterr().err
        assert str(bad) in err
        assert "config key acausal: invalid value 'false'" in err

    @pytest.mark.parametrize("broken", ["id -1", "id 99", "no-probs", "bytes"])
    def test_malformed_prediction_is_data_error(self, workspace, tmp_path, capsys, broken):
        pred = shutil.copytree(workspace["pred"], tmp_path / "pred")
        bad = sorted(pred.glob("*.csv"))[0]
        lines = bad.read_bytes().splitlines()
        line = 4
        if broken == "no-probs":
            lines = [b",".join(row.split(b",")[:2]) for row in lines]
            line = 1
        elif broken == "bytes":
            lines[3] += b"\xff"
        else:
            fields = lines[3].split(b",")
            fields[1] = broken.split()[1].encode()
            lines[3] = b",".join(fields)
        bad.write_bytes(b"\n".join(lines) + b"\n")
        assert main(["eval", "--pred", str(pred), "--data", str(workspace["data"]),
                     "--out", str(tmp_path / "r")]) == 3
        err = capsys.readouterr().err
        assert str(bad) in err
        assert f"line {line}:" in err

    def test_eval_missing_prediction_dir_is_usage_error(self, workspace, tmp_path, capsys):
        missing = tmp_path / "nope"
        assert main(["eval", "--pred", str(missing), "--data", str(workspace["data"]),
                     "--out", str(tmp_path / "r")]) == 2
        assert str(missing) in capsys.readouterr().err

    @pytest.mark.parametrize("broken", [
        "meta.json {}", "meta.json fps", "meta.json bytes", "labels.csv bytes",
        "features.bin missing", "meta.json fps-string", "meta.json fps-bool",
    ])
    def test_malformed_video_dir_is_data_error(self, workspace, tmp_path, capsys, broken):
        data = shutil.copytree(workspace["data"], tmp_path / "data")
        name, what = broken.split()
        bad = data / "video_000" / name
        if what == "missing":
            bad.unlink()
        elif what == "bytes":
            bad.write_bytes(bad.read_bytes().replace(b"0", b"\xff", 1))
        elif what.startswith("fps"):    # float() reads "25" as 25.0 and true as 1.0
            fps = {"fps": "abc", "fps-string": "25", "fps-bool": True}[what]
            bad.write_text(json.dumps({**json.loads(bad.read_text()), "fps": fps}))
        else:
            bad.write_text(what)
        assert main(["train", "--data", str(data), "--out", str(tmp_path / "c")]) == 3
        assert str(bad) in capsys.readouterr().err

    @pytest.mark.parametrize("name", [0, None], ids=["number", "null"])
    def test_phase_name_that_is_not_a_string_is_data_error(self, workspace, tmp_path,
                                                           capsys, name):
        # train would write such a name into the checkpoint, and eval's
        # reports need strings
        data = shutil.copytree(workspace["data"], tmp_path / "data")
        for meta in data.glob("*/meta.json"):
            meta.write_text(json.dumps({**json.loads(meta.read_text()),
                                        "taxonomy": {"0": name, "1": "b", "2": "c"}}))
        for cmd in (["train", "--config", str(workspace["config"])],
                    ["eval", "--pred", str(workspace["pred"])]):
            assert main(cmd + ["--data", str(data), "--out", str(tmp_path / "out")]) == 3
            err = capsys.readouterr().err
            assert f"meta.json: DataValidationError: phase names must be strings, " \
                   f"got {name!r}" in err
            assert not (tmp_path / "out").exists()

    def test_phase_name_with_a_lone_surrogate_is_data_error(self, workspace, tmp_path,
                                                           capsys):
        # json reads the escape \ud800 as a lone surrogate; the reports eval
        # writes could not encode it as UTF-8
        data = shutil.copytree(workspace["data"], tmp_path / "data")
        for meta in data.glob("*/meta.json"):
            meta.write_text(json.dumps({**json.loads(meta.read_text()),
                                        "taxonomy": {"0": "\ud800", "1": "b", "2": "c"}}))
        for cmd in (["train", "--config", str(workspace["config"])],
                    ["eval", "--pred", str(workspace["pred"])]):
            assert main(cmd + ["--data", str(data), "--out", str(tmp_path / "out")]) == 3
            assert "the name of phase 0 holds a lone surrogate" in capsys.readouterr().err
            assert not (tmp_path / "out").exists()

    def test_training_video_without_labels_is_data_error(self, workspace, tmp_path,
                                                         capsys):
        data = shutil.copytree(workspace["data"], tmp_path / "data")
        (data / "video_000" / "labels.csv").unlink()
        for cmd in (["train"], ["ablate", "--seeds", "1", "--arms", "baseline"]):
            assert main(cmd + ["--data", str(data), "--config", str(workspace["config"]),
                               "--out", str(tmp_path / "out")]) == 3
            assert "video video_000 has no labels" in capsys.readouterr().err

    @pytest.mark.parametrize("cmd, split, other", [
        (["train"], "val", "other videos"),
        (["ablate", "--seeds", "1", "--arms", "baseline"], "val", "other videos"),
        (["infer"], "test", "the model's"),
    ], ids=["train", "ablate", "infer"])
    def test_split_with_another_taxonomy_is_data_error(self, workspace, tmp_path,
                                                       capsys, cmd, split, other):
        # a model must not be scored against, or run on, phases of another name
        data = shutil.copytree(workspace["data"], tmp_path / "data")
        ids = sorted(v["id"] for v in json.loads((data / "manifest.json").read_text())
                     ["videos"] if v["split"] == split)
        for vid in ids:
            meta = json.loads((data / vid / "meta.json").read_text())
            meta["taxonomy"]["0"] = "renamed"
            (data / vid / "meta.json").write_text(json.dumps(meta))
        source = (["--ckpt", str(workspace["ckpt"] / "best.ckpt")] if cmd == ["infer"]
                  else ["--config", str(workspace["config"])])
        assert main(cmd + source + ["--data", str(data),
                                    "--out", str(tmp_path / "out")]) == 3
        assert f"{data / ids[0]}: taxonomy differs from {other}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_meta_json_naming_another_video_is_data_error(self, workspace, tmp_path,
                                                          capsys):
        # an older meta.json holds the video's id; one that names another
        # video would make infer write both videos' predictions to one file
        data = shutil.copytree(workspace["data"], tmp_path / "data")
        bad = data / "video_009" / "meta.json"
        bad.write_text(json.dumps({**json.loads(bad.read_text()), "video_id": "video_008"}))
        assert main(["infer", "--ckpt", str(workspace["ckpt"] / "best.ckpt"),
                     "--data", str(data), "--out", str(tmp_path / "out")]) == 3
        assert (f"{bad}: ValueError: video_id 'video_008' is not the directory's name"
                in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name", ["...csv", "..csv", ".csv"])
    def test_eval_prediction_name_that_is_not_a_video_id_is_data_error(
            self, workspace, tmp_path, capsys, name):
        # `...csv` names the video `..`: eval would score the video whose
        # files lie beside --data, and `..csv` and `.csv` --data itself
        data = shutil.copytree(workspace["data"], tmp_path / "data")
        pred = shutil.copytree(workspace["pred"], tmp_path / "pred")
        test_csv = sorted(pred.glob("video_*.csv"))[0]
        for part in ("features.bin", "labels.csv", "meta.json"):
            shutil.copy(data / test_csv.stem / part, tmp_path / part)
        shutil.copy(test_csv, pred / name)
        assert main(["eval", "--pred", str(pred), "--data", str(data),
                     "--out", str(tmp_path / "out")]) == 3
        assert (f"{pred / name}: the name before .csv is not a video id"
                in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("target, code", [
        ("config", 2), ("manifest.json", 3), ("meta.json", 3), ("grammar", 3),
        ("checkpoint header", 3)])
    def test_deeply_nested_json_is_a_typed_error(self, workspace, tmp_path, capsys,
                                                 target, code):
        # 100000 nested arrays exceed the JSON parser's recursion limit
        deep = "[" * 100_000
        data = shutil.copytree(workspace["data"], tmp_path / "data")
        out = tmp_path / "out"
        train = ["train", "--data", str(data), "--out", str(out)]
        if target == "config":
            bad = tmp_path / "run.json"
            argv = train + ["--config", str(bad)]
        elif target == "grammar":
            bad = tmp_path / "grammar.json"
            argv = ["synth", "--grammar", str(bad), "--videos", "2", "--seed", "1",
                    "--out", str(out)]
        elif target == "checkpoint header":
            bad = tmp_path / "best.ckpt"
            bad.write_bytes(with_header((workspace["ckpt"] / "best.ckpt").read_bytes(),
                                        deep.encode()))
            argv = ["infer", "--ckpt", str(bad), "--data", str(data), "--out", str(out)]
        else:
            bad = data / "manifest.json" if target == "manifest.json" else \
                data / "video_000" / "meta.json"
            argv = train
        if target != "checkpoint header":
            bad.write_text(deep)
        assert main(argv) == code
        err = capsys.readouterr().err
        assert str(bad) in err and "maximum recursion depth exceeded" in err
        assert not out.exists()

    @pytest.mark.parametrize("fault, named", [
        ("split", "manifest needs a 'videos' list of entries with an 'id' and a "
                  "'split' of train, val, test"),
        ("repeated id", "video id 'video_001' is listed twice"),
        ("outside", "video id '../other/video_004' is not one path component"),
        ("nul", "video id 'video_000\\x00' is not one path component"),
    ], ids=["split", "repeated-id", "outside", "nul"])
    def test_manifest_entry_faults_are_data_errors(self, workspace, tmp_path, capsys,
                                                   fault, named):
        # a misspelt split would drop its video from every split, a repeated
        # id would read one video into training twice, and an id that is not
        # a directory name would read a video from outside the dataset or
        # fail in the file system
        data = shutil.copytree(workspace["data"], tmp_path / "data")
        path = data / "manifest.json"
        manifest = json.loads(path.read_text())
        if fault == "split":
            manifest["videos"][0]["split"] = "tarin"
        elif fault == "repeated id":
            manifest["videos"].append({"id": "video_001", "split": "train"})
        elif fault == "outside":
            (tmp_path / "other").mkdir()
            (data / "video_004").rename(tmp_path / "other" / "video_004")
            entry = next(v for v in manifest["videos"] if v["id"] == "video_004")
            entry["id"] = "../other/video_004"
        else:
            manifest["videos"][0]["id"] = "video_000\0"
        path.write_text(json.dumps(manifest))
        config = ["--config", str(workspace["config"])]
        for cmd in (["train"] + config,
                    ["infer", "--ckpt", str(workspace["ckpt"] / "best.ckpt")],
                    ["ablate", "--seeds", "1", "--arms", "baseline"] + config):
            assert main(cmd + ["--data", str(data), "--out", str(tmp_path / "out")]) == 3
            assert f"{path}: {named}" in capsys.readouterr().err
            assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text", ["{bad", "{}", pytest.param(json.dumps(
        {**tiny_grammar_dict(), "occurrences": {"-1": [2, 3], "99": [0, 0]}}),
        id="occurrences-out-of-range"), pytest.param(json.dumps(
            {**tiny_grammar_dict(), "emission_noise": "0.5"}), id="emission_noise-string"),
        pytest.param(json.dumps({**tiny_grammar_dict(), "occurrences": {"1": [1, 2, 3]}}),
                     id="occurrences-triple"),
        pytest.param(json.dumps({**tiny_grammar_dict(), "occurrences": {" 1": [1, 2]}}),
                     id="occurrences-key-space")])
    def test_malformed_grammar_file_is_data_error(self, tmp_path, capsys, text):
        grammar = tmp_path / "grammar.json"
        grammar.write_text(text)
        assert main(["synth", "--grammar", str(grammar), "--videos", "2", "--seed", "1",
                     "--out", str(tmp_path / "d")]) == 3
        assert str(grammar) in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["ambiguity_groups"])
    def test_grammar_group_out_of_range_is_data_error(self, tmp_path, capsys, field):
        grammar = tmp_path / "grammar.json"
        grammar.write_text(json.dumps({**tiny_grammar_dict(), field: [[-1, 2]]}))
        assert main(["synth", "--grammar", str(grammar), "--videos", "2", "--seed", "1",
                     "--out", str(tmp_path / "d")]) == 3
        err = capsys.readouterr().err
        assert str(grammar) in err
        assert "(-1, 2) names a phase outside 0..2" in err

    @pytest.mark.parametrize("key", ["interchangeable_groups", "ambiguity_group"])
    def test_unknown_grammar_key_is_data_error(self, tmp_path, capsys, key):
        # a misspelt key, such as `ambiguity_group`, must not be dropped
        # without a word
        grammar = tmp_path / "grammar.json"
        grammar.write_text(json.dumps({**tiny_grammar_dict(), key: [[0, 1]]}))
        assert main(["synth", "--grammar", str(grammar), "--videos", "2", "--seed", "1",
                     "--out", str(tmp_path / "d")]) == 3
        err = capsys.readouterr().err
        assert f"grammar file {grammar}: GrammarError: unknown grammar keys: ['{key}']" in err
        assert not (tmp_path / "d").exists()

    def test_infer_embedding_width_mismatch_is_data_error(self, workspace, tmp_path,
                                                          capsys):
        # the workspace model reads 6-d embeddings; this dataset has 4-d ones
        grammar = tiny_grammar_dict()
        grammar["emission_means"] = [row[:4] for row in grammar["emission_means"]]
        (tmp_path / "grammar.json").write_text(json.dumps(grammar))
        data = tmp_path / "data"
        assert main(["synth", "--grammar", str(tmp_path / "grammar.json"), "--videos",
                     "10", "--seed", "3", "--out", str(data)]) == 0
        assert main(["infer", "--ckpt", str(workspace["ckpt"] / "best.ckpt"),
                     "--data", str(data), "--out", str(tmp_path / "p")]) == 3
        assert "4-d embeddings, but config embed_dim is 6" in capsys.readouterr().err
        assert not (tmp_path / "p").exists()

    @pytest.mark.parametrize("args, named", [
        ("synth --videos 3 --seed -1", "-1"),
        ("train --config run.json", "rng_seed must be >= 0, got -2"),
        ("ablate --arms baseline --seeds=-3", "'-3'"),
        ("ablate --arms baseline --seeds 1,x", "'x'"),
    ], ids=["synth", "train", "ablate-negative", "ablate-not-an-integer"])
    def test_bad_seed_is_usage_error(self, workspace, tmp_path, capsys, args, named):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({**CONFIG, "rng_seed": -2}))
        argv = args.replace("run.json", str(cfg)).split()
        source = (["--grammar", str(workspace["grammar"])] if argv[0] == "synth"
                  else ["--data", str(workspace["data"])])
        assert main(argv + source + ["--out", str(tmp_path / "out")]) == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_embedding_width_mismatch_is_data_error(self, workspace, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({**CONFIG, "embed_dim": 4}))
        assert main(["train", "--data", str(workspace["data"]), "--config", str(cfg),
                     "--out", str(tmp_path / "c")]) == 3
        err = capsys.readouterr().err
        assert "video_0" in err
        assert "6-d embeddings, but config embed_dim is 4" in err

    @pytest.mark.parametrize("groups, named", [
        ([[99]], "ambiguity_groups name phase 99, outside the taxonomy's 0..2"),
        ("ab", "ambiguity_groups must be lists of phase ids, got 'ab'"),
        ([[-1, 0]], "ambiguity_groups must be lists of phase ids, got [[-1, 0]]"),
    ], ids=["out-of-range", "not-a-list", "negative"])
    def test_ablate_bad_ambiguity_groups_is_data_error(self, workspace, tmp_path,
                                                       capsys, groups, named):
        data = shutil.copytree(workspace["data"], tmp_path / "data")
        path = data / "manifest.json"
        path.write_text(json.dumps({**json.loads(path.read_text()),
                                    "ambiguity_groups": groups}))
        assert main(["ablate", "--data", str(data), "--config", str(workspace["config"]),
                     "--seeds", "1", "--arms", "baseline",
                     "--out", str(tmp_path / "a")]) == 3
        err = capsys.readouterr().err
        assert str(path) in err
        assert named in err
        assert not (tmp_path / "a" / "baseline_seed1").exists()

    def test_bad_config_value_is_usage_error(self, workspace, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text('{"hidden_dim": "abc"}')
        assert main(["train", "--data", str(workspace["data"]), "--config", str(cfg),
                     "--out", str(tmp_path / "c")]) == 2
        assert "hidden_dim" in capsys.readouterr().err

    @pytest.mark.parametrize("text, named", [
        ('[{"epochs": 3}]', "expected a JSON object, got list"),
        ('{"epochs": 3', "Expecting ',' delimiter"),
        ("epochs = 3\nacausal = true\n", "Expecting value: line 1 column 1"),
        ('{"epochs": "3"}', "config key epochs: invalid value '3'"),
        ("[" * 100_000, "maximum recursion depth exceeded"),
        ('{"epochs": 1, "csl_levels": [1.5]}', "config field csl_levels must be probability"),
    ], ids=["array", "malformed", "key-value-text", "string-number", "deeply-nested",
            "csl-level-above-one"])
    def test_config_not_a_json_config_object_is_usage_error(
            self, workspace, tmp_path, capsys, text, named):
        cfg = tmp_path / "run.json"
        cfg.write_text(text)
        for cmd in (["train"], ["ablate", "--seeds", "1", "--arms", "baseline"]):
            assert main(cmd + ["--data", str(workspace["data"]), "--config", str(cfg),
                               "--out", str(tmp_path / "c")]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: config file {cfg}: ") and named in err
            assert err.count(str(cfg)) == 1 and "Traceback" not in err
            assert not (tmp_path / "c").exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", FLOAT_KEYS)
    def test_non_finite_float_config_value_is_usage_error(self, workspace, tmp_path,
                                                          capsys, key, value):
        # json writes and reads these as NaN, Infinity and -Infinity
        cfg = tmp_path / "run.json"
        number = float(value)
        cfg.write_text(json.dumps({key: [number] if key == "csl_levels" else number}))
        assert main(["train", "--data", str(workspace["data"]), "--config", str(cfg),
                     "--out", str(tmp_path / "c")]) == 2
        assert f"config field {key} must be finite" in capsys.readouterr().err
        assert not (tmp_path / "c").exists()

    def test_unreadable_config_is_usage_error(self, workspace, tmp_path, capsys):
        assert main(["train", "--data", str(workspace["data"]), "--config", str(tmp_path),
                     "--out", str(tmp_path / "c")]) == 2
        assert str(tmp_path) in capsys.readouterr().err


class TestEval:
    def test_report_files(self, workspace):
        report = workspace["report"]
        payload = json.loads((report / "metrics.json").read_text())
        assert payload["schema_version"] == 1
        assert 0.0 <= payload["dataset"]["frame_accuracy"] <= 1.0
        assert len(payload["per_video"]) == 2
        assert (report / "confusion.csv").exists()
        assert (report / "accuracy_vs_length.csv").exists()
        svgs = list((report / "timelines").glob("*.svg"))
        assert len(svgs) == 2

    @pytest.mark.parametrize("names", [("a", "b"), ("a", "b", "d")],
                             ids=["phase-count", "phase-names"])
    def test_mixed_taxonomies_are_data_error(self, tmp_path, capsys, names):
        # eval reads each video directory on its own; all must share one taxonomy
        data, pred = tmp_path / "data", tmp_path / "pred"
        pred.mkdir()
        labels = np.array([0, 0, 1, 1])
        for vid, tax in (("v1", PhaseTaxonomy(("a", "b", "c"))), ("v2", PhaseTaxonomy(names))):
            write_video_dir(data / vid, FeatureSequence(
                vid, 1.0, np.zeros((4, 2), np.float32), labels), tax)
            probs = np.eye(tax.n_phases, dtype=np.float32)[labels]
            write_prediction_csv(pred / f"{vid}.csv",
                                 InferenceResult(vid, probs, labels), labels)
        assert main(["eval", "--pred", str(pred), "--data", str(data),
                     "--out", str(tmp_path / "report")]) == 3
        assert "v2: taxonomy differs from other videos" in capsys.readouterr().err
        assert not (tmp_path / "report").exists()

    def test_buckets_read_the_video_fps(self, tmp_path):
        # at 2 fps, segments of 4 and 16 frames last 2 s and 8 s
        data, pred = tmp_path / "data", tmp_path / "pred"
        pred.mkdir()
        labels = np.array([0] * 4 + [1] * 16)
        tax = PhaseTaxonomy(("a", "b"))
        write_video_dir(data / "v1", FeatureSequence(
            "v1", 2.0, np.zeros((20, 2), np.float32), labels), tax)
        write_prediction_csv(pred / "v1.csv", InferenceResult(
            "v1", np.eye(2, dtype=np.float32)[labels], labels), labels)
        assert main(["eval", "--pred", str(pred), "--data", str(data),
                     "--out", str(tmp_path / "report")]) == 0
        payload = json.loads((tmp_path / "report" / "metrics.json").read_text())
        assert payload["dataset"]["bucket_accuracy"] == {
            "1-3s": 1.0, "4-10s": 1.0, "11-30s": None, "31-60s": None, ">60s": None}


    def test_locked_output_dir_refused(self, workspace, tmp_path):
        out = tmp_path / "locked"
        out.mkdir()
        (out / ".phaseflow.lock").touch()
        assert main(["synth", "--grammar", str(workspace["grammar"]),
                     "--videos", "2", "--seed", "1", "--out", str(out)]) == 2

    def test_lock_removed_after_success(self, workspace):
        assert not (workspace["data"] / ".phaseflow.lock").exists()


class TestConfigParsing:
    def test_fields_left_out_keep_their_defaults(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text('{"epochs": 1, "enabled_ssm_features": []}')
        assert load_config(str(cfg)) == ExperimentConfig(epochs=1, enabled_ssm_features=())

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text('{"hidden": 3}')
        with pytest.raises(UsageError, match="unknown config keys"):
            load_config(str(cfg))

    def test_float_keys_table_names_every_float_field(self):
        floats = {f.name for f in dataclasses.fields(ExperimentConfig)
                  if isinstance(f.default, float)}
        assert set(FLOAT_KEYS) == floats | {"csl_levels"}


class TestAblate:
    def test_small_ablation_is_reproducible(self, workspace, tmp_path):
        args = ["ablate", "--data", str(workspace["data"]),
                "--config", str(workspace["config"]), "--seeds", "1",
                "--arms", "baseline,csl"]
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            assert main(args + ["--out", str(out)]) == 0
        for name in ("ablation.json", "ablation.csv", "config.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        payload = json.loads((outs[0] / "ablation.json").read_text())
        res = payload["results"]
        assert set(res) == {"baseline", "csl"}
        assert 0.0 <= res["csl"]["1"]["accuracy"] <= 1.0
        # ablation.csv: one row per run and arm mean, one column per metric

        def cell(v):
            return "" if v is None else f"{v:.6f}"

        rows = list(csv.DictReader(io.StringIO((outs[0] / "ablation.csv").read_text())))
        runs = [(arm, seed, payload["means"][arm] if seed == "mean" else res[arm][seed])
                for arm in ("baseline", "csl") for seed in ("1", "mean")]
        assert len(rows) == len(runs) and "short_bucket_mean" in rows[0]
        for row, (arm, seed, m) in zip(rows, runs):
            assert row == {"arm": arm, "seed": seed,
                           **{k: cell(m[k]) for k in ABLATION_METRICS},
                           **{f"acc_{b}": cell(v) for b, v in m["bucket_accuracy"].items()}}

    def test_unknown_arm_rejected(self, workspace, tmp_path):
        assert main(["ablate", "--data", str(workspace["data"]),
                     "--seeds", "1", "--arms", "warp",
                     "--out", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize("seeds, arms, named", [
        ("1,1", "baseline", "--seeds lists 1 more than once"),
        ("1,01", "baseline", "--seeds lists 1 more than once"),
        ("1", "csl,csl", "--arms lists csl more than once"),
        ("", "baseline", "--seeds must list at least one integer"),
        ("1", "", "--arms must list at least one arm"),
    ], ids=["seed", "seed-leading-zero", "arm", "no-seed", "no-arm"])
    def test_repeated_item_is_usage_error(self, workspace, tmp_path, capsys,
                                          seeds, arms, named):
        assert main(["ablate", "--data", str(workspace["data"]),
                     "--config", str(workspace["config"]), "--seeds", seeds,
                     "--arms", arms, "--out", str(tmp_path / "x")]) == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "x").exists()


class TestUsage:
    def test_no_command_is_usage_error(self):
        assert main([]) == 2

    def test_bad_flag_is_usage_error(self):
        assert main(["synth", "--bogus"]) == 2


def assert_same_outcome(new, oracle):
    assert new[1] == oracle[1]
    if oracle[0] is not None:
        for a, b in zip(new[0], oracle[0]):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()


PRED_HEADER = "frame_idx,predicted_id,prob_0,prob_1,prob_2\r\n"
PRED_ROWS = ["0,0,0.5,0.25,0.25", "1,2,0.1,0.2,0.7", "2,1,0.3,0.4,0.3"]


def pred_text(rows=PRED_ROWS, end="\r\n", header=PRED_HEADER):
    return header + "".join(r + end for r in rows)


def pred_row(i, **fields):
    """PRED_ROWS with row i's named fields replaced (f0..f4 by position)."""
    rows = [r.split(",") for r in PRED_ROWS]
    for k, v in fields.items():
        rows[i][int(k[1:])] = v
    return [",".join(r) for r in rows]


class TestPredictionCsv:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("text", [
        pred_text(),
        PRED_HEADER,
        PRED_HEADER.rstrip(),
        pred_text(end="\n"),
        pred_text(end="\r"),
        pred_text()[:-2],
        pred_text(PRED_ROWS[:1] + [""] + PRED_ROWS[1:]),
        pred_text() + "\r\n",
        PRED_HEADER + "\r\n",
        pred_text(PRED_ROWS + ["  "]),
        pred_text(pred_row(1, f3="0.2#")),
        pred_text(pred_row(1, f0="#1")),
        pred_text(pred_row(1, f0="")),
        pred_text(pred_row(1, f0="x")),
        pred_text(PRED_ROWS[:1] + ["1,2,0.1,0.2"] + PRED_ROWS[2:]),
        pred_text(PRED_ROWS[:1] + ["1,2,0.1,0.2,0.7,0.1"] + PRED_ROWS[2:]),
        pred_text(PRED_ROWS[:1] + ["1"] + PRED_ROWS[2:]),
        pred_text(pred_row(2, f1="1.0")),
        pred_text(pred_row(2, f1="1e0")),
        pred_text(pred_row(2, f1="x")),
        pred_text(pred_row(2, f1="-1")),
        pred_text(pred_row(2, f1="3")),
        pred_text(pred_row(2, f1="")),
        pred_text(pred_row(2, f1="99999999999999999999")),
        pred_text(pred_row(2, f1="1\u01fe")),
        pred_text(pred_row(2, f1="1\x1c")),
        pred_text(pred_row(0, f3="\x1f0.25")),
        pred_text(pred_row(0, f4="abc")),
        pred_text(pred_row(0, f4="")),
        pred_text(pred_row(0, f4="0x1p-2")),
        pred_text(pred_row(0, f1=" 0", f2=" 0.5", f3="0.25 ")),
        pred_text(pred_row(0, f2="5e-1", f3="+.25", f4="2.5E-1")),
        pred_text(pred_row(0, f1="+0")),
        pred_text(pred_row(1, f1="x"), end="\n") + "\n",
        pred_text(pred_row(0, f1="-1") + ["1,x"]),
        pred_text(pred_row(0, f0='"0')),
        pred_text(header="frame_idx,predicted_id\r\n"),
        pred_text(header="frame_idx,predicted_id,prob_1,prob_0,prob_2\r\n"),
        "",
    ], ids=[
        "valid", "header-only", "header-only-no-eol", "lf", "cr", "no-final-eol",
        "blank-line-mid", "blank-line-end", "header-then-blank", "spaces-line",
        "hash-in-prob", "hash-in-frame-idx", "empty-frame-idx", "text-frame-idx",
        "ragged-short", "ragged-long", "one-field", "id-1.0", "id-1e0", "id-x",
        "id-minus-1", "id-N", "id-empty", "id-int64-overflow", "id-non-ascii",
        "id-file-separator", "prob-unit-separator",
        "prob-abc", "prob-empty", "prob-hex", "leading-trailing-spaces",
        "prob-exponent-forms", "id-plus-sign", "lf-first-bad-row-named",
        "first-of-two-bad-rows", "unclosed-quote-in-frame-idx", "header-no-probs",
        "header-order", "empty-file",
    ])
    def test_accepts_and_rejects_as_the_csv_module_reader(self, tmp_path, text):
        path = tmp_path / "p.csv"
        path.write_bytes(text.encode())
        new = oracles.outcome(read_prediction_csv, path)
        assert_same_outcome(new, oracles.outcome(oracles.csv_read_prediction_csv, path))
        if text == PRED_HEADER:
            assert new[0][0].shape == (0,) and new[0][1].shape == (0, 3)

    @pytest.mark.parametrize("rows, message", [
        (pred_row(1, f3='"0.2"'), CSV_UNREAD), (pred_row(1, f0='"1"'), CSV_UNREAD),
        # float() reads 0_2 as 2.0, so the row is named as out of range
        (pred_row(1, f3="0_2"), "line 3: prob_1 '0_2' is not a probability"),
        (pred_row(1, f1="0_2"), CSV_UNREAD),
        (pred_row(1, f1="\u0662"), CSV_UNREAD), (pred_row(1, f0="\u00e9"), CSV_UNREAD),
        (pred_row(0, f2="nan", f3="inf", f4="-Infinity"),
         "line 2: prob_0 'nan' is not a probability"),
        (pred_row(1, f3="-0.1"), "line 3: prob_1 '-0.1' is not a probability"),
        (pred_row(2, f4="1.5"), "line 4: prob_2 '1.5' is not a probability"),
        (pred_row(0, f2="1e39"), "line 2: prob_0 '1e39' is not a probability"),
    ], ids=["quoted-prob", "quoted-frame-idx", "underscore-prob", "underscore-id",
            "arabic-indic-digit-id", "non-ascii-frame-idx", "prob-nan-inf",
            "prob-negative", "prob-above-one", "prob-float32-overflow"])
    def test_quotes_separators_and_non_ascii_are_rejected(self, tmp_path, rows, message):
        # the divergence from the csv-module reader, which accepted these
        # (and turned 1e39 into a float32 inf with an overflow warning)
        path = tmp_path / "p.csv"
        path.write_bytes(pred_text(rows).encode())
        with np.errstate(over="ignore"):
            assert oracles.csv_read_prediction_csv(path)
        with pytest.raises(DataValidationError, match=re.escape(f"{path}: {message}")):
            read_prediction_csv(path)

    @settings(max_examples=60)
    @given(draw=st.data())
    @example(draw=None)
    def test_float32_round_trip_is_exact(self, draw):
        if draw is None:    # the edge values, one per frame, in one video
            probs = np.array([0.0, 1.0, np.nextafter(np.float32(1), np.float32(0)),
                              np.finfo(np.float32).smallest_subnormal,
                              np.finfo(np.float32).tiny / 3, np.exp(np.float32(-87)),
                              np.exp(np.float32(-103)), 1e-30, 0.1, 1 / 3],
                             dtype=np.float32)[:, None] * np.ones(2, np.float32)
        else:
            t = draw.draw(st.integers(1, 12), label="frames")
            n = draw.draw(st.integers(2, 6), label="phases")
            logits = draw.draw(st.lists(st.floats(-120, 40), min_size=t * n,
                                        max_size=t * n), label="logits")
            z = np.array(logits).reshape(t, n)
            probs = np.exp(z - z.max(axis=1, keepdims=True))
            probs = (probs / probs.sum(axis=1, keepdims=True)).astype(np.float32)
        labels = np.argmax(probs, axis=1).astype(np.int64)
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "v.csv")
            write_prediction_csv(path, InferenceResult("v", probs, labels), labels)
            got_labels, got_probs = read_prediction_csv(path)
        assert got_labels.dtype == np.int64 and np.array_equal(got_labels, labels)
        assert got_probs.dtype == np.float32
        assert got_probs.tobytes() == probs.tobytes()

    EDGES = [0.0, 1.0, float(np.nextafter(np.float32(1), np.float32(0))),
             float(np.finfo(np.float32).smallest_subnormal), float(np.finfo(np.float32).tiny),
             float(np.finfo(np.float32).tiny / 3), 1e-30, 0.1, 1 / 3]

    @settings(max_examples=60)
    @given(draw=st.data())
    @example(draw=None)
    def test_bytes_match_the_per_row_writer(self, draw):
        if draw is None:    # one frame holding every edge value, labelled N - 1
            probs = np.array([self.EDGES], dtype=np.float32)
            labels = np.array([len(self.EDGES) - 1])
        else:
            t = draw.draw(st.integers(1, 12), label="frames")
            n = draw.draw(st.integers(1, 6), label="phases")
            value = st.one_of(st.sampled_from(self.EDGES), st.floats(0, 1, width=32))
            probs = np.array(draw.draw(st.lists(value, min_size=t * n, max_size=t * n),
                                       label="probs"), dtype=np.float32).reshape(t, n)
            labels = np.array(draw.draw(st.lists(st.integers(0, n - 1), min_size=t,
                                                 max_size=t), label="labels"))
        result = InferenceResult("v", probs, labels)
        with tempfile.TemporaryDirectory() as d:
            new, old = os.path.join(d, "new.csv"), os.path.join(d, "old.csv")
            write_prediction_csv(new, result, labels)
            oracles.per_row_write_prediction_csv(old, result, labels)
            assert Path(new).read_bytes() == Path(old).read_bytes()

    def test_one_frame_video_round_trips(self, tmp_path):
        probs = np.array([[0.25, 0.75]], dtype=np.float32)
        path = tmp_path / "v.csv"
        write_prediction_csv(path, InferenceResult("v", probs, np.array([1])), np.array([1]))
        assert path.read_bytes() == (b"frame_idx,predicted_id,prob_0,prob_1\r\n"
                                     b"0,1,0.25,0.75\r\n")
        labels, got = read_prediction_csv(path)
        assert labels.tolist() == [1] and got.tobytes() == probs.tobytes()
