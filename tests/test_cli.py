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

from phaseflow import nn
from phaseflow.cli import (
    ABLATION_METRICS,
    _confidence,
    main,
    parse_config_text,
    read_prediction_csv,
    write_prediction_csv,
)
from phaseflow.core import (
    CSV_UNREAD,
    DataValidationError,
    ExperimentConfig,
    PhaseTaxonomy,
    UsageError,
)
from phaseflow.data import WorkflowGrammar, generate_dataset
from phaseflow.model import InferenceResult, hmm_smooth_posthoc, load_model

CONFIG_TEXT = """\
# tiny end-to-end configuration
hidden_dim = 4
embed_dim = 6
epochs = 2
batch_size = 4
learning_rate = 0.01
enabled_ssm_features = csl,hmm
csl_levels = 0.5
gabor_num_scales = 2
gabor_scale_min = 3
gabor_scale_max = 5
rng_seed = 0
"""

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
    config_path = root / "run.cfg"
    config_path.write_text(CONFIG_TEXT)
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
        assert (ckpt / "best.ckpt").exists()
        assert (ckpt / "epoch_001.ckpt").exists()
        assert (ckpt / "epoch_002.ckpt").exists()
        assert (ckpt / "transition.csv").exists()
        assert (ckpt / "config.txt").exists()
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
        echoed = parse_config_text((workspace["ckpt"] / "config.txt").read_text())
        assert echoed.hidden_dim == 4
        assert echoed.enabled_ssm_features == ("csl", "hmm")

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

    def test_missing_data_dir_is_data_error(self, workspace, tmp_path):
        assert main(["train", "--data", str(tmp_path / "missing"),
                     "--config", str(workspace["config"]),
                     "--out", str(tmp_path / "out")]) == 3


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

    def test_acausal_flag_requires_acausal_model(self, workspace, tmp_path):
        assert main(["infer", "--ckpt", str(workspace["ckpt"] / "best.ckpt"),
                     "--data", str(workspace["data"]),
                     "--out", str(tmp_path / "p"), "--acausal"]) == 2


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
        "block head_w", "name head_b", "value nan", "value inf", "value -inf",
    ])
    def test_malformed_checkpoint_is_data_error(self, workspace, tmp_path, capsys,
                                                broken):
        ckpt = tmp_path / "ckpt"
        ckpt.mkdir()
        for name in ("best.ckpt", "transition.csv"):
            (ckpt / name).write_bytes((workspace["ckpt"] / name).read_bytes())
        kind, what = broken.split(" ")
        if kind == "header":
            bad = ckpt / "best.ckpt"
            bad.write_bytes(with_header(bad.read_bytes(), what.encode()))
        elif kind == "block":
            bad = ckpt / "best.ckpt"
            params, extra = nn.load_checkpoint(bad)
            params[what] = np.zeros((params[what].shape[0], 1), np.float32)
            nn.save_checkpoint(bad, params, extra)
        elif kind == "name":     # a block name that is not UTF-8
            bad = ckpt / "best.ckpt"
            bad.write_bytes(bad.read_bytes().replace(what.encode(), b"head_\xff"))
        elif kind == "value":    # a weight that is not finite
            bad = ckpt / "best.ckpt"
            params, extra = nn.load_checkpoint(bad)
            params["head_b"][0] = float(what)
            nn.save_checkpoint(bad, params, extra)
        else:
            bad = ckpt / "transition.csv"
            lines = bad.read_text().splitlines()
            cells = lines[2].split(",")
            if what == "non-numeric":
                cells[1] = "x"
            else:
                cells.append("0.5")
            lines[2] = ",".join(cells)
            bad.write_text("\n".join(lines) + "\n")
        assert main(["infer", "--ckpt", str(ckpt / "best.ckpt"),
                     "--data", str(workspace["data"]), "--out", str(tmp_path / "p")]) == 3
        err = capsys.readouterr().err
        assert str(bad) in err
        if kind == "value":
            assert "block head_b" in err and "not finite" in err
            assert not (tmp_path / "p").exists()

    def test_overflowing_finite_weights_are_numeric_error(self, workspace, tmp_path,
                                                          capsys):
        # finite weights whose logits overflow give NaN probabilities, and
        # no prediction file or summary.json is written from them: gates
        # saturated open drive h towards 1, and h @ head_w exceeds the
        # float32 range
        shutil.copy(workspace["ckpt"] / "transition.csv", tmp_path)
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
        shutil.copy(workspace["ckpt"] / "transition.csv", tmp_path)
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
        "features.bin missing",
    ])
    def test_malformed_video_dir_is_data_error(self, workspace, tmp_path, capsys, broken):
        data = shutil.copytree(workspace["data"], tmp_path / "data")
        name, what = broken.split()
        bad = data / "video_000" / name
        if what == "missing":
            bad.unlink()
        elif what == "bytes":
            bad.write_bytes(bad.read_bytes().replace(b"0", b"\xff", 1))
        elif what == "fps":
            meta = json.loads(bad.read_text())
            bad.write_text(json.dumps({**meta, "fps": "abc"}))
        else:
            bad.write_text(what)
        assert main(["train", "--data", str(data), "--out", str(tmp_path / "c")]) == 3
        assert str(bad) in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["{bad", "{}", pytest.param(json.dumps(
        {**tiny_grammar_dict(), "occurrences": {"-1": [2, 3], "99": [0, 0]}}),
        id="occurrences-out-of-range")])
    def test_malformed_grammar_file_is_data_error(self, tmp_path, capsys, text):
        grammar = tmp_path / "grammar.json"
        grammar.write_text(text)
        assert main(["synth", "--grammar", str(grammar), "--videos", "2", "--seed", "1",
                     "--out", str(tmp_path / "d")]) == 3
        assert str(grammar) in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["interchangeable_groups", "ambiguity_groups"])
    def test_grammar_group_out_of_range_is_data_error(self, tmp_path, capsys, field):
        grammar = tmp_path / "grammar.json"
        grammar.write_text(json.dumps({**tiny_grammar_dict(), field: [[-1, 2]]}))
        assert main(["synth", "--grammar", str(grammar), "--videos", "2", "--seed", "1",
                     "--out", str(tmp_path / "d")]) == 3
        err = capsys.readouterr().err
        assert str(grammar) in err
        assert "(-1, 2) names a phase outside 0..2" in err

    def test_embedding_width_mismatch_is_data_error(self, workspace, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(CONFIG_TEXT.replace("embed_dim = 6", "embed_dim = 4"))
        assert main(["train", "--data", str(workspace["data"]), "--config", str(cfg),
                     "--out", str(tmp_path / "c")]) == 3
        err = capsys.readouterr().err
        assert "video_0" in err
        assert "6-d embeddings, but config embed_dim is 4" in err

    @pytest.mark.parametrize("groups", [[[99]], "ab", [[-1, 0]]],
                             ids=["out-of-range", "not-a-list", "negative"])
    def test_ablate_bad_ambiguity_groups_is_data_error(self, workspace, tmp_path,
                                                       capsys, groups):
        data = shutil.copytree(workspace["data"], tmp_path / "data")
        path = data / "manifest.json"
        path.write_text(json.dumps({**json.loads(path.read_text()),
                                    "ambiguity_groups": groups}))
        assert main(["ablate", "--data", str(data), "--config", str(workspace["config"]),
                     "--seeds", "1", "--arms", "baseline",
                     "--out", str(tmp_path / "a")]) == 3
        err = capsys.readouterr().err
        assert str(path) in err
        assert "ambiguity_groups must be lists of phase ids in 0..2" in err
        assert not (tmp_path / "a" / "baseline_seed1").exists()

    def test_bad_config_value_is_usage_error(self, workspace, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("hidden_dim = abc\n")
        assert main(["train", "--data", str(workspace["data"]), "--config", str(cfg),
                     "--out", str(tmp_path / "c")]) == 2
        assert "hidden_dim" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", FLOAT_KEYS)
    def test_non_finite_float_config_value_is_usage_error(self, workspace, tmp_path,
                                                          capsys, key, value):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {value}\n")
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


class TestLocking:
    def test_locked_output_dir_refused(self, workspace, tmp_path):
        out = tmp_path / "locked"
        out.mkdir()
        (out / ".phaseflow.lock").touch()
        assert main(["synth", "--grammar", str(workspace["grammar"]),
                     "--videos", "2", "--seed", "1", "--out", str(out)]) == 2

    def test_lock_removed_after_success(self, workspace):
        assert not (workspace["data"] / ".phaseflow.lock").exists()


class TestConfigParsing:
    def test_comments_and_none(self):
        cfg = parse_config_text("epochs = 1\nenabled_ssm_features = none\n# x\n")
        assert cfg.epochs == 1
        assert cfg.enabled_ssm_features == ()

    def test_unknown_key_rejected(self):
        with pytest.raises(UsageError):
            parse_config_text("hidden = 3\n")

    def test_float_keys_table_names_every_float_field(self):
        floats = {f.name for f in dataclasses.fields(ExperimentConfig)
                  if isinstance(f.default, float)}
        assert set(FLOAT_KEYS) == floats | {"csl_levels"}

    def test_malformed_line_rejected(self):
        with pytest.raises(UsageError, match="line 1"):
            parse_config_text("epochs 1\n")


class TestAblate:
    def test_small_ablation_is_reproducible(self, workspace, tmp_path):
        args = ["ablate", "--data", str(workspace["data"]),
                "--config", str(workspace["config"]), "--seeds", "1",
                "--arms", "baseline,csl"]
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            assert main(args + ["--out", str(out)]) == 0
        for name in ("ablation.json", "ablation.csv", "config.txt"):
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

    def test_one_frame_video_round_trips(self, tmp_path):
        probs = np.array([[0.25, 0.75]], dtype=np.float32)
        path = tmp_path / "v.csv"
        write_prediction_csv(path, InferenceResult("v", probs, np.array([1])), np.array([1]))
        assert path.read_bytes() == (b"frame_idx,predicted_id,prob_0,prob_1\r\n"
                                     b"0,1,0.25,0.75\r\n")
        labels, got = read_prediction_csv(path)
        assert labels.tolist() == [1] and got.tobytes() == probs.tobytes()
