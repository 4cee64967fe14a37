import json
import os
from pathlib import Path

import numpy as np
import pytest

from phaseflow.cli import main, parse_config_text
from phaseflow.core import PhaseTaxonomy, UsageError
from phaseflow.data import WorkflowGrammar

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
        assert {"epoch", "train_loss", "val_accuracy", "wall_time_s", "train_s",
                "refresh_s", "validate_s", "grad_norm_p50", "clipped_frac",
                "hmm_underflows"} == set(json.loads(lines[0]))

    def test_config_echo_round_trips(self, workspace):
        echoed = parse_config_text((workspace["ckpt"] / "config.txt").read_text())
        assert echoed.hidden_dim == 4
        assert echoed.enabled_ssm_features == ("csl", "hmm")

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
        assert sorted(out.glob("*.csv"))

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

    def test_eval_non_integer_prediction_is_data_error(self, workspace, tmp_path, capsys):
        pred = tmp_path / "pred"
        pred.mkdir()
        for src in sorted(workspace["pred"].glob("*.csv")):
            (pred / src.name).write_bytes(src.read_bytes())
        bad = sorted(pred.glob("*.csv"))[0]
        lines = bad.read_text().splitlines()
        fields = lines[3].split(",")
        fields[1] = "x"
        lines[3] = ",".join(fields)
        bad.write_text("\n".join(lines) + "\n")
        assert main(["eval", "--pred", str(pred), "--data", str(workspace["data"]),
                     "--out", str(tmp_path / "r")]) == 3
        err = capsys.readouterr().err
        assert str(bad) in err
        assert "line 4: predicted_id 'x' is not an integer" in err

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

    def test_bad_config_value_is_usage_error(self, workspace, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("hidden_dim = abc\n")
        assert main(["train", "--data", str(workspace["data"]), "--config", str(cfg),
                     "--out", str(tmp_path / "c")]) == 2
        assert "hidden_dim" in capsys.readouterr().err

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

    def test_malformed_line_rejected(self):
        with pytest.raises(UsageError, match="line 1"):
            parse_config_text("epochs 1\n")


class TestAblate:
    def test_small_ablation_and_thread_independence(self, workspace, tmp_path):
        args = ["ablate", "--data", str(workspace["data"]),
                "--config", str(workspace["config"]), "--seeds", "1",
                "--arms", "baseline,csl"]
        outs = []
        for name, threads in (("t1", "1"), ("t2", "3")):
            out = tmp_path / name
            os.environ["PHASEFLOW_THREADS"] = threads
            try:
                assert main(args + ["--out", str(out)]) == 0
            finally:
                os.environ.pop("PHASEFLOW_THREADS", None)
            outs.append(out)
        payloads = [json.loads((o / "ablation.json").read_text()) for o in outs]
        assert payloads[0] == payloads[1]
        assert (outs[0] / "ablation.csv").read_bytes() == \
            (outs[1] / "ablation.csv").read_bytes()
        res = payloads[0]["results"]
        assert set(res) == {"baseline", "csl"}
        assert 0.0 <= res["csl"]["1"]["accuracy"] <= 1.0

    def test_unknown_arm_rejected(self, workspace, tmp_path):
        assert main(["ablate", "--data", str(workspace["data"]),
                     "--seeds", "1", "--arms", "warp",
                     "--out", str(tmp_path / "x")]) == 2


class TestUsage:
    def test_no_command_is_usage_error(self):
        assert main([]) == 2

    def test_bad_flag_is_usage_error(self):
        assert main(["synth", "--bogus"]) == 2
