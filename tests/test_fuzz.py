"""Byte-level fuzzing of every parser of outside input: a valid file has a
few bytes replaced, inserted or deleted, or is cut short, and the parser
must either accept it or raise a PhaseflowError subclass; any other
exception fails. Examples are derandomized, so the suite runs the same
inputs every time."""

import contextlib
import io
import json
import shutil

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from phaseflow import cli, data, model
from phaseflow.core import ExperimentConfig, PhaseflowError, PhaseTaxonomy
from phaseflow.ssm import TransitionMatrix

# bytes that make structure: digits, signs, separators, quotes, brackets,
# line ends, NUL and bytes that are never UTF-8
SPECIAL = list(b'0123456789-+.eE,:;="{}[]\n\r \t\x00\xff\xc3') + [0x80]


@st.composite
def mutated(draw, raw: bytes) -> bytes:
    out = bytearray(raw)
    for _ in range(draw(st.integers(1, 3))):
        pos = draw(st.integers(0, len(out)))
        op = draw(st.sampled_from(("replace", "insert", "delete", "cut")))
        byte = draw(st.sampled_from(SPECIAL) | st.integers(0, 255))
        if op == "replace" and pos < len(out):
            out[pos] = byte
        elif op == "insert":
            out.insert(pos, byte)
        elif op == "delete" and pos < len(out):
            del out[pos]
        elif op == "cut":
            del out[pos:]
    return bytes(out)


def tiny_grammar():
    rng = np.random.default_rng(0)
    return data.WorkflowGrammar(
        taxonomy=PhaseTaxonomy(("setup", "work", "closeout")),
        precedence=((0, 1), (1, 2)),
        duration_median_s=np.array([3.0, 5.0, 3.0]),
        duration_sigma=np.array([0.3, 0.3, 0.3]),
        emission_means=rng.standard_normal((3, 4)),
        emission_noise=0.4,
        occurrences={1: (1, 2)},
        name="tiny")


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Valid inputs of every parser: {target: (path, parse)}."""
    root = tmp_path_factory.mktemp("fuzz")
    grammar = tiny_grammar()
    seqs = data.generate_dataset(grammar, 2, seed=1)
    manifest = {"videos": [{"id": s.video_id, "split": "train"} for s in seqs]}
    ds = root / "data"
    data.write_dataset(ds, seqs, grammar.taxonomy, manifest)
    video = ds / seqs[0].video_id
    cfg = ExperimentConfig(hidden_dim=3, embed_dim=4, enabled_ssm_features=("csl", "hmm"))
    mdl = model.init_model(cfg, grammar.taxonomy, transition=TransitionMatrix(
        np.array([[8.0, 1, 1], [1, 8, 1], [1, 1, 8]])))
    ckdir = root / "ckpt"
    ckdir.mkdir()
    model.save_model(mdl, ckdir / "best.ckpt")
    pred = root / "pred"
    pred.mkdir()
    result = model.infer_video(mdl, seqs[0])
    cli.write_prediction_csv(pred / f"{seqs[0].video_id}.csv", result, result.labels)
    # eval reads only the videos it has predictions for
    shutil.copytree(video, root / "eval_data" / seqs[0].video_id)
    cli.write_config_echo(str(root), cfg)
    (root / "grammar.json").write_text(json.dumps(grammar.to_dict()))

    def run_eval():
        shutil.rmtree(root / "report", ignore_errors=True)
        argv = ["eval", "--pred", str(pred), "--data", str(root / "eval_data"),
                "--out", str(root / "report")]
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            assert cli.main(argv) in (0, 3)

    ckpt, config = ckdir / "best.ckpt", root / "config.txt"
    grammar_file = root / "grammar.json"
    external = root / "external.csv"
    external.write_text("f0,f1,label\n" + "".join(
        f"{v[0]},{v[1]},{y}\n" for v, y in zip(seqs[0].features, seqs[0].labels)))
    external_meta = {"video_id": "ext", "fps": 2, "taxonomy": grammar.taxonomy.to_dict()}
    return {
        "features.bin": (video / "features.bin", lambda: data.read_video_dir(video)),
        "best.ckpt": (ckpt, lambda: model.load_model(ckpt)),
        "transition.csv": (ckdir / "transition.csv", lambda: model.load_model(ckpt)),
        "labels.csv": (video / "labels.csv", lambda: data.read_video_dir(video)),
        "meta.json": (video / "meta.json", lambda: data.read_video_dir(video)),
        "manifest.json": (ds / "manifest.json", lambda: data.read_dataset(ds, split="train")),
        "prediction csv": (pred / f"{seqs[0].video_id}.csv", run_eval),
        "config.txt": (config, lambda: cli.load_config(str(config))),
        "grammar.json": (grammar_file, lambda: data.load_grammar(grammar_file)),
        "external features csv": (
            external, lambda: data.import_external_features(external, external_meta)),
    }


@pytest.mark.parametrize("target", [
    "features.bin", "best.ckpt", "transition.csv", "labels.csv", "meta.json",
    "manifest.json", "prediction csv", "config.txt", "grammar.json",
    "external features csv"])
@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(draw=st.data())
def test_mutated_input_raises_only_typed_errors(files, target, draw):
    path, parse = files[target]
    valid = path.read_bytes()
    path.write_bytes(draw.draw(mutated(valid)))
    try:
        parse()
    except PhaseflowError:
        pass
    finally:
        path.write_bytes(valid)
