"""Byte-level fuzzing of every parser of outside input: a valid file has a
few bytes replaced, inserted or deleted, or is cut short, and the parser
must either accept it or raise a PhaseflowError subclass; any other
exception fails. The transition matrix of a checkpoint header and the fps
and phase names of meta.json are fuzzed at the level of JSON values as
well. Examples are derandomized, so the suite runs the same inputs every
time."""

import contextlib
import io
import json
import shutil

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from phaseflow import cli, data, model, nn
from phaseflow.core import (DataValidationError, ExperimentConfig, PhaseflowError,
                            PhaseTaxonomy)
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
    tm = TransitionMatrix.from_weights(np.array([[8.0, 1, 1], [1, 8, 1], [1, 1, 8]]))
    mdl = model.init_model(cfg, grammar.taxonomy, transition=tm)
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

    ckpt, config = ckdir / "best.ckpt", root / "config.json"
    grammar_file = root / "grammar.json"
    eval_meta = root / "eval_data" / seqs[0].video_id / "meta.json"
    return {
        "eval meta.json": (eval_meta, run_eval),
        "features.bin": (video / "features.bin", lambda: data.read_video_dir(video)),
        "best.ckpt": (ckpt, lambda: model.load_model(ckpt)),
        "labels.csv": (video / "labels.csv", lambda: data.read_video_dir(video)),
        "meta.json": (video / "meta.json", lambda: data.read_video_dir(video)),
        "manifest.json": (ds / "manifest.json", lambda: data.read_dataset(ds, split="train")),
        "prediction csv": (pred / f"{seqs[0].video_id}.csv", run_eval),
        "config.json": (config, lambda: cli.load_config(str(config))),
        "grammar.json": (grammar_file, lambda: data.load_grammar(grammar_file)),
    }


@pytest.mark.parametrize("target", [
    "features.bin", "best.ckpt", "labels.csv", "meta.json",
    "manifest.json", "prediction csv", "config.json", "grammar.json"])
@settings(max_examples=30)
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


# header values of the transition matrix: matrices of every size up to 4 x 4
# with any float in them (valid entries drawn more often), ragged rows, and
# every other kind of JSON value
FLOATS = (st.floats(1e-3, 10.0) | st.floats()
          | st.sampled_from([0.0, -1.0, float("nan"), float("inf"), -float("inf")]))
LEAVES = st.none() | st.booleans() | st.integers() | FLOATS | st.text(max_size=3)
MATRICES = st.integers(0, 4).flatmap(lambda n: st.lists(
    st.lists(st.floats(1e-3, 10.0) | FLOATS, min_size=n, max_size=n),
    min_size=n, max_size=n))
RAGGED = st.lists(st.lists(FLOATS | LEAVES, max_size=4), max_size=4)
JSON_VALUES = st.recursive(LEAVES, lambda kids: st.lists(kids, max_size=3)
                           | st.dictionaries(st.text(max_size=3), kids, max_size=3),
                           max_leaves=8)
NO_KEY = "no transition key"


@settings(max_examples=200)
@given(value=MATRICES | RAGGED | JSON_VALUES | st.just(NO_KEY))
@example(value=[[8.0, 1.0, 1.0], [1.0, 8.0, 1.0], [1.0, 1.0, 8.0]])
@example(value=[[1.0, 1.0], [1.0, 1.0]])
@example(value=[[True, True, True]] * 3)
@example(value=None)
@example(value=NO_KEY)
def test_header_transition_loads_or_raises_a_data_error(files, value):
    """The csl|hmm model of `files` has 3 phases: load_model returns a 3 x 3
    matrix or raises a DataValidationError naming the file and the
    transition matrix, nothing else."""
    ckpt = files["best.ckpt"][0]
    params, extra = nn.load_checkpoint(ckpt)
    if value == NO_KEY:
        del extra["transition"]
    else:
        extra["transition"] = value
    path = ckpt.with_name("header.ckpt")
    nn.save_checkpoint(path, params, extra)
    try:
        loaded = model.load_model(path)
    except DataValidationError as e:
        assert str(path) in str(e) and "transition" in str(e)
    else:
        assert loaded.transition.a.shape == (3, 3)


@settings(max_examples=100)
@given(fps=JSON_VALUES, phase=st.sampled_from(["0", "1", "2"]),
       name=JSON_VALUES | st.text(st.characters(codec=None, categories=["Cs"]),
                                  min_size=1, max_size=3))
@example(fps="25", phase="0", name="setup")
@example(fps=True, phase="0", name="setup")
@example(fps=10 ** 400, phase="0", name="setup")
@example(fps=1.0, phase="0", name=0)
@example(fps=1.0, phase="1", name=None)
@example(fps=1.0, phase="2", name="\ud800")
def test_meta_json_values_eval_exits_0_or_3(files, fps, phase, name):
    """eval, end to end on a video whose meta.json has any JSON value as its
    fps and as one phase name (lone surrogates among them), exits 0 or 3
    (`run_eval`)."""
    path, run_eval = files["eval meta.json"]
    valid = path.read_text()
    meta = json.loads(valid)
    meta["fps"], meta["taxonomy"][phase] = fps, name
    path.write_text(json.dumps(meta))
    try:
        run_eval()
    finally:
        path.write_text(valid)


# manifest ids: short text of any characters, and ids that are not one path
# component or that the file system cannot name
IDS = st.text(max_size=12) | st.sampled_from(
    ["", ".", "..", "/", "\0", "../video_000", "./video_000", "video_000/",
     "video_000\0", "a/b", "\ud800", "video_\udc80"])


def is_directory_name(vid: str) -> bool:
    """One path component the file system can name: not empty, . or .., and
    without a separator, NUL or a lone surrogate."""
    return (vid not in ("", ".", "..") and "/" not in vid and "\0" not in vid
            and not any(0xD800 <= ord(c) <= 0xDFFF for c in vid))


@pytest.fixture(scope="module")
def id_dataset(tmp_path_factory):
    """A video to move into the dataset under any name, its features, and
    the dataset directory; outside it the video is where ../video_000 reaches."""
    root = tmp_path_factory.mktemp("ids")
    seqs = data.generate_dataset(tiny_grammar(), 1, seed=2)
    data.write_dataset(root, seqs, tiny_grammar().taxonomy)
    (root / "ds").mkdir()
    return root / "video_000", seqs[0].features, root / "ds"


@settings(max_examples=100)
@given(vid=IDS)
@example(vid="video_000")
@example(vid="../video_000")
@example(vid="video_000\0")
@example(vid="\ud800")
def test_manifest_id_reads_its_video_or_is_a_manifest_error(id_dataset, vid):
    """An id reads the video of that name inside the dataset, or the manifest
    is refused with a DataValidationError (exit 3) naming manifest.json."""
    video, features, ds = id_dataset
    assume(vid != "manifest.json")
    manifest = ds / "manifest.json"
    manifest.write_text(json.dumps({"videos": [{"id": vid, "split": "train"}]}))
    named = is_directory_name(vid)
    if named:
        video.rename(ds / vid)
    try:
        ([seq],), _, _ = data.read_splits(ds, ("train",))
    except DataValidationError as e:
        assert not named and str(manifest) in str(e)
    else:
        assert named and seq.video_id == vid and np.array_equal(seq.features, features)
    finally:
        if named:
            (ds / vid).rename(video)
