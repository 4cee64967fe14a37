"""The benchmark's tracer (perfbench/bench_trace.py) wraps package names from
outside, on the name each caller looks up. Installing it fails if a wrapped
name is gone, so renaming or removing one fails here and not only in
`python3 perfbench/run.py --smoke`. The workloads (perfbench/
bench_workloads.py) also call some names directly and read the results'
fields; those are pinned here too."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from phaseflow import model, ssm, train
from phaseflow.core import ExperimentConfig, FeatureSequence, PhaseTaxonomy

TAX2 = PhaseTaxonomy(("left", "right"))
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_bench_trace():
    path = PERFBENCH / "bench_trace.py"
    spec = importlib.util.spec_from_file_location("bench_trace", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def videos(n, t=12):
    rng = np.random.default_rng(0)
    return [FeatureSequence(f"v{i}", 1.0,
                            rng.standard_normal((t, 2)).astype(np.float32),
                            rng.integers(0, 2, t))
            for i in range(n)]


def test_tracer_sees_the_calls_it_wraps_and_uninstalls():
    bench_trace = load_bench_trace()
    tracer = bench_trace.install(bench_trace.Tracer("contract"))
    wrapped = list(tracer._undo)
    try:
        cfg = ExperimentConfig(hidden_dim=3, embed_dim=2, epochs=1, batch_size=2,
                               enabled_ssm_features=("csl", "hmm"), acausal=True)
        seqs = videos(3)
        # called through their modules: the tracer patches module attributes
        result = train.fit(cfg, TAX2, seqs[:2], seqs[2:])
        # as the workloads do: stream a video, derive the acausal rows of
        # its likelihoods and run the two-pass path on it
        sess = model.InferenceSession(result.model)
        for x in seqs[2].features:
            sess.step(x)
        ssm.acausal_feature_stream(result.model.new_extractor(), np.stack(sess.probs))
        model.infer_video_acausal(result.model, seqs[2])
        calls = {k: v["calls"] for k, v in tracer.totals().items()}
        metrics = bench_trace.per_layer_metrics(tracer)
    finally:
        tracer.uninstall()
    for span in ("train.fit", "train.train_epoch", "nn.recorder.step",
                 "nn.head_forward", "model.softmax", "model.session.step",
                 "ssm.acausal_feature_stream", "ssm.hmm.update",
                 "nn.window_backward", "nn.clip_global_norm", "nn.adam.step"):
        assert calls[span] > 0, span
    assert metrics["nn.head_softmax_us.calls"][0] > 0
    for owner, attr, original in wrapped:
        assert getattr(owner, attr) is original, attr


def test_infer_dataset_passes_the_workload_checks(monkeypatch):
    # bench_workloads sizes its infer-unit bursts by worker_thread_count()
    # and checks each streamed video of an acausal model against the
    # `pass1_probs` infer_dataset returned, with its own Checks and PROB_ATOL
    monkeypatch.syspath_prepend(str(PERFBENCH))
    bench_workloads = importlib.import_module("bench_workloads")
    assert model.worker_thread_count() >= 1
    cfg = ExperimentConfig(hidden_dim=3, embed_dim=2, acausal=True,
                           enabled_ssm_features=("csl", "gabor", "hmm"))
    mdl = model.init_model(cfg, TAX2)
    seqs = videos(4)
    inferred = model.infer_dataset(mdl, seqs)
    checks = bench_workloads.Checks()
    for seq in seqs:
        r = inferred[seq.video_id]
        sess = model.InferenceSession(mdl)
        for x in seq.features:
            sess.step(x)
        checks.simplex(r.probs, seq.video_id)
        checks.check(np.array_equal(r.labels, np.argmax(r.probs, axis=1)), seq.video_id)
        checks.close(np.stack(sess.probs), r.pass1_probs, seq.video_id)
    assert bench_workloads.PROB_ATOL <= 1e-4
    assert (checks.attempted, checks.failed) == (3 * len(seqs), 0), checks.failures


# the names the tracer wraps on the per-frame step path
STEP_SPANS = ("ssm.csl.update", "ssm.gabor.update", "ssm.hmm.update",
              "nn.recorder.step", "nn.head_forward", "model.softmax")


@pytest.mark.parametrize("engine", ["stream", "lockstep"])
def test_tracer_sees_each_step_name_once_per_frame(engine):
    # a step path that skipped or repeated one of these names would zero or
    # inflate its per-layer metric without failing anything else
    bench_trace = load_bench_trace()
    cfg = ExperimentConfig(hidden_dim=3, embed_dim=2, seq_len_bptt=4,
                           enabled_ssm_features=("csl", "gabor", "hmm"))
    mdl = model.init_model(cfg, TAX2)
    # lockstep: windows of 4, 4 and 2 frames, the last video ends in the first
    seqs = videos(2, t=10) + [FeatureSequence("short", 1.0, videos(1, t=3)[0].features)]
    tracer = bench_trace.install(bench_trace.Tracer("contract"))
    try:
        if engine == "stream":
            sess = model.InferenceSession(mdl)
            for x in seqs[0].features:
                sess.step(x)
        else:
            model._lockstep_probs(mdl, seqs)
        calls = {k: v["calls"] for k, v in tracer.totals().items()}
    finally:
        tracer.uninstall()
    frames = seqs[0].n_frames
    assert calls["model.session.step"] == (frames if engine == "stream" else 0)
    for span in STEP_SPANS:
        assert calls[span] == frames, span
