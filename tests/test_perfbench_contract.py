"""The benchmark's tracer (perfbench/bench_trace.py) wraps package names from
outside, on the name each caller looks up. Installing it fails if a wrapped
name is gone, so renaming or removing one fails here and not only in
`python3 perfbench/run.py --smoke`."""

import importlib.util
from pathlib import Path

import numpy as np

from phaseflow import model, train
from phaseflow.core import ExperimentConfig, FeatureSequence, PhaseTaxonomy

TAX2 = PhaseTaxonomy(("left", "right"))


def load_bench_trace():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "bench_trace.py"
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
        model.infer_video_acausal(result.model, seqs[2])
        calls = {k: v["calls"] for k, v in tracer.totals().items()}
        metrics = bench_trace.per_layer_metrics(tracer)
    finally:
        tracer.uninstall()
    for span in ("train.fit", "train.train_epoch", "nn.recorder.step",
                 "nn.head_forward", "model.softmax", "model.session.step",
                 "ssm.acausal_feature_stream", "ssm.hmm.update"):
        assert calls[span] > 0, span
    assert metrics["nn.head_softmax_us.calls"][0] > 0
    for owner, attr, original in wrapped:
        assert getattr(owner, attr) is original, attr
