"""The per-frame step kernel (`model.StepKernel`) against the composed
oracle (`oracles.composed_stream`): streaming, which is causal, is
bit-equal to it in every configuration; lockstep at B = 1 is bit-equal to
it on supplied acausal rows and to streaming without them, and agrees to
float rounding at B > 1. Examples are derandomized, so the suite runs the
same inputs every time."""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import ComposedStatistics, composed_stream
from phaseflow import model as model_mod
from phaseflow.core import ExperimentConfig, FeatureSequence, PhaseTaxonomy
from phaseflow.model import InferenceSession, init_model
from phaseflow.ssm import GaborBank, TransitionMatrix

KINDS = ("csl", "gabor", "hmm")
SUBSETS = [tuple(k for k, on in zip(KINDS, bits) if on)
           for bits in itertools.product((False, True), repeat=3)]
LEVELS = ((0.25, 0.5, 0.75), (0.5,), (0.1, 0.3, 0.6, 0.9))
# float32: a batch of rows is summed in another order than one row, and the
# rounding feeds back through the statistics; float64: the same, smaller
ATOL = {np.float32: 1e-5, np.float64: 1e-12}


def build_model(kinds, acausal, dtype, n_phases=3, levels=LEVELS[0], scale_max=4.0,
                seed=0):
    cfg = ExperimentConfig(hidden_dim=4, embed_dim=3, enabled_ssm_features=kinds,
                           acausal=acausal, csl_levels=levels, gabor_num_scales=3,
                           gabor_scale_min=2.0, gabor_scale_max=scale_max, rng_seed=seed)
    rng = np.random.default_rng(seed)
    tm = TransitionMatrix(rng.random((n_phases, n_phases)) + np.eye(n_phases) * 3.0)
    mdl = init_model(cfg, PhaseTaxonomy(tuple(f"p{i}" for i in range(n_phases))),
                     transition=tm)
    # weights on every input column, so the statistics steer the outputs
    mdl.params["lstm_wx"][:] = rng.uniform(-0.6, 0.6, mdl.params["lstm_wx"].shape)
    mdl.params["head_b"][:] = rng.uniform(-0.5, 0.5, n_phases)
    mdl.params = {k: v.astype(dtype) for k, v in mdl.params.items()}
    return mdl


def stream(mdl, features):
    sess = InferenceSession(mdl)
    for v in features:
        sess.step(v)
    return sess


def assert_matches_oracle(mdl, features, rows=None):
    """Streaming, or with acausal `rows` the only engine that reads them,
    lockstep at B = 1, is bit-equal to the oracle."""
    probs, h, c, stats = composed_stream(mdl, features, rows)
    if rows is not None:
        seq = FeatureSequence("v", 1.0, features)
        (alone,), underflows = model_mod._lockstep_probs(mdl, [seq], [rows])
        assert np.array_equal(alone, probs)
        assert underflows == stats.underflows
        return
    sess = stream(mdl, features)
    assert np.array_equal(np.stack(sess.probs), probs)
    assert np.array_equal(sess.h, h) and np.array_equal(sess.c, c)
    assert sess.h.dtype == h.dtype == mdl.params["lstm_wx"].dtype
    assert np.array_equal(sess.extractor.feature(), stats.feature())
    assert sess.extractor.underflow_count == stats.underflows
    return sess


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
@pytest.mark.parametrize("acausal", [False, True], ids=["causal", "acausal"])
@pytest.mark.parametrize("kinds", SUBSETS, ids=lambda k: "-".join(k) or "none")
@settings(max_examples=6)
@given(n_frames=st.integers(1, 40), levels=st.sampled_from(LEVELS),
       n_phases=st.integers(2, 5), scale_max=st.sampled_from((2.5, 4.0, 16.0)),
       supplied=st.booleans(), seed=st.integers(0, 2 ** 16))
# the widest bank (16 * 3 + 1 = 49 frames) is longer than the stream
@example(n_frames=5, levels=LEVELS[2], n_phases=3, scale_max=16.0, supplied=True,
         seed=1)
def test_streaming_is_bit_equal_to_the_oracle(kinds, acausal, dtype, n_frames, levels,
                                              n_phases, scale_max, supplied, seed):
    mdl = build_model(kinds, acausal, dtype, n_phases, levels, scale_max, seed)
    rng = np.random.default_rng(seed + 1)
    features = rng.standard_normal((n_frames, 3)).astype(np.float32)
    rows = None
    if acausal and supplied:
        width = mdl.blocks[2].stop - mdl.blocks[2].start
        rows = rng.random((n_frames, width)).astype(np.float32)
    assert_matches_oracle(mdl, features, rows)


def videos(lengths, seed):
    rng = np.random.default_rng(seed)
    return [FeatureSequence(f"v{i}", 1.0, rng.standard_normal((t, 3)).astype(np.float32))
            for i, t in enumerate(lengths)]


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
@pytest.mark.parametrize("acausal", [False, True], ids=["causal", "acausal"])
@settings(max_examples=8)
@given(lengths=st.lists(st.integers(1, 30), min_size=2, max_size=5),
       kinds=st.sampled_from(SUBSETS), seed=st.integers(0, 2 ** 16))
def test_lockstep_agrees_with_the_oracle(acausal, dtype, lengths, kinds, seed):
    mdl = build_model(kinds, acausal, dtype, seed=seed)
    seqs = videos(lengths, seed)
    width = mdl.blocks[2].stop - mdl.blocks[2].start
    rng = np.random.default_rng(seed + 2)
    rows = ([rng.random((s.n_frames, width)).astype(np.float32) for s in seqs]
            if acausal else None)
    probs, _ = model_mod._lockstep_probs(mdl, seqs, rows)
    for j, (seq, p) in enumerate(zip(seqs, probs)):
        ref, *_ = composed_stream(mdl, seq.features, rows[j] if acausal else None)
        np.testing.assert_allclose(p, ref, rtol=0, atol=ATOL[dtype])
        # B = 1: the same arithmetic at the same shapes as streaming, which
        # reads no acausal rows
        (alone,), _ = model_mod._lockstep_probs(mdl, [seq], [rows[j]] if acausal else None)
        if acausal:
            assert np.array_equal(alone, ref)
        else:
            assert np.array_equal(alone, np.stack(stream(mdl, seq.features).probs))


def underflow_model(dtype=np.float32):
    """A 3-phase model whose likelihoods follow the sign of the embedding:
    v > 0 gives exactly (1, 0, 0) and v < 0 exactly (0, 1/2, 1/2). The
    transition matrix moves between phase 0 and the others with the
    smallest positive float, so a frame whose phases the belief holds at 0
    takes the filter's normaliser to exactly 0."""
    tiny = np.nextafter(0.0, 1.0)
    tm = TransitionMatrix(np.full((3, 3), tiny) + np.eye(3))
    cfg = ExperimentConfig(hidden_dim=1, embed_dim=1, enabled_ssm_features=("hmm",))
    mdl = init_model(cfg, PhaseTaxonomy(("a", "b", "c")), transition=tm)
    p = mdl.params
    p["lstm_wx"][:] = 0.0           # the statistic does not feed back
    p["lstm_wh"][:] = 0.0
    p["lstm_wx"][0, 2] = 5.0        # candidate g = tanh(5 v)
    p["lstm_b"][:] = [50.0, -50.0, 0.0, 50.0]   # i = o = 1, f = 0
    p["head_w"][:] = [[2000.0, -2000.0, -2000.0]]
    p["head_b"][:] = 0.0
    mdl.params = {k: v.astype(dtype) for k, v in p.items()}
    return mdl


def test_hmm_underflow_resets_the_belief_like_the_oracle():
    mdl = underflow_model()
    signs = np.array([1, -1, -1, 1, 1, -1, 1, -1], np.float32)
    sess = assert_matches_oracle(mdl, signs[:, None])
    probs = np.stack(sess.probs)
    assert np.array_equal(probs[0], [1.0, 0.0, 0.0])
    assert np.array_equal(probs[1], [0.0, 0.5, 0.5])
    # frames 1, 3, 5 and 7 switch sides after a belief held on the other
    # side; after each reset the next frame starts from the uniform belief
    assert sess.extractor.underflow_count == 4
    assert np.array_equal(sess.extractor.feature(), np.full(3, 1 / 3))
    after_two = stream(mdl, signs[:3, None])
    assert np.array_equal(after_two.extractor.feature(), [0.0, 0.5, 0.5])
    # lockstep: the same count in a batch with a video that never underflows
    seqs = [FeatureSequence("u", 1.0, signs[:, None]),
            FeatureSequence("w", 1.0, -np.ones((5, 1), np.float32))]
    probs_l, underflows = model_mod._lockstep_probs(mdl, seqs)
    assert underflows == 4
    assert np.array_equal(probs_l[0], probs)


def test_rows_past_their_window_feed_the_uniform_vector():
    mdl = build_model(KINDS, False, np.float64, seed=4)
    seqs = videos((3, 8), seed=5)
    windows = [(s, 0, s.n_frames, None) for s in seqs]
    extractor = mdl.new_extractor(batch=2)
    kernel = model_mod._run_windows(mdl, extractor, *mdl.zero_state(2), windows, taped=True)
    assert kernel.lengths.tolist() == [3, 8]
    ref = ComposedStatistics(mdl)
    for m in kernel.ms[:3, 0]:
        ref.update(m)
    for _ in range(5):
        ref.update(np.full(mdl.n_phases, 1 / mdl.n_phases, np.float32))
    np.testing.assert_allclose(extractor.feature()[0], ref.feature(), rtol=1e-12, atol=0)
    assert extractor.underflow_count == 0
    # the ended row's argmax channel counted phase 0 on each uniform frame
    cols = mdl.new_extractor().columns["csl"]
    argmax_counts = np.expm1(extractor.feature()[0, cols].reshape(mdl.n_phases, -1)[:, -1])
    assert argmax_counts[0] >= 5


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
def test_taped_and_untaped_steps_are_bit_equal(dtype):
    # B = 3 in lockstep, the last row padded past its fifth frame; the two
    # modes differ only in the arrays the cell writes to
    mdl = build_model(KINDS, True, dtype, seed=6)
    seqs = videos((8, 8, 5), seed=7)
    rng = np.random.default_rng(8)
    width = mdl.blocks[2].stop - mdl.blocks[2].start
    windows = [(s, 0, s.n_frames, rng.random((s.n_frames, width)).astype(np.float32))
               for s in seqs]
    h0, c0 = (rng.standard_normal((3, 4)).astype(dtype) for _ in range(2))
    runs = []
    for taped in (True, False):
        h, c = h0.copy(), c0.copy()
        extractor = mdl.new_extractor(batch=3)
        kernel = model_mod._run_windows(mdl, extractor, h, c, windows, taped)
        rec = kernel.recorder
        # taped, the caller's state is only read; untaped, it is the state
        assert np.array_equal(h, h0 if taped else rec.hs[-1])
        assert np.array_equal(c, c0 if taped else rec.cs[-1])
        runs.append((kernel.ms, rec.hs[-1], rec.cs[-1], extractor.feature()))
    for got_taped, got_untaped in zip(*runs):
        assert np.array_equal(got_taped, got_untaped)


def test_gabor_bank_longer_than_the_stream():
    mdl = build_model(("gabor",), False, np.float32, scale_max=16.0)
    assert GaborBank.build(3, 2.0, 16.0).width > 6
    assert_matches_oracle(mdl, np.ones((6, 3), np.float32))
