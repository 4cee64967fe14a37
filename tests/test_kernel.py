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
from phaseflow.core import (
    DataValidationError,
    ExperimentConfig,
    FeatureSequence,
    NumericError,
    PhaseTaxonomy,
)
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
    tm = TransitionMatrix.from_weights(
        rng.random((n_phases, n_phases)) + np.eye(n_phases) * 3.0)
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
    tm = TransitionMatrix.from_weights(np.full((3, 3), tiny) + np.eye(3))
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
    runner = model_mod.LockstepRunner(mdl, mdl.new_extractor(batch=2), *mdl.zero_state(2))
    kernel = runner.run(np.arange(2), windows)
    extractor = runner.extractor
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
def test_runner_reads_the_store_state_until_it_scatters(dtype):
    # B = 3 in lockstep over two windows of the same set, the last row
    # padded past its thirteenth frame
    mdl = build_model(KINDS, True, dtype, seed=6)
    seqs = videos((16, 16, 13), seed=7)
    rng = np.random.default_rng(8)
    width = mdl.blocks[2].stop - mdl.blocks[2].start
    rows = [rng.random((s.n_frames, width)).astype(np.float32) for s in seqs]
    h0, c0 = (rng.standard_normal((3, 4)).astype(dtype) for _ in range(2))
    h_all, c_all = h0.copy(), c0.copy()
    runner = model_mod.LockstepRunner(mdl, mdl.new_extractor(batch=3), h_all, c_all)
    first = runner.run(np.arange(3), [(s, 0, 8, r) for s, r in zip(seqs, rows)]).recorder
    assert np.array_equal(first.hs[0], h0) and np.array_equal(first.cs[0], c0)
    last = first.hs[-1].copy(), first.cs[-1].copy()
    rec = runner.run(np.arange(3), [(s, 8, s.n_frames, r)
                                    for s, r in zip(seqs, rows)]).recorder
    # the same set again: the window starts from the last frame of the tape
    assert np.array_equal(rec.hs[0], last[0]) and np.array_equal(rec.cs[0], last[1])
    assert np.array_equal(h_all, h0) and np.array_equal(c_all, c0)
    h_end, c_end = rec.hs[-1].copy(), rec.cs[-1].copy()
    # another set scatters the state of the last one into the store
    runner.run(np.array([1]), [(seqs[1], 0, 1, rows[1])])
    assert np.array_equal(h_all, h_end) and np.array_equal(c_all, c_end)


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
def test_session_state_is_the_last_tape_frame_of_one_stream(dtype):
    mdl = build_model(KINDS, False, dtype, seed=9)
    (seq,) = videos((19,), seed=10)
    sess = stream(mdl, seq.features)
    runner = model_mod.LockstepRunner(mdl, mdl.new_extractor(batch=1), *mdl.zero_state(1))
    # windows of 8, 8 and 3 frames: the state carries over, then a rebind
    for start in range(0, seq.n_frames, 8):
        rec = runner.run(np.arange(1), [(seq, start, min(start + 8, 19), None)]).recorder
    assert np.array_equal(sess.h, rec.hs[-1, 0]) and np.array_equal(sess.c, rec.cs[-1, 0])
    assert sess.h.dtype == rec.hs.dtype == dtype


@pytest.mark.parametrize("bad_frame", [0, 1, 6])
def test_session_refuses_a_nan_embedding_and_stays_as_it_was(bad_frame):
    mdl = build_model(KINDS, False, np.float32, seed=11)
    (seq,) = videos((12,), seed=12)
    clean, sess = stream(mdl, seq.features), stream(mdl, seq.features[:bad_frame])
    bad = seq.features[bad_frame].copy()
    bad[1] = np.nan
    with pytest.raises(DataValidationError, match=f"frame {bad_frame} "):
        sess.step(bad)
    assert len(sess.probs) == bad_frame
    for v in seq.features[bad_frame:]:
        sess.step(v)
    assert np.array_equal(np.stack(sess.probs), np.stack(clean.probs))
    assert np.array_equal(sess.h, clean.h) and np.array_equal(sess.c, clean.c)
    assert np.array_equal(sess.extractor.feature(), clean.extractor.feature())
    assert sess.extractor.underflow_count == 0


def test_session_refuses_nan_likelihoods_of_a_finite_embedding():
    mdl = build_model(KINDS, False, np.float32, seed=13)
    mdl.params["head_w"][:] = np.inf
    sess = InferenceSession(mdl)
    with np.errstate(invalid="ignore"), pytest.raises(NumericError, match="frame 0 "):
        sess.step(np.ones(3, np.float32))
    assert sess.probs == [] and sess.extractor.underflow_count == 0
    assert not sess.h.any() and not sess.c.any()


@pytest.mark.parametrize("entry", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
@pytest.mark.parametrize("acausal", [False, True], ids=["causal", "acausal"])
def test_session_refuses_a_non_finite_embedding_entry(acausal, entry):
    # an infinity saturates the gates, so the likelihoods stay finite; the
    # pre-activation turns infinite and tells
    mdl = build_model(KINDS, acausal, np.float32, seed=14)
    (seq,) = videos((9,), seed=15)
    clean, sess = stream(mdl, seq.features), stream(mdl, seq.features[:4])
    bad = np.zeros(3, np.float32)
    bad[0] = entry
    with pytest.raises(DataValidationError, match="frame 4 is not finite"):
        sess.step(bad)
    assert len(sess.probs) == 4
    for v in seq.features[4:]:
        sess.step(v)
    assert np.array_equal(np.stack(sess.probs), np.stack(clean.probs))
    assert np.array_equal(sess.h, clean.h) and np.array_equal(sess.c, clean.c)
    assert np.array_equal(sess.extractor.feature(), clean.extractor.feature())


def test_session_refuses_an_infinite_pre_activation_of_a_finite_embedding():
    mdl = build_model(KINDS, False, np.float32, seed=16)
    mdl.params["lstm_wx"][:] = np.finfo(np.float32).max
    sess = InferenceSession(mdl)
    with np.errstate(over="ignore"), pytest.raises(NumericError, match="frame 0 "):
        sess.step(np.ones(3, np.float32))
    assert sess.probs == [] and not sess.h.any() and not sess.c.any()


def test_gabor_bank_longer_than_the_stream():
    mdl = build_model(("gabor",), False, np.float32, scale_max=16.0)
    assert GaborBank.build(3, 2.0, 16.0).width > 6
    assert_matches_oracle(mdl, np.ones((6, 3), np.float32))
