import itertools

import numpy as np
import pytest
from oracles import streaming_two_pass

from phaseflow import model as model_mod, nn
from phaseflow.core import (
    DataValidationError,
    ExperimentConfig,
    FeatureSequence,
    PhaseTaxonomy,
    UsageError,
    softmax,
    validate_sequence,
)
from phaseflow.model import (
    InferenceSession,
    PhaseModel,
    hmm_smooth_posthoc,
    infer_dataset,
    infer_video,
    infer_video_acausal,
    init_model,
    load_model,
    run_inference,
    save_model,
)
from phaseflow.data import default_grammar_mgh_like, generate_dataset
from phaseflow.ssm import TransitionMatrix, estimate_transition_matrix

TAX2 = PhaseTaxonomy(("arm", "leg"))


def small_config(**kw):
    base = dict(hidden_dim=4, embed_dim=3, enabled_ssm_features=("csl", "hmm"),
                csl_levels=(0.5,), gabor_num_scales=2, gabor_scale_min=3.0,
                gabor_scale_max=5.0, rng_seed=1, epochs=1)
    base.update(kw)
    return ExperimentConfig(**base)


def plain_lstm_infer(params, features):
    """Plain-LSTM baseline: embeddings straight into the LSTM, no statistic
    side channel. The ssm-disabled PhaseModel must match this bit-for-bit."""
    h, c = np.zeros((2, nn.hidden_dim_of(params)), np.float32)
    probs = []
    for v in features:
        h, c = nn.lstm_step(params, h, c, v)
        probs.append(softmax(nn.head_forward(params, h)))
    probs = np.stack(probs)
    return probs, np.argmax(probs, axis=1)


def random_seq(rng, t, d, n, video_id="v0"):
    seq = FeatureSequence(video_id, 1.0,
                          rng.standard_normal((t, d)).astype(np.float32),
                          rng.integers(0, n, t))
    return validate_sequence(seq, TAX2 if n == 2 else PhaseTaxonomy.mgh100())


class TestForwardStep:
    def test_first_frame_consumes_zero_statistic(self, monkeypatch):
        mdl = init_model(small_config(), TAX2)
        sess = InferenceSession(mdl)
        inputs = []
        cell = nn.WindowRecorder.cell

        def recording_cell(self, h, c, x, *out):
            inputs.append(x.copy())
            return cell(self, h, c, x, *out)

        monkeypatch.setattr(nn.WindowRecorder, "cell", recording_cell)
        sess.step(np.ones(3, np.float32))
        expected = np.zeros(mdl.input_dim, np.float32)
        expected[:3] = 1.0
        np.testing.assert_array_equal(inputs[0], expected)

    def test_disabled_ssm_is_bit_identical_to_plain_lstm(self):
        mdl = init_model(small_config(enabled_ssm_features=()), TAX2)
        rng = np.random.default_rng(0)
        seq = random_seq(rng, 40, 3, 2)
        result = infer_video(mdl, seq)
        probs, labels = plain_lstm_infer(mdl.params, seq.features)
        assert np.array_equal(result.probs, probs)
        assert np.array_equal(result.labels, labels)

    def test_three_frame_trace_matches_composed_reference(self):
        # straight-line float64 recomputation of the composed equations
        cfg = small_config(hidden_dim=2, embed_dim=2,
                           enabled_ssm_features=("csl",), csl_levels=(0.5,))
        mdl = init_model(cfg, TAX2)
        rng = np.random.default_rng(3)
        vs = rng.standard_normal((3, 2)).astype(np.float32)
        result = infer_video(mdl, validate_sequence(
            FeatureSequence("t", 1.0, vs, None), TAX2))

        wx = mdl.params["lstm_wx"].astype(np.float64)
        wh = mdl.params["lstm_wh"].astype(np.float64)
        b = mdl.params["lstm_b"].astype(np.float64)
        hw = mdl.params["head_w"].astype(np.float64)
        hb = mdl.params["head_b"].astype(np.float64)
        h = np.zeros(2)
        c = np.zeros(2)
        counts = np.zeros((2, 2))
        for t in range(3):
            s = np.log1p(counts).reshape(-1)
            x = np.concatenate([vs[t].astype(np.float64), s])
            z = x @ wx + h @ wh + b
            i, f = 1 / (1 + np.exp(-z[:2])), 1 / (1 + np.exp(-z[2:4]))
            g, o = np.tanh(z[4:6]), 1 / (1 + np.exp(-z[6:8]))
            c = f * c + i * g
            h = o * np.tanh(c)
            m = np.exp(h @ hw + hb)
            m /= m.sum()
            counts[:, 0] += m >= 0.5
            counts[int(np.argmax(m)), 1] += 1
            np.testing.assert_allclose(result.probs[t], m, atol=1e-5)

    def test_embedding_dimension_mismatch(self):
        mdl = init_model(small_config(), TAX2)
        sess = InferenceSession(mdl)
        with pytest.raises(DataValidationError, match="dimension mismatch"):
            sess.step(np.zeros(5, np.float32))


class TestInferVideo:
    def test_single_frame_video(self):
        mdl = init_model(small_config(), TAX2)
        rng = np.random.default_rng(1)
        seq = random_seq(rng, 1, 3, 2)
        result = infer_video(mdl, seq)
        assert result.probs.shape == (1, 2)
        assert result.labels.shape == (1,)

    def test_split_session_concatenation(self):
        mdl = init_model(small_config(), TAX2)
        rng = np.random.default_rng(2)
        seq = random_seq(rng, 23, 3, 2)
        full = infer_video(mdl, seq)
        sess = InferenceSession(mdl)
        for v in seq.features[:9]:
            sess.step(v)
        for v in seq.features[9:]:
            sess.step(v)
        np.testing.assert_array_equal(np.stack(sess.probs), full.probs)

    def test_causal_predictions_ignore_future_frames(self):
        mdl = init_model(small_config(), TAX2)
        rng = np.random.default_rng(4)
        seq = random_seq(rng, 50, 3, 2)
        base = infer_video(mdl, seq)
        for cut in (0, 10, 25, 48):
            feats = seq.features.copy()
            feats[cut + 1:] = rng.standard_normal(feats[cut + 1:].shape)
            corrupted = validate_sequence(
                FeatureSequence("v0", 1.0, feats, None), TAX2)
            again = infer_video(mdl, corrupted)
            assert np.array_equal(again.probs[:cut + 1], base.probs[:cut + 1])
            assert np.array_equal(again.labels[:cut + 1], base.labels[:cut + 1])

    def test_deterministic_across_runs(self):
        mdl = init_model(small_config(), TAX2)
        rng = np.random.default_rng(5)
        seq = random_seq(rng, 30, 3, 2)
        a = infer_video(mdl, seq)
        b = infer_video(mdl, seq)
        assert np.array_equal(a.probs, b.probs)

    @pytest.mark.parametrize("acausal", [False, True], ids=["causal", "acausal"])
    def test_infer_dataset_matches_per_video_inference(self, acausal):
        # the lockstep engine sums rows in another order than one video at a
        # time: float32 probabilities agree to 1e-5 absolute
        mdl = init_model(small_config(acausal=acausal, enabled_ssm_features=(
            "csl", "gabor", "hmm")), TAX2)
        rng = np.random.default_rng(6)
        # non-zero weights everywhere, so pass 2 depends on the acausal rows
        mdl.params["lstm_wx"][:] = rng.uniform(-0.5, 0.5, mdl.params["lstm_wx"].shape)
        seqs = [random_seq(rng, t, 3, 2, video_id=f"v{i}")
                for i, t in enumerate((9, 1, 23, 8, 1, 16))]
        got = infer_dataset(mdl, seqs)
        assert sorted(got) == [s.video_id for s in seqs]
        ref_of = infer_video_acausal if acausal else infer_video
        for seq in seqs:
            r, ref = got[seq.video_id], ref_of(mdl, seq)
            assert r.video_id == seq.video_id
            np.testing.assert_allclose(r.probs, ref.probs, rtol=0, atol=1e-5)
            assert np.array_equal(r.labels, np.argmax(r.probs, axis=1))
            if acausal:
                np.testing.assert_allclose(r.pass1_probs, ref.pass1_probs,
                                           rtol=0, atol=1e-5)
            else:
                assert r.pass1_probs is None
        if acausal:
            assert not np.allclose(got["v2"].probs, got["v2"].pass1_probs, atol=1e-3)
        shuffled = infer_dataset(mdl, [seqs[j] for j in (4, 2, 0, 5, 1, 3)])
        for vid, r in got.items():
            assert np.array_equal(shuffled[vid].probs, r.probs)
            if acausal:
                assert np.array_equal(shuffled[vid].pass1_probs, r.pass1_probs)

    def test_infer_dataset_rejects_a_video_listed_twice(self):
        mdl = init_model(small_config(), TAX2)
        rng = np.random.default_rng(3)
        a, b = (random_seq(rng, 5, 3, 2, video_id=vid) for vid in ("a", "b"))
        with pytest.raises(UsageError, match="video a is listed more than once"):
            infer_dataset(mdl, [a, a, b])

    @pytest.mark.parametrize("acausal", [False, True], ids=["causal", "acausal"])
    def test_infer_dataset_rejects_another_embedding_width(self, acausal):
        mdl = init_model(small_config(acausal=acausal), TAX2)
        rng = np.random.default_rng(2)
        seqs = [random_seq(rng, 5, 3, 2), random_seq(rng, 4, 5, 2, video_id="wide")]
        with pytest.raises(DataValidationError,
                           match="video wide has 5-d embeddings, but config embed_dim is 3"):
            infer_dataset(mdl, seqs)


class TestAcausal:
    def acausal_model(self, seed=1, **kw):
        cfg = small_config(acausal=True, rng_seed=seed, **kw)
        # sticky transitions give the hmm feature real memory of the future
        sticky = TransitionMatrix(np.array([[0.9, 0.1], [0.1, 0.9]]))
        return init_model(cfg, TAX2, transition=sticky)

    def test_zero_weighted_acausal_channels_reduce_to_causal(self):
        mdl = self.acausal_model()
        mdl.params["lstm_wx"][mdl.blocks[2], :] = 0.0
        rng = np.random.default_rng(7)
        seq = random_seq(rng, 30, 3, 2)
        two_pass = infer_video_acausal(mdl, seq)
        causal = infer_video(mdl, seq)
        assert np.array_equal(two_pass.probs, causal.probs)

    def test_acausal_output_changes_with_future(self):
        mdl = self.acausal_model()
        rng = np.random.default_rng(8)
        seq = random_seq(rng, 40, 3, 2)
        base = infer_video_acausal(mdl, seq)
        feats = seq.features.copy()
        feats[30:] = 5.0 * rng.standard_normal(feats[30:].shape)
        seq2 = validate_sequence(FeatureSequence("v0", 1.0, feats, None), TAX2)
        again = infer_video_acausal(mdl, seq2)
        # pass 1 is causal, so early pass-1 frames agree ...
        assert np.array_equal(again.pass1_probs[:30], base.pass1_probs[:30])
        # ... but the acausal statistics see the changed future
        assert not np.array_equal(again.probs[:20], base.probs[:20])

    @pytest.mark.parametrize("embed_dim", [3, 500], ids=["narrow", "chunked"])
    def test_causal_passes_never_read_the_acausal_weights(self, embed_dim):
        # at 500 the [v | s] columns are more than one block of BLOCK_COLS
        mdl = self.acausal_model(embed_dim=embed_dim)
        poisoned = PhaseModel(mdl.config, mdl.taxonomy,
                              {k: v.copy() for k, v in mdl.params.items()}, mdl.transition)
        poisoned.params["lstm_wx"][mdl.blocks[2]] = np.nan
        rng = np.random.default_rng(10)
        seqs = [random_seq(rng, t, embed_dim, 2, f"v{i}") for i, t in enumerate((30, 17, 9))]
        for seq in seqs:
            got, ref = infer_video(poisoned, seq).probs, infer_video(mdl, seq).probs
            assert np.isfinite(got).all() and np.array_equal(got, ref)
        with np.errstate(invalid="ignore"):
            probs, pass1, _, _ = model_mod._offline_probs(poisoned, seqs)
        ref_pass1 = model_mod._offline_probs(mdl, seqs)[1]
        for got, ref, p2 in zip(pass1, ref_pass1, probs):
            assert np.isfinite(got).all() and np.array_equal(got, ref)
            assert np.isnan(p2).all()       # pass 2 reads them

    def test_acausal_requires_acausal_config(self):
        mdl = init_model(small_config(), TAX2)
        rng = np.random.default_rng(9)
        with pytest.raises(UsageError):
            infer_video_acausal(mdl, random_seq(rng, 5, 3, 2))


KINDS = ("csl", "gabor", "hmm")
SUBSETS = [tuple(k for k, on in zip(KINDS, bits) if on)
           for bits in itertools.product((False, True), repeat=3)]


class TestOneVideoViews:
    """`run_inference` and `infer_video_acausal` are one video of
    `infer_dataset`. At B = 1 its lockstep pass 1 is bit-equal to
    streaming, so both equal the streaming two-pass oracle bit for bit in
    acausal configs, and `run_inference` equals `infer_video` in causal
    ones."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
    @pytest.mark.parametrize("acausal", [False, True], ids=["causal", "acausal"])
    @pytest.mark.parametrize("kinds", SUBSETS, ids=lambda k: "-".join(k) or "none")
    def test_bit_equal_to_the_reference(self, kinds, acausal, dtype):
        mdl = init_model(small_config(enabled_ssm_features=kinds, acausal=acausal), TAX2)
        rng = np.random.default_rng(12)
        # weights on every input column, so pass 2 reads the acausal rows
        mdl.params["lstm_wx"][:] = rng.uniform(-0.5, 0.5, mdl.params["lstm_wx"].shape)
        mdl.params = {k: v.astype(dtype) for k, v in mdl.params.items()}
        for t in (1, 8, 37):
            seq = random_seq(rng, t, 3, 2, video_id=f"v{t}")
            ref = streaming_two_pass(mdl, seq) if acausal else infer_video(mdl, seq)
            views = [run_inference(mdl, seq)]
            if acausal:
                views.append(infer_video_acausal(mdl, seq))
                # the last row of the acausal statistic is zeros
                assert (np.array_equal(ref.probs, ref.pass1_probs)
                        == (t == 1 or not kinds))
            for got in views:
                assert got.video_id == seq.video_id
                assert got.probs.dtype == ref.probs.dtype == dtype
                assert np.array_equal(got.probs, ref.probs)
                assert np.array_equal(got.labels, ref.labels)
                if acausal:
                    assert np.array_equal(got.pass1_probs, ref.pass1_probs)
                else:
                    assert got.pass1_probs is None


class TestHmmSmoothing:
    def test_identity_constant_stream_keeps_argmax(self):
        tm = TransitionMatrix.from_weights(np.eye(3) + 1e-12)
        probs = np.tile([0.2, 0.5, 0.3], (8, 1))
        labels = hmm_smooth_posthoc(probs, tm)
        assert np.array_equal(labels, np.full(8, 1))

    def test_uniform_transition_gives_per_frame_argmax(self):
        tm = TransitionMatrix.uniform(3)
        rng = np.random.default_rng(10)
        probs = softmax(rng.standard_normal((30, 3)))
        labels = hmm_smooth_posthoc(probs, tm)
        assert np.array_equal(labels, np.argmax(probs, axis=1))

    def test_forbidden_spike_suppressed(self):
        # 10-frame stream: stable phase 0 with a single confident spike into
        # phase 2, whose incoming transitions sit at the smoothing floor
        a = np.array([
            [0.989, 0.010, 0.001],
            [0.010, 0.989, 0.001],
            [0.333, 0.333, 0.334],
        ])
        tm = TransitionMatrix.from_weights(a)
        probs = np.tile([0.9, 0.05, 0.05], (10, 1))
        probs[5] = [0.10, 0.05, 0.85]
        raw = np.argmax(probs, axis=1)
        assert raw[5] == 2
        smoothed = hmm_smooth_posthoc(probs, tm)
        assert np.array_equal(smoothed, np.zeros(10))


class TestSaveLoad:
    def test_round_trip_with_transition(self, tmp_path):
        cfg = small_config()
        rng = np.random.default_rng(11)
        tm = TransitionMatrix.from_weights(rng.random((2, 2)) + 0.1)
        mdl = init_model(cfg, TAX2, transition=tm)
        path = tmp_path / "best.ckpt"
        save_model(mdl, path)
        loaded = load_model(path)
        assert loaded.config == cfg
        assert loaded.taxonomy == TAX2
        for k in mdl.params:
            np.testing.assert_array_equal(loaded.params[k], mdl.params[k])
        np.testing.assert_array_equal(loaded.transition.a, tm.a)
        seq = random_seq(np.random.default_rng(1), 15, 3, 2)
        np.testing.assert_array_equal(infer_video(loaded, seq).probs,
                                      infer_video(mdl, seq).probs)

    def test_save_load_save_is_byte_identical(self, tmp_path):
        # an estimated 13-phase matrix: rescaling rows that already sum to 1
        # changes their last bits, so a loaded matrix must be taken as saved
        tax = PhaseTaxonomy.mgh100()
        videos = generate_dataset(default_grammar_mgh_like(embed_dim=3), 10, seed=3)
        tm = estimate_transition_matrix([s.labels for s in videos], tax.n_phases)
        save_model(init_model(small_config(), tax, transition=tm), tmp_path / "a.ckpt")
        loaded = load_model(tmp_path / "a.ckpt")
        np.testing.assert_array_equal(loaded.transition.a, tm.a)
        save_model(loaded, tmp_path / "b.ckpt")
        assert (tmp_path / "b.ckpt").read_bytes() == (tmp_path / "a.ckpt").read_bytes()

    def test_missing_transition_file_rejected(self, tmp_path):
        # the transition matrix is part of the checkpoint file's header
        mdl = init_model(small_config(), TAX2)
        path = tmp_path / "best.ckpt"
        save_model(mdl, path)
        params, extra = nn.load_checkpoint(path)
        del extra["transition"]
        nn.save_checkpoint(path, params, extra)
        with pytest.raises(DataValidationError, match="transition") as err:
            load_model(path)
        assert str(path) in str(err.value)

    def test_model_without_transition_round_trips(self, tmp_path):
        mdl = init_model(small_config(enabled_ssm_features=("csl",)), TAX2)
        save_model(mdl, tmp_path / "best.ckpt")
        assert nn.load_checkpoint(tmp_path / "best.ckpt")[1]["transition"] is None
        assert load_model(tmp_path / "best.ckpt").transition is None

    def test_moved_checkpoint_keeps_its_own_matrix(self, tmp_path):
        # a checkpoint copied into another run's directory is the same model
        tms = [TransitionMatrix.from_weights(np.array([[9.0, 1.0], [1.0, 9.0]])),
               TransitionMatrix.from_weights(np.array([[1.0, 3.0], [3.0, 1.0]]))]
        for run, tm in zip("ab", tms):
            (tmp_path / run).mkdir()
            save_model(init_model(small_config(), TAX2, transition=tm),
                       tmp_path / run / "best.ckpt")
        moved = tmp_path / "a" / "moved.ckpt"
        moved.write_bytes((tmp_path / "b" / "best.ckpt").read_bytes())
        np.testing.assert_array_equal(load_model(moved).transition.a, tms[1].a)
        np.testing.assert_array_equal(load_model(tmp_path / "a" / "best.ckpt").transition.a,
                                      tms[0].a)
