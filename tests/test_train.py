import dataclasses
import functools
import json
import logging
import time

import numpy as np
import pytest

from oracles import (PerWindowRunner, finite_difference_grads, new_grads, per_block_clip,
                     per_frame_window_backward, textbook_adam_step, window_pass)
from phaseflow import model as model_mod, nn, ssm, train as train_mod
from phaseflow.core import (
    MODEL_DTYPE,
    ExperimentConfig,
    FeatureSequence,
    NumericError,
    PhaseTaxonomy,
    UsageError,
    softmax,
    substream,
    validate_sequence,
)
from phaseflow.model import (
    infer_video,
    infer_video_acausal,
    init_model,
    run_inference,
)
from phaseflow.train import (
    TrainRun,
    batch_scheduler,
    fit,
    train_epoch,
    training_forward_probs,
)

TAX2 = PhaseTaxonomy(("left", "right"))


def toy_config(**kw):
    base = dict(hidden_dim=4, embed_dim=2, enabled_ssm_features=(),
                batch_size=4, learning_rate=0.01, epochs=3, rng_seed=0,
                proximal_weight=0.0, seq_len_bptt=8)
    base.update(kw)
    return ExperimentConfig(**base)


def separable_video(rng, video_id, t=24):
    """Phase decodable from the current embedding alone: mean +-1.5 on dim 0."""
    labels = []
    while len(labels) < t:
        labels.extend([int(rng.integers(2))] * int(rng.integers(3, 8)))
    labels = np.asarray(labels[:t])
    means = np.array([[1.5, 0.0], [-1.5, 0.0]])
    feats = means[labels] + 0.3 * rng.standard_normal((t, 2))
    return validate_sequence(
        FeatureSequence(video_id, 1.0, feats.astype(np.float32), labels), TAX2)


def toy_dataset(seed=0, n_train=6, n_val=2, t=24):
    rng = np.random.default_rng(seed)
    train = [separable_video(rng, f"train_{i:02d}", t) for i in range(n_train)]
    val = [separable_video(rng, f"val_{i:02d}", t) for i in range(n_val)]
    return train, val


def new_run(config, train_seqs):
    model = init_model(config, TAX2)
    return TrainRun(config, model, nn.Adam(model.params, config.learning_rate))


class TestBatchScheduler:
    def test_single_video_warns_and_degrades(self):
        # the "effective batch is smaller" warning is fit's, once per fit
        # (TestFit.test_small_training_set_warns_once_per_fit)
        batches = batch_scheduler({"v0": 20}, 32, 8, np.random.default_rng(0))
        assert [len(b) for b in batches] == [1, 1, 1]
        assert batches[0][0] == ("v0", 0, 8)
        assert batches[2][0] == ("v0", 16, 20)

    def test_64_videos_batches_touch_32_distinct(self):
        lengths = {f"v{i:03d}": 16 for i in range(64)}
        batches = batch_scheduler(lengths, 32, 8, np.random.default_rng(1))
        for batch in batches:
            vids = [vid for vid, _, _ in batch]
            assert len(vids) == 32
            assert len(set(vids)) == 32

    def test_shuffle_changes_composition_not_window_order(self):
        lengths = {f"v{i}": 40 for i in range(10)}
        b1 = batch_scheduler(lengths, 3, 8, np.random.default_rng(2))
        b2 = batch_scheduler(lengths, 3, 8, np.random.default_rng(3))
        flat1 = [w for b in b1 for w in b]
        flat2 = [w for b in b2 for w in b]
        assert flat1 != flat2                      # composition differs
        for vid in lengths:
            order1 = [(s, e) for v, s, e in flat1 if v == vid]
            order2 = [(s, e) for v, s, e in flat2 if v == vid]
            expected = [(s, min(s + 8, 40)) for s in range(0, 40, 8)]
            assert order1 == expected
            assert order2 == expected

    def test_all_frames_covered_exactly_once(self):
        lengths = {"a": 19, "b": 8, "c": 3}
        batches = batch_scheduler(lengths, 2, 8, np.random.default_rng(4))
        seen = {vid: [] for vid in lengths}
        for b in batches:
            for vid, s, e in b:
                seen[vid].extend(range(s, e))
        for vid, t in lengths.items():
            assert sorted(seen[vid]) == list(range(t))


class TestTrainEpoch:
    def test_one_video_t8_is_exactly_one_adam_step(self):
        train, _ = toy_dataset(n_train=1, n_val=0, t=8)
        run = new_run(toy_config(batch_size=32), train)
        train_epoch(run, train)
        assert run.adam.t == 1
        assert run.epoch == 1

    def test_loss_decreases_over_twenty_single_window_epochs(self):
        train, _ = toy_dataset(n_train=1, n_val=0, t=8)
        run = new_run(toy_config(batch_size=32, learning_rate=0.02), train)
        losses = []
        for _ in range(20):
            train_epoch(run, train)
            losses.append(run.last_epoch_loss)
        assert losses[-1] < losses[0]

    def test_first_epoch_ignores_proximal_weight(self):
        train, _ = toy_dataset(n_train=2, n_val=0)
        run_a = new_run(toy_config(proximal_weight=0.0), train)
        run_b = new_run(toy_config(proximal_weight=0.5), train)
        train_epoch(run_a, train)
        train_epoch(run_b, train)
        for k in run_a.model.params:
            assert np.array_equal(run_a.model.params[k], run_b.model.params[k])

    def test_window_loss_hand_check_64bit(self):
        # summed window loss = sum CE + lambda * sum ||m - prev||^2
        ms = np.array([[0.7, 0.3], [0.2, 0.8]])
        prox = np.array([[0.6, 0.4], [0.2, 0.8]])
        lam = 0.1
        loss, _ = nn.window_loss_and_dlogits(ms, [0, 0], prox, lam)
        expected = (-np.log(0.7) - np.log(0.2)
                    + lam * ((0.1 ** 2 + 0.1 ** 2) + 0.0))
        assert loss == pytest.approx(expected, rel=1e-12)

    def test_proximal_term_zero_when_outputs_match_cache(self):
        ms = softmax(np.random.default_rng(0).standard_normal((4, 3)))
        base, _ = nn.window_loss_and_dlogits(ms, [0, 1, 2, 0], None, 0.0)
        tied, _ = nn.window_loss_and_dlogits(ms, [0, 1, 2, 0], ms.copy(), 0.7)
        assert tied == base

    def test_nonfinite_loss_names_video_and_frames(self):
        train, _ = toy_dataset(n_train=1, n_val=0, t=8)
        run = new_run(toy_config(), train)
        run.model.params["head_w"][:] = np.inf
        with np.errstate(invalid="ignore"):
            with pytest.raises(NumericError, match=r"train_00 frames \[0, 8\)"):
                train_epoch(run, train)


class TestDetachment:
    def test_gradient_check_with_frozen_statistics(self):
        # capture the ssm-augmented inputs a real training window sees, then
        # finite-difference with those inputs held fixed
        cfg = toy_config(enabled_ssm_features=("csl", "hmm"), hidden_dim=3)
        model = init_model(cfg, TAX2)
        params64 = {k: v.astype(np.float64) for k, v in model.params.items()}
        rng = np.random.default_rng(5)
        seq = separable_video(rng, "v0", t=8)

        ext = model.new_extractor()
        xs = np.zeros((8, model.input_dim))
        rec = nn.WindowRecorder(params64, xs, *np.zeros((2, 3)))
        ms = np.zeros((8, model.n_phases))
        for t in range(8):
            xs[t] = np.concatenate([seq.features[t], ext.feature()])
            softmax(rec.step(t), out=ms[t])
            ext.update(ms[t])
        _, dlogits = nn.window_loss_and_dlogits(ms, seq.labels[:8])
        analytic = nn.window_backward(params64, rec, dlogits, new_grads(params64, rec))

        def frozen_loss(params):
            loss, _ = window_pass(params, *np.zeros((2, 3)), xs,
                                  seq.labels[:8])
            return loss

        fd = finite_difference_grads(frozen_loss, params64, step=1e-5)
        for k in params64:
            num = np.linalg.norm((analytic[k] - fd[k]).ravel())
            den = max(np.linalg.norm(analytic[k].ravel()),
                      np.linalg.norm(fd[k].ravel()), 1e-12)
            assert num / den < 1e-4

    def test_perturbing_statistics_changes_loss_but_not_gradient_validity(self):
        cfg = toy_config(enabled_ssm_features=("csl",), hidden_dim=3)
        model = init_model(cfg, TAX2)
        rng = np.random.default_rng(6)
        seq = separable_video(rng, "v0", t=8)
        probs_a = training_forward_probs(model, seq)
        noisy = init_model(cfg, TAX2)
        noisy.params = model.params
        # same params, same video: shifting the statistic inputs shifts outputs
        shifted = seq.features + np.float32(0.25)
        seq2 = validate_sequence(
            FeatureSequence("v0", 1.0, shifted, seq.labels.copy()), TAX2)
        probs_b = training_forward_probs(noisy, seq2)
        assert not np.array_equal(probs_a, probs_b)


class TestTrainingForwardEqualsInference:
    @pytest.mark.parametrize("features,acausal", [
        pytest.param((), False, id="features0"),
        pytest.param(("csl", "gabor", "hmm"), False, id="features1"),
        pytest.param(("csl", "hmm"), True, id="acausal-csl-hmm"),
        pytest.param(("csl", "gabor", "hmm"), True, id="acausal-all"),
    ])
    def test_bit_exact_over_consecutive_windows(self, features, acausal):
        cfg = toy_config(enabled_ssm_features=features, acausal=acausal,
                         gabor_num_scales=3, gabor_scale_min=3.0, gabor_scale_max=6.0)
        model = init_model(cfg, TAX2)
        rng = np.random.default_rng(7)
        seq = separable_video(rng, "v0", t=37)     # not a multiple of 8
        train_probs = training_forward_probs(model, seq)
        if not acausal:
            assert np.array_equal(train_probs, infer_video(model, seq).probs)
            return
        # pass 1 (a block zero), then pass 2 on the rows derived from pass 1;
        # the a block's weights are drawn like the others, so pass 2 differs
        ref = infer_video_acausal(model, seq)
        assert np.array_equal(train_probs, ref.pass1_probs)
        pass2 = training_forward_probs(
            model, seq, model.new_extractor().acausal_rows([train_probs], MODEL_DTYPE)[0])
        assert np.array_equal(pass2, ref.probs)
        assert not np.array_equal(ref.probs, ref.pass1_probs)


class TestFit:
    def test_epochs_zero_returns_initialization(self):
        train, val = toy_dataset()
        cfg = toy_config(epochs=0)
        result = fit(cfg, TAX2, train, val)
        assert result.curve == []
        assert result.best_epoch == 0
        assert np.isnan(result.best_val_accuracy)     # no epoch, no accuracy
        fresh = init_model(cfg, TAX2)
        for k in fresh.params:
            assert np.array_equal(result.model.params[k], fresh.params[k])

    def test_identical_curve_across_reruns(self):
        train, val = toy_dataset()
        cfg = toy_config(epochs=3)
        r1 = fit(cfg, TAX2, train, val)
        r2 = fit(cfg, TAX2, train, val)
        assert [(e.epoch, e.train_loss, e.val_accuracy) for e in r1.curve] == \
               [(e.epoch, e.train_loss, e.val_accuracy) for e in r2.curve]
        for k in r1.model.params:
            assert np.array_equal(r1.model.params[k], r2.model.params[k])

    def test_separable_toy_reaches_95_percent(self):
        train, val = toy_dataset(seed=1, n_train=8, n_val=3, t=40)
        cfg = toy_config(epochs=8, learning_rate=0.02, hidden_dim=8)
        result = fit(cfg, TAX2, train, val)
        assert result.best_val_accuracy > 0.95

    def test_small_training_set_warns_once_per_fit(self, caplog):
        train, val = toy_dataset(n_train=3, n_val=1)
        with caplog.at_level(logging.WARNING, logger="phaseflow.train"):
            fit(toy_config(epochs=3, batch_size=32), TAX2, train, val)
        warned = [r for r in caplog.records if "effective batch" in r.getMessage()]
        assert len(warned) == 1
        assert warned[0].getMessage().startswith("only 3 video(s) for batch size 32")

    def test_rejects_overlapping_splits(self):
        train, _ = toy_dataset()
        with pytest.raises(UsageError, match="overlap"):
            fit(toy_config(), TAX2, train, train[:1])

    @pytest.mark.parametrize("split", ["training", "validation"])
    def test_rejects_a_video_listed_twice(self, split):
        train, val = toy_dataset()
        seqs = {"training": train, "validation": val}[split]
        seqs.append(seqs[0])
        with pytest.raises(UsageError, match=f"video {seqs[0].video_id} is listed "
                                             f"more than once in the {split} set"):
            fit(toy_config(), TAX2, train, val)

    def test_writes_log_and_checkpoints(self, tmp_path):
        train, val = toy_dataset()
        cfg = toy_config(epochs=2)
        log_path = tmp_path / "log.jsonl"
        fit(cfg, TAX2, train, val, log_path=log_path, ckpt_dir=tmp_path)
        lines = log_path.read_text().strip().splitlines()
        assert len(lines) == 2
        entry = json.loads(lines[0])
        assert set(entry) == {"epoch", "train_loss", "val_accuracy", "wall_time_s",
                              "train_s", "train_fps", "refresh_s", "validate_s",
                              "grad_norm_p50", "clipped_frac", "hmm_underflows",
                              "stat_ranges"}
        assert entry["stat_ranges"] == dict.fromkeys(("csl", "gabor", "hmm", "acausal"))
        frames = sum(s.n_frames for s in train)
        assert entry["train_fps"] == pytest.approx(frames / entry["train_s"])
        assert (tmp_path / "epoch_001.ckpt").exists()
        assert (tmp_path / "epoch_002.ckpt").exists()
        assert (tmp_path / "best.ckpt").exists()
        assert not (tmp_path / "transition.csv").exists()

    @pytest.mark.parametrize("acausal", [False, True], ids=["causal", "acausal"])
    def test_checkpoints_hold_the_fitted_model_exactly(self, tmp_path, acausal):
        # a loaded checkpoint is the model fit returned, and saving it again
        # writes the same bytes, the estimated transition matrix included
        train, val = toy_dataset(seed=2, n_train=4, n_val=2)
        cfg = toy_config(enabled_ssm_features=("csl", "hmm"), acausal=acausal, epochs=2)
        result = fit(cfg, TAX2, train, val, ckpt_dir=tmp_path)
        loaded = model_mod.load_model(tmp_path / "best.ckpt")
        np.testing.assert_array_equal(loaded.transition.a, result.model.transition.a)
        ours, theirs = (model_mod.infer_dataset(m, val) for m in (loaded, result.model))
        for vid in ours:
            assert np.array_equal(ours[vid].probs, theirs[vid].probs)
        for name in ("epoch_001.ckpt", "epoch_002.ckpt", "best.ckpt"):
            model_mod.save_model(model_mod.load_model(tmp_path / name), tmp_path / "again")
            assert (tmp_path / "again").read_bytes() == (tmp_path / name).read_bytes()

    def test_acausal_fit_runs_and_carries_pass1(self):
        train, val = toy_dataset(seed=2, n_train=3, n_val=1, t=24)
        cfg = toy_config(enabled_ssm_features=("csl", "hmm"), acausal=True,
                         epochs=2)
        result = fit(cfg, TAX2, train, val)
        assert len(result.curve) == 2
        out = run_inference(result.model, val[0])
        assert out.pass1_probs is not None
        assert out.probs.shape == out.pass1_probs.shape


class TestCacheSchedule:
    """Each epoch's caches are derived just before it: a pass-1 start-up step
    before epoch 1 (acausal only), a full refresh before each later epoch and
    none after the last."""

    @staticmethod
    def count_passes(monkeypatch, train, extra_underflows=0, delay=0.0):
        """Wrap the offline passes `train` calls: the start-up pass 1
        (`_pass1`) and the two-pass driver (`_offline_probs`); count them by
        kind and by split, adding `extra_underflows` and `delay` to the
        start-up pass."""
        counts = {"startup": 0, "refresh": 0, "validate": 0}
        real_pass1, real_offline = train_mod._pass1, train_mod._offline_probs

        def pass1(model, seqs):
            assert seqs is train
            counts["startup"] += 1
            time.sleep(delay)
            probs, rows, underflows = real_pass1(model, seqs)
            return probs, rows, underflows + extra_underflows

        def offline(model, seqs):
            counts["refresh" if seqs is train else "validate"] += 1
            return real_offline(model, seqs)

        monkeypatch.setattr(train_mod, "_pass1", pass1)
        monkeypatch.setattr(train_mod, "_offline_probs", offline)
        return counts

    @pytest.mark.parametrize("acausal", [False, True])
    @pytest.mark.parametrize("epochs", [0, 1, 3])
    def test_pass_counts(self, epochs, acausal, monkeypatch):
        train, val = toy_dataset(n_train=3, n_val=1)
        cfg = toy_config(enabled_ssm_features=("csl", "hmm"), acausal=acausal,
                         proximal_weight=0.5, epochs=epochs)
        counts = self.count_passes(monkeypatch, train)
        fit(cfg, TAX2, train, val)
        assert counts == {"startup": int(acausal and epochs >= 1),
                          "refresh": max(epochs - 1, 0), "validate": epochs}

    @pytest.mark.parametrize("acausal", [False, True])
    def test_caches_equal_refresh_after_previous_epoch(self, acausal, monkeypatch):
        # the caches epoch e reads, against _refresh_caches run on a copy of
        # the parameters epoch e - 1 left (the initial ones for e = 1)
        train, val = toy_dataset(n_train=3, n_val=1)
        cfg = toy_config(enabled_ssm_features=("csl", "hmm"), acausal=acausal,
                         proximal_weight=0.5, epochs=3)
        real_train_epoch = train_mod.train_epoch
        expected, checked = [], []

        def refresh_on_copy(run):
            params = {k: v.copy() for k, v in run.model.params.items()}
            copy = dataclasses.replace(
                run, model=dataclasses.replace(run.model, params=params),
                prox_cache={}, acausal_cache={})
            train_mod._refresh_caches(copy, train)
            return copy.prox_cache, copy.acausal_cache

        def spy(run, seqs):
            if run.epoch == 0:
                expected.append(refresh_on_copy(run))
            for got, want in zip((run.prox_cache, run.acausal_cache), expected[-1]):
                assert got.keys() == want.keys()
                assert all(np.array_equal(got[vid], want[vid]) for vid in want)
            checked.append((len(run.prox_cache), len(run.acausal_cache)))
            real_train_epoch(run, seqs)
            expected.append(refresh_on_copy(run))
            return run

        monkeypatch.setattr(train_mod, "train_epoch", spy)
        fit(cfg, TAX2, train, val)
        n_acausal = 3 if acausal else 0
        assert checked == [(0, n_acausal), (3, n_acausal), (3, n_acausal)]

    @pytest.mark.parametrize("acausal", [False, True])
    def test_epoch_log_covers_the_cache_step_before_the_epoch(self, acausal,
                                                              monkeypatch):
        # the start-up pass reports 1000 extra underflows and takes >= 50 ms,
        # and is logged in epoch 1; the refresh before epoch 2 in epoch 2
        train, val = toy_dataset(n_train=3, n_val=1)
        cfg = toy_config(enabled_ssm_features=("csl", "hmm"), acausal=acausal,
                         epochs=2)
        clean = fit(cfg, TAX2, train, val).curve
        self.count_passes(monkeypatch, train, extra_underflows=1000, delay=0.05)
        curve = fit(cfg, TAX2, train, val).curve
        startup = 1000 if acausal else 0
        assert [e.hmm_underflows for e in curve] == \
               [clean[0].hmm_underflows + startup, clean[1].hmm_underflows]
        assert (curve[0].refresh_s >= 0.05) == acausal
        assert curve[1].refresh_s < 0.05

    @pytest.mark.parametrize("epoch", [0, 1], ids=["startup", "refresh"])
    def test_underflows_count_the_acausal_filter_over_pass_1(self, epoch, monkeypatch):
        # every 4th pass-1 row is all zeros, and the forward passes report no
        # underflows: each reset of the HMM filter over the reversed pass-1
        # streams, one per zero row, must still reach the count
        train, _ = toy_dataset(n_train=3, n_val=0)
        run = new_run(toy_config(enabled_ssm_features=("hmm",), acausal=True), train)
        run.epoch = epoch
        real_lockstep = model_mod._lockstep_probs

        def zeroed_pass1(model, seqs, acausal=None):
            probs, _ = real_lockstep(model, seqs, acausal)
            if acausal is None:
                for p in probs:
                    p[::4] = 0.0
            return probs, 0

        monkeypatch.setattr(model_mod, "_lockstep_probs", zeroed_pass1)
        train_mod._refresh_caches(run, train)
        assert run.hmm_underflows == sum(len(range(0, s.n_frames, 4)) for s in train) > 0

    @pytest.mark.parametrize("acausal", [False, True], ids=["causal", "acausal"])
    def test_stat_ranges_cover_the_real_frames_of_the_training_inputs(
            self, acausal, monkeypatch):
        cfg = toy_config(batch_size=2, acausal=acausal, **ALL_SSM)
        seqs = ragged_videos(seed=14)
        run = new_run(cfg, seqs)
        train_mod._refresh_caches(run, seqs)
        windows = []
        run_windows = model_mod.LockstepRunner.run

        def capture(*args, **kwargs):
            kernel = run_windows(*args, **kwargs)
            windows.append((kernel.recorder.xs.copy(), kernel.lengths))
            return kernel

        monkeypatch.setattr(model_mod.LockstepRunner, "run", capture)
        train_epoch(run, seqs)
        got = run.stat_ranges.summary()
        groups = run.model.stat_groups
        assert set(groups) == {"csl", "gabor", "hmm"} | ({"acausal"} if acausal else set())
        for group, cols in groups.items():
            vals = np.concatenate([
                xs[:n, j, cols].ravel() for xs, lengths in windows
                for j, n in enumerate(lengths)
                # the acausal channels are read by pass 2, the second half
                if group != "acausal" or j >= len(lengths) // 2])
            assert got[group]["min"] == vals.min()
            assert got[group]["max"] == vals.max()
            assert got[group]["mean"] == pytest.approx(vals.mean(dtype=np.float64),
                                                       rel=1e-12)
        assert (got["acausal"] is None) != acausal

    def test_log_without_validation_split_is_strict_json(self, tmp_path):
        train, _ = toy_dataset(n_train=2)
        log_path = tmp_path / "log.jsonl"
        result = fit(toy_config(epochs=2), TAX2, train, [], log_path=log_path)

        def reject(name):
            raise ValueError(f"non-JSON constant {name}")

        entries = [json.loads(line, parse_constant=reject)
                   for line in log_path.read_text().splitlines()]
        assert [e["val_accuracy"] for e in entries] == [None, None]
        assert result.best_epoch == 2


# ---------------------------------------------------------------------------
# lockstep engine against the one-video-at-a-time path (test oracle)

RAGGED = (1, 7, 8, 9, 37)
ALL_SSM = dict(enabled_ssm_features=("csl", "gabor", "hmm"), gabor_num_scales=3,
               gabor_scale_min=3.0, gabor_scale_max=6.0)


def ragged_videos(seed=11, lengths=RAGGED):
    rng = np.random.default_rng(seed)
    return [separable_video(rng, f"v{i}", t) for i, t in enumerate(lengths)]


def per_video_step_grads(run, train_seqs):
    """Per-Adam-step gradients of the next epoch, computed one window of one
    video and pass at a time with unbatched state, as training ran before the
    lockstep engine. Parameters are not updated."""
    cfg, model = run.config, run.model
    by_id = {s.video_id: s for s in train_seqs}
    rng = substream(cfg.rng_seed, "batching", run.epoch + 1)
    batches = batch_scheduler({v: s.n_frames for v, s in by_id.items()},
                              cfg.batch_size, cfg.seq_len_bptt, rng)
    zero_a = np.zeros(model.new_extractor().dim, MODEL_DTYPE) if cfg.acausal else None
    n_pass = 2 if cfg.acausal else 1
    # per video and pass: [h, c, extractor, acausal rows (pass 2 only)]
    sessions = {vid: [[*model.zero_state(), model.new_extractor(),
                       run.acausal_cache.get(vid) if p == 1 else None]
                      for p in range(n_pass)]
                for vid in by_id}
    steps = []
    for batch in batches:
        total = {k: np.zeros_like(v) for k, v in model.params.items()}
        for vid, start, stop in batch:
            seq = by_id[vid]
            for idx, sess in enumerate(sessions[vid]):
                h, c, ext, rows = sess
                xs = np.zeros((stop - start, model.input_dim), MODEL_DTYPE)
                rec = nn.WindowRecorder(model.params, xs, h, c)
                ms = np.zeros((stop - start, model.n_phases), MODEL_DTYPE)
                for t, k in enumerate(range(start, stop)):
                    parts = [seq.features[k], ext.feature().astype(MODEL_DTYPE)]
                    if zero_a is not None:
                        parts.append(zero_a if rows is None else rows[k])
                    xs[t] = np.concatenate(parts)
                    ext.update(softmax(rec.step(t), out=ms[t]))
                final = idx == n_pass - 1
                prox = run.prox_cache.get(vid) if final else None
                _, dl = nn.window_loss_and_dlogits(
                    ms, seq.labels[start:stop],
                    None if prox is None else prox[start:stop],
                    cfg.proximal_weight if final else 0.0)
                for k, g in nn.window_backward(model.params, rec, dl,
                                                new_grads(model.params, rec)).items():
                    total[k] += g
                sess[0], sess[1] = rec.hs[-1], rec.cs[-1]
        for k in total:
            total[k] /= len(batch)
        steps.append(total)
    underflows = sum(sess[2].underflow_count
                     for passes in sessions.values() for sess in passes)
    return steps, underflows


def lockstep_step_grads(run, train_seqs, monkeypatch):
    """Per-Adam-step gradients of train_epoch with the parameters frozen."""
    steps = []
    monkeypatch.setattr(run.adam, "step",
                        lambda params, grads: steps.append(
                            {k: g.copy() for k, g in grads.items()}))
    run.hmm_underflows = 0
    train_epoch(run, train_seqs)
    return steps


def rel_diff(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(a), np.linalg.norm(b), 1e-30)


class TestLockstepEngine:
    @pytest.mark.parametrize("dtype,tol", [(np.float32, 1e-5), (np.float64, 1e-12)])
    def test_probs_match_per_video_inference(self, dtype, tol):
        # float32: BLAS sums a batch of rows in another order than one row,
        # and that rounding feeds back through the statistics: <= 1e-5
        # absolute; float64: the same reordering, <= 1e-12 absolute
        model = init_model(toy_config(**ALL_SSM), TAX2)
        model.params = {k: v.astype(dtype) for k, v in model.params.items()}
        seqs = ragged_videos()
        probs, _ = model_mod._lockstep_probs(model, seqs)
        for seq, p in zip(seqs, probs):
            ref = infer_video(model, seq).probs
            assert p.dtype == ref.dtype == dtype
            np.testing.assert_allclose(p, ref, rtol=0, atol=tol)

    def test_acausal_two_pass_matches_per_video(self):
        cfg = toy_config(acausal=True, **ALL_SSM)
        model = init_model(cfg, TAX2)
        rng = np.random.default_rng(3)
        # non-zero acausal weights so pass 2 depends on the acausal rows
        model.params["lstm_wx"][:] = rng.uniform(
            -0.3, 0.3, model.params["lstm_wx"].shape).astype(np.float32)
        seqs = ragged_videos(seed=12)
        probs, _, rows, _ = model_mod._offline_probs(model, seqs)
        for seq, p, a in zip(seqs, probs, rows):
            ref = infer_video_acausal(model, seq)
            np.testing.assert_allclose(p, ref.probs, rtol=0, atol=1e-5)
            assert a.shape == (seq.n_frames, model.new_extractor().dim)

    @pytest.mark.parametrize("acausal", [False, True])
    @pytest.mark.parametrize("batch_size", [2, 8])
    def test_step_gradients_match_per_video(self, acausal, batch_size, monkeypatch):
        # 5 videos: more than a batch of 2, fewer than a batch of 8. Frozen
        # parameters, so both paths see the same states; per Adam step the
        # gradient blocks agree to 1e-5 relative (float32 summation order)
        cfg = toy_config(batch_size=batch_size, acausal=acausal, proximal_weight=0.5,
                         grad_clip=1e9, **ALL_SSM)
        seqs = ragged_videos(seed=13)
        run = new_run(cfg, seqs)
        run.epoch = 1        # past the start-up step: prox targets, acausal rows
        train_mod._refresh_caches(run, seqs)
        expected, underflows = per_video_step_grads(run, seqs)
        got = lockstep_step_grads(run, seqs, monkeypatch)
        assert len(got) == len(expected)
        for g, e in zip(got, expected):
            for k in e:
                assert rel_diff(g[k], e[k]) <= 1e-5, k
        assert run.hmm_underflows == underflows

    def test_hmm_underflows_equal_per_video_sum(self):
        # non-finite outputs make every real frame an underflow; padded rows
        # of the ragged final windows must add none
        model = init_model(toy_config(**ALL_SSM), TAX2)
        model.params["head_w"][:] = np.inf
        seqs = ragged_videos()
        # (a streaming session refuses such frames, so the per-video
        # reference is the engine on one video at a time)
        with np.errstate(invalid="ignore"):
            _, underflows = model_mod._lockstep_probs(model, seqs)
            expected = sum(model_mod._lockstep_probs(model, [seq])[1] for seq in seqs)
        assert underflows == expected == sum(RAGGED)


# ---------------------------------------------------------------------------
# the lockstep runner, bound once per stream set, against the engine that
# binds a new kernel per window (test oracle)

def per_window_engine(monkeypatch):
    """Run training and `_lockstep_probs` on `oracles.PerWindowRunner`."""
    monkeypatch.setattr(model_mod, "LockstepRunner", PerWindowRunner)
    monkeypatch.setattr(train_mod, "LockstepRunner", PerWindowRunner)


def steering_model(cfg, seed=3):
    """A model with weights on every input column, so the statistics and
    the acausal rows steer the outputs."""
    model = init_model(cfg, TAX2)
    rng = np.random.default_rng(seed)
    model.params["lstm_wx"][:] = rng.uniform(
        -0.3, 0.3, model.params["lstm_wx"].shape).astype(np.float32)
    return model


class TestRunnerBindsOncePerStreamSet:
    @pytest.mark.parametrize("acausal", [False, True], ids=["causal", "acausal"])
    @pytest.mark.parametrize("batch_size", [2, 8], ids=["rotate", "shrink"])
    def test_train_epoch_is_bit_equal_to_the_per_window_engine(self, acausal, batch_size,
                                                                monkeypatch):
        # 5 ragged videos: a batch of 2 rotates through them, a batch of 8
        # holds them all and shrinks as they end; each video's last window
        # is shorter than seq_len_bptt but for the one of 8 frames
        cfg = toy_config(batch_size=batch_size, acausal=acausal, proximal_weight=0.5,
                         **ALL_SSM)
        seqs = ragged_videos(seed=13)
        runs, tapes = [], {}
        backward = nn.window_backward

        def recorded(params, rec, dlogits, out):
            # padded frames included: the runner zeroes them as the oracle does
            tapes[engine].append((rec.xs.copy(), rec.hs.copy(), rec.cs.copy()))
            return backward(params, rec, dlogits, out)

        monkeypatch.setattr(nn, "window_backward", recorded)
        for engine in ("runner", "per-window"):
            tapes[engine] = []
            if engine == "per-window":
                per_window_engine(monkeypatch)
            model = steering_model(cfg)
            run = TrainRun(cfg, model, nn.Adam(model.params, cfg.learning_rate))
            for _ in range(2):
                train_mod._refresh_caches(run, seqs)
                train_epoch(run, seqs)
            runs.append(run)
        got, ref = runs
        for k in ref.model.params:
            assert np.array_equal(got.model.params[k], ref.model.params[k]), k
            assert np.array_equal(got.adam.m[k], ref.adam.m[k]), k
            assert np.array_equal(got.adam.v[k], ref.adam.v[k]), k
        assert got.last_epoch_loss == ref.last_epoch_loss
        assert got.grad_norms == ref.grad_norms
        assert got.stat_ranges.summary() == ref.stat_ranges.summary()
        assert got.hmm_underflows == ref.hmm_underflows
        assert len(tapes["runner"]) == len(tapes["per-window"])
        for mine, theirs in zip(tapes["runner"], tapes["per-window"]):
            assert all(np.array_equal(a, b) for a, b in zip(mine, theirs))

    @pytest.mark.parametrize("nonfinite", [False, True], ids=["finite", "underflowing"])
    @pytest.mark.parametrize("acausal", [False, True], ids=["causal", "acausal"])
    def test_lockstep_probs_are_bit_equal_to_the_per_window_engine(self, acausal,
                                                                    nonfinite, monkeypatch):
        # the videos of 8 and 16 frames end at a window start, so the live
        # set shrinks there with no padded frame; acausal runs pass 2 too
        model = steering_model(toy_config(acausal=acausal, **ALL_SSM))
        if nonfinite:       # every real frame underflows the HMM filter
            model.params["head_w"][:] = np.inf
        seqs = ragged_videos(seed=12, lengths=RAGGED + (16,))
        with np.errstate(invalid="ignore"):
            got = model_mod._offline_probs(model, seqs)
            per_window_engine(monkeypatch)
            ref = model_mod._offline_probs(model, seqs)

        def arrays(out):        # probs, pass-1 probs, acausal rows or None
            return out[0] + out[1] + (out[2] or [])

        assert (got[2] is None) == (ref[2] is None) == (not acausal)
        assert len(arrays(got)) == len(arrays(ref))
        for a, b in zip(arrays(got), arrays(ref)):
            assert np.array_equal(a, b, equal_nan=True)
        assert got[3] == ref[3]
        assert (got[3] > 0) == nonfinite

    @pytest.mark.parametrize("acausal", [False, True], ids=["causal", "acausal"])
    def test_train_epoch_gathers_once_per_batch_video_set(self, acausal, monkeypatch):
        cfg = toy_config(batch_size=8, acausal=acausal, **ALL_SSM)
        seqs = ragged_videos(seed=13)
        run = new_run(cfg, seqs)
        train_mod._refresh_caches(run, seqs)
        takes = []
        take = ssm.SsmExtractor.take

        def counted(self, rows):
            takes.append(rows)
            return take(self, rows)

        monkeypatch.setattr(ssm.SsmExtractor, "take", counted)
        train_epoch(run, seqs)
        batches = batch_scheduler({s.video_id: s.n_frames for s in seqs}, cfg.batch_size,
                                  cfg.seq_len_bptt, substream(cfg.rng_seed, "batching", 1))
        sets = {tuple(vid for vid, _, _ in batch) for batch in batches}
        # 5 videos of (1, 7, 8, 9, 37) frames: 5 batches over 3 video sets
        assert len(takes) <= len(sets) < len(batches)

    def test_lockstep_probs_bind_one_kernel_per_live_set(self, monkeypatch):
        kernels = []

        class Counted(model_mod.StepKernel):
            def __init__(self, *args, **kwargs):
                kernels.append(args[2].shape)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(model_mod, "StepKernel", Counted)
        model = init_model(toy_config(**ALL_SSM), TAX2)
        # 8 windows of 8 frames; 4 videos live in the first, 3 up to frame
        # 40 and 2 after it
        model_mod._lockstep_probs(model, ragged_videos(lengths=(64, 64, 40, 8)))
        assert [shape[1] for shape in kernels] == [4, 3, 2]


# ---------------------------------------------------------------------------
# the training step on Adam's flat vector against one made of oracles

def oracle_backward(params, rec, dlogits, out):
    """The per-frame backward, written into `out` as `nn.window_backward`
    writes Adam's gradient buffer."""
    for k, g in per_frame_window_backward(params, rec, dlogits).items():
        out[k][...] = g
    return out


class TestFlatTrainingStep:
    @pytest.mark.parametrize("hidden", [4, 130])
    @pytest.mark.parametrize("acausal", [False, True], ids=["causal", "acausal"])
    @pytest.mark.parametrize("batch_size", [2, 8], ids=["rotate", "shrink"])
    def test_two_epochs_are_bit_equal_to_the_oracle_step(self, batch_size, acausal,
                                                         hidden, monkeypatch):
        # the reference step: the per-frame backward, a per-block clip and
        # the textbook Adam. A low grad_clip scales most steps
        cfg = toy_config(batch_size=batch_size, acausal=acausal, hidden_dim=hidden,
                         proximal_weight=0.5, grad_clip=0.05, **ALL_SSM)
        seqs = ragged_videos(seed=13)
        runs = []
        for engine in ("flat", "oracles"):
            model = steering_model(cfg)
            run = TrainRun(cfg, model, nn.Adam(model.params, cfg.learning_rate))
            if engine == "oracles":
                monkeypatch.setattr(nn, "window_backward", oracle_backward)
                monkeypatch.setattr(nn, "clip_global_norm", per_block_clip)
                monkeypatch.setattr(run.adam, "step",
                                    functools.partial(textbook_adam_step, run.adam))
            for _ in range(2):
                train_mod._refresh_caches(run, seqs)
                train_epoch(run, seqs)
            runs.append(run)
        got, ref = runs
        for k, p in ref.model.params.items():
            assert got.model.params[k].tobytes() == p.tobytes(), k
            assert np.array_equal(got.adam.m[k], ref.adam.m[k]), k
            assert np.array_equal(got.adam.v[k], ref.adam.v[k]), k
        assert got.adam.t == ref.adam.t
        assert got.grad_norms == ref.grad_norms
        assert got.last_epoch_loss == ref.last_epoch_loss
        assert any(n > cfg.grad_clip for n in got.grad_norms)
