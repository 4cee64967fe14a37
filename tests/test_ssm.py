import math
from itertools import combinations, product

import numpy as np
import pytest
from oracles import feature_stream, list_hmm_streams, per_frame_acausal_stream

from phaseflow.core import DataValidationError, ExperimentConfig, UsageError, softmax
from phaseflow.model import hmm_smooth_posthoc
from phaseflow.ssm import (
    STREAM_CHUNK,
    CslAccumulator,
    GaborAccumulator,
    GaborBank,
    HmmFilterState,
    SsmExtractor,
    TransitionMatrix,
    acausal_feature_stream,
    estimate_transition_matrix,
    gabor_kernel,
)

CFG = ExperimentConfig()
CFG_BANK = GaborBank.build(CFG.gabor_num_scales, CFG.gabor_scale_min, CFG.gabor_scale_max)


def config_extractor(n, enabled=CFG.enabled_ssm_features, csl_levels=CFG.csl_levels):
    """An extractor of the default config's settings and the uniform matrix,
    as a model built without a transition matrix has."""
    return SsmExtractor(n, enabled, csl_levels, CFG_BANK, TransitionMatrix.uniform(n))


# ---------------------------------------------------------------------------
# oracles


def csl_recount(ms, n_phases, levels):
    """Brute-force prefix recount of the CSL counters."""
    counts = np.zeros((n_phases, len(levels) + 1), dtype=np.int64)
    for m in ms:
        for n in range(n_phases):
            for li, level in enumerate(levels):
                if m[n] >= level:
                    counts[n, li] += 1
        counts[int(np.argmax(m)), -1] += 1
    return counts


def hmm_path_sum(a, ms):
    """Exhaustive enumeration over all state paths (x_0 uniform, then A) of
    prior * emission weights; returns the normalized final-state marginal."""
    n = a.shape[0]
    T = len(ms)
    paths = np.array(list(product(range(n), repeat=T + 1)))
    w = np.full(len(paths), 1.0 / n)
    for s in range(1, T + 1):
        w = w * a[paths[:, s - 1], paths[:, s]] * np.asarray(ms[s - 1])[paths[:, s]]
    total = np.zeros(n)
    np.add.at(total, paths[:, T], w)
    return total / total.sum()


def gabor_batch_response(bank, ms):
    """Direct causal convolution of the full stream with each scale's kernel:
    response[t] is anchored at frame t with zero-padded history. Returns
    (T, N * num_scales), ordered like GaborAccumulator.feature()."""
    ms = np.asarray(ms, dtype=np.float64)
    T, n = ms.shape
    out = np.zeros((T, n * bank.num_scales))
    for k, sigma in enumerate(bank.scales):
        kr, ki = gabor_kernel(sigma)
        L = kr.shape[0]
        for t in range(T):
            re = np.zeros(n)
            im = np.zeros(n)
            for j in range(L):
                tt = t + j - (L - 1)
                if tt >= 0:
                    re += kr[j] * ms[tt]
                    im += ki[j] * ms[tt]
            out[t].reshape(n, bank.num_scales)[:, k] = np.hypot(re, im)
    return out


def random_prob_streams(rng, n_streams, t_max, n_max):
    for _ in range(n_streams):
        t = int(rng.integers(1, t_max + 1))
        n = int(rng.integers(2, n_max + 1))
        yield softmax(rng.standard_normal((t, n)) * 2.0)


# ---------------------------------------------------------------------------


class TestCsl:
    def test_empty_history_feature_is_zero(self):
        acc = CslAccumulator(3, CFG.csl_levels)
        assert np.array_equal(acc.feature(), np.zeros(12))

    def test_hand_enumerated_stream(self):
        acc = CslAccumulator(2, levels=(0.5,))
        for m in ([0.9, 0.1], [0.8, 0.2], [0.3, 0.7]):
            acc.update(np.array(m))
        # thresholds: phase0 crossed twice, phase1 once; argmax 0,0,1
        assert acc.counts[0, 0] == 2
        assert acc.counts[1, 0] == 1
        assert acc.counts[0, 1] == 2
        assert acc.counts[1, 1] == 1
        f = acc.feature()
        assert f[0] == pytest.approx(np.log(3))
        assert f[1] == pytest.approx(np.log(3))
        assert f[2] == pytest.approx(np.log(2))
        assert f[3] == pytest.approx(np.log(2))

    def test_uniform_stream_never_crosses_half(self):
        acc = CslAccumulator(4, levels=(0.5,))
        for _ in range(10):
            acc.update(np.full(4, 0.25))
        assert np.array_equal(acc.counts[:, 0], np.zeros(4))
        # argmax ties break to the lowest phase id
        assert acc.counts[0, 1] == 10
        assert np.array_equal(acc.counts[1:, 1], np.zeros(3))

    def test_matches_brute_force_recount_everywhere(self):
        rng = np.random.default_rng(0)
        for ms in random_prob_streams(rng, 100, 30, 5):
            n = ms.shape[1]
            levels = (0.25, 0.5, 0.75)
            acc = CslAccumulator(n, levels)
            prev = acc.feature()
            for t in range(ms.shape[0]):
                acc.update(ms[t])
                expected = np.log1p(csl_recount(ms[:t + 1], n, levels)).reshape(-1)
                got = acc.feature()
                assert np.array_equal(got, expected)
                assert (got >= prev).all(), "csl features must be nondecreasing"
                prev = got


class TestGaborBank:
    def test_kernel_l1_norm_is_one(self):
        bank = GaborBank.build(10, 10.0, 30.0)
        for k, sigma in enumerate(bank.scales):
            re, im = gabor_kernel(sigma)
            assert np.hypot(re, im).sum() == pytest.approx(1.0, abs=1e-9)
            # the bank holds each kernel right-aligned on lag 0, zero-padded
            pad = bank.width - re.shape[0]
            # real parts in rows 0..K-1, imaginary parts in rows K..2K-1
            real, imag = bank.kernels[k], bank.kernels[bank.num_scales + k]
            np.testing.assert_array_equal(real[pad:], re)
            np.testing.assert_array_equal(imag[pad:], im)
            assert not real[:pad].any()
            assert not imag[:pad].any()

    def test_ten_scales_linear_between_10_and_30(self):
        # the bank of the default config
        bank = CFG_BANK
        assert bank.num_scales == 10
        assert bank.scales[0] == 10.0
        assert bank.scales[-1] == 30.0
        np.testing.assert_allclose(np.diff(bank.scales), 20.0 / 9, rtol=1e-12)

    def test_causal_kernel_has_no_future_weight(self):
        re, im = gabor_kernel(10.0)
        # support is [-30, 0]: 31 taps ending at lag 0
        assert re.shape[0] == 31

    def test_delta_response_traces_kernel_magnitude(self):
        bank = GaborBank.build(2, 4.0, 6.0)
        acc = GaborAccumulator(3, bank)
        delta = np.zeros(3)
        delta[1] = 1.0
        acc.update(delta)
        for j in range(10):
            feat = acc.feature().reshape(3, 2)
            for k in range(2):
                re, im = gabor_kernel(bank.scales[k])
                L = re.shape[0]
                expected = np.hypot(re[L - 1 - j], im[L - 1 - j]) if j < L else 0.0
                assert feat[1, k] == pytest.approx(expected, abs=1e-12)
                assert feat[0, k] == 0.0 and feat[2, k] == 0.0
            acc.update(np.zeros(3))

    def test_constant_stream_matches_direct_summation(self):
        bank = GaborBank.build(3, 5.0, 9.0)
        acc = GaborAccumulator(2, bank)
        c = 0.37
        for _ in range(bank.width + 5):   # fill the ring past every support
            acc.update(np.array([c, c]))
        feat = acc.feature().reshape(2, 3)
        for k in range(3):
            re, im = gabor_kernel(bank.scales[k])
            expected = c * np.hypot(re.sum(), im.sum())
            assert feat[0, k] == pytest.approx(expected, rel=1e-9)

    def test_streaming_equals_batch_convolution(self):
        rng = np.random.default_rng(1)
        ms = softmax(rng.standard_normal((200, 4)) * 1.5)
        bank = GaborBank.build(10, 10.0, 30.0)
        acc = GaborAccumulator(4, bank)
        batch = gabor_batch_response(bank, ms)
        for t in range(200):
            acc.update(ms[t])
            np.testing.assert_allclose(acc.feature(), batch[t], atol=1e-6)


class TestTransitionMatrix:
    def test_hand_counted_estimate(self):
        tm = estimate_transition_matrix([[0, 0, 1, 1]], 2, smoothing=1e-9)
        np.testing.assert_allclose(tm.a, [[0.5, 0.5], [0.0, 1.0]], atol=1e-8)

    def test_rows_stochastic_and_positive(self):
        rng = np.random.default_rng(2)
        seqs = [rng.integers(0, 5, 50) for _ in range(10)]
        tm = estimate_transition_matrix(seqs, 5, smoothing=1e-3)
        np.testing.assert_allclose(tm.a.sum(axis=1), np.ones(5), atol=1e-9)
        assert (tm.a > 0).all()

    def test_uniform_labels_approach_uniform_rows(self):
        rng = np.random.default_rng(3)
        seqs = [rng.integers(0, 3, 20000) for _ in range(5)]
        tm = estimate_transition_matrix(seqs, 3, CFG.hmm_smoothing)
        np.testing.assert_allclose(tm.a, np.full((3, 3), 1 / 3), atol=0.05)

    def test_empty_input_rejected(self):
        with pytest.raises(DataValidationError):
            estimate_transition_matrix([], 3, CFG.hmm_smoothing)

    def test_constructor_keeps_a_stochastic_matrix_as_given(self):
        w = np.random.default_rng(4).random((4, 4)) + 0.1
        normalised = w / w.sum(axis=1, keepdims=True)
        assert np.array_equal(TransitionMatrix.from_weights(w).a, normalised)
        assert np.array_equal(TransitionMatrix(normalised).a, normalised)
        near = normalised.copy()
        near[:, 0] += 5e-10
        assert np.array_equal(TransitionMatrix(near).a, near)

    @pytest.mark.parametrize("shift", [2e-9, -2e-9])
    def test_rows_off_one_by_more_than_1e_9_rejected(self, shift):
        a = np.full((3, 3), 1 / 3)
        a[1, 2] += shift
        with pytest.raises(DataValidationError, match="rows must sum to 1 within 1e-9"):
            TransitionMatrix(a)

    def test_nonpositive_smoothing_rejected(self):
        with pytest.raises(UsageError):
            estimate_transition_matrix([[0, 1]], 2, smoothing=0.0)


class TestHmmFilter:
    def test_identity_transition_absorbs_one_hot(self):
        tm = TransitionMatrix.from_weights(np.eye(3) * (1 - 1e-12) + 1e-12 / 3)
        f = HmmFilterState(tm)
        onehot = np.array([0.0, 1.0, 0.0])
        for _ in range(5):
            f.update(onehot)
            assert f.belief[1] == pytest.approx(1.0, abs=1e-9)

    def test_hand_evaluated_recursion_step(self):
        tm = TransitionMatrix(np.array([[0.9, 0.1], [0.2, 0.8]]))
        f = HmmFilterState(tm)
        f.update(np.array([0.7, 0.3]))
        expected = np.array([0.55 * 0.7, 0.45 * 0.3])
        np.testing.assert_allclose(f.belief, expected / expected.sum(), atol=1e-12)

    def test_matches_exhaustive_path_sum(self):
        rng = np.random.default_rng(5)
        for trial in range(60):
            n = int(rng.integers(2, 5))
            t = int(rng.integers(1, 7))
            a = rng.random((n, n)) + 0.05
            tm = TransitionMatrix.from_weights(a)
            ms = softmax(rng.standard_normal((t, n)) * 1.5)
            (marg,) = HmmFilterState(tm).streams([ms])
            np.testing.assert_allclose(marg[-1], hmm_path_sum(tm.a, ms), atol=1e-9)

    def test_identity_reduces_to_cumulative_product(self):
        rng = np.random.default_rng(6)
        tm = TransitionMatrix.from_weights(np.eye(4) + 1e-15)
        for _ in range(10):
            ms = softmax(rng.standard_normal((10, 4)))
            (marg,) = HmmFilterState(tm).streams([ms])
            running = np.ones(4) / 4
            for t in range(10):
                running = running * ms[t]
                np.testing.assert_allclose(marg[t], running / running.sum(), atol=1e-9)

    def test_underflow_resets_uniform_and_counts(self):
        tm = TransitionMatrix(np.array([[0.9, 0.1], [0.2, 0.8]]))
        f = HmmFilterState(tm)
        f.update(np.array([0.5, 0.5]))
        f.update(np.zeros(2))
        assert f.underflow_count == 1
        np.testing.assert_array_equal(f.belief, [0.5, 0.5])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("lengths, zero_rows", [
        ((40,), {}), ((1, 7, 20, 3), {}), ((25,), {0: (4, 5, 24)}),
        ((3, 25, 9), {0: (0,), 1: (20, 21)})],
        ids=["one-stream", "ragged", "one-stream-underflows", "ragged-underflows"])
    def test_streams_are_bit_equal_to_the_list_based_filter(self, lengths, zero_rows,
                                                             dtype):
        rng = np.random.default_rng(8)
        tm = TransitionMatrix.from_weights(rng.random((4, 4)) + 0.05)
        streams = [softmax(rng.standard_normal((t, 4)) * 3.0).astype(dtype) for t in lengths]
        for j, rows in zero_rows.items():
            streams[j][list(rows)] = 0.0        # an all-zero row underflows
        want, underflows = list_hmm_streams(tm, streams)
        hmm = HmmFilterState(tm)
        got = list(hmm.streams(streams))
        assert hmm.underflow_count == underflows == sum(map(len, zero_rows.values()))
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.shape == w.shape and g.tobytes() == w.tobytes()
        if len(streams) == 1:
            assert np.array_equal(hmm_smooth_posthoc(streams[0], tm), np.argmax(want[0], axis=1))

    def test_feature_zero_before_first_update(self):
        f = HmmFilterState(TransitionMatrix.uniform(3))
        assert np.array_equal(f.feature(), np.zeros(3))
        f.update(np.array([0.2, 0.3, 0.5]))
        assert f.feature().sum() == pytest.approx(1.0)


class TestConcatDims:
    def test_csl_only_two_phases_one_level(self):
        ex = config_extractor(2, ("csl",), (0.5,))
        assert ex.dim == 4

    def test_all_features_seven_phases(self):
        ex = config_extractor(7)
        assert ex.dim == 7 * 4 + 7 * 10 + 7 == 105

    def test_empty_set_dim_zero(self):
        ex = config_extractor(5, ())
        assert ex.dim == 0
        assert ex.feature().shape == (0,)

    def test_order_is_csl_gabor_hmm(self):
        ex = config_extractor(2, ("hmm", "csl"), (0.5,))
        ex.update(np.array([0.9, 0.1]))
        feat = ex.feature()
        # csl block first (dim 4), hmm belief last (dim 2)
        assert feat.shape == (6,)
        assert feat[:4].max() == pytest.approx(np.log(2))
        assert feat[4:].sum() == pytest.approx(1.0)


class TestStreamHelpers:
    def test_stream_row_zero_is_zero(self):
        rng = np.random.default_rng(7)
        ms = softmax(rng.standard_normal((12, 3)))
        ex = config_extractor(3, ("csl", "hmm"))
        rows = feature_stream(ex, ms)
        assert np.array_equal(rows[0], np.zeros(ex.dim))

    def test_streaming_equals_batch_prefix_recompute(self):
        rng = np.random.default_rng(8)
        ms = softmax(rng.standard_normal((40, 3)))
        ex = config_extractor(3)
        rows = feature_stream(ex, ms)
        for t in range(40):
            fresh = config_extractor(3)
            for k in range(t):
                fresh.update(ms[k])
            np.testing.assert_allclose(rows[t], fresh.feature(), atol=1e-6)

    def test_acausal_last_row_zero(self):
        rng = np.random.default_rng(9)
        ms = softmax(rng.standard_normal((15, 3)))
        ex = config_extractor(3, ("csl",))
        rows = acausal_feature_stream(ex, ms)
        assert np.array_equal(rows[-1], np.zeros(ex.dim))

    def test_palindrome_mirrors_causal(self):
        rng = np.random.default_rng(10)
        half = softmax(rng.standard_normal((6, 3)))
        ms = np.concatenate([half, half[::-1]])          # palindrome, T=12
        ex = config_extractor(3, ("csl",))
        causal = feature_stream(ex, ms)
        acausal = acausal_feature_stream(config_extractor(3, ("csl",)), ms)
        T = ms.shape[0]
        for t in range(T):
            np.testing.assert_allclose(acausal[t], causal[T - 1 - t], atol=1e-12)

    def test_acausal_equals_direct_future_recompute(self):
        rng = np.random.default_rng(11)
        ms = softmax(rng.standard_normal((25, 3)))
        rows = acausal_feature_stream(config_extractor(3), ms)
        T = ms.shape[0]
        for t in range(T):
            fresh = config_extractor(3)
            for k in range(T - 1, t, -1):
                fresh.update(ms[k])
            np.testing.assert_allclose(rows[t], fresh.feature(), atol=1e-12)

    def test_acausal_requires_complete_stream(self):
        with pytest.raises(UsageError):
            acausal_feature_stream(config_extractor(3), np.zeros(3))


KINDS = ("csl", "gabor", "hmm")


class TestClosedForm:
    """`SsmExtractor.acausal_rows` over a batch of complete streams against the
    frame-by-frame oracle, one fresh extractor per stream, with lengths
    around the Gabor window width and past one Gabor product. The closed forms
    and the batched HMM filter sum in another order than the per-frame
    aggregators, so float64 rows agree to a tolerance fixed beforehand."""

    ATOL = 1e-12                        # float64

    def setup_method(self):
        rng = np.random.default_rng(13)
        self.n = 3
        self.bank = GaborBank.build(3, 3.0, 6.0)
        self.tm = TransitionMatrix.from_weights(rng.random((3, 3)) + 0.1)
        w = self.bank.width
        self.streams = [softmax(rng.standard_normal((t, self.n)) * 2.0)
                        for t in (w + 1, 1, 3 * w, w - 1, 2, w, STREAM_CHUNK + 1)]

    def extractor(self, kinds):
        return SsmExtractor(self.n, kinds, CFG.csl_levels, self.bank, self.tm)

    @pytest.mark.parametrize("kinds", [k for r in range(4) for k in combinations(KINDS, r)],
                             ids=lambda k: "|".join(k) or "none")
    def test_batch_matches_per_frame_oracle(self, kinds):
        rows = self.extractor(kinds).acausal_rows(self.streams)
        rows32 = self.extractor(kinds).acausal_rows(self.streams, np.float32)
        for ms, got, got32 in zip(self.streams, rows, rows32):
            want = per_frame_acausal_stream(self.extractor(kinds), ms)
            assert got.shape == want.shape == (len(ms), self.extractor(kinds).dim)
            assert got.dtype == np.float64 and got32.dtype == np.float32
            np.testing.assert_allclose(got, want, rtol=0, atol=self.ATOL)
            assert np.array_equal(got32, got.astype(np.float32))
            np.testing.assert_allclose(acausal_feature_stream(self.extractor(kinds), ms),
                                       want, rtol=0, atol=self.ATOL)

    def test_batch_underflows_equal_per_stream_sum(self):
        self.streams[0][[2, 5]] = 0.0           # two underflows in one stream
        self.streams[2][-1] = 0.0               # one at the start of the reversed stream
        batch = self.extractor(KINDS)
        batch.acausal_rows(self.streams)
        singles = [self.extractor(KINDS) for _ in self.streams]
        for ex, ms in zip(singles, self.streams):
            per_frame_acausal_stream(ex, ms)
        assert batch.underflow_count == sum(s.underflow_count for s in singles) == 3
        hmm = HmmFilterState(self.tm)
        list(hmm.streams(self.streams))
        assert hmm.underflow_count == 3

    def per_stream_marginals(self, ms):
        """Filtered posteriors of one stream stepped frame by frame, and
        its underflow count."""
        f = HmmFilterState(self.tm)
        want = []
        for m in ms:
            f.update(m)
            want.append(f.belief)
        return np.array(want), f.underflow_count

    def test_marginals_of_each_stream_in_input_order(self):
        hmm = HmmFilterState(self.tm)
        marg = list(hmm.streams(self.streams))
        assert hmm.underflow_count == 0
        for ms, got in zip(self.streams, marg):
            want, _ = self.per_stream_marginals(ms)
            np.testing.assert_allclose(got, want, rtol=0, atol=self.ATOL)

    def test_underflow_after_every_other_stream_ended(self):
        lengths = sorted(map(len, self.streams))
        longest = max(self.streams, key=len)
        longest[-3:-1] = 0.0                    # two underflows, both after
        assert len(longest) - 3 >= lengths[-2]  # every other stream's end
        hmm = HmmFilterState(self.tm)
        marg = list(hmm.streams(self.streams))
        singles = [self.per_stream_marginals(ms) for ms in self.streams]
        for got, (want, _) in zip(marg, singles):
            np.testing.assert_allclose(got, want, rtol=0, atol=self.ATOL)
        assert hmm.underflow_count == sum(n for _, n in singles) == 2

    def test_no_streams_give_no_rows(self):
        assert self.extractor(KINDS).acausal_rows([]) == []


class TestBatched:
    """B streams in one extractor (leading batch axis) against B unbatched
    extractors fed the same rows."""

    def setup_method(self):
        rng = np.random.default_rng(12)
        self.n = 3
        self.bank = GaborBank.build(3, 3.0, 6.0)
        self.tm = TransitionMatrix.from_weights(rng.random((3, 3)) + 0.1)
        self.rng = rng

    def extractor(self, batch=None):
        return SsmExtractor(self.n, KINDS, CFG.csl_levels, self.bank, self.tm, batch)

    def frames(self, t, b):
        return softmax(self.rng.standard_normal((t, b, self.n)) * 2.0)

    def test_lockstep_matches_per_stream(self):
        B, T = 4, 60
        ms = self.frames(T, B)
        ms[[5, 20, 21], [1, 3, 1]] = 0.0        # underflows in streams 1 and 3
        batched = self.extractor(B)
        singles = [self.extractor() for _ in range(B)]
        for t in range(T):
            feat = batched.feature()
            assert feat.shape == (B, batched.dim)
            for b in range(B):
                np.testing.assert_allclose(feat[b], singles[b].feature(), atol=1e-12)
            batched.update(ms[t])
            for b in range(B):
                singles[b].update(ms[t, b])
        assert batched.underflow_count == sum(s.underflow_count for s in singles) == 3

    def test_take_and_put_carry_state_and_underflows(self):
        store = self.extractor(4)
        singles = [self.extractor() for _ in range(4)]
        for rows in ([0, 2], [1, 3, 0], [2], [3, 1], [0, 1, 2, 3]):
            part = store.take(np.array(rows))
            ms = self.frames(7, len(rows))
            ms[3, 0] = 0.0                          # one underflow per window
            for m in ms:
                feat = part.feature()
                for i, r in enumerate(rows):
                    np.testing.assert_allclose(feat[i], singles[r].feature(), atol=1e-12)
                part.update(m)
                for i, r in enumerate(rows):
                    singles[r].update(m[i])
            store.put(np.array(rows), part)
        assert store.underflow_count == sum(s.underflow_count for s in singles) == 5

    def step_alongside(self, batched, rows, singles, n_frames):
        """Step `batched`, whose row i is stream rows[i], and those singles
        over the same frames, comparing every row before each frame and
        after the last."""
        for m in self.frames(n_frames, len(rows)):
            self.assert_rows_match(batched, rows, singles)
            batched.update(m)
            for i, r in enumerate(rows):
                singles[r].update(m[i])
        self.assert_rows_match(batched, rows, singles)

    def assert_rows_match(self, batched, rows, singles):
        feat = batched.feature()
        for i, r in enumerate(rows):
            np.testing.assert_allclose(feat[i], singles[r].feature(), atol=1e-12)

    def test_put_after_the_gabor_ring_relocated(self):
        # each part steps past width + 1 frames, so its ring window has
        # moved back to the top of its buffer when `put` reads it
        store = self.extractor(4)
        singles = [self.extractor() for _ in range(4)]
        n_frames = 2 * self.bank.width + 5
        for rows in ([2, 0], [0, 1, 3], [3, 2]):
            part = store.take(np.array(rows))
            self.step_alongside(part, rows, singles, n_frames)
            assert part._parts[1].pos < n_frames
            store.put(np.array(rows), part)
        self.assert_rows_match(store, range(4), singles)
        self.step_alongside(store, range(4), singles, 3)

    def test_take_after_the_gabor_ring_relocated(self):
        # the shrink of the lockstep engine: rows taken out of an extractor
        # whose ring window sits partway down its buffer
        store = self.extractor(4)
        singles = [self.extractor() for _ in range(4)]
        n_frames = self.bank.width + 8
        self.step_alongside(store, range(4), singles, n_frames)
        assert 0 < store._parts[1].pos < n_frames
        for rows in ([0, 1, 2], [3]):
            self.step_alongside(store.take(np.array(rows)), rows, singles, 5)


class TestProtocol:
    """The members every aggregator shares (`lead`, `shape`, `dim`, `slot`,
    `feature`) and the bound writes of the step kernel, for each aggregator
    and the extractor, one stream and three."""

    N = 3
    BANK = GaborBank.build(3, 3.0, 6.0)

    def aggregator(self, kind, batch):
        tm = TransitionMatrix.from_weights(np.random.default_rng(13).random((3, 3)) + 0.1)
        if kind == "csl":
            return CslAccumulator(self.N, (0.3, 0.6), batch)
        if kind == "gabor":
            return GaborAccumulator(self.N, self.BANK, batch)
        if kind == "hmm":
            return HmmFilterState(tm, batch)
        return SsmExtractor(self.N, KINDS, (0.3, 0.6), self.BANK, tm, batch)

    @pytest.mark.parametrize("batch", [None, 3], ids=["one", "three"])
    @pytest.mark.parametrize("kind", ["csl", "gabor", "hmm", "extractor"])
    def test_bound_writes_fill_the_statistic_columns(self, kind, batch):
        lead = () if batch is None else (batch,)
        agg = self.aggregator(kind, batch)
        rng = np.random.default_rng(14)
        for m in softmax(rng.standard_normal((5,) + lead + (self.N,)) * 2.0):
            agg.update(m)
        assert agg.lead == lead
        assert agg.dim == math.prod(agg.shape)
        feat = agg.feature()
        assert feat.dtype == np.float64 and feat.shape == lead + (agg.dim,)
        # the statistic columns of a float32 (W, B, D) row block sit between
        # other columns, so every view of them is strided
        block = np.zeros((4,) + lead + (agg.dim + 5,), np.float32)
        cols = slice(2, 2 + agg.dim)
        pairs = (agg.bind(block[..., cols]) if kind == "extractor"
                 else [(agg.write, agg.slot(block[..., cols]))])
        for write, slot in pairs:
            assert np.shares_memory(slot, block)
            write(slot[1])
        assert np.array_equal(block[1, ..., cols], feat.astype(np.float32))
        block[1, ..., cols] = 0.0
        assert not block.any()
