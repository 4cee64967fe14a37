import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import (finite_difference_grads, new_grads, per_frame_window_backward,
                     textbook_adam_step, window_pass)
from phaseflow import nn
from phaseflow.core import DataValidationError, NumericError, softmax

# ---------------------------------------------------------------------------
# independent straight-line references (kept deliberately naive)


def ref_sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def ref_lstm_step(params, h, c, x):
    """Element-by-element reference of the four gate formulas in float64."""
    H = params["lstm_wh"].shape[0]
    wx = params["lstm_wx"].astype(np.float64)
    wh = params["lstm_wh"].astype(np.float64)
    b = params["lstm_b"].astype(np.float64)
    h = h.astype(np.float64)
    c = c.astype(np.float64)
    x = x.astype(np.float64)
    h_new = np.zeros(H)
    c_new = np.zeros(H)
    for j in range(H):
        zi = b[j] + sum(x[k] * wx[k, j] for k in range(len(x))) \
            + sum(h[k] * wh[k, j] for k in range(H))
        zf = b[H + j] + sum(x[k] * wx[k, H + j] for k in range(len(x))) \
            + sum(h[k] * wh[k, H + j] for k in range(H))
        zg = b[2 * H + j] + sum(x[k] * wx[k, 2 * H + j] for k in range(len(x))) \
            + sum(h[k] * wh[k, 2 * H + j] for k in range(H))
        zo = b[3 * H + j] + sum(x[k] * wx[k, 3 * H + j] for k in range(len(x))) \
            + sum(h[k] * wh[k, 3 * H + j] for k in range(H))
        i_g = ref_sigmoid(zi)
        f_g = ref_sigmoid(zf)
        g_g = np.tanh(zg)
        o_g = ref_sigmoid(zo)
        c_new[j] = f_g * c[j] + i_g * g_g
        h_new[j] = o_g * np.tanh(c_new[j])
    return h_new, c_new


def rel_error(a, b):
    na = np.linalg.norm(a.reshape(-1))
    nb = np.linalg.norm(b.reshape(-1))
    return np.linalg.norm((a - b).reshape(-1)) / max(na, nb, 1e-12)


def make_params(input_dim, hidden, n_phases, seed=0, dtype=np.float64):
    rng = np.random.default_rng(seed)
    params = nn.init_params(input_dim, hidden, n_phases, rng, dtype=dtype)
    # nonzero head bias / richer weights make gradient checks harder to pass by luck
    params["head_b"] = rng.standard_normal(n_phases).astype(dtype) * 0.3
    return params


def adam_step(opt, grads, step=nn.Adam.step):
    """Write `grads` into the optimizer's gradient buffer and `step` it."""
    for k, g in grads.items():
        opt.grads[k][...] = g
    step(opt)


# ---------------------------------------------------------------------------


class TestLstmStep:
    def test_zero_params_zero_state_gives_zero_output(self):
        H = 4
        params = {
            "lstm_wx": np.zeros((3, 4 * H), np.float32),
            "lstm_wh": np.zeros((H, 4 * H), np.float32),
            "lstm_b": np.zeros(4 * H, np.float32),
            "head_w": np.zeros((H, 2), np.float32),
            "head_b": np.zeros(2, np.float32),
        }
        h, c = np.zeros((2, H), np.float32)
        for x in (np.zeros(3, np.float32), np.ones(3, np.float32) * 9.0):
            h2, c2 = nn.lstm_step(params, h, c, x)
            assert np.array_equal(h2, np.zeros(H))
            assert np.array_equal(c2, np.zeros(H))

    def test_matches_straight_line_reference(self):
        params = make_params(3, 2, 2, seed=5)
        rng = np.random.default_rng(11)
        h = rng.standard_normal(2)
        c = rng.standard_normal(2)
        x = rng.standard_normal(3)
        h2, c2 = nn.lstm_step(params, h, c, x)
        hr, cr = ref_lstm_step(params, h, c, x)
        np.testing.assert_allclose(h2, hr, rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(c2, cr, rtol=1e-12, atol=1e-14)

    def test_saturated_gates_copy_cell_state(self):
        H = 3
        params = {
            "lstm_wx": np.zeros((2, 4 * H)),
            "lstm_wh": np.zeros((H, 4 * H)),
            "lstm_b": np.zeros(4 * H),
            "head_w": np.zeros((H, 2)),
            "head_b": np.zeros(2),
        }
        params["lstm_b"][H:2 * H] = 50.0     # forget ~ 1
        params["lstm_b"][:H] = -50.0         # input ~ 0
        c = np.array([0.3, -0.7, 0.05])
        h = np.array([0.1, 0.2, -0.3])
        _, c2 = nn.lstm_step(params, h, c, np.array([1.0, -2.0]))
        np.testing.assert_allclose(c2, c, atol=1e-6)

    def test_dimension_mismatch(self):
        params = make_params(3, 2, 2)
        h, c = np.zeros((2, 2))
        with pytest.raises(DataValidationError, match="dimension mismatch"):
            nn.lstm_step(params, h, c, np.zeros(4))


class TestHead:
    def test_zero_weights_gives_bias(self):
        params = make_params(4, 3, 5)
        params["head_w"][:] = 0.0
        h = np.ones(3)
        np.testing.assert_array_equal(nn.head_forward(params, h), params["head_b"])

    def test_equal_logits_uniform_softmax(self):
        p = softmax(np.full(6, 2.5))
        np.testing.assert_allclose(p, np.full(6, 1 / 6), atol=1e-12)

    def test_matches_reference(self):
        params = make_params(3, 4, 3, seed=2)
        rng = np.random.default_rng(3)
        h = rng.standard_normal(4)
        expected = np.array([
            params["head_b"][j] + sum(h[k] * params["head_w"][k, j] for k in range(4))
            for j in range(3)
        ])
        np.testing.assert_allclose(nn.head_forward(params, h), expected, rtol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
    @pytest.mark.parametrize("lead", [(), (5,)], ids=["one", "batch"])
    def test_out_row_equals_the_allocating_call(self, dtype, lead):
        params = make_params(3, 4, 6, seed=4, dtype=dtype)
        h = np.random.default_rng(5).standard_normal(lead + (4,)).astype(dtype)
        out = np.full(lead + (6,), np.nan, dtype)
        got = nn.head_forward(params, h, out)
        assert got is out
        assert np.array_equal(out, nn.head_forward(params, h))


@settings(max_examples=40)
@given(width=st.integers(1, 1000), tail=st.integers(1, 1000), n_rows=st.integers(1, 5),
       tail_from=st.none() | st.integers(0, 5), seed=st.integers(0, 2 ** 16))
@example(width=1000, tail=900, n_rows=4, tail_from=2, seed=0)
@example(width=518, tail=323, n_rows=1, tail_from=0, seed=1)
def test_block_product_is_one_product_to_float32_rounding(width, tail, n_rows, tail_from,
                                                          seed):
    # columns from `tail` on count on the rows from `tail_from` on only: the
    # others hold NaN there, which a block product that read them would show
    tail, tail_from = min(tail, width), None if tail_from is None else min(tail_from, n_rows)
    blocks = nn.input_blocks(width, tail, tail_from)
    assert all(cols.stop - cols.start <= nn.BLOCK_COLS for _, cols in blocks)
    assert blocks[0][1].start == 0 and all(
        a.stop == b.start for (_, a), (_, b) in zip(blocks, blocks[1:]))
    params = make_params(width, 2, 3, seed=seed, dtype=np.float32)
    params["lstm_b"][:] = 0.0
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((1, n_rows, width)).astype(np.float32)
    read = x.astype(np.float64)
    unread = slice(None) if tail_from is None else slice(0, tail_from)
    x[0, unread, tail:] = np.nan
    read[0, unread, tail:] = 0.0
    h, c = np.zeros((2, n_rows, 2), np.float32)
    rec = nn.WindowRecorder(params, x, h, c, tail, tail_from)
    rec.step(0)
    z = read[0] @ params["lstm_wx"].astype(np.float64)
    bound = width * np.finfo(np.float32).eps * (np.abs(read[0]) @ np.abs(params["lstm_wx"]))
    # the sigmoid's slope is at most 1/4
    assert (np.abs(rec.act[0] - 1.0 / (1.0 + np.exp(-z))) <= bound / 4 + 1e-6).all()


@pytest.mark.parametrize("lead", [(), (3,)], ids=["one", "batch"])
def test_recorder_logits_rows_outlive_later_steps(lead):
    # each step fills its own logits row, so a caller may keep what step(k)
    # returned while the window runs on (`oracles.window_pass` stacks them)
    params = make_params(2, 3, 4, seed=6, dtype=np.float32)
    rng = np.random.default_rng(7)
    xs = rng.standard_normal((5,) + lead + (2,)).astype(np.float32)
    h, c = np.zeros((2,) + lead + (3,), np.float32)
    rec = nn.WindowRecorder(params, xs, h, c)
    kept, at_return = [], []
    for k in range(rec.n_frames):
        kept.append(rec.step(k))
        at_return.append(kept[-1].copy())
    for k, (logits, then) in enumerate(zip(kept, at_return)):
        assert np.array_equal(logits, then)
        assert np.array_equal(logits, nn.head_forward(params, rec.hs[k + 1]))


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
@pytest.mark.parametrize("lead", [(), (3,)], ids=["one", "batch"])
def test_a_frame_reads_and_writes_the_state_rows_it_names(dtype, lead):
    # frame(0, 1, 0) is frames[0] on the swapped state rows: it reads row 1,
    # writes row 0 and the same gate, candidate and logits rows
    params = make_params(5, 3, 4, seed=8, dtype=dtype)
    rng = np.random.default_rng(9)
    xs = rng.standard_normal((1,) + lead + (5,)).astype(dtype)
    h, c = rng.standard_normal((2,) + lead + (3,)).astype(dtype)
    nan = np.full_like(h, np.nan)
    rec = nn.WindowRecorder(params, xs, nan, nan, 3, 0)
    rec.hs[1], rec.cs[1] = h, c
    args, logits = rec.frame(0, 1, 0)
    rec.cell(*args)
    got = nn.head_forward(params, args[-2], logits)
    ref = nn.WindowRecorder(params, xs, h, c, 3, 0)
    want = ref.step(0)
    assert np.array_equal(rec.hs[1], h) and np.array_equal(rec.cs[1], c)
    assert np.array_equal(rec.hs[0], ref.hs[1]) and np.array_equal(rec.cs[0], ref.cs[1])
    for name in ("act", "g", "tanh_c", "logits"):
        assert np.array_equal(getattr(rec, name), getattr(ref, name))
    assert got is logits and np.array_equal(got, want)


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
@pytest.mark.parametrize("lead", [(), (3,)], ids=["one", "batch"])
def test_lstm_step_is_frame_0_of_a_recorder(dtype, lead):
    params = make_params(4, 3, 2, seed=10, dtype=dtype)
    rng = np.random.default_rng(11)
    x = rng.standard_normal(lead + (4,)).astype(dtype)
    h, c = rng.standard_normal((2,) + lead + (3,)).astype(dtype)
    rec = nn.WindowRecorder(params, x[None], h, c)
    rec.step(0)
    h_new, c_new = nn.lstm_step(params, h, c, x)
    assert h_new.dtype == c_new.dtype == dtype
    assert np.array_equal(h_new, rec.hs[1]) and np.array_equal(c_new, rec.cs[1])


def cross_entropy(m, y):
    """The window loss of a one-frame window without the proximal term."""
    loss, _ = nn.window_loss_and_dlogits(np.asarray(m)[None], [y])
    return loss


class TestCrossEntropy:
    def test_perfect_prediction_zero_loss(self):
        assert cross_entropy(np.array([0.0, 1.0]), 1) == 0.0

    def test_uniform_is_log_n(self):
        m = np.full(4, 0.25)
        assert cross_entropy(m, 2) == pytest.approx(np.log(4), rel=1e-12)

    def test_direct_formula(self):
        m = np.array([0.7, 0.3])
        assert cross_entropy(m, 1) == pytest.approx(np.log(1 / 0.3), rel=1e-12)

    def test_floor_clamps(self):
        m = np.array([1.0, 0.0])
        assert cross_entropy(m, 1) == pytest.approx(-np.log(1e-12))

    def test_label_out_of_range(self):
        with pytest.raises(DataValidationError):
            cross_entropy(np.array([0.5, 0.5]), 2)


# ---------------------------------------------------------------------------
# gradient checks: analytic BPTT vs central finite differences (64-bit)


def window_loss_fn(xs, ys, prox, lam):
    def fn(params):
        H = params["lstm_wh"].shape[0]
        h, c = np.zeros((2, H))
        loss, _ = window_pass(params, h, c, xs, ys, prox, lam)
        return loss
    return fn


def run_gradient_check(H, D, N, T, seed, lam=0.0):
    rng = np.random.default_rng(seed)
    params = make_params(D, H, N, seed=seed)
    xs = [rng.standard_normal(D) for _ in range(T)]
    ys = rng.integers(0, N, T)
    prox = softmax(rng.standard_normal((T, N))) if lam > 0 else None
    h, c = np.zeros((2, H))
    _, analytic = window_pass(params, h, c, xs, ys, prox, lam)
    fd = finite_difference_grads(window_loss_fn(xs, ys, prox, lam), params,
                                 step=1e-5)
    worst = max(rel_error(analytic[k], fd[k]) for k in params)
    return worst


class TestBackward:
    @pytest.mark.parametrize("H,D,N,T", [
        (2, 2, 2, 1), (2, 3, 3, 4), (4, 2, 2, 8), (4, 3, 3, 8), (2, 2, 3, 4),
    ])
    def test_gradient_check_spec_grid(self, H, D, N, T):
        assert run_gradient_check(H, D, N, T, seed=H * 100 + D * 10 + N + T) < 1e-4

    def test_gradient_check_with_proximal_term(self):
        assert run_gradient_check(3, 2, 3, 6, seed=42, lam=0.1) < 1e-4

    def test_gradients_do_not_depend_on_future_labels_only_past_structure(self):
        # sanity: gradient of a 1-frame window only involves that frame
        worst = run_gradient_check(2, 2, 2, 1, seed=9)
        assert worst < 1e-4

    @pytest.mark.parametrize("hidden", [64, 130])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
    @pytest.mark.parametrize("acausal", [False, True], ids=["causal", "acausal"])
    @pytest.mark.parametrize("rows", [None, 1, 3, 32], ids=["one", "b1", "b3", "b32"])
    def test_bit_equal_to_the_per_frame_oracle(self, rows, acausal, dtype, hidden):
        # only elementwise factors and the stacked head product leave the
        # frame loop; at 130 hidden units dz @ wh.T is two column blocks.
        # The acausal tail is read by the second half of the rows
        D, N, W = 40, 7, 8
        rng = np.random.default_rng(hidden + (rows or 0))
        params = nn.init_params(D, hidden, N, rng, dtype)
        opt = nn.Adam(params, 0.01)
        lead = () if rows is None else (rows,)
        xs = rng.standard_normal((W,) + lead + (D,)).astype(dtype)
        h, c = (rng.standard_normal(lead + (hidden,)).astype(dtype) for _ in range(2))
        tail_from = (rows or 0) // 2 if acausal else None
        rec = nn.WindowRecorder(params, xs, h, c, 30 if acausal else None, tail_from)
        for k in range(W):
            rec.step(k)
        dlogits = rng.standard_normal((W,) + lead + (N,)).astype(dtype)
        dlogits[W - 3:, ...] = 0.0          # frames past a row's window end
        expected = per_frame_window_backward(params, rec, dlogits)
        # twice into Adam's views, then into new arrays: the buffers are reused
        for out in (opt.grads, opt.grads, new_grads(params, rec)):
            got = nn.window_backward(params, rec, dlogits, out)
            assert got is out
            for k, e in expected.items():
                assert got[k].dtype == e.dtype == dtype
                assert np.array_equal(got[k], e), k


class TestAdam:
    def test_zero_gradient_leaves_params_unchanged(self):
        params = make_params(2, 2, 2, dtype=np.float32)
        before = {k: v.copy() for k, v in params.items()}
        opt = nn.Adam(params, lr=0.1)
        adam_step(opt, {k: np.zeros_like(v) for k, v in params.items()})
        for k in params:
            np.testing.assert_array_equal(params[k], before[k])

    def test_first_step_closed_form(self):
        params = {"w": np.array([1.0, -2.0, 0.5])}
        g = np.array([0.3, -0.1, 2.0])
        opt = nn.Adam(params, lr=0.01)
        adam_step(opt, {"w": g})
        # bias-corrected first step: m_hat = g, v_hat = g^2
        expected = np.array([1.0, -2.0, 0.5]) - 0.01 * g / (np.abs(g) + 1e-8)
        np.testing.assert_allclose(params["w"], expected, rtol=1e-12)

    def test_two_steps_constant_gradient_closed_form(self):
        lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
        params = {"w": np.array([0.7])}
        g = np.array([0.4])
        opt = nn.Adam(params, lr=lr)
        adam_step(opt, {"w": g.copy()})
        adam_step(opt, {"w": g.copy()})
        w = 0.7
        m = v = 0.0
        for t in (1, 2):
            m = b1 * m + (1 - b1) * g[0]
            v = b2 * v + (1 - b2) * g[0] ** 2
            w -= lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)
        np.testing.assert_allclose(params["w"], [w], rtol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_in_place_step_bit_equal_to_textbook_formula(self, dtype):
        params = make_params(3, 4, 2, dtype=dtype)
        ref_params = {k: v.copy() for k, v in params.items()}
        opt, ref = nn.Adam(params, lr=0.01), nn.Adam(ref_params, lr=0.01)
        rng = np.random.default_rng(4)
        for _ in range(5):
            grads = {k: rng.standard_normal(v.shape).astype(dtype)
                     for k, v in params.items()}
            adam_step(opt, grads)
            adam_step(ref, grads, textbook_adam_step)
            for k in params:
                assert params[k].dtype == opt.m[k].dtype == opt.v[k].dtype == dtype
                assert np.array_equal(params[k], ref_params[k]), k
                assert np.array_equal(opt.m[k], ref.m[k]), k
                assert np.array_equal(opt.v[k], ref.v[k]), k

    def test_blocks_become_views_of_one_vector(self):
        params = make_params(3, 4, 2, dtype=np.float32)
        before = {k: v.copy() for k, v in params.items()}
        opt = nn.Adam(params, lr=0.01)
        for k, v in params.items():
            assert v is opt.params[k] and np.shares_memory(v, opt.params.flat), k
            assert np.array_equal(v, before[k]), k
            for moments in (opt.m, opt.v, opt.grads):
                assert moments[k].shape == v.shape and moments[k].dtype == v.dtype

    def test_nonfinite_gradient_moves_nothing(self):
        # the check comes before any block, moment or the step count moves;
        # lstm_wh is the second block, so a check per block would have
        # stepped lstm_wx
        params = make_params(3, 4, 2, dtype=np.float32)
        opt = nn.Adam(params, lr=0.01)
        rng = np.random.default_rng(5)
        for _ in range(2):
            adam_step(opt, {k: rng.standard_normal(v.shape).astype(np.float32)
                            for k, v in params.items()})
        before = [{k: v.copy() for k, v in d.items()} for d in (params, opt.m, opt.v)]
        grads = {k: rng.standard_normal(v.shape).astype(np.float32)
                 for k, v in params.items()}
        grads["lstm_wh"][1, 2] = np.nan
        grads["head_b"][0] = -np.inf
        with pytest.raises(NumericError, match="'lstm_wh'"):
            adam_step(opt, grads)
        assert opt.t == 2
        for now, then in zip((params, opt.m, opt.v), before):
            for k in then:
                assert np.array_equal(now[k], then[k]), k

    def test_nonfinite_gradient_names_block(self):
        params = make_params(2, 2, 2, dtype=np.float32)
        opt = nn.Adam(params, lr=0.01)
        grads = {k: np.zeros_like(v) for k, v in params.items()}
        grads["lstm_wh"][0, 0] = np.nan
        with pytest.raises(NumericError, match="lstm_wh"):
            adam_step(opt, grads)


class TestTrainingDynamics:
    def _separable_batch(self, rng, n=64):
        # phase = sign of the first embedding coordinate
        xs = rng.standard_normal((n, 2))
        xs[:, 0] = np.where(rng.random(n) < 0.5, 1.5, -1.5) + 0.1 * xs[:, 0]
        ys = (xs[:, 0] < 0).astype(int)
        return xs, ys

    def _batch_loss_and_grads(self, params, xs, ys):
        total = {k: np.zeros_like(v) for k, v in params.items()}
        loss_sum = 0.0
        H = params["lstm_wh"].shape[0]
        for x, y in zip(xs, ys):
            h, c = np.zeros((2, H))
            loss, grads = window_pass(params, h, c, [x], [y])
            loss_sum += loss
            for k in total:
                total[k] += grads[k]
        for k in total:
            total[k] /= len(xs)
        return loss_sum / len(xs), total

    def test_loss_decreases_over_five_adam_steps(self):
        rng = np.random.default_rng(0)
        params = make_params(2, 4, 2, seed=1)
        xs, ys = self._separable_batch(rng)
        opt = nn.Adam(params, lr=1e-3)
        first, _ = self._batch_loss_and_grads(params, xs, ys)
        for _ in range(5):
            _, grads = self._batch_loss_and_grads(params, xs, ys)
            adam_step(opt, grads)
        final, _ = self._batch_loss_and_grads(params, xs, ys)
        assert final < first

    def test_determinism_bit_identical_after_k_updates(self):
        def run():
            rng = np.random.default_rng(123)
            params = nn.init_params(3, 4, 2, rng, dtype=np.float32)
            opt = nn.Adam(params, lr=0.01)
            data_rng = np.random.default_rng(7)
            for _ in range(10):
                h, c = np.zeros((2, 4), np.float32)
                xs = [data_rng.standard_normal(3).astype(np.float32) for _ in range(4)]
                ys = data_rng.integers(0, 2, 4)
                _, grads = window_pass(params, h, c, xs, ys)
                adam_step(opt, grads)
            return params
        p1, p2 = run(), run()
        for k in p1:
            assert np.array_equal(p1[k], p2[k])


class TestGradClip:
    def test_clips_to_max_norm(self):
        grads = nn.FlatBlocks(np.array([3.0, 4.0]), {"a": (2,)})
        norm = nn.clip_global_norm(grads, 2.5)
        assert norm == pytest.approx(5.0)
        assert np.linalg.norm(grads["a"]) == pytest.approx(2.5)

    def test_no_clip_below_threshold(self):
        grads = nn.FlatBlocks(np.array([0.3, 0.4]), {"a": (2,)})
        nn.clip_global_norm(grads, 5.0)
        np.testing.assert_array_equal(grads["a"], [0.3, 0.4])


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        params = make_params(5, 3, 4, seed=8, dtype=np.float32)
        extra = {"note": "x", "n": 3}
        path = tmp_path / "model.ckpt"
        nn.save_checkpoint(path, params, extra)
        loaded, extra2 = nn.load_checkpoint(path)
        assert extra2 == extra
        assert set(loaded) == set(params)
        for k in params:
            np.testing.assert_array_equal(loaded[k], params[k])

    def test_magic_is_phck(self, tmp_path):
        path = tmp_path / "model.ckpt"
        nn.save_checkpoint(path, {"w": np.zeros(2, np.float32)}, {})
        assert path.read_bytes()[:4] == b"PHCK"

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(DataValidationError, match="magic"):
            nn.load_checkpoint(path)

    def test_failed_write_keeps_previous_file(self, tmp_path):
        path = tmp_path / "best.ckpt"
        params = make_params(5, 3, 4, seed=8, dtype=np.float32)
        nn.save_checkpoint(path, params, {"epoch": 1})
        # the last block cannot be converted, so the write fails part-way
        broken = dict(params, zz=np.array(["not", "numbers"]))
        with pytest.raises(ValueError):
            nn.save_checkpoint(path, broken, {"epoch": 2})
        loaded, extra = nn.load_checkpoint(path)
        assert extra == {"epoch": 1}
        for k in params:
            np.testing.assert_array_equal(loaded[k], params[k])
        assert [p.name for p in tmp_path.iterdir()] == ["best.ckpt"]

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        nn.save_checkpoint(path, {"w": np.arange(6, dtype=np.float32)}, {})
        blob = path.read_bytes()
        path.write_bytes(blob[:-3])
        with pytest.raises(DataValidationError, match="truncated"):
            nn.load_checkpoint(path)
