import numpy as np
import pytest

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
        h, c = nn.zero_state(H)
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
        h, c = nn.zero_state(2, np.float64)
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


class TestCrossEntropy:
    def test_perfect_prediction_zero_loss(self):
        assert nn.cross_entropy_loss(np.array([0.0, 1.0]), 1) == 0.0

    def test_uniform_is_log_n(self):
        m = np.full(4, 0.25)
        assert nn.cross_entropy_loss(m, 2) == pytest.approx(np.log(4), rel=1e-12)

    def test_direct_formula(self):
        m = np.array([0.7, 0.3])
        assert nn.cross_entropy_loss(m, 1) == pytest.approx(np.log(1 / 0.3), rel=1e-12)

    def test_floor_clamps(self):
        m = np.array([1.0, 0.0])
        assert nn.cross_entropy_loss(m, 1) == pytest.approx(-np.log(1e-12))

    def test_label_out_of_range(self):
        with pytest.raises(DataValidationError):
            nn.cross_entropy_loss(np.array([0.5, 0.5]), 2)


# ---------------------------------------------------------------------------
# gradient checks: analytic BPTT vs central finite differences (64-bit)


def window_loss_fn(xs, ys, prox, lam):
    def fn(params):
        H = params["lstm_wh"].shape[0]
        h, c = nn.zero_state(H, np.float64)
        ms, _, _, _ = nn.forward_window(params, h, c, xs)
        loss, _ = nn.window_loss_and_dlogits(ms, ys, prox, lam)
        return loss
    return fn


def run_gradient_check(H, D, N, T, seed, lam=0.0):
    rng = np.random.default_rng(seed)
    params = make_params(D, H, N, seed=seed)
    xs = [rng.standard_normal(D) for _ in range(T)]
    ys = rng.integers(0, N, T)
    prox = softmax(rng.standard_normal((T, N))) if lam > 0 else None
    h, c = nn.zero_state(H, np.float64)
    ms, _, _, tape = nn.forward_window(params, h, c, xs)
    _, dlogits = nn.window_loss_and_dlogits(ms, ys, prox, lam)
    analytic = nn.window_backward(params, tape, dlogits)
    fd = nn.finite_difference_grads(window_loss_fn(xs, ys, prox, lam), params,
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


class TestAdam:
    def test_zero_gradient_leaves_params_unchanged(self):
        params = make_params(2, 2, 2, dtype=np.float32)
        before = {k: v.copy() for k, v in params.items()}
        opt = nn.Adam(params, lr=0.1)
        opt.step(params, nn.zero_grads(params))
        for k in params:
            np.testing.assert_array_equal(params[k], before[k])

    def test_first_step_closed_form(self):
        params = {"w": np.array([1.0, -2.0, 0.5])}
        g = np.array([0.3, -0.1, 2.0])
        opt = nn.Adam(params, lr=0.01)
        opt.step(params, {"w": g})
        # bias-corrected first step: m_hat = g, v_hat = g^2
        expected = np.array([1.0, -2.0, 0.5]) - 0.01 * g / (np.abs(g) + 1e-8)
        np.testing.assert_allclose(params["w"], expected, rtol=1e-12)

    def test_two_steps_constant_gradient_closed_form(self):
        lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
        params = {"w": np.array([0.7])}
        g = np.array([0.4])
        opt = nn.Adam(params, lr=lr, beta1=b1, beta2=b2, eps=eps)
        opt.step(params, {"w": g.copy()})
        opt.step(params, {"w": g.copy()})
        w = 0.7
        m = v = 0.0
        for t in (1, 2):
            m = b1 * m + (1 - b1) * g[0]
            v = b2 * v + (1 - b2) * g[0] ** 2
            w -= lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)
        np.testing.assert_allclose(params["w"], [w], rtol=1e-12)

    def test_nonfinite_gradient_names_block(self):
        params = make_params(2, 2, 2, dtype=np.float32)
        opt = nn.Adam(params, lr=0.01)
        grads = nn.zero_grads(params)
        grads["lstm_wh"][0, 0] = np.nan
        with pytest.raises(NumericError, match="lstm_wh"):
            opt.step(params, grads)


class TestTrainingDynamics:
    def _separable_batch(self, rng, n=64):
        # phase = sign of the first embedding coordinate
        xs = rng.standard_normal((n, 2))
        xs[:, 0] = np.where(rng.random(n) < 0.5, 1.5, -1.5) + 0.1 * xs[:, 0]
        ys = (xs[:, 0] < 0).astype(int)
        return xs, ys

    def _batch_loss_and_grads(self, params, xs, ys):
        total = nn.zero_grads(params)
        loss_sum = 0.0
        H = params["lstm_wh"].shape[0]
        for x, y in zip(xs, ys):
            h, c = nn.zero_state(H, np.float64)
            loss, grads, _, _, _ = nn.window_grads(params, h, c, [x], [y])
            loss_sum += loss
            nn.accumulate_grads(total, grads)
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
            opt.step(params, grads)
        final, _ = self._batch_loss_and_grads(params, xs, ys)
        assert final < first

    def test_determinism_bit_identical_after_k_updates(self):
        def run():
            rng = np.random.default_rng(123)
            params = nn.init_params(3, 4, 2, rng, dtype=np.float32)
            opt = nn.Adam(params, lr=0.01)
            data_rng = np.random.default_rng(7)
            for _ in range(10):
                h, c = nn.zero_state(4)
                xs = [data_rng.standard_normal(3).astype(np.float32) for _ in range(4)]
                ys = data_rng.integers(0, 2, 4)
                _, grads, _, _, _ = nn.window_grads(params, h, c, xs, ys)
                opt.step(params, grads)
            return params
        p1, p2 = run(), run()
        for k in p1:
            assert np.array_equal(p1[k], p2[k])


class TestGradClip:
    def test_clips_to_max_norm(self):
        grads = {"a": np.array([3.0, 4.0])}
        norm = nn.clip_global_norm(grads, 2.5)
        assert norm == pytest.approx(5.0)
        assert np.linalg.norm(grads["a"]) == pytest.approx(2.5)

    def test_no_clip_below_threshold(self):
        grads = {"a": np.array([0.3, 0.4])}
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
