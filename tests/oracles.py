"""Helpers shared by several test files: one training window composed from
the package's own pieces, the streaming step composed of one allocating
call per quantity (the oracle of the step kernel), a finite-difference
gradient oracle, the frame-by-frame statistic streams the closed forms in
`ssm` are checked against, the unfused Adam update, and the csv-module
table readers and writer the one-call `np.loadtxt` readers and `%`-format
writers are checked against. No command runs them, so they live with the
tests."""

import csv
import io

import numpy as np

from phaseflow import cli, nn
from phaseflow.core import DataValidationError, read_text, softmax
from phaseflow.ssm import GaborBank


def window_pass(params, h, c, xs, ys, prox_targets=None, prox_weight=0.0):
    """Taped forward, loss and backward over one window of precomputed
    inputs; returns (loss, grads)."""
    rec = nn.WindowRecorder(params, np.asarray(xs), h, c)
    ms = softmax(np.stack([rec.step(k) for k in range(rec.n_frames)]))
    loss, dlogits = nn.window_loss_and_dlogits(ms, ys, prox_targets, prox_weight)
    return loss, nn.window_backward(params, rec, dlogits)


def composed_cell(params, h, c, x):
    """The LSTM cell as the textbook expressions, each quantity a new array;
    returns (h', c')."""
    H = params["lstm_wh"].shape[0]
    z = x @ params["lstm_wx"] + h @ params["lstm_wh"] + params["lstm_b"]
    act = 1.0 / (1.0 + np.exp(-z))
    i, f, o = act[..., :H], act[..., H:2 * H], act[..., 3 * H:]
    c_new = f * c + i * np.tanh(z[..., 2 * H:3 * H])
    return o * np.tanh(c_new), c_new


class ComposedStatistics:
    """The csl | gabor | hmm statistic of one stream with its own state:
    the counters, the last `width` frames and the filter belief. `feature`
    is one new float64 array per enabled aggregator, concatenated."""

    def __init__(self, model):
        cfg, n = model.config, model.n_phases
        self.kinds = [k for k in ("csl", "gabor", "hmm") if k in cfg.enabled_ssm_features]
        self.levels = np.asarray(cfg.csl_levels, dtype=np.float64)
        self.counts = np.zeros((n, len(self.levels) + 1))
        bank = GaborBank.build(cfg.gabor_num_scales, cfg.gabor_scale_min,
                               cfg.gabor_scale_max)
        self.kernels = np.concatenate([bank.kernels_real, bank.kernels_imag])
        self.history = np.zeros((bank.width, n))     # oldest frame first
        self.a = model.transition.a if model.transition is not None else None
        self.prior = np.full(n, 1.0 / n)
        self.belief = np.zeros(n)
        self.underflows = 0

    def feature(self) -> np.ndarray:
        parts = []
        if "csl" in self.kinds:
            parts.append(np.log1p(self.counts).reshape(-1))
        if "gabor" in self.kinds:
            k = self.kernels.shape[0] // 2
            r = self.kernels @ self.history
            r = r * r
            parts.append(np.sqrt(r[:k] + r[k:]).T.reshape(-1))
        if "hmm" in self.kinds:
            parts.append(self.belief.copy())
        return np.concatenate(parts) if parts else np.zeros(0)

    def update(self, m) -> None:
        m = np.asarray(m)
        if "csl" in self.kinds:
            self.counts[:, :-1] += m[:, None] >= self.levels
            self.counts[np.argmax(m), -1] += 1.0
        if "gabor" in self.kinds:
            self.history = np.concatenate([self.history[1:], m[None].astype(np.float64)])
        if "hmm" in self.kinds:
            post = (self.prior @ self.a) * m
            s = post.sum()
            if 0.0 < s < np.inf:
                self.belief = post / s
            else:
                self.belief = np.full(len(m), 1.0 / len(m))
                self.underflows += 1
            self.prior = self.belief


def composed_stream(model, features, acausal_rows=None):
    """Streaming inference over one video as separate allocating calls:
    the statistic concatenated and cast into the input row, the cell, the
    head, the softmax, then the statistic's update. Returns the (T, N)
    likelihoods, the final (h, c) and the `ComposedStatistics`."""
    params = model.params
    vb, sb, ab = model.blocks
    h, c = nn.zero_state(model.config.hidden_dim)
    stats = ComposedStatistics(model)
    x = np.zeros(model.input_dim, np.float32)
    probs = []
    for t, v in enumerate(features):
        x[vb] = v
        x[sb] = stats.feature()
        if acausal_rows is not None:
            x[ab] = acausal_rows[t]
        h, c = composed_cell(params, h, c, x)
        logits = h @ params["head_w"] + params["head_b"]
        e = np.exp(logits - logits.max())
        m = e / e.sum()
        stats.update(m)
        probs.append(m)
    return np.stack(probs), h, c, stats


def feature_stream(extractor, ms) -> np.ndarray:
    """Causal statistic stream, frame by frame: row t is the feature
    available when frame t is processed, i.e. aggregated over m[0..t-1].
    `extractor` must be fresh (no updates yet), so row 0 is zeros; it holds
    the whole stream afterwards."""
    rows = []
    for m in ms:
        rows.append(extractor.feature())
        extractor.update(m)
    return np.stack(rows) if rows else np.zeros((0, extractor.dim))


def per_frame_acausal_stream(extractor, ms) -> np.ndarray:
    """Acausal statistic stream, frame by frame: `feature_stream` over the
    reversed stream, reversed back, so row t aggregates m[t+1..T-1]."""
    return feature_stream(extractor, np.asarray(ms)[::-1])[::-1]


def finite_difference_grads(loss_fn, params, step=1e-5):
    """Central finite differences of loss_fn w.r.t. every parameter entry.

    loss_fn takes the params dict and returns a scalar; intended for 64-bit
    parameters on small instances.
    """
    grads = {}
    for name, p in params.items():
        g = np.zeros_like(p, dtype=np.float64)
        flat = p.reshape(-1)
        gflat = g.reshape(-1)
        for idx in range(flat.shape[0]):
            orig = flat[idx]
            flat[idx] = orig + step
            up = loss_fn(params)
            flat[idx] = orig - step
            down = loss_fn(params)
            flat[idx] = orig
            gflat[idx] = (up - down) / (2.0 * step)
        grads[name] = g
    return grads


def textbook_adam_step(opt, params, grads) -> None:
    """Adam's update as the textbook formula, one new array per term: the
    reference the in-place `nn.Adam.step` must match bit for bit. Advances
    `opt`'s step count and moments as `step` does."""
    opt.t += 1
    b1, b2 = opt.beta1, opt.beta2
    bc1 = 1.0 - b1 ** opt.t
    bc2 = 1.0 - b2 ** opt.t
    for k, p in params.items():
        g = grads[k]
        opt.m[k] = b1 * opt.m[k] + (1.0 - b1) * g
        opt.v[k] = b2 * opt.v[k] + (1.0 - b2) * (g * g)
        m_hat = opt.m[k] / bc1
        v_hat = opt.v[k] / bc2
        p -= (opt.lr * m_hat / (np.sqrt(v_hat) + opt.eps)).astype(p.dtype)


def outcome(read, *args):
    """What a reader makes of a file: its result, or its error message."""
    try:
        return read(*args), None
    except DataValidationError as e:
        return None, str(e)


def csv_read_prediction_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """The csv-module prediction reader `cli.read_prediction_csv` replaced:
    the reference for what it accepts and rejects, and with which message."""
    rows = list(csv.reader(io.StringIO(read_text(path), newline="")))
    n = len(rows[0]) - 2 if rows else 0
    if n < 1 or rows[0] != ["frame_idx", "predicted_id"] + [f"prob_{p}" for p in range(n)]:
        raise DataValidationError(
            f"{path}: line 1: expected the header frame_idx,predicted_id,prob_0,...")
    try:
        if any(len(r) != n + 2 for r in rows[1:]):
            raise ValueError
        labels = np.array([int(r[1]) for r in rows[1:]], dtype=np.int64)
        probs = np.array([[float(v) for v in r[2:]] for r in rows[1:]],
                         dtype=np.float32).reshape(len(labels), n)
        if ((labels < 0) | (labels >= n)).any():
            raise ValueError
    except (ValueError, IndexError, OverflowError):
        raise DataValidationError(f"{path}: {cli._first_bad_row(rows)}") from None
    return labels, probs


def csv_read_labels_csv(path, n_frames: int) -> np.ndarray:
    """The csv-module `labels.csv` reader `data._read_labels_csv` replaced."""
    labels = np.full(n_frames, -1, dtype=np.int64)
    reader = csv.reader(io.StringIO(read_text(path), newline=""))
    header = next(reader, None)
    if header != ["frame_idx", "label_id"]:
        raise DataValidationError(f"{path}: expected header frame_idx,label_id")
    for row in reader:
        try:
            idx, lab = int(row[0]), int(row[1])
            if not 0 <= idx < n_frames:
                raise DataValidationError(f"{path}: frame_idx {idx} out of range")
            if lab < 0:     # -1 marks a frame without a label row
                raise DataValidationError(
                    f"{path}: label out of range at frame {idx} (got {lab})")
            labels[idx] = lab
        except (ValueError, IndexError, OverflowError):
            raise DataValidationError(f"{path}: malformed row {row}") from None
    if (labels < 0).any():
        missing = int(np.argwhere(labels < 0)[0][0])
        raise DataValidationError(f"{path}: no label for frame {missing}")
    return labels


def csv_labels_bytes(labels) -> bytes:
    """`labels.csv` as the csv module writes it."""
    buf = io.StringIO(newline="")
    w = csv.writer(buf)
    w.writerow(["frame_idx", "label_id"])
    for i, lab in enumerate(labels):
        w.writerow([i, int(lab)])
    return buf.getvalue().encode()
