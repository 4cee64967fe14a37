"""Helpers shared by several test files: one training window composed from
the package's own pieces and the gradient arrays its backward writes into,
the streaming step composed of one allocating call per quantity, its input
product summed over the cell's column blocks (the oracle of the step
kernel), the lockstep engine that binds a new
kernel per window (the oracle of the lockstep runner), two-pass inference
over one video with a streaming pass 1 (the oracle of the one-video views
of `infer_dataset`), a finite-difference gradient oracle, the
frame-by-frame statistic streams the closed forms in `ssm` are checked
against, the list-based HMM filter over complete streams, the backward
pass frame by frame without buffers, the per-block gradient clip, the
unfused Adam update, the csv-module table readers and writer the one-call
`np.loadtxt` readers and `%`-format writers are checked against, and the
per-row prediction writer. No command runs them, so they live with the tests."""

import csv
import functools
import io
import operator

import numpy as np

from phaseflow import cli, model as model_mod, nn
from phaseflow.core import MODEL_DTYPE, DataValidationError, read_text, softmax
from phaseflow.model import InferenceResult, StepKernel, infer_video
from phaseflow.ssm import GaborBank, acausal_feature_stream


def window_pass(params, h, c, xs, ys, prox_targets=None, prox_weight=0.0):
    """Taped forward, loss and backward over one window of precomputed
    inputs; returns (loss, grads)."""
    rec = nn.WindowRecorder(params, np.asarray(xs), h, c)
    ms = softmax(np.stack([rec.step(k) for k in range(rec.n_frames)]))
    loss, dlogits = nn.window_loss_and_dlogits(ms, ys, prox_targets, prox_weight)
    return loss, nn.window_backward(params, rec, dlogits, new_grads(params, rec))


def new_grads(params, rec):
    """Arrays for `nn.window_backward` to write a recorder's gradients into."""
    return {k: np.empty(np.shape(v), rec.dtype) for k, v in params.items()}


def block_product(x, wx, bounds=None):
    """`x @ wx` as the cell sums it: one product per column block, summed
    left to right. The blocks are the [start, stop) column ranges `bounds`
    (default the whole row), each cut every `nn.BLOCK_COLS` columns;
    columns in no range are not read."""
    bounds = ((0, len(wx)),) if bounds is None else bounds
    cuts = [(k, min(k + nn.BLOCK_COLS, stop))
            for start, stop in bounds for k in range(start, stop, nn.BLOCK_COLS)]
    return functools.reduce(operator.add, [x[..., a:b] @ wx[a:b] for a, b in cuts])


def composed_cell(params, h, c, x, bounds=None):
    """The LSTM cell as the textbook expressions, each quantity a new array,
    `x @ wx` the `block_product` over `bounds`; returns (h', c')."""
    H = params["lstm_wh"].shape[0]
    z = block_product(x, params["lstm_wx"], bounds) + h @ params["lstm_wh"] + params["lstm_b"]
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
        self.kernels = bank.kernels
        self.history = np.zeros((bank.width, n))     # oldest frame first
        self.a = model.transition.a
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
    head, the softmax, then the statistic's update. The cell reads the a
    block only given `acausal_rows`. Returns the (T, N) likelihoods, the
    final (h, c) and the `ComposedStatistics`."""
    params = model.params
    vb, sb, ab = model.blocks
    bounds = ((0, ab.start),) + (() if acausal_rows is None else ((ab.start, ab.stop),))
    h, c = np.zeros((2, model.config.hidden_dim), np.float32)
    stats = ComposedStatistics(model)
    x = np.zeros(model.input_dim, np.float32)
    probs = []
    for t, v in enumerate(features):
        x[vb] = v
        x[sb] = stats.feature()
        if acausal_rows is not None:
            x[ab] = acausal_rows[t]
        h, c = composed_cell(params, h, c, x, bounds)
        logits = h @ params["head_w"] + params["head_b"]
        e = np.exp(logits - logits.max())
        m = e / e.sum()
        stats.update(m)
        probs.append(m)
    return np.stack(probs), h, c, stats


class PerWindowRunner:
    """`model.LockstepRunner` as one window at a time: every `run` gathers
    the rows of its streams from the store (`SsmExtractor.take`, and h, c),
    builds a new zeroed input buffer and a new `StepKernel` over them, its
    cell reading the a block from the first window with acausal rows on,
    steps the window and scatters the rows back (`put`). The same interface
    and the same arithmetic at the same shapes, so the runner's outputs
    must equal its outputs bit for bit."""

    def __init__(self, model, extractor, h, c):
        self.model = model
        self.store, self.h_all, self.c_all = extractor, h, c

    @property
    def underflow_count(self) -> int:
        return self.store.underflow_count

    def run(self, rows, windows) -> StepKernel:
        model = self.model
        vb, _, ab = model.blocks
        lengths = np.array([stop - start for _, start, stop, _ in windows])
        xs = np.zeros((int(lengths.max()), len(windows), model.input_dim), MODEL_DTYPE)
        for j, (seq, start, stop, acausal) in enumerate(windows):
            xs[:stop - start, j, vb] = seq.features[start:stop]
            if acausal is not None:
                xs[:stop - start, j, ab] = acausal[start:stop]
        a_from = next((j for j, w in enumerate(windows) if w[3] is not None), None)
        part = self.store.take(rows)
        kernel = StepKernel(model, part, xs, self.h_all[rows], self.c_all[rows], a_from)
        kernel.set_lengths(lengths)
        for k in range(len(xs)):
            kernel.step(k)
        self.h_all[rows], self.c_all[rows] = kernel.recorder.hs[-1], kernel.recorder.cs[-1]
        self.store.put(rows, part)
        return kernel


def streaming_two_pass(model, seq) -> InferenceResult:
    """Two-pass inference over one video with a streaming pass 1: pass 1
    streams causally (`infer_video`, the a block zero), its likelihoods
    give float64 acausal rows (`ssm.acausal_feature_stream`), and pass 2
    runs the lockstep engine at B = 1 on them. `run_inference` and
    `infer_video_acausal` (one video of `infer_dataset`, pass 1 in
    lockstep) must equal it bit for bit."""
    pass1 = infer_video(model, seq)
    rows = acausal_feature_stream(model.new_extractor(), pass1.probs)
    (probs,), _ = model_mod._lockstep_probs(model, [seq], [rows])
    return InferenceResult(seq.video_id, probs, np.argmax(probs, axis=1),
                           pass1_probs=pass1.probs)


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


def list_hmm_streams(transition, streams):
    """`HmmFilterState.streams` as a list of beliefs: every stream packed
    into one float64 (T_max, B, N) table that feeds the uniform vector after
    the stream's end, one new belief array per frame from the allocating
    update, all of them re-stacked at the end. Returns the marginals of each
    stream and the underflow count."""
    streams = [np.asarray(ms) for ms in streams]
    a, n, b = transition.a, transition.n_phases, len(streams)
    packed = np.full((max(map(len, streams)), b, n), 1.0 / n)
    for j, ms in enumerate(streams):
        packed[:len(ms), j] = ms
    prior, beliefs, underflows = np.full((b, n) if b > 1 else n, 1.0 / n), [], 0
    for m in (packed if b > 1 else packed[:, 0]):
        post = prior @ a
        post *= m
        s = post.sum(axis=-1, keepdims=True)
        if s.size == 1:
            ok = 0.0 < s.item() < np.inf
        else:
            ok = s.min() > 0.0 and s.max() < np.inf
        if ok:
            post /= s
            prior = post
        else:
            ok = (s > 0.0) & np.isfinite(s)
            underflows += int((~ok).sum())
            with np.errstate(divide="ignore", invalid="ignore"):
                prior = np.where(ok, post / s, 1.0 / n)
        beliefs.append(prior)
    marg = np.reshape(beliefs, packed.shape)
    return [marg[:len(ms), j] for j, ms in enumerate(streams)], underflows


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


def per_frame_window_backward(params, rec, dlogits):
    """`nn.window_backward` as it was before its buffers: every factor
    taken in the frame loop, one new array per quantity, the head term one
    product per frame. The reference the buffered backward must match bit
    for bit."""
    H = rec.hidden_dim
    dz = np.empty_like(rec.act)
    dh_next = np.zeros_like(rec.hs[0])
    dc_next = np.zeros_like(rec.cs[0])
    (cols, wh_t), *more = [(cols, params["lstm_wh"].T[cols])
                           for cols in nn._column_blocks(0, 4 * H)]
    whead_t = params["head_w"].T
    for t in reversed(range(rec.n_frames)):
        act, g, tanh_c = rec.act[t], rec.g[t], rec.tanh_c[t]
        i, f, o = rec.gates(act)
        dh = dh_next + dlogits[t] @ whead_t
        do = dh * tanh_c
        dc = dc_next + dh * o * (1.0 - tanh_c * tanh_c)
        di = dc * g
        df = dc * rec.cs[t]
        dg = dc * i
        dz_t = dz[t]
        dz_t[..., :H] = di * i * (1.0 - i)
        dz_t[..., H:2 * H] = df * f * (1.0 - f)
        dz_t[..., 2 * H:3 * H] = dg * (1.0 - g * g)
        dz_t[..., 3 * H:] = do * o * (1.0 - o)
        dh_next = dz_t[..., cols] @ wh_t
        for cb, wb in more:
            dh_next += dz_t[..., cb] @ wb
        dc_next = dc * f
    dz = dz.reshape(-1, 4 * H)
    dl = np.asarray(dlogits).reshape(-1, dlogits.shape[-1])
    return {
        "lstm_wx": rec.xs.reshape(-1, rec.xs.shape[-1]).T @ dz,
        "lstm_wh": rec.hs[:-1].reshape(-1, H).T @ dz,
        "lstm_b": dz.sum(axis=0),
        "head_w": rec.hs[1:].reshape(-1, H).T @ dl,
        "head_b": dl.sum(axis=0),
    }


def per_block_clip(grads, max_norm) -> float:
    """`nn.clip_global_norm` block by block, one new array per block."""
    norm = float(np.sqrt(sum(float((g.astype(np.float64) ** 2).sum())
                             for g in grads.values())))
    if norm > max_norm:
        for g in grads.values():
            g *= max_norm / norm
    return norm


def textbook_adam_step(opt) -> None:
    """Adam's update of `opt`'s parameters from its gradient buffer as the
    textbook formula, one new array per term: the reference the in-place
    `nn.Adam.step` must match bit for bit. Advances `opt`'s step count and
    moments as `step` does."""
    opt.t += 1
    b1, b2, eps = nn.ADAM_BETA1, nn.ADAM_BETA2, nn.ADAM_EPS
    bc1 = 1.0 - b1 ** opt.t
    bc2 = 1.0 - b2 ** opt.t
    for k, p in opt.params.items():
        g = opt.grads[k]
        opt.m[k] = b1 * opt.m[k] + (1.0 - b1) * g
        opt.v[k] = b2 * opt.v[k] + (1.0 - b2) * (g * g)
        m_hat = opt.m[k] / bc1
        v_hat = opt.v[k] / bc2
        p -= (opt.lr * m_hat / (np.sqrt(v_hat) + eps)).astype(p.dtype)


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


def per_row_write_prediction_csv(path, result, labels) -> None:
    """`cli.write_prediction_csv` formatting one row per `%` operation."""
    n = result.probs.shape[1]
    row = "%d,%d," + ",".join(["%.9g"] * n) + "\r\n"
    header = ",".join(["frame_idx", "predicted_id"] + [f"prob_{p}" for p in range(n)])
    rows = zip(labels.tolist(), result.probs.astype(np.float64).tolist())
    with open(path, "w", newline="") as fh:
        fh.write(header + "\r\n" + "".join([row % (t, lab, *p)
                                            for t, (lab, p) in enumerate(rows)]))
