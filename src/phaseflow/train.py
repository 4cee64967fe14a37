"""Training loop: truncated BPTT over 8-frame windows with hidden state (but
not gradients) carried across windows, batches of windows drawn round-robin
from different videos, SSM statistics entering as constants, and a lagged
proximal penalty pulling outputs toward the previous epoch's.

In acausal mode each video trains two parallel sessions sharing one parameter
set: pass 1 with zeroed acausal channels (whose no-gradient stream refreshes
the acausal feature cache every epoch) and pass 2 consuming the cached
acausal features; the window loss sums both passes.

Lockstep engine. Within a video the frames must run one after another (the
statistic at frame t aggregates the model's own outputs before t), but
videos are independent, so every pass runs its streams side by side, one
frame of each per step:

* `train_epoch` steps the aligned windows of one Adam step together: per
  frame one (B, D) @ (D, 4H) cell matmul and batched CSL/Gabor/HMM state,
  per window one vectorised loss and one batched backward pass. The state of
  every stream lives in arrays with one row per stream; a batch gathers its
  rows at the start of its window and scatters them back at the end.
* the cache refresh and validation run all their videos together, window by
  window, and the set of live streams shrinks as videos end.

A window that ends before the longest one in its step is padded: its rows
see zero embeddings, are masked out of the loss (so they add exactly zero
gradient) and feed the uniform vector to the statistics, whose state for
that video is never read again.

Rows are summed in a different order than one video at a time, so the
engine matches per-video inference to float rounding. At B=1
(`training_forward_probs`) it is bit-equal to streaming inference by
construction: it writes each input through the same `PhaseModel.blocks`
and `acausal_rows` and runs the same calls (`nn._cell`, `nn.head_forward`,
`softmax`, the aggregators' `feature`/`update`) on the same values.
"""

from __future__ import annotations

import json
import logging
import time
from collections import deque
from dataclasses import asdict, dataclass, field

import numpy as np

from . import nn, ssm
from .core import (
    MODEL_DTYPE,
    DataValidationError,
    ExperimentConfig,
    FeatureSequence,
    NumericError,
    PhaseTaxonomy,
    UsageError,
    substream,
)
# run_inference is not called here; it stays importable from train because
# the perfbench tracer wraps `train.run_inference`
from .model import PhaseModel, init_model, run_inference, save_model  # noqa: F401

log = logging.getLogger(__name__)


@dataclass
class EpochLog:
    """One line of training_log.jsonl. Stage times are seconds; the gradient
    norm is the pre-clip global norm of each Adam step, clipped_frac the
    share of steps above `grad_clip`, hmm_underflows the HMM filter resets in
    the epoch's training windows and cache refresh."""

    epoch: int
    train_loss: float
    val_accuracy: float
    wall_time_s: float
    train_s: float
    refresh_s: float
    validate_s: float
    grad_norm_p50: float
    clipped_frac: float
    hmm_underflows: int

    def to_json(self) -> str:
        return json.dumps(asdict(self))


@dataclass
class TrainRun:
    """Mutable training state: parameters, optimizer, per-video caches."""

    config: ExperimentConfig
    model: PhaseModel
    adam: nn.Adam
    epoch: int = 0
    prox_cache: dict[str, np.ndarray] = field(default_factory=dict)
    acausal_cache: dict[str, np.ndarray] = field(default_factory=dict)
    curve: list[EpochLog] = field(default_factory=list)
    last_epoch_loss: float = float("nan")
    grad_norms: list[float] = field(default_factory=list)   # last epoch's
    hmm_underflows: int = 0                                  # this epoch's


@dataclass
class FitResult:
    model: PhaseModel            # parameters from the best-validation epoch
    curve: list[EpochLog]
    best_epoch: int
    best_val_accuracy: float


def batch_scheduler(video_lengths: dict[str, int], batch_size: int, window: int,
                    rng: np.random.Generator) -> list[list[tuple[str, int, int]]]:
    """Schedule aligned windows: each batch holds the next window of up to
    `batch_size` distinct videos (round-robin), so every video's windows are
    visited in temporal order."""
    if batch_size < 1:
        raise UsageError("batch_size must be >= 1")
    ids = sorted(video_lengths)
    order = [ids[i] for i in rng.permutation(len(ids))]
    next_start = {vid: 0 for vid in ids}
    queue = deque(order)
    batches = []
    while queue:
        batch = []
        requeue = []
        for _ in range(min(batch_size, len(queue))):
            vid = queue.popleft()
            start = next_start[vid]
            stop = min(start + window, video_lengths[vid])
            batch.append((vid, start, stop))
            next_start[vid] = stop
            if stop < video_lengths[vid]:
                requeue.append(vid)
        queue.extend(requeue)
        batches.append(batch)
    return batches


def _inputs(model: PhaseModel, windows, width: int) -> np.ndarray:
    """Inputs [v | s | a] of aligned windows as (width, B, input_dim): the
    embeddings and acausal rows filled in, the statistic block left for the
    engine to fill frame by frame, frames past a window's end zero.

    `windows` holds (seq, start, stop, acausal_rows or None) per row; None
    feeds zeros to the acausal channels (pass 1)."""
    vb, _, ab = model.blocks
    xs = np.zeros((width, len(windows), model.input_dim), MODEL_DTYPE)
    for j, (seq, start, stop, acausal) in enumerate(windows):
        xs[:stop - start, j, vb] = seq.features[start:stop]
        if acausal is not None:
            xs[:stop - start, j, ab] = acausal[start:stop]
    return xs


def _run_window(model: PhaseModel, h, c, extractor: ssm.SsmExtractor,
                xs: np.ndarray, lengths: np.ndarray) -> nn.WindowRecorder:
    """Taped lockstep forward of B aligned windows (`xs` from _inputs, one
    row per stream): each frame's statistic comes from the live extractor
    (detached), and each output updates it. Rows past their window's length
    feed the uniform vector, which cannot underflow the HMM filter."""
    sb = model.blocks[1]
    has_stats = sb.stop > sb.start
    uniform = np.float32(1.0 / model.n_phases)
    ended_from = int(lengths.min())
    rec = nn.WindowRecorder(model.params, h, c)
    for k, x in enumerate(xs):
        if has_stats:
            x[:, sb] = extractor.feature()
        m = rec.step(x)
        if has_stats:
            if k >= ended_from:
                m = np.where((lengths <= k)[:, None], uniform, m)
            extractor.update(m)
    return rec


def _lockstep_probs(model: PhaseModel, seqs: list[FeatureSequence],
                    acausal: list | None = None) -> tuple[list[np.ndarray], int]:
    """Loss-free training-mode forward over whole videos in lockstep, one
    `seq_len_bptt` window at a time with state carried across windows.
    Returns the (T, N) probabilities of each sequence, in input order, and
    the HMM underflow count. `acausal` holds each sequence's acausal rows
    (pass 2); without it an acausal model sees zeros there (pass 1)."""
    if not seqs:
        return [], 0
    H = model.config.hidden_dim
    width = model.config.seq_len_bptt
    # longest first, so the streams still running are always a prefix
    order = sorted(range(len(seqs)), key=lambda j: -seqs[j].n_frames)
    dtype = model.params["head_b"].dtype
    probs = [np.empty((s.n_frames, model.n_phases), dtype) for s in seqs]
    live = len(order)
    h, c = np.zeros((live, H), MODEL_DTYPE), np.zeros((live, H), MODEL_DTYPE)
    extractor = model.new_extractor(batch=live)
    for start in range(0, seqs[order[0]].n_frames, width):
        n = sum(1 for j in order[:live] if seqs[j].n_frames > start)
        if n < live:
            live = n
            h, c, extractor = h[:n], c[:n], extractor.take(np.arange(n))
        windows = [(seqs[j], start, min(start + width, seqs[j].n_frames),
                    None if acausal is None else acausal[j]) for j in order[:n]]
        lengths = np.array([stop - start for _, _, stop, _ in windows])
        rec = _run_window(model, h, c, extractor,
                          _inputs(model, windows, int(lengths.max())), lengths)
        ms = rec.ms
        for col, (j, n_k) in enumerate(zip(order, lengths)):
            probs[j][start:start + n_k] = ms[:n_k, col]
        h, c = rec.h, rec.c
    return probs, extractor.underflow_count


def _window_loss(ms, ys, valid, prox, weight: float):
    """nn.window_loss_and_dlogits over the valid frames of a padded batch;
    padded frames get zero dlogits."""
    if valid.all():
        return nn.window_loss_and_dlogits(ms, ys, prox, weight)
    loss, dl = nn.window_loss_and_dlogits(
        ms[valid], ys[valid], None if prox is None else prox[valid], weight)
    dlogits = np.zeros_like(ms)
    dlogits[valid] = dl
    return loss, dlogits


def train_epoch(run: TrainRun, train_seqs: list[FeatureSequence]) -> TrainRun:
    """One pass over the training set; one Adam step per window batch, its
    windows stepped in lockstep (see the module doc).

    Raises NumericError naming the video/frame window if the loss goes
    non-finite.
    """
    cfg = run.config
    model = run.model
    run.epoch += 1
    by_id = {s.video_id: s for s in train_seqs}
    ids = sorted(by_id)
    rng = substream(cfg.rng_seed, "batching", run.epoch)
    batches = batch_scheduler({vid: by_id[vid].n_frames for vid in ids},
                              cfg.batch_size, cfg.seq_len_bptt, rng)
    # one stream per video and pass: pass p of video j is row p * V + j
    n_pass = 2 if cfg.acausal else 1
    V = len(ids)
    row_of = {vid: j for j, vid in enumerate(ids)}
    h_all = np.zeros((n_pass * V, cfg.hidden_dim), MODEL_DTYPE)
    c_all = np.zeros_like(h_all)
    states = model.new_extractor(batch=n_pass * V)
    use_prox = cfg.proximal_weight > 0.0 and bool(run.prox_cache)
    total_loss = 0.0
    total_frames = 0
    run.grad_norms = []
    for batch in batches:
        B = len(batch)
        windows = [(by_id[vid], start, stop,
                     run.acausal_cache.get(vid) if p == 1 else None)
                   for p in range(n_pass) for vid, start, stop in batch]
        rows = np.array([p * V + row_of[vid]
                         for p in range(n_pass) for vid, _, _ in batch])
        lengths = np.array([stop - start for _, start, stop, _ in windows])
        width = int(lengths.max())
        extractor = states.take(rows)
        rec = _run_window(model, h_all[rows], c_all[rows], extractor,
                          _inputs(model, windows, width), lengths)
        ms = rec.ms                                   # (width, n_pass * B, N)
        valid = np.arange(width)[:, None] < lengths
        ys = np.zeros(valid.shape, np.int64)
        # the proximal tie applies to the evaluated (last) pass only; other
        # rows, and videos without a cached stream, are tied to their own
        # outputs, which adds exactly nothing
        prox = ms.copy() if use_prox else None
        for col, (seq, start, stop, _) in enumerate(windows):
            ys[:stop - start, col] = seq.labels[start:stop]
            cached = run.prox_cache.get(seq.video_id) if use_prox else None
            if cached is not None and col >= (n_pass - 1) * B:
                prox[:stop - start, col] = cached[start:stop]
        loss, dlogits = _window_loss(ms, ys, valid, prox, cfg.proximal_weight)
        if not (np.isfinite(loss) and np.isfinite(ms[valid]).all()):
            finite = (np.isfinite(ms).all(axis=-1) | ~valid).all(axis=0)
            j = int(np.argmin(finite.reshape(n_pass, B).all(axis=0)))
            vid, start, stop = batch[j]
            raise NumericError(
                f"non-finite loss in video {vid} frames [{start}, {stop})")
        grads = nn.window_backward(model.params, rec.tape, dlogits)
        h_all[rows], c_all[rows] = rec.h, rec.c
        states.put(rows, extractor)
        for g in grads.values():
            g /= B
        run.grad_norms.append(nn.clip_global_norm(grads, cfg.grad_clip))
        run.adam.step(model.params, grads)
        total_loss += loss
        total_frames += int(lengths[:B].sum())
    run.last_epoch_loss = total_loss / max(1, total_frames)
    run.hmm_underflows += states.underflow_count
    return run


def _offline_probs(model: PhaseModel, seqs: list[FeatureSequence]):
    """Probabilities of the evaluated pass for every sequence, all run in
    lockstep: the causal pass, or in acausal mode pass 2 on the acausal rows
    derived from pass 1. Returns (probs, acausal rows or None, underflows)."""
    probs, underflows = _lockstep_probs(model, seqs)
    if not model.config.acausal:
        return probs, None, underflows
    rows = [model.acausal_rows(p) for p in probs]
    probs, more = _lockstep_probs(model, seqs, rows)
    return probs, rows, underflows + more


def training_forward_probs(model: PhaseModel, seq: FeatureSequence,
                           acausal_rows: np.ndarray | None = None) -> np.ndarray:
    """Loss-free training-mode forward over consecutive windows with carried
    state: the lockstep engine at B=1, bit-equal to streaming inference."""
    probs, _ = _lockstep_probs(
        model, [seq], None if acausal_rows is None else [acausal_rows])
    return probs[0]


def _refresh_caches(run: TrainRun, train_seqs: list[FeatureSequence]) -> None:
    """No-gradient pass over all training videos with the current parameters:
    stores the probability stream for the proximal term and, in acausal mode,
    the acausal feature rows derived from the pass-1 stream."""
    probs, rows, underflows = _offline_probs(run.model, train_seqs)
    ids = [s.video_id for s in train_seqs]
    run.prox_cache.update(zip(ids, probs))
    if rows is not None:
        run.acausal_cache.update(zip(ids, rows))
    run.hmm_underflows += underflows


def dataset_frame_accuracy(model: PhaseModel, seqs: list[FeatureSequence]) -> float:
    probs, _, _ = _offline_probs(model, seqs)
    correct = sum(int((np.argmax(p, axis=1) == s.labels).sum())
                  for s, p in zip(seqs, probs))
    total = sum(s.n_frames for s in seqs)
    return correct / total if total else 0.0


def fit(config: ExperimentConfig, taxonomy: PhaseTaxonomy,
        train_seqs: list[FeatureSequence], val_seqs: list[FeatureSequence],
        log_path=None, ckpt_dir=None) -> FitResult:
    """Run the full training protocol and return the parameters of the best
    validation-accuracy epoch along with the per-epoch curve."""
    train_ids = {s.video_id for s in train_seqs}
    if train_ids & {s.video_id for s in val_seqs}:
        raise UsageError("train and validation video ids overlap")
    if not train_seqs:
        raise UsageError("training set is empty")
    for s in list(train_seqs) + list(val_seqs):
        if s.labels is None:
            raise UsageError(f"video {s.video_id} has no labels")
        if s.features.shape[-1] != config.embed_dim:
            raise DataValidationError(
                f"video {s.video_id} has {s.features.shape[-1]}-d embeddings, "
                f"but config embed_dim is {config.embed_dim}")

    if len(train_seqs) < config.batch_size:
        log.warning("only %d video(s) for batch size %d; effective batch is smaller",
                    len(train_seqs), config.batch_size)

    transition = ssm.estimate_transition_matrix(
        [s.labels for s in sorted(train_seqs, key=lambda q: q.video_id)],
        taxonomy.n_phases, config.hmm_smoothing)
    model = init_model(config, taxonomy, substream(config.rng_seed, "init"),
                       transition)
    run = TrainRun(config, model, nn.Adam(model.params, config.learning_rate))
    if config.acausal:
        _refresh_caches(run, train_seqs)     # epoch-1 acausal features come
        run.prox_cache.clear()               # from the init params; no prox yet

    best_epoch = 0
    best_acc = -1.0
    best_params = {k: v.copy() for k, v in model.params.items()}
    log_fh = open(log_path, "w") if log_path else None
    try:
        for _ in range(config.epochs):
            run.hmm_underflows = 0
            t0 = time.perf_counter()
            train_epoch(run, train_seqs)
            t1 = time.perf_counter()
            _refresh_caches(run, train_seqs)
            t2 = time.perf_counter()
            val_acc = (dataset_frame_accuracy(model, val_seqs)
                       if val_seqs else float("nan"))
            t3 = time.perf_counter()
            norms = np.asarray(run.grad_norms)
            entry = EpochLog(
                run.epoch, float(run.last_epoch_loss), float(val_acc), t3 - t0,
                train_s=t1 - t0, refresh_s=t2 - t1, validate_s=t3 - t2,
                grad_norm_p50=float(np.median(norms)),
                clipped_frac=float((norms > config.grad_clip).mean()),
                hmm_underflows=run.hmm_underflows)
            run.curve.append(entry)
            if log_fh:
                log_fh.write(entry.to_json() + "\n")
                log_fh.flush()
            if ckpt_dir is not None:
                save_model(model, f"{ckpt_dir}/epoch_{run.epoch:03d}.ckpt")
            improved = val_seqs and val_acc > best_acc
            if improved or not val_seqs:
                best_acc = val_acc if val_seqs else float("nan")
                best_epoch = run.epoch
                best_params = {k: v.copy() for k, v in model.params.items()}
                if ckpt_dir is not None:
                    save_model(model, f"{ckpt_dir}/best.ckpt")
    finally:
        if log_fh:
            log_fh.close()
    best_model = PhaseModel(config, taxonomy, best_params, transition)
    if ckpt_dir is not None and config.epochs == 0:
        save_model(best_model, f"{ckpt_dir}/best.ckpt")
    return FitResult(best_model, run.curve, best_epoch, best_acc)
