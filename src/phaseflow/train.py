"""Training loop: truncated BPTT over 8-frame windows with hidden state (but
not gradients) carried across windows, batches of windows drawn round-robin
from different videos, SSM statistics entering as constants, and a lagged
proximal penalty pulling outputs toward the previous epoch's.

In acausal mode each video trains two parallel sessions sharing one parameter
set: pass 1 with zeroed acausal channels (whose no-gradient stream fills the
acausal feature cache) and pass 2 consuming the cached acausal features; the
window loss sums both passes. Each epoch's caches are derived just before it
(`_refresh_caches`): before epoch 1 from pass 1 alone, none after the last.

Training runs on the lockstep engine of `model`, a `model.LockstepRunner`
over one stream per video and pass. Each Adam step runs its aligned windows
through it, takes one vectorised loss and one batched backward pass, which
writes into Adam's flat gradient vector (see `nn`); the vector is divided
by the batch's window count and clipped as a whole, then Adam steps. The
padded rows of a short window are masked out of the loss (exactly zero
gradient). The runner gathers the state rows of a batch's videos
(`SsmExtractor.take`) and scatters the previous batch's back (`put`) only
when the batch's streams differ from the previous batch's; with no more
videos than `batch_size` that is only when a video ends.
The cache refresh and validation run all their videos through
`_offline_probs`, the two-pass driver of `infer_dataset`; the start-up step
runs its pass 1 alone (`_pass1`). At B=1 (`training_forward_probs`) the
engine is bit-equal to streaming inference; at larger B it agrees to float
rounding.
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
    SSM_FEATURE_KINDS,
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
from .model import (LockstepRunner, PhaseModel, _lockstep_probs,  # noqa: F401
                    _offline_probs, _pass1, check_embed_dim, check_unique_ids,
                    init_model, run_inference, save_model)

log = logging.getLogger(__name__)


STAT_GROUPS = SSM_FEATURE_KINDS + ("acausal",)


class StatRanges:
    """Running min, max and mean of each statistic group (`PhaseModel.
    stat_groups`) over the training input rows of an epoch: the real frames
    of every window, the acausal group on the pass that reads it. `add`
    reduces once per window."""

    def __init__(self, model: PhaseModel):
        self._groups = model.stat_groups
        self._acc = {g: [np.inf, -np.inf, 0.0, 0] for g in self._groups}

    def add(self, xs: np.ndarray, valid: np.ndarray, pass2_from: int) -> None:
        """`xs` (width, rows, D) inputs of one window, `valid` its real
        frames (width, rows); rows from `pass2_from` on are pass 2."""
        masks = {}
        for rows in (slice(None), slice(pass2_from, None)):
            mask = valid[:, rows]
            # a masked reduction is slower; most windows have no padded frame
            masks[rows.start] = (True if mask.all() else mask[..., None], int(mask.sum()))
        for group, cols in self._groups.items():
            start = pass2_from if group == "acausal" else None
            where, frames = masks[start]
            block = xs[:, start:, cols]
            acc = self._acc[group]
            acc[0] = min(acc[0], float(block.min(initial=np.inf, where=where)))
            acc[1] = max(acc[1], float(block.max(initial=-np.inf, where=where)))
            acc[2] += float(block.sum(where=where, dtype=np.float64))
            acc[3] += frames * block.shape[-1]

    def summary(self) -> dict:
        """{group: {"min", "max", "mean"}} for every group in STAT_GROUPS;
        None for a group the model does not have or no frame fed."""
        out = dict.fromkeys(STAT_GROUPS)
        for group, (lo, hi, total, n) in self._acc.items():
            if n:
                out[group] = {"min": lo, "max": hi, "mean": total / n}
        return out


@dataclass
class EpochLog:
    """One line of training_log.jsonl. Stage times are seconds, refresh_s the
    cache step before the epoch; train_fps is training frames per train_s
    second, val_accuracy None without a validation split; the gradient norm is
    the pre-clip global norm of each Adam step, clipped_frac the share of
    steps above `grad_clip`, hmm_underflows the HMM filter resets in the
    epoch's cache step and training windows; stat_ranges the value range of
    each statistic group in the epoch's training inputs (`StatRanges`)."""

    epoch: int
    train_loss: float
    val_accuracy: float | None
    wall_time_s: float
    train_s: float
    train_fps: float
    refresh_s: float
    validate_s: float
    grad_norm_p50: float
    clipped_frac: float
    hmm_underflows: int
    stat_ranges: dict


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
    stat_ranges: StatRanges | None = None                    # last epoch's


@dataclass
class FitResult:
    model: PhaseModel            # parameters from the best-validation epoch
    curve: list[EpochLog]
    best_epoch: int
    best_val_accuracy: float     # nan without validation or without an epoch


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
    runner = LockstepRunner(model, model.new_extractor(batch=n_pass * V),
                            *model.zero_state(n_pass * V))
    use_prox = cfg.proximal_weight > 0.0 and bool(run.prox_cache)
    total_loss = 0.0
    total_frames = 0
    run.grad_norms = []
    run.stat_ranges = StatRanges(model)
    for batch in batches:
        B = len(batch)
        windows = [(by_id[vid], start, stop,
                     run.acausal_cache.get(vid) if p == 1 else None)
                   for p in range(n_pass) for vid, start, stop in batch]
        rows = np.array([p * V + row_of[vid]
                         for p in range(n_pass) for vid, _, _ in batch])
        kernel = runner.run(rows, windows)
        ms, rec, lengths = kernel.ms, kernel.recorder, kernel.lengths  # ms: (width, rows, N)
        valid = np.arange(len(ms))[:, None] < lengths
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
        run.stat_ranges.add(rec.xs, valid, (n_pass - 1) * B)
        grads = nn.window_backward(model.params, rec, dlogits, run.adam.grads)
        grads.flat /= B
        run.grad_norms.append(nn.clip_global_norm(grads, cfg.grad_clip))
        run.adam.step(model.params, grads)
        total_loss += loss
        total_frames += int(lengths[:B].sum())
    run.last_epoch_loss = total_loss / max(1, total_frames)
    run.hmm_underflows += runner.underflow_count
    return run


def training_forward_probs(model: PhaseModel, seq: FeatureSequence,
                           acausal_rows: np.ndarray | None = None) -> np.ndarray:
    """Loss-free training-mode forward over consecutive windows with carried
    state: the lockstep engine at B=1, bit-equal to streaming inference."""
    probs, _ = _lockstep_probs(
        model, [seq], None if acausal_rows is None else [acausal_rows])
    return probs[0]


def _refresh_caches(run: TrainRun, train_seqs: list[FeatureSequence]) -> None:
    """The cache step before epoch `run.epoch + 1`, a no-gradient pass over all
    training videos: the proximal targets and, in acausal mode, the acausal
    rows of the pass-1 stream; before epoch 1 only pass 1 runs."""
    model, ids = run.model, [s.video_id for s in train_seqs]
    if run.epoch > 0:
        probs, _, rows, underflows = _offline_probs(model, train_seqs)
        run.prox_cache.update(zip(ids, probs))
    elif model.config.acausal:
        _, rows, underflows = _pass1(model, train_seqs)
    else:
        return
    if rows is not None:
        run.acausal_cache.update(zip(ids, rows))
    run.hmm_underflows += underflows


def dataset_frame_accuracy(model: PhaseModel, seqs: list[FeatureSequence]) -> float:
    probs = _offline_probs(model, seqs)[0]
    correct = sum(int((np.argmax(p, axis=1) == s.labels).sum())
                  for s, p in zip(seqs, probs))
    total = sum(s.n_frames for s in seqs)
    return correct / total if total else 0.0


def fit(config: ExperimentConfig, taxonomy: PhaseTaxonomy,
        train_seqs: list[FeatureSequence], val_seqs: list[FeatureSequence],
        log_path=None, ckpt_dir=None) -> FitResult:
    """Run the training protocol, each epoch after its cache step, and return
    the best validation-accuracy epoch's parameters and the per-epoch curve.
    A video id listed twice in either split raises UsageError, a video
    without labels DataValidationError."""
    check_unique_ids(train_seqs, "the training set")
    check_unique_ids(val_seqs, "the validation set")
    train_ids = {s.video_id for s in train_seqs}
    if train_ids & {s.video_id for s in val_seqs}:
        raise UsageError("train and validation video ids overlap")
    if not train_seqs:
        raise UsageError("training set is empty")
    labelled = list(train_seqs) + list(val_seqs)
    for s in labelled:
        if s.labels is None:
            raise DataValidationError(f"video {s.video_id} has no labels")
    check_embed_dim(config, labelled)

    if len(train_seqs) < config.batch_size:
        log.warning("only %d video(s) for batch size %d; effective batch is smaller",
                    len(train_seqs), config.batch_size)

    transition = ssm.estimate_transition_matrix(
        [s.labels for s in train_seqs], taxonomy.n_phases, config.hmm_smoothing)
    model = init_model(config, taxonomy, substream(config.rng_seed, "init"),
                       transition)
    run = TrainRun(config, model, nn.Adam(model.params, config.learning_rate))

    best_epoch, best_acc = 0, float("nan")     # nan: no epoch, or no validation
    best_params = {k: v.copy() for k, v in model.params.items()}
    log_fh = open(log_path, "w") if log_path else None
    try:
        for _ in range(config.epochs):
            run.hmm_underflows = 0
            t0 = time.perf_counter()
            _refresh_caches(run, train_seqs)
            t1 = time.perf_counter()
            train_epoch(run, train_seqs)
            t2 = time.perf_counter()
            val_acc = dataset_frame_accuracy(model, val_seqs) if val_seqs else None
            t3 = time.perf_counter()
            norms = np.asarray(run.grad_norms)
            entry = EpochLog(
                run.epoch, float(run.last_epoch_loss), val_acc, t3 - t0,
                train_s=t2 - t1, refresh_s=t1 - t0, validate_s=t3 - t2,
                train_fps=sum(s.n_frames for s in train_seqs) / (t2 - t1),
                grad_norm_p50=float(np.median(norms)),
                clipped_frac=float((norms > config.grad_clip).mean()),
                hmm_underflows=run.hmm_underflows,
                stat_ranges=run.stat_ranges.summary())
            run.curve.append(entry)
            if log_fh:
                log_fh.write(json.dumps(asdict(entry), allow_nan=False) + "\n")
                log_fh.flush()
            if ckpt_dir is not None:
                save_model(model, f"{ckpt_dir}/epoch_{run.epoch:03d}.ckpt")
            if not val_seqs or best_epoch == 0 or val_acc > best_acc:
                best_acc = best_acc if val_acc is None else val_acc
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
