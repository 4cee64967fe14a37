"""The SSM-LSTM temporal model and the two ways to run it: online, one
frame at a time (`InferenceSession`), and offline, many videos in lockstep
(the engine behind `infer_dataset`, training, the cache refresh and
validation); plus the two-pass acausal variant and post-hoc HMM smoothing.

Per-frame step (strict causality): the statistic consumed at frame t was
aggregated from frames < t only; the new likelihood m_t updates the
aggregators after the head fires. `StepKernel` is the one implementation of
this step, and every path runs it: `InferenceSession` (one stream, no batch
axis, no tape), the loss-free lockstep forward and the taped training
window. It binds once the input rows it runs on, each aggregator's slot in
them (`ssm.SsmExtractor.bind`), an `nn.WindowRecorder` over the rows and
the (W, ..., N) likelihood array `ms`. Each frame the aggregators write
their statistic straight into their slots of the float32 row, the
recorder runs the cell and the head on the row, the softmax writes m_t into
`ms`, and m_t updates the aggregators in place. Taped and untaped differ
only in the arrays the cell writes to: untaped, the LSTM state and one set
of gate buffers are overwritten in place; taped, every frame keeps its own
for the backward pass.

Lockstep engine. The frames of a video run in order, but videos are
independent, so the engine steps B videos side by side, one frame of each
per step: one (B, D) @ (D, 4H) cell matmul and batched statistics with one
row per stream, and one window runner, `_run_windows`, for training and
`_lockstep_probs`. The latter runs whole videos longest first, so the live
streams shrink to a prefix as videos end; rows past the end of a shorter
window see zero embeddings and feed the uniform vector to the statistics.
Rows are summed in another order than one video at a time, so the engine
matches `infer_video` to float rounding. At B=1 it is bit-equal to
streaming inference by construction: the same kernel runs the same
operations on the same values, with a batch axis of one.

Acausal rows. Pass 2 reads the acausal statistic of each video's complete
pass-1 stream. `PhaseModel.acausal_rows` derives it for all videos of a
refresh, validation or `infer_dataset` call at once
(`ssm.acausal_feature_streams` over each aggregator's offline `streams`)
and writes each video's rows straight into the model dtype. Streaming is
causal and leaves the a block zero: only `_run_windows` fills it, so pass 2
always runs in lockstep (at B=1 in `infer_video_acausal`). Post-hoc
smoothing runs the same offline HMM filter over one stream.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import nn, ssm
from .core import (
    MODEL_DTYPE,
    DataValidationError,
    ExperimentConfig,
    FeatureSequence,
    PhaseTaxonomy,
    UsageError,
    softmax,
    substream,
)

TRANSITION_FILENAME = "transition.csv"


@dataclass
class PhaseModel:
    """Parameter bundle: config, taxonomy, LSTM/head weights and the
    transition matrix (estimated from training labels when hmm is enabled),
    plus the one definition of the LSTM input [v | s | a] (`blocks`,
    `acausal_rows`) that streaming and training both write through."""

    config: ExperimentConfig
    taxonomy: PhaseTaxonomy
    params: dict[str, np.ndarray]
    transition: ssm.TransitionMatrix | None = None

    @property
    def n_phases(self) -> int:
        return self.taxonomy.n_phases

    @cached_property
    def blocks(self) -> tuple[slice, slice, slice]:
        """Column slices of the visual embedding v, the causal statistic s
        and the acausal statistic a (empty in causal configs). The statistic
        width is the extractor's `dim`, cached here because the training
        engine reads the layout every window."""
        E = self.config.embed_dim
        S = self.new_extractor().dim
        end = E + S * (2 if self.config.acausal else 1)
        return slice(0, E), slice(E, E + S), slice(E + S, end)

    @cached_property
    def stat_groups(self) -> dict[str, slice]:
        """Input columns of each statistic group: each enabled aggregator's
        block of s (csl, gabor, hmm) and, in acausal configs, all of a
        ("acausal")."""
        start = self.blocks[1].start
        groups = {kind: slice(start + cols.start, start + cols.stop)
                  for kind, cols in self.new_extractor().columns.items()}
        if self.config.acausal:
            groups["acausal"] = self.blocks[2]
        return groups

    @property
    def input_dim(self) -> int:
        return self.blocks[2].stop

    def acausal_rows(self, pass1_probs: list[np.ndarray]) -> list[np.ndarray]:
        """The a block of every frame of each video: the acausal statistic
        rows of its pass-1 likelihoods, all videos in one call, each
        written straight into an array of the model dtype."""
        return ssm.acausal_feature_streams(self.new_extractor(), pass1_probs,
                                           MODEL_DTYPE)

    def zero_state(self, batch: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Zero LSTM state (h, c), `batch` rows or none, in the dtype of the
        step's arithmetic: float32 inputs with this model's parameters."""
        dtype = nn.cell_dtype(self.params, MODEL_DTYPE)
        shape = (() if batch is None else (batch,)) + (self.config.hidden_dim,)
        return np.zeros(shape, dtype), np.zeros(shape, dtype)

    def new_extractor(self, batch: int | None = None) -> ssm.SsmExtractor:
        """Aggregators of this model's statistic stream; `batch=B` runs B
        streams in lockstep."""
        cfg = self.config
        bank = None
        if "gabor" in cfg.enabled_ssm_features:
            bank = ssm.GaborBank.build(cfg.gabor_num_scales, cfg.gabor_scale_min,
                                       cfg.gabor_scale_max)
        return ssm.SsmExtractor(
            self.n_phases, cfg.enabled_ssm_features, cfg.csl_levels,
            gabor_bank=bank, transition=self.transition, batch=batch)


def init_model(config: ExperimentConfig, taxonomy: PhaseTaxonomy,
               rng: np.random.Generator | None = None,
               transition: ssm.TransitionMatrix | None = None) -> PhaseModel:
    if rng is None:
        rng = substream(config.rng_seed, "init")
    if transition is None and "hmm" in config.enabled_ssm_features:
        transition = ssm.TransitionMatrix.uniform(taxonomy.n_phases)
    model = PhaseModel(config, taxonomy, {}, transition)
    model.params = nn.init_params(model.input_dim, config.hidden_dim,
                                  taxonomy.n_phases, rng)
    return model


class StepKernel:
    """The per-frame step (see the module doc), bound once to the input
    rows `xs` it runs on: (W, D) for one stream without a batch axis,
    (W, B, D) for B streams in lockstep (built by `_run_windows`, the only
    writer of the acausal block). The embedding and acausal blocks of row k
    are the caller's. `step(k)` writes the statistic into row k through the
    extractor's bound slots, runs `recorder.step(k)` (the LSTM cell and the
    head), writes the softmax into `ms[k]` (W, ..., N), updates the
    extractor with it and returns `ms[k]`.

    The `recorder` (an `nn.WindowRecorder`) starts from the state `h`, `c`
    (from `PhaseModel.zero_state`, or the state a previous kernel left).
    Untaped, it updates `h`, `c` and one set of gate buffers in place;
    taped, it keeps every frame's arrays for `nn.window_backward`. Nothing
    else differs. In lockstep, a row past its window length in `lengths`
    feeds the uniform vector to the aggregators, which cannot underflow the
    HMM filter."""

    def __init__(self, model: PhaseModel, extractor: ssm.SsmExtractor,
                 xs: np.ndarray, h: np.ndarray, c: np.ndarray,
                 lengths: np.ndarray | None = None, taped: bool = False):
        self.extractor = extractor
        self.recorder = nn.WindowRecorder(model.params, xs, h, c, taped)
        self.ms = np.empty(xs.shape[:-1] + (model.n_phases,), self.recorder.cell.dtype)
        writes = extractor.bind(xs[..., model.blocks[1]])
        self._frames = [(m, [(write, slot[k]) for write, slot in writes])
                        for k, m in enumerate(self.ms)]
        self.lengths = lengths
        self._ended_from = (int(lengths.min()) if writes and lengths is not None
                            else len(xs))
        self._uniform = MODEL_DTYPE(1.0 / model.n_phases)

    def step(self, k: int = 0) -> np.ndarray:
        m, writes = self._frames[k]
        for write, slot in writes:
            write(slot)
        softmax(self.recorder.step(k), out=m)
        if k < self._ended_from:
            self.extractor.update(m)
        else:
            self.extractor.update(np.where((self.lengths <= k)[:, None], self._uniform, m))
        return m


class InferenceSession:
    """Single-video streaming state: LSTM state (zeroed), SSM aggregators
    (zero history), the input row [v | s | a] and the likelihood stream
    emitted so far; frame t is the next one, t = len(probs). Each step runs
    the `StepKernel` bound to the input row.

    Streaming is causal: in acausal configs the a block stays zero, the
    role of pass 1 of the offline two-pass scheme.
    """

    def __init__(self, model: PhaseModel):
        self.model = model
        self._x = np.zeros(model.input_dim, MODEL_DTYPE)
        self._v = self._x[model.blocks[0]]
        self._v_shape = (model.config.embed_dim,)
        self.extractor = model.new_extractor()
        self.h, self.c = model.zero_state()     # the kernel updates them in place
        self._kernel = StepKernel(model, self.extractor, self._x[None], self.h, self.c)
        self.probs: list[np.ndarray] = []

    def step(self, v: np.ndarray) -> np.ndarray:
        """Advance one frame: returns the phase likelihood vector m_t."""
        if v.shape != self._v_shape:
            raise DataValidationError(
                f"embedding dimension mismatch at frame {len(self.probs)}: "
                f"got {v.shape}, expected {self._v_shape}")
        self._v[:] = v
        m = self._kernel.step().copy()
        self.probs.append(m)
        return m


@dataclass
class InferenceResult:
    video_id: str
    probs: np.ndarray                       # (T, N) float32
    labels: np.ndarray                      # (T,) argmax phase ids
    pass1_probs: np.ndarray | None = None   # acausal mode: the causal pass


def infer_video(model: PhaseModel, seq: FeatureSequence) -> InferenceResult:
    """Causal streaming inference over one video, strictly left-to-right."""
    session = InferenceSession(model)
    for v in seq.features:
        session.step(v)
    probs = np.stack(session.probs)
    return InferenceResult(seq.video_id, probs, np.argmax(probs, axis=1))


def infer_video_acausal(model: PhaseModel, seq: FeatureSequence) -> InferenceResult:
    """Offline two-pass inference: pass 1 streams causally (acausal channels
    zero), pass 2 reruns the model in lockstep at B=1 (bit-equal to
    streaming) on the acausal statistics of the pass-1 likelihood stream."""
    if not model.config.acausal:
        raise UsageError("model config is causal; acausal inference unavailable")
    pass1 = infer_video(model, seq)
    # the one-stream case of `PhaseModel.acausal_rows`
    rows = ssm.acausal_feature_stream(model.new_extractor(), pass1.probs)
    (probs,), _ = _lockstep_probs(model, [seq], [rows])
    return InferenceResult(seq.video_id, probs, np.argmax(probs, axis=1),
                           pass1_probs=pass1.probs)


def run_inference(model: PhaseModel, seq: FeatureSequence) -> InferenceResult:
    if model.config.acausal:
        return infer_video_acausal(model, seq)
    return infer_video(model, seq)


def worker_thread_count() -> int:
    """The machine's core count. No inference runs on threads; perfbench
    reads this to size the host-speed bursts around its infer units."""
    return os.cpu_count() or 1


def _run_windows(model: PhaseModel, extractor: ssm.SsmExtractor, h, c, windows,
                 taped: bool = False) -> StepKernel:
    """Lockstep forward of aligned windows, one row per stream, from the
    state `h`, `c` and the extractor's streams: builds their inputs
    [v | s | a] (width, B, input_dim), width the longest window and frames
    past a window's end zero, and steps a `StepKernel` over them, which it
    returns. `windows` holds (seq, start, stop, acausal_rows or None) per
    row; None feeds zeros to the acausal channels (pass 1)."""
    vb, _, ab = model.blocks
    lengths = np.array([stop - start for _, start, stop, _ in windows])
    xs = np.zeros((int(lengths.max()), len(windows), model.input_dim), MODEL_DTYPE)
    for j, (seq, start, stop, acausal) in enumerate(windows):
        xs[:stop - start, j, vb] = seq.features[start:stop]
        if acausal is not None:
            xs[:stop - start, j, ab] = acausal[start:stop]
    kernel = StepKernel(model, extractor, xs, h, c, lengths, taped)
    for k in range(len(xs)):
        kernel.step(k)
    return kernel


def _lockstep_probs(model: PhaseModel, seqs: list[FeatureSequence],
                    acausal: list | None = None) -> tuple[list[np.ndarray], int]:
    """Loss-free lockstep forward over whole videos, one `seq_len_bptt`
    window at a time with state carried across windows: the untaped
    `StepKernel`, whose arithmetic is the training forward's. Returns the
    (T, N) probabilities of each sequence, in input order, and the HMM
    underflow count. `acausal` holds each sequence's acausal rows (pass 2);
    without it an acausal model sees zeros there (pass 1)."""
    if not seqs:
        return [], 0
    width = model.config.seq_len_bptt
    # longest first, so the streams still running are always a prefix
    order = sorted(range(len(seqs)), key=lambda j: -seqs[j].n_frames)
    dtype = model.params["head_b"].dtype
    probs = [np.empty((s.n_frames, model.n_phases), dtype) for s in seqs]
    live = len(order)
    h, c = model.zero_state(live)
    extractor = model.new_extractor(batch=live)
    for start in range(0, seqs[order[0]].n_frames, width):
        n = sum(1 for j in order[:live] if seqs[j].n_frames > start)
        if n < live:
            live = n
            # leading rows: views the kernel keeps updating in place
            h, c, extractor = h[:n], c[:n], extractor.take(np.arange(n))
        windows = [(seqs[j], start, min(start + width, seqs[j].n_frames),
                    None if acausal is None else acausal[j]) for j in order[:n]]
        kernel = _run_windows(model, extractor, h, c, windows)
        for col, (j, n_k) in enumerate(zip(order, kernel.lengths)):
            probs[j][start:start + n_k] = kernel.ms[:n_k, col]
    return probs, extractor.underflow_count


def _offline_probs(model: PhaseModel, seqs: list[FeatureSequence]):
    """The evaluated pass of every sequence, all run in lockstep: the causal
    pass, or in acausal mode pass 2 on the acausal rows derived from pass 1.
    Returns (probs, pass-1 probs, acausal rows or None, underflows)."""
    pass1, underflows = _lockstep_probs(model, seqs)
    if not model.config.acausal:
        return pass1, pass1, None, underflows
    rows = model.acausal_rows(pass1)
    probs, more = _lockstep_probs(model, seqs, rows)
    return probs, pass1, rows, underflows + more


def infer_dataset(model: PhaseModel, seqs) -> dict[str, InferenceResult]:
    """Inference over many videos in lockstep, keyed by video id; acausal
    models run both passes and fill `pass1_probs`. Videos enter in id order,
    so the input order never changes the output. The probabilities agree
    with `infer_video`/`infer_video_acausal` to float rounding."""
    seqs = sorted(seqs, key=lambda s: s.video_id)
    probs, pass1, _, _ = _offline_probs(model, seqs)
    acausal = model.config.acausal
    return {s.video_id: InferenceResult(s.video_id, p, np.argmax(p, axis=1),
                                        pass1[j] if acausal else None)
            for j, (s, p) in enumerate(zip(seqs, probs))}


def hmm_smooth_posthoc(probs: np.ndarray,
                       transition: ssm.TransitionMatrix) -> np.ndarray:
    """Offline smoothing pass over an emitted likelihood stream: forward
    filter under `transition`, then per-frame posterior argmax. Distinct from
    the hmm SSM feature (this never feeds back into the model)."""
    (marg,) = ssm.HmmFilterState(transition).streams([probs])
    return np.argmax(marg, axis=1)


def save_model(model: PhaseModel, ckpt_path) -> None:
    extra = {
        "config": model.config.to_dict(),
        "taxonomy": model.taxonomy.to_dict(),
        "has_transition": model.transition is not None,
    }
    nn.save_checkpoint(ckpt_path, model.params, extra)
    if model.transition is not None:
        model.transition.save_csv(
            os.path.join(os.path.dirname(os.path.abspath(ckpt_path)), TRANSITION_FILENAME),
            model.taxonomy)


def load_model(ckpt_path) -> PhaseModel:
    params, extra = nn.load_checkpoint(ckpt_path)
    try:
        config = ExperimentConfig.from_dict(extra["config"])
        taxonomy = PhaseTaxonomy.from_dict(extra["taxonomy"])
    except (KeyError, TypeError, UsageError) as e:
        raise DataValidationError(
            f"bad checkpoint header in {ckpt_path}: {type(e).__name__}: {e}") from None
    transition = None
    if extra.get("has_transition"):
        tpath = os.path.join(os.path.dirname(os.path.abspath(ckpt_path)), TRANSITION_FILENAME)
        if not os.path.exists(tpath):
            raise DataValidationError(
                f"checkpoint expects a transition matrix but {tpath} is missing")
        transition = ssm.TransitionMatrix.load_csv(tpath)
    model = PhaseModel(config, taxonomy, params, transition)
    for name, shape in nn.param_shapes(model.input_dim, config.hidden_dim,
                                       taxonomy.n_phases).items():
        if name not in params:
            raise DataValidationError(f"checkpoint {ckpt_path}: missing block {name}")
        if params[name].shape != shape:
            raise DataValidationError(f"checkpoint {ckpt_path}: block {name} has shape "
                                      f"{params[name].shape}, config implies {shape}")
        if not np.isfinite(params[name]).all():
            raise DataValidationError(f"checkpoint {ckpt_path}: block {name} holds a "
                                      "value that is not finite")
    return model
