"""The SSM-LSTM temporal model and the two ways to run it: online, one
frame at a time (`InferenceSession`), and offline, many videos in lockstep
(the engine behind `infer_dataset`, training, the cache refresh and
validation); plus the two-pass acausal variant and post-hoc HMM smoothing.

Per-frame step (strict causality): the statistic consumed at frame t was
aggregated from frames < t only; the new likelihood m_t updates the
aggregators after the head fires. `StepKernel` is the one implementation of
this step, and every path runs it: `InferenceSession` (one stream, no batch
axis), the loss-free lockstep forward and the training window. All a
frame calls is bound when the kernel is built: the input rows, each
aggregator's `write` into its slot of one float64 staging row
(`ssm.SsmExtractor.bind`) and its `update` (`SsmExtractor.updates`), an
`nn.WindowRecorder` over the rows and the (W, ..., N) likelihood array
`ms`. Each frame the aggregators write their statistic into the staging
row, cast once into the float32 input row; the recorder runs the cell and
the head on the row, keeping every frame's arrays for the backward pass;
the softmax writes m_t into `ms`, and m_t updates each aggregator in
place. The operations and operands are the composed step's, so are the
bits.

Lockstep engine. The frames of a video run in order, but videos are
independent, so the engine steps B videos side by side, one frame of each
per step: one cell input product (the recorder's column blocks) and
batched statistics with one row per stream. One runner, `LockstepRunner`,
serves training and `_lockstep_probs`. It holds the state of every
stream (an extractor, h and c) and gathers the rows of a stream set once,
when the set changes; it then binds one input buffer and one `StepKernel`
to that set and keeps them while the set and the window width stay the
same, so a window only refills the v and a blocks and steps.
`_lockstep_probs` runs whole videos longest first, so the live streams
shrink to a prefix as videos end; rows past the end of a shorter window
see zero embeddings and feed the uniform vector to the statistics. Rows
are summed in another order than one video at a time, so the engine
matches `infer_video` to float rounding. At B=1 it is bit-equal to
streaming inference by construction: the same kernel runs the same
operations on the same values, with a batch axis of one.

Two passes. Pass 2 of an acausal model reads, in the a block, the acausal
rows of each video's complete pass-1 likelihoods; pass 1 leaves it zero,
as streaming does. The cell multiplies the a block only on the rows that
read it (`StepKernel`'s `a_from`): streaming and pass 1 run the [v | s]
product alone, pass 2 adds the a product on every row, and a training
batch on its pass-2 rows. Only `LockstepRunner` fills the a block, so the
one driver of both passes is `_offline_probs` (behind `infer_dataset`,
validation and the cache refresh): `_pass1` runs pass 1 in lockstep and
derives the rows of all videos at once (`ssm.SsmExtractor.acausal_rows`,
straight into the model dtype), then pass 2 runs. The first epoch's cache
step runs `_pass1` alone; `run_inference` and `infer_video_acausal` are
one video of `infer_dataset`. Post-hoc smoothing runs the same offline
HMM filter over one stream.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property
from math import isfinite

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
    softmax,
    substream,
)


@dataclass
class PhaseModel:
    """Parameter bundle: config, taxonomy, LSTM/head weights and the
    transition matrix (`fit` estimates it from the training labels for every
    arm; the hmm statistic and `infer --hmm-smooth` read it), plus the one
    definition of the LSTM input [v | s | a] (`blocks`) that streaming and
    training both write through."""

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

    def zero_state(self, batch: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Zero LSTM state (h, c), `batch` rows or none, in the dtype of the
        step's arithmetic: float32 inputs with this model's parameters."""
        dtype = nn.cell_dtype(self.params, MODEL_DTYPE)
        shape = (() if batch is None else (batch,)) + (self.config.hidden_dim,)
        return np.zeros(shape, dtype), np.zeros(shape, dtype)

    @cached_property
    def gabor_bank(self) -> ssm.GaborBank | None:
        """The Gabor filter bank of the config (None without the gabor
        feature), built once: every extractor of this model shares it."""
        cfg = self.config
        if "gabor" not in cfg.enabled_ssm_features:
            return None
        return ssm.GaborBank.build(cfg.gabor_num_scales, cfg.gabor_scale_min,
                                   cfg.gabor_scale_max)

    def new_extractor(self, batch: int | None = None) -> ssm.SsmExtractor:
        """Aggregators of this model's statistic stream; `batch=B` runs B
        streams in lockstep."""
        cfg = self.config
        return ssm.SsmExtractor(
            self.n_phases, cfg.enabled_ssm_features, cfg.csl_levels,
            gabor_bank=self.gabor_bank, transition=self.transition, batch=batch)


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
    (W, B, D) for B streams in lockstep (bound by `LockstepRunner`, the
    only writer of the acausal block). The embedding and acausal blocks of
    row k are the caller's. `step(k)` runs `forward(k)`, which writes the
    statistic into row k, runs `recorder.step(k)` (the LSTM cell and the
    head) and writes the softmax into `ms[k]` (W, ..., N), then `update(k)`,
    which feeds `ms[k]` to the aggregators, and returns `ms[k]`. A caller
    that checks m_t before the statistics see it runs the two halves.

    The `recorder` (an `nn.WindowRecorder`) starts from the state `h`, `c`
    (from `PhaseModel.zero_state`, or the state a previous window left) and
    keeps every frame's arrays for `nn.window_backward`. Its cell reads the
    a block on the rows from `a_from` on (none by default, as in streaming
    and pass 1): the other rows skip its product. In lockstep, a row past
    its window length (`set_lengths`) feeds the uniform vector to the
    aggregators, which cannot underflow the HMM filter."""

    def __init__(self, model: PhaseModel, extractor: ssm.SsmExtractor,
                 xs: np.ndarray, h: np.ndarray, c: np.ndarray, a_from: int | None = None):
        self.extractor = extractor
        self.a_from = a_from
        self.recorder = rec = nn.WindowRecorder(model.params, xs, h, c,
                                                model.blocks[2].start, a_from)
        self.ms = np.empty(xs.shape[:-1] + (model.n_phases,), rec.dtype)
        stat = xs[..., model.blocks[1]]
        self._stage = np.empty(stat.shape[1:])
        self._writes, self._updates = extractor.bind(self._stage), extractor.updates
        # per frame: its statistic columns and its likelihood row
        self._frames = list(zip(stat, self.ms))
        self._record = rec.step
        self.lengths = None
        self._ended_from = len(xs)
        self._uniform = MODEL_DTYPE(1.0 / model.n_phases)

    def set_lengths(self, lengths: np.ndarray) -> None:
        """The number of real frames of each row in the next window."""
        self.lengths, self._ended_from = lengths, int(lengths.min())

    def forward(self, k: int = 0) -> np.ndarray:
        stat, m = self._frames[k]
        for write, slot in self._writes:
            write(slot)
        np.copyto(stat, self._stage)
        return softmax(self._record(k), m)

    def update(self, k: int = 0) -> None:
        _, m = self._frames[k]
        if k >= self._ended_from:
            m = np.where((self.lengths <= k)[:, None], self._uniform, m)
        for update in self._updates:
            update(m)

    def step(self, k: int = 0) -> np.ndarray:
        m = self.forward(k)
        self.update(k)
        return m


class InferenceSession:
    """Single-video streaming state: LSTM state (zeroed), SSM aggregators
    (zero history), the input row [v | s | a] and the likelihood stream
    emitted so far; frame t is the next one, t = len(probs). Each step runs
    the one-frame `StepKernel` bound to the input row. The steps alternate
    the two state rows of its tape, frame t reading row t % 2 and writing
    the other, so `h` and `c` view row len(probs) % 2 and nothing is copied.
    A frame with a non-finite pre-activation or NaN likelihoods is refused
    before the aggregators see it and leaves the session as it was: a NaN
    anywhere in the input row makes every likelihood NaN, and an infinity
    makes every entry of the recorder's `z` infinite or NaN, so one element
    of each tells.

    Streaming is causal: in acausal configs the a block stays zero, the
    role of pass 1 of the offline two-pass scheme.
    """

    def __init__(self, model: PhaseModel):
        self.model = model
        self._x = np.zeros(model.input_dim, MODEL_DTYPE)
        self._v = self._x[model.blocks[0]]
        self._v_shape = (model.config.embed_dim,)
        self.extractor = model.new_extractor()
        kernel = StepKernel(model, self.extractor, self._x[None], *model.zero_state())
        self._forward, self._update = kernel.forward, kernel.update
        rec = kernel.recorder
        self._hs, self._cs, self._tape, self._z = rec.hs, rec.cs, rec.frames, rec.z
        # frame 0 reads state row 0 and writes row 1; its twin the reverse
        self._routes = (rec.frames[0], rec.frame(0, 1, 0))
        self.probs: list[np.ndarray] = []

    @property
    def h(self) -> np.ndarray:
        return self._hs[len(self.probs) & 1]

    @property
    def c(self) -> np.ndarray:
        return self._cs[len(self.probs) & 1]

    def step(self, v: np.ndarray) -> np.ndarray:
        """Advance one frame: returns the phase likelihood vector m_t. A
        non-finite pre-activation or likelihood raises DataValidationError
        if the embedding is not finite and NumericError otherwise."""
        t = len(self.probs)
        if v.shape != self._v_shape:
            raise DataValidationError(
                f"embedding dimension mismatch at frame {t}: "
                f"got {v.shape}, expected {self._v_shape}")
        self._v[:] = v
        self._tape[0] = self._routes[t & 1]
        m = self._forward(0)
        if not (isfinite(self._z[0]) and isfinite(m[0])):
            if not np.isfinite(v).all():
                raise DataValidationError(f"embedding at frame {t} is not finite")
            raise NumericError(
                f"the pre-activation or the likelihoods of frame {t} are not finite")
        self._update(0)
        m = m.copy()
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
    """Two-pass inference over one video (an acausal model only)."""
    if not model.config.acausal:
        raise UsageError("model config is causal; acausal inference unavailable")
    return infer_dataset(model, [seq])[seq.video_id]


def run_inference(model: PhaseModel, seq: FeatureSequence) -> InferenceResult:
    """One video of `infer_dataset`: at B=1 the lockstep engine is bit-equal
    to streaming, so a causal model gives `infer_video`'s result."""
    return infer_dataset(model, [seq])[seq.video_id]


def worker_thread_count() -> int:
    """The machine's core count. No inference runs on threads; perfbench
    reads this to size the host-speed bursts around its infer units."""
    return os.cpu_count() or 1


class LockstepRunner:
    """The lockstep forward of aligned windows over a store of S streams:
    an extractor of S streams and their LSTM state `h`, `c` (S, H).
    `run(rows, windows)` steps the next window of the store rows `rows`,
    one per window, and returns the `StepKernel` that ran it.

    It gathers the rows of a stream set (`SsmExtractor.take`, into
    `extractor`, `h`, `c`) only when `rows` change, scattering the previous
    set back first (`put`), and binds a new input buffer and kernel only
    then, when the window width changes or when the first row that reads
    acausal rows does (the kernel's `a_from`). In between, the tape's last
    state becomes its first, so the store's `h`, `c` are only read until a
    set is scattered back. A stream reads acausal rows in every window of
    its set or in none; then its a block keeps the buffer's zeros. Before
    the first `run`, the set is the store."""

    def __init__(self, model: PhaseModel, extractor: ssm.SsmExtractor,
                 h: np.ndarray, c: np.ndarray):
        self.model = model
        self._store = extractor, h, c
        self.extractor, self.h, self.c = extractor, h, c
        self._rows = None
        self._kernel: StepKernel | None = None

    @property
    def underflow_count(self) -> int:
        """HMM underflows of all streams so far (`take` and `put` carry the
        total with the set)."""
        return self.extractor.underflow_count

    def _state(self) -> tuple[np.ndarray, np.ndarray]:
        if self._kernel is None:
            return self.h, self.c
        rec = self._kernel.recorder
        return rec.hs[-1], rec.cs[-1]

    def _gather(self, rows: np.ndarray) -> None:
        store, h_all, c_all = self._store
        if self._rows is not None:
            h_all[self._rows], c_all[self._rows] = self._state()
            store.put(self._rows, self.extractor)
        self.extractor, self.h, self.c = store.take(rows), h_all[rows], c_all[rows]
        self._rows, self._kernel = rows, None

    def run(self, rows: np.ndarray, windows) -> StepKernel:
        """Step one window per stream of `rows`: `windows` holds (seq,
        start, stop, acausal_rows or None) per row, the width is the longest
        window's and frames past a window's end are zero."""
        if not np.array_equal(rows, self._rows):
            self._gather(rows)
        lengths = np.array([stop - start for _, start, stop, _ in windows])
        width = int(lengths.max())
        # the rows that read acausal rows are a suffix: the pass-2 rows of a
        # training batch, every row of a pass 2
        a_from = next((j for j, w in enumerate(windows) if w[3] is not None), None)
        kernel = self._kernel
        if kernel is None or len(kernel.ms) != width or kernel.a_from != a_from:
            xs = np.zeros((width, len(rows), self.model.input_dim), MODEL_DTYPE)
            kernel = self._kernel = StepKernel(self.model, self.extractor, xs,
                                               *self._state(), a_from)
        else:
            rec = kernel.recorder
            rec.hs[0], rec.cs[0] = rec.hs[-1], rec.cs[-1]
        xs = kernel.recorder.xs
        vb, _, ab = self.model.blocks
        for j, (seq, start, stop, acausal) in enumerate(windows):
            n = stop - start
            xs[:n, j, vb] = seq.features[start:stop]
            if acausal is not None:
                xs[:n, j, ab] = acausal[start:stop]
            if n < width:
                xs[n:, j] = 0.0
        kernel.set_lengths(lengths)
        for k in range(width):
            kernel.step(k)
        return kernel


def check_embed_dim(config: ExperimentConfig, seqs) -> None:
    """Refuse a video whose embeddings are not `config.embed_dim` wide
    (checked by `train.fit` and at the top of every offline pass)."""
    for s in seqs:
        if s.features.shape[-1] != config.embed_dim:
            raise DataValidationError(
                f"video {s.video_id} has {s.features.shape[-1]}-d embeddings, "
                f"but config embed_dim is {config.embed_dim}")


def check_unique_ids(seqs, what: str) -> None:
    """Refuse a video id that `seqs` (`what`) list more than once."""
    seen = set()
    for s in seqs:
        if s.video_id in seen:
            raise UsageError(f"video {s.video_id} is listed more than once in {what}")
        seen.add(s.video_id)


def _lockstep_probs(model: PhaseModel, seqs: list[FeatureSequence],
                    acausal: list | None = None) -> tuple[list[np.ndarray], int]:
    """Loss-free lockstep forward over whole videos, one `seq_len_bptt`
    window at a time with state carried across windows: the `StepKernel`
    of the training forward without the loss. Returns the
    (T, N) probabilities of each sequence, in input order, and the HMM
    underflow count. `acausal` holds each sequence's acausal rows (pass 2);
    without it an acausal model sees zeros there (pass 1)."""
    check_embed_dim(model.config, seqs)
    if not seqs:
        return [], 0
    width = model.config.seq_len_bptt
    # longest first, so the streams still running are always a prefix
    order = sorted(range(len(seqs)), key=lambda j: -seqs[j].n_frames)
    dtype = model.params["head_b"].dtype
    probs = [np.empty((s.n_frames, model.n_phases), dtype) for s in seqs]
    # store row i is the i-th longest video
    runner = LockstepRunner(model, model.new_extractor(batch=len(seqs)),
                            *model.zero_state(len(seqs)))
    live = np.arange(len(seqs))
    for start in range(0, seqs[order[0]].n_frames, width):
        n = sum(seqs[j].n_frames > start for j in order)
        windows = [(seqs[j], start, min(start + width, seqs[j].n_frames),
                    None if acausal is None else acausal[j]) for j in order[:n]]
        kernel = runner.run(live[:n], windows)
        for col, (j, n_k) in enumerate(zip(order, kernel.lengths)):
            probs[j][start:start + n_k] = kernel.ms[:n_k, col]
    return probs, runner.underflow_count


def _pass1(model: PhaseModel, seqs: list[FeatureSequence]):
    """Pass 1 of every sequence in lockstep and, in acausal mode, the
    acausal rows of its likelihoods in the model dtype (None in causal
    mode). Returns (pass-1 probs, rows, underflows), the underflows of the
    filter over the reversed streams included."""
    pass1, underflows = _lockstep_probs(model, seqs)
    if not model.config.acausal:
        return pass1, None, underflows
    extractor = model.new_extractor()
    rows = extractor.acausal_rows(pass1, MODEL_DTYPE)
    return pass1, rows, underflows + extractor.underflow_count


def _offline_probs(model: PhaseModel, seqs: list[FeatureSequence]):
    """The evaluated pass of every sequence, all run in lockstep: the causal
    pass, or in acausal mode pass 2 on the acausal rows derived from pass 1.
    Returns (probs, pass-1 probs, acausal rows or None, underflows)."""
    pass1, rows, underflows = _pass1(model, seqs)
    if rows is None:
        return pass1, pass1, None, underflows
    probs, more = _lockstep_probs(model, seqs, rows)
    return probs, pass1, rows, underflows + more


def infer_dataset(model: PhaseModel, seqs) -> dict[str, InferenceResult]:
    """Inference over many videos in lockstep, keyed by video id; acausal
    models run both passes and fill `pass1_probs`. Videos enter, and the
    result holds them, in id order, so the input order never changes the
    output. The probabilities agree with `infer_video` to float rounding,
    and equal its bits for one video. A video id listed twice raises
    UsageError."""
    seqs = sorted(seqs, key=lambda s: s.video_id)
    check_unique_ids(seqs, "the videos to infer")
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
    """One PHCK file: the parameters, and in the JSON header the config, the
    taxonomy and the transition matrix as float64 rows (null without one)."""
    extra = {
        "config": model.config.to_dict(),
        "taxonomy": model.taxonomy.to_dict(),
        "transition": None if model.transition is None else model.transition.a.tolist(),
    }
    nn.save_checkpoint(ckpt_path, model.params, extra)


def load_model(ckpt_path) -> PhaseModel:
    """The model of a `save_model` file. A header, a parameter block or a set
    of blocks that does not describe one model raises DataValidationError
    naming the file."""
    params, extra = nn.load_checkpoint(ckpt_path)
    try:
        config = ExperimentConfig.from_dict(extra["config"])
        taxonomy = PhaseTaxonomy.from_dict(extra["taxonomy"])
        rows, n = extra["transition"], taxonomy.n_phases
        if rows is None and "hmm" in config.enabled_ssm_features:
            raise ValueError("transition is null, but the hmm feature needs a matrix")
        if rows is not None and not (type(rows) is list and len(rows) == n and all(
                type(r) is list and len(r) == n and all(type(v) is float for v in r)
                for r in rows)):
            raise ValueError(f"transition must be {n} rows of {n} floats")
        transition = None if rows is None else ssm.TransitionMatrix(np.array(rows))
    except (KeyError, TypeError, ValueError, UsageError, DataValidationError) as e:
        raise DataValidationError(
            f"bad checkpoint header in {ckpt_path}: {type(e).__name__}: {e}") from None
    model = PhaseModel(config, taxonomy, params, transition)
    shapes = nn.param_shapes(model.input_dim, config.hidden_dim, taxonomy.n_phases)
    if unexpected := [name for name in params if name not in shapes]:
        raise DataValidationError(f"checkpoint {ckpt_path}: unexpected block "
                                  f"{unexpected[0]}")
    for name, shape in shapes.items():
        if name not in params:
            raise DataValidationError(f"checkpoint {ckpt_path}: missing block {name}")
        if params[name].shape != shape:
            raise DataValidationError(f"checkpoint {ckpt_path}: block {name} has shape "
                                      f"{params[name].shape}, config implies {shape}")
        if not np.isfinite(params[name]).all():
            raise DataValidationError(f"checkpoint {ckpt_path}: block {name} holds a "
                                      "value that is not finite")
    return model
