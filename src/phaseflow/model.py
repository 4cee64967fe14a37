"""The SSM-LSTM temporal model: streaming forward inference that interleaves
LSTM updates with sufficient-statistic aggregation, the offline two-pass
acausal variant, post-hoc HMM smoothing, and the plain-LSTM baseline.

Per-frame step order (strict causality): the statistic consumed at frame t
was aggregated from frames < t only; the new likelihood m_t updates the
aggregators after the head fires.
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

    @property
    def input_dim(self) -> int:
        return self.blocks[2].stop

    def acausal_rows(self, pass1_probs: np.ndarray) -> np.ndarray:
        """The a block of every frame of a video: the acausal statistic
        stream of its pass-1 likelihoods, in the model dtype."""
        return ssm.acausal_feature_stream(
            self.new_extractor(), pass1_probs).astype(MODEL_DTYPE)

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


class InferenceSession:
    """Single-video streaming state: LSTM state (zeroed), SSM aggregators
    (zero history), the input row [v | s | a] and the likelihood stream
    emitted so far; frame t is the next one, t = len(probs).

    In acausal configs row t of `acausal_features` fills the a block; a
    session created without them keeps it zero (the role of pass 1 of the
    offline two-pass scheme).
    """

    def __init__(self, model: PhaseModel,
                 acausal_features: np.ndarray | None = None):
        if acausal_features is not None and not model.config.acausal:
            raise UsageError("acausal features supplied to a causal-config session")
        self.model = model
        self.h, self.c = nn.zero_state(model.config.hidden_dim)
        self.extractor = model.new_extractor()
        self._blocks = model.blocks
        width = self._blocks[2].stop - self._blocks[2].start
        if acausal_features is not None and acausal_features.shape[1:] != (width,):
            raise DataValidationError(f"acausal features must be (T, {width}), "
                                      f"got {acausal_features.shape}")
        self.acausal_features = acausal_features
        self._x = np.zeros(model.input_dim, MODEL_DTYPE)
        self.probs: list[np.ndarray] = []

    def step(self, v: np.ndarray) -> np.ndarray:
        """Advance one frame: returns the phase likelihood vector m_t."""
        if v.shape != (self.model.config.embed_dim,):
            raise DataValidationError(
                f"embedding dimension mismatch at frame {len(self.probs)}: "
                f"got {v.shape}, expected ({self.model.config.embed_dim},)")
        x, (vb, sb, ab) = self._x, self._blocks
        x[vb] = v
        x[sb] = self.extractor.feature()
        if self.acausal_features is not None:
            x[ab] = self.acausal_features[len(self.probs)]
        self.h, self.c = nn.lstm_step(self.model.params, self.h, self.c, x)
        m = softmax(nn.head_forward(self.model.params, self.h))
        self.extractor.update(m)
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
    zero), pass 2 reruns the model with acausal statistics computed from the
    pass-1 likelihood stream."""
    if not model.config.acausal:
        raise UsageError("model config is causal; acausal inference unavailable")
    pass1 = infer_video(model, seq)
    session = InferenceSession(model, acausal_features=model.acausal_rows(pass1.probs))
    for v in seq.features:
        session.step(v)
    probs = np.stack(session.probs)
    return InferenceResult(seq.video_id, probs, np.argmax(probs, axis=1),
                           pass1_probs=pass1.probs)


def run_inference(model: PhaseModel, seq: FeatureSequence) -> InferenceResult:
    if model.config.acausal:
        return infer_video_acausal(model, seq)
    return infer_video(model, seq)


def worker_thread_count() -> int:
    """Worker cap from PHASEFLOW_THREADS (default: machine cores)."""
    raw = os.environ.get("PHASEFLOW_THREADS", "").strip()
    if raw:
        try:
            return max(1, int(raw))
        except ValueError:
            raise UsageError(f"PHASEFLOW_THREADS must be an integer, got {raw!r}") from None
    return os.cpu_count() or 1


def infer_dataset(model: PhaseModel, seqs,
                  max_workers: int | None = None) -> dict[str, InferenceResult]:
    """Run inference over many videos, optionally on worker threads. Videos
    are independent and results merge keyed by video id, so the thread count
    never changes the output."""
    seqs = sorted(seqs, key=lambda s: s.video_id)
    if max_workers is None:
        max_workers = worker_thread_count()
    if max_workers <= 1 or len(seqs) <= 1:
        return {s.video_id: run_inference(model, s) for s in seqs}
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=max_workers) as pool:
        results = list(pool.map(lambda s: run_inference(model, s), seqs))
    return {s.video_id: r for s, r in zip(seqs, results)}


def hmm_smooth_posthoc(probs: np.ndarray,
                       transition: ssm.TransitionMatrix) -> np.ndarray:
    """Offline smoothing pass over an emitted likelihood stream: forward
    filter under `transition`, then per-frame posterior argmax. Distinct from
    the hmm SSM feature (this never feeds back into the model)."""
    marg = ssm.hmm_forward_marginals(transition, np.asarray(probs, dtype=np.float64))
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
    missing = set(nn.PARAM_BLOCKS) - set(params)
    if missing:
        raise DataValidationError(f"checkpoint missing parameter blocks: {sorted(missing)}")
    H, N = config.hidden_dim, taxonomy.n_phases
    for name, shape in (("lstm_wx", (model.input_dim, 4 * H)), ("lstm_wh", (H, 4 * H)),
                        ("lstm_b", (4 * H,)), ("head_w", (H, N)), ("head_b", (N,))):
        if params[name].shape != shape:
            raise DataValidationError(f"checkpoint {ckpt_path}: block {name} has shape "
                                      f"{params[name].shape}, config implies {shape}")
    return model
