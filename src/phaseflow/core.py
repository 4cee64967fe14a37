"""Shared domain types: phase taxonomies, feature sequences, probability
vectors and the experiment configuration.

Configurations and taxonomies are immutable; a validated sequence's arrays
are read-only.
Phase ids are 0-based everywhere, including on disk.
"""

from __future__ import annotations

import contextlib
import io
import os
import threading
import zlib
from dataclasses import dataclass, fields, replace

import numpy as np

MODEL_DTYPE = np.float32

MGH100_PHASES = (
    "Port placement",
    "Fundus retraction",
    "Release GB peritoneum",
    "Dissection of Calot's triangle",
    "Checkpoint 1",
    "Clip Cystic Artery",
    "Divide Cystic Artery",
    "Clip Cystic Duct",
    "Divide Cystic Duct",
    "Checkpoint 2",
    "Remove GB from liver bed",
    "Bagging",
    "Other step",
)

CHOLEC80_PHASES = (
    "Preparation",
    "Calot Triangle Dissection",
    "Clipping and Cutting",
    "Gallbladder Dissection",
    "Gallbladder Packaging",
    "Cleaning and Coagulation",
    "Gallbladder Retraction",
)


class PhaseflowError(Exception):
    """Base class for all package errors."""


class DataValidationError(PhaseflowError):
    """Malformed input data: bad shapes, labels out of range, broken files."""


class NumericError(PhaseflowError):
    """Non-finite values where finite ones are required."""


class UsageError(PhaseflowError):
    """Bad arguments / misuse of an interface."""


@dataclass(frozen=True)
class PhaseTaxonomy:
    """Ordered set of phase labels; index in `names` is the phase id."""

    names: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "names", tuple(self.names))
        if len(self.names) < 2:
            raise DataValidationError("taxonomy needs at least 2 phases")
        if len(set(self.names)) != len(self.names):
            raise DataValidationError("phase names must be unique")

    @property
    def n_phases(self) -> int:
        return len(self.names)

    @property
    def phases(self) -> tuple[tuple[int, str], ...]:
        return tuple(enumerate(self.names))

    @classmethod
    def mgh100(cls) -> "PhaseTaxonomy":
        return cls(MGH100_PHASES)

    @classmethod
    def cholec80(cls) -> "PhaseTaxonomy":
        return cls(CHOLEC80_PHASES)

    def to_dict(self) -> dict:
        return {str(i): name for i, name in enumerate(self.names)}

    @classmethod
    def from_dict(cls, d: dict) -> "PhaseTaxonomy":
        try:
            ids = sorted(int(k) for k in d)
        except ValueError as e:
            raise DataValidationError(f"taxonomy keys must be integers: {e}") from None
        if ids != list(range(len(ids))):
            raise DataValidationError(f"taxonomy ids not contiguous from 0: {ids}")
        return cls(tuple(d[str(i)] for i in ids))


@dataclass
class FeatureSequence:
    """One video's stream of visual embeddings plus optional per-frame labels.

    `features` is (T, D) float32; `labels` is (T,) int or None at inference.
    """

    video_id: str
    fps: float
    features: np.ndarray
    labels: np.ndarray | None = None
    source_seed: int | None = None

    @property
    def n_frames(self) -> int:
        return self.features.shape[0]

    @property
    def embed_dim(self) -> int:
        return self.features.shape[1]


def validate_sequence(seq: FeatureSequence, tax: PhaseTaxonomy) -> FeatureSequence:
    """Check all FeatureSequence invariants; freeze and return the sequence.

    Raises DataValidationError naming the first offending frame.
    """
    feats = np.asarray(seq.features)
    if feats.ndim != 2 or feats.shape[0] < 1 or feats.shape[1] < 1:
        raise DataValidationError(
            f"{seq.video_id}: features must be (T, D) with T,D >= 1, got {feats.shape}"
        )
    bad = ~np.isfinite(feats)
    if bad.any():
        frame = int(np.argwhere(bad)[0][0])
        raise DataValidationError(
            f"{seq.video_id}: non-finite feature value at frame {frame}"
        )
    if not 0 < seq.fps < np.inf:
        raise DataValidationError(f"{seq.video_id}: fps must be finite and positive")
    if seq.labels is not None:
        labels = np.asarray(seq.labels)
        if labels.shape != (feats.shape[0],):
            raise DataValidationError(
                f"{seq.video_id}: labels shape {labels.shape} does not match "
                f"T={feats.shape[0]}"
            )
        out = (labels < 0) | (labels >= tax.n_phases)
        if out.any():
            frame = int(np.argwhere(out)[0][0])
            raise DataValidationError(
                f"{seq.video_id}: label out of range at frame {frame} "
                f"(got {int(labels[frame])}, valid ids are 0..{tax.n_phases - 1})"
            )
        seq.labels = np.ascontiguousarray(labels, dtype=np.int64)
        seq.labels.setflags(write=False)
    seq.features = np.ascontiguousarray(feats, dtype=MODEL_DTYPE)
    seq.features.setflags(write=False)
    return seq


def read_bytes(path) -> bytes:
    """An input file's bytes; DataValidationError names one not readable."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as e:
        raise DataValidationError(f"cannot read {path}: {e.strerror}") from None


def read_text(path) -> str:
    """An input file's UTF-8 text; DataValidationError names the file and
    the line of bytes that are not UTF-8."""
    raw = read_bytes(path)
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as e:
        line = raw.count(b"\n", 0, e.start) + 1
        raise DataValidationError(f"{path}: line {line}: not UTF-8 text") from None


# what a table reader reports when only parse_csv_rows rejects the rows
CSV_UNREAD = "malformed rows: quotes, digit separators and non-ASCII text are not read"


def parse_csv_rows(text: str, dtype: np.dtype, usecols=None) -> np.ndarray | None:
    """The rows after the header line of CSV `text`, parsed by one
    `np.loadtxt` call into a 1-d array of the structured `dtype`, one field
    per column (or per entry of `usecols`; other columns are not read). Line
    ends may be \\r\\n, \\n or \\r, as for the csv module. Returns None when
    a field does not parse as its type, a row has another number of columns
    than the dtype (without `usecols`) or too few (with them), a row is blank
    (the csv module reads a row without fields, loadtxt would skip it), or
    the text holds a character loadtxt reads otherwise than the csv module
    with int() and float(): a quote (unquoted by csv only), the separators
    \\x1c-\\x1f (blanks to loadtxt only), anything outside ASCII (numpy 2.4
    parses "2\\u01fe" as the int 482)."""
    if not text.isascii() or any(c in text for c in '"\x1c\x1d\x1e\x1f'):
        return None
    code = np.frombuffer(text.encode(), dtype=np.uint8)
    cr, lf = code == 13, code == 10
    ends = np.count_nonzero(cr) + np.count_nonzero(lf) - np.count_nonzero(cr[:-1] & lf[1:])
    n_rows = ends + (not text.endswith(("\n", "\r"))) - 1
    head = text.rstrip("\r\n")
    if "\n" not in head and "\r" not in head:    # no data line: loadtxt would warn
        return np.zeros(0, dtype) if n_rows == 0 else None
    try:
        rows = np.loadtxt(io.StringIO(text, newline=None), dtype=dtype, delimiter=",",
                          comments=None, skiprows=1, usecols=usecols, ndmin=1)
    except ValueError:
        return None
    return rows if len(rows) == n_rows else None


@contextlib.contextmanager
def atomic_open(path, mode: str = "w", **kwargs):
    """Open a temporary file next to `path` for writing. When the block ends
    normally the file is flushed to disk and renamed over `path` in one step;
    when it raises, the temporary file is removed and `path` keeps its old
    content, so readers never see a partly written file."""
    path = os.fspath(path)
    tmp = f"{path}.{os.getpid()}.{threading.get_ident()}.tmp"
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def softmax(logits: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Numerically stable softmax over the last axis; always a valid simplex.
    Written into `out` when given (the same floats as a new array)."""
    z = np.asarray(logits)
    e = np.exp(np.subtract(z, z.max(axis=-1, keepdims=True), out=out), out=out)
    e /= e.sum(axis=-1, keepdims=True)
    return e


SSM_FEATURE_KINDS = ("csl", "gabor", "hmm")


@dataclass(frozen=True)
class ExperimentConfig:
    """All knobs of a training/inference run. Defaults follow the reference
    protocol: 64-d hidden state, length-8 truncated BPTT windows, batch 32,
    Adam at 0.0025 for 20 epochs."""

    hidden_dim: int = 64
    seq_len_bptt: int = 8
    batch_size: int = 32
    learning_rate: float = 0.0025
    epochs: int = 20
    embed_dim: int = 128
    enabled_ssm_features: tuple[str, ...] = ("csl", "gabor", "hmm")
    acausal: bool = False
    proximal_weight: float = 0.1
    rng_seed: int = 0
    csl_levels: tuple[float, ...] = (0.25, 0.5, 0.75)
    gabor_num_scales: int = 10
    gabor_scale_min: float = 10.0
    gabor_scale_max: float = 30.0
    hmm_smoothing: float = 1e-3
    grad_clip: float = 5.0

    def __post_init__(self):
        object.__setattr__(
            self, "enabled_ssm_features", tuple(self.enabled_ssm_features)
        )
        object.__setattr__(self, "csl_levels", tuple(float(v) for v in self.csl_levels))
        for f in fields(self):
            if ((isinstance(f.default, float) or f.name == "csl_levels")
                    and not np.isfinite(getattr(self, f.name)).all()):
                raise UsageError(f"config field {f.name} must be finite")
        for name in (
            "hidden_dim", "seq_len_bptt", "batch_size", "learning_rate",
            "epochs", "embed_dim", "gabor_num_scales", "gabor_scale_min",
            "gabor_scale_max", "hmm_smoothing", "grad_clip",
        ):
            if getattr(self, name) <= 0 and not (name == "epochs" and self.epochs == 0):
                raise UsageError(f"config field {name} must be positive")
        if self.proximal_weight < 0:
            raise UsageError("proximal_weight must be >= 0")
        unknown = set(self.enabled_ssm_features) - set(SSM_FEATURE_KINDS)
        if unknown:
            raise UsageError(f"unknown ssm features: {sorted(unknown)}")
        if len(set(self.enabled_ssm_features)) != len(self.enabled_ssm_features):
            raise UsageError("enabled_ssm_features contains duplicates")
        if self.gabor_scale_max < self.gabor_scale_min:
            raise UsageError("gabor_scale_max must be >= gabor_scale_min")

    def to_dict(self) -> dict:
        d = {}
        for f in fields(self):
            v = getattr(self, f.name)
            d[f.name] = list(v) if isinstance(v, tuple) else v
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        kwargs = {}
        for f in fields(cls):
            if f.name not in d:
                continue
            v = d[f.name]
            try:   # each value takes the type of the field's default
                v = type(f.default)(v)
                if f.name == "csl_levels":
                    v = tuple(float(x) for x in v)
            except (TypeError, ValueError, OverflowError):
                raise UsageError(f"config key {f.name}: invalid value {v!r}") from None
            kwargs[f.name] = v
        return cls(**kwargs)

    def with_overrides(self, **kwargs) -> "ExperimentConfig":
        return replace(self, **kwargs)


def substream(seed: int, name: str, *extra: int) -> np.random.Generator:
    """Named RNG sub-stream so one seed drives generator/init/batching
    independently and reproducibly."""
    key = zlib.crc32(name.encode("utf-8"))
    return np.random.default_rng(np.random.SeedSequence([int(seed), key, *map(int, extra)]))
