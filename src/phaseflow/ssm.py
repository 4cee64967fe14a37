"""Sufficient-statistic feature family: streaming aggregators that compress
the phase-likelihood history m_1..m_t into a fixed-size vector s_t.

Three feature kinds, concatenated in the fixed order csl | gabor | hmm:

* CSL: per phase, log(1 + count of past frames whose probability crossed each
  threshold level), plus an is-argmax counter channel.
* Gabor: magnitudes of a causal 1-D Gabor filter bank (10 scales) applied to
  each likelihood channel through a bounded ring buffer.
* HMM: forward-filtered posterior under a row-stochastic transition matrix.

Acausal variants run the same statistic over the time-reversed stream, so
the value at frame t summarizes frames strictly after t. That stream is
complete before the statistic is needed, so each aggregator also has one
offline method, `streams`: it takes complete (T_j, N) streams and yields
one (T_j, dim) array per stream in input order, whose row t is `feature()`
after the updates m[0..t]. CSL is a cumulative count and Gabor one
filter-bank product over sliding windows; the HMM filter stays sequential,
one filter stepping all streams together. `acausal_feature_streams` shifts
those rows by one frame for every aggregator alike.

Every aggregator also runs B independent streams in lockstep: built with
`batch=B`, its state gains a leading axis of B rows (the Gabor ring holds
them as B column blocks), `update` takes (B, N) likelihoods and `feature`
returns (B, dim). `take(rows)` copies some rows out into a new aggregator and
`put(rows, part)` writes them back. `batch=None` is the single stream without
that axis.

Aggregator internals are float64; the model casts to float32 when it writes
the statistic into its input row.
"""

from __future__ import annotations

import copy
import csv as _csv
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import (
    SSM_FEATURE_KINDS,
    DataValidationError,
    PhaseTaxonomy,
    UsageError,
    atomic_open,
)


def _lead(batch: int | None) -> tuple[int, ...]:
    return () if batch is None else (batch,)


# ---------------------------------------------------------------------------
# CSL

class CslAccumulator:
    """Cumulative sum likelihood counters: counts[n][l] of frames with
    m[n] >= level l, plus a trailing is-argmax counter per phase. Argmax ties
    break to the lowest phase id. Feature is log(count + 1), phase-major.
    Counts are held as float64, exact up to 2**53 frames."""

    def __init__(self, n_phases: int, levels=(0.25, 0.5, 0.75),
                 batch: int | None = None):
        self.n_phases = n_phases
        self.levels = np.asarray(levels, dtype=np.float64)
        self.counts = np.zeros(_lead(batch) + (n_phases, len(levels) + 1))
        self._hits = np.empty(self.counts.shape, dtype=bool)
        self._phase_ids = np.arange(n_phases)

    @property
    def dim(self) -> int:
        return self.n_phases * (len(self.levels) + 1)

    def _hit_mask(self, m: np.ndarray, out: np.ndarray) -> np.ndarray:
        m = np.asarray(m)
        np.greater_equal(m[..., None], self.levels, out=out[..., :-1])
        np.equal(self._phase_ids, np.argmax(m, axis=-1)[..., None], out=out[..., -1])
        return out

    def update(self, m: np.ndarray) -> None:
        self.counts += self._hit_mask(m, self._hits)

    def feature(self) -> np.ndarray:
        return np.log1p(self.counts).reshape(self.counts.shape[:-2] + (-1,))

    def streams(self, streams):
        """Offline rows (see the module doc): cumulative counts, integers
        held in float64, so the rows are exact."""
        for ms in streams:
            hits = self._hit_mask(ms, np.empty(np.shape(ms) + self.counts.shape[-1:], bool))
            yield np.log1p(np.cumsum(hits, axis=0, dtype=np.float64)).reshape(len(hits), -1)

    def take(self, rows) -> "CslAccumulator":
        part = copy.copy(self)
        part.counts = self.counts[rows]
        part._hits = np.empty(part.counts.shape, dtype=bool)
        return part

    def put(self, rows, part: "CslAccumulator") -> None:
        self.counts[rows] = part.counts


# ---------------------------------------------------------------------------
# Gabor filter bank

# frames per product in GaborAccumulator.streams: bounds the float64
# temporaries of a long stream, and measured faster than one product
STREAM_CHUNK = 256


def gabor_kernel(sigma: float) -> tuple[np.ndarray, np.ndarray]:
    """Complex causal 1-D Gabor kernel sampled at integer lags.

    Gaussian envelope times a carrier of wavelength 4*sigma over the support
    [-3*sigma, 0]. Normalized so the L1 norm of the complex kernel (= the
    envelope sum) is 1. Returned arrays are ordered oldest lag first, lag 0
    last.
    """
    half = int(np.floor(3.0 * sigma))
    u = np.arange(-half, 1, dtype=np.float64)
    envelope = np.exp(-(u * u) / (2.0 * sigma * sigma))
    omega = 2.0 * np.pi / (4.0 * sigma)
    norm = envelope.sum()
    return envelope * np.cos(omega * u) / norm, envelope * np.sin(omega * u) / norm


@dataclass(frozen=True)
class GaborBank:
    """Fixed causal filter bank over `scales`; kernels padded into (K, width)
    matrices aligned so the last column is lag 0 (newest frame)."""

    scales: np.ndarray
    kernels_real: np.ndarray = field(repr=False)
    kernels_imag: np.ndarray = field(repr=False)

    @classmethod
    def build(cls, num_scales: int = 10, scale_min: float = 10.0,
              scale_max: float = 30.0) -> "GaborBank":
        scales = np.linspace(scale_min, scale_max, num_scales)
        kernels = [gabor_kernel(s) for s in scales]
        width = max(len(kr) for kr, _ in kernels)
        re = np.zeros((num_scales, width))
        im = np.zeros((num_scales, width))
        for k, (kr, ki) in enumerate(kernels):
            re[k, width - len(kr):] = kr
            im[k, width - len(ki):] = ki
        return cls(scales=scales, kernels_real=re, kernels_imag=im)

    @property
    def num_scales(self) -> int:
        return self.scales.shape[0]

    @property
    def width(self) -> int:
        return self.kernels_real.shape[1]


class GaborAccumulator:
    """Streaming causal filtering through a ring buffer of the last `width`
    likelihood frames (zero history before the stream starts). Feature is the
    response magnitude per (phase, scale), phase-major.

    The ring is a (width, B*N) window sliding down a buffer of twice that
    height, so an update writes one row and the window stays contiguous; the
    live rows move back to the top once every width + 1 updates. The real and
    imaginary kernels are stacked into one (2K, width) matrix."""

    def __init__(self, n_phases: int, bank: GaborBank, batch: int | None = None):
        self.n_phases = n_phases
        self.bank = bank
        self._lead = _lead(batch)
        self._kernels = np.concatenate([bank.kernels_real, bank.kernels_imag])
        self.buf = np.zeros((2 * bank.width, n_phases * (batch or 1)))
        self.pos = 0

    @property
    def dim(self) -> int:
        return self.n_phases * self.bank.num_scales

    @property
    def window(self) -> np.ndarray:
        """The last `width` frames, oldest first: (width, B*N), row-major
        over (stream, phase)."""
        return self.buf[self.pos:self.pos + self.bank.width]

    def update(self, m: np.ndarray) -> None:
        w = self.bank.width
        p = self.pos + 1
        if p + w > self.buf.shape[0]:
            self.buf[:w - 1] = self.buf[p:p + w - 1]
            p = 0
        self.buf[p + w - 1] = np.asarray(m).reshape(-1)
        self.pos = p

    def _magnitudes(self, windows: np.ndarray) -> np.ndarray:
        """Response magnitudes of windows (..., width, C), oldest frame
        first: (..., C, K)."""
        k = self.bank.num_scales
        r = self._kernels @ windows                      # (..., 2K, C)
        r *= r
        mag = r[..., :k, :] + r[..., k:, :]
        return np.sqrt(mag, out=mag).swapaxes(-1, -2)

    def feature(self) -> np.ndarray:
        return self._magnitudes(self.window).reshape(self._lead + (self.dim,))

    def streams(self, streams):
        """Offline rows (see the module doc): products of the kernels with
        the zero-padded windows of a stream, STREAM_CHUNK rows at a time."""
        w = self.bank.width
        for ms in streams:
            padded = np.concatenate([np.zeros((w, self.n_phases)), ms])
            # window t holds frames t-w+1..t; the all-zero first one is unused
            windows = sliding_window_view(padded, w, axis=0)[1:].swapaxes(1, 2)
            out = np.empty((len(ms), self.dim))
            for a in range(0, len(ms), STREAM_CHUNK):
                part = windows[a:a + STREAM_CHUNK]
                out[a:a + STREAM_CHUNK] = self._magnitudes(part).reshape(-1, self.dim)
            yield out

    def _columns(self, rows) -> np.ndarray:
        n = self.n_phases
        return (np.asarray(rows)[:, None] * n + np.arange(n)).reshape(-1)

    def take(self, rows) -> "GaborAccumulator":
        part = copy.copy(self)
        cols = self._columns(rows)
        part._lead = (len(cols) // self.n_phases,)
        part.buf = np.zeros((self.buf.shape[0], cols.shape[0]))
        part.buf[:self.bank.width] = self.window[:, cols]
        part.pos = 0
        return part

    def put(self, rows, part: "GaborAccumulator") -> None:
        self.window[:, self._columns(rows)] = part.window


# ---------------------------------------------------------------------------
# HMM transition matrix and forward filter

@dataclass(frozen=True)
class TransitionMatrix:
    """Row-stochastic phase transition matrix."""

    a: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DataValidationError(f"transition matrix must be square, got {a.shape}")
        if not (np.isfinite(a) & (a > 0)).all():
            raise DataValidationError("transition matrix entries must be finite and positive")
        a = a / a.sum(axis=1, keepdims=True)
        a.setflags(write=False)
        object.__setattr__(self, "a", a)

    @property
    def n_phases(self) -> int:
        return self.a.shape[0]

    @classmethod
    def uniform(cls, n_phases: int) -> "TransitionMatrix":
        return cls(np.full((n_phases, n_phases), 1.0 / n_phases))

    def save_csv(self, path, taxonomy: PhaseTaxonomy | None = None) -> None:
        # repr round-trips float64 exactly and stays human-readable
        names = taxonomy.names if taxonomy else [f"phase_{i}" for i in range(self.n_phases)]
        with atomic_open(path, "w", newline="") as fh:
            w = _csv.writer(fh)
            w.writerow(names)
            for row in self.a:
                w.writerow([repr(float(v)) for v in row])

    @classmethod
    def load_csv(cls, path) -> "TransitionMatrix":
        """Read a file written by save_csv; malformed content raises
        DataValidationError naming the file."""
        try:
            with open(path, newline="") as fh:
                rows = list(_csv.reader(fh))
            if not rows or any(len(row) != len(rows) - 1 for row in rows):
                raise ValueError("expected a header of N phase names and N rows "
                                 "of N cells")
            return cls(np.array([[float(v) for v in row] for row in rows[1:]]))
        except (ValueError, DataValidationError) as e:
            raise DataValidationError(f"transition matrix file {path}: {e}") from None


def estimate_transition_matrix(label_sequences, n_phases: int,
                               smoothing: float = 1e-3) -> TransitionMatrix:
    """Laplace-smoothed successive-frame transition counts, row-normalized.

    Smoothing keeps rare-but-legal transitions possible while still
    penalizing illogical ones.
    """
    label_sequences = list(label_sequences)
    if not label_sequences:
        raise DataValidationError("transition estimation needs at least one sequence")
    if smoothing <= 0:
        raise UsageError("smoothing must be > 0")
    counts = np.zeros((n_phases, n_phases), dtype=np.int64)
    for seq in label_sequences:
        seq = np.asarray(seq)
        if (seq < 0).any() or (seq >= n_phases).any():
            raise DataValidationError("label out of range in transition estimation")
        np.add.at(counts, (seq[:-1], seq[1:]), 1)
    a = counts.astype(np.float64) + smoothing
    return TransitionMatrix(a)


class HmmFilterState:
    """Streaming forward filter: belief' ~ (A^T prior) * m, renormalized.

    `prior` is the state distribution the next update carries through A: the
    uniform initial state before the first frame, then the last belief.
    `belief`, the feature, is the filtered posterior of the last frame and
    the zero vector before the first update. On normalization underflow the
    belief resets to uniform and a diagnostic counter increments (one count
    per stream and frame).
    """

    def __init__(self, transition: TransitionMatrix, batch: int | None = None):
        self.transition = transition
        n = transition.n_phases
        self.prior = np.full(_lead(batch) + (n,), 1.0 / n)
        self.belief = np.zeros_like(self.prior)
        self.underflow_count = 0

    @property
    def dim(self) -> int:
        return self.transition.n_phases

    def update(self, m: np.ndarray) -> None:
        post = (self.prior @ self.transition.a) * m
        s = post.sum(axis=-1, keepdims=True)
        if s.size == 1:     # one stream: a Python float test is cheapest
            ok = 0.0 < s.item() < np.inf
        else:
            ok = s.min() > 0.0 and s.max() < np.inf
        if ok:
            self.belief = post / s
        else:
            ok = (s > 0.0) & np.isfinite(s)
            self.underflow_count += int((~ok).sum())
            with np.errstate(divide="ignore", invalid="ignore"):
                self.belief = np.where(ok, post / s, 1.0 / self.dim)
        self.prior = self.belief

    def feature(self) -> np.ndarray:
        return self.belief.copy()

    def take(self, rows) -> "HmmFilterState":
        part = copy.copy(self)
        part.prior = self.prior[rows]
        part.belief = self.belief[rows]
        return part

    def put(self, rows, part: "HmmFilterState") -> None:
        # the counter travels with the part: take() copied the total in,
        # so the part's count is the new total
        self.prior[rows] = part.prior
        self.belief[rows] = part.belief
        self.underflow_count = part.underflow_count

    def streams(self, streams):
        """Offline rows (see the module doc) from the uniform initial state:
        one filter steps all streams to the longest one's end, and a stream
        that has ended feeds the uniform vector, which cannot underflow.
        Underflows add to this filter's counter; its state is untouched."""
        streams = [np.asarray(ms) for ms in streams]
        if not streams:
            return
        n, b = self.dim, len(streams)
        packed = np.full((max(map(len, streams)), b, n), 1.0 / n)
        for j, ms in enumerate(streams):
            packed[:len(ms), j] = ms
        # one stream runs without the batch axis, as in streaming: it steps faster
        f = HmmFilterState(self.transition, b if b > 1 else None)
        beliefs = []
        for m in (packed if b > 1 else packed[:, 0]):
            f.update(m)
            beliefs.append(f.belief)
        self.underflow_count += f.underflow_count
        marg = np.reshape(beliefs, packed.shape)
        for j, ms in enumerate(streams):
            yield marg[:len(ms), j]


# ---------------------------------------------------------------------------
# Composite extractor and stream helpers

class SsmExtractor:
    """Concatenation of the enabled aggregators in the order csl | gabor | hmm.

    `feature()` returns the statistic for the history consumed so far; it is
    the zero vector before the first update ("history memory initialized with
    zeros"). Total dimension is fixed for the life of the extractor. With
    `batch=B` it runs B streams in lockstep (see the module doc).
    """

    def __init__(self, n_phases: int, enabled=("csl", "gabor", "hmm"),
                 csl_levels=(0.25, 0.5, 0.75), gabor_bank: GaborBank | None = None,
                 transition: TransitionMatrix | None = None,
                 batch: int | None = None):
        unknown = set(enabled) - set(SSM_FEATURE_KINDS)
        if unknown:
            raise UsageError(f"unknown ssm features: {sorted(unknown)}")
        self.n_phases = n_phases
        self.enabled = tuple(k for k in SSM_FEATURE_KINDS if k in enabled)
        self._lead = _lead(batch)
        self._parts = []
        if "csl" in self.enabled:
            self._parts.append(CslAccumulator(n_phases, csl_levels, batch))
        if "gabor" in self.enabled:
            bank = gabor_bank if gabor_bank is not None else GaborBank.build()
            self._parts.append(GaborAccumulator(n_phases, bank, batch))
        if "hmm" in self.enabled:
            if transition is None:
                transition = TransitionMatrix.uniform(n_phases)
            self._parts.append(HmmFilterState(transition, batch))
        self.dim = sum(p.dim for p in self._parts)

    @property
    def underflow_count(self) -> int:
        """HMM normalization underflows so far (0 without the hmm feature)."""
        return sum(p.underflow_count for p in self._parts
                   if isinstance(p, HmmFilterState))

    def update(self, m: np.ndarray) -> None:
        for p in self._parts:
            p.update(m)

    def feature(self) -> np.ndarray:
        if not self._parts:
            return np.zeros(self._lead + (0,))
        return np.concatenate([p.feature() for p in self._parts], axis=-1)

    def take(self, rows) -> "SsmExtractor":
        """A new extractor holding copies of the state of streams `rows`."""
        part = copy.copy(self)
        part._lead = (len(rows),)
        part._parts = [p.take(rows) for p in self._parts]
        return part

    def put(self, rows, part: "SsmExtractor") -> None:
        """Write the state of `part` (made by `take(rows)`) back to `rows`."""
        for mine, theirs in zip(self._parts, part._parts):
            mine.put(rows, theirs)


def acausal_feature_streams(extractor: SsmExtractor, streams,
                            dtype=np.float64) -> list[np.ndarray]:
    """Acausal statistic rows of complete (T_j, N) streams, one (T_j, dim)
    array of `dtype` per stream: row t aggregates m[t+1..T_j-1], so the last
    row is zeros. Each aggregator works on the reversed streams, where row t
    sees frames < t (see the module doc). Only the extractor's settings are
    read; its HMM underflow counter grows by the streams' underflows."""
    rev = [np.asarray(ms)[::-1] for ms in streams]
    if any(r.ndim != 2 for r in rev):
        raise UsageError("acausal aggregation needs complete (T, N) streams")
    out = [np.empty((len(r), extractor.dim), dtype) for r in rev]
    col = 0
    for part in extractor._parts:
        for o, rows in zip(out, part.streams(rev)):
            # this aggregator's block in reversed time: row t is the
            # inclusive row t - 1, row 0 sees no frame
            block = o[::-1, col:col + part.dim]
            block[:1] = 0.0
            block[1:] = rows[:-1]
        col += part.dim
    return out


def acausal_feature_stream(extractor: SsmExtractor, ms) -> np.ndarray:
    """The one-stream case of `acausal_feature_streams`, in float64."""
    return acausal_feature_streams(extractor, [ms])[0]
