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

Online, every aggregator follows one protocol, `_Aggregator`. It sets
`lead`, () for one stream and (B,) for B streams in lockstep, and `shape`,
the per-stream shape that `write(out)` fills with its statistic, casting on
the way (CSL (N, L+1), Gabor (N, K), HMM (N,)). The base class derives the
rest once: `dim`, the product of `shape`; `slot(block)`, the view of a
(..., dim) row block in that shape; `feature()`, a new float64
(*lead, dim) row written through `write(slot(row))`; and an
`underflow_count` of 0. `SsmExtractor` is an aggregator of shape (dim,):
`bind` pairs each part's `write` with its slot of the statistic columns,
which the step kernel of `model` binds once and calls every frame, so each
statistic has one formula.

Built with `batch=B`, an aggregator's state gains a leading axis of B rows
(the Gabor ring holds them as B column blocks) and `update` takes (B, N)
likelihoods. Each aggregator declares its per-stream state once, as
`state`: a tuple of views with the stream axis first (CSL the counts, Gabor
the live ring window as (B, width, N), HMM the prior and the belief).
`SsmExtractor.take(rows)` builds a new extractor of len(rows) streams and
copies those rows of every `state` into it; `put(rows, part)` copies them
back.

Aggregator internals are float64; `write` casts to the dtype of its slot
(float32 in the model's input row).
"""

from __future__ import annotations

import csv as _csv
import math
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


class _Aggregator:
    """The protocol of every statistic (see the module doc). A subclass sets
    `lead` and `shape` and defines `write(out)` for an out of shape
    (*lead, *shape); the rest is derived here."""

    lead: tuple[int, ...]
    shape: tuple[int, ...]
    underflow_count = 0     # only the HMM filter can underflow

    @property
    def dim(self) -> int:
        return math.prod(self.shape)

    def slot(self, block: np.ndarray) -> np.ndarray:
        return block.reshape(block.shape[:-1] + self.shape, copy=False)

    def feature(self) -> np.ndarray:
        out = np.empty(self.lead + (self.dim,))
        self.write(self.slot(out))
        return out


# ---------------------------------------------------------------------------
# CSL

class CslAccumulator(_Aggregator):
    """Cumulative sum likelihood counters: counts[n][l] of frames with
    m[n] >= level l, plus a trailing is-argmax counter per phase. Argmax ties
    break to the lowest phase id. Feature is log(count + 1), phase-major.
    Counts are held as float64, exact up to 2**53 frames."""

    def __init__(self, n_phases: int, levels=(0.25, 0.5, 0.75),
                 batch: int | None = None):
        self.n_phases = n_phases
        self.levels = np.asarray(levels, dtype=np.float64)
        self.lead, self.shape = _lead(batch), (n_phases, len(levels) + 1)
        self.counts = np.zeros(self.lead + self.shape)
        self._phase_ids = np.arange(n_phases)
        # the hits of one update, held as float64 so `counts +=` needs no cast
        self._hits = np.empty(self.counts.shape)
        self._levels_out, self._argmax_out = self._hits[..., :-1], self._hits[..., -1]

    @property
    def state(self) -> tuple[np.ndarray, ...]:
        return (self.counts,)

    def _hit_mask(self, m: np.ndarray, levels_out: np.ndarray,
                  argmax_out: np.ndarray) -> None:
        m = np.asarray(m)
        np.greater_equal(m[..., None], self.levels, out=levels_out)
        np.equal(self._phase_ids, m.argmax(axis=-1)[..., None], out=argmax_out)

    def update(self, m: np.ndarray) -> None:
        self._hit_mask(m, self._levels_out, self._argmax_out)
        self.counts += self._hits

    def write(self, out: np.ndarray) -> None:
        np.log1p(self.counts, out=out)

    def streams(self, streams):
        """Offline rows (see the module doc): cumulative counts, integers
        held in float64, so the rows are exact."""
        for ms in streams:
            hits = np.empty(np.shape(ms) + self.shape[-1:])
            self._hit_mask(ms, hits[..., :-1], hits[..., -1])
            yield np.log1p(np.cumsum(hits, axis=0)).reshape(len(hits), -1)


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
    """Fixed causal filter bank over `scales`: `kernels` stacks the real
    parts of the K kernels over their imaginary parts, (2K, width), each row
    padded so the last column is lag 0 (newest frame)."""

    scales: np.ndarray
    kernels: np.ndarray = field(repr=False)

    @classmethod
    def build(cls, num_scales: int = 10, scale_min: float = 10.0,
              scale_max: float = 30.0) -> "GaborBank":
        scales = np.linspace(scale_min, scale_max, num_scales)
        kernels = [gabor_kernel(s) for s in scales]
        width = max(len(kr) for kr, _ in kernels)
        stacked = np.zeros((2 * num_scales, width))
        for k, (kr, ki) in enumerate(kernels):
            stacked[k, width - len(kr):] = kr
            stacked[num_scales + k, width - len(ki):] = ki
        return cls(scales=scales, kernels=stacked)

    @property
    def num_scales(self) -> int:
        return self.scales.shape[0]

    @property
    def width(self) -> int:
        return self.kernels.shape[1]


class GaborAccumulator(_Aggregator):
    """Streaming causal filtering through a ring buffer of the last `width`
    likelihood frames (zero history before the stream starts). Feature is the
    response magnitude per (phase, scale), phase-major.

    The ring is a (width, B*N) window sliding down a buffer of twice that
    height, so an update writes one row and the window stays contiguous; the
    live rows move back to the top once every width + 1 updates. `write`
    multiplies the bank's stacked (2K, width) kernels with the window and
    keeps its (2K, B*N) product and (K, B*N) magnitudes in scratch of its
    own."""

    def __init__(self, n_phases: int, bank: GaborBank, batch: int | None = None):
        self.n_phases = n_phases
        self.bank = bank
        self.lead, self.shape = _lead(batch), (n_phases, bank.num_scales)
        self._width = bank.width
        self.buf = np.zeros((2 * bank.width, n_phases * (batch or 1)))
        self._scratch = self._product_scratch((), self.buf.shape[1], self.lead)
        self.pos = 0

    def _product_scratch(self, lead: tuple, columns: int, out_lead: tuple) -> tuple:
        """Scratch of `_magnitudes` for windows (*lead, width, columns) and
        an out of shape (*out_lead, N, K): the (..., 2K, C) responses, views
        of their real and imaginary halves, the (..., K, C) magnitudes and
        their view in the shape of out."""
        k = self.bank.num_scales
        prod = np.empty(lead + (2 * k, columns))
        mag = np.empty(lead + (k, columns))
        mag_out = mag.swapaxes(-1, -2).reshape(out_lead + self.shape, copy=False)
        return prod, prod[..., :k, :], prod[..., k:, :], mag, mag_out

    @property
    def window(self) -> np.ndarray:
        """The last `width` frames, oldest first: (width, B*N), row-major
        over (stream, phase)."""
        return self.buf[self.pos:self.pos + self._width]

    @property
    def state(self) -> tuple[np.ndarray, ...]:
        # the window's rows are contiguous, so the reshape is a view
        return (self.window.reshape(self._width, -1, self.n_phases).swapaxes(0, 1),)

    def update(self, m: np.ndarray) -> None:
        w = self._width
        p = self.pos + 1
        if p + w > self.buf.shape[0]:
            self.buf[:w - 1] = self.buf[p:p + w - 1]
            p = 0
        self.buf[p + w - 1] = np.asarray(m).reshape(-1)
        self.pos = p

    def _magnitudes(self, windows: np.ndarray, scratch: tuple, out: np.ndarray) -> None:
        """Response magnitudes of windows (..., width, C), oldest frame
        first, written into `out` (..., N, K) through `scratch` from
        `_product_scratch`."""
        prod, re, im, mag, mag_out = scratch
        np.matmul(self.bank.kernels, windows, out=prod)
        prod *= prod
        np.add(re, im, out=mag)
        np.sqrt(mag_out, out=out)

    def write(self, out: np.ndarray) -> None:
        self._magnitudes(self.window, self._scratch, out)

    def streams(self, streams):
        """Offline rows (see the module doc): products of the kernels with
        the zero-padded windows of a stream, STREAM_CHUNK rows at a time."""
        w, n = self.bank.width, self.n_phases
        for ms in streams:
            padded = np.concatenate([np.zeros((w, n)), ms])
            # window t holds frames t-w+1..t; the all-zero first one is unused
            windows = sliding_window_view(padded, w, axis=0)[1:].swapaxes(1, 2)
            out = np.empty((len(ms), self.dim))
            for a in range(0, len(ms), STREAM_CHUNK):
                part = windows[a:a + STREAM_CHUNK]
                self._magnitudes(part, self._product_scratch(part.shape[:1], n, part.shape[:1]),
                                 self.slot(out[a:a + STREAM_CHUNK]))
            yield out


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


class HmmFilterState(_Aggregator):
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
        self._a = transition.a
        n = transition.n_phases
        self.lead, self.shape = _lead(batch), (n,)
        self.prior = np.full(self.lead + self.shape, 1.0 / n)
        self.belief = np.zeros_like(self.prior)

    @property
    def state(self) -> tuple[np.ndarray, ...]:
        return (self.prior, self.belief)

    def update(self, m: np.ndarray) -> None:
        # each update makes a new belief array; `streams` keeps them all
        post = self.prior @ self._a
        post *= m
        s = post.sum(axis=-1, keepdims=True)
        if s.size == 1:     # one stream: a Python float test is cheapest
            ok = 0.0 < s.item() < np.inf
        else:
            ok = s.min() > 0.0 and s.max() < np.inf
        if ok:
            post /= s
            self.belief = post
        else:
            ok = (s > 0.0) & np.isfinite(s)
            self.underflow_count += int((~ok).sum())
            with np.errstate(divide="ignore", invalid="ignore"):
                self.belief = np.where(ok, post / s, 1.0 / self.dim)
        self.prior = self.belief

    def write(self, out: np.ndarray) -> None:
        np.copyto(out, self.belief)

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

class SsmExtractor(_Aggregator):
    """Concatenation of the enabled aggregators in the order csl | gabor | hmm.

    `feature()` returns the statistic for the history consumed so far; it is
    the zero vector before the first update ("history memory initialized with
    zeros"). Total dimension is fixed for the life of the extractor. With
    `batch=B` it runs B streams in lockstep (see the module doc). Its
    `write` fills the columns of every part.
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
        self.lead = _lead(batch)
        self._parts = []
        if "csl" in self.enabled:
            self._parts.append(CslAccumulator(n_phases, csl_levels, batch))
        if "gabor" in self.enabled:
            gabor_bank = gabor_bank if gabor_bank is not None else GaborBank.build()
            self._parts.append(GaborAccumulator(n_phases, gabor_bank, batch))
        if "hmm" in self.enabled:
            if transition is None:
                transition = TransitionMatrix.uniform(n_phases)
            self._parts.append(HmmFilterState(transition, batch))
        self._settings = (n_phases, self.enabled, csl_levels, gabor_bank, transition)
        ends = np.cumsum([0] + [p.dim for p in self._parts])
        self._columns = [slice(int(a), int(b)) for a, b in zip(ends[:-1], ends[1:])]
        self.shape = (int(ends[-1]),)

    @property
    def underflow_count(self) -> int:
        """HMM normalization underflows so far (0 without the hmm feature)."""
        return sum(p.underflow_count for p in self._parts)

    def update(self, m: np.ndarray) -> None:
        for p in self._parts:
            p.update(m)

    @property
    def columns(self) -> dict[str, slice]:
        """The columns of each enabled kind within the statistic."""
        return dict(zip(self.enabled, self._columns))

    def bind(self, block: np.ndarray) -> list:
        """(write, slot) per aggregator, in csl | gabor | hmm order: its
        `write` method and its slot of `block`, a (..., dim) view of the
        statistic columns (see the module doc). `write(slot)` puts that
        aggregator's current statistic into the block."""
        return [(p.write, p.slot(block[..., cols]))
                for p, cols in zip(self._parts, self._columns)]

    def write(self, out: np.ndarray) -> None:
        for write, slot in self.bind(out):
            write(slot)

    def take(self, rows) -> "SsmExtractor":
        """A new extractor of len(rows) streams, with this one's settings,
        holding copies of the state of streams `rows`. Its underflow count
        starts at this extractor's total."""
        part = SsmExtractor(*self._settings, batch=len(rows))
        for mine, theirs in zip(self._parts, part._parts):
            for src, dst in zip(mine.state, theirs.state):
                dst[...] = src[rows]
            theirs.underflow_count = mine.underflow_count
        return part

    def put(self, rows, part: "SsmExtractor") -> None:
        """Write the state of `part` (made by `take(rows)`) back to `rows`;
        the part's underflow count is the new total."""
        for mine, theirs in zip(self._parts, part._parts):
            for dst, src in zip(mine.state, theirs.state):
                dst[rows] = src
            mine.underflow_count = theirs.underflow_count


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
    for part, cols in zip(extractor._parts, extractor._columns):
        for o, rows in zip(out, part.streams(rev)):
            # this aggregator's block in reversed time: row t is the
            # inclusive row t - 1, row 0 sees no frame
            block = o[::-1, cols]
            block[:1] = 0.0
            block[1:] = rows[:-1]
    return out


def acausal_feature_stream(extractor: SsmExtractor, ms) -> np.ndarray:
    """The one-stream case of `acausal_feature_streams`, in float64."""
    return acausal_feature_streams(extractor, [ms])[0]
