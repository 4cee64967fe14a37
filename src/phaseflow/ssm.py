"""Sufficient-statistic feature family: streaming aggregators that compress
the phase-likelihood history m_1..m_t into a fixed-size vector s_t.

Three feature kinds, concatenated in the fixed order csl | gabor | hmm:

* CSL: per phase, log(1 + count of past frames whose probability crossed each
  threshold level), plus an is-argmax counter channel.
* Gabor: magnitudes of a causal 1-D Gabor filter bank applied to each
  likelihood channel through a bounded ring buffer.
* HMM: forward-filtered posterior under a row-stochastic transition matrix.

Acausal rows run the same statistic over the time-reversed stream, so the
value at frame t summarizes frames strictly after t. That stream is
complete before the statistic is needed, so each aggregator also has one
offline method, `streams`: it takes complete (T_j, N) streams and yields
one (T_j, dim) array per stream in input order, whose row t is `feature()`
after the updates m[0..t]. CSL is a cumulative count and Gabor one
filter-bank product over sliding windows; the HMM filter stays sequential,
one filter stepping all streams together. `SsmExtractor.acausal_rows`, the
one derivation of the rows, reverses the streams, runs every part's
`streams` and shifts the rows by one frame, so the last row is zeros.

Online, every aggregator follows one protocol, `_Aggregator`. It sets
`lead`, () for one stream and (B,) for B streams in lockstep, and `shape`,
the per-stream shape that `write(out)` fills with its statistic, casting on
the way (CSL (N, L+1), Gabor (N, K), HMM (N,)). The base class derives the
rest once: `dim`, the product of `shape`; `slot(block)`, the view of a
(..., dim) row block in that shape; `feature()`, a new float64
(*lead, dim) row written through `write(slot(row))`; and an
`underflow_count` of 0. `SsmExtractor` is an aggregator of shape (dim,):
`bind` pairs each part's `write` with its slot of a (..., dim) block and
`updates` lists each part's bound `update`; the step kernel of `model`
binds both once and calls them every frame, so each statistic has one
formula.

Built with `batch=B`, an aggregator's state gains a leading axis of B rows
(the Gabor ring holds them as B column blocks) and `update` takes (B, N)
likelihoods. Each aggregator declares its per-stream state once, as
`state`: a tuple of views with the stream axis first (CSL the counts, Gabor
the live ring window as (B, width, N), HMM the prior and the belief).
`SsmExtractor.take(rows)` builds a new extractor of len(rows) streams and
copies those rows of every `state` into it; `put(rows, part)` copies them
back. The lockstep runner of `model` does so only when its stream set
changes, and steps the gathered part across windows in between.

Every setting comes from `ExperimentConfig`, and nothing here restates
one as a default: `model.PhaseModel.new_extractor` passes the enabled
kinds, the CSL levels (`csl_levels`), the bank (`GaborBank.build` of
`gabor_num_scales` scales from `gabor_scale_min` to `gabor_scale_max`) and
the model's transition matrix, which `train.fit` estimates with
`estimate_transition_matrix` and `hmm_smoothing`.

Aggregator internals are float64; `write` casts to the dtype of its slot.
The step kernel binds float64 slots and casts the whole statistic into the
model's float32 input row at once, which rounds each value as a float32
slot would. The per-frame calls pass their outs positionally, which numpy
parses faster than keywords.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import SSM_FEATURE_KINDS, DataValidationError, UsageError


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

    def __init__(self, n_phases: int, levels, batch: int | None = None):
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
        np.greater_equal(m[..., None], self.levels, levels_out)
        np.equal(self._phase_ids, m.argmax(-1)[..., None], argmax_out)

    def update(self, m: np.ndarray) -> None:
        self._hit_mask(m, self._levels_out, self._argmax_out)
        self.counts += self._hits

    def write(self, out: np.ndarray) -> None:
        np.log1p(self.counts, out)

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
    def build(cls, num_scales: int, scale_min: float, scale_max: float) -> "GaborBank":
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
        # the buffer's rows in the shape of one update's likelihoods
        self._rows = self.buf.reshape((len(self.buf),) + self.lead + (n_phases,))
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
        self._rows[p + w - 1] = m
        self.pos = p

    def _magnitudes(self, windows: np.ndarray, scratch: tuple, out: np.ndarray) -> None:
        """Response magnitudes of windows (..., width, C), oldest frame
        first, written into `out` (..., N, K) through `scratch` from
        `_product_scratch`."""
        prod, re, im, mag, mag_out = scratch
        np.matmul(self.bank.kernels, windows, prod)
        prod *= prod
        np.add(re, im, mag)
        np.sqrt(mag_out, out)

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
    """Row-stochastic phase transition matrix, held as given: entries finite and
    positive, each row summing to 1 within 1e-9 (`from_weights` normalises)."""

    a: np.ndarray

    def __post_init__(self):
        a = np.array(self.a, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DataValidationError(f"transition matrix must be square, got {a.shape}")
        if not (np.isfinite(a) & (a > 0)).all():
            raise DataValidationError("transition matrix entries must be finite and positive")
        if (np.abs(a.sum(axis=1) - 1.0) > 1e-9).any():
            raise DataValidationError("transition matrix rows must sum to 1 within 1e-9")
        a.setflags(write=False)
        object.__setattr__(self, "a", a)

    @classmethod
    def from_weights(cls, w: np.ndarray) -> "TransitionMatrix":
        return cls(w / w.sum(axis=1, keepdims=True))

    @property
    def n_phases(self) -> int:
        return self.a.shape[0]

    @classmethod
    def uniform(cls, n_phases: int) -> "TransitionMatrix":
        return cls.from_weights(np.full((n_phases, n_phases), 1.0 / n_phases))


def estimate_transition_matrix(label_sequences, n_phases: int,
                               smoothing: float) -> TransitionMatrix:
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
    return TransitionMatrix.from_weights(counts.astype(np.float64) + smoothing)


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

    def update(self, m: np.ndarray, out: np.ndarray | None = None) -> None:
        # the new belief, also the next prior, is `out` if given, else a new array
        post = np.matmul(self.prior, self._a, out)
        post *= m
        if not self.lead:   # one stream: one reduction to a scalar is cheapest
            s = np.add.reduce(post)
            ok = 0.0 < s < np.inf
        else:
            s = post.sum(axis=-1, keepdims=True)
            ok = s.min() > 0.0 and s.max() < np.inf
        if ok:
            post /= s
        else:
            ok = (s > 0.0) & np.isfinite(s)
            self.underflow_count += int((~ok).sum())
            with np.errstate(divide="ignore", invalid="ignore"):
                post[...] = np.where(ok, post / s, 1.0 / self.dim)
        self.prior = self.belief = post

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
        marg = np.empty((max(map(len, streams)), b, n))
        f = HmmFilterState(self.transition, b if b > 1 else None)
        if b == 1:  # no batch axis, as in streaming; float64 rows are not cast per update
            packed, rows = np.asarray(streams[0], np.float64), marg[:, 0]
        else:
            packed, rows = np.full(marg.shape, 1.0 / n), marg
            for j, ms in enumerate(streams):
                packed[:len(ms), j] = ms
        for m, row in zip(packed, rows):
            f.update(m, row)
        self.underflow_count += f.underflow_count
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
    `write` fills the columns of every part. Only the enabled parts read
    their setting.
    """

    def __init__(self, n_phases: int, enabled, csl_levels, gabor_bank: GaborBank,
                 transition: TransitionMatrix, batch: int | None = None):
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
            self._parts.append(GaborAccumulator(n_phases, gabor_bank, batch))
        if "hmm" in self.enabled:
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
    def updates(self) -> list:
        """Each aggregator's bound `update`, in csl | gabor | hmm order:
        what `update` calls, for a caller that binds them once."""
        return [p.update for p in self._parts]

    @property
    def columns(self) -> dict[str, slice]:
        """The columns of each enabled kind within the statistic."""
        return dict(zip(self.enabled, self._columns))

    def bind(self, block: np.ndarray) -> list:
        """(write, slot) per aggregator, in csl | gabor | hmm order: its
        `write` method and its slot of `block`, a (..., dim) array of
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

    def acausal_rows(self, streams, dtype=np.float64) -> list[np.ndarray]:
        """Acausal statistic rows of complete (T_j, N) streams, one (T_j, dim)
        array of `dtype` per stream (see the module doc). Only this
        extractor's settings are read; its HMM underflow counter grows by
        the underflows over the reversed streams."""
        rev = [np.asarray(ms)[::-1] for ms in streams]
        if any(r.ndim != 2 for r in rev):
            raise UsageError("acausal aggregation needs complete (T, N) streams")
        out = [np.empty((len(r), self.dim), dtype) for r in rev]
        for part, cols in zip(self._parts, self._columns):
            for o, rows in zip(out, part.streams(rev)):
                # this part's block in reversed time: row t is the
                # inclusive row t - 1, row 0 sees no frame
                block = o[::-1, cols]
                block[:1] = 0.0
                block[1:] = rows[:-1]
        return out


def acausal_feature_stream(extractor: SsmExtractor, ms) -> np.ndarray:
    """The acausal rows of one complete stream, in float64."""
    return extractor.acausal_rows([ms])[0]
