"""Minimal neural-network layer: LSTM cell, affine head, softmax
cross-entropy, truncated-BPTT backward pass and Adam, all hand-derived in
numpy.

Gate layout inside the fused (4H) axis is [input | forget | candidate |
output]. Model math runs in float32; passing float64 parameters switches the
whole path to 64-bit (what the finite-difference gradient checks use).

`WindowRecorder` holds the one implementation of the cell's arithmetic
and of its per-frame argument layout, and `WindowRecorder.step` is the one
forward step (cell, then head) that streaming inference, the loss-free
lockstep forward and the training window all run; `lstm_step` is one
frame of a one-frame recorder. Every window keeps its frame arrays, the
tape `window_backward` reads. A recorder binds each frame's arrays once, a
logits row for `head_forward` among them, so a step allocates nothing.

Every per-frame array may carry leading batch axes: the cell, the
recorder, the window loss and the backward pass index with `...`, so B streams
stepped in lockstep are one input product per frame and one backward pass
per window. A single stream is the case without batch axes. BLAS sums a
product with B > 1 rows in another order than a single row, so a stream's
outputs are bit-equal to streaming inference only at B=1; at larger B they
agree to float rounding.

The cell's input product `x @ wx` is a fixed list of column-block products
(`input_blocks`), bound when the recorder is built and summed in column
order. No block is wider than BLOCK_COLS columns, so the sum is the same at
every BLAS thread count; a row of at most that width is one product. A
column range that only some rows read (the acausal block of an acausal
model, read on pass 2 only) is split off and multiplied on those rows
alone. The backward pass sums its `dz @ wh.T` over the same blocks of the
4H gate columns (one product up to H = 96) and keeps one `xs.T @ dz` per
window, whose bits do not depend on the thread count either
(tests/test_blas_threads.py).

Training steps one flat vector (`Adam`); the backward, the clip and the
update write into float buffers their owner binds once. No trained bit
changes: only elementwise operations on operands the recursion does not
change leave the frame loop (IEEE rounds an element alike wherever it
sits), and each expression, product and reduction keeps its order and shape.
"""

from __future__ import annotations

import functools
import json
import math
import struct

import numpy as np

from .core import DataValidationError, NumericError, UsageError, atomic_open, read_bytes

PROB_FLOOR = 1e-12
CHECKPOINT_MAGIC = b"PHCK"
CHECKPOINT_VERSION = 2
# the widest column block of one input product: OpenBLAS sums a product over
# more than 448 columns in an order that depends on its thread count (no
# product over 448 or fewer differed with scipy-openblas 0.3.31 on x86-64);
# 384 leaves a margin below that
BLOCK_COLS = 384


def param_shapes(input_dim: int, hidden_dim: int, n_phases: int) -> dict[str, tuple]:
    """The parameter layout: the shape of each block, in checkpoint order."""
    h = hidden_dim
    return {"lstm_wx": (input_dim, 4 * h), "lstm_wh": (h, 4 * h), "lstm_b": (4 * h,),
            "head_w": (h, n_phases), "head_b": (n_phases,)}


def init_params(input_dim: int, hidden_dim: int, n_phases: int,
                rng: np.random.Generator, dtype=np.float32) -> dict[str, np.ndarray]:
    """Weight matrices uniform in [-1/sqrt(fan_in), 1/sqrt(fan_in)], drawn
    in layout order; zero biases but the forget gate's, 1.0."""
    params = {}
    for name, shape in param_shapes(input_dim, hidden_dim, n_phases).items():
        if len(shape) == 1:
            params[name] = np.zeros(shape, dtype)
        else:
            bound = 1.0 / np.sqrt(shape[0])     # fan_in: the rows
            params[name] = rng.uniform(-bound, bound, shape).astype(dtype)
    params["lstm_b"][hidden_dim:2 * hidden_dim] = 1.0
    return params


def hidden_dim_of(params: dict) -> int:
    return params["lstm_wh"].shape[0]


def input_dim_of(params: dict) -> int:
    return params["lstm_wx"].shape[0]


def input_blocks(width: int, tail: int | None, tail_from: int | None) -> list[tuple]:
    """The (rows, columns) of each block product of the cell's `x @ wx` over
    rows of `width` columns, in summation order: [0, tail) on every
    row, then [tail, width) on the rows from `tail_from` on (none when it is
    None), each cut into consecutive blocks of at most BLOCK_COLS columns."""
    tail = width if tail is None else tail
    blocks = [(..., cols) for cols in _column_blocks(0, tail)]
    if tail_from is not None:
        rows = ... if tail_from == 0 else slice(tail_from, None)
        blocks += [(rows, cols) for cols in _column_blocks(tail, width)]
    return blocks


def _column_blocks(start: int, stop: int) -> list[slice]:
    """Columns [start, stop) as consecutive slices of at most BLOCK_COLS."""
    return [slice(k, min(k + BLOCK_COLS, stop)) for k in range(start, stop, BLOCK_COLS)]


def cell_dtype(params: dict, *inputs) -> np.dtype:
    """The dtype of the cell's arithmetic on these inputs (arrays or
    dtypes) and parameters."""
    return np.result_type(*inputs, *(params[k] for k in ("lstm_wx", "lstm_wh", "lstm_b")))


def lstm_step(params: dict, h: np.ndarray, c: np.ndarray,
              x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One LSTM cell update, frame 0 of a one-frame `WindowRecorder`;
    returns (h', c')."""
    if x.shape[-1:] != (input_dim_of(params),):
        raise DataValidationError(
            f"lstm input dimension mismatch: got {x.shape}, "
            f"expected ({input_dim_of(params)},)")
    lead = np.broadcast_shapes(x.shape[:-1], h.shape[:-1])
    rec = WindowRecorder(params, np.broadcast_to(x, lead + x.shape[-1:])[None],
                         np.broadcast_to(h, lead + h.shape[-1:]), c)
    rec.step(0)
    return rec.hs[1], rec.cs[1]


def head_forward(params: dict, h: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Affine map hidden -> phase logits `h @ head_w + head_b`, written into
    `out` when given (the same floats as a new array) and returned."""
    w = params["head_w"]
    if h.shape[-1:] != w.shape[:1]:
        raise DataValidationError(
            f"head input dimension mismatch: got {h.shape}, "
            f"expected ({hidden_dim_of(params)},)")
    logits = np.matmul(h, w, out)
    logits += params["head_b"]
    return logits


class WindowRecorder:
    """The LSTM forward over one window of input rows `xs` (W, ..., D),
    frame by frame, and the frame arrays it writes, which are the tape of
    `window_backward`: the states `hs`, `cs` (W + 1, ..., H), frame 0 a
    copy of the caller's `h`, `c` (only read), the gate activations `act`
    (W, ..., 4H), the candidate `g` and `tanh_c` (W, ..., H). `step(k)` runs
    the cell on row k, which the caller may fill just before (the SSM
    statistic of frame k depends on the outputs of earlier frames), and
    returns the logits of h', row k of `logits` (W, ..., N), which later
    steps leave alone. With (B, H) states it runs B streams in lockstep.

    `cell` is the one implementation of the cell's arithmetic. It writes
    the gate activations, c', tanh(c') and h' into a frame's arrays; the
    pre-activation `z` and the input-gate product live in scratch bound
    here. Each operation is the one the textbook expression
    `z = x @ wx + h @ wh + b`, `c' = f * c + i * g`, `h' = o * tanh(c')`
    performs, in the same order, so the floats are the expression's; outs
    go positionally, the cheapest way to a ufunc.

    `x @ wx` is the sum, in column order, of the products of the input's
    column blocks (`input_blocks`), the list bound here once. Every row
    reads the columns before `tail`; the columns from `tail` on are read
    only by the rows `tail_from` on of the first lead axis (all rows at 0,
    none at None), and add into their rows of z. A row that does not read
    them computes what their zeros would give, without their product.

    `frame(k, src, dst)` binds the cell's arguments for frame k, reading
    state row `src` and writing row `dst`, and its logits row; `frames[k]`
    is `frame(k, k, k + 1)`, bound once. A caller may point an entry at
    another `frame` (the streaming session alternates its two state rows
    so).
    """

    def __init__(self, params: dict, xs: np.ndarray, h: np.ndarray, c: np.ndarray,
                 tail: int | None = None, tail_from: int | None = None):
        self.params = params
        self.xs = xs
        W, lead = len(xs), h.shape[:-1]
        self.hidden_dim = H = hidden_dim_of(params)
        self.dtype = dtype = cell_dtype(params, xs, h, c)
        wx, self.wh, self.b = params["lstm_wx"], params["lstm_wh"], params["lstm_b"]
        self.z = z = np.empty(lead + (4 * H,), dtype)
        self._z_cand = z[..., 2 * H:3 * H]
        self._zh = np.empty_like(z)
        self._ig = np.empty(lead + (H,), dtype)
        self._one = np.dtype(dtype).type(1.0)
        (_, self._first), *more = input_blocks(len(wx), tail, tail_from)
        self._wx = wx[self._first]
        # each further block: its rows and columns of x, its rows of wx, a
        # scratch product and the rows of z it adds into
        self._more = [(rows, cols, wx[cols], np.empty_like(z[rows]), z[rows])
                      for rows, cols in more]
        self.hs = np.empty((W + 1,) + lead + (H,), dtype)
        self.cs = np.empty_like(self.hs)
        self.hs[0], self.cs[0] = h, c
        self.act, self.g, self.tanh_c = (np.empty((W,) + lead + (n,), dtype)
                                         for n in (4 * H, H, H))
        self.logits = np.empty((W,) + lead + (params["head_w"].shape[1],),
                               np.result_type(dtype, params["head_w"]))
        self.frames = [self.frame(k, k, k + 1) for k in range(W)]

    @property
    def n_frames(self) -> int:
        return len(self.xs)

    @functools.cached_property
    def grad_scratch(self) -> tuple:
        """`window_backward`'s buffers and, last frame first, each frame's
        views of them and of the tape. The zeroed product row is multiplied
        by `act` whole (the candidate block's product goes unread): one call
        is about 5x faster than two over the strided blocks it needs."""
        dz, dh, decay = map(np.empty_like, (self.act, self.g, self.g))
        cols = _column_blocks(0, 4 * self.hidden_dim)
        frames = [(*self.gates(self.act[t]), self.act[t], self.g[t], self.cs[t], self.tanh_c[t],
                   dh[t], decay[t], dz[t], [dz[t][..., c] for c in cols])
                  for t in reversed(range(self.n_frames))]
        return (dz, dh, decay, np.zeros_like(self.act[0]),
                *map(np.empty_like, [self.hs[0]] * 3), frames)

    def gates(self, act: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The input, forget and output gate views of an `act` array."""
        H = self.hidden_dim
        return act[..., :H], act[..., H:2 * H], act[..., 3 * H:]

    def frame(self, k: int, src: int, dst: int) -> tuple[tuple, np.ndarray]:
        """The `cell` arguments of frame k, reading state row `src` and
        writing row `dst`, and the frame's logits row."""
        x, act, hs, cs = self.xs[k], self.act[k], self.hs, self.cs
        more = tuple((x[rows][..., cols], *ops) for rows, cols, *ops in self._more)
        return ((hs[src], cs[src], x[..., self._first], act, *self.gates(act), self.g[k],
                 cs[dst], self.tanh_c[k], hs[dst], more), self.logits[k])

    def cell(self, h, c, x, act, i, f, o, g, c_new, tanh_c, h_new, more):
        """One update of state (h, c) on input x, the first column block
        (`more` the operands of the others). `act` receives the sigmoid of
        all four gate blocks, `i`, `f`, `o` are its `gates`, and `g`
        receives the candidate's tanh."""
        z, one = self.z, self._one
        np.matmul(x, self._wx, z)
        for xb, wb, part, zb in more:
            np.matmul(xb, wb, part)
            zb += part
        np.matmul(h, self.wh, self._zh)
        z += self._zh
        z += self.b
        np.tanh(self._z_cand, g)
        np.negative(z, act)                 # act = 1 / (1 + exp(-z))
        np.exp(act, act)
        act += one
        np.divide(one, act, act)
        np.multiply(i, g, self._ig)
        np.multiply(f, c, c_new)
        c_new += self._ig
        np.tanh(c_new, tanh_c)
        np.multiply(o, tanh_c, h_new)

    def step(self, k: int) -> np.ndarray:
        args, logits = self.frames[k]
        self.cell(*args)
        return head_forward(self.params, args[-2], logits)


def window_loss_and_dlogits(ms: np.ndarray, ys, prox_targets=None,
                            prox_weight: float = 0.0) -> tuple[float, np.ndarray]:
    """Summed window loss (cross-entropy + optional proximal term) and its
    gradient w.r.t. the per-frame logits.

    `ms` is (..., N) and `ys` the matching (...) labels: one window is (T, N),
    B windows in lockstep (T, B, N). The proximal term is
    prox_weight * sum ||m - prox_targets||^2, pulling outputs toward the
    previous epoch's. Gradients go through the explicit softmax Jacobian so
    the probability-floor clamp is honored.
    """
    ms = np.asarray(ms)
    ys = np.asarray(ys)
    bad = (ys < 0) | (ys >= ms.shape[-1])
    if bad.any():
        at = tuple(int(v) for v in np.argwhere(bad)[0])
        raise DataValidationError(
            f"label {int(ys[at])} out of range at window frame {at[0]}")
    my = np.take_along_axis(ms, ys[..., None], axis=-1).astype(np.float64)
    kept = my > PROB_FLOOR
    clamped = np.where(kept, my, PROB_FLOOR)
    loss = float(-np.log(clamped).sum())
    dm = np.zeros_like(ms)
    np.put_along_axis(dm, ys[..., None], np.where(kept, -1.0 / clamped, 0.0), axis=-1)
    if prox_targets is not None and prox_weight > 0.0:
        diff = ms - prox_targets
        loss += prox_weight * float((diff * diff).sum(dtype=np.float64))
        dm += 2.0 * prox_weight * diff
    # softmax Jacobian: dz_k = m_k * (dm_k - <dm, m>)
    dlogits = ms * (dm - (dm * ms).sum(axis=-1, keepdims=True))
    return loss, dlogits


def window_backward(params: dict, rec: WindowRecorder, dlogits: np.ndarray,
                    out: dict) -> dict[str, np.ndarray]:
    """Analytic gradients of the window loss w.r.t. all parameter blocks,
    summed over the window's frames and over its batch rows, from the frame
    arrays of a `WindowRecorder`, written into the blocks of `out`
    (`Adam.grads` in training) and returned.

    Gradients do not flow into the inputs (SSM statistics are constants) or
    past the window's initial state. A frame whose dlogits are zero from the
    end of its row onward adds exactly zero, which is how rows whose window
    ended early are masked.
    """
    H = rec.hidden_dim
    dz, dh_all, decay, prod, dh_next, dc, dc_next, frames = rec.grad_scratch
    one, dlogits = rec._one, np.asarray(dlogits)
    # for the whole window: dz holds 1 - act (1 - g * g in the candidate
    # block) until frame t, decay 1 - tanh(c')^2 and dh dlogits @ head_w.T,
    # a stacked product so that a single stream's frames stay one-row products
    dz_g = dz[..., 2 * H:3 * H]
    np.subtract(one, rec.act, dz)
    np.multiply(rec.g, rec.g, dz_g)
    np.subtract(one, dz_g, dz_g)
    np.multiply(rec.tanh_c, rec.tanh_c, decay)
    np.subtract(one, decay, decay)
    dl = dlogits if dlogits.ndim > 2 else dlogits[:, None]
    np.matmul(dl, params["head_w"].T, dh_all.reshape(dl.shape[:-1] + (H,)))
    # dz_t @ wh.T summed over the column blocks of 4H, as x @ wx is, so
    # its bits do not depend on the BLAS thread count
    wh_t = [params["lstm_wh"].T[cols] for cols in _column_blocks(0, 4 * H)]
    p_i, p_f, p_g, p_o = (prod[..., k * H:(k + 1) * H] for k in range(4))
    dh_next[...] = dc_next[...] = 0
    for i, f, o, act, g, c, tanh_c, dh, decay_t, dz_t, dz_cols in frames:
        dh += dh_next                       # dh = dh_next + dlogits[t] @ head_w.T
        np.multiply(dh, o, dc)              # dc = dc_next + dh * o * (1 - tanh_c^2)
        dc *= decay_t
        dc += dc_next
        np.multiply(dc, g, p_i)             # dz = di * i * (1 - i), df * f * (1 - f),
        np.multiply(dc, c, p_f)             # dg * (1 - g * g), do * o * (1 - o)
        np.multiply(dh, tanh_c, p_o)
        prod *= act
        np.multiply(dc, i, p_g)
        dz_t *= prod
        np.matmul(dz_cols[0], wh_t[0], dh_next)
        for zb, wb in zip(dz_cols[1:], wh_t[1:]):
            np.matmul(zb, wb, dc_next)      # dc_next is free until its turn
            dh_next += dc_next
        np.multiply(dc, f, dc_next)
    dz, dl = dz.reshape(-1, 4 * H), dlogits.reshape(-1, dlogits.shape[-1])
    np.matmul(rec.xs.reshape(-1, input_dim_of(params)).T, dz, out["lstm_wx"])
    np.matmul(rec.hs[:-1].reshape(-1, H).T, dz, out["lstm_wh"])
    dz.sum(0, out=out["lstm_b"])
    np.matmul(rec.hs[1:].reshape(-1, H).T, dl, out["head_w"])
    dl.sum(0, out=out["head_b"])
    return out


def clip_global_norm(grads: FlatBlocks, max_norm: float) -> float:
    """Scale gradients in place so the global norm is at most max_norm;
    returns the norm before clipping, the sum in block order of each block's
    float64 sum of squares (squared in `grads.squares`)."""
    total = 0.0
    for g in grads.values():
        sq = grads.squares[:g.size].reshape(g.shape)
        np.copyto(sq, g)                    # g.astype(float64) ** 2, without
        np.multiply(sq, sq, sq)             # the casting loop of np.square
        total += float(sq.sum())
    norm = float(np.sqrt(total))
    if norm > max_norm:
        for g in grads.values():
            g *= max_norm / norm
    return norm


class FlatBlocks(dict):
    """Blocks of the given shapes, in order, as views of one vector `flat`."""

    def __init__(self, flat: np.ndarray, shapes: dict):
        ends = np.cumsum([math.prod(s) for s in shapes.values()])[:-1]
        super().__init__(zip(shapes, map(np.reshape, np.split(flat, ends), shapes.values())))
        self.flat = flat

    @functools.cached_property
    def squares(self) -> np.ndarray:
        """Float64 scratch the size of the largest block, allocated on first
        use (`clip_global_norm`)."""
        return np.empty(max(b.size for b in self.values()))


class Adam:
    """Adam with bias correction on one flat vector, whose views the
    constructor binds into `params`; the moments `m`, `v` and the gradient
    buffer `grads` are `FlatBlocks` of that layout. `step` takes only these:
    it checks the whole gradient, then runs each textbook operation once
    over the vector in the formula's order (so its floats are the
    formula's), the denominator in `grads`."""

    def __init__(self, params: dict, lr: float, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.lr, self.beta1, self.beta2, self.eps, self.t = lr, beta1, beta2, eps, 0
        shapes = {k: np.shape(v) for k, v in params.items()}
        flat = np.concatenate([np.ravel(v) for v in params.values()])
        self.params, self.m, self.v, self.grads = (FlatBlocks(a, shapes) for a in (
            flat, np.zeros_like(flat), np.zeros_like(flat), np.empty_like(flat)))
        params.update(self.params)
        self._upd = np.empty_like(flat)

    def step(self, params: dict, grads: dict) -> None:
        if grads is not self.grads or any(params.get(k) is not p for k, p in self.params.items()):
            raise UsageError("Adam.step takes the parameter views its constructor "
                             "bound and its own gradient buffer")
        g = grads.flat
        if not np.isfinite(g).all():
            bad = next(k for k, b in self.grads.items() if not np.isfinite(b).all())
            raise NumericError(f"non-finite gradient in parameter block '{bad}'")
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        m, v, upd = self.m.flat, self.v.flat, self._upd
        np.multiply(g, 1.0 - b1, upd)       # m = b1 * m + (1 - b1) * g
        m *= b1
        m += upd
        np.multiply(g, g, upd)              # v = b2 * v + (1 - b2) * (g * g)
        upd *= 1.0 - b2
        v *= b2
        v += upd
        # p -= lr * (m / bc1) / (sqrt(v / bc2) + eps), the denominator in g
        np.divide(m, bc1, upd)
        upd *= self.lr
        np.divide(v, bc2, g)
        np.sqrt(g, g)
        g += self.eps
        upd /= g
        self.params.flat -= upd


def save_checkpoint(path, params: dict, extra: dict) -> None:
    """Write params (and a JSON `extra` echo) in the PHCK binary format:
    magic, u32 version, length-prefixed JSON, then named float32-LE blocks.
    The file is replaced atomically: a failed write leaves the old one."""
    blob = json.dumps(extra, sort_keys=True).encode("utf-8")
    with atomic_open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        fh.write(struct.pack("<I", len(params)))
        for name, arr in params.items():
            nb = name.encode("utf-8")
            fh.write(struct.pack("<I", len(nb)))
            fh.write(nb)
            fh.write(struct.pack("<I", arr.ndim))
            for d in arr.shape:
                fh.write(struct.pack("<I", d))
            fh.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


def load_checkpoint(path) -> tuple[dict, dict]:
    """Read a PHCK checkpoint; returns (params, extra). A file that does not
    follow the format raises DataValidationError naming it."""
    data = read_bytes(path)
    off = 0

    def take(n):
        nonlocal off
        if off + n > len(data):
            raise DataValidationError(f"truncated checkpoint file: {path}")
        off += n
        return data[off - n:off]

    def u32():
        return struct.unpack("<I", take(4))[0]

    if take(4) != CHECKPOINT_MAGIC:
        raise DataValidationError(f"bad checkpoint magic in {path}")
    version = u32()
    if version != CHECKPOINT_VERSION:
        raise DataValidationError(f"unsupported checkpoint version {version} in {path}")
    try:
        extra = json.loads(take(u32()).decode("utf-8"))
        if not isinstance(extra, dict):
            raise ValueError("the header is not a JSON object")
        params = {}
        for _ in range(u32()):
            name = take(u32()).decode("utf-8")
            shape = [u32() for _ in range(u32())]
            params[name] = np.frombuffer(take(4 * math.prod(shape)),
                                         dtype="<f4").reshape(shape).copy()
    except (ValueError, RecursionError) as e:
        raise DataValidationError(f"malformed checkpoint {path}: {e}") from None
    if off != len(data):
        raise DataValidationError(f"trailing bytes in checkpoint file: {path}")
    return params, extra
