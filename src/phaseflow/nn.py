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
"""

from __future__ import annotations

import json
import math
import struct

import numpy as np

from .core import DataValidationError, NumericError, atomic_open, read_bytes

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


def n_phases_of(params: dict) -> int:
    return params["head_w"].shape[1]


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
        self.logits = np.empty((W,) + lead + (n_phases_of(params),),
                               np.result_type(dtype, params["head_w"]))
        self.frames = [self.frame(k, k, k + 1) for k in range(W)]

    @property
    def n_frames(self) -> int:
        return len(self.xs)

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


def window_backward(params: dict, rec: WindowRecorder,
                    dlogits: np.ndarray) -> dict[str, np.ndarray]:
    """Analytic gradients of the window loss w.r.t. all parameter blocks,
    summed over the window's frames and over its batch rows, from the frame
    arrays of a `WindowRecorder`.

    Gradients do not flow into the inputs (SSM statistics are constants) or
    past the window's initial state. A frame whose dlogits are zero from the
    end of its row onward adds exactly zero, which is how rows whose window
    ended early are masked.
    """
    H, N = hidden_dim_of(params), n_phases_of(params)
    dz = np.empty_like(rec.act)
    dh_next = np.zeros_like(rec.hs[0])
    dc_next = np.zeros_like(rec.cs[0])
    # dz_t @ wh.T summed over the column blocks of 4H, as x @ wx is, so
    # its bits do not depend on the BLAS thread count
    (cols, wh_t), *more = [(cols, params["lstm_wh"].T[cols])
                           for cols in _column_blocks(0, 4 * H)]
    whead_t = params["head_w"].T
    for t in reversed(range(rec.n_frames)):
        act, g, tanh_c = rec.act[t], rec.g[t], rec.tanh_c[t]
        i, f, o = rec.gates(act)
        dh = dh_next + dlogits[t] @ whead_t
        do = dh * tanh_c
        dc = dc_next + dh * o * (1.0 - tanh_c * tanh_c)
        di = dc * g
        df = dc * rec.cs[t]
        dg = dc * i
        dz_t = dz[t]
        dz_t[..., :H] = di * i * (1.0 - i)
        dz_t[..., H:2 * H] = df * f * (1.0 - f)
        dz_t[..., 2 * H:3 * H] = dg * (1.0 - g * g)
        dz_t[..., 3 * H:] = do * o * (1.0 - o)
        dh_next = dz_t[..., cols] @ wh_t
        for cb, wb in more:
            dh_next += dz_t[..., cb] @ wb
        dc_next = dc * f
    dz = dz.reshape(-1, 4 * H)
    dl = np.asarray(dlogits).reshape(-1, N)
    return {
        "lstm_wx": rec.xs.reshape(-1, input_dim_of(params)).T @ dz,
        "lstm_wh": rec.hs[:-1].reshape(-1, H).T @ dz,
        "lstm_b": dz.sum(axis=0),
        "head_w": rec.hs[1:].reshape(-1, H).T @ dl,
        "head_b": dl.sum(axis=0),
    }


def clip_global_norm(grads: dict, max_norm: float) -> float:
    """Scale gradients in place so the global norm is at most max_norm;
    returns the norm before clipping."""
    norm = float(np.sqrt(sum(float((g.astype(np.float64) ** 2).sum())
                             for g in grads.values())))
    if norm > max_norm:
        scale = max_norm / norm
        for g in grads.values():
            g *= scale
    return norm


class Adam:
    """Standard Adam with bias correction; moment buffers per parameter block.

    `step` updates the moments and parameters in place, with two temporary
    arrays per block and the operations of the textbook formula in the same
    order, so its floats are the formula's."""

    def __init__(self, params: dict, lr: float, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, params: dict, grads: dict) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        for k, p in params.items():
            g = grads[k]
            if not np.isfinite(g).all():
                raise NumericError(f"non-finite gradient in parameter block '{k}'")
            m, v = self.m[k], self.v[k]
            upd = np.multiply(g, 1.0 - b1)      # m = b1 * m + (1 - b1) * g
            m *= b1
            m += upd
            np.multiply(g, g, out=upd)          # v = b2 * v + (1 - b2) * (g * g)
            upd *= 1.0 - b2
            v *= b2
            v += upd
            # p -= lr * (m / bc1) / (sqrt(v / bc2) + eps)
            np.divide(m, bc1, out=upd)
            upd *= self.lr
            den = np.divide(v, bc2)
            np.sqrt(den, out=den)
            den += self.eps
            upd /= den
            p -= upd


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
