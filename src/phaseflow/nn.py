"""Minimal neural-network layer: LSTM cell, affine head, softmax
cross-entropy, truncated-BPTT backward pass and Adam, all hand-derived in
numpy.

Gate layout inside the fused (4H) axis is [input | forget | candidate |
output]. Model math runs in float32; passing float64 parameters switches the
whole path to 64-bit (what the finite-difference gradient checks use).

Every per-frame array may carry leading batch axes: the cell, the taped
step, the window loss and the backward pass index with `...`, so B streams
stepped in lockstep are one (B, D) @ (D, 4H) matmul per frame and one
backward pass per window. A single stream is the case without batch axes.
BLAS sums a product with B > 1 rows in another order than a single row, so
a stream's outputs are bit-equal to streaming inference only at B=1; at
larger B they agree to float rounding.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass

import numpy as np

from .core import DataValidationError, NumericError, atomic_open, softmax

PROB_FLOOR = 1e-12
CHECKPOINT_MAGIC = b"PHCK"
CHECKPOINT_VERSION = 1

PARAM_BLOCKS = ("lstm_wx", "lstm_wh", "lstm_b", "head_w", "head_b")


def init_params(input_dim: int, hidden_dim: int, n_phases: int,
                rng: np.random.Generator, dtype=np.float32) -> dict[str, np.ndarray]:
    """Uniform [-1/sqrt(fan_in), 1/sqrt(fan_in)] init; forget-gate bias 1.0."""
    h = hidden_dim
    sx = 1.0 / np.sqrt(input_dim)
    sh = 1.0 / np.sqrt(h)
    params = {
        "lstm_wx": rng.uniform(-sx, sx, (input_dim, 4 * h)).astype(dtype),
        "lstm_wh": rng.uniform(-sh, sh, (h, 4 * h)).astype(dtype),
        "lstm_b": np.zeros(4 * h, dtype),
        "head_w": rng.uniform(-sh, sh, (h, n_phases)).astype(dtype),
        "head_b": np.zeros(n_phases, dtype),
    }
    params["lstm_b"][h:2 * h] = 1.0
    return params


def hidden_dim_of(params: dict) -> int:
    return params["lstm_wh"].shape[0]


def input_dim_of(params: dict) -> int:
    return params["lstm_wx"].shape[0]


def n_phases_of(params: dict) -> int:
    return params["head_w"].shape[1]


def zero_state(hidden_dim: int, dtype=np.float32) -> tuple[np.ndarray, np.ndarray]:
    return np.zeros(hidden_dim, dtype), np.zeros(hidden_dim, dtype)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-z))


def _cell(params: dict, h: np.ndarray, c: np.ndarray, x: np.ndarray):
    """The LSTM cell shared by streaming and training: returns the gate
    activations (i, f, g, o), c', tanh(c') and h'."""
    H = hidden_dim_of(params)
    z = x @ params["lstm_wx"] + h @ params["lstm_wh"] + params["lstm_b"]
    act = _sigmoid(z)
    i = act[..., :H]
    f = act[..., H:2 * H]
    g = np.tanh(z[..., 2 * H:3 * H])
    o = act[..., 3 * H:]
    c_new = f * c + i * g
    tanh_c = np.tanh(c_new)
    return (i, f, g, o), c_new, tanh_c, o * tanh_c


def lstm_step(params: dict, h: np.ndarray, c: np.ndarray,
              x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One LSTM cell update; returns (h', c')."""
    if x.shape[-1:] != (input_dim_of(params),):
        raise DataValidationError(
            f"lstm input dimension mismatch: got {x.shape}, "
            f"expected ({input_dim_of(params)},)")
    _, c_new, _, h_new = _cell(params, h, c, x)
    return h_new, c_new


def head_forward(params: dict, h: np.ndarray) -> np.ndarray:
    """Affine map hidden -> phase logits."""
    if h.shape[-1:] != (hidden_dim_of(params),):
        raise DataValidationError(
            f"head input dimension mismatch: got {h.shape}, "
            f"expected ({hidden_dim_of(params)},)")
    return h @ params["head_w"] + params["head_b"]


@dataclass
class WindowTape:
    """Forward cache for one truncated-BPTT window.

    Inputs (`xs`) and the initial state are constants of the window: the SSM
    statistics inside `xs` are detached by construction, and gradients stop at
    the window boundary.
    """

    xs: list
    h_prevs: list
    c_prevs: list
    gates: list      # (i, f, g, o) per frame
    c_news: list
    tanh_cs: list
    h_news: list
    ms: list         # softmax outputs per frame

    @property
    def n_frames(self) -> int:
        return len(self.xs)


class WindowRecorder:
    """Taped forward pass over one window, one frame at a time.

    Each step runs `_cell` (the cell of lstm_step), then head_forward and
    softmax: the calls streaming inference makes, so a loss-free training
    forward of one stream is bit-equal to it. Inputs may be produced
    incrementally (the SSM statistic for frame t depends on the recorded m of
    earlier frames). With (B, H) states and (B, D) inputs it tapes B streams
    in lockstep.
    """

    def __init__(self, params: dict, h: np.ndarray, c: np.ndarray):
        self.params = params
        self.h = h
        self.c = c
        self.tape = WindowTape([], [], [], [], [], [], [], [])

    def step(self, x: np.ndarray) -> np.ndarray:
        params = self.params
        h, c = self.h, self.c
        gates, c_new, tanh_c, h_new = _cell(params, h, c, x)
        m = softmax(head_forward(params, h_new))
        t = self.tape
        t.xs.append(x)
        t.h_prevs.append(h)
        t.c_prevs.append(c)
        t.gates.append(gates)
        t.c_news.append(c_new)
        t.tanh_cs.append(tanh_c)
        t.h_news.append(h_new)
        t.ms.append(m)
        self.h, self.c = h_new, c_new
        return m

    @property
    def ms(self) -> np.ndarray:
        return np.stack(self.tape.ms)


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


def window_backward(params: dict, tape: WindowTape,
                    dlogits: np.ndarray) -> dict[str, np.ndarray]:
    """Analytic gradients of the window loss w.r.t. all parameter blocks,
    summed over the window's frames and over its batch rows.

    Gradients do not flow into the inputs (SSM statistics are constants) or
    past the window's initial state. A frame whose dlogits are zero from the
    end of its row onward adds exactly zero, which is how rows whose window
    ended early are masked.
    """
    W = tape.n_frames
    dz_rows = [None] * W
    dh_next = np.zeros_like(tape.h_news[0])
    dc_next = np.zeros_like(tape.c_news[0])
    wh_t = params["lstm_wh"].T
    whead_t = params["head_w"].T
    for t in reversed(range(W)):
        i, f, g, o = tape.gates[t]
        tanh_c = tape.tanh_cs[t]
        dh = dh_next + dlogits[t] @ whead_t
        do = dh * tanh_c
        dc = dc_next + dh * o * (1.0 - tanh_c * tanh_c)
        di = dc * g
        df = dc * tape.c_prevs[t]
        dg = dc * i
        dz_rows[t] = np.concatenate([
            di * i * (1.0 - i),
            df * f * (1.0 - f),
            dg * (1.0 - g * g),
            do * o * (1.0 - o),
        ], axis=-1)
        dh_next = dz_rows[t] @ wh_t
        dc_next = dc * f

    def rows(arrays, width):
        return np.stack(arrays).reshape(-1, width)

    dz = rows(dz_rows, 4 * hidden_dim_of(params))
    dl = np.asarray(dlogits).reshape(-1, n_phases_of(params))
    return {
        "lstm_wx": rows(tape.xs, input_dim_of(params)).T @ dz,
        "lstm_wh": rows(tape.h_prevs, hidden_dim_of(params)).T @ dz,
        "lstm_b": dz.sum(axis=0),
        "head_w": rows(tape.h_news, hidden_dim_of(params)).T @ dl,
        "head_b": dl.sum(axis=0),
    }


def global_grad_norm(grads: dict) -> float:
    sq = 0.0
    for g in grads.values():
        sq += float((g.astype(np.float64) ** 2).sum())
    return float(np.sqrt(sq))


def clip_global_norm(grads: dict, max_norm: float) -> float:
    """Scale gradients in place so the global norm is at most max_norm."""
    norm = global_grad_norm(grads)
    if norm > max_norm:
        scale = max_norm / norm
        for g in grads.values():
            g *= scale
    return norm


class Adam:
    """Standard Adam with bias correction; moment buffers per parameter block."""

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
            self.m[k] = b1 * self.m[k] + (1.0 - b1) * g
            self.v[k] = b2 * self.v[k] + (1.0 - b2) * (g * g)
            m_hat = self.m[k] / bc1
            v_hat = self.v[k] / bc2
            p -= (self.lr * m_hat / (np.sqrt(v_hat) + self.eps)).astype(p.dtype)


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
    """Read a PHCK checkpoint; returns (params, extra)."""
    with open(path, "rb") as fh:
        data = fh.read()

    def take(n, off):
        if off + n > len(data):
            raise DataValidationError(f"truncated checkpoint file: {path}")
        return data[off:off + n], off + n

    chunk, off = take(4, 0)
    if chunk != CHECKPOINT_MAGIC:
        raise DataValidationError(f"bad checkpoint magic in {path}")
    chunk, off = take(4, off)
    version = struct.unpack("<I", chunk)[0]
    if version != CHECKPOINT_VERSION:
        raise DataValidationError(f"unsupported checkpoint version {version}")
    chunk, off = take(4, off)
    chunk, off = take(struct.unpack("<I", chunk)[0], off)
    try:
        extra = json.loads(chunk.decode("utf-8"))
    except ValueError as e:
        raise DataValidationError(f"bad checkpoint header in {path}: {e}") from None
    chunk, off = take(4, off)
    n_blocks = struct.unpack("<I", chunk)[0]
    params = {}
    for _ in range(n_blocks):
        chunk, off = take(4, off)
        chunk, off = take(struct.unpack("<I", chunk)[0], off)
        name = chunk.decode("utf-8")
        chunk, off = take(4, off)
        ndim = struct.unpack("<I", chunk)[0]
        shape = []
        for _ in range(ndim):
            chunk, off = take(4, off)
            shape.append(struct.unpack("<I", chunk)[0])
        count = int(np.prod(shape)) if shape else 1
        chunk, off = take(4 * count, off)
        params[name] = np.frombuffer(chunk, dtype="<f4").reshape(shape).copy()
    if off != len(data):
        raise DataValidationError(f"trailing bytes in checkpoint file: {path}")
    return params, extra
