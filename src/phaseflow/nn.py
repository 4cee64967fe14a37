"""Minimal neural-network layer: LSTM cell, affine head, softmax
cross-entropy, truncated-BPTT backward pass and Adam, all hand-derived in
numpy.

Gate layout inside the fused (4H) axis is [input | forget | candidate |
output]. Model math runs in float32; passing float64 parameters switches the
whole path to 64-bit (what the finite-difference gradient checks use).

`LstmCell` holds the one implementation of the cell's arithmetic, and
`WindowRecorder.step` is the one forward step (cell, then head) that
streaming inference, the loss-free lockstep forward and the taped training
window all run. The recorder's frame arrays are the tape `window_backward`
reads; untaped, every frame points at the caller's h and c and one set of
gate buffers, which the cell overwrites in place with the same floats.

Every per-frame array may carry leading batch axes: the cell, the
recorder, the window loss and the backward pass index with `...`, so B streams
stepped in lockstep are one (B, D) @ (D, 4H) matmul per frame and one
backward pass per window. A single stream is the case without batch axes.
BLAS sums a product with B > 1 rows in another order than a single row, so
a stream's outputs are bit-equal to streaming inference only at B=1; at
larger B they agree to float rounding.
"""

from __future__ import annotations

import json
import math
import struct

import numpy as np

from .core import DataValidationError, NumericError, atomic_open, read_bytes

PROB_FLOOR = 1e-12
CHECKPOINT_MAGIC = b"PHCK"
CHECKPOINT_VERSION = 1


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


class LstmCell:
    """The LSTM cell, bound to one parameter set, batch shape `lead` and
    dtype: the one implementation of its arithmetic, shared by `lstm_step`
    and `WindowRecorder`.

    A call writes the gate activations, c', tanh(c') and h' into arrays the
    caller passes, so the caller decides what is fresh (a taped frame) and
    what is overwritten in place (an untaped recorder passes h and c as h'
    and c'); the pre-activation and the input-gate product live in scratch
    bound here. Each operation is the one the textbook expression
    `z = x @ wx + h @ wh + b`, `c' = f * c + i * g`, `h' = o * tanh(c')`
    performs, in the same order, so the floats are the expression's."""

    def __init__(self, params: dict, lead: tuple, dtype):
        self.hidden_dim = H = hidden_dim_of(params)
        self.wx, self.wh, self.b = params["lstm_wx"], params["lstm_wh"], params["lstm_b"]
        self.dtype = dtype
        self._z = np.empty(lead + (4 * H,), dtype)
        self._z_cand = self._z[..., 2 * H:3 * H]
        self._zh = np.empty_like(self._z)
        self._ig = np.empty(lead + (H,), dtype)
        self._one = np.dtype(dtype).type(1.0)

    def __call__(self, h, c, x, act, g, c_new, tanh_c, h_new):
        """One update of state (h, c) on input x. `act` receives the
        sigmoid of all four gate blocks and `g` the candidate's tanh."""
        H = self.hidden_dim
        z = self._z
        np.matmul(x, self.wx, out=z)
        np.matmul(h, self.wh, out=self._zh)
        z += self._zh
        z += self.b
        np.tanh(self._z_cand, out=g)
        np.negative(z, out=act)             # act = 1 / (1 + exp(-z))
        np.exp(act, out=act)
        act += self._one
        np.divide(self._one, act, out=act)
        i, f, o = act[..., :H], act[..., H:2 * H], act[..., 3 * H:]
        np.multiply(i, g, out=self._ig)
        np.multiply(f, c, out=c_new)
        c_new += self._ig
        np.tanh(c_new, out=tanh_c)
        np.multiply(o, tanh_c, out=h_new)


def cell_dtype(params: dict, *inputs) -> np.dtype:
    """The dtype of the cell's arithmetic on these inputs (arrays or
    dtypes) and parameters."""
    return np.result_type(*inputs, *(params[k] for k in ("lstm_wx", "lstm_wh", "lstm_b")))


def lstm_step(params: dict, h: np.ndarray, c: np.ndarray,
              x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One LSTM cell update; returns (h', c')."""
    if x.shape[-1:] != (input_dim_of(params),):
        raise DataValidationError(
            f"lstm input dimension mismatch: got {x.shape}, "
            f"expected ({input_dim_of(params)},)")
    lead = np.broadcast_shapes(x.shape[:-1], h.shape[:-1])
    dtype, H = cell_dtype(params, x, h, c), hidden_dim_of(params)
    act = np.empty(lead + (4 * H,), dtype)
    g, c_new, tanh_c, h_new = (np.empty(lead + (H,), dtype) for _ in range(4))
    LstmCell(params, lead, dtype)(h, c, x, act, g, c_new, tanh_c, h_new)
    return h_new, c_new


def head_forward(params: dict, h: np.ndarray) -> np.ndarray:
    """Affine map hidden -> phase logits."""
    w = params["head_w"]
    if h.shape[-1:] != w.shape[:1]:
        raise DataValidationError(
            f"head input dimension mismatch: got {h.shape}, "
            f"expected ({hidden_dim_of(params)},)")
    logits = h @ w
    logits += params["head_b"]
    return logits


class WindowRecorder:
    """The LSTM forward over one window of input rows `xs` (W, ..., D),
    frame by frame, and the frame arrays it writes, which are the tape of
    `window_backward`: the states `hs`, `cs` (W + 1, ..., H) from the
    caller's `h`, `c`, the gate activations `act` (W, ..., 4H), the
    candidate `g` and `tanh_c` (W, ..., H). `step(k)` runs the `LstmCell`
    on row k, which the caller may fill just before (the SSM statistic of
    frame k depends on the outputs of earlier frames), and returns the
    logits of h'. With (B, H) states it runs B streams in lockstep.

    Untaped, the frame arrays are lists whose every frame is the caller's
    `h` and `c` and one set of gate buffers, so the state is updated in
    place and a step allocates only the logits; taped, every frame has its
    own arrays. The arithmetic is the same either way, so a taped forward is
    bit-equal to streaming.
    """

    def __init__(self, params: dict, xs: np.ndarray, h: np.ndarray, c: np.ndarray,
                 taped: bool = True):
        self.params = params
        self.xs = xs
        W, lead = len(xs), h.shape[:-1]
        self.cell = cell = LstmCell(params, lead, cell_dtype(params, xs, h, c))
        H, dtype = cell.hidden_dim, cell.dtype
        if taped:
            hs = np.empty((W + 1,) + lead + (H,), dtype)
            cs = np.empty_like(hs)
            hs[0], cs[0] = h, c
            act, g, tanh_c = (np.empty((W,) + lead + (n,), dtype) for n in (4 * H, H, H))
        else:
            hs, cs = [h] * (W + 1), [c] * (W + 1)
            act, g, tanh_c = ([np.empty(lead + (n,), dtype)] * W for n in (4 * H, H, H))
        self.hs, self.cs, self.act, self.g, self.tanh_c = hs, cs, act, g, tanh_c
        self._frames = [(hs[k], cs[k], xs[k], act[k], g[k], cs[k + 1], tanh_c[k], hs[k + 1])
                        for k in range(W)]

    @property
    def n_frames(self) -> int:
        return len(self.xs)

    def step(self, k: int) -> np.ndarray:
        frame = self._frames[k]
        self.cell(*frame)
        return head_forward(self.params, frame[-1])


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
    arrays of a taped `WindowRecorder`.

    Gradients do not flow into the inputs (SSM statistics are constants) or
    past the window's initial state. A frame whose dlogits are zero from the
    end of its row onward adds exactly zero, which is how rows whose window
    ended early are masked.
    """
    H, N = hidden_dim_of(params), n_phases_of(params)
    dz = np.empty_like(rec.act)
    dh_next = np.zeros_like(rec.hs[0])
    dc_next = np.zeros_like(rec.cs[0])
    wh_t = params["lstm_wh"].T
    whead_t = params["head_w"].T
    for t in reversed(range(rec.n_frames)):
        act, g, tanh_c = rec.act[t], rec.g[t], rec.tanh_c[t]
        i, f, o = act[..., :H], act[..., H:2 * H], act[..., 3 * H:]
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
        dh_next = dz_t @ wh_t
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
        raise DataValidationError(f"unsupported checkpoint version {version}")
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
    except ValueError as e:
        raise DataValidationError(f"malformed checkpoint {path}: {e}") from None
    if off != len(data):
        raise DataValidationError(f"trailing bytes in checkpoint file: {path}")
    return params, extra
