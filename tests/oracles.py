"""Helpers shared by several test files: one training window composed from
the package's own pieces, a finite-difference gradient oracle, the
frame-by-frame statistic streams the closed forms in `ssm` are checked
against, and the unfused Adam update. No command runs them, so they live
with the tests."""

import numpy as np

from phaseflow import nn


def window_pass(params, h, c, xs, ys, prox_targets=None, prox_weight=0.0):
    """Taped forward, loss and backward over one window of precomputed
    inputs; returns (loss, grads)."""
    rec = nn.WindowRecorder(params, h, c)
    for x in xs:
        rec.step(x)
    loss, dlogits = nn.window_loss_and_dlogits(rec.ms, ys, prox_targets, prox_weight)
    return loss, nn.window_backward(params, rec.tape, dlogits)


def feature_stream(extractor, ms) -> np.ndarray:
    """Causal statistic stream, frame by frame: row t is the feature
    available when frame t is processed, i.e. aggregated over m[0..t-1].
    `extractor` must be fresh (no updates yet), so row 0 is zeros; it holds
    the whole stream afterwards."""
    rows = []
    for m in ms:
        rows.append(extractor.feature())
        extractor.update(m)
    return np.stack(rows) if rows else np.zeros((0, extractor.dim))


def per_frame_acausal_stream(extractor, ms) -> np.ndarray:
    """Acausal statistic stream, frame by frame: `feature_stream` over the
    reversed stream, reversed back, so row t aggregates m[t+1..T-1]."""
    return feature_stream(extractor, np.asarray(ms)[::-1])[::-1]


def finite_difference_grads(loss_fn, params, step=1e-5):
    """Central finite differences of loss_fn w.r.t. every parameter entry.

    loss_fn takes the params dict and returns a scalar; intended for 64-bit
    parameters on small instances.
    """
    grads = {}
    for name, p in params.items():
        g = np.zeros_like(p, dtype=np.float64)
        flat = p.reshape(-1)
        gflat = g.reshape(-1)
        for idx in range(flat.shape[0]):
            orig = flat[idx]
            flat[idx] = orig + step
            up = loss_fn(params)
            flat[idx] = orig - step
            down = loss_fn(params)
            flat[idx] = orig
            gflat[idx] = (up - down) / (2.0 * step)
        grads[name] = g
    return grads


def textbook_adam_step(opt, params, grads) -> None:
    """Adam's update as the textbook formula, one new array per term: the
    reference the in-place `nn.Adam.step` must match bit for bit. Advances
    `opt`'s step count and moments as `step` does."""
    opt.t += 1
    b1, b2 = opt.beta1, opt.beta2
    bc1 = 1.0 - b1 ** opt.t
    bc2 = 1.0 - b2 ** opt.t
    for k, p in params.items():
        g = grads[k]
        opt.m[k] = b1 * opt.m[k] + (1.0 - b1) * g
        opt.v[k] = b2 * opt.v[k] + (1.0 - b2) * (g * g)
        m_hat = opt.m[k] / bc1
        v_hat = opt.v[k] / bc2
        p -= (opt.lr * m_hat / (np.sqrt(v_hat) + opt.eps)).astype(p.dtype)
