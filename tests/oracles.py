"""Helpers shared by several test files: one training window composed from
the package's own pieces, and a finite-difference gradient oracle. No
command runs them, so they live with the tests."""

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
