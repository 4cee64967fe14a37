"""Trained bits do not depend on the BLAS thread count. Each run is a new
interpreter with `OPENBLAS_NUM_THREADS` set before numpy loads, the only
time OpenBLAS reads it. It fits an acausal model (518 input columns, 24
rows per training batch: OpenBLAS sums a product over more than 448
columns in an order that depends on its thread count), a causal model on
2048-d embeddings and a causal model with 130 hidden units (the backward
pass's `dz @ wh.T` sums over 4H = 520 columns), and hashes their
checkpoints, the backward and head products at the 2048-d shapes and the
gradients of a two-frame `nn.window_backward` at H = 130."""

import os
import subprocess
import sys

import phaseflow

SRC = os.path.dirname(os.path.dirname(phaseflow.__file__))

FITS = """
import hashlib, os, tempfile
import numpy as np
from phaseflow import data, model, nn, train
from phaseflow.core import ExperimentConfig, FeatureSequence

def short(seqs, n):
    return [FeatureSequence(s.video_id, s.fps, s.features[:n], s.labels[:n]) for s in seqs]

def digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()

for name, embed, hidden, acausal in (("acausal", 128, 64, True),
                                     ("embed-2048", 2048, 64, False),
                                     ("hidden-130", 128, 130, False)):
    grammar = data.default_grammar_mgh_like(embed_dim=embed)
    seqs = short(data.generate_dataset(grammar, 14, seed=5), 40)
    cfg = ExperimentConfig(epochs=1, embed_dim=embed, hidden_dim=hidden, acausal=acausal,
                           rng_seed=2)
    fit = train.fit(cfg, grammar.taxonomy, seqs[:12], seqs[12:])
    with tempfile.TemporaryDirectory() as out:
        model.save_model(fit.model, os.path.join(out, "best.ckpt"))
        print(name, digest(os.path.join(out, "best.ckpt")))
rng = np.random.default_rng(0)
for rows in (64, 96, 256):
    xs, dz = (rng.standard_normal((rows, n)).astype(np.float32) for n in (2243, 256))
    wh, head_w = (rng.standard_normal(s).astype(np.float32) for s in ((64, 256), (64, 13)))
    hs = rng.standard_normal((rows, 64)).astype(np.float32)
    for label, prod in (("xs.T @ dz", xs.T @ dz), ("dz @ wh.T", dz @ wh.T),
                        ("hs @ head_w", hs @ head_w), ("hs.T @ dz", hs.T @ dz)):
        print(rows, label, hashlib.sha256(prod.tobytes()).hexdigest())
params = nn.init_params(64, 130, 13, rng)
for rows in (12, 32, 96):
    xs = rng.standard_normal((2, rows, 64)).astype(np.float32)
    h, c = rng.standard_normal((2, rows, 130)).astype(np.float32)
    rec = nn.WindowRecorder(params, xs, h, c)
    dlogits = np.stack([rec.step(k) for k in range(2)])
    grads = nn.window_backward(params, rec, dlogits,
                               {k: np.empty_like(v) for k, v in params.items()})
    print(rows, "window_backward", hashlib.sha256(b"".join(
        grads[k].tobytes() for k in sorted(grads))).hexdigest())
"""


def run_fits(threads: int) -> list[str]:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
               PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    done = subprocess.run([sys.executable, "-c", FITS], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_checkpoints_and_products_are_the_same_under_one_and_two_blas_threads():
    one, two = run_fits(1), run_fits(2)
    assert len(one) == 3 + 3 * 4 + 3
    for a, b in zip(one, two):
        assert a == b
