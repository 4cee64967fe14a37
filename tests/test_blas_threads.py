"""Trained bits do not depend on the BLAS thread count. Each run is a new
interpreter with `OPENBLAS_NUM_THREADS` set before numpy loads, the only
time OpenBLAS reads it. It fits an acausal model (518 input columns, 24
rows per training batch: OpenBLAS sums a product over more than 448
columns in an order that depends on its thread count) and a causal model
on 2048-d embeddings, and hashes their checkpoints and the backward and
head products at the 2048-d shapes."""

import os
import subprocess
import sys

import phaseflow

SRC = os.path.dirname(os.path.dirname(phaseflow.__file__))

FITS = """
import hashlib, os, tempfile
import numpy as np
from phaseflow import data, model, train
from phaseflow.core import ExperimentConfig, FeatureSequence

def short(seqs, n):
    return [FeatureSequence(s.video_id, s.fps, s.features[:n], s.labels[:n]) for s in seqs]

def digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()

for name, embed, acausal in (("acausal", 128, True), ("embed-2048", 2048, False)):
    grammar = data.default_grammar_mgh_like(embed_dim=embed)
    seqs = short(data.generate_dataset(grammar, 14, seed=5), 40)
    cfg = ExperimentConfig(epochs=1, embed_dim=embed, acausal=acausal, rng_seed=2)
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
    assert len(one) == 2 + 3 * 4
    for a, b in zip(one, two):
        assert a == b
