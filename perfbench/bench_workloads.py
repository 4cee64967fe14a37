"""Workloads of the phaseflow benchmark.

Each workload generates its data from the workload seed, writes and reads it
through the package's dataset format and then drives the public API the way
`phaseflow synth/train/infer/eval` do: `train.fit`, `model.infer_dataset`, a
closed loop of `InferenceSession.step` calls with one client, and the report
stage (`hmm_smooth_posthoc` -> prediction CSV -> `eval`). The package sees
only the generated sequences.

Every workload measures every stage so that every end-to-end metric exists on
every workload; the workloads differ in arm, data shape and in how the run's
seconds are shared between stages:

* fit-ssm: causal csl|gabor|hmm arm, 32 training videos, so each Adam step
  has a full batch of 32 distinct videos; most seconds go to `train.fit`.
* fit-acausal: acausal arm on 12 training videos (fewer than the batch of
  32): two passes per window and a per-epoch two-pass refresh with full
  acausal statistic streams; most seconds go to `train.fit`.
* stream: the model is trained for one epoch during set-up and reloaded
  through its checkpoint; the run streams ~60k test frames one at a time
  (read-only parameters, no backward pass) and then runs `infer_dataset` and
  the report stage over them.

Output checks count one operation each and feed `attempted`/`failed`; an
exception inside an operation counts as a failed operation and the run goes
on.
"""

from __future__ import annotations

import contextlib
import gc
import logging
import os
import shutil
import statistics
import traceback
from array import array
from dataclasses import dataclass, field
from time import perf_counter, perf_counter_ns

import numpy as np

import bench_ref
from phaseflow import cli, data, eval as eval_mod, model, ssm, train
from phaseflow.core import ExperimentConfig

# Largest |p - p_ref| accepted between two float32 probability streams that
# should agree: bit equality is not required, so an engine that sums in
# another order (batched lockstep inference) still passes.
PROB_ATOL = 1e-4
SIMPLEX_TOL = 1e-5


@dataclass(frozen=True)
class Workload:
    name: str
    acausal: bool
    n_train: int
    n_val: int
    n_test: int
    epochs: int
    fit_in_setup: bool
    shares: dict = field(hash=False)   # stage -> share of the run's seconds

    @property
    def n_videos(self) -> int:
        return self.n_train + self.n_val + self.n_test


# infer and report take the test split in chunks of this many videos
CHUNK_VIDEOS = 6
# one stream unit: at least this many steps, so >= 20 samples lie above its p99
STREAM_CHUNK_STEPS = 2000

_FIT_SHARES = {"setup": 0.05, "fit": 0.58, "infer": 0.12, "stream": 0.16, "report": 0.09}
# two-pass inference is slow: more of the run, for as many infer units
_ACAUSAL_SHARES = {"setup": 0.05, "fit": 0.54, "infer": 0.16, "stream": 0.16,
                   "report": 0.09}
_STREAM_SHARES = {"setup": 0.40, "infer": 0.25, "stream": 0.23, "report": 0.12}

WORKLOADS = {
    # 54 videos under data.default_split: 32 train / 11 val / 11 test
    "fit-ssm": Workload("fit-ssm", False, 32, 11, 11, 1, False, _FIT_SHARES),
    # 12 train / 4 val as data.default_split makes of 20 videos, and 12 test
    # videos, so that the infer units average over several videos
    "fit-acausal": Workload("fit-acausal", True, 12, 4, 12, 1, False, _ACAUSAL_SHARES),
    # ~60k test frames (mean video length ~630 frames)
    "stream": Workload("stream", False, 8, 2, 95, 1, True, _STREAM_SHARES),
}

SMOKE_WORKLOADS = {
    "fit-ssm": Workload("fit-ssm", False, 4, 1, 2, 1, False, _FIT_SHARES),
    "fit-acausal": Workload("fit-acausal", True, 3, 1, 1, 1, False, _ACAUSAL_SHARES),
    "stream": Workload("stream", False, 2, 1, 3, 1, True, _STREAM_SHARES),
}


class Checks:
    """Counts checked operations and failures; collects warning records of
    the `phaseflow.train` logger."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.batch_warnings = 0

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)

    def guard(self, what: str, fn, *args):
        """Run one operation; an exception counts as a failed operation."""
        try:
            return fn(*args)
        except Exception as e:  # keep measuring, report the failure
            self.attempted += 1
            self.failed += 1
            self.failures.append(f"{what}: {type(e).__name__}: {e}")
            traceback.print_exc()
            return None

    def simplex(self, probs: np.ndarray, what: str) -> None:
        p = np.asarray(probs, dtype=np.float64)
        ok = (p.ndim == 2 and bool(np.isfinite(p).all())
              and bool((p >= -SIMPLEX_TOL).all()) and bool((p <= 1 + SIMPLEX_TOL).all())
              and float(np.abs(p.sum(axis=1) - 1.0).max(initial=0.0)) <= SIMPLEX_TOL)
        self.check(ok, f"{what}: probabilities off the simplex")

    def close(self, a: np.ndarray, b: np.ndarray, what: str) -> None:
        a, b = np.asarray(a), np.asarray(b)
        ok = a.shape == b.shape and float(np.abs(a - b).max(initial=0.0)) <= PROB_ATOL
        self.check(ok, f"{what}: differs by more than {PROB_ATOL}")


class _WarningCounter(logging.Handler):
    def __init__(self, checks: Checks):
        super().__init__(logging.WARNING)
        self.checks = checks

    def emit(self, record):
        if record.getMessage().startswith("only "):
            self.checks.batch_warnings += 1


@contextlib.contextmanager
def count_batch_warnings(checks: Checks):
    """Count the "only N video(s) for batch size" warnings of train."""
    logger = logging.getLogger("phaseflow.train")
    handler = _WarningCounter(checks)
    logger.addHandler(handler)
    try:
        yield
    finally:
        logger.removeHandler(handler)


def _untraced(tracer):
    return tracer.paused() if tracer is not None else contextlib.nullcontext()


def _label(tracer, label: str) -> None:
    if tracer is not None:
        tracer.set_trace(label)


def _config(wl: Workload, seed: int) -> ExperimentConfig:
    return ExperimentConfig(epochs=wl.epochs, acausal=wl.acausal, rng_seed=seed)


def _fresh_dir(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


@dataclass
class Setup:
    seconds: float
    splits: dict
    taxonomy: object
    ambiguity_phases: list
    fit_result: object = None
    fit_seconds: float = 0.0
    model: object = None


def setup_once(wl: Workload, seed: int, workdir: str, checks: Checks,
               clock, tracer=None) -> Setup:
    """Synth -> write_dataset -> read_dataset per split, as `phaseflow synth`
    and `train` do; for stream also the one-epoch model and its checkpoint
    round trip. Checks run after the timed region, which `clock` times
    without the reference bursts (see bench_ref)."""
    ddir = os.path.join(workdir, "data")
    shutil.rmtree(ddir, ignore_errors=True)
    gc.collect()
    t0 = clock()
    grammar = data.default_grammar_mgh_like()
    seqs = data.generate_dataset(grammar, wl.n_videos, seed)
    split_of = ["train"] * wl.n_train + ["val"] * wl.n_val + ["test"] * wl.n_test
    manifest = {
        "schema_version": 1,
        "grammar": grammar.name,
        "seed": seed,
        "taxonomy": grammar.taxonomy.to_dict(),
        "ambiguity_groups": [list(g) for g in grammar.ambiguity_groups],
        "videos": [{"id": s.video_id, "split": sp} for s, sp in zip(seqs, split_of)],
    }
    data.write_dataset(ddir, seqs, grammar.taxonomy, manifest)
    splits = {}
    for sp in data.SPLITS:
        splits[sp], taxonomy = data.read_dataset(ddir, split=sp)
    out = Setup(0.0, splits, taxonomy,
                sorted({p for g in manifest["ambiguity_groups"] for p in g}))
    if wl.fit_in_setup:
        # training is set-up here; its layers stay out of this workload's trace
        with _untraced(tracer):
            f0 = clock()
            out.fit_result = train.fit(_config(wl, seed), taxonomy,
                                       splits["train"], splits["val"])
            out.fit_seconds = clock() - f0
        ckpt = os.path.join(_fresh_dir(os.path.join(workdir, "model")), "best.ckpt")
        model.save_model(out.fit_result.model, ckpt)
        out.model = model.load_model(ckpt)
    out.seconds = clock() - t0

    with _untraced(tracer):
        by_id = {s.video_id: s for s in seqs}
        read = [s for sp in data.SPLITS for s in splits[sp]]
        checks.check(len(read) == len(seqs) and all(
            np.array_equal(s.features, by_id[s.video_id].features)
            and np.array_equal(s.labels, by_id[s.video_id].labels) for s in read),
            "setup: dataset read back differs from the generated one")
        if out.model is not None:
            saved = out.fit_result.model.params
            checks.check(all(np.array_equal(saved[k], out.model.params[k]) for k in saved),
                         "setup: checkpoint round trip changed the parameters")
    return out


def _fit_checks(wl: Workload, res, fits: list, train_seqs, checks: Checks) -> None:
    loss = res.curve[-1].train_loss
    checks.check(bool(np.isfinite(loss)), "fit: final loss is not finite")
    if len(fits) > 1:
        checks.check(loss == fits[0].curve[-1].train_loss,
                     "fit: final loss differs between identical fits")
        return
    # training-mode forward against streaming inference on one training video
    mdl, seq = res.model, train_seqs[0]
    streamed = model.infer_video(mdl, seq).probs
    checks.close(train.training_forward_probs(mdl, seq), streamed,
                 f"fit: training forward vs infer_video on {seq.video_id}")
    if wl.acausal:
        rows = ssm.acausal_feature_stream(mdl.new_extractor(), streamed)
        checks.close(train.training_forward_probs(mdl, seq, rows.astype(np.float32)),
                     model.infer_video_acausal(mdl, seq).probs,
                     f"fit: two-pass training forward vs infer_video_acausal "
                     f"on {seq.video_id}")


def _quality(st: Setup, inferred: dict, fit_result) -> dict:
    test = st.splits["test"]
    n = st.taxonomy.n_phases
    pooled = eval_mod.aggregate_reports(
        [eval_mod.compute_report(s.labels, inferred[s.video_id].labels, n)
         for s in test], n)
    amb = pooled.phase_subset_accuracy(st.ambiguity_phases)
    return {
        "final_loss": float(fit_result.curve[-1].train_loss),
        "val_accuracy": float(fit_result.best_val_accuracy),
        "test_accuracy": float(pooled.frame_accuracy),
        "ambiguity_accuracy": float(amb) if amb is not None else 0.0,
    }


E2E = ("setup_s", "train_fps", "infer_fps", "step_us_p50", "step_us_p99",
       "report_us_per_frame")
RATES = ("train_fps", "infer_fps")


def _median(samples: list) -> float:
    """The median over a run's units: short units spread over the run put
    the host's short slow spells in the tails. The lowest unit is worse: it
    follows the fastest moment of the run."""
    return float(statistics.median(samples)) if samples else 0.0


class _Stages:
    """Deficit round-robin over the stages: the next unit of work goes to the
    stage furthest behind its share of the seconds. Units are short, so every
    stage samples the whole run and a slow spell of the host touches only a
    few samples of each median. A unit starts only if, at the length of that
    stage's last unit, it ends before the run's deadline."""

    def __init__(self, seconds: float, shares: dict, checks: Checks,
                 threads: dict, sample_inside: bool):
        self.host = bench_ref.HostSpeed()
        self.host.sample()
        self.threads = threads   # stage -> worker threads of its units
        self.sample_inside = sample_inside
        self.slowness: list[float] = []   # per unit, see bench_ref
        self.values: dict[str, list] = {k: [] for k in E2E}  # [(raw, unit)]
        self.deadline = perf_counter() + seconds
        self.budget = {k: seconds * v for k, v in shares.items() if v > 0}
        self.spent = dict.fromkeys(self.budget, 0.0)
        self.last = dict.fromkeys(self.budget, 0.0)
        self.units: dict = {}
        self.checks = checks
        self.failing = dict.fromkeys(self.budget, 0)

    def record(self, metric: str, raw: float) -> None:
        """A value of the unit that is running."""
        self.values[metric].append((raw, len(self.slowness)))

    def run(self, stage: str, unit):
        """Run one unit of `stage`, charge its time and time a reference
        burst after it (and inside it, if it is single-threaded); an
        exception counts as a failed operation."""
        self.units.setdefault(stage, unit)
        gc.collect()
        n = self.threads.get(stage, 1)
        if n > 1:
            self.host.sample(n)
        first = len(self.host.bursts[n]) - 1
        t0 = perf_counter()
        inside = self.sample_inside and n == 1
        with self.host.sampling() if inside else contextlib.nullcontext():
            out = self.checks.guard(stage, unit)
        self.last[stage] = perf_counter() - t0
        self.spent[stage] += self.last[stage]
        self.failing[stage] = 0 if out is not None else self.failing[stage] + 1
        self.host.sample(n)
        self.slowness.append(self.host.slowness_since(first, n))
        if n > 1:
            self.host.sample()
        return out

    def results(self) -> tuple[dict, dict]:
        """Per metric: the median over units at the reference speed, and the
        raw median."""
        at_ref, raw = {}, {}
        for k, pairs in self.values.items():
            at_ref[k] = _median([x * self.slowness[u] if k in RATES
                                 else x / self.slowness[u] for x, u in pairs])
            raw[k] = _median([x for x, _ in pairs])
        return at_ref, raw

    def run_to_budget(self) -> None:
        while True:
            now = perf_counter()
            # a stage that keeps raising stops being scheduled
            behind = [k for k in self.units
                      if self.spent[k] < self.budget[k] and self.failing[k] < 3
                      and now + self.last[k] <= self.deadline]
            if not behind:
                return
            k = min(behind, key=lambda k: self.spent[k] / self.budget[k])
            self.run(k, self.units[k])


def _frames(seqs) -> int:
    return sum(s.n_frames for s in seqs)


def measure(wl: Workload, seed: int, seconds: float, workdir: str,
            checks: Checks, tracer=None) -> dict:
    """Set up once, run one unit of each stage in order, then share the rest
    of `seconds` between the stages. Returns the end-to-end values (medians
    over units), the quality figures and the sample counts."""
    with _untraced(tracer):
        workers = model.worker_thread_count()
    # a burst on the timer would land inside the traced spans
    stages = _Stages(seconds, wl.shares, checks, {"infer": workers},
                     sample_inside=tracer is None)
    rec, host = stages.record, stages.host
    fits = []

    def add_fit(r, dt, train_seqs):
        fits.append(r)
        rec("train_fps", _frames(train_seqs) * wl.epochs / dt)

    # the first set-up's data feeds every other stage; later set-ups are
    # only timed and checked
    def setup_unit(where=os.path.join(workdir, "setup")):
        s = setup_once(wl, seed, where, checks, host.clock, tracer)
        rec("setup_s", s.seconds)
        if wl.fit_in_setup:
            add_fit(s.fit_result, s.fit_seconds, s.splits["train"])
            checks.check(s.fit_result.curve[-1].train_loss == fits[0].curve[-1].train_loss,
                         "set-up fit: final loss differs between identical fits")
        return s

    st = stages.run("setup", lambda: setup_unit(workdir))
    if st is None:
        raise RuntimeError("the first set-up failed; nothing left to measure")
    stages.units["setup"] = setup_unit
    train_seqs, val_seqs, test = st.splits["train"], st.splits["val"], st.splits["test"]
    chunks = [test[i:i + CHUNK_VIDEOS] for i in range(0, len(test), CHUNK_VIDEOS)]
    cfg = _config(wl, seed)

    # fit: as `phaseflow train`, with the log and the checkpoints written
    def fit_unit():
        _label(tracer, "fit")
        ckdir = _fresh_dir(os.path.join(workdir, "fit"))
        t0 = host.clock()
        r = train.fit(cfg, st.taxonomy, train_seqs, val_seqs,
                      log_path=os.path.join(ckdir, "training_log.jsonl"), ckpt_dir=ckdir)
        add_fit(r, host.clock() - t0, train_seqs)
        with _untraced(tracer):
            _fit_checks(wl, r, fits, train_seqs, checks)
        return True

    # infer: model.infer_dataset with the default worker count, one chunk of
    # test videos per unit
    refs: dict = {}
    cursor = {"infer": 0, "stream": 0, "report": 0}

    def next_chunk(stage):
        chunk = chunks[cursor[stage] % len(chunks)]
        cursor[stage] += 1
        return chunk

    def infer_unit():
        chunk = next_chunk("infer")
        _label(tracer, "infer")
        t0 = perf_counter()
        inferred = model.infer_dataset(mdl, chunk)
        rec("infer_fps", _frames(chunk) / (perf_counter() - t0))
        with _untraced(tracer):
            for s in chunk:
                r = inferred[s.video_id]
                checks.simplex(r.probs, f"infer {s.video_id}")
                checks.check(np.array_equal(r.labels, np.argmax(r.probs, axis=1)),
                             f"infer {s.video_id}: labels are not argmax(probs)")
        refs.update(inferred)
        return True

    # stream: closed loop, one client; each frame is sent after the previous
    # step returned. One unit streams whole videos until STREAM_CHUNK_STEPS
    # latencies are in, and yields one p50 and one p99.
    stream_steps = [0]

    def stream_unit():
        lat = array("q")
        while len(lat) < STREAM_CHUNK_STEPS:
            seq = test[cursor["stream"] % len(test)]
            cursor["stream"] += 1
            _label(tracer, seq.video_id)
            sess = model.InferenceSession(mdl)
            for x in seq.features:
                n = host.count
                t0 = perf_counter_ns()
                sess.step(x)
                dt = perf_counter_ns() - t0
                if host.count == n:   # no reference burst inside this step
                    lat.append(dt)
            with _untraced(tracer):
                probs = np.stack(sess.probs)
                ref = refs[seq.video_id]
                checks.simplex(probs, f"stream {seq.video_id}")
                # an acausal model streams its causal pass (zero acausal channels)
                checks.close(probs, ref.pass1_probs if wl.acausal else ref.probs,
                             f"stream {seq.video_id} vs infer_dataset")
        us = np.frombuffer(lat, dtype=np.int64) / 1e3
        rec("step_us_p50", float(np.percentile(us, 50)))
        rec("step_us_p99", float(np.percentile(us, 99)))
        stream_steps[0] += len(lat)
        return True

    # report: hmm smoothing -> prediction csv -> read back -> eval, one chunk
    # of test videos per unit
    def report_unit():
        chunk = next_chunk("report")
        _label(tracer, "report")
        pdir = _fresh_dir(os.path.join(workdir, "pred"))
        n = st.taxonomy.n_phases
        t0 = host.clock()
        smoothed = {}
        for s in chunk:
            r = refs[s.video_id]
            smoothed[s.video_id] = model.hmm_smooth_posthoc(r.probs, mdl.transition)
            cli.write_prediction_csv(os.path.join(pdir, f"{s.video_id}.csv"), r,
                                     smoothed[s.video_id])
        video_results = []
        for s in chunk:
            pred, probs = cli.read_prediction_csv(os.path.join(pdir, f"{s.video_id}.csv"))
            video_results.append({"video_id": s.video_id, "gt": s.labels, "pred": pred,
                                  "probs": probs,
                                  "report": eval_mod.compute_report(s.labels, pred, n)})
        pooled = eval_mod.aggregate_reports([r["report"] for r in video_results], n)
        eval_mod.render_report(os.path.join(workdir, "report"), pooled, video_results,
                               st.taxonomy)
        rec("report_us_per_frame", (host.clock() - t0) / _frames(chunk) * 1e6)
        with _untraced(tracer):
            correct = 0
            for s, r in zip(chunk, video_results):
                checks.check(np.array_equal(r["pred"], smoothed[s.video_id])
                             and float(np.abs(r["probs"] - refs[s.video_id].probs)
                                       .max(initial=0.0)) <= 1e-6,
                             f"report {s.video_id}: prediction csv round trip")
                correct += int((r["pred"] == s.labels).sum())
            checks.check(abs(pooled.frame_accuracy - correct / _frames(chunk)) <= 1e-12,
                         "report: pooled accuracy disagrees with the predictions")
        return True

    # first round in pipeline order: the model comes from the fit (or the
    # set-up), and every test video gets its infer_dataset reference
    if wl.fit_in_setup:
        mdl = st.model
    else:
        stages.run("fit", fit_unit)
        if not fits:
            raise RuntimeError("the first fit failed; nothing left to measure")
        mdl = fits[0].model
    for _ in chunks:
        stages.run("infer", infer_unit)
    stages.run("stream", stream_unit)
    stages.run("report", report_unit)
    stages.run_to_budget()

    with _untraced(tracer):
        quality = checks.guard("quality", _quality, st, refs, fits[0])
    at_ref, raw = stages.results()
    return {
        "e2e": at_ref,
        "raw": raw,
        "values": stages.values,
        "slowness": stages.slowness,
        "quality": quality or {},
        "samples": {**{k: len(x) for k, x in stages.values.items()},
                    "stream_steps": stream_steps[0]},
        "fits": len(fits),
        "train_frames": _frames(train_seqs),
        "test_frames": _frames(test),
    }
