"""Command-line entry point:

    phaseflow synth  --grammar mgh-like --videos 100 --seed 1 --out data/
    phaseflow train  --data data/ --config run.json --out ckpt/
    phaseflow infer  --ckpt ckpt/best.ckpt --data data/ --out pred/
    phaseflow eval   --pred pred/ --data data/ --out report/
    phaseflow ablate --data data/ --config run.json --seeds 1,2,3 --out ablation/

What each command writes into its --out directory:

    synth   manifest.json; per video a directory <video_id>/ holding
            features.bin, labels.csv and meta.json
    train   config.json, training_log.jsonl, epoch_NNN.ckpt per epoch and
            best.ckpt; a checkpoint is one file, the transition matrix
            included
    infer   <video_id>.csv per test video and summary.json; the checkpoint
            decides the passes (an acausal model writes pass 2: both passes
            run in lockstep over all videos in `model.infer_dataset`)
    eval    metrics.json, confusion.csv, accuracy_vs_length.csv and
            timelines/<video_id>.svg
    ablate  config.json, ablation.json, ablation.csv and per run
            <arm>_seed<n>/training_log.jsonl; --seeds and --arms must each
            list at least one item, none of them twice

Exit codes: 0 success, 2 usage error, 3 data validation error, 4 numeric
failure. A config file is a JSON object of `ExperimentConfig` fields, such as
{"epochs": 3, "enabled_ssm_features": ["csl"]}; a field left out keeps its
default. config.json holds every field: the "config" of a checkpoint header.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import io
import json
import os
import sys

import numpy as np

from . import data as data_mod
from . import eval as eval_mod
from . import model as model_mod
from . import ssm
from . import train as train_mod
from .core import (
    CSV_UNREAD,
    DataValidationError,
    ExperimentConfig,
    NumericError,
    UsageError,
    parse_csv_rows,
    read_json,
    read_text,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

LOCK_NAME = ".phaseflow.lock"
# per-video confidence of `infer`; not a .csv, which `eval` would read as predictions
SUMMARY_NAME = "summary.json"

ABLATION_ARMS = {
    "baseline": ((), False),
    "gabor": (("gabor",), False),
    "csl": (("csl",), False),
    "hmm": (("hmm",), False),
    "ssm": (("csl", "gabor", "hmm"), False),
    "acausal": (("csl", "gabor", "hmm"), True),
}
DEFAULT_ARMS = "baseline,gabor,csl,ssm,acausal"
# the scalar metrics of an ablation run: with `bucket_accuracy` the keys of
# each result in ablation.json, and the columns of ablation.csv before the
# acc_<bucket> ones
ABLATION_METRICS = ("accuracy", "precision", "recall", "f1", "short_bucket_mean",
                    "transition_accuracy", "midpoint_accuracy", "ambiguity_accuracy")
CONFIG_HELP = 'JSON object of config fields, e.g. {"epochs": 3, "acausal": true}'


# ---------------------------------------------------------------------------
# Config files

def load_config(path: str | None) -> ExperimentConfig:
    """The config in JSON file `path` (the defaults without one); any fault of
    the file is a UsageError naming it: the config is an argument, exit 2."""
    if path is None:
        return ExperimentConfig()
    try:
        d = read_json(path)
        if not isinstance(d, dict):
            raise UsageError(f"expected a JSON object, got {type(d).__name__}")
        return ExperimentConfig.from_dict(d)
    except (DataValidationError, UsageError) as e:  # read_json names the file too
        raise UsageError(f"config file {path}: {str(e).removeprefix(f'{path}: ')}") from None


def write_config_echo(outdir: str, config: ExperimentConfig) -> None:
    with open(os.path.join(outdir, "config.json"), "w") as fh:
        json.dump(config.to_dict(), fh, indent=1)


@contextlib.contextmanager
def output_dir(path: str):
    """Create the output directory and hold its lock file for the duration of
    the command; concurrent invocations on the same directory are refused."""
    os.makedirs(path, exist_ok=True)
    lock = os.path.join(path, LOCK_NAME)
    try:
        os.close(os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
    except FileExistsError:
        raise UsageError(f"output directory {path} is locked by another invocation "
                         f"(stale? remove {lock})") from None
    try:
        yield path
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(lock)


# ---------------------------------------------------------------------------
# synth

def cmd_synth(args) -> int:
    if args.grammar in data_mod.GRAMMAR_PRESETS:
        grammar = data_mod.GRAMMAR_PRESETS[args.grammar]()
    elif os.path.exists(args.grammar):
        grammar = data_mod.load_grammar(args.grammar)
    else:
        raise UsageError(
            f"unknown grammar {args.grammar!r}: not a preset "
            f"({', '.join(sorted(data_mod.GRAMMAR_PRESETS))}) or a file")
    if args.videos < 1:
        raise UsageError("--videos must be >= 1")
    if args.seed < 0:
        raise UsageError(f"--seed must be >= 0, got {args.seed}")
    with output_dir(args.out) as out:
        seqs = data_mod.generate_dataset(grammar, args.videos, args.seed)
        splits = data_mod.default_split(args.videos)
        manifest = {
            "schema_version": 1,
            "grammar": grammar.name,
            "seed": args.seed,
            "ambiguity_groups": [list(g) for g in grammar.ambiguity_groups],
            "videos": [{"id": s.video_id, "split": sp}
                       for s, sp in zip(seqs, splits)],
        }
        data_mod.write_dataset(out, seqs, grammar.taxonomy, manifest)
        lengths = [s.n_frames for s in seqs]
        print(f"wrote {len(seqs)} videos to {out} "
              f"(mean length {np.mean(lengths):.0f} frames)")
    return EXIT_OK


# ---------------------------------------------------------------------------
# train

def cmd_train(args) -> int:
    config = load_config(args.config)
    (train_seqs, val_seqs), taxonomy, _ = data_mod.read_splits(args.data, ("train", "val"))
    with output_dir(args.out) as out:
        write_config_echo(out, config)
        result = train_mod.fit(
            config, taxonomy, train_seqs, val_seqs,
            log_path=os.path.join(out, "training_log.jsonl"), ckpt_dir=out)
        print(f"best epoch {result.best_epoch} "
              f"(val accuracy {result.best_val_accuracy:.4f}); "
              f"checkpoints in {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# infer

def _prediction_path(outdir: str, video_id: str) -> str:
    return os.path.join(outdir, f"{video_id}.csv")


def write_prediction_csv(path, result: model_mod.InferenceResult,
                         labels: np.ndarray) -> None:
    """One row per frame: `frame_idx,predicted_id,prob_0,...,prob_{N-1}`
    under that header, with \\r\\n line ends, formatted by one `%` over one
    float64 table (frame index and label exact integers under `%d`). Each
    probability is written `%.9g`: 9 significant digits (FLT_DECIMAL_DIG)
    name every float32 exactly, so read_prediction_csv returns the float32
    probabilities bit for bit, and `labels` as int64."""
    t, n = result.probs.shape
    table = np.empty((t, n + 2))
    table[:, 0], table[:, 1], table[:, 2:] = np.arange(t), labels, result.probs
    row = "%d,%d," + ",".join(["%.9g"] * n) + "\r\n"
    header = ",".join(["frame_idx", "predicted_id"] + [f"prob_{p}" for p in range(n)])
    with open(path, "w", newline="") as fh:
        fh.write(header + "\r\n" + row * t % tuple(table.ravel().tolist()))


def read_prediction_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Labels (int64) and probabilities (float32) written by
    write_prediction_csv; `frame_idx` is not read. Text that is not UTF-8,
    a header without prob_0..prob_{N-1}, rows `core.parse_csv_rows` does not
    parse (blank, with another number of fields, a predicted_id that is not
    a decimal integer, a probability that is not a number, ...), a
    predicted_id outside 0..N-1 or a probability outside [0, 1] (nan too)
    raise DataValidationError naming the line."""
    text = read_text(path)
    header = next(csv.reader(io.StringIO(text, newline="")), [])
    n = len(header) - 2
    if n < 1 or header != ["frame_idx", "predicted_id"] + [f"prob_{p}" for p in range(n)]:
        raise DataValidationError(
            f"{path}: line 1: expected the header frame_idx,predicted_id,prob_0,...")
    # frame_idx is read as a 1-character string and dropped, so any text
    # there passes as before, while loadtxt still checks every row's width
    rows = parse_csv_rows(text, np.dtype([("frame", "U1"), ("id", np.int64),
                                          ("probs", np.float64, (n,))]))
    ok = rows is not None and ((rows["id"] >= 0) & (rows["id"] < n)).all()
    if ok and ((rows["probs"] >= 0) & (rows["probs"] <= 1)).all():
        return rows["id"].copy(), rows["probs"].astype(np.float32)
    lines = list(csv.reader(io.StringIO(text, newline="")))
    raise DataValidationError(f"{path}: {_first_bad_row(lines)}")


def _first_bad_row(rows: list[list[str]]) -> str:
    """Describe the first data row read_prediction_csv rejects."""
    width = len(rows[0])
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != width:
            return f"line {lineno}: expected {width} fields, got {len(row)}"
        try:
            if int(row[1]) not in range(width - 2):
                return (f"line {lineno}: predicted_id {row[1]} is not a phase id "
                        f"0..{width - 3}")
        except ValueError:
            return f"line {lineno}: predicted_id {row[1]!r} is not an integer"
        for name, value in zip(rows[0][2:], row[2:]):
            try:
                if not 0 <= float(value) <= 1:
                    return f"line {lineno}: {name} {value!r} is not a probability"
            except ValueError:
                return f"line {lineno}: {name} {value!r} is not a number"
    return CSV_UNREAD


def cmd_infer(args) -> int:
    if not os.path.isfile(args.ckpt):
        raise UsageError(f"no checkpoint file at {args.ckpt}")
    mdl = model_mod.load_model(args.ckpt)
    (seqs,), _, _ = data_mod.read_splits(args.data, ("test",), mdl.taxonomy)
    ordered = list(model_mod.infer_dataset(mdl, seqs).values())     # in id order
    # finite weights can still overflow; nothing is written from NaN rows
    bad = [r.video_id for r in ordered if not np.isfinite(r.probs).all()]
    if bad:
        raise NumericError(f"probabilities that are not finite in {len(bad)} video(s), "
                           f"first {bad[0]}")
    labels = [r.labels for r in ordered]
    if args.hmm_smooth:     # one forward filter over every video
        marginals = ssm.HmmFilterState(mdl.transition).streams([r.probs for r in ordered])
        labels = [np.argmax(m, axis=1) for m in marginals]
    with output_dir(args.out) as out:
        for result, lab in zip(ordered, labels):
            write_prediction_csv(_prediction_path(out, result.video_id), result, lab)
        total = _confidence(np.concatenate([r.probs for r in ordered]))
        summary = {"videos": {r.video_id: _confidence(r.probs) for r in ordered},
                   "total": total}
        with open(os.path.join(out, SUMMARY_NAME), "w") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True, allow_nan=False)
        print(f"wrote {len(seqs)} prediction files to {out}: {total['frames']} frames, "
              f"mean max-probability {total['mean_max_prob']:.4f}, "
              f"{total['low_confidence_frac']:.1%} below 0.5")
    return EXIT_OK


def _confidence(probs: np.ndarray) -> dict:
    """Frames, mean max-probability and the share of frames whose
    max-probability is below 0.5 (a video has at least one frame)."""
    top = probs.max(axis=1)
    return {"frames": len(top), "mean_max_prob": float(top.mean(dtype=np.float64)),
            "low_confidence_frac": float((top < 0.5).mean())}


# ---------------------------------------------------------------------------
# eval

def cmd_eval(args) -> int:
    if not os.path.isdir(args.pred):
        raise UsageError(f"no prediction directory at {args.pred}")
    ids = sorted(f[:-4] for f in os.listdir(args.pred) if f.endswith(".csv"))
    if not ids:
        raise DataValidationError(f"no prediction csvs in {args.pred}")
    if bad := [vid for vid in ids if not data_mod.VIDEO_ID.fullmatch(vid)]:
        raise DataValidationError(
            f"{_prediction_path(args.pred, bad[0])}: the name before .csv is not a video id")
    seqs, taxonomy = data_mod.read_videos(args.data, ids)
    video_results = []
    for vid, seq in zip(ids, seqs):
        if seq.labels is None:
            raise DataValidationError(f"{vid}: dataset has no ground-truth labels")
        path = _prediction_path(args.pred, vid)
        pred, probs = read_prediction_csv(path)
        if probs.shape != (seq.n_frames, taxonomy.n_phases):
            raise DataValidationError(
                f"{path}: {probs.shape[0]} rows of {probs.shape[1]} probabilities "
                f"for {seq.n_frames} frames of {taxonomy.n_phases} phases")
        report = eval_mod.compute_report(seq.labels, pred, taxonomy.n_phases, seq.fps)
        video_results.append({
            "video_id": vid, "gt": seq.labels, "pred": pred,
            "probs": probs, "report": report,
        })
    dataset_report = eval_mod.aggregate_reports(
        [vr["report"] for vr in video_results], taxonomy.n_phases)
    with output_dir(args.out) as out:
        eval_mod.render_report(out, dataset_report, video_results, taxonomy)
        acc = dataset_report.frame_accuracy
        print(f"evaluated {len(video_results)} videos"
              + (f": frame accuracy {acc:.4f}" if acc is not None else ""))
    return EXIT_OK


# ---------------------------------------------------------------------------
# ablate

def _arm_metrics(report: eval_mod.MetricsReport, ambiguity_phases) -> dict:
    buckets = report.bucket_accuracy()
    short = [v for name, _, hi in eval_mod.DURATION_BUCKETS
             if hi <= 30 and (v := buckets[name]) is not None]
    values = {
        **report.frame_stats(),
        "short_bucket_mean": float(np.mean(short)) if short else None,
        "transition_accuracy": report.transition_accuracy,
        "midpoint_accuracy": report.midpoint_accuracy,
        "ambiguity_accuracy": (report.phase_subset_accuracy(ambiguity_phases)
                               if ambiguity_phases else None),
    }
    return {**{k: values[k] for k in ABLATION_METRICS}, "bucket_accuracy": buckets}


def cmd_ablate(args) -> int:
    base_config = load_config(args.config)
    items = [s.strip() for s in args.seeds.split(",") if s.strip()]
    if not items:
        raise UsageError("--seeds must list at least one integer")
    bad = [s for s in items if not (s.isascii() and s.isdigit())]
    if bad:
        raise UsageError(f"--seeds item {bad[0]!r} is not a non-negative integer")
    seeds = [int(s) for s in items]
    arm_names = [a.strip() for a in args.arms.split(",") if a.strip()]
    if not arm_names:
        raise UsageError("--arms must list at least one arm")
    unknown = [a for a in arm_names if a not in ABLATION_ARMS]
    if unknown:
        raise UsageError(f"unknown ablation arms: {unknown}; "
                         f"choose from {sorted(ABLATION_ARMS)}")
    for flag, values in (("--seeds", seeds), ("--arms", arm_names)):
        if repeated := [v for i, v in enumerate(values) if v in values[:i]]:
            raise UsageError(f"{flag} lists {repeated[0]} more than once")
    (train_seqs, val_seqs, test_seqs), taxonomy, ambiguity_phases = data_mod.read_splits(
        args.data, ("train", "val", "test"))
    if not test_seqs:
        raise DataValidationError("ablation needs a manifest with a test split")
    with output_dir(args.out) as out:
        write_config_echo(out, base_config)
        results: dict[str, dict[str, dict]] = {}
        for arm in arm_names:
            feats, acausal = ABLATION_ARMS[arm]
            results[arm] = {}
            for seed in seeds:
                config = dataclasses.replace(base_config, rng_seed=seed,
                                             enabled_ssm_features=feats, acausal=acausal)
                run_dir = os.path.join(out, f"{arm}_seed{seed}")
                os.makedirs(run_dir, exist_ok=True)
                fit_res = train_mod.fit(
                    config, taxonomy, train_seqs, val_seqs,
                    log_path=os.path.join(run_dir, "training_log.jsonl"))
                inferred = model_mod.infer_dataset(fit_res.model, test_seqs)
                reports = [
                    eval_mod.compute_report(seq.labels,
                                            inferred[seq.video_id].labels,
                                            taxonomy.n_phases, seq.fps)
                    for seq in test_seqs
                ]
                pooled = eval_mod.aggregate_reports(reports, taxonomy.n_phases)
                results[arm][str(seed)] = _arm_metrics(pooled, ambiguity_phases)
                print(f"{arm} seed {seed}: "
                      f"accuracy {results[arm][str(seed)]['accuracy']:.4f}")
        payload = {
            "schema_version": 1,
            "arms": arm_names,
            "seeds": seeds,
            "ambiguity_phases": ambiguity_phases,
            "results": results,
            "means": {
                arm: _mean_metrics(list(results[arm].values()))
                for arm in arm_names
            },
        }
        with open(os.path.join(out, "ablation.json"), "w") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)
        _write_ablation_csv(os.path.join(out, "ablation.csv"), payload)
        print(f"ablation table written to {out}")
    return EXIT_OK


def _mean_metrics(per_seed: list[dict]) -> dict:
    def mean(values):
        values = [v for v in values if v is not None]
        return float(np.mean(values)) if values else None

    out = {key: mean(m[key] for m in per_seed) for key in ABLATION_METRICS}
    out["bucket_accuracy"] = {name: mean(m["bucket_accuracy"][name] for m in per_seed)
                              for name, _, _ in eval_mod.DURATION_BUCKETS}
    return out


def _write_ablation_csv(path, payload: dict) -> None:
    bucket_names = [name for name, _, _ in eval_mod.DURATION_BUCKETS]
    header = ["arm", "seed", *ABLATION_METRICS] + [f"acc_{b}" for b in bucket_names]

    def row_of(arm, seed, m):
        vals = [m[k] for k in ABLATION_METRICS] + [m["bucket_accuracy"][b] for b in bucket_names]
        return [arm, seed] + ["" if v is None else f"{v:.6f}" for v in vals]

    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for arm in payload["arms"]:
            for seed in payload["seeds"]:
                w.writerow(row_of(arm, seed, payload["results"][arm][str(seed)]))
            w.writerow(row_of(arm, "mean", payload["means"][arm]))


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phaseflow",
        description="surgical workflow phase recognition toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--grammar", default="mgh-like",
                   help="grammar preset name or JSON grammar file")
    p.add_argument("--videos", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train a model")
    p.add_argument("--data", required=True)
    p.add_argument("--config", default=None, help=CONFIG_HELP)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("infer", help="write per-video prediction csvs and summary.json; "
                       "an acausal checkpoint runs both passes and writes pass 2")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--hmm-smooth", action="store_true", dest="hmm_smooth")
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("eval", help="compute metrics for predictions")
    p.add_argument("--pred", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="run the feature-subset comparison")
    p.add_argument("--data", required=True)
    p.add_argument("--config", default=None, help=CONFIG_HELP)
    p.add_argument("--seeds", required=True, help='e.g. "1,2,3"')
    p.add_argument("--out", required=True)
    p.add_argument("--arms", default=DEFAULT_ARMS,
                   help=f"comma list from {sorted(ABLATION_ARMS)}")
    p.set_defaults(func=cmd_ablate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except DataValidationError as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as e:
        print(f"numeric error: {e}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
