"""Command-line entry point:

    phaseflow synth  --grammar mgh-like --videos 100 --seed 1 --out data/
    phaseflow train  --data data/ --config run.cfg --out ckpt/
    phaseflow infer  --ckpt ckpt/best.ckpt --data data/ --out pred/
    phaseflow eval   --pred pred/ --data data/ --out report/
    phaseflow ablate --data data/ --config run.cfg --seeds 1,2,3 --out ablation/

Exit codes: 0 success, 2 usage error, 3 data validation error, 4 numeric
failure. Config files are flat `key = value` text; the resolved config is
echoed into every output directory.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
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


# ---------------------------------------------------------------------------
# Config file handling (flat key = value lines, '#' comments)

def _list_value(text: str) -> tuple[str, ...]:
    """A comma list; 'none' is the empty list."""
    items = tuple(v.strip() for v in text.split(",") if v.strip())
    return () if items == ("none",) else items


def parse_config_text(text: str) -> ExperimentConfig:
    d: dict[str, object] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"config line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in ("enabled_ssm_features", "csl_levels"):
            d[key] = _list_value(value)
        elif key == "acausal":
            if value.lower() not in ("true", "false", "0", "1"):
                raise UsageError(f"config key acausal must be true/false, got {value!r}")
            d[key] = value.lower() in ("true", "1")
        else:
            d[key] = value
    return ExperimentConfig.from_dict(d)


def load_config(path: str | None) -> ExperimentConfig:
    if path is None:
        return ExperimentConfig()
    try:
        text = read_text(path)
    except DataValidationError as e:    # the config is an argument: exit 2
        raise UsageError(f"config file: {e}") from None
    return parse_config_text(text)


def write_config_echo(outdir: str, config: ExperimentConfig) -> None:
    lines = []
    for key, value in config.to_dict().items():
        if isinstance(value, list):
            value = ",".join(str(v) for v in value) or "none"
        lines.append(f"{key} = {value}")
    with open(os.path.join(outdir, "config.txt"), "w") as fh:
        fh.write("\n".join(lines) + "\n")


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
    with output_dir(args.out) as out:
        seqs = data_mod.generate_dataset(grammar, args.videos, args.seed)
        splits = data_mod.default_split(args.videos)
        manifest = {
            "schema_version": 1,
            "grammar": grammar.name,
            "seed": args.seed,
            "taxonomy": grammar.taxonomy.to_dict(),
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

def _load_split(datadir: str, split: str):
    """A manifest split; without a manifest every video is training data.
    An empty val or test split is no videos, an empty train split an error."""
    manifest = data_mod.read_manifest(datadir)
    if manifest is None:
        return data_mod.read_dataset(datadir) if split == "train" else ([], None)
    if split != "train" and all(v["split"] != split for v in manifest["videos"]):
        return [], None
    return data_mod.read_dataset(datadir, split=split)


def cmd_train(args) -> int:
    config = load_config(args.config)
    if args.features is not None:
        config = config.with_overrides(enabled_ssm_features=_list_value(args.features))
    if args.acausal:
        config = config.with_overrides(acausal=True)
    train_seqs, taxonomy = _load_split(args.data, "train")
    val_seqs, _ = _load_split(args.data, "val")
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
    under that header, with \\r\\n line ends. Each probability is written
    `%.9g`: 9 significant digits (FLT_DECIMAL_DIG) name every float32
    exactly, so read_prediction_csv returns the float32 probabilities bit for
    bit, and `labels` as int64."""
    n = result.probs.shape[1]
    row = "%d,%d," + ",".join(["%.9g"] * n) + "\r\n"
    header = ",".join(["frame_idx", "predicted_id"] + [f"prob_{p}" for p in range(n)])
    rows = zip(labels.tolist(), result.probs.astype(np.float64).tolist())
    with open(path, "w", newline="") as fh:
        fh.write(header + "\r\n" + "".join([row % (t, lab, *p)
                                            for t, (lab, p) in enumerate(rows)]))


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
    if args.acausal and not mdl.config.acausal:
        raise UsageError("--acausal requires a model trained with acausal features")
    has_split = data_mod.read_manifest(args.data) is not None
    seqs, tax = data_mod.read_dataset(args.data, split="test" if has_split else None)
    if tax.names != mdl.taxonomy.names:
        raise DataValidationError("dataset taxonomy differs from the checkpoint's")
    if args.hmm_smooth and mdl.transition is None:
        raise UsageError("--hmm-smooth needs a transition matrix next to the checkpoint")
    if args.acausal or not mdl.config.acausal:
        results = model_mod.infer_dataset(mdl, seqs)
    else:
        # without --acausal an acausal-capable model runs its causal pass only
        probs, _ = model_mod._lockstep_probs(mdl, seqs)
        results = {s.video_id: model_mod.InferenceResult(s.video_id, p, np.argmax(p, axis=1))
                   for s, p in zip(seqs, probs)}
    ordered = [results[vid] for vid in sorted(results)]
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
    pred_files = sorted(f for f in os.listdir(args.pred) if f.endswith(".csv"))
    if not pred_files:
        raise DataValidationError(f"no prediction csvs in {args.pred}")
    video_results = []
    taxonomy = None
    for fname in pred_files:
        vid = fname[:-4]
        seq, taxonomy = data_mod.read_video_dir(os.path.join(args.data, vid))
        if seq.labels is None:
            raise DataValidationError(f"{vid}: dataset has no ground-truth labels")
        path = os.path.join(args.pred, fname)
        pred, probs = read_prediction_csv(path)
        if probs.shape != (seq.n_frames, taxonomy.n_phases):
            raise DataValidationError(
                f"{path}: {probs.shape[0]} rows of {probs.shape[1]} probabilities "
                f"for {seq.n_frames} frames of {taxonomy.n_phases} phases")
        report = eval_mod.compute_report(seq.labels, pred, taxonomy.n_phases)
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
    seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    if not seeds:
        raise UsageError("--seeds must list at least one integer")
    arm_names = [a.strip() for a in args.arms.split(",") if a.strip()]
    unknown = [a for a in arm_names if a not in ABLATION_ARMS]
    if unknown:
        raise UsageError(f"unknown ablation arms: {unknown}; "
                         f"choose from {sorted(ABLATION_ARMS)}")
    train_seqs, taxonomy = _load_split(args.data, "train")
    val_seqs, _ = _load_split(args.data, "val")
    test_seqs, _ = _load_split(args.data, "test")
    if not test_seqs:
        raise DataValidationError("ablation needs a manifest with a test split")
    groups = data_mod.read_manifest(args.data).get("ambiguity_groups", [])
    n = taxonomy.n_phases
    if not isinstance(groups, list) or not all(
            isinstance(g, list) and all(type(p) is int and 0 <= p < n for p in g)
            for g in groups):
        raise DataValidationError(
            f"{os.path.join(args.data, data_mod.MANIFEST_NAME)}: ambiguity_groups "
            f"must be lists of phase ids in 0..{n - 1}, got {groups!r}")
    ambiguity_phases = sorted({p for g in groups for p in g})
    with output_dir(args.out) as out:
        write_config_echo(out, base_config)
        results: dict[str, dict[str, dict]] = {}
        for arm in arm_names:
            feats, acausal = ABLATION_ARMS[arm]
            results[arm] = {}
            for seed in seeds:
                config = base_config.with_overrides(
                    enabled_ssm_features=feats, acausal=acausal, rng_seed=seed)
                run_dir = os.path.join(out, f"{arm}_seed{seed}")
                os.makedirs(run_dir, exist_ok=True)
                fit_res = train_mod.fit(
                    config, taxonomy, train_seqs, val_seqs,
                    log_path=os.path.join(run_dir, "training_log.jsonl"))
                inferred = model_mod.infer_dataset(fit_res.model, test_seqs)
                reports = [
                    eval_mod.compute_report(seq.labels,
                                            inferred[seq.video_id].labels,
                                            taxonomy.n_phases)
                    for seq in sorted(test_seqs, key=lambda s: s.video_id)
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
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--features", default=None,
                   help="comma list from {csl,gabor,hmm}, or 'none'")
    p.add_argument("--acausal", action="store_true")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("infer", help="write per-video prediction csvs and summary.json")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--acausal", action="store_true")
    p.add_argument("--hmm-smooth", action="store_true", dest="hmm_smooth")
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("eval", help="compute metrics for predictions")
    p.add_argument("--pred", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="run the feature-subset comparison")
    p.add_argument("--data", required=True)
    p.add_argument("--config", default=None)
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
