"""Evaluation suite: frame metrics, per-phase precision/recall/F1,
duration-bucket accuracy, per-segment transition and midpoint statistics,
confusion matrices, and report rendering (JSON/CSV/SVG timelines).

One run-length pass over a video's ground truth (`_runs`) gives each
segment's start and end frame, one `reduceat` its hits (frames predicted
correctly); duration buckets, midpoints and the accuracy-vs-length curve are
read from these. The curve's bins are half-open and log-spaced from 1 to the
longest segment + 1, so each segment lands in exactly one bin.

All metrics are stored as raw counts so dataset-level aggregation is just
count pooling: frame accuracy is micro (pooled frames), P/R/F1 macro over the
phases present in the pooled ground truth. A rate over an empty scope (no
frames, no segments in a bucket, no transitions) is None.
"""

from __future__ import annotations

import csv
import html
import json
import os
from dataclasses import dataclass, fields

import numpy as np

from .core import DataValidationError, PhaseTaxonomy

DURATION_BUCKETS = (
    ("1-3s", 1, 3),
    ("4-10s", 4, 10),
    ("11-30s", 11, 30),
    ("31-60s", 31, 60),
    (">60s", 61, np.inf),
)
# a bucket holds the lengths from its lower bound up to the next one's
_BUCKET_EDGES = np.array([lo for _, lo, _ in DURATION_BUCKETS[1:]])
TRANSITION_WINDOW_S = 10
METRICS_SCHEMA_VERSION = 1


def _runs(labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start and inclusive end frame of each maximal constant-label run."""
    if labels.shape[0] == 0:
        raise DataValidationError("cannot segment an empty label sequence")
    starts = np.flatnonzero(np.r_[True, labels[1:] != labels[:-1]])
    return starts, np.r_[starts[1:] - 1, labels.shape[0] - 1]


def _rate(hits, total) -> float | None:
    """hits / total, or None when the scope has nothing to count."""
    return float(hits / total) if total else None


def _check_lengths(gt, pred):
    gt, pred = np.asarray(gt), np.asarray(pred)
    if gt.shape != pred.shape:
        raise DataValidationError(
            f"label length mismatch: gt {gt.shape} vs pred {pred.shape}")
    return gt, pred


def _bucket_counts(lengths, hits, fps: float) -> np.ndarray:
    """(5, 2) [correct, total] frame counts of ground-truth segments of
    `lengths` frames at `fps` with `hits` correct frames each; each frame
    belongs to the duration bucket of its segment's length in seconds, a
    segment shorter than one second to the first."""
    counts = np.zeros((len(DURATION_BUCKETS), 2), dtype=np.int64)
    np.add.at(counts, np.searchsorted(_BUCKET_EDGES, lengths / fps, side="right"),
              np.stack([hits, lengths], axis=1))
    return counts


def match_transitions(gt, pred, window: float) -> dict:
    """Greedy nearest-first matching of predicted to ground-truth transitions
    into the same phase within `window` frames; each transition matches at
    most once. Returns raw counts."""
    gt, pred = _check_lengths(gt, pred)
    # (frame, phase) where a transition starts a run: every run but the first
    gt_trans, pred_trans = ([(t, int(labels[t])) for t in _runs(labels)[0][1:].tolist()]
                            for labels in (gt, pred))
    pairs = []
    for i, (tg, pg) in enumerate(gt_trans):
        for j, (tp, pp) in enumerate(pred_trans):
            if pg == pp and abs(tp - tg) <= window:
                pairs.append((abs(tp - tg), tg, tp, i, j))
    pairs.sort()
    used_gt, used_pred = set(), set()
    for _, _, _, i, j in pairs:
        if i not in used_gt and j not in used_pred:
            used_gt.add(i)
            used_pred.add(j)
    return {
        "matched": len(used_gt),
        "gt_total": len(gt_trans),
        "pred_total": len(pred_trans),
    }


# ---------------------------------------------------------------------------
# Pooled reports

@dataclass
class MetricsReport:
    """All counts of one evaluation scope (a video or a pooled dataset);
    rates are derived lazily so pooling is pure count addition."""

    n_phases: int
    confusion: np.ndarray
    bucket: np.ndarray                  # (5, 2) correct/total frames
    transitions_matched: int = 0
    transitions_gt_total: int = 0
    transitions_pred_total: int = 0
    midpoint_correct: int = 0
    midpoint_total: int = 0
    n_videos: int = 1

    @property
    def total_frames(self) -> int:
        return int(self.confusion.sum())

    @property
    def frame_accuracy(self) -> float | None:
        return _rate(np.trace(self.confusion), self.total_frames)

    def frame_stats(self) -> dict | None:
        """Frame accuracy plus per-phase precision/recall/F1. Macro averages
        run over phases present in gt; a gt phase with no predicted positives
        contributes precision 0. None when the scope has no frames."""
        if self.total_frames == 0:
            return None
        gt_counts = self.confusion.sum(axis=1)
        per_phase = {}
        macro = []
        for p in range(self.n_phases):
            tp = float(self.confusion[p, p])
            support = float(gt_counts[p])
            predicted = float(self.confusion[:, p].sum())
            if support == 0 and predicted == 0:
                continue
            precision = tp / predicted if predicted > 0 else 0.0
            recall = tp / support if support > 0 else 0.0
            f1 = (2 * precision * recall / (precision + recall)
                  if precision + recall > 0 else 0.0)
            per_phase[p] = {"precision": precision, "recall": recall,
                            "f1": f1, "support": int(support)}
            if support > 0:
                macro.append((precision, recall, f1))
        arr = np.asarray(macro)
        return {
            "accuracy": self.frame_accuracy,
            "precision": float(arr[:, 0].mean()),
            "recall": float(arr[:, 1].mean()),
            "f1": float(arr[:, 2].mean()),
            "per_phase": per_phase,
        }

    @property
    def transition_accuracy(self) -> float | None:
        return _rate(self.transitions_matched, self.transitions_gt_total)

    @property
    def transition_accuracy_pred_anchored(self) -> float | None:
        return _rate(self.transitions_matched, self.transitions_pred_total)

    @property
    def midpoint_accuracy(self) -> float | None:
        return _rate(self.midpoint_correct, self.midpoint_total)

    def bucket_accuracy(self) -> dict[str, float | None]:
        return {name: _rate(c, t)
                for (name, _, _), (c, t) in zip(DURATION_BUCKETS, self.bucket)}

    def phase_subset_accuracy(self, phases) -> float | None:
        """Micro frame accuracy over frames whose gt phase is in `phases`."""
        idx = list(phases)
        return _rate(self.confusion[idx, idx].sum(), self.confusion[idx].sum())

    def to_dict(self, taxonomy: PhaseTaxonomy) -> dict:
        """The `metrics.json` entry of this scope, per-phase rates keyed by
        the taxonomy's names: None rates without frames."""
        stats = self.frame_stats() or {}
        per_phase = ({taxonomy.names[p]: v for p, v in stats["per_phase"].items()}
                     if stats else None)
        return {
            "n_videos": self.n_videos,
            "total_frames": self.total_frames,
            "frame_accuracy": self.frame_accuracy,
            "precision": stats.get("precision"),
            "recall": stats.get("recall"),
            "f1": stats.get("f1"),
            "per_phase": per_phase,
            "bucket_accuracy": self.bucket_accuracy(),
            "transition_accuracy": self.transition_accuracy,
            "transition_accuracy_pred_anchored": self.transition_accuracy_pred_anchored,
            "midpoint_accuracy": self.midpoint_accuracy,
            "confusion": self.confusion.tolist() if stats else None,
        }


def compute_report(gt, pred, n_phases: int, fps: float = 1.0) -> MetricsReport:
    """Counts of one video of `fps` frames per second, which the transition
    window (TRANSITION_WINDOW_S) and the duration buckets are in. Labels
    outside 0..n_phases-1, a length mismatch or an empty video raise
    DataValidationError."""
    gt, pred = _check_lengths(gt, pred)
    for name, labels in (("gt", gt), ("pred", pred)):
        bad = np.flatnonzero((labels < 0) | (labels >= n_phases))
        if bad.size:
            raise DataValidationError(f"{name} label {labels[bad[0]]} at frame "
                                      f"{bad[0]} is not a phase id 0..{n_phases - 1}")
    starts, ends = _runs(gt)
    tc = match_transitions(gt, pred, TRANSITION_WINDOW_S * fps)
    return MetricsReport(
        n_phases=n_phases,
        confusion=np.bincount(gt * n_phases + pred, minlength=n_phases ** 2)
                    .reshape(n_phases, n_phases),
        bucket=_bucket_counts(ends - starts + 1, np.add.reduceat(gt == pred, starts), fps),
        transitions_matched=tc["matched"],
        transitions_gt_total=tc["gt_total"],
        transitions_pred_total=tc["pred_total"],
        midpoint_correct=int(np.count_nonzero(pred[(starts + ends) // 2] == gt[starts])),
        midpoint_total=len(starts),
    )


def aggregate_reports(reports, n_phases: int) -> MetricsReport:
    """Pool per-video reports by adding every count field; order-invariant
    by construction."""
    agg = MetricsReport(n_phases, np.zeros((n_phases, n_phases), dtype=np.int64),
                        np.zeros((len(DURATION_BUCKETS), 2), dtype=np.int64), n_videos=0)
    counts = [f.name for f in fields(MetricsReport) if f.name != "n_phases"]
    for r in reports:
        for name in counts:
            setattr(agg, name, getattr(agg, name) + getattr(r, name))
    return agg


# ---------------------------------------------------------------------------
# Rendering

def _phase_color(phase: int, n_phases: int) -> str:
    hue = (360.0 * phase) / max(1, n_phases)
    return f"hsl({hue:.0f},70%,50%)"


def render_timeline_svg(path, gt, pred, probs, taxonomy: PhaseTaxonomy) -> None:
    """Two-row timeline: ground truth on top, the runs of the predicted
    labels (those the metrics score) below, each with opacity proportional
    to its mean peak probability."""
    gt = np.asarray(gt)
    pred = np.asarray(pred)
    peak = np.asarray(probs).max(axis=1)
    T = gt.shape[0]
    width, row_h, gap = 1000.0, 40, 14
    sx = width / T
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{int(width)}" '
        f'height="{2 * row_h + 3 * gap + 20}">',
        f'<text x="0" y="{gap - 3}" font-size="11">ground truth (top) vs '
        f'prediction (bottom), {T} frames</text>',
    ]
    for y, labels, shaded in ((gap, gt, False), (row_h + 2 * gap, pred, True)):
        starts, ends = _runs(labels)
        for phase, start, end in zip(labels[starts].tolist(), starts.tolist(),
                                     ends.tolist()):
            opacity = (f'opacity="{float(peak[start:end + 1].mean()):.3f}" '
                       if shaded else "")
            lines.append(
                f'<rect x="{start * sx:.2f}" y="{y}" '
                f'width="{(end - start + 1) * sx:.2f}" height="{row_h}" {opacity}'
                f'fill="{_phase_color(phase, taxonomy.n_phases)}">'
                f'<title>{html.escape(taxonomy.names[phase], quote=False)}</title></rect>')
    lines.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(lines))


def accuracy_vs_length_rows(video_pairs) -> list[dict]:
    """Frame accuracy stratified by gt segment length in 10 bins: bin b holds
    the frames of every segment with edges[b] <= length < edges[b + 1], the
    edges log-spaced from 1 to the longest segment + 1."""
    lengths, hits = [], []
    for gt, pred in video_pairs:
        gt, pred = _check_lengths(gt, pred)
        starts, ends = _runs(gt)
        lengths.append(ends - starts + 1)
        hits.append(np.add.reduceat(gt == pred, starts))
    if not lengths:
        return []
    lengths = np.concatenate(lengths)
    edges = np.geomspace(1.0, lengths.max() + 1.0, 11)
    b = np.searchsorted(edges, lengths, side="right") - 1
    totals = np.bincount(b, lengths, 10).astype(np.int64).tolist()
    correct = np.bincount(b, np.concatenate(hits), 10).astype(np.int64).tolist()
    return [{"bin_lo": float(lo), "bin_hi": float(hi), "n_frames": t,
             "accuracy": _rate(c, t)}
            for lo, hi, c, t in zip(edges[:-1], edges[1:], correct, totals)]


def render_report(outdir, dataset_report: MetricsReport,
                  video_results: list[dict], taxonomy: PhaseTaxonomy) -> None:
    """Write metrics.json, confusion.csv, per-video timeline SVGs and the
    accuracy-vs-segment-length curve CSV.

    `video_results` entries: {"video_id", "gt", "pred", "probs", "report"}.
    """
    os.makedirs(outdir, exist_ok=True)
    payload = {
        "schema_version": METRICS_SCHEMA_VERSION,
        "dataset": dataset_report.to_dict(taxonomy),
        "per_video": {
            vr["video_id"]: vr["report"].to_dict(taxonomy) for vr in video_results
        },
    }
    with open(os.path.join(outdir, "metrics.json"), "w") as fh:
        fh.write(json.dumps(payload, indent=1, sort_keys=True))
    with open(os.path.join(outdir, "confusion.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["gt\\pred"] + list(taxonomy.names))
        for p, row in enumerate(dataset_report.confusion):
            w.writerow([taxonomy.names[p]] + [int(v) for v in row])
    tl_dir = os.path.join(outdir, "timelines")
    if video_results:
        os.makedirs(tl_dir, exist_ok=True)
    for vr in video_results:
        render_timeline_svg(os.path.join(tl_dir, f"{vr['video_id']}.svg"),
                            vr["gt"], vr["pred"], vr["probs"], taxonomy)
    rows = accuracy_vs_length_rows([(vr["gt"], vr["pred"]) for vr in video_results])
    with open(os.path.join(outdir, "accuracy_vs_length.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["bin_lo", "bin_hi", "n_frames", "accuracy"])
        for r in rows:
            w.writerow([f"{r['bin_lo']:.4f}", f"{r['bin_hi']:.4f}", r["n_frames"],
                        "" if r["accuracy"] is None else f"{r['accuracy']:.6f}"])

