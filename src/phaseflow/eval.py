"""Evaluation suite: frame metrics, per-phase precision/recall/F1,
duration-bucket accuracy, per-segment transition and midpoint statistics,
confusion matrices, and report rendering (JSON/CSV/SVG timelines).

All metrics are stored as raw counts so dataset-level aggregation is just
count pooling: frame accuracy is micro (pooled frames), P/R/F1 macro over the
phases present in the pooled ground truth.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass

import numpy as np

from .core import DataValidationError, PhaseTaxonomy

DURATION_BUCKETS = (
    ("1-3s", 1, 3),
    ("4-10s", 4, 10),
    ("11-30s", 11, 30),
    ("31-60s", 31, 60),
    (">60s", 61, np.inf),
)
TRANSITION_WINDOW_S = 10
METRICS_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class Segment:
    """Maximal constant-label run; `end` is inclusive. Length in frames equals
    seconds at 1 fps."""

    phase: int
    start: int
    end: int

    @property
    def length(self) -> int:
        return self.end - self.start + 1

    @property
    def midpoint(self) -> int:
        return (self.start + self.end) // 2


def extract_segments(labels) -> list[Segment]:
    labels = np.asarray(labels)
    if labels.shape[0] == 0:
        raise DataValidationError("cannot segment an empty label sequence")
    boundaries = np.flatnonzero(labels[1:] != labels[:-1]) + 1
    starts = np.concatenate([[0], boundaries])
    ends = np.concatenate([boundaries - 1, [labels.shape[0] - 1]])
    return [Segment(int(labels[s]), int(s), int(e)) for s, e in zip(starts, ends)]


def bucket_of(length: int) -> int:
    for i, (_, lo, hi) in enumerate(DURATION_BUCKETS):
        if lo <= length <= hi:
            return i
    raise DataValidationError(f"segment length {length} fits no duration bucket")


def transitions_of(labels) -> list[tuple[int, int]]:
    """(frame, phase) pairs where the label changes into `phase`."""
    labels = np.asarray(labels)
    idx = np.flatnonzero(labels[1:] != labels[:-1]) + 1
    return [(int(t), int(labels[t])) for t in idx]


def _check_lengths(gt, pred):
    gt = np.asarray(gt)
    pred = np.asarray(pred)
    if gt.shape != pred.shape:
        raise DataValidationError(
            f"label length mismatch: gt {gt.shape} vs pred {pred.shape}")
    return gt, pred


def confusion_matrix(gt, pred, n_phases: int) -> np.ndarray:
    gt, pred = _check_lengths(gt, pred)
    cm = np.zeros((n_phases, n_phases), dtype=np.int64)
    np.add.at(cm, (gt, pred), 1)
    return cm


def bucket_counts(gt, pred) -> np.ndarray:
    """(5, 2) [correct, total] frame counts; each frame belongs to the
    duration bucket of its ground-truth segment."""
    gt, pred = _check_lengths(gt, pred)
    counts = np.zeros((len(DURATION_BUCKETS), 2), dtype=np.int64)
    for seg in extract_segments(gt):
        b = bucket_of(seg.length)
        sl = slice(seg.start, seg.end + 1)
        counts[b, 0] += int((pred[sl] == seg.phase).sum())
        counts[b, 1] += seg.length
    return counts


def match_transitions(gt, pred, window: int = TRANSITION_WINDOW_S) -> dict:
    """Greedy nearest-first matching of predicted to ground-truth transitions
    into the same phase within `window` seconds; each transition matches at
    most once. Returns raw counts."""
    gt, pred = _check_lengths(gt, pred)
    gt_trans = transitions_of(gt)
    pred_trans = transitions_of(pred)
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


def midpoint_counts(gt, pred) -> tuple[int, int]:
    gt, pred = _check_lengths(gt, pred)
    segs = extract_segments(gt)
    correct = sum(1 for s in segs if pred[s.midpoint] == s.phase)
    return correct, len(segs)


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
        t = self.total_frames
        return float(np.trace(self.confusion)) / t if t else None

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
        if self.transitions_gt_total == 0:
            return None
        return self.transitions_matched / self.transitions_gt_total

    @property
    def transition_accuracy_pred_anchored(self) -> float | None:
        if self.transitions_pred_total == 0:
            return None
        return self.transitions_matched / self.transitions_pred_total

    @property
    def midpoint_accuracy(self) -> float | None:
        if self.midpoint_total == 0:
            return None
        return self.midpoint_correct / self.midpoint_total

    def bucket_accuracy(self) -> dict[str, float | None]:
        return {name: (float(c) / t if t > 0 else None)
                for (name, _, _), (c, t) in zip(DURATION_BUCKETS, self.bucket)}

    def phase_subset_accuracy(self, phases) -> float | None:
        """Micro frame accuracy over frames whose gt phase is in `phases`."""
        idx = list(phases)
        total = int(self.confusion[idx].sum())
        if total == 0:
            return None
        return float(self.confusion[idx, idx].sum()) / total

    def to_dict(self, taxonomy: PhaseTaxonomy | None = None) -> dict:
        stats = self.frame_stats()
        names = taxonomy.names if taxonomy else None
        per_phase = None
        if stats is not None:
            per_phase = {
                (names[p] if names else str(p)): v
                for p, v in stats["per_phase"].items()
            }
        return {
            "n_videos": self.n_videos,
            "total_frames": self.total_frames,
            "frame_accuracy": self.frame_accuracy,
            "precision": stats["precision"] if stats else None,
            "recall": stats["recall"] if stats else None,
            "f1": stats["f1"] if stats else None,
            "per_phase": per_phase,
            "bucket_accuracy": self.bucket_accuracy(),
            "transition_accuracy": self.transition_accuracy,
            "transition_accuracy_pred_anchored": self.transition_accuracy_pred_anchored,
            "midpoint_accuracy": self.midpoint_accuracy,
            "confusion": self.confusion.tolist(),
        }


def compute_report(gt, pred, n_phases: int) -> MetricsReport:
    gt, pred = _check_lengths(gt, pred)
    tc = match_transitions(gt, pred)
    mc, mt = midpoint_counts(gt, pred)
    return MetricsReport(
        n_phases=n_phases,
        confusion=confusion_matrix(gt, pred, n_phases),
        bucket=bucket_counts(gt, pred),
        transitions_matched=tc["matched"],
        transitions_gt_total=tc["gt_total"],
        transitions_pred_total=tc["pred_total"],
        midpoint_correct=mc,
        midpoint_total=mt,
    )


def aggregate_reports(reports, n_phases: int) -> MetricsReport:
    """Pool per-video reports; order-invariant by construction."""
    agg = MetricsReport(
        n_phases=n_phases,
        confusion=np.zeros((n_phases, n_phases), dtype=np.int64),
        bucket=np.zeros((len(DURATION_BUCKETS), 2), dtype=np.int64),
        n_videos=0,
    )
    for r in reports:
        agg.confusion += r.confusion
        agg.bucket += r.bucket
        agg.transitions_matched += r.transitions_matched
        agg.transitions_gt_total += r.transitions_gt_total
        agg.transitions_pred_total += r.transitions_pred_total
        agg.midpoint_correct += r.midpoint_correct
        agg.midpoint_total += r.midpoint_total
        agg.n_videos += r.n_videos
    return agg


# ---------------------------------------------------------------------------
# Rendering

def _phase_color(phase: int, n_phases: int) -> str:
    hue = (360.0 * phase) / max(1, n_phases)
    return f"hsl({hue:.0f},70%,50%)"


def render_timeline_svg(path, gt, probs, taxonomy: PhaseTaxonomy) -> None:
    """Two-row timeline: ground truth on top, prediction runs below with
    opacity proportional to the run's mean peak probability."""
    gt = np.asarray(gt)
    probs = np.asarray(probs)
    pred = np.argmax(probs, axis=1)
    peak = probs.max(axis=1)
    T = gt.shape[0]
    width, row_h, gap = 1000.0, 40, 14
    sx = width / T
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{int(width)}" '
        f'height="{2 * row_h + 3 * gap + 20}">',
        f'<text x="0" y="{gap - 3}" font-size="11">ground truth (top) vs '
        f'prediction (bottom), {T} frames</text>',
    ]
    for seg in extract_segments(gt):
        lines.append(
            f'<rect x="{seg.start * sx:.2f}" y="{gap}" '
            f'width="{seg.length * sx:.2f}" height="{row_h}" '
            f'fill="{_phase_color(seg.phase, taxonomy.n_phases)}">'
            f'<title>{taxonomy.names[seg.phase]}</title></rect>')
    y1 = row_h + 2 * gap
    for seg in extract_segments(pred):
        opacity = float(peak[seg.start:seg.end + 1].mean())
        lines.append(
            f'<rect x="{seg.start * sx:.2f}" y="{y1}" '
            f'width="{seg.length * sx:.2f}" height="{row_h}" '
            f'opacity="{opacity:.3f}" '
            f'fill="{_phase_color(seg.phase, taxonomy.n_phases)}">'
            f'<title>{taxonomy.names[seg.phase]}</title></rect>')
    lines.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(lines))


def accuracy_vs_length_rows(video_pairs, n_bins: int = 10) -> list[dict]:
    """Frame accuracy stratified by gt segment length over log-spaced bins."""
    seg_stats = []
    for gt, pred in video_pairs:
        gt, pred = _check_lengths(gt, pred)
        for seg in extract_segments(gt):
            sl = slice(seg.start, seg.end + 1)
            seg_stats.append((seg.length, int((pred[sl] == seg.phase).sum()), seg.length))
    if not seg_stats:
        return []
    max_len = max(s[0] for s in seg_stats)
    edges = np.geomspace(1.0, max_len + 1.0, n_bins + 1)
    rows = []
    for b in range(n_bins):
        lo, hi = edges[b], edges[b + 1]
        correct = total = 0
        for length, c, t in seg_stats:
            if lo <= length < hi or (b == n_bins - 1 and length == max_len):
                correct += c
                total += t
        rows.append({"bin_lo": float(lo), "bin_hi": float(hi),
                     "n_frames": total,
                     "accuracy": correct / total if total else None})
    return rows


def render_report(outdir, dataset_report: MetricsReport,
                  video_results: list[dict], taxonomy: PhaseTaxonomy) -> None:
    """Write metrics.json, confusion.csv, per-video timeline SVGs and the
    accuracy-vs-segment-length curve CSV.

    `video_results` entries: {"video_id", "gt", "pred", "probs", "report"}.
    """
    os.makedirs(outdir, exist_ok=True)
    payload = {
        "schema_version": METRICS_SCHEMA_VERSION,
        "dataset": dataset_report.to_dict(taxonomy) if video_results else
                   _null_dataset_dict(),
        "per_video": {
            vr["video_id"]: vr["report"].to_dict(taxonomy) for vr in video_results
        },
    }
    with open(os.path.join(outdir, "metrics.json"), "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
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
                            vr["gt"], vr["probs"], taxonomy)
    rows = accuracy_vs_length_rows([(vr["gt"], vr["pred"]) for vr in video_results])
    with open(os.path.join(outdir, "accuracy_vs_length.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["bin_lo", "bin_hi", "n_frames", "accuracy"])
        for r in rows:
            w.writerow([f"{r['bin_lo']:.4f}", f"{r['bin_hi']:.4f}", r["n_frames"],
                        "" if r["accuracy"] is None else f"{r['accuracy']:.6f}"])


def _null_dataset_dict() -> dict:
    return {
        "n_videos": 0, "total_frames": 0, "frame_accuracy": None,
        "precision": None, "recall": None, "f1": None, "per_phase": None,
        "bucket_accuracy": {name: None for name, _, _ in DURATION_BUCKETS},
        "transition_accuracy": None, "transition_accuracy_pred_anchored": None,
        "midpoint_accuracy": None, "confusion": None,
    }
