import json
import re

import numpy as np
import pytest

from phaseflow.core import DataValidationError, PhaseTaxonomy
from phaseflow.eval import (
    DURATION_BUCKETS,
    MetricsReport,
    Segment,
    accuracy_vs_length_rows,
    aggregate_reports,
    bucket_counts,
    compute_report,
    extract_segments,
    match_transitions,
    render_report,
)

# ---------------------------------------------------------------------------
# naive double-loop oracles


def naive_accuracy(gt, pred):
    return sum(1 for a, b in zip(gt, pred) if a == b) / len(gt)


def naive_prf(gt, pred, n):
    out = {}
    for p in range(n):
        tp = sum(1 for a, b in zip(gt, pred) if a == p and b == p)
        fp = sum(1 for a, b in zip(gt, pred) if a != p and b == p)
        fn = sum(1 for a, b in zip(gt, pred) if a == p and b != p)
        if tp + fn == 0 and tp + fp == 0:
            continue
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
        out[p] = (prec, rec, f1, tp + fn)
    return out


def naive_segments(labels):
    segs = []
    start = 0
    for t in range(1, len(labels) + 1):
        if t == len(labels) or labels[t] != labels[start]:
            segs.append((int(labels[start]), start, t - 1))
            start = t
    return segs


def naive_bucket(gt, pred):
    counts = {name: [0, 0] for name, _, _ in DURATION_BUCKETS}
    for phase, s, e in naive_segments(gt):
        length = e - s + 1
        for name, lo, hi in DURATION_BUCKETS:
            if lo <= length <= hi:
                for t in range(s, e + 1):
                    counts[name][1] += 1
                    if pred[t] == phase:
                        counts[name][0] += 1
    return counts


def naive_transitions(labels):
    return [(t, int(labels[t])) for t in range(1, len(labels))
            if labels[t] != labels[t - 1]]


def naive_transition_match(gt, pred, window=10):
    gts = naive_transitions(gt)
    preds = naive_transitions(pred)
    cands = sorted(
        (abs(tp - tg), tg, tp, i, j)
        for i, (tg, pg) in enumerate(gts)
        for j, (tp, pp) in enumerate(preds)
        if pg == pp and abs(tp - tg) <= window
    )
    used_g, used_p = set(), set()
    for _, _, _, i, j in cands:
        if i not in used_g and j not in used_p:
            used_g.add(i)
            used_p.add(j)
    return len(used_g), len(gts), len(preds)


def naive_midpoint(gt, pred):
    segs = naive_segments(gt)
    ok = sum(1 for phase, s, e in segs if pred[(s + e) // 2] == phase)
    return ok, len(segs)


def naive_curve(pairs, n_bins=10):
    """(bin_lo, bin_hi, n_frames, accuracy) per log-spaced length bin, one
    pass over the segments per bin."""
    segs = [(e - s + 1, sum(1 for t in range(s, e + 1) if pred[t] == phase))
            for gt, pred in pairs for phase, s, e in naive_segments(gt)]
    edges = np.geomspace(1.0, max(n for n, _ in segs) + 1.0, n_bins + 1)
    rows = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        total = sum(n for n, _ in segs if lo <= n < hi)
        correct = sum(c for n, c in segs if lo <= n < hi)
        rows.append((lo, hi, total, correct / total if total else None))
    return rows


def random_label_pair(rng, n_phases=5, t_max=120, max_run=19):
    def stream():
        labels = []
        while len(labels) < t_max:
            labels.extend([int(rng.integers(n_phases))]
                          * int(rng.integers(1, max_run + 1)))
        return np.asarray(labels[:t_max])
    return stream(), stream()


# ---------------------------------------------------------------------------


class TestExtractSegments:
    def test_run_length(self):
        segs = extract_segments([0, 0, 1, 1, 1])
        assert segs == [Segment(0, 0, 1), Segment(1, 2, 4)]

    def test_constant(self):
        assert extract_segments([3] * 7) == [Segment(3, 0, 6)]

    def test_alternating(self):
        segs = extract_segments([0, 1, 0, 1])
        assert len(segs) == 4
        assert all(s.length == 1 for s in segs)

    def test_empty_rejected(self):
        with pytest.raises(DataValidationError):
            extract_segments([])

    def test_segments_partition_frames(self):
        rng = np.random.default_rng(0)
        labels, _ = random_label_pair(rng)
        segs = extract_segments(labels)
        assert segs[0].start == 0 and segs[-1].end == len(labels) - 1
        for a, b in zip(segs, segs[1:]):
            assert b.start == a.end + 1
            assert a.phase != b.phase


class TestFrameMetrics:
    @pytest.mark.parametrize("gt, pred, message", [
        ([0, 1, 1], [0, -1, 1], "pred label -1 at frame 1 is not a phase id 0..1"),
        ([0, 1, 1], [0, 1, 2], "pred label 2 at frame 2 is not a phase id 0..1"),
        ([0, 2, 3], [0, 1, 1], "gt label 2 at frame 1 is not a phase id 0..1"),
        ([-1, 0], [0, 0], "gt label -1 at frame 0 is not a phase id 0..1"),
    ], ids=["pred-negative", "pred-N", "gt-N", "gt-negative"])
    def test_label_outside_phase_ids_rejected(self, gt, pred, message):
        with pytest.raises(DataValidationError, match=re.escape(message)):
            compute_report(gt, pred, 2)

    def test_perfect_prediction(self):
        m = compute_report([0, 1, 2], [0, 1, 2], 3).frame_stats()
        assert m["accuracy"] == 1.0
        assert m["f1"] == 1.0

    def test_hand_counted_case(self):
        m = compute_report([0, 0, 1, 1], [0, 1, 1, 1], 2).frame_stats()
        assert m["accuracy"] == 0.75
        assert m["per_phase"][0]["precision"] == 1.0
        assert m["per_phase"][0]["recall"] == 0.5
        assert m["per_phase"][1]["precision"] == pytest.approx(2 / 3)
        assert m["per_phase"][1]["recall"] == 1.0

    def test_absent_phase_excluded(self):
        m = compute_report([0, 0], [0, 0], 3).frame_stats()
        assert set(m["per_phase"]) == {0}

    def test_length_mismatch(self):
        with pytest.raises(DataValidationError):
            compute_report([0, 1], [0], 2)

    def test_micro_identity_accuracy_is_confusion_trace(self):
        rng = np.random.default_rng(1)
        gt, pred = random_label_pair(rng)
        rep = compute_report(gt, pred, 5)
        assert rep.frame_stats()["accuracy"] == np.trace(rep.confusion) / len(gt)


class TestBuckets:
    def test_only_long_bucket_populated(self):
        gt = np.zeros(100, dtype=int)
        acc = compute_report(gt, gt, 2).bucket_accuracy()
        assert acc[">60s"] == 1.0
        assert all(acc[name] is None for name in ("1-3s", "4-10s", "11-30s", "31-60s"))

    def test_hand_case_short_wrong_long_right(self):
        gt = np.array([0] * 2 + [1] * 100)
        pred = np.array([1] * 2 + [1] * 100)
        acc = compute_report(gt, pred, 2).bucket_accuracy()
        assert acc["1-3s"] == 0.0
        assert acc[">60s"] == 1.0

    def test_bucket_populations_partition_frames(self):
        rng = np.random.default_rng(2)
        gt, pred = random_label_pair(rng)
        counts = bucket_counts(gt, pred)
        assert counts[:, 1].sum() == len(gt)


class TestTransitions:
    def test_perfect_prediction(self):
        rng = np.random.default_rng(3)
        gt, _ = random_label_pair(rng)
        assert compute_report(gt, gt, 5).transition_accuracy == 1.0

    def test_shift_by_eleven_not_matched(self):
        gt = np.array([0] * 20 + [1] * 20)
        pred = np.array([0] * 31 + [1] * 9)
        assert compute_report(gt, pred, 2).transition_accuracy == 0.0
        pred10 = np.array([0] * 30 + [1] * 10)
        assert compute_report(gt, pred10, 2).transition_accuracy == 1.0

    def test_one_prediction_between_two_gt_transitions_matches_nearest(self):
        gt = np.array([0] * 10 + [1] * 5 + [0] * 10 + [1] * 10 + [0] * 5)
        pred = np.array([0] * 18 + [1] * 22)
        counts = match_transitions(gt, pred)
        assert counts["matched"] == 1            # greedy nearest: the t=25 one
        assert counts["gt_total"] == 4
        assert counts["pred_total"] == 1

    def test_no_transitions_reported_absent(self):
        gt = np.zeros(30, dtype=int)
        assert compute_report(gt, gt, 2).transition_accuracy is None


class TestMidpoint:
    def test_perfect(self):
        rng = np.random.default_rng(4)
        gt, _ = random_label_pair(rng)
        assert compute_report(gt, gt, 5).midpoint_accuracy == 1.0

    def test_length_one_segment_is_its_own_midpoint(self):
        gt = np.array([0, 1, 0])
        pred = np.array([0, 0, 0])
        assert compute_report(gt, pred, 2).midpoint_accuracy == pytest.approx(2 / 3)

    def test_three_segments_middle_wrong(self):
        gt = np.array([0] * 5 + [1] * 5 + [2] * 5)
        pred = np.array([0] * 5 + [2] * 5 + [2] * 5)
        assert compute_report(gt, pred, 3).midpoint_accuracy == pytest.approx(2 / 3)


def assert_report_matches_naive_oracles(gt, pred):
    rep = compute_report(gt, pred, 5)
    m = rep.frame_stats()
    assert m["accuracy"] == naive_accuracy(gt, pred)
    ref = naive_prf(gt, pred, 5)
    assert set(m["per_phase"]) == set(ref)
    for p, (prec, rec, f1, support) in ref.items():
        assert m["per_phase"][p]["precision"] == prec
        assert m["per_phase"][p]["recall"] == rec
        assert m["per_phase"][p]["f1"] == f1
        assert m["per_phase"][p]["support"] == support
    present = [v for v in ref.values() if v[3] > 0]
    for k, name in enumerate(("precision", "recall", "f1")):
        assert m[name] == np.mean([v[k] for v in present])
    ref_b = naive_bucket(gt, pred)
    for k, (name, _, _) in enumerate(DURATION_BUCKETS):
        assert rep.bucket[k, 0] == ref_b[name][0]
        assert rep.bucket[k, 1] == ref_b[name][1]
    assert (rep.transitions_matched, rep.transitions_gt_total,
            rep.transitions_pred_total) == naive_transition_match(gt, pred)
    assert (rep.midpoint_correct, rep.midpoint_total) == \
        naive_midpoint(gt, pred)
    return rep


# label pair shapes beside the default: long runs, so that every duration
# bucket gets frames, and short runs, so that the longest segment is often
# 1-5 frames
LONG_RUNS = {"t_max": 400, "max_run": 99}
SHORT_RUNS = {"t_max": 12, "max_run": 3}


class TestOracleSweep:
    def test_all_metrics_match_naive_oracles_on_100_random_pairs(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            assert_report_matches_naive_oracles(*random_label_pair(rng))

    def test_long_runs_fill_every_bucket(self):
        rng = np.random.default_rng(11)
        reports = [assert_report_matches_naive_oracles(*random_label_pair(rng, **LONG_RUNS))
                   for _ in range(40)]
        assert (aggregate_reports(reports, 5).bucket[:, 1] > 0).all()

    def test_short_runs(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            assert_report_matches_naive_oracles(*random_label_pair(rng, **SHORT_RUNS))

    def test_curve_matches_naive_oracle_and_counts_each_frame_once(self):
        rng = np.random.default_rng(12)
        longest_by_case = set()
        for case in range(90):
            shape = ({}, LONG_RUNS, SHORT_RUNS)[case % 3]
            pairs = [random_label_pair(rng, **shape) for _ in range(1 + case % 4)]
            rows = accuracy_vs_length_rows(pairs)
            assert [(r["bin_lo"], r["bin_hi"], r["n_frames"], r["accuracy"])
                    for r in rows] == naive_curve(pairs)
            assert sum(r["n_frames"] for r in rows) == sum(len(g) for g, _ in pairs)
            longest_by_case.add(max(s.length for g, _ in pairs
                                    for s in extract_segments(g)))
        assert longest_by_case & {1, 2, 3, 4, 5}

    def test_curve_longest_segment_counted_once(self):
        g = np.array([0] * 4 + [1] * 4)
        rows = accuracy_vs_length_rows([(g, g)])
        assert sum(r["n_frames"] for r in rows) == 8
        assert accuracy_vs_length_rows([]) == []


class TestAggregation:
    def make_reports(self, rng, k=6):
        pairs = [random_label_pair(rng) for _ in range(k)]
        return pairs, [compute_report(g, p, 5) for g, p in pairs]

    def test_video_order_does_not_change_aggregates(self):
        rng = np.random.default_rng(6)
        _, reports = self.make_reports(rng)
        fwd = aggregate_reports(reports, 5)
        rev = aggregate_reports(reports[::-1], 5)
        assert fwd.to_dict() == rev.to_dict()

    def test_pooled_confusion_row_sums_are_gt_counts(self):
        rng = np.random.default_rng(7)
        pairs, reports = self.make_reports(rng)
        agg = aggregate_reports(reports, 5)
        all_gt = np.concatenate([g for g, _ in pairs])
        for p in range(5):
            assert agg.confusion[p].sum() == (all_gt == p).sum()

    def test_phase_subset_accuracy(self):
        gt = np.array([0, 0, 1, 1, 2, 2])
        pred = np.array([0, 1, 1, 0, 2, 2])
        rep = compute_report(gt, pred, 3)
        assert rep.phase_subset_accuracy([0, 1]) == 0.5
        assert rep.phase_subset_accuracy([2]) == 1.0


class TestRenderReport:
    def test_empty_video_list_writes_nulls_no_svgs(self, tmp_path):
        tax = PhaseTaxonomy(("a", "b"))
        report = aggregate_reports([], 2)
        render_report(tmp_path, report, [], tax)
        payload = json.loads((tmp_path / "metrics.json").read_text())
        assert payload["dataset"] == {
            "n_videos": 0, "total_frames": 0, "frame_accuracy": None,
            "precision": None, "recall": None, "f1": None, "per_phase": None,
            "bucket_accuracy": {"1-3s": None, "4-10s": None, "11-30s": None,
                                "31-60s": None, ">60s": None},
            "transition_accuracy": None, "transition_accuracy_pred_anchored": None,
            "midpoint_accuracy": None, "confusion": None,
        }
        assert payload["per_video"] == {}
        assert not (tmp_path / "timelines").exists()

    def test_single_video_svg_bar_count(self, tmp_path):
        tax = PhaseTaxonomy(("a", "b", "c"))
        rng = np.random.default_rng(8)
        gt, pred = random_label_pair(rng, n_phases=3)
        probs = np.full((len(pred), 3), 0.1)
        probs[np.arange(len(pred)), pred] = 0.8
        report = compute_report(gt, pred, 3)
        vr = {"video_id": "v0", "gt": gt, "pred": pred, "probs": probs,
              "report": report}
        render_report(tmp_path, aggregate_reports([report], 3), [vr], tax)
        svg = (tmp_path / "timelines" / "v0.svg").read_text()
        n_rects = svg.count("<rect")
        assert n_rects == len(extract_segments(gt)) + len(extract_segments(pred))

    def test_confusion_csv_row_sums(self, tmp_path):
        tax = PhaseTaxonomy(("a", "b", "c"))
        rng = np.random.default_rng(9)
        gt, pred = random_label_pair(rng, n_phases=3)
        report = compute_report(gt, pred, 3)
        vr = {"video_id": "v0", "gt": gt, "pred": pred,
              "probs": np.full((len(pred), 3), 1 / 3), "report": report}
        render_report(tmp_path, report, [vr], tax)
        lines = (tmp_path / "confusion.csv").read_text().strip().splitlines()
        for p, line in enumerate(lines[1:]):
            row = [int(v) for v in line.split(",")[1:]]
            assert sum(row) == (gt == p).sum()

    def test_curve_csv_written(self, tmp_path):
        tax = PhaseTaxonomy(("a", "b", "c"))
        rng = np.random.default_rng(10)
        gt, pred = random_label_pair(rng, n_phases=3)
        report = compute_report(gt, pred, 3)
        vr = {"video_id": "v0", "gt": gt, "pred": pred,
              "probs": np.full((len(pred), 3), 1 / 3), "report": report}
        render_report(tmp_path, report, [vr], tax)
        lines = (tmp_path / "accuracy_vs_length.csv").read_text().splitlines()
        assert lines[0] == "bin_lo,bin_hi,n_frames,accuracy"
        assert len(lines) > 1
