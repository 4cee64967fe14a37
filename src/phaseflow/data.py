"""Dataset I/O and the synthetic surgical-workflow generator used in place of
the unavailable clinical video datasets.

A WorkflowGrammar samples videos as: phase order = random linear extension of
a precedence DAG (so mutually unconstrained phases appear in random order),
log-normal per-phase durations at 1 fps, Gaussian per-phase embeddings.
Phases in an ambiguity group share the exact same emission mean, so they are
indistinguishable frame-by-frame and only workflow history can separate them.

On-disk layout: one subdirectory per video holding features.bin (PHFT binary
format), labels.csv and meta.json, plus an optional dataset manifest.json
carrying the split and generator metadata.
"""

from __future__ import annotations

import csv
import io
import json
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .core import (
    CSV_UNREAD,
    DataValidationError,
    FeatureSequence,
    PhaseTaxonomy,
    parse_csv_rows,
    read_bytes,
    read_text,
    substream,
    validate_sequence,
)

FEATURES_MAGIC = b"PHFT"
FEATURES_VERSION = 1
MANIFEST_NAME = "manifest.json"
SPLITS = ("train", "val", "test")


class GrammarError(DataValidationError):
    """Infeasible or inconsistent workflow grammar."""


def _reachability(n: int, edges) -> np.ndarray:
    reach = np.zeros((n, n), dtype=bool)
    for a, b in edges:
        reach[a, b] = True
    for k in range(n):
        reach |= reach[:, k:k + 1] & reach[k:k + 1, :]
    return reach


@dataclass
class WorkflowGrammar:
    """Generative description of one procedure type.

    `occurrences` maps phase id -> (min, max) occurrence count per video;
    unlisted phases occur exactly once. Duration parameters are log-normal in
    seconds (= frames at 1 fps).
    """

    taxonomy: PhaseTaxonomy
    precedence: tuple[tuple[int, int], ...]
    duration_median_s: np.ndarray
    duration_sigma: np.ndarray
    emission_means: np.ndarray
    emission_noise: float
    interchangeable_groups: tuple[tuple[int, ...], ...] = ()
    occurrences: dict[int, tuple[int, int]] = field(default_factory=dict)
    ambiguity_groups: tuple[tuple[int, ...], ...] = ()
    order_weights: np.ndarray | None = None
    name: str = "custom"

    def __post_init__(self):
        n = self.taxonomy.n_phases
        self.duration_median_s = np.asarray(self.duration_median_s, dtype=np.float64)
        self.duration_sigma = np.asarray(self.duration_sigma, dtype=np.float64)
        self.emission_means = np.asarray(self.emission_means, dtype=np.float64)
        if self.duration_median_s.shape != (n,) or self.duration_sigma.shape != (n,):
            raise GrammarError("duration parameter arrays must have one entry per phase")
        if (self.duration_median_s <= 0).any():
            raise GrammarError("duration medians must be positive")
        if (self.duration_sigma < 0).any():
            raise GrammarError("duration sigmas must be nonnegative")
        if self.emission_means.ndim != 2 or self.emission_means.shape[0] != n:
            raise GrammarError("emission_means must be (n_phases, embed_dim)")
        if self.emission_noise < 0:
            raise GrammarError("emission noise must be nonnegative")
        for a, b in self.precedence:
            if not (0 <= a < n and 0 <= b < n):
                raise GrammarError(f"precedence pair ({a}, {b}) out of range")
        for kind, groups in (("interchangeable", self.interchangeable_groups),
                             ("ambiguity", self.ambiguity_groups)):
            for group in groups:
                if not all(0 <= p < n for p in group):
                    raise GrammarError(f"{kind} group {tuple(group)} names a phase "
                                       f"outside 0..{n - 1}")
        reach = _reachability(n, self.precedence)
        if reach.diagonal().any():
            cyc = int(np.argwhere(reach.diagonal())[0][0])
            raise GrammarError(f"precedence constraints are cyclic (via phase {cyc})")
        for group in self.interchangeable_groups:
            # order within the group must actually vary: every member needs at
            # least one other member it is not ordered against
            for a in group:
                if all(reach[a, b] or reach[b, a] for b in group if b != a):
                    raise GrammarError(
                        f"interchangeable group {group}: phase {a} is fully "
                        f"ordered by precedence within the group")
        for phase, (lo, hi) in self.occurrences.items():
            if not 0 <= phase < n:
                raise GrammarError(f"occurrences name phase {phase} outside 0..{n - 1}")
            if lo < 0 or hi < lo:
                raise GrammarError("occurrence ranges must satisfy 0 <= min <= max")
        if self.order_weights is None:
            self.order_weights = np.ones(n)
        self.order_weights = np.asarray(self.order_weights, dtype=np.float64)
        if self.order_weights.shape != (n,) or (self.order_weights <= 0).any():
            raise GrammarError("order_weights must be positive, one per phase")
        for group in self.ambiguity_groups:
            lead = group[0]
            for p in group[1:]:
                if not np.array_equal(self.emission_means[lead], self.emission_means[p]):
                    raise GrammarError(
                        f"ambiguity group {group}: phases {lead} and {p} must share "
                        f"an identical emission mean")

    @property
    def embed_dim(self) -> int:
        return self.emission_means.shape[1]

    def occurrence_range(self, phase: int) -> tuple[int, int]:
        return self.occurrences.get(phase, (1, 1))

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "taxonomy": self.taxonomy.to_dict(),
            "precedence": [list(p) for p in self.precedence],
            "interchangeable_groups": [list(g) for g in self.interchangeable_groups],
            "occurrences": {str(k): list(v) for k, v in self.occurrences.items()},
            "duration_median_s": self.duration_median_s.tolist(),
            "duration_sigma": self.duration_sigma.tolist(),
            "emission_means": self.emission_means.tolist(),
            "emission_noise": self.emission_noise,
            "ambiguity_groups": [list(g) for g in self.ambiguity_groups],
            "order_weights": self.order_weights.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "WorkflowGrammar":
        return cls(
            taxonomy=PhaseTaxonomy.from_dict(d["taxonomy"]),
            precedence=tuple((int(a), int(b)) for a, b in d["precedence"]),
            duration_median_s=np.asarray(d["duration_median_s"]),
            duration_sigma=np.asarray(d["duration_sigma"]),
            emission_means=np.asarray(d["emission_means"]),
            emission_noise=float(d["emission_noise"]),
            interchangeable_groups=tuple(tuple(int(p) for p in g)
                                         for g in d.get("interchangeable_groups", [])),
            occurrences={int(k): (int(v[0]), int(v[1]))
                         for k, v in d.get("occurrences", {}).items()},
            ambiguity_groups=tuple(tuple(int(p) for p in g)
                                   for g in d.get("ambiguity_groups", [])),
            order_weights=(np.asarray(d["order_weights"])
                           if "order_weights" in d else None),
            name=d.get("name", "custom"),
        )


def load_grammar(path) -> WorkflowGrammar:
    """Read a grammar JSON file in the layout of `to_dict`; content that does
    not parse or make a valid grammar raises GrammarError naming the file."""
    text = read_text(path)
    try:
        return WorkflowGrammar.from_dict(json.loads(text))
    except (ValueError, LookupError, TypeError, AttributeError, ArithmeticError,
            DataValidationError) as e:
        raise GrammarError(f"grammar file {path}: {type(e).__name__}: {e}") from None


def sample_phase_order(grammar: WorkflowGrammar, rng: np.random.Generator) -> list[int]:
    """Weighted random linear extension of the precedence DAG over the sampled
    occurrence multiset: placeable phases are drawn with probability
    proportional to their order weight (a prior over workflow variants, e.g.
    duct-before-artery being the common order). Adjacent occurrences of the
    same phase are avoided whenever an alternative exists."""
    n = grammar.taxonomy.n_phases
    remaining = np.array([rng.integers(lo, hi + 1) if (lo, hi) != (1, 1) else 1
                          for lo, hi in (grammar.occurrence_range(p) for p in range(n))],
                         dtype=np.int64)
    preds = {p: [a for a, b in grammar.precedence if b == p] for p in range(n)}
    order: list[int] = []
    prev = -1
    while remaining.sum() > 0:
        avail = [p for p in range(n)
                 if remaining[p] > 0 and all(remaining[q] == 0 for q in preds[p])]
        if not avail:
            raise GrammarError("no placeable phase; precedence constraints infeasible")
        pick_from = [p for p in avail if p != prev] or avail
        w = grammar.order_weights[pick_from]
        p = int(rng.choice(pick_from, p=w / w.sum()))
        order.append(p)
        remaining[p] -= 1
        prev = p
    return order


def generate_video(grammar: WorkflowGrammar, rng: np.random.Generator,
                   video_id: str = "synthetic", seed: int | None = None) -> FeatureSequence:
    """Sample one video: phase order, per-segment durations, then per-frame
    embeddings mean(phase) + isotropic Gaussian noise."""
    order = sample_phase_order(grammar, rng)
    mu = np.log(grammar.duration_median_s)
    labels = []
    for p in order:
        dur = int(max(1, round(rng.lognormal(mu[p], grammar.duration_sigma[p]))))
        labels.extend([p] * dur)
    labels = np.asarray(labels, dtype=np.int64)
    feats = grammar.emission_means[labels]
    if grammar.emission_noise > 0:
        feats = feats + grammar.emission_noise * rng.standard_normal(feats.shape)
    seq = FeatureSequence(video_id=video_id, fps=1.0,
                          features=feats.astype(np.float32), labels=labels,
                          source_seed=seed)
    return validate_sequence(seq, grammar.taxonomy)


def generate_dataset(grammar: WorkflowGrammar, n_videos: int, seed: int,
                     id_prefix: str = "video") -> list[FeatureSequence]:
    """Reproducible from (grammar, seed): video i draws from the generator
    sub-stream for index i."""
    return [
        generate_video(grammar, substream(seed, "generator", i),
                       video_id=f"{id_prefix}_{i:03d}", seed=seed)
        for i in range(n_videos)
    ]


def default_grammar_mgh_like(embed_dim: int = 128, emission_noise: float = 0.5,
                             mean_seed: int = 7) -> WorkflowGrammar:
    """13-phase cholecystectomy-style grammar: short checkpoints, short
    clip/divide phases in interchangeable artery/duct order, long dissection
    phases, and a repeatable catch-all step. The clip pair and the divide pair
    each share one emission mean."""
    tax = PhaseTaxonomy.mgh100()
    # chain 0..4, then {clip/divide artery 5,6 | clip/divide duct 7,8} in any
    # interleaving with 5<6 and 7<8, then 9..11; "Other step" (12) floats free
    precedence = ((0, 1), (1, 2), (2, 3), (3, 4),
                  (4, 5), (4, 7), (5, 6), (7, 8), (6, 9), (8, 9),
                  (9, 10), (10, 11))
    medians = np.array([30, 20, 70, 180, 3, 8, 8, 8, 8, 3, 180, 30, 12],
                       dtype=np.float64)
    sigmas = np.array([0.4, 0.4, 0.5, 0.5, 0.35, 0.4, 0.4, 0.4, 0.4, 0.35,
                       0.5, 0.4, 0.6])
    rng = substream(mean_seed, "grammar-emissions")
    means = rng.standard_normal((tax.n_phases, embed_dim))
    means /= np.linalg.norm(means, axis=1, keepdims=True)
    means[7] = means[5]   # clip cystic duct looks like clip cystic artery
    means[8] = means[6]   # divide cystic duct looks like divide cystic artery
    # duct is clipped/divided before the artery in most (not all) videos, so
    # which pair member is on screen is decidable only from workflow position
    weights = np.ones(tax.n_phases)
    weights[7] = weights[8] = 9.0
    return WorkflowGrammar(
        taxonomy=tax,
        precedence=precedence,
        duration_median_s=medians,
        duration_sigma=sigmas,
        emission_means=means,
        emission_noise=emission_noise,
        interchangeable_groups=((5, 6, 7, 8),),
        occurrences={12: (1, 3)},
        ambiguity_groups=((5, 7), (6, 8)),
        order_weights=weights,
        name="mgh-like",
    )


GRAMMAR_PRESETS = {"mgh-like": default_grammar_mgh_like}


# ---------------------------------------------------------------------------
# Binary feature format

def write_features_bin(path, features: np.ndarray) -> None:
    features = np.ascontiguousarray(features, dtype="<f4")
    t, d = features.shape
    with open(path, "wb") as fh:
        fh.write(FEATURES_MAGIC)
        fh.write(struct.pack("<III", FEATURES_VERSION, t, d))
        fh.write(features.tobytes())


def read_features_bin(path) -> np.ndarray:
    data = read_bytes(path)
    if len(data) < 16:
        raise DataValidationError(f"{path}: truncated header")
    if data[:4] != FEATURES_MAGIC:
        raise DataValidationError(f"{path}: bad magic {data[:4]!r}")
    version, t, d = struct.unpack("<III", data[4:16])
    if version != FEATURES_VERSION:
        raise DataValidationError(f"{path}: unsupported format version {version}")
    expected = 16 + 4 * t * d
    if len(data) < expected:
        raise DataValidationError(f"{path}: truncated payload "
                                  f"({len(data)} bytes, expected {expected})")
    if len(data) > expected:
        raise DataValidationError(f"{path}: payload size inconsistent with "
                                  f"T={t}, D={d} header ({len(data)} > {expected})")
    return np.frombuffer(data, dtype="<f4", offset=16).reshape(t, d).copy()


# ---------------------------------------------------------------------------
# Per-video directories and the dataset manifest

def write_video_dir(dirpath, seq: FeatureSequence, taxonomy: PhaseTaxonomy) -> None:
    os.makedirs(dirpath, exist_ok=True)
    write_features_bin(os.path.join(dirpath, "features.bin"), seq.features)
    meta = {"video_id": seq.video_id, "fps": seq.fps, "taxonomy": taxonomy.to_dict()}
    if seq.source_seed is not None:
        meta["generator_seed"] = seq.source_seed
    with open(os.path.join(dirpath, "meta.json"), "w") as fh:
        json.dump(meta, fh, indent=1, sort_keys=True)
    if seq.labels is not None:
        with open(os.path.join(dirpath, "labels.csv"), "w", newline="") as fh:
            fh.write("frame_idx,label_id\r\n" + "".join(
                ["%d,%d\r\n" % row for row in enumerate(seq.labels.tolist())]))


def read_video_dir(dirpath) -> tuple[FeatureSequence, PhaseTaxonomy]:
    """One video; a missing or malformed file raises DataValidationError naming it."""
    meta_path = os.path.join(dirpath, "meta.json")
    text = read_text(meta_path)
    try:
        meta = json.loads(text)
        taxonomy = PhaseTaxonomy.from_dict(meta["taxonomy"])
        video_id, fps = str(meta["video_id"]), float(meta["fps"])
    except (ValueError, KeyError, TypeError, DataValidationError) as e:
        raise DataValidationError(f"{meta_path}: {type(e).__name__}: {e}") from None
    features = read_features_bin(os.path.join(dirpath, "features.bin"))
    labels = None
    labels_path = os.path.join(dirpath, "labels.csv")
    if os.path.exists(labels_path):
        labels = _read_labels_csv(labels_path, features.shape[0])
    seq = FeatureSequence(video_id=video_id, fps=fps, features=features, labels=labels,
                          source_seed=meta.get("generator_seed"))
    return validate_sequence(seq, taxonomy), taxonomy


def _read_labels_csv(path, n_frames: int) -> np.ndarray:
    """Per-frame labels from a `frame_idx,label_id` table: decimal integer
    rows in any order, fields after the second ignored, and the last row of
    a repeated frame wins. A row `core.parse_csv_rows` does not parse, a
    frame outside 0..n_frames-1, a negative label or a frame without a row
    raises DataValidationError naming the first such row or frame."""
    text = read_text(path)
    if next(csv.reader(io.StringIO(text, newline="")), None) != ["frame_idx", "label_id"]:
        raise DataValidationError(f"{path}: expected header frame_idx,label_id")
    rows = parse_csv_rows(text, np.dtype([("frame", np.int64), ("label", np.int64)]),
                          usecols=(0, 1))
    if rows is not None:
        frame, label = rows["frame"], rows["label"]
        if ((frame >= 0) & (frame < n_frames) & (label >= 0)).all():
            # each frame's last row: its first in the reversed table
            frames, last = np.unique(frame[::-1], return_index=True)
            if len(frames) == n_frames:     # then frames is 0..n_frames-1
                return label[::-1][last]
    raise DataValidationError(f"{path}: {_first_bad_label_row(text, n_frames)}")


def _first_bad_label_row(text: str, n_frames: int) -> str:
    """Describe the first row, or else the first frame, _read_labels_csv rejects."""
    seen = np.zeros(n_frames, dtype=bool)
    reader = csv.reader(io.StringIO(text, newline=""))
    next(reader)
    for row in reader:
        try:
            idx, lab = int(row[0]), int(row[1])
        except (ValueError, IndexError):
            return f"malformed row {row}"
        if not 0 <= idx < n_frames:
            return f"frame_idx {idx} out of range"
        if lab < 0:
            return f"label out of range at frame {idx} (got {lab})"
        if lab > np.iinfo(np.int64).max:     # does not fit the int64 labels
            return f"malformed row {row}"
        seen[idx] = True
    if not seen.all():
        return f"no label for frame {int(np.argmin(seen))}"
    return CSV_UNREAD


def write_dataset(dirpath, sequences, taxonomy: PhaseTaxonomy,
                  manifest: dict | None = None) -> None:
    os.makedirs(dirpath, exist_ok=True)
    for seq in sequences:
        write_video_dir(os.path.join(dirpath, seq.video_id), seq, taxonomy)
    if manifest is not None:
        with open(os.path.join(dirpath, MANIFEST_NAME), "w") as fh:
            json.dump(manifest, fh, indent=1, sort_keys=True)


def read_manifest(dirpath) -> dict | None:
    """The dataset's manifest, or None without one. A manifest that is not
    JSON or lacks the `videos` list of {id, split} entries raises a
    DataValidationError naming its path."""
    path = os.path.join(dirpath, MANIFEST_NAME)
    if not os.path.exists(path):
        return None
    try:
        with open(path) as fh:
            manifest = json.load(fh)
    except (OSError, ValueError) as e:
        raise DataValidationError(f"{path}: unreadable manifest: {e}") from None
    videos = manifest.get("videos") if isinstance(manifest, dict) else None
    if not isinstance(videos, list) or not all(
            isinstance(v, dict) and isinstance(v.get("id"), str) and "split" in v
            for v in videos):
        raise DataValidationError(
            f"{path}: manifest needs a 'videos' list of entries with 'id' and 'split'")
    return manifest


def read_dataset(dirpath, split: str | None = None):
    """Load all videos (or one manifest split) sorted by video id.

    Returns (sequences, taxonomy).
    """
    if not os.path.isdir(dirpath):
        raise DataValidationError(f"dataset directory not found: {dirpath}")
    manifest = read_manifest(dirpath)
    if split is not None:
        if manifest is None:
            raise DataValidationError(
                f"{dirpath}: split '{split}' requested but there is no manifest")
        ids = sorted(v["id"] for v in manifest["videos"] if v["split"] == split)
    else:
        ids = sorted(d for d in os.listdir(dirpath)
                     if os.path.isdir(os.path.join(dirpath, d)))
    if not ids:
        raise DataValidationError(f"{dirpath}: no videos found")
    sequences = []
    taxonomy = None
    for vid in ids:
        seq, tax = read_video_dir(os.path.join(dirpath, vid))
        if taxonomy is not None and tax.names != taxonomy.names:
            raise DataValidationError(f"{vid}: taxonomy differs from other videos")
        taxonomy = tax
        sequences.append(seq)
    return sequences, taxonomy


def default_split(n_videos: int) -> list[str]:
    """60/20/20 train/val/test assignment by index."""
    n_train = int(round(n_videos * 0.6))
    n_val = int(round(n_videos * 0.2))
    return ["train"] * n_train + ["val"] * n_val + ["test"] * (n_videos - n_train - n_val)


# ---------------------------------------------------------------------------
# External feature import

def import_external_features(csv_path, meta: dict) -> FeatureSequence:
    """Load precomputed per-frame embeddings from CSV (rows = frames, columns
    = features plus an optional 'label' column), downsampled to 1 fps by
    keeping frame floor(k * fps) for each whole second k. `meta` needs
    video_id and fps >= 1; a taxonomy dict enables label validation.
    Non-finite features and non-integer labels are rejected."""
    try:
        video_id, fps = str(meta["video_id"]), float(meta["fps"])
    except (KeyError, TypeError, ValueError) as e:
        raise DataValidationError(f"{csv_path}: meta needs a 'video_id' and a "
                                  f"numeric 'fps': {type(e).__name__}: {e}") from None
    if not 1.0 <= fps < np.inf:
        raise DataValidationError(f"{csv_path}: fps must be finite and >= 1, got {fps}")
    rows = list(csv.reader(io.StringIO(read_text(csv_path), newline="")))
    if not rows:
        raise DataValidationError(f"{csv_path}: empty file")
    label_col = None
    start = 0
    first = rows[0]
    if any(not _is_number(cell) for cell in first):
        start = 1
        if "label" in first:
            label_col = first.index("label")
    # a header row has as many cells as the data rows, or `label_col` is off
    width = len(first)
    if start == len(rows) or width == 0:
        raise DataValidationError(f"{csv_path}: no data rows")
    feats, labels = [], []
    for r, row in enumerate(rows[start:], start=start):
        if len(row) != width:
            raise DataValidationError(
                f"{csv_path}: ragged row {r} has {len(row)} cells, expected {width}")
        try:
            values = [float(c) for c in row]
        except ValueError:
            bad = next(i for i, c in enumerate(row) if not _is_number(c))
            raise DataValidationError(
                f"{csv_path}: non-numeric cell at row {r}, column {bad}") from None
        if label_col is not None:
            label = values.pop(label_col)
            if not label.is_integer():
                raise DataValidationError(
                    f"{csv_path}: label {row[label_col]!r} at row {r} is not an integer")
            labels.append(int(label))
        feats.append(values)
    feats = np.asarray(feats, dtype=np.float32)
    bad = ~np.isfinite(feats)
    if bad.any():
        raise DataValidationError(
            f"{csv_path}: non-finite feature at row {start + int(np.argwhere(bad)[0][0])}")
    keep = np.floor(np.arange(len(feats)) * fps).astype(np.int64)
    keep = keep[keep < len(feats)]
    feats = feats[keep]
    labs = np.asarray(labels, dtype=np.int64)[keep] if label_col is not None else None
    seq = FeatureSequence(video_id=video_id, fps=1.0,
                          features=feats, labels=labs)
    if "taxonomy" in meta:
        return validate_sequence(seq, PhaseTaxonomy.from_dict(meta["taxonomy"]))
    return seq


def _is_number(cell: str) -> bool:
    try:
        float(cell)
        return True
    except ValueError:
        return False
