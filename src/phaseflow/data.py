"""Dataset I/O and the synthetic surgical-workflow generator used in place of
the unavailable clinical video datasets.

A WorkflowGrammar samples videos as: phase order = random linear extension of
a precedence DAG (so mutually unconstrained phases appear in random order),
log-normal per-phase durations at 1 fps, Gaussian per-phase embeddings.
Phases in an ambiguity group share the exact same emission mean, so they are
indistinguishable frame-by-frame and only workflow history can separate them.
A grammar file holds the fields of a WorkflowGrammar (listed in its doc) as
`to_dict` writes them; any other key is refused.

On-disk layout: one subdirectory per video, named by the video's id, holding
features.bin (PHFT binary format), labels.csv and meta.json (the fps and the
taxonomy), plus an optional manifest.json. Real embeddings enter the package
in this layout too: write them with write_dataset. The commands read it only
through `read_splits` and `read_videos`; all videos read share one taxonomy.

Manifest rules: a JSON object whose `videos` list has one {"id", "split"}
entry per video, the id one path component (not empty, `.` or `..`, without
`/`, NUL or a lone surrogate) listed once, the split train, val or test; its
optional `ambiguity_groups` are lists of phase ids of the taxonomy (phases
that look alike frame by frame). Without a manifest every video is in the
first split a command reads. Other keys (synth's `schema_version`, `grammar`
and `seed`; an older manifest's `taxonomy` and meta.json's `generator_seed`)
are not read, but an older meta.json's `video_id` must name its directory.
"""

from __future__ import annotations

import csv
import io
import json
import os
import re
import struct
from dataclasses import dataclass, field, fields

import numpy as np

from .core import (
    CSV_UNREAD,
    DataValidationError,
    FeatureSequence,
    PhaseTaxonomy,
    parse_csv_rows,
    read_bytes,
    read_json,
    read_text,
    substream,
    validate_sequence,
)

FEATURES_MAGIC = b"PHFT"
FEATURES_VERSION = 1
MANIFEST_NAME = "manifest.json"
SPLITS = ("train", "val", "test")
VIDEO_ID = re.compile(r"(?!\.\.?\Z)[^/\0\ud800-\udfff]+")     # one path component


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

    Fields, which are also the keys of its JSON form (`to_dict`): the
    `taxonomy`; `precedence`, (before, after) phase pairs of a DAG; the
    log-normal `duration_median_s` and `duration_sigma`, one per phase, in
    seconds (= frames at 1 fps); `emission_means`, one embedding row per
    phase, and the Gaussian `emission_noise`; `occurrences`, mapping phase id
    -> (min, max) occurrence count per video, unlisted phases occurring
    exactly once; `ambiguity_groups` of phases sharing one emission mean;
    `order_weights`, one positive weight per phase (default all 1); and a
    `name`. `from_dict` refuses any other key.
    """

    taxonomy: PhaseTaxonomy
    precedence: tuple[tuple[int, int], ...]
    duration_median_s: np.ndarray
    duration_sigma: np.ndarray
    emission_means: np.ndarray
    emission_noise: float
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
        for group in self.ambiguity_groups:
            if not all(0 <= p < n for p in group):
                raise GrammarError(f"ambiguity group {tuple(group)} names a phase "
                                   f"outside 0..{n - 1}")
        reach = _reachability(n, self.precedence)
        if reach.diagonal().any():
            cyc = int(np.argwhere(reach.diagonal())[0][0])
            raise GrammarError(f"precedence constraints are cyclic (via phase {cyc})")
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

    def occurrence_range(self, phase: int) -> tuple[int, int]:
        return self.occurrences.get(phase, (1, 1))

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "taxonomy": self.taxonomy.to_dict(),
            "precedence": [list(p) for p in self.precedence],
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
        unknown = set(d) - {f.name for f in fields(cls)}
        if unknown:
            raise GrammarError(f"unknown grammar keys: {sorted(unknown)}")
        # phase ids, counts and precedence pairs are ints, other numbers ints or floats
        ints = ("precedence", "occurrences", "ambiguity_groups")
        num = {k: _numbers(k, v, int if k in ints else (int, float))
               for k, v in d.items() if k not in ("taxonomy", "name")}
        return cls(
            taxonomy=PhaseTaxonomy.from_dict(d["taxonomy"]),
            precedence=tuple((a, b) for a, b in num["precedence"]),
            duration_median_s=np.asarray(num["duration_median_s"]),
            duration_sigma=np.asarray(num["duration_sigma"]),
            emission_means=np.asarray(num["emission_means"]),
            emission_noise=float(num["emission_noise"]),
            occurrences={int(k): tuple(v) for k, v in num.get("occurrences", {}).items()},
            ambiguity_groups=tuple(tuple(g) for g in num.get("ambiguity_groups", [])),
            order_weights=np.asarray(num["order_weights"]) if "order_weights" in d else None,
            name=d.get("name", "custom"),
        )


def _numbers(key: str, value, kinds):
    """`value`, a number of `kinds` but not a bool, or lists or dicts of them;
    anything else raises GrammarError naming the grammar `key`."""
    if isinstance(value, dict | list | tuple):
        for v in value.values() if isinstance(value, dict) else value:
            _numbers(key, v, kinds)
    elif isinstance(value, bool) or not isinstance(value, kinds):
        what = "an int" if kinds is int else "a number"
        raise GrammarError(f"grammar key {key!r}: expected {what}, got {value!r}")
    return value


def load_grammar(path) -> WorkflowGrammar:
    """Read a grammar JSON file in the layout of `to_dict`; content that does
    not parse or make a valid grammar raises GrammarError naming the file."""
    d = read_json(path)
    try:
        return WorkflowGrammar.from_dict(d)
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
                   video_id: str = "synthetic") -> FeatureSequence:
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
                          features=feats.astype(np.float32), labels=labels)
    return validate_sequence(seq, grammar.taxonomy)


def generate_dataset(grammar: WorkflowGrammar, n_videos: int,
                     seed: int) -> list[FeatureSequence]:
    """Reproducible from (grammar, seed): video i draws from the generator
    sub-stream for index i."""
    return [
        generate_video(grammar, substream(seed, "generator", i), f"video_{i:03d}")
        for i in range(n_videos)
    ]


def default_grammar_mgh_like(embed_dim: int = 128,
                             emission_noise: float = 0.5) -> WorkflowGrammar:
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
    rng = substream(7, "grammar-emissions")
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
    meta = {"fps": seq.fps, "taxonomy": taxonomy.to_dict()}
    with open(os.path.join(dirpath, "meta.json"), "w") as fh:
        json.dump(meta, fh, indent=1, sort_keys=True)
    if seq.labels is not None:
        with open(os.path.join(dirpath, "labels.csv"), "w", newline="") as fh:
            table = np.column_stack((np.arange(len(seq.labels)), seq.labels))
            fh.write("frame_idx,label_id\r\n" + "%d,%d\r\n" * len(table)
                     % tuple(table.ravel().tolist()))


def read_video_dir(dirpath) -> tuple[FeatureSequence, PhaseTaxonomy]:
    """One video, its id the directory's name; a missing or malformed file
    raises DataValidationError naming it."""
    meta_path = os.path.join(dirpath, "meta.json")
    meta = read_json(meta_path)
    try:
        taxonomy = PhaseTaxonomy.from_dict(meta["taxonomy"])
        video_id, fps = os.path.basename(os.path.normpath(dirpath)), meta["fps"]
        if type(fps) not in (int, float):     # not a bool, nor a number in a string
            raise TypeError(f"fps must be a number, got {type(fps).__name__}")
        fps = float(fps)
        if meta.get("video_id", video_id) != video_id:
            raise ValueError(f"video_id {meta['video_id']!r} is not the directory's name")
    except (ValueError, KeyError, TypeError, OverflowError, DataValidationError) as e:
        raise DataValidationError(f"{meta_path}: {type(e).__name__}: {e}") from None
    features = read_features_bin(os.path.join(dirpath, "features.bin"))
    labels = None
    labels_path = os.path.join(dirpath, "labels.csv")
    if os.path.exists(labels_path):
        labels = _read_labels_csv(labels_path, features.shape[0])
    seq = FeatureSequence(video_id=video_id, fps=fps, features=features, labels=labels)
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
    """The dataset's manifest, or None without one. A manifest that breaks
    a rule of the module doc that can be checked without the videos raises
    a DataValidationError naming its path."""
    if not os.path.isdir(dirpath):
        raise DataValidationError(f"dataset directory not found: {dirpath}")
    path = os.path.join(dirpath, MANIFEST_NAME)
    if not os.path.exists(path):
        return None
    manifest = read_json(path)
    videos = manifest.get("videos") if isinstance(manifest, dict) else None
    if not isinstance(videos, list) or not all(
            isinstance(v, dict) and isinstance(v.get("id"), str) and v.get("split") in SPLITS
            for v in videos):
        raise DataValidationError(f"{path}: manifest needs a 'videos' list of entries "
                                  f"with an 'id' and a 'split' of {', '.join(SPLITS)}")
    ids = [v["id"] for v in videos]
    if bad := [v for v in ids if not VIDEO_ID.fullmatch(v)]:
        raise DataValidationError(f"{path}: video id {bad[0]!r} is not one path component")
    if repeated := [vid for i, vid in enumerate(ids) if vid in ids[:i]]:
        raise DataValidationError(f"{path}: video id {repeated[0]!r} is listed twice")
    groups = manifest.get("ambiguity_groups", [])
    if not isinstance(groups, list) or not all(
            isinstance(g, list) and all(type(p) is int and p >= 0 for p in g)
            for g in groups):
        raise DataValidationError(
            f"{path}: ambiguity_groups must be lists of phase ids, got {groups!r}")
    return manifest


def read_videos(dirpath, ids, taxonomy: PhaseTaxonomy | None = None):
    """The videos `ids` of the dataset at `dirpath`, in that order, and the
    taxonomy they share (None without ids), which must be a model's
    `taxonomy` when one is given. A video of another taxonomy raises
    DataValidationError naming its directory. Returns (sequences, taxonomy)."""
    sequences = []
    of = "the model's" if taxonomy else "other videos"
    for vid in ids:
        seq, tax = read_video_dir(path := os.path.join(dirpath, vid))
        taxonomy = taxonomy or tax
        if tax.names != taxonomy.names:
            raise DataValidationError(f"{path}: taxonomy differs from {of}")
        sequences.append(seq)
    return sequences, taxonomy


def _video_ids(dirpath, manifest: dict | None, split: str | None) -> list[str]:
    """Sorted ids of the videos of `split`; without a manifest, of every
    subdirectory."""
    if manifest is None:
        return sorted(d for d in os.listdir(dirpath) if os.path.isdir(os.path.join(dirpath, d)))
    return sorted(v["id"] for v in manifest["videos"] if v["split"] == split)


def read_dataset(dirpath, split: str | None = None):
    """All videos, or those of the manifest split `split`, sorted by video
    id. Returns (sequences, taxonomy)."""
    manifest = read_manifest(dirpath)
    if split is not None and manifest is None:
        raise DataValidationError(
            f"{dirpath}: split '{split}' requested but there is no manifest")
    ids = _video_ids(dirpath, manifest if split else None, split)
    if not ids:
        raise DataValidationError(f"{dirpath}: no videos found")
    return read_videos(dirpath, ids)


def read_splits(dirpath, splits: tuple[str, ...], taxonomy: PhaseTaxonomy | None = None):
    """The videos of each split of `splits`, each list in video-id order
    (the commands rely on it and do not sort again), from one read of the
    manifest; their one taxonomy (`read_videos`); and
    the sorted phase ids of the manifest's ambiguity groups. The first split
    must hold a video, the others may be empty. Returns (lists, taxonomy,
    phases)."""
    manifest = read_manifest(dirpath)
    ids = [_video_ids(dirpath, manifest, sp) if manifest or sp == splits[0] else []
           for sp in splits]
    if not ids[0]:
        raise DataValidationError(f"{dirpath}: no {splits[0]} videos found")
    seqs, taxonomy = read_videos(dirpath, [vid for part in ids for vid in part], taxonomy)
    phases = sorted({p for g in (manifest or {}).get("ambiguity_groups", []) for p in g})
    if phases and phases[-1] >= taxonomy.n_phases:
        raise DataValidationError(
            f"{os.path.join(dirpath, MANIFEST_NAME)}: ambiguity_groups name phase "
            f"{phases[-1]}, outside the taxonomy's 0..{taxonomy.n_phases - 1}")
    seqs = iter(seqs)
    return [[next(seqs) for _ in part] for part in ids], taxonomy, phases


def default_split(n_videos: int) -> list[str]:
    """60/20/20 train/val/test assignment by index."""
    n_train = int(round(n_videos * 0.6))
    n_val = int(round(n_videos * 0.2))
    return ["train"] * n_train + ["val"] * n_val + ["test"] * (n_videos - n_train - n_val)

