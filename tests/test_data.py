import json
import struct

import numpy as np
import oracles
import pytest

from phaseflow.core import CSV_UNREAD, DataValidationError, PhaseTaxonomy, substream
from phaseflow.data import (
    GrammarError,
    _read_labels_csv,
    WorkflowGrammar,
    default_grammar_mgh_like,
    default_split,
    generate_dataset,
    generate_video,
    read_dataset,
    read_features_bin,
    read_video_dir,
    write_dataset,
    write_features_bin,
    write_video_dir,
)
from phaseflow.eval import _runs

TAX3 = PhaseTaxonomy(("a", "b", "c"))


def tiny_grammar(**overrides):
    kw = dict(
        taxonomy=TAX3,
        precedence=((0, 1), (1, 2)),
        duration_median_s=np.array([5.0, 5.0, 5.0]),
        duration_sigma=np.array([0.3, 0.3, 0.3]),
        emission_means=np.eye(3, 4),
        emission_noise=0.1,
    )
    kw.update(overrides)
    return WorkflowGrammar(**kw)


# a grammar key and a value whose numbers int() or float() would read:
# "0.5" as 0.5, 0.7 as 0 and True as 1
WRONG_TYPES = [
    ("precedence", [[0.7, 1.2]]),
    ("occurrences", {"1": [True, "3"]}),
    ("ambiguity_groups", [[0, "1"]]),
    ("emission_noise", "0.5"),
    ("duration_median_s", ["5", 5.0, 5.0]),
    ("duration_sigma", [0.3, True, 0.3]),
    ("emission_means", [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, "1", 0]]),
    ("order_weights", [1.0, True, 1.0]),
]


class TestGrammarValidation:
    def test_cyclic_precedence_rejected(self):
        with pytest.raises(GrammarError, match="cyclic"):
            tiny_grammar(precedence=((0, 1), (1, 2), (2, 0)))

    def test_ambiguity_group_must_share_mean(self):
        with pytest.raises(GrammarError, match="share"):
            tiny_grammar(ambiguity_groups=((0, 1),))

    def test_ambiguity_group_with_shared_mean_accepted(self):
        means = np.eye(3, 4)
        means[1] = means[0]
        g = tiny_grammar(emission_means=means, ambiguity_groups=((0, 1),))
        assert g.ambiguity_groups == ((0, 1),)

    @pytest.mark.parametrize("field", ["ambiguity_groups"])
    @pytest.mark.parametrize("group", [(-1, 2), (0, 3)])
    def test_group_member_out_of_range_rejected(self, field, group):
        with pytest.raises(GrammarError, match=r"names a phase outside 0\.\.2"):
            tiny_grammar(**{field: (group,)})

    @pytest.mark.parametrize("phase", [-1, 3])
    def test_occurrences_phase_out_of_range_rejected(self, phase):
        with pytest.raises(GrammarError, match=rf"phase {phase} outside 0\.\.2"):
            tiny_grammar(occurrences={phase: (0, 1)})

    def test_nonpositive_duration_rejected(self):
        with pytest.raises(GrammarError):
            tiny_grammar(duration_median_s=np.array([5.0, 0.0, 5.0]))

    def test_dict_round_trip(self):
        g = default_grammar_mgh_like(embed_dim=8)
        g2 = WorkflowGrammar.from_dict(g.to_dict())
        assert g2.taxonomy == g.taxonomy
        assert g2.precedence == g.precedence
        np.testing.assert_array_equal(g2.emission_means, g.emission_means)
        assert g2.occurrences == g.occurrences

    @pytest.mark.parametrize("key", ["interchangeable_groups", "ambiguity_group"])
    def test_from_dict_refuses_an_unknown_key(self, key):
        # a misspelt key would otherwise load as its field's default
        d = {**tiny_grammar().to_dict(), key: [[0, 1]]}
        with pytest.raises(GrammarError, match=rf"unknown grammar keys: \['{key}'\]"):
            WorkflowGrammar.from_dict(d)

    @pytest.mark.parametrize("key, value", WRONG_TYPES, ids=[k for k, _ in WRONG_TYPES])
    def test_from_dict_refuses_a_value_of_another_type(self, key, value):
        d = {**tiny_grammar().to_dict(), key: value}
        with pytest.raises(GrammarError, match=f"grammar key '{key}': expected"):
            WorkflowGrammar.from_dict(d)


class TestGenerateVideo:
    def test_single_phase_no_noise_gives_identical_frames(self):
        g = tiny_grammar(
            emission_noise=0.0,
            occurrences={1: (0, 0), 2: (0, 0)},      # only phase 0 occurs
            precedence=(),
        )
        seq = generate_video(g, substream(0, "generator", 0))
        assert set(seq.labels.tolist()) == {0}
        assert (seq.features == seq.features[0]).all()

    def test_precedence_always_respected(self):
        g = tiny_grammar()
        for i in range(1000):
            seq = generate_video(g, substream(1, "generator", i))
            first = {p: int(np.argwhere(seq.labels == p)[0][0]) for p in (0, 1, 2)}
            assert first[0] < first[1] < first[2]

    def test_ambiguous_phases_have_matching_sample_means(self):
        g = default_grammar_mgh_like(embed_dim=16, emission_noise=0.5)
        seqs = generate_dataset(g, 20, seed=3)
        frames5 = np.concatenate([s.features[s.labels == 5] for s in seqs])
        frames7 = np.concatenate([s.features[s.labels == 7] for s in seqs])
        tol = 4 * 0.5 * np.sqrt(1 / len(frames5) + 1 / len(frames7))
        np.testing.assert_allclose(frames5.mean(axis=0), frames7.mean(axis=0),
                                   atol=tol)

    def test_reproducible_from_grammar_and_seed(self):
        g = default_grammar_mgh_like(embed_dim=8)
        a = generate_dataset(g, 3, seed=9)
        b = generate_dataset(g, 3, seed=9)
        for s1, s2 in zip(a, b):
            assert s1.video_id == s2.video_id
            assert np.array_equal(s1.features, s2.features)
            assert np.array_equal(s1.labels, s2.labels)

    def test_no_adjacent_equal_segments(self):
        g = default_grammar_mgh_like(embed_dim=4)
        for i in range(50):
            seq = generate_video(g, substream(4, "generator", i))
            phases = seq.labels[_runs(seq.labels)[0]]
            assert (phases[1:] != phases[:-1]).all()

    def test_ambiguity_pair_defeats_linear_probe(self):
        # the pair is indistinguishable to any memoryless classifier
        g = default_grammar_mgh_like(embed_dim=16)
        seqs = generate_dataset(g, 60, seed=5)
        xs, ys = [], []
        for s in seqs:
            for p, y in ((5, -1.0), (7, 1.0)):
                sel = s.features[s.labels == p]
                xs.append(sel)
                ys.extend([y] * len(sel))
        x = np.concatenate(xs)
        y = np.asarray(ys)
        rng = np.random.default_rng(0)
        perm = rng.permutation(len(y))
        x, y = x[perm], y[perm]
        half = len(y) // 2
        xa = np.hstack([x, np.ones((len(y), 1))])
        w = np.linalg.solve(xa[:half].T @ xa[:half] + 1e-3 * np.eye(17),
                            xa[:half].T @ y[:half])
        acc = np.mean(np.sign(xa[half:] @ w) == y[half:])
        assert acc <= 0.55


class TestMghGrammar:
    def test_thirteen_phases(self):
        assert default_grammar_mgh_like().taxonomy.n_phases == 13

    def test_segment_histogram_has_short_and_long_mass(self):
        g = default_grammar_mgh_like(embed_dim=4)
        lengths = []
        for s in generate_dataset(g, 20, seed=11):
            starts, ends = _runs(s.labels)
            lengths.extend(ends - starts + 1)
        lengths = np.asarray(lengths)
        assert (lengths < 10).sum() > 0.2 * len(lengths)
        assert (lengths > 60).sum() > 0.1 * len(lengths)

    def test_checkpoints_occur_exactly_once(self):
        g = default_grammar_mgh_like(embed_dim=4)
        for i, s in enumerate(generate_dataset(g, 30, seed=12)):
            phases = s.labels[_runs(s.labels)[0]]
            for checkpoint in (4, 9):
                assert (phases == checkpoint).sum() == 1

    def test_mean_video_length_near_600(self):
        g = default_grammar_mgh_like(embed_dim=4)
        lengths = [s.n_frames for s in generate_dataset(g, 30, seed=13)]
        assert 450 <= np.mean(lengths) <= 800


class TestFeaturesBin:
    def test_golden_bytes(self, tmp_path):
        arr = np.array([[1.5, -2.0, 3.25], [0.0, 4.0, -0.5]], dtype=np.float32)
        path = tmp_path / "features.bin"
        write_features_bin(path, arr)
        expected = (b"PHFT" + struct.pack("<III", 1, 2, 3)
                    + arr.astype("<f4").tobytes())
        assert path.read_bytes() == expected

    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(6)
        arr = rng.standard_normal((17, 5)).astype(np.float32)
        path = tmp_path / "features.bin"
        write_features_bin(path, arr)
        assert np.array_equal(read_features_bin(path), arr)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "features.bin"
        write_features_bin(path, np.zeros((4, 2), np.float32))
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(DataValidationError, match="truncated payload"):
            read_features_bin(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "features.bin"
        path.write_bytes(b"XXXX" + b"\x00" * 12)
        with pytest.raises(DataValidationError, match="magic"):
            read_features_bin(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "features.bin"
        path.write_bytes(b"PHFT" + struct.pack("<III", 99, 0, 0))
        with pytest.raises(DataValidationError, match="version"):
            read_features_bin(path)

    def test_oversized_payload(self, tmp_path):
        path = tmp_path / "features.bin"
        write_features_bin(path, np.zeros((4, 2), np.float32))
        path.write_bytes(path.read_bytes() + b"\x00\x00")
        with pytest.raises(DataValidationError, match="inconsistent"):
            read_features_bin(path)


class TestDatasetIO:
    def test_write_read_round_trip(self, tmp_path):
        g = default_grammar_mgh_like(embed_dim=6)
        seqs = generate_dataset(g, 3, seed=14)
        write_dataset(tmp_path / "ds", seqs, g.taxonomy, manifest={
            "schema_version": 1, "videos": [
                {"id": s.video_id, "split": sp}
                for s, sp in zip(seqs, default_split(3))],
        })
        loaded, tax = read_dataset(tmp_path / "ds")
        assert tax == g.taxonomy
        assert len(loaded) == 3
        for a, b in zip(loaded, seqs):
            assert a.video_id == b.video_id
            assert np.array_equal(a.features, b.features)
            assert np.array_equal(a.labels, b.labels)

    def test_meta_json_holds_the_fps_and_taxonomy_only(self, tmp_path):
        # the id is the directory's name: meta.json does not repeat it
        seq = generate_video(tiny_grammar(), substream(0, "generator", 0), video_id="v")
        write_video_dir(tmp_path / "v", seq, TAX3)
        assert json.loads((tmp_path / "v" / "meta.json").read_text()) == {
            "fps": 1.0, "taxonomy": TAX3.to_dict()}
        (tmp_path / "v").rename(tmp_path / "w")
        assert read_video_dir(tmp_path / "w")[0].video_id == "w"

    def test_older_dataset_reads_unchanged(self, tmp_path):
        # older datasets hold a meta.json video_id and generator_seed and a
        # manifest taxonomy: readers ignore them while the id matches
        seqs = generate_dataset(tiny_grammar(), 3, seed=5)
        manifest = {"videos": [{"id": s.video_id, "split": "train"} for s in seqs]}
        write_dataset(tmp_path / "new", seqs, TAX3, manifest)
        write_dataset(tmp_path / "old", seqs, TAX3, {**manifest, "taxonomy": TAX3.to_dict()})
        for s in seqs:
            path = tmp_path / "old" / s.video_id / "meta.json"
            meta = json.loads(path.read_text())
            path.write_text(json.dumps({**meta, "video_id": s.video_id, "generator_seed": 5}))
        (old, old_tax), (new, new_tax) = (read_dataset(tmp_path / d, split="train")
                                          for d in ("old", "new"))
        assert old_tax == new_tax == TAX3
        assert [s.video_id for s in old] == [s.video_id for s in new]
        for a, b in zip(old, new):
            assert a.fps == b.fps
            assert np.array_equal(a.features, b.features)
            assert np.array_equal(a.labels, b.labels)

    def test_label_out_of_taxonomy_names_frame(self, tmp_path):
        g = tiny_grammar()
        seq = generate_video(g, substream(0, "generator", 0), video_id="v")
        write_video_dir(tmp_path / "v", seq, TAX3)
        meta_path = tmp_path / "v" / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["taxonomy"] = {"0": "a", "1": "b"}      # drop phase c
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(DataValidationError, match="label out of range at frame"):
            read_video_dir(tmp_path / "v")

    @pytest.mark.parametrize("row,message", [
        ("2,-1", r"label out of range at frame 2 \(got -1\)"),
        (None, "no label for frame 2"),
    ], ids=["negative", "missing"])
    def test_labels_csv_row_names_frame(self, tmp_path, row, message):
        seq = generate_video(tiny_grammar(), substream(0, "generator", 0), video_id="v")
        write_video_dir(tmp_path / "v", seq, TAX3)
        path = tmp_path / "v" / "labels.csv"
        lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("2,")]
        path.write_text("\n".join(lines + ([row] if row else [])) + "\n")
        with pytest.raises(DataValidationError, match=message):
            read_video_dir(tmp_path / "v")

    def test_split_selection(self, tmp_path):
        g = tiny_grammar()
        seqs = generate_dataset(g, 5, seed=15)
        manifest = {"schema_version": 1, "videos": [
            {"id": s.video_id, "split": sp}
            for s, sp in zip(seqs, ["train", "train", "train", "val", "test"])]}
        write_dataset(tmp_path / "ds", seqs, TAX3, manifest)
        train, _ = read_dataset(tmp_path / "ds", split="train")
        test, _ = read_dataset(tmp_path / "ds", split="test")
        assert [s.video_id for s in train] == [s.video_id for s in seqs[:3]]
        assert [s.video_id for s in test] == [seqs[4].video_id]


LABEL_HEADER = "frame_idx,label_id\r\n"


def labels_text(rows, end="\r\n"):
    return LABEL_HEADER + "".join(r + end for r in rows)


LABEL_ROWS = ["0,0", "1,1", "2,1", "3,2"]


class TestLabelsCsv:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("text,n_frames", [
        (labels_text(LABEL_ROWS), 4),
        (labels_text(LABEL_ROWS, end="\n"), 4),
        (labels_text(LABEL_ROWS, end="\r"), 4),
        (labels_text(LABEL_ROWS)[:-2], 4),
        (labels_text(LABEL_ROWS[::-1]), 4),
        (labels_text(LABEL_ROWS + ["1,2", "1,0"]), 4),
        (labels_text(["1,2"] + LABEL_ROWS), 4),
        (labels_text(LABEL_ROWS[:2] + ["1,2"]), 4),
        (labels_text(LABEL_ROWS[:2] + LABEL_ROWS[3:]), 4),
        (labels_text(LABEL_ROWS[:3]), 4),
        (labels_text(LABEL_ROWS + ["4,0"]), 4),
        (labels_text(LABEL_ROWS + ["-1,0"]), 4),
        (labels_text(["99999999999999999999,0"] + LABEL_ROWS), 4),
        (labels_text(LABEL_ROWS + ["2,-1"]), 4),
        (labels_text(LABEL_ROWS + ["2,-99999999999999999999"]), 4),
        (labels_text(LABEL_ROWS + ["2,99999999999999999999"]), 4),
        (labels_text(LABEL_ROWS + ["4,0", "x,0"]), 4),
        (labels_text(LABEL_ROWS + ["x,0", "4,0"]), 4),
        (labels_text(LABEL_ROWS[:2] + [""] + LABEL_ROWS[2:]), 4),
        (labels_text(LABEL_ROWS) + "\r\n", 4),
        (labels_text(LABEL_ROWS + ["  "]), 4),
        (labels_text(LABEL_ROWS + ["2,1#"]), 4),
        (labels_text(LABEL_ROWS + ["#2,1"]), 4),
        (labels_text(LABEL_ROWS + ["2"]), 4),
        (labels_text(LABEL_ROWS + ["2,1,x"]), 4),
        (labels_text(LABEL_ROWS[:2] + ['2,1,"x'] + LABEL_ROWS[3:]), 4),
        (labels_text(LABEL_ROWS + ["2,1.0"]), 4),
        (labels_text(LABEL_ROWS + ["2,1e0"]), 4),
        (labels_text(LABEL_ROWS + ["2,x"]), 4),
        (labels_text(LABEL_ROWS + ["2,1\u01fe"]), 4),
        (labels_text(LABEL_ROWS + ["2,1\x1c"]), 4),
        (labels_text(LABEL_ROWS + ["2,"]), 4),
        (labels_text(LABEL_ROWS + [" 2, 1 "]), 4),
        (labels_text(LABEL_ROWS + ["+2,+1"]), 4),
        (LABEL_HEADER, 4),
        (LABEL_HEADER, 0),
        (LABEL_HEADER + "\r\n", 0),
        ("frame_idx,label\r\n0,0\r\n", 1),
        ("", 1),
    ], ids=[
        "valid", "lf", "cr", "no-final-eol", "any-order", "duplicate-last-wins",
        "duplicate-first-row", "duplicate-leaves-frame-missing", "missing-mid",
        "missing-last", "frame-too-large", "frame-negative", "frame-int64-overflow",
        "label-negative", "label-below-int64", "label-above-int64",
        "range-before-parse-error", "parse-before-range-error", "blank-line-mid",
        "blank-line-end", "spaces-line", "hash-in-label", "hash-in-frame", "ragged-short",
        "ragged-long", "unclosed-quote-in-extra-field", "label-1.0", "label-1e0",
        "label-x", "label-non-ascii", "label-file-separator", "label-empty",
        "leading-trailing-spaces", "plus-signs", "header-only", "header-only-no-frames",
        "header-then-blank", "bad-header", "empty-file",
    ])
    def test_accepts_and_rejects_as_the_csv_module_reader(self, tmp_path, text, n_frames):
        path = tmp_path / "labels.csv"
        path.write_bytes(text.encode())
        new = oracles.outcome(_read_labels_csv, path, n_frames)
        old = oracles.outcome(oracles.csv_read_labels_csv, path, n_frames)
        assert new[1] == old[1]
        if old[0] is not None:
            assert new[0].dtype == old[0].dtype and np.array_equal(new[0], old[0])

    @pytest.mark.parametrize("row", ['"2",1', "2,0_1", "2,\u0661", "2,1,\u00e9"],
                             ids=["quoted", "underscore", "arabic-indic-digit",
                                  "non-ascii-extra-field"])
    def test_quotes_separators_and_non_ascii_are_rejected(self, tmp_path, row):
        # the divergence from the csv-module reader, which accepted these
        path = tmp_path / "labels.csv"
        path.write_bytes(labels_text(LABEL_ROWS + [row]).encode())
        assert oracles.csv_read_labels_csv(path, 4).tolist() == [0, 1, 1, 2]
        with pytest.raises(DataValidationError, match=f"{path}: {CSV_UNREAD}"):
            _read_labels_csv(path, 4)

