import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phaseflow.core import (
    DataValidationError,
    ExperimentConfig,
    FeatureSequence,
    NumericError,
    PhaseTaxonomy,
    UsageError,
    softmax,
    substream,
    validate_sequence,
)


def validate_prob_vector(p, tol=1e-6):
    """Check the simplex invariant: entries in [0, 1], summing to 1 within tol."""
    p = np.asarray(p)
    if p.ndim != 1:
        raise DataValidationError(f"probability vector must be 1-D, got shape {p.shape}")
    if not np.isfinite(p).all():
        raise NumericError("probability vector contains non-finite entries")
    if (p < -tol).any() or (p > 1 + tol).any():
        raise DataValidationError("probability entries outside [0, 1]")
    s = float(p.sum())
    if abs(s - 1.0) > tol:
        raise DataValidationError(f"probabilities sum to {s}, not 1")
    return p


def make_seq(features, labels=None, video_id="v0", fps=1.0):
    return FeatureSequence(video_id=video_id, fps=fps,
                           features=np.asarray(features, dtype=np.float32),
                           labels=None if labels is None else np.asarray(labels))


class TestTaxonomy:
    def test_presets(self):
        assert PhaseTaxonomy.mgh100().n_phases == 13
        assert PhaseTaxonomy.mgh100().names[5] == "Clip Cystic Artery"

    def test_needs_two_phases(self):
        with pytest.raises(DataValidationError):
            PhaseTaxonomy(("only",))

    def test_unique_names(self):
        with pytest.raises(DataValidationError):
            PhaseTaxonomy(("a", "a"))

    @pytest.mark.parametrize("name", [0, None, 1.5, True, ["a"]])
    def test_names_must_be_strings(self, name):
        with pytest.raises(DataValidationError, match="phase names must be strings"):
            PhaseTaxonomy(("a", name))
        with pytest.raises(DataValidationError, match="phase names must be strings"):
            PhaseTaxonomy.from_dict({"0": name, "1": "b"})

    @pytest.mark.parametrize("name", ["\ud800", "setup \udfff"], ids=["alone", "inside"])
    def test_names_must_encode_as_utf8(self, name):
        # a lone surrogate is a str that no UTF-8 file can hold
        with pytest.raises(DataValidationError, match="phase 1 holds a lone surrogate"):
            PhaseTaxonomy(("a", name))
        with pytest.raises(DataValidationError, match="phase 1 holds a lone surrogate"):
            PhaseTaxonomy.from_dict({"0": "a", "1": name})

    def test_dict_round_trip(self):
        tax = PhaseTaxonomy.mgh100()
        assert PhaseTaxonomy.from_dict(tax.to_dict()) == tax

    def test_from_dict_rejects_gaps(self):
        with pytest.raises(DataValidationError):
            PhaseTaxonomy.from_dict({"0": "a", "2": "b"})


class TestValidateSequence:
    def test_accepts_valid(self):
        tax = PhaseTaxonomy(("a", "b"))
        seq = validate_sequence(make_seq([[0, 1], [2, 3], [4, 5]], [0, 0, 1]), tax)
        assert seq.n_frames == 3 and seq.features.shape == (3, 2)

    def test_label_out_of_range_names_frame(self):
        tax = PhaseTaxonomy(tuple("abcdefg"))
        seq = make_seq(np.zeros((4, 3)), [0, 1, 7, 2])
        with pytest.raises(DataValidationError, match="label out of range at frame 2"):
            validate_sequence(seq, tax)

    def test_nan_feature_names_frame(self):
        tax = PhaseTaxonomy(("a", "b"))
        feats = np.zeros((5, 2), dtype=np.float32)
        feats[3, 1] = np.nan
        with pytest.raises(DataValidationError, match="frame 3"):
            validate_sequence(make_seq(feats, [0, 0, 0, 0, 1]), tax)

    def test_label_length_mismatch(self):
        tax = PhaseTaxonomy(("a", "b"))
        with pytest.raises(DataValidationError, match="labels shape"):
            validate_sequence(make_seq(np.zeros((3, 2)), [0, 1]), tax)

    def test_validated_arrays_are_frozen(self):
        tax = PhaseTaxonomy(("a", "b"))
        seq = validate_sequence(make_seq(np.zeros((2, 2)), [0, 1]), tax)
        with pytest.raises(ValueError):
            seq.features[0, 0] = 1.0


class TestProbVector:
    @settings(max_examples=200)
    @given(st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=16))
    def test_softmax_always_simplex(self, logits):
        p = softmax(np.asarray(logits, dtype=np.float64))
        validate_prob_vector(p)

    def test_softmax_float32_simplex(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            p = softmax(rng.standard_normal(9).astype(np.float32) * 20)
            validate_prob_vector(p)

    def test_rejects_bad_sum(self):
        with pytest.raises(DataValidationError):
            validate_prob_vector(np.array([0.5, 0.6]))

    def test_rejects_negative(self):
        with pytest.raises(DataValidationError):
            validate_prob_vector(np.array([-0.1, 1.1]))


class TestConfig:
    def test_defaults_match_protocol(self):
        cfg = ExperimentConfig()
        assert cfg.hidden_dim == 64
        assert cfg.seq_len_bptt == 8
        assert cfg.batch_size == 32
        assert cfg.learning_rate == 0.0025
        assert cfg.epochs == 20
        assert cfg.embed_dim == 128
        assert cfg.proximal_weight == 0.1

    @pytest.mark.parametrize("levels", [(2.0,), (-1.0,), (0.0,), (0.5, 0.5), (0.75, 0.25),
                                        (0.5, 1.5)])
    def test_csl_levels_must_be_increasing_probabilities(self, levels):
        # a level above 1 gives a column that stays 0, one at or below 0 an
        # unbounded log1p(t) column, and equal or falling levels the same
        # counts twice
        with pytest.raises(UsageError, match="config field csl_levels must be probability "
                                             r"thresholds in \(0, 1\], strictly increasing"):
            ExperimentConfig(csl_levels=levels)

    def test_csl_levels_may_be_empty_or_reach_one(self):
        # with no level the csl block is the is-argmax counter alone
        assert ExperimentConfig(csl_levels=()).csl_levels == ()
        assert ExperimentConfig(csl_levels=(0.1, 1)).csl_levels == (0.1, 1.0)

    def test_empty_feature_set_is_baseline(self):
        cfg = ExperimentConfig(enabled_ssm_features=())
        assert cfg.enabled_ssm_features == ()

    def test_rejects_unknown_feature(self):
        with pytest.raises(UsageError):
            ExperimentConfig(enabled_ssm_features=("wavelet",))

    def test_rejects_nonpositive(self):
        with pytest.raises(UsageError):
            ExperimentConfig(hidden_dim=0)
        with pytest.raises(UsageError):
            ExperimentConfig(learning_rate=-1.0)

    def test_epochs_zero_allowed(self):
        assert ExperimentConfig(epochs=0).epochs == 0

    def test_dict_round_trip(self):
        cfg = ExperimentConfig(hidden_dim=8, enabled_ssm_features=("csl",),
                               acausal=True, csl_levels=(0.5,))
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg

    def test_from_dict_rejects_unknown_key(self):
        with pytest.raises(UsageError):
            ExperimentConfig.from_dict({"hidden": 3})

    @pytest.mark.parametrize("key, value, want", [
        # JSON values of the field's kind
        ("acausal", True, True),
        ("hidden_dim", 16, 16),
        ("learning_rate", 1, 1.0),
        ("learning_rate", 0.5, 0.5),
        ("enabled_ssm_features", ["csl", "hmm"], ("csl", "hmm")),
        ("enabled_ssm_features", [], ()),
        ("csl_levels", (0.5, 0.75, 1), (0.5, 0.75, 1.0)),
        # a value of another kind is refused, never converted: a number
        # written as a string too
        ("acausal", "false", None),
        ("acausal", 0, None),
        ("hidden_dim", 4.7, None),
        ("hidden_dim", 8.0, None),
        ("hidden_dim", "16", None),
        ("hidden_dim", "4.0", None),
        ("hidden_dim", "1_000", None),
        ("rng_seed", "+3", None),
        ("rng_seed", "-3", None),
        ("epochs", True, None),
        ("learning_rate", False, None),
        ("learning_rate", "1e-3", None),
        ("learning_rate", "fast", None),
        ("learning_rate", None, None),
        ("enabled_ssm_features", "csl", None),
        ("enabled_ssm_features", ["csl", 1], None),
        ("csl_levels", 0.5, None),
        ("csl_levels", ("0.5", 0.75, 1), None),
        ("csl_levels", [True], None),
    ])
    def test_from_dict_takes_only_values_of_the_field_kind(self, key, value, want):
        if want is None:
            with pytest.raises(UsageError, match=f"config key {key}: invalid value"):
                ExperimentConfig.from_dict({key: value})
        else:
            got = getattr(ExperimentConfig.from_dict({key: value}), key)
            assert got == want and type(got) is type(want)

    def test_negative_rng_seed_is_refused(self):
        with pytest.raises(UsageError, match="rng_seed must be >= 0, got -3"):
            ExperimentConfig.from_dict({"rng_seed": -3})


class TestSubstream:
    def test_deterministic_and_name_separated(self):
        a1 = substream(7, "init").standard_normal(4)
        a2 = substream(7, "init").standard_normal(4)
        b = substream(7, "batching").standard_normal(4)
        assert np.array_equal(a1, a2)
        assert not np.array_equal(a1, b)

    def test_extra_keys_separate(self):
        a = substream(7, "generator", 0).standard_normal(4)
        b = substream(7, "generator", 1).standard_normal(4)
        assert not np.array_equal(a, b)
