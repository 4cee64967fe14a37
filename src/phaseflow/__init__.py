"""phaseflow: surgical workflow phase recognition with long-term
sufficient-statistic features feeding back into an LSTM.

Feature streams in, phase labels out: streaming aggregators (cumulative sum
likelihood, Gabor filter bank, HMM forward filter) summarize the model's own
likelihood history into a side channel concatenated with the visual
embedding, plus a synthetic workflow generator and the full evaluation suite.
"""

from .core import (
    ExperimentConfig,
    FeatureSequence,
    PhaseTaxonomy,
    DataValidationError,
    NumericError,
    PhaseflowError,
    UsageError,
    softmax,
    substream,
    validate_sequence,
)
from .data import (
    WorkflowGrammar,
    default_grammar_mgh_like,
    generate_dataset,
    generate_video,
    read_dataset,
    write_dataset,
)
from .model import (
    InferenceSession,
    PhaseModel,
    hmm_smooth_posthoc,
    infer_video,
    infer_video_acausal,
    init_model,
    load_model,
    save_model,
)
from .ssm import (
    GaborBank,
    SsmExtractor,
    TransitionMatrix,
    estimate_transition_matrix,
)
from .train import FitResult, fit

__version__ = "0.1.0"
