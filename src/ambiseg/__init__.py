"""Ensemble pixel classifiers for segmentation with ambiguous boundaries.

Multiple small networks each learn from one annotator's masks: they are
supervised on pixels where annotators agree, refine annotator
disagreements with pixels where network predictions coincide, and learn
unannotated images from the unanimous consensus of their peers, weighted
by a Gaussian ramp-up. Inference averages the ensemble's probability
maps. Classic annotation-fusion baselines (majority vote, STAPLE,
random selection) and a synthetic ambiguous-boundary dataset generator
ship alongside.
"""

__version__ = "0.1.0"

from .masks import (
    LabelMask,
    PixelLabels,
    PixelSet,
    ShapeError,
    argmax_mask,
    consensus_set,
    full_grid_labels,
    restrict,
    separate_agreement,
)
from .losses import (
    LossBreakdown,
    ProbMap,
    RampUp,
    masked_cross_entropy,
    ramp_lambda,
    softmax,
    total_network_loss,
)
from .model import (
    Architecture,
    ImageTensor,
    ModelParams,
    OptState,
    adam_step,
    backward,
    forward,
    init_opt_state,
    init_params,
    load_checkpoint,
    predict_probs,
    save_checkpoint,
)
from .fusion import (
    StapleResult,
    average_fuse,
    fuse_annotations,
    majority_vote,
    random_select,
    staple_binary,
    staple_fuse,
)
from .metrics import EvalReport, agreement_fraction, dice, evaluate_masks, jaccard
from .data import (
    AnnotatorProfile,
    Dataset,
    MultiAnnotatedSample,
    SceneSpec,
    TestSample,
    UnannotatedSample,
    build_dataset,
    default_profiles,
    generate_scene,
    load_dataset,
    simulate_annotator,
)
from .training import (
    RunState,
    TrainConfig,
    TrainResult,
    TrainingError,
    pick_comparison,
    run_training,
    train_iteration,
    train_single_annotator,
)
