"""Hyperdimensional-computing classifiers with conformal prediction sets.

The library couples prototype-based hypervector classifiers with
split-conformal calibration: set-valued prediction with finite-sample
coverage (marginal or label-conditional), point-valued prediction that
trims sets to the most conforming label, and abstention on inputs no
class conforms with.
"""

from .classifier import PROTOTYPE_STYLES, TrainedModel, train_prototypes
from .conformal import (
    SCORE_KINDS,
    Calibrator,
    PredictionSet,
    calibrate_conditional,
    calibrate_marginal,
    calibration_scores,
    ood_score,
    predict_point,
    predict_set_conditional,
    predict_set_marginal,
    predict_sets,
    score_matrix,
)
from .datasets import (
    DatasetBundle,
    DatasetError,
    SpikeSurrogateConfig,
    generate_spike_surrogate,
    ingest_isolet,
    ingest_languages,
    ingest_mnist,
)
from .encoders import (
    BinaryImageEncoder,
    FpeProjection,
    IdentityEncoder,
    ItemMemory,
    LevelMemory,
    PositionBank,
    QuantizationGrid,
    QuantizedFeatureEncoder,
    TemporalFpeEncoder,
    TrigramTextEncoder,
    preprocess_text,
)
from .evaluation import (
    ExperimentConfig,
    ExperimentResult,
    MethodMetrics,
    SplitSpec,
    average_set_size,
    empirical_coverage,
    ood_auc,
    point_accuracy,
    run_experiment,
    split_data,
)
from .hypervectors import (
    SIMILARITY_KINDS,
    BipolarHypervector,
    ComplexHypervector,
    RealAccumulator,
    bind,
    bundle,
    permute,
    random_bipolar,
    random_phase,
    sign_binarize,
    similarity,
    similarity_matrix,
)
from .persistence import load_calibrator, load_model, save_calibrator, save_model
from .synthetic import SyntheticConfig, class_centers, generate_synthetic, ood_center

__version__ = "0.1.0"
