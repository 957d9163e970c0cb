"""smoothlab: a desk-scale lab for label-smoothing strategies and calibration.

Trains small feed-forward classifiers under four target strategies (hard
labels, vanilla smoothing, online smoothing, and confusion-penalty smoothing
driven by the validation confusion matrix) and measures test accuracy and
expected calibration error under a seed-fair comparison protocol.
"""

from .calibration import ReliabilityBins, ece, reliability_bins, write_reliability_csv
from .datasets import (
    BlobSpec,
    LabeledDataset,
    SplitSpec,
    generate_confusable_blobs,
    load_csv,
    save_csv,
    standardize,
    stratified_split,
)
from .errors import (
    ConfigError,
    DimensionError,
    DomainError,
    NumericError,
    ParseError,
    SmoothlabError,
)
from .experiment import (
    ExperimentConfig,
    RunRecord,
    parse_config,
    prepare_splits,
    run_compare,
    run_generate,
    run_report,
    run_single,
    run_training,
    write_manifest,
)
from .smoothing import (
    ConfusionTracker,
    OnlineLabelSmoother,
    TargetStrategy,
    write_confusion_csv,
)
from .trainer import (
    EpochMetrics,
    MlpConfig,
    ModelParams,
    TrainConfig,
    evaluate,
    extract_features,
    fit,
    init_params,
    loss_and_gradients,
    train_epoch,
)

__version__ = "0.1.0"
