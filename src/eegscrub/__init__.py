"""Artifact removal for ambulatory EEG and a from-scratch GRU classifier."""

from . import bench, decompose
from .core import (
    FilterSpec,
    NormStats,
    Recording,
    Signal,
    apply_filter,
    epoch_view,
    moving_average,
    normalize,
)
from .dataset import (
    CLASS_NAMES,
    LabeledDataset,
    load_feature_csv,
    load_raw_csv,
    read_report,
    save_feature_csv,
    save_raw_csv,
    write_report,
)
from .denoise import (
    METHOD_IDS,
    DenoiseReport,
    adaptive_kalman_denoise,
    cascade_lms,
    denoise_dwt,
    denoise_emd_maf,
    identity,
    remove_blink_template,
    remove_motion_ssa,
    remove_muscle_ssa_cca,
)
from .errors import (
    DataFormatError,
    DegenerateInputError,
    DivergenceError,
    EegScrubError,
    InvalidLevelsError,
    InvalidSpecError,
    NumericDegeneracyError,
    StratificationError,
    TooShortError,
)
from .features import (
    BANDS,
    FEATURES_PER_CHANNEL,
    FeatureMatrix,
    band_powers,
    build_feature_matrix,
    spectral_entropy,
    time_stats,
    welch_psd,
)
from .gru import (
    GruModel,
    LinearModel,
    ModelConfig,
    TrainConfig,
    evaluate,
    load_model,
    save_model,
    stratified_split,
    train,
    train_linear_baseline,
)
from .noise import (
    NOISE_KINDS,
    MixReport,
    NoiseSpec,
    compute_metrics,
    gen_noise,
    mix_at_snr,
)
from .rng import rng_stream

__version__ = "0.1.0"
