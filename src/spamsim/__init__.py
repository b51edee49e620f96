"""Stochastic simulator and analytics for heralded SPAM of trapped-ion qubits.

The package is layered bottom-up: :mod:`spamsim.states` names the level
structure and qubit encodings, :mod:`spamsim.channels` and
:mod:`spamsim.detection` model the error channels and photon counting,
:mod:`spamsim.sequence` builds the per-encoding step lists,
:mod:`spamsim.engine` executes shots, and :mod:`spamsim.analytics` provides
the closed-form predictions the simulations are checked against.
"""

__version__ = "0.1.0"

from .analytics import (
    BIAS_FAMILIES,
    BiasFamily,
    BiasPoint,
    DetectionErrorBudget,
    LifetimeFit,
    RateEstimate,
    RejectionContribution,
    bias_closed_form,
    bias_family,
    bias_scan,
    correct_bias,
    correct_bias_simplified,
    detection_error_budget,
    fit_lifetime,
    predict_rejection,
    predict_rejection_exact,
    rejection_contributions,
    sample_decay_events,
    spam_summary,
    wilson_interval,
)
from .channels import (
    ConfigError,
    DecayChannel,
    ErrorModel,
    PumpChannel,
    TransferPulse,
    default_model,
    load_error_model,
    model_from_config,
    model_to_config,
    save_error_model,
)
from .detection import (
    CalibrationResult,
    CountHistogram,
    DetectionModel,
    ThresholdSeparationError,
    calibrate_threshold,
    equal_density_crossing,
    optical_error_rates,
    read_histogram_csv,
    write_histogram_csv,
)
from .engine import (
    BatchTally,
    ExperimentConfig,
    ExperimentResult,
    FlagReason,
    Mode,
    evaluate_flags,
    run_experiment,
)
from .sequence import (
    Cool,
    Deshelve,
    Detect,
    DetectLabel,
    Prepare,
    Pump,
    Rotate,
    Sequence,
    Transfer,
    build_sequence,
)
from .states import (
    A_1_0,
    A_2_0,
    B_1_M1,
    B_2_M1,
    B_2_P1,
    LOST,
    WRONG_GROUND,
    Manifold,
    QubitEncoding,
    StateLabel,
    encoding_catalog,
    parse_state,
    transition_allowed,
)

__all__ = [name for name in dir() if not name.startswith("_")]
