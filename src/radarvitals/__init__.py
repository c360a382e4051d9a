"""Multi-person localization and breathing estimation for SFCW MIMO radar."""

import os as _os

# Cap BLAS threads before numpy loads; the grid scan is BLAS-bound and a
# single env var keeps CLI runs reproducible on shared machines.
_threads = _os.environ.get("RADARVITALS_THREADS")
if _threads:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ.setdefault(_var, _threads)

from .core import (
    SPEED_OF_LIGHT,
    CartesianLocation,
    ConfigError,
    DataError,
    DerivedParams,
    PolarLocation,
    RadarConfig,
    derive_params,
    polar_to_cartesian,
    walabot_config,
)
from .dataio import (
    ContainerReader,
    ContainerWriter,
    RawRecording,
    RVCFormatError,
    convert_recording,
    downconvert_decimate,
    read_container,
    read_header,
    read_raw_dir,
    write_container,
    write_raw_dir,
)
from .localize import (
    CovarianceEstimate,
    Detection,
    DetectionSet,
    GridSpec,
    PseudoSpectrum,
    SmoothingSpec,
    accumulate_spectrum,
    extract_peaks,
    music_spectrum,
    smoothed_covariance,
    stacked_covariance_eigenvalues,
    steering_matrix,
)
from .modelorder import (
    ModelOrderConfig,
    OrderDiagnostics,
    order_diagnostics,
    relative_distances,
)
from .pipeline import (
    PipelineConfig,
    PipelineResult,
    evaluate_result,
    pipeline_config_from_entries,
    pipeline_config_to_entries,
    run_pipeline,
)
from .simulate import (
    ClutterModel,
    MeasurementCube,
    PersonModel,
    Scene,
    scene_from_entries,
    scene_to_entries,
    simulate,
)
from .trackeval import (
    EvalReport,
    Track,
    breathing_error,
    match_and_score,
    update_tracks,
)
from .vitals import (
    VitalSeries,
    averaged_periodogram,
    breathing_frequency,
    build_filter,
)

__version__ = "0.1.0"
