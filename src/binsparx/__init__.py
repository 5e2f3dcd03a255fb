"""Crossbar compute-in-memory simulator for binary neural networks.

Quantifies the effect of array parasitics (wire/driver IR drop, device
leakage and nonlinearity, ADC quantization) on in-memory binary VMMs, and
implements BinSparX: training-free static weight-column and dynamic
activation sparsification with exact sign-corrected post-processing.
"""

from .analysis import (
    DeviationSweep,
    solver_validation_suite,
    sweep_deviation,
)
from .bnn import BinaryTensor, TiledWeights, tile_weights
from .devices import WIRE_PRESETS, DeviceLut, DeviceModel, WireModel, load_device_lut
from .engine import (
    Engine,
    EngineConfig,
    FoldedThreshold,
    InferenceResult,
    LayerSpec,
    RunStats,
    fold_batchnorm,
    im2col,
)
from .errors import (
    BinsparxError,
    ConfigError,
    ConfigWarning,
    DomainError,
    FoldError,
    NonConvergenceError,
    ParseError,
    ShapeError,
    SolverError,
    ValidationError,
)
from .readout import AdcModel, dummy_compensate
from .solver import (
    ColumnProblem,
    ColumnSolveResult,
    FastBatchResult,
    solve_column_dense,
    solve_columns_fast,
)
from .sparsify import (
    adc_bits_required,
    postprocess,
    sparsify_activations,
    sparsify_tile,
)

__version__ = "0.1.0"
