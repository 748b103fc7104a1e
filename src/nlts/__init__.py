"""nlts: noise-injected zero-shot time-series forecasting with LLM backends.

Perturb a numeric history with scaled zero-mean noise, encode it as digit
tokens, sample continuations from a language-model endpoint (or a deterministic
mock), and aggregate the decoded sample paths into a median forecast with
uncertainty bands.
"""

__version__ = "0.1.0"

from .backend import (
    Backend,
    BackendConfig,
    CostTable,
    EchoTailBackend,
    GenerationParams,
    HttpBackend,
    OracleBackend,
    RecordingBackend,
    ReplayBackend,
    ScriptedBackend,
    Usage,
    default_cost_table,
    estimate_cost,
    load_cost_table,
)
from .bench import (
    DEFAULT_NOISE_LEVELS,
    LoadedDataset,
    MetricReport,
    Normalization,
    SweepConfig,
    TheoryCheckReport,
    compute_metrics,
    load_dataset,
    make_backend,
    run_sweep,
    theory_check,
)
from .codec import (
    CodecConfig,
    ParseReport,
    Scaler,
    deserialize,
    fit_scaler,
    serialize,
)
from .core import (
    PointForecast,
    SamplePaths,
    SplitSpec,
    TimeSeries,
    aggregate_samples,
    split_series,
)
from .errors import (
    AggregationError,
    AuthError,
    BackendError,
    CholeskyError,
    ConfigError,
    DegenerateSeriesError,
    DigitOverflowError,
    InsufficientSamplesError,
    LengthMismatchError,
    NltsError,
    NonFiniteError,
    ParamError,
    ParseError,
    ProtocolError,
    RateLimitError,
    SchemaError,
    SplitError,
    TransportError,
)
from .noise import NOISE_KINDS, NoiseSpec, inject_noise, standardized_draw
from .pipeline import (
    ForecastJob,
    ForecastResult,
    SYSTEM_PROMPT,
    USER_PROMPT_TEMPLATE,
    build_prompt,
    run_nlts,
)
from .rng import substream
from .synth import (
    KERNEL_KINDS,
    KernelSpec,
    cholesky_with_jitter,
    generate_benchmark,
    kernel_matrix,
    sample_gp_matrix,
)

__all__ = [name for name in dir() if not name.startswith("_")]
