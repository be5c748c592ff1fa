"""tracelink: temporal link prediction on microservice call traces.

The pipeline ingests caller/callee events, slices them into fixed time
windows, trains a two-layer graph attention network with degree-weighted
negative sampling, and scores which services will talk to each other in
future windows.
"""

from .errors import (
    CheckpointError,
    ConfigError,
    DataError,
    EvalError,
    GraphError,
    LossError,
    MappingError,
    ModelError,
    SamplingError,
    TracelinkError,
    TrainingError,
    UndefinedMetricError,
)
from .gat import (
    AttentionRecord,
    GatDims,
    GatParams,
    TrainArtifacts,
    bce_loss,
    compute_gradients,
    init_params,
    link_probability,
    model_forward,
    optimizer_step,
    train,
)
from .graph import WindowedGraph, build_graph, degree_counts
from .ingest import EventTable, TraceFormat, clean_trace, parse_trace
from .metrics import (
    EvalReport,
    auc,
    confusion,
    evaluate_windows,
    export_attention,
    pr_points,
    roc_points,
    scalar_metrics,
)
from .preprocess import (
    NodeMapping,
    TimeWindow,
    apply_mapping,
    build_node_mapping,
    segment_windows,
    split_train_test,
)
from .sampling import (
    SamplingKind,
    SamplingStrategy,
    advanced_negative_sample,
    analyze_sampling,
    simple_negative_sample,
)
from .synth import SynthConfig, generate_trace

__version__ = "0.1.0"
