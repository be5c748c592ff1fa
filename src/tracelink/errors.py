"""Exception hierarchy shared across the pipeline.

Every error this package raises deliberately derives from TracelinkError so
the command-line layer can map failure classes onto stable exit codes:
configuration problems, bad input data, and numeric/training trouble each get
their own code.
"""


class TracelinkError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(TracelinkError):
    """Invalid option value or an inconsistent combination of settings."""


class DataError(TracelinkError):
    """Malformed or out-of-contract input data."""


class MappingError(DataError):
    """A service name has no assigned node id (strict mapping mode)."""


class GraphError(DataError):
    """An edge references a node id outside the known id range."""


class SamplingError(TracelinkError):
    """Negative sampling cannot produce the requested number of legal pairs."""


class ModelError(TracelinkError):
    """Model, feature, or graph dimensions do not line up."""


class LossError(ModelError):
    """Loss is undefined for the given inputs (no scored pairs at all)."""


class TrainingError(TracelinkError):
    """Training cannot proceed, e.g. every window in the split is empty."""


class EvalError(TracelinkError):
    """Evaluation cannot proceed on the given windows."""


class UndefinedMetricError(EvalError):
    """A metric needs both classes present and one of them is missing."""


class CheckpointError(TracelinkError):
    """Unreadable, corrupt, or incompatible checkpoint file."""
