"""Exception types shared across the package."""


class DgclError(Exception):
    """Base class for all package-specific errors."""


class ShapeMismatchError(DgclError):
    """Operands have incompatible shapes; the message names both."""


class DegenerateFeatureError(DgclError):
    """A feature row has (near-)zero norm and no usable direction."""


class NonScalarLossError(DgclError):
    """backward() was asked to differentiate a node that is not 1x1."""


class LabelRangeError(DgclError):
    """A class label lies outside the declared range."""


class UnknownTaskError(DgclError):
    """An item referenced a task id with no registered buffer or head."""


class DuplicateTaskError(DgclError):
    """A task id was registered twice."""


class NoHeadsError(DgclError):
    """The model has no classification heads yet."""


class OverlappingClassesError(DgclError):
    """Two tasks share class ids; task class sets must be disjoint."""


class UndefinedMetricError(DgclError):
    """The metric is undefined for this matrix size (FM needs T >= 2)."""


class FileFormatError(DgclError):
    """Base class for binary container parsing failures."""


class BadMagicError(FileFormatError):
    """The file does not start with the expected magic bytes."""


class VersionMismatchError(FileFormatError):
    """The container version is not supported by this reader."""


class TruncatedFileError(FileFormatError):
    """The file ended before its declared payload was complete."""


class TrailingBytesError(FileFormatError):
    """The file holds bytes past its declared payload."""


class ConfigError(DgclError):
    """A run configuration failed to parse or validate."""


class DivergenceError(DgclError):
    """Training produced a non-finite value: a loss component, the buffer
    drift or the parameters. Carries the 1-based update index (the drift
    log's numbering), the task id and the component's name."""

    def __init__(self, update_index: int, task_id: int, component: str):
        # the fields go to Exception so the error survives pickling back
        # from a worker process
        super().__init__(update_index, task_id, component)
        self.update_index = update_index
        self.task_id = task_id
        self.component = component

    def __str__(self) -> str:
        return (f"non-finite {self.component} at update {self.update_index}"
                f" of task {self.task_id}")
