"""Exception taxonomy shared by all gaplab modules."""


class GapLabError(Exception):
    """Base class for every error raised by this package."""


class ArgumentError(GapLabError):
    """Invalid argument values (sizes, fractions, configuration fields)."""


class ShapeError(GapLabError):
    """Tensor or layer shape mismatch."""


class DivergenceError(GapLabError):
    """A completed numeric operation produced non-finite values."""


class LabelRangeError(GapLabError):
    """A class label lies outside [0, n_classes)."""


class FormatError(GapLabError):
    """Malformed external file (raw dataset, checkpoint, CSV)."""


class SpecMismatchError(GapLabError):
    """Parameter vectors bound to different model specs were combined."""


class MissingCheckpointError(GapLabError):
    """Requested trajectory checkpoints are absent from the store."""

    def __init__(self, missing_iterations):
        self.missing_iterations = list(missing_iterations)
        # args holds the constructor argument, not the message, so that
        # unpickling (as when a seed child sends it back) rebuilds the same error
        super().__init__(self.missing_iterations)

    def __str__(self):
        return f"missing checkpoints for iterations: {self.missing_iterations}"


class InsufficientTraceError(GapLabError):
    """A trace does not contain enough evaluation ticks for the analysis."""
