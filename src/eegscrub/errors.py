"""Exception types shared across the toolkit."""


class EegScrubError(Exception):
    """Base class for all toolkit errors."""


class InvalidSpecError(EegScrubError, ValueError):
    """A filter or parameter specification is invalid for the given signal."""


class TooShortError(EegScrubError, ValueError):
    """The signal is too short for the requested operation."""


class InvalidLevelsError(EegScrubError, ValueError):
    """Requested wavelet depth leaves a band shorter than the filter."""


class DegenerateInputError(EegScrubError, ValueError):
    """Input is degenerate (all-zero, constant, ...) for this operation."""


class NumericDegeneracyError(EegScrubError, RuntimeError):
    """A numerical routine failed beyond what regularization can rescue."""


class DivergenceError(EegScrubError, RuntimeError):
    """An adaptive filter stage or a training run diverged."""


class StratificationError(EegScrubError, ValueError):
    """A class cannot be represented in every requested partition."""


class DataFormatError(EegScrubError, ValueError):
    """A data file could not be parsed; message names file, row and column."""
