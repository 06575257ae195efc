"""Exception types raised across the package."""


class TextMathError(Exception):
    """Base class for all errors raised by this package."""


# corpus
class MalformedMarkupError(TextMathError):
    """Input markup could not be parsed (unbalanced or invalid tags)."""


class UnknownFormatError(TextMathError):
    """Unrecognized document format name."""


class ManifestError(TextMathError):
    """Corpus manifest is structurally invalid."""


class MalformedRecordError(TextMathError):
    """A record of a canonical JSONL corpus dump is invalid."""


class MissingFileError(TextMathError):
    """A file referenced by a manifest does not exist."""


class EmptyClassError(TextMathError):
    """A class in the label set ended up with zero parsable samples."""


# encode
class AllBagsEmptyError(TextMathError):
    """Every token bag passed to the tf-idf fitter was empty."""


class EmptyVocabularyError(TextMathError):
    """No token reached the minimum corpus count for embedding training."""


class DegenerateInputError(TextMathError):
    """Input matrix has no variance to reduce."""


# classify
class SingleClassTrainingError(TextMathError):
    """Training data contains fewer than two distinct labels."""


class DimensionMismatchError(TextMathError):
    """Feature count of the input does not match the fitted model."""


class KTooLargeError(TextMathError):
    """Requested ranking depth exceeds the label set size."""


# cluster
class KExceedsSamplesError(TextMathError):
    """Requested cluster count exceeds the number of samples."""


# evaluate
class LengthMismatchError(TextMathError):
    """Two paired sequences have different lengths."""


class ZeroVarianceError(TextMathError):
    """A series is constant, so the correlation is undefined."""


class RaggedGridError(TextMathError):
    """Report cells do not form a full rectangular grid."""


class TooFewSamplesError(TextMathError):
    """Not enough samples for the requested fold count."""


# semantify
class MalformedLineError(TextMathError):
    """A lexicon line does not have the expected field count."""


# cli
class ConfigError(TextMathError):
    """Experiment configuration is invalid; message names the field."""
