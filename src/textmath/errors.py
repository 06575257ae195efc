"""Exception types raised across the package, and the checks that every
spec, config and manifest field goes through: ``check_int`` for counts and
seeds, ``check_real`` for real numbers, and ``merge_params`` for an
algorithm's params."""
import numbers
from typing import Any


def is_int(value: object, low: int) -> bool:
    """An integer >= ``low``. Numpy integers count; bools (which Python also
    counts as integers), floats (whole ones like 2.0 included) and strings do
    not."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= low


def check_int(name: str, value: object, low: int, error: type[Exception] = ValueError) -> None:
    """Raise ``error`` naming the field ``name`` unless ``value`` is an
    integer >= ``low``."""
    if not is_int(value, low):
        raise error(f"{name} must be an integer >= {low}, got {value!r}")


def check_real(name: str, value: object, interval: str) -> None:
    """Raise ``ValueError`` naming the field ``name``, ``interval`` and
    ``value`` unless ``value`` is a real number in ``interval``, which is
    written like ``"(0, inf)"`` or ``"[0, 1)"``: a round bracket leaves its
    end out. Bools, strings and NaN are rejected."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise ValueError(f"{name} must be a number, got {value!r}")
    low, high = (float(end) for end in interval[1:-1].split(","))
    above = value > low if interval[0] == "(" else value >= low
    below = value < high if interval[-1] == ")" else value <= high
    if not (above and below):
        raise ValueError(f"{name} must be a finite number in {interval}, got {value!r}")


def merge_params(
    algo: str, defaults: dict[str, Any], given: dict[str, Any], intervals: dict[str, str]
) -> dict[str, Any]:
    """``defaults`` updated by ``given``, with every value checked. A key not
    in ``defaults`` is rejected. A param whose default is a bool must be a
    bool, one whose default is an integer is a count (an integer >= 1), and
    one whose default is a float must lie in its interval from
    ``intervals`` (see ``check_real``). Other params are left to the caller.
    Errors are ``ValueError``s that name ``<algo>.<param>``."""
    unknown = set(given) - set(defaults)
    if unknown:
        raise ValueError(f"unknown {algo} params: {sorted(unknown)}")
    merged = {**defaults, **given}
    for name, default in defaults.items():
        field, value = f"{algo}.{name}", merged[name]
        if isinstance(default, bool):
            if not isinstance(value, bool):
                raise ValueError(f"{field} must be true or false, got {value!r}")
        elif is_int(default, 1):
            check_int(field, value, 1)
        elif isinstance(default, float):
            check_real(field, value, intervals[name])
    return merged


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


class NonFiniteFeaturesError(TextMathError):
    """A feature matrix holds NaN or Inf."""


# classify
class SingleClassTrainingError(TextMathError):
    """Training data contains fewer than two distinct labels."""


class DimensionMismatchError(TextMathError):
    """A matrix has the wrong shape: its feature count does not match the
    fitted model, it is not 2-D, or its row count does not match its
    sample ids."""


# cluster
class KExceedsSamplesError(TextMathError):
    """Requested cluster count exceeds the samples (or distinct rows) that a
    fit can split into that many non-empty clusters."""


# evaluate
class LengthMismatchError(TextMathError):
    """Two paired sequences have different lengths."""


class ZeroVarianceError(TextMathError):
    """A series is constant, so the correlation is undefined."""


class RaggedGridError(TextMathError):
    """Report cells do not form a full rectangular grid."""


class TooFewSamplesError(TextMathError):
    """Not enough samples for the requested fold count, or fewer than the 3
    a pair-similarity correlation needs."""


class SampleMismatchError(TextMathError):
    """Two matrices that must describe the same samples, in the same order,
    do not."""


# semantify
class MalformedLineError(TextMathError):
    """A lexicon line does not have the expected field count."""


# cli
class ConfigError(TextMathError):
    """Experiment configuration is invalid; message names the field."""
