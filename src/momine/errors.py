"""Exception types shared across the package, and a text opener that names its file."""

import json
from contextlib import contextmanager


class MomineError(Exception):
    """Base class for all package-specific errors."""


class ZeroVector(MomineError):
    """A row with (near-)zero norm cannot be l2-normalized."""

    def __init__(self, index: int):
        super().__init__(f"row {index} has norm below 1e-12 and cannot be normalized")
        self.index = index


class RankDeficient(MomineError):
    """Fewer usable principal components than requested."""


class BadConfig(MomineError):
    """A configuration value cannot be parsed or is out of range."""


class BadSpec(MomineError):
    """Invalid synthetic dataset specification."""


class BadMagic(MomineError):
    """File does not start with the expected magic bytes."""


class TruncatedFile(MomineError):
    """File ends before the payload promised by its header."""


class BadGraph(MomineError, ValueError):
    """Graph sizes or edges that cannot be parsed or break the format's rules."""


class EmptyGraph(MomineError, ValueError):
    """A graph without edges: its random walk and stationary distribution are undefined."""


class BadModel(MomineError):
    """A model header whose kind and hidden width disagree."""


class TrailingBytes(MomineError):
    """File holds bytes after the payload promised by its header."""


class EmptyFeatures(MomineError, ValueError):
    """A feature matrix that is not 2-D with at least one row and one column."""


class NonFinite(MomineError):
    """A feature value is NaN or infinite."""


class DimMismatch(MomineError):
    """Sidecar length or dimensionality does not match the feature set."""


class KTooLarge(MomineError):
    """Requested neighbor count exceeds what the instance can provide."""


class BadAnchors(MomineError, ValueError):
    """Anchor ids that cannot be parsed or lie outside [0, n)."""


class BadPools(MomineError, ValueError):
    """Pool member ids that lie outside [0, n)."""


class BadLabels(MomineError, ValueError):
    """A label sidecar line that is not a decimal integer."""


class LabelsMissing(MomineError):
    """A label-dependent operation was called without labels."""


class AllPoolsEmpty(MomineError):
    """No anchor produced a non-empty training pool."""


class DegenerateLabels(MomineError):
    """All items share a single label; the metric is undefined."""


class LengthMismatch(MomineError):
    """Two label sequences differ in length."""


class DegenerateOutput(MomineError):
    """Embedding collapsed to (near-)zero before normalization."""


class Diverged(MomineError):
    """Training loss became non-finite."""


@contextmanager
def open_text(path, error):
    """Open a text file; a text or JSON decode error raises `error` naming the file."""
    try:
        with open(path) as fh:
            yield fh
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise error(f"{path}: {exc}") from None
