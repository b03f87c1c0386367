"""Exception types, the config fields' declared rules (ruled) and the base
class of a config section that checks them (Ruled), and the readers
(read_lines, read_binary) and writer that name their file."""

import json
import os
import struct
from contextlib import contextmanager
from dataclasses import field, fields

INT64 = range(-(2**63), 2**63)  # the integers an int64 holds; `x in INT64` is O(1)
# the range rules a config field may declare; NaN meets none of them
RANGES = {
    ">= 0": lambda x: x >= 0,
    ">= 1": lambda x: x >= 1,
    "> 0": lambda x: x > 0,
    "in [0, 1)": lambda x: 0 <= x < 1,
}


def ruled(default, rule):
    """A dataclass field of `default` whose values must meet `rule`: a key of
    RANGES, or a tuple of the values allowed."""
    return field(default=default, metadata={"rule": rule})


def rule_text(rule) -> str:
    """A declared rule as its messages word it: the range, or "'a', 'b' or 'c'"."""
    if isinstance(rule, str):
        return rule
    *head, last = map(repr, rule)
    return f"{', '.join(head)} or {last}"


class Ruled:
    """Base class of a config section, a dataclass whose fields may declare
    rules through `ruled`. Construction raises the class's `error`
    "<field> must be <rule>, got <value!r>" for the first field whose value
    breaks its rule; a subclass with rules that tie fields together checks
    them after super().__post_init__()."""

    error = ValueError

    def __post_init__(self):
        for item in fields(self):
            rule = item.metadata.get("rule")
            if rule is None:
                continue
            value = getattr(self, item.name)
            if not (value in rule if isinstance(rule, tuple) else RANGES[rule](value)):
                raise self.error(f"{item.name} must be {rule_text(rule)}, got {value!r}")


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


class BadSpec(MomineError, ValueError):
    """Invalid synthetic dataset specification."""


class BadMagic(MomineError):
    """File does not start with the expected magic bytes."""


class TruncatedFile(MomineError):
    """File ends before the payload promised by its header."""


class BadGraph(MomineError, ValueError):
    """Graph sizes or edges that break the format's rules, or no graph for mined pools."""


class EmptyGraph(MomineError, ValueError):
    """A graph without edges: its random walk and stationary distribution are undefined."""


class BadModel(MomineError, ValueError):
    """A model that breaks the architecture rule, or whose layers numpy cannot allocate."""


class TrailingBytes(MomineError):
    """File holds bytes after the payload promised by its header."""


class EmptyFeatures(MomineError, ValueError):
    """A feature matrix that is not 2-D with at least one row and one column."""


class NonFinite(MomineError):
    """A feature value is NaN or infinite."""


class DimMismatch(MomineError):
    """A sidecar, dimension or label sequence whose length does not match its counterpart."""


class KTooLarge(MomineError):
    """Requested neighbor count exceeds what the instance can provide."""


class BadAnchors(MomineError, ValueError):
    """Anchor ids that cannot be parsed or lie outside [0, n)."""


class BadPools(MomineError, ValueError):
    """A pools line that is not a pool, or pool member ids outside [0, n)."""


class BadLabels(MomineError, ValueError):
    """A label sidecar line that is not a decimal integer."""


class LabelsMissing(MomineError):
    """A label-dependent operation was called without labels."""


class AllPoolsEmpty(MomineError):
    """No anchor produced a non-empty training pool."""


class DegenerateLabels(MomineError):
    """All items share a single label; the metric is undefined."""


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


def read_lines(path, error, parse) -> list:
    """parse(line) of each non-blank line of a text file, in order. A ValueError, TypeError,
    KeyError or OverflowError of parse raises `error`, "<path>:<line>: <reason>" (blank lines
    counted): the message of an `error` parse raised, else the exception's type and message."""
    values = []
    with open_text(path, error) as fh:
        for number, line in enumerate(fh, 1):
            if line.strip():
                try:
                    values.append(parse(line))
                except (ValueError, TypeError, KeyError, OverflowError) as exc:
                    reason = exc if isinstance(exc, error) else f"{type(exc).__name__}: {exc}"
                    raise error(f"{path}:{number}: {reason}") from None
    return values


def read_binary(path, magic: bytes, header_format: str, payload_size):
    """(header tuple, payload bytes) of a file of `magic`, a struct header and
    a payload. `payload_size(*header)` checks the header and returns the
    payload's byte count, which is compared with the bytes left before the
    payload is read, so a header that promises more allocates nothing."""
    with open(path, "rb") as fh:
        found = fh.read(len(magic))
        if len(found) < len(magic):
            raise TruncatedFile(f"{path}: shorter than the {len(magic)}-byte magic")
        if found != magic:
            raise BadMagic(f"{path}: bad magic {found!r}, expected {magic!r}")
        raw = fh.read(struct.calcsize(header_format))
        if len(raw) < struct.calcsize(header_format):
            raise TruncatedFile(f"{path}: header truncated")
        header = struct.unpack(header_format, raw)
        size = payload_size(*header)
        left = os.fstat(fh.fileno()).st_size - fh.tell()
        if left < size:
            raise TruncatedFile(f"{path}: header promises {size} payload bytes, file has {left}")
        payload = fh.read(size)
        if fh.read(1):
            raise TrailingBytes(f"{path}: bytes after the {size}-byte payload")
    return header, payload


def write_binary(path, magic: bytes, header_format: str, header: tuple, chunks) -> None:
    """Write what read_binary reads: `magic`, the packed header, then each
    bytes-like chunk of the payload in order."""
    with open(path, "wb") as fh:
        fh.write(magic)
        fh.write(struct.pack(header_format, *header))
        for chunk in chunks:
            fh.write(chunk)
