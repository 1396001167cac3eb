"""Byte-stable JSON rendering for experiment reports.

Reports must be diffable: the same (config, version) pair has to produce
the same bytes on every platform and run.  The stock json module formats
floats with repr, which is stable but not what we pin; this renderer emits
every float with 17 significant digits (enough to round-trip a double
exactly), keeps dict insertion order, and indents with two spaces.   The
output is plain JSON, loadable with json.loads.

A report tree holds None, bool, int, float and str leaves, dicts with str
keys, lists, tuples, 1-D float64 arrays and Tally leaves, every float
finite.  _check refuses any other tree before the first piece, so a report
is written whole or not at all, a piece at a time: a float array per
FLOAT_CHUNK entries, each distinct value formatted once (Clifford+T
probability vectors hold millions of entries but a handful of distinct
values), and a Tally per INT_RUN rows, built as bytes from its arrays with
no Python object per outcome.  The peak is the tree plus one piece.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _quote  # what json.dumps(str) runs

import numpy as np

from .circuits import outcome_labels


def _render_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"reports must not contain {x!r}")
    return format(x, ".17g")


# Entries per chunk of a float array: large enough that the per-chunk numpy
# calls cost nothing, small enough that the chunk's index and text arrays
# stay far below the size of the values themselves.
FLOAT_CHUNK = 1 << 16
INT_RUN = 1 << 12  # rows per piece of a Tally


@dataclass(frozen=True, eq=False)
class Tally:
    """A report leaf: counts[i] draws of outcome outcomes[i], rendered as
    the JSON object {outcome_string(outcomes[i], width): counts[i], ...}.
    _check accepts 1-D int64 arrays of one length, outcomes strictly
    ascending in [0, 2**width) and counts >= 0, with 0 <= width <= 62."""

    width: int
    outcomes: np.ndarray
    counts: np.ndarray


def _render_floats(values: np.ndarray) -> Iterator[list[str]]:
    """_render_float of each entry of a finite 1-D float64 array, one list
    per FLOAT_CHUNK entries.  Each distinct value is formatted once and found
    by binary search, so no full-length index, object array or list of
    strings is held."""
    distinct = np.unique(values)
    # np.unique merges -0.0 into 0.0 and may keep either: print 0 for the
    # merged value and put the sign back per chunk below.
    distinct[distinct == 0] = 0.0
    texts = np.array([_render_float(x) for x in distinct.tolist()], dtype=object)
    for start in range(0, len(values), FLOAT_CHUNK):
        part = values[start : start + FLOAT_CHUNK]
        out = texts[np.searchsorted(distinct, part)]
        out[np.signbit(part) & (part == 0)] = "-0"
        yield out.tolist()


def _render_tally(tally: Tally, indent: int) -> Iterator[str]:
    """The text of {label: count, ...} for a Tally _check accepted, one piece
    per INT_RUN rows.  Each row is uint8: ',\n  "', the label, '": ' and the
    count's digits right-aligned, NUL for its leading zeros; one mask drops
    the NULs."""
    outcomes, counts, width = tally.outcomes, tally.counts, tally.width
    if not len(outcomes):
        yield "{}"
        return
    # Digit j of a count is a leading zero when the count is below limits[j]:
    # powers[j], but 0 for the last digit, so a count of 0 prints "0".
    powers = 10 ** np.arange(len(str(counts.max())) - 1, -1, -1, dtype=np.int64)
    limits = np.append(powers[:-1], 0)
    head = f',\n{"  " * (indent + 1)}"'.encode()
    row = np.frombuffer(head + bytes(width) + b'": ' + bytes(powers.size), dtype=np.uint8)
    rows = np.tile(row, (min(INT_RUN, len(outcomes)), 1))
    for start in range(0, len(outcomes), INT_RUN):
        part = counts[start : start + INT_RUN, None]
        block = rows[: len(part)]
        block[0, 0] = ord("{" if start == 0 else ",")
        block[:, len(head) : len(head) + width] = outcome_labels(outcomes[start : start + INT_RUN], width)
        block[:, -powers.size :] = np.where(part < limits, 0, part // powers % 10 + ord("0"))
        text = block[block != 0].tobytes().decode("ascii")
        yield text if start + INT_RUN < len(outcomes) else text + f"\n{'  ' * indent}}}"


def _check_tally(tally: Tally) -> None:
    outcomes, counts, width = tally.outcomes, tally.counts, tally.width
    if not (isinstance(outcomes, np.ndarray) and isinstance(counts, np.ndarray)
            and outcomes.dtype == counts.dtype == np.int64
            and outcomes.ndim == 1 and outcomes.shape == counts.shape):
        raise TypeError("a tally needs 1-D int64 outcomes and counts of one length")
    if not (type(width) is int and 0 <= width <= 62):
        raise ValueError(f"a tally's width must be an int in [0, 62], got {width!r}")
    if not (outcomes[:-1] < outcomes[1:]).all():
        raise ValueError("tally outcomes must be strictly ascending")
    bad = (outcomes < 0) | (outcomes >= 1 << width) | (counts < 0)
    if bad.any():  # name the first bad row, as a loop over the tally would
        z = int(outcomes[bad.argmax()])
        if not 0 <= z < 1 << width:
            raise ValueError(f"outcome {z} out of range for width {width}")
        raise ValueError(f"negative tally for outcome {z}")


def _check(value) -> None:
    """The one refusal: raise at the first item, in render order, outside the tree language."""
    if isinstance(value, dict):
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"report keys must be strings, got {key!r}")
            _check(item)
    elif isinstance(value, (list, tuple)):
        for item in value:
            _check(item)
    elif isinstance(value, float):
        _render_float(value)
    elif isinstance(value, np.ndarray) and value.dtype == np.float64 and value.ndim == 1:
        _check(value[~np.isfinite(value)][:1].tolist())  # its first non-finite entry
    elif isinstance(value, Tally):
        _check_tally(value)
    elif value is not None and not isinstance(value, (int, str)):  # bool is an int
        raise TypeError(f"cannot render {type(value).__name__} in a report")


def _pieces(value, indent: int) -> Iterator[str]:
    """render_json's text of a tree _check accepted, in pieces."""
    pad, inner = "  " * indent, "  " * (indent + 1)
    if value is None:
        yield "null"
    elif isinstance(value, bool):
        yield "true" if value else "false"
    elif isinstance(value, int):
        yield str(value)
    elif isinstance(value, float):
        yield _render_float(value)
    elif isinstance(value, str):
        yield _quote(value)
    elif isinstance(value, Tally):
        yield from _render_tally(value, indent)
    elif not len(value):
        yield "{}" if isinstance(value, dict) else "[]"
    elif isinstance(value, dict):
        for i, (key, item) in enumerate(value.items()):
            yield ("{\n" if i == 0 else ",\n") + f"{inner}{_quote(key)}: "
            yield from _pieces(item, indent + 1)
        yield f"\n{pad}}}"
    elif isinstance(value, np.ndarray):
        sep, head = ",\n" + inner, "[\n" + inner
        for texts in _render_floats(value):
            yield head + sep.join(texts)
            head = sep
        yield f"\n{pad}]"
    else:
        for i, item in enumerate(value):
            yield ("[\n" if i == 0 else ",\n") + inner
            yield from _pieces(item, indent + 1)
        yield f"\n{pad}]"


def render_json(value, out=None) -> str | None:
    """Render a report tree (see above) as JSON: the text, or with out, its
    pieces to out.writelines as they are made.  A bad tree raises first."""
    _check(value)
    pieces = _pieces(value, 0)
    return "".join(pieces) if out is None else out.writelines(pieces)
