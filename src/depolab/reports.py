"""Byte-stable JSON rendering for experiment reports.

Reports must be diffable: the same (config, version) pair has to produce
the same bytes on every platform and run.  The stock json module formats
floats with repr, which is stable but not what we pin; this renderer emits
every float with 17 significant digits (enough to round-trip a double
exactly), keeps dict insertion order, and indents with two spaces.   The
output is plain JSON, loadable with json.loads.

A report is rendered as a stream of text pieces that render_json(value,
out) writes as they are made, so the peak is the report tree plus one
piece.  A 1-D float64 array is one piece per FLOAT_CHUNK entries, each
distinct value formatted once (probability vectors of Clifford+T circuits
hold millions of entries but only a handful of distinct values), and a run
of exact-int items in a dict (a tally) is one piece.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from json.encoder import encode_basestring_ascii as _quote  # what json.dumps(str) runs

import numpy as np


def _render_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"reports must not contain {x!r}")
    return format(x, ".17g")


# Entries per chunk of a float array: large enough that the per-chunk numpy
# calls cost nothing, small enough that the chunk's index and text arrays
# stay far below the size of the values themselves.
FLOAT_CHUNK = 1 << 16


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


def _check_finite(value) -> None:
    """Refuse the first non-finite float leaf in render order, as _render_float does."""
    if isinstance(value, np.ndarray) and value.dtype.kind == "f":
        if not np.isfinite(value).all():
            _render_float(float(value[~np.isfinite(value)][0]))
    elif isinstance(value, (float, np.floating)):
        _render_float(float(value))
    elif isinstance(value, (dict, list, tuple, np.ndarray)):
        for item in value.values() if isinstance(value, dict) else value:
            if type(item) is not int:  # tally counts: most leaves, never floats
                _check_finite(item)


def _pieces(value, indent: int) -> Iterator[str]:
    """render_json's text of value, in pieces whose join is the whole text."""
    pad, inner = "  " * indent, "  " * (indent + 1)
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        value = value.item()
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
    elif isinstance(value, (dict, list, tuple, np.ndarray)) and not len(value):
        yield "{}" if isinstance(value, dict) else "[]"
    elif isinstance(value, dict):
        run, sep = [], "{\n"
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"report keys must be strings, got {key!r}")
            if type(item) is int:  # a run of exact ints (a tally) is one piece
                run.append(f"{sep}{inner}{_quote(key)}: {item}")
            else:
                yield "".join(run) + f"{sep}{inner}{_quote(key)}: "
                run = []
                yield from _pieces(item, indent + 1)
            sep = ",\n"
        yield "".join(run) + f"\n{pad}}}"
    elif isinstance(value, np.ndarray) and value.dtype == np.float64 and value.ndim == 1:
        sep, head = ",\n" + inner, "[\n" + inner
        for texts in _render_floats(value):
            yield head + sep.join(texts)
            head = sep
        yield f"\n{pad}]"
    elif isinstance(value, (list, tuple, np.ndarray)):
        for i, item in enumerate(value):
            yield ("[\n" if i == 0 else ",\n") + inner
            yield from _pieces(item, indent + 1)
        yield f"\n{pad}]"
    else:
        raise TypeError(f"cannot render {type(value).__name__} in a report")


def render_json(value, out=None) -> str | None:
    """Render a report tree (dict/list/str/float/int/bool/None) as JSON: return
    the text, or with out, hand it to out.writelines in pieces as it is
    rendered.  A non-finite float anywhere raises before the first piece."""
    _check_finite(value)
    pieces = _pieces(value, 0)
    return "".join(pieces) if out is None else out.writelines(pieces)
