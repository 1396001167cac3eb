"""Byte-stable JSON rendering for experiment reports.

Reports must be diffable: the same (config, version) pair has to produce
the same bytes on every platform and run.  The stock json module formats
floats with repr, which is stable but not what we pin; this renderer emits
every float with 17 significant digits (enough to round-trip a double
exactly), keeps dict insertion order, and indents with two spaces.   The
output is plain JSON, loadable with json.loads.

A 1-D float64 array formats each distinct value once and is rendered in
chunks: probability vectors of Clifford+T circuits hold millions of
entries but only a handful of distinct values.
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
    """_render_float of each entry of a 1-D float64 array, one list per
    FLOAT_CHUNK entries.  Each distinct value is formatted once and found by
    binary search, so no full-length index, object array or list of strings
    is held.  NaN and infinities raise before anything is yielded."""
    distinct = np.unique(values)
    if not np.isfinite(distinct).all():
        _render_float(float(values[~np.isfinite(values)][0]))
    # np.unique merges -0.0 into 0.0 and may keep either: print 0 for the
    # merged value and put the sign back per chunk below.
    distinct[distinct == 0] = 0.0
    texts = np.array([_render_float(x) for x in distinct.tolist()], dtype=object)
    for start in range(0, len(values), FLOAT_CHUNK):
        part = values[start : start + FLOAT_CHUNK]
        out = texts[np.searchsorted(distinct, part)]
        out[np.signbit(part) & (part == 0)] = "-0"
        yield out.tolist()


def render_json(value, indent: int = 0) -> str:
    """Render a report tree (dict/list/str/float/int/bool/None) as JSON."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        value = value.item()
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return _render_float(value)
    if isinstance(value, str):
        return _quote(value)
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = []
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"report keys must be strings, got {key!r}")
            # An exact int is its own text; an unnamed child is freed before the join.
            items.append(f"{inner}{_quote(key)}: "
                         f"{item if type(item) is int else render_json(item, indent + 1)}")
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(value, np.ndarray) and value.dtype == np.float64 and value.ndim == 1 and value.size:
        sep = ",\n" + inner
        body = sep.join(sep.join(texts) for texts in _render_floats(value))
        return f"[\n{inner}{body}\n{pad}]"
    if isinstance(value, (list, tuple, np.ndarray)):
        seq = list(value)
        if not seq:
            return "[]"
        items = [f"{inner}{render_json(item, indent + 1)}" for item in seq]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    raise TypeError(f"cannot render {type(value).__name__} in a report")
