"""Byte-stable JSON rendering for experiment reports.

Reports must be diffable: the same (config, version) pair has to produce
the same bytes on every platform and run.  The stock json module formats
floats with repr, which is stable but not what we pin; this renderer emits
every float with 17 significant digits (enough to round-trip a double
exactly), keeps dict insertion order, and indents with two spaces.   The
output is plain JSON, loadable with json.loads.

A report tree holds None, bool, int, float and str leaves, dicts with str
keys, lists, tuples and 1-D float64 arrays, every float finite.  _check
refuses any other tree before the first piece, so a report is written whole
or not at all, a piece at a time: a float array per FLOAT_CHUNK entries,
each distinct value formatted once (Clifford+T probability vectors hold
millions of entries but a handful of distinct values), and a tally (a run
of exact-int dict items) per INT_RUN items.  The peak is the tree plus one.
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
INT_RUN = 1 << 12  # items per piece of a run of exact-int dict items (a tally)


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


def _check(value) -> None:
    """The one refusal: raise at the first item, in render order, outside the tree language."""
    if isinstance(value, dict):
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"report keys must be strings, got {key!r}")
            if type(item) is not int:  # tally counts: most leaves, never floats
                _check(item)
    elif isinstance(value, (list, tuple)):
        for item in value:
            _check(item)
    elif isinstance(value, float):
        _render_float(value)
    elif isinstance(value, np.ndarray) and value.dtype == np.float64 and value.ndim == 1:
        _check(value[~np.isfinite(value)][:1].tolist())  # its first non-finite entry
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
    elif not len(value):
        yield "{}" if isinstance(value, dict) else "[]"
    elif isinstance(value, dict):
        run, sep = [], "{\n"
        for key, item in value.items():
            if type(item) is int:  # a run of exact ints (a tally): a piece per INT_RUN
                run.append(f"{sep}{inner}{_quote(key)}: {item}")
                if len(run) == INT_RUN:
                    yield "".join(run)
                    run = []
            else:
                yield "".join(run) + f"{sep}{inner}{_quote(key)}: "
                run = []
                yield from _pieces(item, indent + 1)
            sep = ",\n"
        yield "".join(run) + f"\n{pad}}}"
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
