import io
import json
import math
import tracemalloc
from collections import deque

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

from depolab import reports
from depolab.reports import FLOAT_CHUNK, INT_RUN, Tally, _render_float, render_json
from oracles import loop_outcome_string

# Finite floats, with the awkward ones drawn often: both zeros, subnormals
# and a few repeats, so chunks share and split runs of equal values.
finite = st.floats(allow_nan=False, allow_infinity=False)
awkward = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 0.1, 1.0, -1.0])
float_arrays = st.lists(st.one_of(awkward, finite), max_size=40).map(
    lambda xs: np.array(xs, dtype=np.float64)
)
# Trees of any str keys and int (and bool) leaves, one level of nesting.
leaves = st.one_of(st.integers(), st.booleans())
int_trees = st.dictionaries(
    st.text(), st.one_of(leaves, st.dictionaries(st.text(), leaves)), max_size=8
)
TALLY_SHAPE = "a tally needs 1-D int64 outcomes and counts of one length"


@st.composite
def tallies(draw):
    """(width, outcomes, counts): distinct outcomes below 2**width, ascending,
    and int64 counts, the awkward ones (0, 9, 10 and the largest) drawn often."""
    width = draw(st.integers(0, 62))
    outcomes = sorted(draw(st.sets(st.integers(0, (1 << width) - 1), max_size=30)))
    count = st.one_of(st.sampled_from([0, 9, 10, 2**63 - 1]), st.integers(0, 2**63 - 1))
    counts = draw(st.lists(count, min_size=len(outcomes), max_size=len(outcomes)))
    return width, outcomes, counts


def leaf(width, outcomes, counts, dtype=np.int64):
    return Tally(width, np.array(outcomes, dtype=dtype), np.array(counts, dtype=dtype))


def as_dict(width, outcomes, counts):
    """The tally as a dict, labelled by the oracle's bit loop."""
    return {loop_outcome_string(z, width): c for z, c in zip(outcomes, counts)}


def wide_leaf(width):
    """Every outcome of width qubits, each counted 1000 + its index."""
    outcomes = np.arange(1 << width, dtype=np.int64)
    return Tally(width, outcomes, 1000 + outcomes)


class Pieces:
    """A sink that keeps each piece render_json hands it."""

    def __init__(self):
        self.pieces = []

    def writelines(self, pieces):
        self.pieces.extend(pieces)


class Discard:
    """A sink that drops each piece as soon as it is made."""

    def writelines(self, pieces):
        deque(pieces, maxlen=0)


def streamed(tree):
    sink = io.StringIO()
    assert render_json(tree, sink) is None
    return sink.getvalue()


def as_list_text(arr):
    """A non-empty float list as render_json prints it at the top level."""
    return "[\n  " + ",\n  ".join(format(x, ".17g") for x in arr) + "\n]"


class TestRenderFloats:
    # FLOAT_CHUNK is set inside each body: hypothesis refuses function-scoped
    # fixtures such as monkeypatch.
    @given(float_arrays.filter(len), st.integers(1, 9))
    @example(np.array([-0.0, 0.0, 0.5, -0.0, -0.0, 0.0, 0.0, -0.0]), 3)  # -0 in every chunk
    @settings(max_examples=300)
    def test_matches_format_per_entry(self, arr, chunk):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(reports, "FLOAT_CHUNK", chunk)
            assert render_json(arr) == as_list_text(arr)

    def test_default_chunk_boundary(self):
        arr = np.zeros(FLOAT_CHUNK + 3)
        arr[FLOAT_CHUNK - 2 : FLOAT_CHUNK + 2] = [0.25, -0.0, 1e-300, -0.0]
        arr[-1] = 0.25
        assert render_json(arr) == as_list_text(arr)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_raises_like_render_float(self, bad):
        # The first non-finite entry is named, although it sits in the
        # second chunk and a NaN follows in the third.
        with pytest.raises(ValueError) as expected:
            _render_float(bad)
        arr = np.array([0.5, 0.0, bad, 0.5, math.nan])
        with pytest.MonkeyPatch.context() as mp, pytest.raises(ValueError) as got:
            mp.setattr(reports, "FLOAT_CHUNK", 2)
            render_json({"probabilities": arr})
        assert str(got.value) == str(expected.value)


class TestRenderJson:
    @given(float_arrays)
    @settings(max_examples=100)
    def test_float_array_renders_like_list(self, arr):
        tree = {"probabilities": arr, "nested": [arr, {"x": arr}]}
        as_lists = {"probabilities": list(arr), "nested": [list(arr), {"x": list(arr)}]}
        assert render_json(tree) == render_json(as_lists)

    @pytest.mark.parametrize("arr", [np.array([1, 2]), np.array([0.5], dtype=np.float32),
                                     np.zeros((2, 2)), np.array(0.5)],
                             ids=["int64", "float32", "2-d", "0-d"])
    def test_other_arrays_are_refused(self, arr):
        # Only 1-D float64 arrays are in the report language.
        sink = Pieces()
        with pytest.raises(TypeError, match="cannot render ndarray in a report"):
            render_json({"p": arr}, sink)
        assert sink.pieces == []

    @given(int_trees)
    @settings(max_examples=200)
    def test_int_trees_render_like_stock_json(self, tree):
        assert render_json(tree) == json.dumps(tree, indent=2)

    def test_bools_in_dicts_and_numpy_scalars_refused(self):
        assert render_json({"a": True, "b": False}) == '{\n  "a": true,\n  "b": false\n}'
        # numpy ints and bools are not ints: a report holds Python scalars.
        for scalar in (np.int64(7), np.bool_(True)):
            sink = Pieces()
            with pytest.raises(TypeError, match=f"cannot render {type(scalar).__name__}"):
                render_json({"a": True, "n": scalar}, sink)
            assert sink.pieces == []

    def test_str_subclass_key_renders_like_str(self):
        class Key(str):
            def __str__(self):
                return "not this"

        assert render_json({Key('q"\u00e9'): 1}) == render_json({'q"\u00e9': 1})

    @pytest.mark.parametrize("key", [1, b"00", None])
    def test_non_str_key_raises(self, key):
        with pytest.raises(TypeError, match="report keys must be strings"):
            render_json({"tally": {key: 1}})

    def test_render_peak_memory(self):
        # The returned text is one join of the streamed pieces: the traced
        # peak is the pieces plus the text, 2.2 times the output length
        # (3.0 when each dict joined its own items before its parent did).
        tree = {"results": {"per_fidelity": [{"tally": wide_leaf(14)}] * 3}}
        tracemalloc.start()
        try:
            text = render_json(tree)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.6 * len(text)

    def test_streamed_peak_is_one_child(self):
        # Streamed, nothing outlives its piece: 12 tallies peak where 3 do.
        tally = wide_leaf(12)
        peaks = []
        for copies in (3, 12):
            tree = {"results": {"per_fidelity": [{"tally": tally}] * copies}}
            tracemalloc.start()
            try:
                render_json(tree, Discard())
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) < 0.1 * peaks[0]


class TestTally:
    @given(tallies(), st.integers(1, 5))
    @example((3, [0, 1, 6, 7], [0, 9, 10, 2**63 - 1]), 1)
    @example((0, [0], [2**63 - 1]), 1)
    @example((0, [], []), 1)
    @settings(max_examples=300)
    def test_renders_like_the_oracle_dict(self, drawn, run):
        # json.dumps of the dict the oracle labels, nested as in a report,
        # returned whole and streamed a few rows per piece.
        tally, as_text = leaf(*drawn), as_dict(*drawn)
        tree = {"per_fidelity": [{"tally": tally, "after": 0.5}], "last": tally}
        expected = json.dumps({"per_fidelity": [{"tally": as_text, "after": 0.5}],
                               "last": as_text}, indent=2)
        assert render_json(tree) == expected
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(reports, "INT_RUN", run)
            assert streamed(tree) == expected


class TestStreamed:
    """render_json(tree, out) writes exactly render_json(tree), in pieces."""

    @given(float_arrays, st.integers(1, 9))
    @example(np.array([-0.0, 0.0, 0.5, -0.0, -0.0, 0.0, 0.0, -0.0]), 3)
    @settings(max_examples=200)
    def test_float_arrays(self, arr, chunk):
        tree = {"probabilities": arr, "nested": [arr, {"x": arr}], "empty": []}
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(reports, "FLOAT_CHUNK", chunk)
            assert streamed(arr) == render_json(arr)
            assert streamed(tree) == render_json(tree)

    @given(int_trees)
    @settings(max_examples=200)
    def test_int_trees(self, tree):
        assert streamed(tree) == render_json(tree) == json.dumps(tree, indent=2)

    @given(st.recursive(
        st.one_of(st.none(), st.booleans(), st.integers(), finite, st.text()),
        lambda children: st.one_of(st.lists(children, max_size=4),
                                   st.dictionaries(st.text(), children, max_size=4)),
        max_leaves=30,
    ))
    @settings(max_examples=200)
    def test_nested_trees(self, tree):
        assert streamed(tree) == render_json(tree)
        assert json.loads(render_json(tree)) == tree

    def test_pieces(self):
        # One piece per float chunk and per INT_RUN tally rows, not one per entry.
        tree = {"tally": wide_leaf(10), "probabilities": np.full(FLOAT_CHUNK + 1, 0.5)}
        sink = Pieces()
        render_json(tree, sink)
        # The tally's key, the tally, the array's key, two chunks, "]", "}".
        assert len(sink.pieces) == 7
        assert "".join(sink.pieces) == render_json(tree)

    @pytest.mark.parametrize("items", [0, 1, INT_RUN - 1, INT_RUN, INT_RUN + 1])
    def test_int_runs_in_sub_runs(self, items):
        # A tally of any length is followed by its parent's next item; no
        # piece holds more than INT_RUN of its rows.
        outcomes = list(range(items))
        tree = {"tally": leaf(13, outcomes, outcomes), "after": [0.5]}
        sink = Pieces()
        render_json(tree, sink)
        expected = json.dumps({"tally": as_dict(13, outcomes, outcomes), "after": [0.5]}, indent=2)
        assert "".join(sink.pieces) == render_json(tree) == expected
        assert max(piece.count("\n") for piece in sink.pieces) <= INT_RUN + 1

    @pytest.mark.parametrize("bad, error, message", [
        (math.nan, ValueError, "reports must not contain nan"),
        (np.array([0.5, math.inf, math.nan]), ValueError, "reports must not contain inf"),
        ({"tally": {"00": 3, 1: 2}}, TypeError, "report keys must be strings, got 1"),
        (1j, TypeError, "cannot render complex in a report"),
        (np.int64(3), TypeError, "cannot render int64 in a report"),
        (np.zeros((2, 2)), TypeError, "cannot render ndarray in a report"),
        (leaf(3, [2, 1], [1, 1]), ValueError, "tally outcomes must be strictly ascending"),
        (leaf(3, [1, 1], [1, 1]), ValueError, "tally outcomes must be strictly ascending"),
        (leaf(3, [0, 8, 9], [1, -1, 1]), ValueError, "outcome 8 out of range for width 3"),
        (leaf(3, [-1, 2], [1, 1]), ValueError, "outcome -1 out of range for width 3"),
        (leaf(3, [0, 5, 6], [1, -2, -1]), ValueError, "negative tally for outcome 5"),
        (leaf(63, [0], [1]), ValueError, "a tally's width must be an int in [0, 62], got 63"),
        (leaf(3, [0, 1], [1, 1], np.int32), TypeError, TALLY_SHAPE),
        (leaf(3, [[0, 1]], [[1, 1]]), TypeError, TALLY_SHAPE),
        (Tally(3, np.array([0, 1]), np.array([1])), TypeError, TALLY_SHAPE),
        (Tally(3, [0, 1], [1, 1]), TypeError, TALLY_SHAPE),
    ], ids=["nan", "inf-entry", "int-key", "complex", "int64", "2d-array",
            "tally-descending", "tally-repeat", "tally-outcome-range", "tally-negative-outcome",
            "tally-negative-count", "tally-width", "tally-int32", "tally-2d", "tally-length",
            "tally-lists"])
    def test_bad_tree_writes_nothing(self, bad, error, message):
        # The bad item comes after a float array that would already have
        # been written; the first bad item in render order is named, and
        # nothing reaches the sink.
        sink = Pieces()
        tree = {"ok": {"a": 1}, "p": np.array([0.5, 0.25]), "bad": [bad], "q": math.nan}
        with pytest.raises(error) as got:
            render_json(tree, sink)
        assert str(got.value) == message
        assert sink.pieces == []
