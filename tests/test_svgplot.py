"""The SVG plots: well-formed XML whatever the words are, and the bytes
of the per-point renderings in _svg_oracle.py whatever the data are."""

import math
from xml.dom import minidom

import numpy as np
from _svg_oracle import oracle_denotation_plot, oracle_ease_plot
from hypothesis import example, given, settings
from hypothesis import strategies as st

from colorlex.corpus import Denotation
from colorlex.svgplot import denotation_plot, ease_plot


def _denotation(word):
    return Denotation(word, np.array([[50.0, 20.0, -10.0],
                                      [60.0, 25.0, -5.0]]))


def _legend(svg):
    texts = minidom.parseString(svg).getElementsByTagName("text")
    return [t.firstChild.data for t in texts if t.getAttribute("x") == "584"]


def test_denotation_labels_are_escaped():
    words = ["a&b", "<grey>", "blue"]
    svg = denotation_plot({w: _denotation(w) for w in words}, words, "h")
    assert _legend(svg) == ["a&b (n=2)", "<grey> (n=2)", "blue (n=2)"]
    assert ">a&amp;b (n=2)</text>" in svg
    assert ">&lt;grey&gt; (n=2)</text>" in svg
    assert ">blue (n=2)</text>" in svg


def _outcome(plot, *args):
    """The SVG text, or the exception it raised (a scale of zero width,
    a NaN colour), as a string."""
    try:
        return plot(*args)
    except (ArithmeticError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


NAN, INF = math.nan, math.inf
# Plausible coordinates, the IEEE special values, and magnitudes at
# which padding the scale's range rounds away or overflows.
_VALUE = st.one_of(
    st.floats(-150.0, 150.0),
    st.sampled_from([NAN, INF, -INF, -0.0, 0.0, 1e17, -1e308]),
)
_LINE = st.none() | st.tuples(_VALUE, _VALUE)


@st.composite
def _points(draw):
    n = draw(st.integers(0, 25))
    column = st.lists(_VALUE, min_size=n, max_size=n)
    return draw(column), draw(column)


class TestEasePlotOracle:
    @settings(derandomize=True, database=None, deadline=None,
              max_examples=300)
    @given(points=_points(), line=_LINE)
    @example(points=([], []), line=None)
    @example(points=([3.5], [1.25]), line=(1.0, 0.5))
    @example(points=([2.0, 2.0, 2.0], [1.0, 4.0, -0.0]), line=None)
    @example(points=([NAN, 1.0, 3.0], [0.5, NAN, 2.0]), line=(0.1, 0.2))
    @example(points=([1.0, INF, -INF], [-0.0, 0.0, -0.0]), line=None)
    def test_equals_per_point_oracle(self, points, line):
        ease, i_w = points
        assert _outcome(ease_plot, ease, i_w, "h", line) == _outcome(
            oracle_ease_plot, list(zip(ease, i_w)), "h", line)


_WORD = st.text(alphabet="ab&<>\"' ", min_size=1, max_size=4)


@st.composite
def _denotations(draw):
    words = draw(st.lists(_WORD, min_size=1, max_size=4, unique=True))
    denotations = {}
    for word in words:
        n = draw(st.integers(1, 12))
        chips = draw(st.lists(_VALUE, min_size=3 * n, max_size=3 * n))
        denotations[word] = Denotation(word, np.array(chips).reshape(n, 3))
    chosen = draw(st.lists(st.sampled_from(words), max_size=4))
    return denotations, chosen


def _case(chips_by_word, words):
    return ({w: Denotation(w, np.array(rows, dtype=np.float64))
             for w, rows in chips_by_word.items()}, words)


class TestDenotationPlotOracle:
    @settings(derandomize=True, database=None, deadline=None,
              max_examples=300)
    @given(case=_denotations())
    @example(case=_case({"red": [[50.0, 60.0, 40.0]]}, ["red"]))
    @example(case=_case({"a&b": [[50.0, 1.0, 2.0], [40.0, 1.0, 2.0]],
                         "<c>": [[60.0, -0.0, 3.0]]}, ["a&b", "<c>"]))
    @example(case=_case({"w": [[50.0, NAN, 2.0], [40.0, 1.0, 2.0],
                               [45.0, 3.0, NAN]]}, ["w"]))
    @example(case=_case({"w": [[50.0, INF, 2.0], [40.0, -INF, 2.0]]},
                        ["w"]))
    def test_equals_per_point_oracle(self, case):
        denotations, words = case
        assert _outcome(denotation_plot, denotations, words, "h") == (
            _outcome(oracle_denotation_plot, denotations, words, "h"))
