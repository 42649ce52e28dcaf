"""The SVG plots are well-formed XML whatever the words are."""

from xml.dom import minidom

import numpy as np

from colorlex.corpus import Denotation
from colorlex.svgplot import denotation_plot


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
