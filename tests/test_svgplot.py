"""The SVG plots are well-formed XML whatever the words are."""

from xml.dom import minidom

from colorlex.colorspace import LabColor
from colorlex.corpus import Denotation
from colorlex.svgplot import denotation_plot


def _denotation(word):
    chips = (LabColor(50.0, 20.0, -10.0), LabColor(60.0, 25.0, -5.0))
    return Denotation(word, chips, len(chips))


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
