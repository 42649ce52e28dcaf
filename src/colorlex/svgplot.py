"""Deterministic SVG rendering for denotations and regression scatter.

Plots are built by direct string assembly with fixed-precision
coordinates, so rendering the same data twice yields byte-identical
files (a plotting library would not guarantee that). Two kinds are
provided: chip clouds per word in the a*/b* plane with an L* strip,
and an ease-versus-informativeness scatter with a least-squares line.

Point coordinates are scaled a whole float64 column at a time. Each
element goes through the operations of the scalar `_Scale.__call__` in
the same order, so it is the double a per-point call gives, and it is
formatted as `_fmt` formats it.
"""

from __future__ import annotations

from math import fsum
from typing import Iterator, Mapping, Sequence

import numpy as np

from .colorspace import LabColor, lab_to_srgb
from .corpus import Denotation

__all__ = ["denotation_plot", "ease_plot"]

_FONT = "font-family=\"sans-serif\" font-size=\"12\""
# Points are formatted this many at a time, so that only one block of
# pixel coordinates is held as Python floats.
_BLOCK = 8192


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _escape(text: str) -> str:
    """Text content for an XML element: &, < and > as entities."""
    # xml.sax.saxutils.escape does the same, but importing it loads
    # urllib.request, http.client and ssl into every CLI stage.
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _hex_color(c: LabColor) -> str:
    rgb = lab_to_srgb(c)
    return "#{:02x}{:02x}{:02x}".format(
        round(rgb.r * 255), round(rgb.g * 255), round(rgb.b * 255)
    )


def _mean_lab(l_star: Sequence[float], a_star: Sequence[float],
              b_star: Sequence[float]) -> LabColor:
    n = len(l_star)
    return LabColor(fsum(l_star) / n, fsum(a_star) / n, fsum(b_star) / n)


class _Scale:
    """Linear map from data range (padded 5%) to pixel range."""

    def __init__(self, lo: float, hi: float, p0: float, p1: float):
        if hi == lo:
            lo, hi = lo - 1.0, hi + 1.0
        pad = 0.05 * (hi - lo)
        self.lo, self.hi = lo - pad, hi + pad
        self.p0, self.p1 = p0, p1

    def __call__(self, v: float) -> float:
        t = (v - self.lo) / (self.hi - self.lo)
        return self.p0 + t * (self.p1 - self.p0)

    def ticks(self, n: int = 5) -> list[float]:
        step = (self.hi - self.lo) / (n - 1)
        return [self.lo + i * step for i in range(n)]


def _pixels(scale: _Scale, values) -> np.ndarray:
    """scale(v) for every value, computed on one float64 array."""
    # The scalar call gives inf and NaN without a word; so does this.
    with np.errstate(all="ignore"):
        return scale(np.asarray(values, dtype=np.float64))


def _rows(*columns: np.ndarray) -> Iterator[tuple[float, ...]]:
    """The columns' values row by row, as Python floats, converted a
    block of rows at a time."""
    for start in range(0, len(columns[0]), _BLOCK):
        yield from zip(*(c[start:start + _BLOCK].tolist() for c in columns))


def _tick_label(v: float) -> str:
    return f"{v:.3g}"


def _axes(out: list[str], x: _Scale, y: _Scale,
          x_label: str, y_label: str) -> None:
    left, right = x.p0, x.p1
    bottom, top = y.p0, y.p1
    out.append(
        f'<rect x="{_fmt(left)}" y="{_fmt(top)}" '
        f'width="{_fmt(right - left)}" height="{_fmt(bottom - top)}" '
        f'fill="none" stroke="#444444"/>'
    )
    for tv in x.ticks():
        px = x(tv)
        out.append(
            f'<line x1="{_fmt(px)}" y1="{_fmt(bottom)}" x2="{_fmt(px)}" '
            f'y2="{_fmt(bottom + 4)}" stroke="#444444"/>'
        )
        out.append(
            f'<text x="{_fmt(px)}" y="{_fmt(bottom + 16)}" {_FONT} '
            f'text-anchor="middle">{_tick_label(tv)}</text>'
        )
    for tv in y.ticks():
        py = y(tv)
        out.append(
            f'<line x1="{_fmt(left - 4)}" y1="{_fmt(py)}" x2="{_fmt(left)}" '
            f'y2="{_fmt(py)}" stroke="#444444"/>'
        )
        out.append(
            f'<text x="{_fmt(left - 7)}" y="{_fmt(py + 4)}" {_FONT} '
            f'text-anchor="end">{_tick_label(tv)}</text>'
        )
    out.append(
        f'<text x="{_fmt((left + right) / 2)}" y="{_fmt(bottom + 32)}" '
        f'{_FONT} text-anchor="middle">{x_label}</text>'
    )
    out.append(
        f'<text x="{_fmt(left - 36)}" y="{_fmt((top + bottom) / 2)}" {_FONT} '
        f'text-anchor="middle" transform="rotate(-90 {_fmt(left - 36)} '
        f'{_fmt((top + bottom) / 2)})">{y_label}</text>'
    )


def _document(width: int, height: int, body: list[str],
              header_comment: str) -> str:
    head = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f"<!-- {header_comment} -->",
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="#ffffff"/>',
    ]
    return "\n".join(head + body + ["</svg>"]) + "\n"


def _no_data(width: int, height: int, header_comment: str) -> str:
    body = [
        f'<text x="{width // 2}" y="{height // 2}" {_FONT} '
        f'text-anchor="middle">no data</text>'
    ]
    return _document(width, height, body, header_comment)


def denotation_plot(
    denotations: Mapping[str, Denotation],
    words: Sequence[str],
    header_comment: str,
) -> str:
    """Chip clouds for the given words: a*/b* plane plus an L* strip.

    Each word's chips are drawn in the sRGB rendering of the word's
    mean chip color. Unknown words raise KeyError.
    """
    width, height = 800, 480
    chosen = [(w, denotations[w].chips) for w in words]
    if not chosen:
        return _no_data(width, height, header_comment)
    # Each word's L*, a* and b* values, as three lists of floats.
    columns = [chips.T.tolist() for _, chips in chosen]
    all_a = [v for _, a_star, _ in columns for v in a_star]
    all_b = [v for _, _, b_star in columns for v in b_star]
    main_x = _Scale(min(all_a), max(all_a), 60, 560)
    main_y = _Scale(min(all_b), max(all_b), 430, 40)
    strip_x0, strip_x1 = 620, 770
    strip_y = _Scale(0.0, 100.0, 430, 40)
    body: list[str] = []
    _axes(body, main_x, main_y, "a*", "b*")
    body.append(
        f'<rect x="{strip_x0}" y="{_fmt(strip_y.p1)}" '
        f'width="{strip_x1 - strip_x0}" '
        f'height="{_fmt(strip_y.p0 - strip_y.p1)}" '
        f'fill="none" stroke="#444444"/>'
    )
    body.append(
        f'<text x="{(strip_x0 + strip_x1) // 2}" y="{_fmt(strip_y.p0 + 16)}" '
        f'{_FONT} text-anchor="middle">L*</text>'
    )
    n_words = len(chosen)
    for i, ((word, chips), lab) in enumerate(zip(chosen, columns)):
        color = _hex_color(_mean_lab(*lab))
        col_x = _fmt(strip_x0 + (i + 0.5) / n_words * (strip_x1 - strip_x0))
        # A chip's two circles as one entry: _document joins the entries
        # with the same newline that separates them here.
        body.extend(
            f'<circle cx="{x:.2f}" cy="{y:.2f}" r="3" fill="{color}" '
            f'fill-opacity="0.7"/>\n'
            f'<circle cx="{col_x}" cy="{z:.2f}" r="3" fill="{color}" '
            f'fill-opacity="0.7"/>'
            for x, y, z in _rows(_pixels(main_x, chips[:, 1]),
                                 _pixels(main_y, chips[:, 2]),
                                 _pixels(strip_y, chips[:, 0]))
        )
        ly = 40 + 18 * i
        body.append(
            f'<rect x="570" y="{ly - 9}" width="10" height="10" '
            f'fill="{color}"/>'
        )
        body.append(
            f'<text x="584" y="{ly}" {_FONT}>{_escape(word)} '
            f'(n={len(chips)})</text>'
        )
    return _document(width, height, body, header_comment)


def ease_plot(
    ease: Sequence[float],
    i_w: Sequence[float],
    header_comment: str,
    line: tuple[float, float] | None = None,
) -> str:
    """Scatter of context ease against uttered-word informativeness,
    one point per index of the two lists.

    line, when given, is an (intercept, slope) pair drawn across the
    ease range.
    """
    width, height = 640, 480
    if not ease:
        return _no_data(width, height, header_comment)
    sx = _Scale(min(ease), max(ease), 60, 600)
    sy = _Scale(min(i_w), max(i_w), 430, 40)
    body: list[str] = []
    _axes(body, sx, sy, "context ease", "informativeness of uttered word")
    body.extend(
        f'<circle cx="{x:.2f}" cy="{y:.2f}" r="2.5" '
        f'fill="#3366aa" fill-opacity="0.45"/>'
        for x, y in _rows(_pixels(sx, ease), _pixels(sy, i_w))
    )
    if line is not None:
        intercept, slope = line
        x0, x1 = min(ease), max(ease)
        y0, y1 = intercept + slope * x0, intercept + slope * x1
        body.append(
            f'<line x1="{_fmt(sx(x0))}" y1="{_fmt(sy(y0))}" '
            f'x2="{_fmt(sx(x1))}" y2="{_fmt(sy(y1))}" '
            f'stroke="#aa3333" stroke-width="2"/>'
        )
    return _document(width, height, body, header_comment)
