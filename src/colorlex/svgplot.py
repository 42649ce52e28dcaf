"""Deterministic SVG rendering for denotations and regression scatter.

Plots are built by direct string assembly with fixed-precision
coordinates, so rendering the same data twice yields byte-identical
files (a plotting library would not guarantee that). Two kinds are
provided: chip clouds per word in the a*/b* plane with an L* strip,
and an ease-versus-informativeness scatter with a least-squares line.
"""

from __future__ import annotations

from math import fsum
from typing import Mapping, Sequence

from .colorspace import LabColor, lab_to_srgb
from .corpus import Denotation

__all__ = ["denotation_plot", "ease_plot"]

_FONT = "font-family=\"sans-serif\" font-size=\"12\""


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


def _mean_lab(chips: Sequence[LabColor]) -> LabColor:
    n = len(chips)
    return LabColor(
        fsum(c.l_star for c in chips) / n,
        fsum(c.a_star for c in chips) / n,
        fsum(c.b_star for c in chips) / n,
    )


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
    chosen = [(w, denotations[w]) for w in words]
    if not chosen:
        return _no_data(width, height, header_comment)
    all_chips = [c for _, d in chosen for c in d.chips]
    main_x = _Scale(
        min(c.a_star for c in all_chips),
        max(c.a_star for c in all_chips), 60, 560,
    )
    main_y = _Scale(
        min(c.b_star for c in all_chips),
        max(c.b_star for c in all_chips), 430, 40,
    )
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
    for i, (word, den) in enumerate(chosen):
        color = _hex_color(_mean_lab(den.chips))
        col_x = strip_x0 + (i + 0.5) / n_words * (strip_x1 - strip_x0)
        for c in den.chips:
            body.append(
                f'<circle cx="{_fmt(main_x(c.a_star))}" '
                f'cy="{_fmt(main_y(c.b_star))}" r="3" fill="{color}" '
                f'fill-opacity="0.7"/>'
            )
            body.append(
                f'<circle cx="{_fmt(col_x)}" cy="{_fmt(strip_y(c.l_star))}" '
                f'r="3" fill="{color}" fill-opacity="0.7"/>'
            )
        ly = 40 + 18 * i
        body.append(
            f'<rect x="570" y="{ly - 9}" width="10" height="10" '
            f'fill="{color}"/>'
        )
        body.append(
            f'<text x="584" y="{ly}" {_FONT}>{_escape(word)} '
            f'(n={den.count})</text>'
        )
    return _document(width, height, body, header_comment)


def ease_plot(
    points: Sequence[tuple[float, float]],
    header_comment: str,
    line: tuple[float, float] | None = None,
) -> str:
    """Scatter of (context ease, uttered-word informativeness).

    line, when given, is an (intercept, slope) pair drawn across the
    ease range.
    """
    width, height = 640, 480
    if not points:
        return _no_data(width, height, header_comment)
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    sx = _Scale(min(xs), max(xs), 60, 600)
    sy = _Scale(min(ys), max(ys), 430, 40)
    body: list[str] = []
    _axes(body, sx, sy, "context ease", "informativeness of uttered word")
    for px, py in points:
        body.append(
            f'<circle cx="{_fmt(sx(px))}" cy="{_fmt(sy(py))}" r="2.5" '
            f'fill="#3366aa" fill-opacity="0.45"/>'
        )
    if line is not None:
        intercept, slope = line
        x0, x1 = min(xs), max(xs)
        y0, y1 = intercept + slope * x0, intercept + slope * x1
        body.append(
            f'<line x1="{_fmt(sx(x0))}" y1="{_fmt(sy(y0))}" '
            f'x2="{_fmt(sx(x1))}" y2="{_fmt(sy(y1))}" '
            f'stroke="#aa3333" stroke-width="2"/>'
        )
    return _document(width, height, body, header_comment)
