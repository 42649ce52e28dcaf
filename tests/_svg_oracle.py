"""The per-point SVG plots that `colorlex.svgplot` renders from arrays.

Each coordinate goes through the scalar `_Scale.__call__` and `_fmt`,
one point at a time. `svgplot.denotation_plot` and `svgplot.ease_plot`
must return these functions' bytes, whatever the data.
"""

from __future__ import annotations

from math import fsum
from typing import Mapping, Sequence

from colorlex.colorspace import LabColor
from colorlex.corpus import Denotation
from colorlex.svgplot import (
    _FONT,
    _Scale,
    _axes,
    _document,
    _escape,
    _fmt,
    _hex_color,
    _no_data,
)


def _mean_lab(chips: Sequence[Sequence[float]]) -> LabColor:
    n = len(chips)
    return LabColor(
        fsum(c[0] for c in chips) / n,
        fsum(c[1] for c in chips) / n,
        fsum(c[2] for c in chips) / n,
    )


def oracle_denotation_plot(
    denotations: Mapping[str, Denotation],
    words: Sequence[str],
    header_comment: str,
) -> str:
    width, height = 800, 480
    # Each chip as an (L*, a*, b*) tuple of floats.
    chosen = [(w, denotations[w].chips.tolist()) for w in words]
    if not chosen:
        return _no_data(width, height, header_comment)
    all_a = [c[1] for _, chips in chosen for c in chips]
    all_b = [c[2] for _, chips in chosen for c in chips]
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
    for i, (word, chips) in enumerate(chosen):
        color = _hex_color(_mean_lab(chips))
        col_x = strip_x0 + (i + 0.5) / n_words * (strip_x1 - strip_x0)
        for l_star, a_star, b_star in chips:
            body.append(
                f'<circle cx="{_fmt(main_x(a_star))}" '
                f'cy="{_fmt(main_y(b_star))}" r="3" fill="{color}" '
                f'fill-opacity="0.7"/>'
            )
            body.append(
                f'<circle cx="{_fmt(col_x)}" cy="{_fmt(strip_y(l_star))}" '
                f'r="3" fill="{color}" fill-opacity="0.7"/>'
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


def oracle_ease_plot(
    points: Sequence[tuple[float, float]],
    header_comment: str,
    line: tuple[float, float] | None = None,
) -> str:
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
