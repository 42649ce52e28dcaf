"""sRGB to CIELAB in 50-digit decimal arithmetic: a reference for the
float conversion in colorlex.colorspace.

It uses the same sRGB-to-XYZ matrix, the same white point (the matrix
row sums) and the same 6/29 knee, so the two agree up to float
rounding; only the arithmetic differs. Standard library only.
"""

from __future__ import annotations

from decimal import Decimal, localcontext

_SRGB_TO_XYZ = (
    ("0.4124564", "0.3575761", "0.1804375"),
    ("0.2126729", "0.7151522", "0.0721750"),
    ("0.0193339", "0.1191920", "0.9503041"),
)


def srgb_to_lab_decimal(r: float, g: float, b: float) -> tuple[float, ...]:
    """(L*, a*, b*) of a gamma-encoded sRGB triple, computed to 50 digits
    from the exact values of the float inputs."""
    with localcontext() as ctx:
        ctx.prec = 50
        matrix = [[Decimal(v) for v in row] for row in _SRGB_TO_XYZ]
        white = [sum(row) for row in matrix]
        delta = Decimal(6) / Decimal(29)
        third = Decimal(1) / Decimal(3)

        def linearize(u: Decimal) -> Decimal:
            if u <= Decimal("0.04045"):
                return u / Decimal("12.92")
            base = (u + Decimal("0.055")) / Decimal("1.055")
            return base ** Decimal("2.4")

        def f(t: Decimal) -> Decimal:
            if t > delta**3:
                return t**third
            return t / (3 * delta * delta) + Decimal(4) / Decimal(29)

        rgb = [linearize(Decimal(v)) for v in (r, g, b)]
        fx, fy, fz = (
            f(sum(m * c for m, c in zip(row, rgb)) / w)
            for row, w in zip(matrix, white)
        )
        lab = (116 * fy - 16, 500 * (fx - fy), 200 * (fy - fz))
        return tuple(float(v) for v in lab)
