"""Color representation and the perceptual distance metric.

Colors enter the pipeline as HSL (the corpus-native encoding), pass
through gamma-encoded sRGB and end up in CIELAB, where Euclidean
distance approximates perceived color difference. Conversions assume
the sRGB primaries with D65 reference white and the 2-degree standard
observer; the reference white is taken as the row sums of the
RGB-to-XYZ matrix so that sRGB white maps to exactly (100, 0, 0).

All functions are pure and safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

__all__ = [
    "HslColor",
    "SrgbColor",
    "LabColor",
    "hsl_to_srgb",
    "srgb_to_lab",
    "hsl_to_lab_array",
    "lab_to_srgb",
]


@dataclass(frozen=True, slots=True)
class HslColor:
    """Hue in degrees [0, 360), saturation and lightness as fractions."""

    h: float
    s: float
    l: float

    def __post_init__(self):
        if not (0.0 <= self.h < 360.0):
            raise ValueError(f"hue {self.h!r} outside [0, 360)")
        if not (0.0 <= self.s <= 1.0):
            raise ValueError(f"saturation {self.s!r} outside [0, 1]")
        if not (0.0 <= self.l <= 1.0):
            raise ValueError(f"lightness {self.l!r} outside [0, 1]")


@dataclass(frozen=True, slots=True)
class SrgbColor:
    """Gamma-encoded sRGB channels as fractions in [0, 1]."""

    r: float
    g: float
    b: float

    def __post_init__(self):
        for name in ("r", "g", "b"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"channel {name}={v!r} outside [0, 1]")


@dataclass(frozen=True, slots=True)
class LabColor:
    """CIELAB coordinates: L* lightness, a*/b* opponent channels."""

    l_star: float
    a_star: float
    b_star: float


def hsl_to_srgb(c: HslColor) -> SrgbColor:
    """Standard HSL to gamma-encoded sRGB conversion.

    Exact results lie in [0, 1]; channels are clamped there because the
    float arithmetic can miss by one rounding (about -1e-17 for full
    saturation at some low lightnesses).
    """
    chroma = (1.0 - abs(2.0 * c.l - 1.0)) * c.s
    hp = c.h / 60.0
    x = chroma * (1.0 - abs(math.fmod(hp, 2.0) - 1.0))
    if hp < 1.0:
        r1, g1, b1 = chroma, x, 0.0
    elif hp < 2.0:
        r1, g1, b1 = x, chroma, 0.0
    elif hp < 3.0:
        r1, g1, b1 = 0.0, chroma, x
    elif hp < 4.0:
        r1, g1, b1 = 0.0, x, chroma
    elif hp < 5.0:
        r1, g1, b1 = x, 0.0, chroma
    else:
        r1, g1, b1 = chroma, 0.0, x
    m = c.l - chroma / 2.0
    r, g, b = r1 + m, g1 + m, b1 + m
    if not (0.0 <= r <= 1.0 and 0.0 <= g <= 1.0 and 0.0 <= b <= 1.0):
        r, g, b = (min(1.0, max(0.0, v)) for v in (r, g, b))
    return SrgbColor(r, g, b)


# sRGB (D65) to XYZ. Row sums define the white point, which makes
# white -> (100, 0, 0) exact by construction.
_SRGB_TO_XYZ = (
    (0.4124564, 0.3575761, 0.1804375),
    (0.2126729, 0.7151522, 0.0721750),
    (0.0193339, 0.1191920, 0.9503041),
)
_WHITE = tuple(sum(row) for row in _SRGB_TO_XYZ)

_DELTA = 6.0 / 29.0
_DELTA_CUBED = _DELTA**3
_F_SLOPE = 1.0 / (3.0 * _DELTA * _DELTA)


def _linearize(u: float) -> float:
    return u / 12.92 if u <= 0.04045 else ((u + 0.055) / 1.055) ** 2.4


def _delinearize(u: float) -> float:
    if u <= 0.0031308:
        return 12.92 * u
    return 1.055 * u ** (1.0 / 2.4) - 0.055


def _f(t: float) -> float:
    return t ** (1.0 / 3.0) if t > _DELTA_CUBED else _F_SLOPE * t + 4.0 / 29.0


def _f_inv(t: float) -> float:
    return t**3 if t > _DELTA else (t - 4.0 / 29.0) / _F_SLOPE


def srgb_to_lab(c: SrgbColor) -> LabColor:
    """Convert sRGB to CIELAB (linearize, XYZ under D65, CIE 1976 L*a*b*)."""
    rl, gl, bl = _linearize(c.r), _linearize(c.g), _linearize(c.b)
    fx, fy, fz = (
        _f((m[0] * rl + m[1] * gl + m[2] * bl) / w)
        for m, w in zip(_SRGB_TO_XYZ, _WHITE)
    )
    return LabColor(116.0 * fy - 16.0, 500.0 * (fx - fy), 200.0 * (fy - fz))


_POW_BLOCK = 8192  # elements held as Python floats at a time


def _pow(base: np.ndarray, exponent: float) -> np.ndarray:
    """base ** exponent per element, through the libm pow that float **
    calls: np.power and np.cbrt may round some results differently."""
    out = np.empty_like(base)
    for i in range(0, len(base), _POW_BLOCK):
        block = base[i:i + _POW_BLOCK].tolist()
        out[i:i + _POW_BLOCK] = list(map(pow, block, repeat(exponent)))
    return out


def hsl_to_lab_array(h, s, l) -> np.ndarray:
    """The CIELAB rows, as an (n, 3) float64 array, of n HSL chips given
    as three arrays of valid HslColor fields.

    Row i is bit for bit srgb_to_lab(hsl_to_srgb(HslColor(h[i], s[i],
    l[i]))): the same operations run in the same order on whole arrays,
    and only the two powers go element by element (see _pow).
    """
    h, s, l = (np.asarray(v, dtype=np.float64) for v in (h, s, l))
    # hsl_to_srgb
    chroma = (1.0 - np.abs(2.0 * l - 1.0)) * s
    hp = h / 60.0
    x = chroma * (1.0 - np.abs(np.fmod(hp, 2.0) - 1.0))
    zero = np.zeros_like(x)
    sector = np.digitize(hp, (1.0, 2.0, 3.0, 4.0, 5.0))
    m = l - chroma / 2.0
    rgb = np.stack([
        np.choose(sector, (chroma, x, zero, zero, x, chroma)) + m,
        np.choose(sector, (x, chroma, chroma, x, zero, zero)) + m,
        np.choose(sector, (zero, zero, x, chroma, chroma, x)) + m,
    ])
    off = ~((0.0 <= rgb) & (rgb <= 1.0)).all(axis=0)
    if off.any():
        # hsl_to_srgb's min(1.0, max(0.0, v)), which turns -0.0 into 0.0
        v = rgb[:, off]
        v = np.where(v > 0.0, v, 0.0)
        rgb[:, off] = np.where(v < 1.0, v, 1.0)
    # srgb_to_lab
    lin = rgb / 12.92
    high = rgb > 0.04045
    lin[high] = _pow((rgb[high] + 0.055) / 1.055, 2.4)
    rl, gl, bl = lin
    t = np.stack([(row[0] * rl + row[1] * gl + row[2] * bl) / w
                  for row, w in zip(_SRGB_TO_XYZ, _WHITE)])
    f = _F_SLOPE * t + 4.0 / 29.0
    high = t > _DELTA_CUBED
    f[high] = _pow(t[high], 1.0 / 3.0)
    fx, fy, fz = f
    return np.column_stack(
        [116.0 * fy - 16.0, 500.0 * (fx - fy), 200.0 * (fy - fz)])


def lab_to_srgb(c: LabColor) -> SrgbColor:
    """Inverse CIELAB conversion, clamped to the sRGB gamut.

    Out-of-gamut inputs are clamped channel-wise; used for rendering,
    not for analysis.
    """
    fy = (c.l_star + 16.0) / 116.0
    fx = fy + c.a_star / 500.0
    fz = fy - c.b_star / 200.0
    x = _f_inv(fx) * _WHITE[0]
    y = _f_inv(fy) * _WHITE[1]
    z = _f_inv(fz) * _WHITE[2]
    # inverse of _SRGB_TO_XYZ
    rl = 3.2404548360 * x - 1.5371388501 * y - 0.4985315469 * z
    gl = -0.9692663899 * x + 1.8760109288 * y + 0.0415560823 * z
    bl = 0.0556434196 * x - 0.2040258543 * y + 1.0572251625 * z
    channels = tuple(
        min(1.0, max(0.0, _delinearize(min(1.0, max(0.0, u)))))
        for u in (rl, gl, bl)
    )
    return SrgbColor(*channels)
