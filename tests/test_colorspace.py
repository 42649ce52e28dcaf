"""Color conversions against independent oracles and basic geometry."""

import colorsys
import dataclasses
import math
import random

import numpy as np
import pytest
from _labref import srgb_to_lab_decimal
from _rounds_oracle import lab_distance, normalize_hue
from hypothesis import example, given, settings
from hypothesis import strategies as st

from colorlex.colorspace import (
    HslColor,
    LabColor,
    SrgbColor,
    hsl_to_lab_array,
    hsl_to_srgb,
    lab_to_srgb,
    srgb_to_lab,
)


def _random_srgb(rng: random.Random) -> SrgbColor:
    return SrgbColor(rng.random(), rng.random(), rng.random())


class TestHslToSrgb:
    def test_hand_computed_case(self):
        rgb = hsl_to_srgb(HslColor(210.0, 0.5, 0.4))
        assert rgb.r == pytest.approx(0.2, abs=1e-12)
        assert rgb.g == pytest.approx(0.4, abs=1e-12)
        assert rgb.b == pytest.approx(0.6, abs=1e-12)

    def test_primaries(self):
        assert hsl_to_srgb(HslColor(0.0, 1.0, 0.5)) == SrgbColor(1.0, 0.0, 0.0)
        green = hsl_to_srgb(HslColor(120.0, 1.0, 0.5))
        assert (green.r, green.g, green.b) == (0.0, 1.0, 0.0)

    def test_matches_stdlib_oracle(self):
        rng = random.Random(401)
        for _ in range(500):
            h = rng.uniform(0.0, 360.0) % 360.0
            s = rng.random()
            l = rng.random()
            ours = hsl_to_srgb(HslColor(h, s, l))
            # colorsys argument order is (h, lightness, saturation)
            r, g, b = colorsys.hls_to_rgb(h / 360.0, l, s)
            assert ours.r == pytest.approx(r, abs=1e-9)
            assert ours.g == pytest.approx(g, abs=1e-9)
            assert ours.b == pytest.approx(b, abs=1e-9)

    def test_integer_grid_stays_in_gamut(self):
        # At full saturation and these lightnesses the float arithmetic
        # lands about 1e-17 below zero for every hue; the channel is
        # clamped to the exact value 0.
        for l_pct in (1, 2, 3, 8, 15, 16, 17):
            for h in range(360):
                c = HslColor(float(h), 1.0, l_pct / 100.0)
                ours = hsl_to_srgb(c)
                ref = colorsys.hls_to_rgb(h / 360.0, c.l, 1.0)
                for v, r in zip((ours.r, ours.g, ours.b), ref):
                    assert 0.0 <= v <= 1.0
                    assert v == pytest.approx(r, abs=1e-12)
                assert min(ours.r, ours.g, ours.b) == 0.0
                srgb_to_lab(ours)

    def test_zero_saturation_is_gray(self):
        rgb = hsl_to_srgb(HslColor(123.0, 0.0, 0.37))
        assert rgb.r == rgb.g == rgb.b == pytest.approx(0.37)


class TestSrgbToLab:
    def test_white_and_black(self):
        white = srgb_to_lab(SrgbColor(1.0, 1.0, 1.0))
        assert white.l_star == pytest.approx(100.0, abs=1e-4)
        assert white.a_star == pytest.approx(0.0, abs=1e-4)
        assert white.b_star == pytest.approx(0.0, abs=1e-4)
        black = srgb_to_lab(SrgbColor(0.0, 0.0, 0.0))
        assert (black.l_star, black.a_star, black.b_star) == \
            pytest.approx((0.0, 0.0, 0.0), abs=1e-4)

    def test_red_frozen_value(self):
        red = srgb_to_lab(SrgbColor(1.0, 0.0, 0.0))
        assert red.l_star == pytest.approx(53.2408, abs=0.01)
        assert red.a_star == pytest.approx(80.0925, abs=0.01)
        assert red.b_star == pytest.approx(67.2032, abs=0.01)

    def test_conformance_against_skimage(self):
        skimage_color = pytest.importorskip(
            "skimage.color", reason="reference CIELAB oracle needs scikit-image"
        )
        rng = random.Random(402)
        worst = 0.0
        for _ in range(1000):
            c = _random_srgb(rng)
            ours = srgb_to_lab(c)
            ref = skimage_color.rgb2lab([[[c.r, c.g, c.b]]])[0][0]
            worst = max(
                worst,
                abs(ours.l_star - ref[0]),
                abs(ours.a_star - ref[1]),
                abs(ours.b_star - ref[2]),
            )
        assert worst <= 0.01

    def _assert_matches_decimal(self, c: SrgbColor):
        ours = srgb_to_lab(c)
        ref = srgb_to_lab_decimal(c.r, c.g, c.b)
        for got, want in zip((ours.l_star, ours.a_star, ours.b_star), ref):
            assert got == pytest.approx(want, rel=0, abs=1e-9)

    def test_matches_decimal_oracle(self):
        rng = random.Random(404)
        for _ in range(1000):
            self._assert_matches_decimal(_random_srgb(rng))

    def test_grid_chips_match_decimal_oracle(self):
        # the 2,520 integer-grid chips whose channels hsl_to_srgb clamps
        for l_pct in (1, 2, 3, 8, 15, 16, 17):
            for h in range(360):
                c = HslColor(float(h), 1.0, l_pct / 100.0)
                self._assert_matches_decimal(hsl_to_srgb(c))

    def test_gray_axis_has_no_chroma(self):
        for v in (0.1, 0.33, 0.5, 0.78, 0.95):
            lab = srgb_to_lab(SrgbColor(v, v, v))
            assert lab.a_star == pytest.approx(0.0, abs=1e-6)
            assert lab.b_star == pytest.approx(0.0, abs=1e-6)

    def test_round_trip(self):
        rng = random.Random(403)
        for _ in range(200):
            c = _random_srgb(rng)
            back = lab_to_srgb(srgb_to_lab(c))
            assert back.r == pytest.approx(c.r, abs=1e-6)
            assert back.g == pytest.approx(c.g, abs=1e-6)
            assert back.b == pytest.approx(c.b, abs=1e-6)

    def test_out_of_gamut_clamped(self):
        rgb = lab_to_srgb(LabColor(50.0, 200.0, -200.0))
        for v in (rgb.r, rgb.g, rgb.b):
            assert 0.0 <= v <= 1.0


def _assert_batch_bits(chips):
    """hsl_to_lab_array equals the scalar path bit for bit on chips."""
    got = hsl_to_lab_array([c.h for c in chips], [c.s for c in chips],
                           [c.l for c in chips])
    want = np.array([
        (lab.l_star, lab.a_star, lab.b_star)
        for lab in (srgb_to_lab(hsl_to_srgb(c)) for c in chips)
    ], dtype=np.float64).reshape(-1, 3)
    assert got.shape == want.shape
    bad = np.flatnonzero(
        (got.view(np.uint64) != want.view(np.uint64)).any(axis=1))
    assert bad.size == 0, [(chips[i], got[i], want[i]) for i in bad[:3]]


class TestHslToLabArray:
    def test_clamped_grid_chips(self):
        # the 2,520 integer-grid chips whose channels hsl_to_srgb clamps
        _assert_batch_bits([HslColor(float(h), 1.0, l_pct / 100.0)
                            for l_pct in (1, 2, 3, 8, 15, 16, 17)
                            for h in range(360)])

    def test_sector_boundaries(self):
        hues = [v for k in range(7)
                for v in (math.nextafter(60.0 * k, -1.0), 60.0 * k,
                          math.nextafter(60.0 * k, 361.0))
                if 0.0 <= v < 360.0]
        fractions = (0.0, 0.01, 0.37, 0.5, 0.93, 1.0)
        _assert_batch_bits([HslColor(h, s, l) for h in hues
                            for s in fractions for l in fractions])

    def test_hue_just_below_360(self):
        # the largest valid hue; h / 60 is the largest double below 6.0
        h = 359.99999999999994
        assert h == math.nextafter(360.0, 0.0)
        assert h / 60.0 == math.nextafter(6.0, 0.0)
        _assert_batch_bits([HslColor(h, s, l) for s in (0.2, 1.0)
                            for l in (0.05, 0.5, 0.95)])

    def test_signed_zeros_and_subnormals(self):
        values = (0.0, -0.0, 5e-324, 1e-310)
        chips = [HslColor(h, s, l) for h in values for s in values
                 for l in values + (0.5, 1.0)]
        _assert_batch_bits(chips)

    def test_seeded_sample(self):
        rng = np.random.default_rng(405)
        h, s, l = (rng.uniform(0.0, 360.0, 10_000) % 360.0,
                   rng.random(10_000), rng.random(10_000))
        _assert_batch_bits([HslColor(*c) for c in zip(
            h.tolist(), s.tolist(), l.tolist())])

    def test_empty(self):
        assert hsl_to_lab_array([], [], []).shape == (0, 3)


class TestSlots:
    @pytest.mark.parametrize("color", [
        HslColor(10.0, 0.5, 0.5), SrgbColor(0.1, 0.2, 0.3),
        LabColor(50.0, -1.0, 2.0)])
    def test_frozen_and_hashed_by_value(self, color):
        copy = dataclasses.replace(color)
        assert copy == color and copy is not color
        assert hash(copy) == hash(color)
        assert len({color, copy}) == 1
        assert not hasattr(color, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(color, dataclasses.fields(color)[0].name, 0.0)


class TestLabDistance:
    def test_known_distance(self):
        a = LabColor(0.0, 0.0, 0.0)
        b = LabColor(3.0, 4.0, 0.0)
        assert lab_distance(a, b) == 5.0

    def test_metric_properties(self):
        rng = random.Random(404)
        pts = [
            LabColor(rng.uniform(0, 100), rng.uniform(-80, 80),
                     rng.uniform(-80, 80))
            for _ in range(30)
        ]
        for a in pts[:10]:
            assert lab_distance(a, a) == 0.0
        for a, b, c in zip(pts, pts[10:], pts[20:]):
            assert lab_distance(a, b) == lab_distance(b, a)
            assert (
                lab_distance(a, c)
                <= lab_distance(a, b) + lab_distance(b, c) + 1e-12
            )


class TestValidation:
    def test_hue_domain(self):
        with pytest.raises(ValueError):
            HslColor(360.0, 0.5, 0.5)
        with pytest.raises(ValueError):
            HslColor(-1.0, 0.5, 0.5)

    def test_fraction_domains(self):
        with pytest.raises(ValueError):
            HslColor(0.0, 1.5, 0.5)
        with pytest.raises(ValueError):
            SrgbColor(1.2, 0.0, 0.0)

    def test_normalize_hue(self):
        assert normalize_hue(360.0) == 0.0
        assert normalize_hue(-30.0) == 330.0
        assert normalize_hue(725.0) == pytest.approx(5.0)
        assert normalize_hue(123.4) == pytest.approx(123.4)

    @settings(derandomize=True, database=None)
    @given(h=st.floats(allow_nan=False, allow_infinity=False))
    @example(h=-1e-20)
    def test_normalize_hue_stays_below_360(self, h):
        wrapped = normalize_hue(h)
        assert 0.0 <= wrapped < 360.0
        HslColor(wrapped, 0.5, 0.5)
