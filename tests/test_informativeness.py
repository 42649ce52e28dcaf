"""Spread and informativeness: exact values, sampling, serialization."""

import io
import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colorlex.informativeness import (
    _INFO_LIMIT,
    SCALE,
    DegenerateDenotationError,
    InsufficientDenotationError,
    SamplingConfig,
    WordInfo,
    compute_word_infos,
    derive_seed,
    informativeness,
    read_word_infos,
    spread,
    write_word_infos,
)


def _lab(*triples):
    return np.array(triples, dtype=np.float64)


class TestSpread:
    def test_two_points(self):
        assert spread(_lab((0, 0, 0), (3, 4, 0))) == 5.0

    def test_collinear_three_points(self):
        # ordered-pair distances: 3, 6, 3 twice each -> 24 / 6 = 4
        chips = _lab((0, 0, 0), (3, 0, 0), (6, 0, 0))
        assert spread(chips) == pytest.approx(4.0, abs=1e-12)

    def test_accepts_arrays(self):
        pts = np.array([[0.0, 0.0, 0.0], [5.0, 0.0, 0.0]])
        assert spread(pts) == 5.0

    def test_scales_linearly(self):
        rng = random.Random(601)
        pts = np.array(
            [[rng.uniform(0, 100) for _ in range(3)] for _ in range(40)]
        )
        assert spread(pts * 3.0) == pytest.approx(3.0 * spread(pts),
                                                  rel=1e-12)

    def test_single_chip_rejected(self):
        with pytest.raises(InsufficientDenotationError):
            spread(_lab((1, 2, 3)))

    def test_identical_chips_rejected(self):
        with pytest.raises(DegenerateDenotationError):
            spread(_lab((1, 2, 3), (1, 2, 3), (1, 2, 3)))

    def test_permutation_stable(self):
        rng = random.Random(602)
        pts = [[rng.uniform(0, 100) for _ in range(3)] for _ in range(30)]
        base = spread(np.array(pts))
        shuffled = list(pts)
        rng.shuffle(shuffled)
        assert spread(np.array(shuffled)) == pytest.approx(base, rel=1e-12)

    def test_wider_cloud_spreads_more(self):
        rng = np.random.default_rng(603)
        small = rng.uniform(0, 10, size=(50, 3))
        large = rng.uniform(0, 50, size=(50, 3))
        assert spread(small) < spread(large)


class TestInformativeness:
    def test_reciprocal_scaling(self):
        info = informativeness(_lab((0, 0, 0), (50, 0, 0)), SamplingConfig())
        assert info.i_w == SCALE / 50.0
        assert info.spread == 50.0
        assert not info.sampled
        assert info.n_chips == 2

    def test_exact_path_identity(self):
        rng = random.Random(604)
        chips = np.array(
            [[rng.uniform(0, 100) for _ in range(3)] for _ in range(60)]
        )
        info = informativeness(chips, SamplingConfig())
        assert info.i_w == SCALE / info.spread

    def test_sampled_path_close_to_exact(self):
        rng = np.random.default_rng(605)
        chips = rng.uniform(0, 100, size=(150, 3))
        exact = informativeness(chips, SamplingConfig(max_exact=200),
                                word="w")
        sampled = informativeness(chips, SamplingConfig(), word="w")
        assert sampled.sampled
        assert sampled.n_chips == 150
        assert abs(sampled.i_w - exact.i_w) / exact.i_w <= 0.05

    def test_sampling_deterministic(self):
        rng = np.random.default_rng(606)
        chips = rng.uniform(0, 100, size=(130, 3))
        cfg = SamplingConfig(seed=9)
        a = informativeness(chips, cfg, word="teal")
        b = informativeness(chips, cfg, word="teal")
        assert a == b

    def test_sampling_keyed_by_word_and_seed(self):
        rng = np.random.default_rng(607)
        chips = rng.uniform(0, 100, size=(130, 3))
        base = informativeness(chips, SamplingConfig(seed=1), word="teal")
        other_word = informativeness(chips, SamplingConfig(seed=1), word="sky")
        other_seed = informativeness(chips, SamplingConfig(seed=2),
                                     word="teal")
        assert base.i_w != other_word.i_w
        assert base.i_w != other_seed.i_w

    def test_order_independent_across_words(self):
        rng = np.random.default_rng(608)
        chips_a = rng.uniform(0, 100, size=(120, 3))
        chips_b = rng.uniform(0, 100, size=(140, 3))
        cfg = SamplingConfig(seed=4)
        forward = compute_word_infos({"a": chips_a, "b": chips_b}, cfg)
        backward = compute_word_infos({"b": chips_b, "a": chips_a}, cfg)
        assert forward["a"] == backward["a"]
        assert forward["b"] == backward["b"]

    def test_one_chip_names_the_word(self):
        with pytest.raises(InsufficientDenotationError, match=re.escape(
                "word 'mauve' (1 chips): need at least 2 chips, got 1")):
            informativeness(_lab((1, 2, 3)), SamplingConfig(), word="mauve")

    def test_identical_chips_name_the_word(self):
        chips = _lab(*[(1, 2, 3)] * 10)
        with pytest.raises(DegenerateDenotationError, match=re.escape(
                "word 'purpel' (10 chips): all chips identical")):
            informativeness(chips, SamplingConfig(), word="purpel")

    def test_identical_subsample_names_the_word_and_sample(self):
        # one distinct chip among 150: a third of the subsamples miss it
        chips = _lab(*[(1, 2, 3)] * 149, (4, 5, 6))
        cfg = SamplingConfig(seed=3)
        rng = np.random.default_rng(derive_seed(cfg.seed, "grey"))
        first = next(
            k for k in range(1, cfg.iterations + 1)
            if 149 not in rng.choice(150, size=cfg.sample_size,
                                     replace=False))
        with pytest.raises(DegenerateDenotationError, match=re.escape(
                f"word 'grey' (150 chips, subsample {first} of 30): "
                f"all chips identical")):
            informativeness(chips, cfg, word="grey")

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SamplingConfig(sample_size=200, max_exact=100)
        with pytest.raises(ValueError):
            SamplingConfig(iterations=0)
        with pytest.raises(ValueError):
            SamplingConfig(seed=-1)
        with pytest.raises(ValueError):
            SamplingConfig(max_exact=1)

    def test_derive_seed_stable_and_distinct(self):
        assert derive_seed(0, "blue") == derive_seed(0, "blue")
        assert derive_seed(0, "blue") != derive_seed(0, "green")
        assert derive_seed(0, "blue") != derive_seed(1, "blue")


# Any text without a tab or line break; "#" and the letters of "word"
# are drawn often, so words that look like comments or the column line
# come up.
_WORDS = st.text(st.one_of(
    st.sampled_from("#word"),
    st.characters(exclude_characters="\t\r\n"),
))


# The spreads and i_w values the reader takes, the bound included.
_INFO_VALUE = st.one_of(
    st.sampled_from([5e-324, _INFO_LIMIT]),
    st.floats(0.0, _INFO_LIMIT, exclude_min=True),
)


class TestSerialization:
    def test_round_trip(self, fixture_infos):
        buffer = io.StringIO()
        ordered = sorted(
            fixture_infos.values(), key=lambda w: (-w.i_w, w.word)
        )
        write_word_infos(buffer, ordered, "# test header")
        buffer.seek(0)
        back = read_word_infos(buffer)
        assert back == ordered

    def test_floats_survive_exactly(self):
        info = WordInfo("w", 1.0 / 3.0, 300.0000000001, 7, True)
        buffer = io.StringIO()
        write_word_infos(buffer, [info], "# h")
        buffer.seek(0)
        assert read_word_infos(buffer) == [info]

    def test_header_like_words_survive(self):
        infos = [WordInfo(w, 2.0, 50.0, 3, False)
                 for w in ("word", "#1", "blue")]
        buffer = io.StringIO()
        write_word_infos(buffer, infos, "# h")
        buffer.seek(0)
        assert read_word_infos(buffer) == infos

    @pytest.mark.parametrize("column", ["spread", "i_w"])
    @pytest.mark.parametrize("value", [0.0, -0.0, -2.0, 1e308, math.inf,
                                       math.nan])
    def test_value_outside_bounds_is_named(self, column, value):
        fields = {"spread": 2.0, "i_w": 50.0, column: value}
        buffer = io.StringIO()
        write_word_infos(buffer, [WordInfo("sky", 1.0, 100.0, 3, False),
                                  WordInfo("blue", n_chips=3, sampled=False,
                                           **fields)], "# h")
        buffer.seek(0)
        with pytest.raises(ValueError, match=re.escape(
                f"<table>:4: {column}: {value!r} outside (0, 1e+100]")):
            read_word_infos(buffer)

    @settings(derandomize=True, database=None)
    @given(infos=st.lists(st.builds(
        WordInfo,
        word=_WORDS,
        spread=_INFO_VALUE,
        i_w=_INFO_VALUE,
        n_chips=st.integers(0, 10**9),
        sampled=st.booleans(),
    ), max_size=8))
    def test_round_trip_property(self, infos):
        buffer = io.StringIO()
        write_word_infos(buffer, infos, "# h")
        # read with universal newlines, as the stages open the file
        back = read_word_infos(io.StringIO(buffer.getvalue(), newline=None))
        assert back == infos

    def test_missing_column_line_is_an_error(self):
        with pytest.raises(ValueError, match="column header"):
            read_word_infos(io.StringIO("# h\nblue\t3\t2.0\t50.0\t0\n"))

    def test_wrong_width_is_an_error(self):
        text = "# h\nword\tn_chips\tspread\ti_w\tsampled\nblue\t3\t2.0\n"
        with pytest.raises(ValueError, match="3 fields, expected 5"):
            read_word_infos(io.StringIO(text))


class TestFixtureCorpusInfos:
    def test_threshold_applied(self, fixture_denotations, fixture_corpus):
        for chips in fixture_denotations.values():
            assert len(chips) >= fixture_corpus.min_count

    def test_every_word_scored(self, fixture_denotations, fixture_infos):
        assert set(fixture_infos) == set(fixture_denotations)
        for info in fixture_infos.values():
            assert info.i_w > 0.0
            assert math.isfinite(info.i_w)

    def test_specific_words_beat_their_generals(self, fixture_infos):
        # narrow nested regions must be more informative than the broad
        # regions that contain them
        for specific, general in [
            ("sky", "blue"), ("navy", "blue"),
            ("lime", "green"), ("forest", "green"),
            ("violet", "purple"), ("plum", "purple"),
            ("gold", "yellow"), ("rust", "orange"),
        ]:
            assert fixture_infos[specific].i_w > fixture_infos[general].i_w


class TestPublishedCorpus:
    def test_narrow_english_words_outrank_broad_ones(self, english_corpus):
        infos = english_corpus.infos
        for narrow in ("olive", "cyan", "lavender"):
            for broad in ("blue", "purple", "green"):
                assert infos[narrow].i_w > infos[broad].i_w, \
                    f"{narrow} vs {broad}"
