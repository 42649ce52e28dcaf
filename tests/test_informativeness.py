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


def _written(infos) -> io.StringIO:
    buffer = io.StringIO()
    write_word_infos(buffer, infos, "# h")
    buffer.seek(0)
    return buffer


def _table(*rows: str) -> io.StringIO:
    """A word-info table of the given tab-separated data rows."""
    return io.StringIO("# h\nword\tn_chips\tspread\ti_w\tsampled\n"
                       + "".join(row + "\n" for row in rows))


class TestSerialization:
    def test_round_trip(self, fixture_infos):
        ordered = sorted(
            fixture_infos.values(), key=lambda w: (-w.i_w, w.word)
        )
        back = read_word_infos(_written(ordered))
        assert list(back.values()) == ordered
        assert back == fixture_infos

    def test_floats_survive_exactly(self):
        info = WordInfo("w", 1.0 / 3.0, 300.0000000001, 7, True)
        assert read_word_infos(_written([info])) == {"w": info}

    def test_header_like_words_survive(self):
        infos = [WordInfo(w, 2.0, 50.0, 3, False)
                 for w in ("word", "#1", "blue")]
        assert list(read_word_infos(_written(infos)).values()) == infos

    @pytest.mark.parametrize("column", ["spread", "i_w"])
    @pytest.mark.parametrize("value", [0.0, -0.0, -2.0, 1e308, math.inf,
                                       math.nan])
    def test_value_outside_bounds_is_named(self, column, value):
        fields = {"spread": 2.0, "i_w": 50.0, column: value}
        buffer = _written([WordInfo("sky", 1.0, 100.0, 3, False),
                           WordInfo("blue", n_chips=3, sampled=False,
                                    **fields)])
        with pytest.raises(ValueError, match=re.escape(
                f"<table>:4: {column}: {value!r} outside (0, 1e+100]")):
            read_word_infos(buffer)

    # A value write_word_infos never writes: info scores words of at least
    # two chips, and writes sampled as 0 or 1.
    @pytest.mark.parametrize("column, text, reason", [
        ("n_chips", "1", "1 outside [2, inf]"),
        ("n_chips", "0", "0 outside [2, inf]"),
        ("n_chips", "-3", "-3 outside [2, inf]"),
        ("n_chips", "2.0", "invalid literal for int() with base 10: '2.0'"),
        ("n_chips", "1" * 25, "Python int too large to convert to C long"),
        ("sampled", "7", "7 outside [0, 1]"),
        ("sampled", "-1", "-1 outside [0, 1]"),
        ("sampled", "true",
         "invalid literal for int() with base 10: 'true'"),
        ("spread", "", "could not convert string to float: ''"),
        ("i_w", "x:y:z", "could not convert string to float: 'x:y:z'"),
    ])
    def test_malformed_value_names_line_and_column(self, column, text,
                                                   reason):
        fields = {"word": "blue", "n_chips": "3", "spread": "2.0",
                  "i_w": "50.0", "sampled": "0", column: text}
        buffer = _table("sky\t3\t1.0\t100.0\t1", "\t".join(fields.values()))
        with pytest.raises(ValueError) as caught:
            read_word_infos(buffer)
        assert str(caught.value) == f"<table>:4: {column}: {reason}"

    def test_bounds_are_read(self):
        assert read_word_infos(_table("blue\t2\t5e-324\t1e+100\t1")) == {
            "blue": WordInfo("blue", 5e-324, 1e100, 2, True)}

    @pytest.mark.parametrize("rows, line, earlier", [
        (["blue\t3\t2.0\t50.0\t0", "blue\t4\t2.0\t50.0\t0"], 4, 3),
        (["sky\t3\t2.0\t50.0\t0", "blue\t3\t2.0\t50.0\t0",
          "navy\t3\t2.0\t50.0\t0", "blue\t3\t2.0\t50.0\t0",
          "sky\t3\t2.0\t50.0\t0"], 6, 4),
        # the second listing in a later block than the first
        ([f"w{i}\t3\t2.0\t50.0\t0" for i in range(3000)]
         + ["w5\t3\t2.0\t50.0\t0"], 3003, 8),
        ([f"w{i}\t3\t2.0\t50.0\t0" for i in range(3000)]
         + ["w2999\t3\t2.0\t50.0\t0"], 3003, 3002),
    ])
    def test_repeated_word_names_both_lines(self, rows, line, earlier):
        word = rows[line - 3].split("\t")[0]
        with pytest.raises(ValueError) as caught:
            read_word_infos(_table(*rows))
        assert str(caught.value) == (
            f"<table>:{line}: word: {word!r} also on line {earlier}")

    def test_many_blocks_read_in_file_order(self):
        infos = [WordInfo(f"w{i}", 1.0 + i, 100.0 / (1.0 + i), 2 + i % 7,
                          i % 3 == 0) for i in range(5000)]
        assert list(read_word_infos(_written(infos)).values()) == infos

    @settings(derandomize=True, database=None)
    @given(infos=st.lists(st.builds(
        WordInfo,
        word=_WORDS,
        spread=_INFO_VALUE,
        i_w=_INFO_VALUE,
        n_chips=st.integers(2, 10**9),
        sampled=st.booleans(),
    ), max_size=8, unique_by=lambda info: info.word))
    def test_round_trip_property(self, infos):
        buffer = _written(infos)
        # read with universal newlines, as the stages open the file
        back = read_word_infos(io.StringIO(buffer.getvalue(), newline=None))
        assert list(back.values()) == infos
        assert list(back) == [info.word for info in infos]

    def test_missing_column_line_is_an_error(self):
        with pytest.raises(ValueError, match="column header"):
            read_word_infos(io.StringIO("# h\nblue\t3\t2.0\t50.0\t0\n"))

    def test_wrong_width_is_an_error(self):
        with pytest.raises(ValueError, match="<table>:3: row has 3 fields, "
                                             "expected 5"):
            read_word_infos(_table("blue\t3\t2.0"))


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
