"""Ingestion, normalization, cleaning and denotation building."""

import csv
import dataclasses
import io
import math
import re

import numpy as np
import pytest
from _rounds_oracle import (
    clean_rows,
    oracle_clean,
    oracle_read_clean_rounds,
    oracle_write_clean_rounds,
    rounds_rows,
)
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from colorlex.colorspace import (
    HslColor,
    LabColor,
    hsl_to_srgb,
    lab_distance,
    srgb_to_lab,
)
from colorlex.corpus import (
    DEFAULT_SCHEMA,
    CleanRound,
    RawRound,
    RejectedRow,
    Rounds,
    SchemaError,
    build_denotations,
    chip_key,
    clean,
    ingest,
    normalize_utterance,
    read_clean_rounds,
    read_spellmap,
    repeated_chip_subset,
    write_clean_rounds,
    write_rejects,
)


def _write_csv(path, header, rows):
    lines = [",".join(header)]
    lines.extend(",".join(str(v) for v in row) for row in rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


_MINI_HEADER = (
    "game_id", "round_index", "utterance",
    "target_h", "target_s", "target_l",
    "distractor1_h", "distractor1_s", "distractor1_l",
    "distractor2_h", "distractor2_s", "distractor2_l",
    "listener_correct", "speaker_id",
)


def _mini_row(word="blue", ok="true", h=230, game="g1", idx=1, speaker="s1"):
    return (game, idx, word, h, 80, 50, 0, 80, 50, 60, 80, 50, ok, speaker)


def _write_quoted_csv(path, rows, header=_MINI_HEADER):
    """Write rows as CSV, quoting fields that hold commas, quotes or breaks."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


class TestIngest:
    def test_fixture_counts_and_reject_lines(self, fixture_corpus):
        raw, rejects = ingest(fixture_corpus.csv)
        assert len(raw) == fixture_corpus.n_raw
        assert len(rejects) == fixture_corpus.n_rejects
        # malformed rows sit at the end of the file; line 1 is the header
        first_bad = fixture_corpus.n_raw + 2
        assert [r.line for r in rejects] == [
            first_bad, first_bad + 1, first_bad + 2, first_bad + 3
        ]
        reasons = " | ".join(r.reason for r in rejects)
        assert "saturation" in reasons
        assert "lightness" in reasons
        assert "boolean" in reasons

    def test_missing_mapped_column_is_schema_error(self, tmp_path):
        path = tmp_path / "bad.csv"
        header = [c for c in _MINI_HEADER if c != "distractor2_l"]
        _write_csv(path, header, [])
        with pytest.raises(SchemaError, match="distractor2_l"):
            ingest(path)

    def test_schema_renames_columns(self, tmp_path):
        path = tmp_path / "renamed.csv"
        header = ["msg" if c == "utterance" else c for c in _MINI_HEADER]
        _write_csv(path, header, [_mini_row()])
        schema = dict(DEFAULT_SCHEMA, utterance="msg")
        raw, rejects = ingest(path, schema)
        assert not rejects
        assert raw[0].utterance == "blue"

    def test_speaker_column_optional(self, tmp_path):
        path = tmp_path / "nospeaker.csv"
        header = [c for c in _MINI_HEADER if c != "speaker_id"]
        _write_csv(path, header, [_mini_row()[:-1]])
        schema = dict(DEFAULT_SCHEMA, speaker_id=None)
        raw, _ = ingest(path, schema)
        assert raw[0].speaker_id is None

    def test_fraction_scale(self, tmp_path):
        path = tmp_path / "frac.csv"
        row = ("g1", 1, "blue", 230, 0.8, 0.5, 0, 0.8, 0.5, 60, 0.8, 0.5,
               "true", "s1")
        _write_csv(path, _MINI_HEADER, [row])
        raw, _ = ingest(path, hsl_scale="fraction")
        assert raw[0].target == HslColor(230.0, 0.8, 0.5)

    def test_hue_normalized(self, tmp_path):
        path = tmp_path / "hue.csv"
        _write_csv(path, _MINI_HEADER, [
            _mini_row(h=365), _mini_row(h=-10), _mini_row(h="-1e-20")])
        raw, rejects = ingest(path)
        assert not rejects
        assert raw[0].target.h == pytest.approx(5.0)
        assert raw[1].target.h == pytest.approx(350.0)
        # wrapping a tiny negative hue rounds up to 360, which means 0
        assert raw[2].target.h == 0.0
        assert clean(raw)[2].target_key == (0, 80, 50)

    def test_repeated_column_uses_last_occurrence(self, tmp_path):
        path = tmp_path / "twice.csv"
        _write_csv(path, ("utterance",) + _MINI_HEADER,
                   [("very teal",) + _mini_row()])
        raw, rejects = ingest(path)
        assert not rejects
        assert raw[0].utterance == "blue"

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "blank.csv"
        rows = [",".join(str(v) for v in _mini_row(idx=i)) for i in (1, 2)]
        path.write_text(",".join(_MINI_HEADER) + "\n\n" + rows[0]
                        + "\n\n\n" + rows[1] + "\n", encoding="utf-8")
        raw, rejects = ingest(path)
        assert [r.round_index for r in raw] == [1, 2]
        assert not rejects

    def test_out_of_range_rejected_not_clamped(self, tmp_path):
        path = tmp_path / "range.csv"
        bad = ("g1", 1, "blue", 230, 101, 50, 0, 80, 50, 60, 80, 50,
               "true", "s1")
        _write_csv(path, _MINI_HEADER, [bad, _mini_row(idx=2)])
        raw, rejects = ingest(path)
        assert len(raw) == 1
        assert len(rejects) == 1
        assert rejects[0].line == 2

    def test_wrong_field_count_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        _write_csv(path, _MINI_HEADER, [
            ("g1", 1),
            _mini_row(idx=2),
            _mini_row(idx=3)[:-1],
            _mini_row(idx=4) + ("extra",),
            _mini_row(idx=5) + ("extra", "more"),
        ])
        raw, rejects = ingest(path)
        assert [r.round_index for r in raw] == [2]
        assert [(r.line, r.reason) for r in rejects] == [
            (2, "row has 2 fields, header has 14"),
            (4, "row has 13 fields, header has 14"),
            (5, "row has 15 fields, header has 14"),
            (6, "row has 16 fields, header has 14"),
        ]

    def test_reject_lines_count_file_lines(self, tmp_path):
        path = tmp_path / "multiline.csv"
        bad = ("g1", 2, "blue", 230, 180, 50, 0, 80, 50, 60, 80, 50,
               "true", "s1")
        # a quoted utterance spanning file lines 2-3, then a bad row on 4
        _write_quoted_csv(path, [_mini_row(word="light\nblue"), bad])
        raw, rejects = ingest(path)
        assert [r.utterance for r in raw] == ["light\nblue"]
        assert [r.line for r in rejects] == [4]

    def test_ids_with_tabs_or_line_breaks_rejected(self, tmp_path):
        path = tmp_path / "ids.csv"
        _write_quoted_csv(path, [
            _mini_row(idx=1),
            _mini_row(game="g\t2", idx=2),
            _mini_row(idx=3, speaker="s\n3"),
            _mini_row(game="g\r4", idx=4),
            _mini_row(idx=5, speaker=" s5\t"),
        ])
        raw, rejects = ingest(path)
        # surrounding whitespace is stripped before the check
        assert [(r.round_index, r.speaker_id) for r in raw] == \
            [(1, "s1"), (5, "s5")]
        assert [r.line for r in rejects] == [3, 5, 7]
        assert [r.reason.split()[0] for r in rejects] == \
            ["game_id", "speaker_id", "game_id"]
        assert all("tab or line break" in r.reason for r in rejects)

    def test_deterministic(self, fixture_corpus):
        first = ingest(fixture_corpus.csv)
        second = ingest(fixture_corpus.csv)
        assert first == second

    def test_unknown_scale_rejected(self, fixture_corpus):
        with pytest.raises(ValueError):
            ingest(fixture_corpus.csv, hsl_scale="other")


class TestNormalizeUtterance:
    def test_lowercase_and_punctuation(self):
        assert normalize_utterance("BLUE!") == ["blue"]

    def test_multiword(self):
        assert normalize_utterance("very blue") == ["very", "blue"]

    def test_separators_split(self):
        assert normalize_utterance("blue-green") == ["blue", "green"]
        assert normalize_utterance("blue_green / teal") == \
            ["blue", "green", "teal"]

    def test_empty(self):
        assert normalize_utterance("") == []
        assert normalize_utterance("  !? ") == []

    def test_spellmap_applies_per_token(self):
        assert normalize_utterance("bleu!", {"bleu": "blue"}) == ["blue"]
        assert normalize_utterance("very bleu", {"bleu": "blue"}) == \
            ["very", "blue"]


class TestClean:
    def test_keeps_single_token_successes_only(self, fixture_corpus,
                                               fixture_clean):
        raw, _ = ingest(fixture_corpus.csv)
        by_key = {(r.game_id, r.round_index): r for r in raw}
        assert fixture_clean
        for r in fixture_clean:
            source = by_key[(r.game_id, r.round_index)]
            assert source.listener_correct
            assert len(normalize_utterance(source.utterance)) == 1

    def test_normalization_applied(self, fixture_clean):
        # the hand-written "BLUE!" row must survive as plain "blue"
        special = [
            r for r in fixture_clean
            if r.game_id == "g21" and r.round_index == 1
        ]
        assert len(special) == 1
        assert special[0].word == "blue"
        assert special[0].target_key == (230, 80, 50)

    def test_multiword_and_empty_dropped(self, fixture_clean):
        dropped = {
            (r.game_id, r.round_index)
            for r in fixture_clean if r.game_id == "g21"
        }
        assert ("g21", 2) not in dropped
        assert ("g21", 3) not in dropped

    def test_context_ease_is_closest_distractor(self, fixture_clean):
        for r in fixture_clean[:50]:
            d1, d2 = r.distractors
            expected = min(lab_distance(r.target, d1),
                           lab_distance(r.target, d2))
            assert r.context_ease == expected

    def test_spellmap_rescues_typos(self, fixture_corpus):
        raw, _ = ingest(fixture_corpus.csv)
        plain = clean(raw)
        corrected = clean(raw, read_spellmap(fixture_corpus.spellmap))
        n_blue_plain = sum(1 for r in plain if r.word == "blue")
        n_blue_fixed = sum(1 for r in corrected if r.word == "blue")
        assert n_blue_fixed > n_blue_plain
        assert not any(r.word == "bleu" for r in corrected)


class TestChipKey:
    def test_quantizes_to_native_grid(self):
        assert chip_key(HslColor(230.0, 0.8, 0.5)) == (230, 80, 50)
        assert chip_key(HslColor(10.6, 0.81, 0.49)) == (11, 81, 49)

    def test_hue_wraps_after_rounding(self):
        assert chip_key(HslColor(359.7, 1.0, 0.5)) == (0, 100, 50)


def _raw_round(target, d1, d2, utterance="blue", correct=True,
               speaker="s1", game="g1", idx=1):
    return RawRound(game_id=game, round_index=idx, utterance=utterance,
                    target=target, distractor1=d1, distractor2=d2,
                    listener_correct=correct, speaker_id=speaker)


class TestContextEase:
    def test_takes_minimum(self):
        t = HslColor(0.0, 0.5, 0.5)
        near = HslColor(10.0, 0.5, 0.5)
        far = HslColor(200.0, 0.5, 0.5)
        lab = {c: srgb_to_lab(hsl_to_srgb(c)) for c in (t, near, far)}
        want = lab_distance(lab[t], lab[near])
        assert want < lab_distance(lab[t], lab[far])
        rounds = clean([_raw_round(t, near, far), _raw_round(t, far, near)])
        assert rounds.ease.tolist() == [want, want]


def _round_with(word, key, game="g1", idx=1):
    lab = LabColor(float(key[0]), float(key[1]), float(key[2]))
    return CleanRound(
        word=word,
        target=lab,
        distractors=(LabColor(0, 0, 0), LabColor(1, 1, 1)),
        context_ease=1.0,
        target_key=key,
        speaker_id="s1",
        game_id=game,
        round_index=idx,
    )


def _rounds(*rows):
    return Rounds.from_clean(rows)


class TestBuildDenotations:
    def test_threshold_boundary(self):
        rounds = _rounds(*(_round_with("blue", (i, 0, 0), idx=i)
                           for i in range(3)),
                         _round_with("teal", (9, 0, 0), idx=9))
        kept = build_denotations(rounds, 3)
        assert set(kept) == {"blue"}
        kept2 = build_denotations(rounds, 4)
        assert set(kept2) == set()

    def test_chips_are_a_multiset(self):
        rounds = _rounds(
            _round_with("blue", (1, 0, 0), idx=1),
            _round_with("blue", (1, 0, 0), idx=2),
        )
        den = build_denotations(rounds, 1)["blue"]
        assert den.chips.tolist() == [[1.0, 0.0, 0.0]] * 2

    def test_counts_match_rounds(self, fixture_clean, fixture_denotations):
        for word, den in fixture_denotations.items():
            chips = [(r.target.l_star, r.target.a_star, r.target.b_star)
                     for r in fixture_clean if r.word == word]
            # the word's chips, in row order
            assert den.chips.shape == (len(chips), 3)
            assert list(map(tuple, den.chips.tolist())) == chips

    def test_words_in_first_occurrence_order(self, fixture_clean,
                                             fixture_denotations):
        first = list(dict.fromkeys(r.word for r in fixture_clean))
        assert list(fixture_denotations) == [
            w for w in first if w in fixture_denotations]

    def test_subset_words_in_its_own_first_occurrence_order(self):
        rounds = _rounds(_round_with("blue", (1, 0, 0)),
                         _round_with("teal", (2, 0, 0)),
                         _round_with("blue", (3, 0, 0)))
        assert list(build_denotations(rounds.take([1, 2]), 1)) == [
            "teal", "blue"]

    def test_min_count_validated(self):
        with pytest.raises(ValueError):
            build_denotations(_rounds(), 0)


class TestRepeatedChipSubset:
    def test_small_example(self):
        rounds = _rounds(
            _round_with("blue", (1, 0, 0), idx=1),
            _round_with("teal", (1, 0, 0), idx=2),
            _round_with("blue", (2, 0, 0), idx=3),
        )
        subset = repeated_chip_subset(rounds)
        assert subset.round_indices == [1, 2]
        assert rounds_rows(subset) == rounds_rows(rounds)[:2]

    def test_fixture_subset(self, fixture_rounds):
        subset = repeated_chip_subset(fixture_rounds)
        assert 0 < len(subset) < len(fixture_rounds)
        counts = np.bincount(subset.chip_ids)
        assert counts[subset.chip_ids].min() >= 2


class TestSpellmapFile:
    def test_reads_pairs_and_comments(self, tmp_path):
        path = tmp_path / "map.txt"
        path.write_text("# comment\n\nbleu blue\ngren green\n")
        assert read_spellmap(path) == {"bleu": "blue", "gren": "green"}

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "map.txt"
        path.write_text("bleu blue extra\n")
        with pytest.raises(ValueError, match="map.txt:1"):
            read_spellmap(path)


class TestPublishedCorpus:
    def test_english_clean_count(self, english_corpus):
        n = len(english_corpus.rounds)
        assert abs(n - 16168) <= 0.03 * 16168


class TestSerialization:
    def test_clean_rounds_round_trip(self, fixture_rounds, fixture_clean):
        buffer = io.StringIO()
        write_clean_rounds(buffer, fixture_rounds, "# header line")
        buffer.seek(0)
        assert repr(rounds_rows(read_clean_rounds(buffer))) == repr(
            clean_rows(fixture_clean))

    def test_hash_game_id_survives(self):
        # only lines before the column header are comments
        rounds = [_round_with("blue", (1, 2, 3), game="#g1"),
                  _round_with("teal", (4, 5, 6), game="g#2", idx=2)]
        buffer = io.StringIO()
        write_clean_rounds(buffer, _rounds(*rounds), "# header line")
        buffer.seek(0)
        assert rounds_rows(read_clean_rounds(buffer)) == clean_rows(rounds)

    def test_missing_column_header_is_an_error(self):
        with pytest.raises(ValueError, match="column header"):
            read_clean_rounds(io.StringIO("# header line\n"))

    def test_wrong_width_is_an_error(self, fixture_rounds):
        buffer = io.StringIO()
        write_clean_rounds(buffer, fixture_rounds.take([0, 1]),
                           "# header line")
        lines = buffer.getvalue().splitlines(keepends=True)
        lines[-1] = lines[-1].rsplit("\t", 1)[0] + "\n"
        with pytest.raises(ValueError, match="14 fields, expected 15"):
            read_clean_rounds(io.StringIO("".join(lines)))

    def test_rejects_sanitized(self):
        buffer = io.StringIO()
        write_rejects(buffer, [RejectedRow(5, "bad\tvalue\nhere")], "# h")
        text = buffer.getvalue()
        assert "5\tbad value here" in text.splitlines()[-1]


# ------------------------------------------------------------ properties

# Few characters, but every one that matters to CSV, TSV or the comment
# syntax of the clean-rounds file.
_JUNK = st.text(alphabet='a1-. ,"#\t\r\n\x00é', max_size=6)

# Rows with every field well formed except, possibly, the ids.
_COLUMNS = {
    "game_id": _JUNK,
    "round_index": st.integers(0, 60).map(str),
    "utterance": st.sampled_from(["blue", "BLUE!", " teal", "very blue", ""]),
    "listener_correct": st.sampled_from(["true", "1", "0"]),
    "speaker_id": _JUNK,
}
for _c in ("target", "distractor1", "distractor2"):
    _COLUMNS[f"{_c}_h"] = st.integers(-400, 400).map(str)
    _COLUMNS[f"{_c}_s"] = st.integers(0, 100).map(str)
    _COLUMNS[f"{_c}_l"] = st.integers(0, 100).map(str)
_WIDTH = len(_MINI_HEADER)
_ID_ROWS = st.tuples(*(_COLUMNS[c] for c in _MINI_HEADER))


def _mangle(row, junk, width, extra):
    """Overwrite some fields with junk, then cut or pad the row."""
    row = list(row)
    for i, text in junk:
        row[i] = text
    return tuple(row[:width] + extra[:max(0, width - len(row))])


# Junk fields and missing or surplus fields mixed into those rows.
_ROWS = st.builds(
    _mangle,
    _ID_ROWS,
    st.lists(st.tuples(st.integers(0, _WIDTH - 1), _JUNK), max_size=2),
    st.one_of(st.just(_WIDTH), st.integers(1, _WIDTH + 2)),
    st.lists(_JUNK, min_size=2, max_size=2),
)

_PROPERTY = settings(
    derandomize=True, database=None, deadline=None, max_examples=100,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def _csv_text(rows):
    buffer = io.StringIO(newline="")
    csv.writer(buffer).writerows(rows)
    return buffer.getvalue()


def _line_breaks(text):
    """Line ends as a newline="" file iterator sees them: CRLF, CR or LF."""
    return len(re.findall(r"\r\n|\r|\n", text))


class TestIngestProperties:
    @_PROPERTY
    @given(rows=st.lists(_ROWS, max_size=6))
    def test_every_row_is_a_round_or_a_reject(self, tmp_path, rows):
        path = tmp_path / "rows.csv"
        _write_quoted_csv(path, rows)
        raw, rejects = ingest(path)
        assert len(raw) + len(rejects) == len(rows)
        # each reject names the file line its row ends on
        ends = set()
        line = 1
        for row in rows:
            line += _line_breaks(_csv_text([row]))
            ends.add(line)
        lines = [r.line for r in rejects]
        assert set(lines) <= ends
        assert lines == sorted(set(lines))

    @_PROPERTY
    @given(text=st.text(alphabet='a1,"\t\r\n\x00', max_size=60))
    def test_arbitrary_text_never_raises(self, tmp_path, text):
        path = tmp_path / "raw.csv"
        path.write_text(",".join(_MINI_HEADER) + "\n" + text,
                        encoding="utf-8", newline="")
        ingest(path)

    @_PROPERTY
    @given(rows=st.lists(_ID_ROWS, max_size=6))
    def test_clean_rounds_round_trip(self, tmp_path, rows):
        path = tmp_path / "rows.csv"
        _write_quoted_csv(path, rows)
        raw, _ = ingest(path)
        rounds = clean(raw)
        buffer = io.StringIO()
        write_clean_rounds(buffer, rounds, "# header line")
        buffer.seek(0)
        assert rounds_rows(read_clean_rounds(buffer)) == clean_rows(rounds)


# ------------------------------------------------- columnar clean rounds

_LAB_VALUE = st.one_of(
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     1e-310, float("inf"), -float("inf"), float("nan")]),
    st.floats(),
)
# Ids and words hold "#", spaces and non-ASCII letters, never a tab or a
# line break (ingest rejects those, and words are single tokens).
_ID_TEXT = st.text(alphabet="ab#é蓝 -", max_size=5)

_CLEAN_ROUNDS = st.builds(
    lambda game, idx, speaker, word, key, ease, lab: CleanRound(
        word=word,
        target=LabColor(*lab[0:3]),
        distractors=(LabColor(*lab[3:6]), LabColor(*lab[6:9])),
        context_ease=ease,
        target_key=key,
        speaker_id=speaker or None,
        game_id=game,
        round_index=idx,
    ),
    _ID_TEXT,
    st.integers(-10, 10**6),
    st.one_of(st.just(""), _ID_TEXT),
    st.one_of(st.sampled_from(["blue", "蓝", "bleu#", "é"]), _ID_TEXT),
    st.tuples(st.integers(-5, 400), st.integers(0, 100), st.integers(0, 100)),
    _LAB_VALUE,
    st.lists(_LAB_VALUE, min_size=9, max_size=9),
)


def _rounds_written(rounds) -> str:
    buffer = io.StringIO()
    write_clean_rounds(buffer, rounds, "# header line")
    return buffer.getvalue()


def _written(rows) -> str:
    return _rounds_written(Rounds.from_clean(rows))


class TestColumnarRead:
    @settings(derandomize=True, database=None, deadline=None,
              max_examples=200)
    @given(rows=st.lists(_CLEAN_ROUNDS, max_size=8))
    def test_equals_per_row_oracle(self, rows):
        text = _written(rows)
        got = rounds_rows(read_clean_rounds(io.StringIO(text)))
        want = clean_rows(oracle_read_clean_rounds(io.StringIO(text)))
        # repr tells -0.0 from 0.0 and shows NaN, which == does not
        assert repr(got) == repr(want)
        assert repr(got) == repr(clean_rows(rows))

    def test_zero_rows(self):
        rounds = read_clean_rounds(io.StringIO(_written([])))
        assert len(rounds) == 0
        assert rounds.vocab == ()
        assert rounds.chip_keys.shape == (0, 3)
        assert rounds.target.shape == (0, 3)
        assert rounds_rows(rounds) == []

    def test_chip_ids_sort_as_integer_triples(self):
        keys = [(100, 5, 5), (20, 50, 5), (9, 100, 100), (20, 50, 5)]
        rows = [_round_with("blue", k, idx=i) for i, k in enumerate(keys)]
        rounds = read_clean_rounds(io.StringIO(_written(rows)))
        # as strings "100:5:5" < "20:50:5" < "9:100:100"
        assert rounds.chip_keys.tolist() == [
            [9, 100, 100], [20, 50, 5], [100, 5, 5]]
        assert rounds.chip_ids.tolist() == [2, 1, 0, 1]

    def test_from_clean_equals_read(self, fixture_clean):
        read = read_clean_rounds(io.StringIO(_written(fixture_clean)))
        built = Rounds.from_clean(fixture_clean)
        assert rounds_rows(read) == rounds_rows(built)
        assert read.vocab == built.vocab
        assert read.chip_keys.tolist() == built.chip_keys.tolist()
        assert read.chip_ids.tolist() == built.chip_ids.tolist()

    def test_lab_converted_on_first_access(self, fixture_clean):
        rounds = read_clean_rounds(io.StringIO(_written(fixture_clean)))
        assert "target" not in vars(rounds)
        repeated_chip_subset(rounds)
        rows_picked = rounds.take([3, 1])
        assert "target" not in vars(rounds)
        assert rows_picked.distractor2.tolist() == [
            [c.l_star, c.a_star, c.b_star]
            for c in (fixture_clean[3].distractors[1],
                      fixture_clean[1].distractors[1])]
        assert "distractor2" not in vars(rounds)

    def test_malformed_lab_named_when_converted(self, tmp_path,
                                               fixture_clean):
        path = tmp_path / "clean_rounds.tsv"
        lines = _written(fixture_clean[:5]).splitlines(keepends=True)
        fields = lines[4].split("\t")
        fields[9] = "nanx"  # d1_l of the third row, on line 5
        lines[4] = "\t".join(fields)
        path.write_text("".join(lines), encoding="utf-8")
        with open(path, encoding="utf-8") as handle:
            rounds = read_clean_rounds(handle)
        assert rounds.target.shape == (5, 3)
        with pytest.raises(ValueError, match=re.escape(
                f"{path}:5: d1_l: could not convert string to float")):
            rounds.distractor1
        with pytest.raises(ValueError, match=re.escape(f"{path}:5: d1_l")):
            rounds.take([4, 2]).distractor1
        assert rounds.take([4, 1]).distractor1.shape == (2, 3)

    @pytest.mark.parametrize("column, value, message", [
        (5, "nanx", "ease: could not convert string to float"),
        (1, "1.5", "round_index: invalid literal for int()"),
        (4, "1:2", "target_key: expected h:s:l"),
        (4, "1:x:2", "target_key: invalid literal for int()"),
    ])
    def test_malformed_field_named_on_read(self, tmp_path, fixture_clean,
                                           column, value, message):
        path = tmp_path / "clean_rounds.tsv"
        lines = _written(fixture_clean[:5]).splitlines(keepends=True)
        fields = lines[5].split("\t")
        fields[column] = value
        lines[5] = "\t".join(fields)
        path.write_text("".join(lines), encoding="utf-8")
        with open(path, encoding="utf-8") as handle:
            with pytest.raises(ValueError,
                               match=re.escape(f"{path}:6: {message}")):
                read_clean_rounds(handle)


# ------------------------------------------------------ columnar clean

# Hues on and one ulp either side of the sector bounds 60·k, including
# the largest hue below 360; halves, which chip keys round to even.
_EDGE_HUES = [0.0, -0.0, 5e-324, 1e-310, 0.5, 2.5, 359.5] + [
    v for k in range(1, 7)
    for v in (math.nextafter(60.0 * k, -1.0), 60.0 * k,
              math.nextafter(60.0 * k, 361.0))
    if v < 360.0]
_EDGE_FRACTIONS = [0.0, -0.0, 5e-324, 1e-310, 2.2250738585072014e-308,
                   0.125, 0.5, math.nextafter(1.0, 0.0), 1.0]
_HSL = st.builds(
    HslColor,
    st.one_of(st.sampled_from(_EDGE_HUES),
              st.floats(0.0, 360.0, exclude_max=True)),
    st.one_of(st.sampled_from(_EDGE_FRACTIONS), st.floats(0.0, 1.0)),
    st.one_of(st.sampled_from(_EDGE_FRACTIONS), st.floats(0.0, 1.0)),
)
_UTTERANCES = ["blue", "BLUE!", "bleu", "gren", "teal", "very blue",
               "blue-green", "", " ?"]
_RAW_ROUNDS = st.builds(
    _raw_round, _HSL, _HSL, _HSL,
    utterance=st.sampled_from(_UTTERANCES),
    correct=st.booleans(),
    speaker=st.sampled_from([None, "s1", "s#2"]),
    game=st.sampled_from(["g1", "#g2", "g 3"]),
    idx=st.integers(0, 50),
)
_SPELLMAPS = st.one_of(st.none(), st.dictionaries(
    st.sampled_from(["bleu", "gren", "very", "blue"]),
    st.sampled_from(["blue", "green", "teal"])))


def _oracle_written(rows) -> str:
    buffer = io.StringIO()
    oracle_write_clean_rounds(buffer, rows, "# header line")
    return buffer.getvalue()


class TestCleanOracle:
    @settings(derandomize=True, database=None, deadline=None,
              max_examples=300)
    @given(raw=st.lists(_RAW_ROUNDS, max_size=8), spellmap=_SPELLMAPS)
    @example(raw=[], spellmap=None)
    def test_equals_per_row_oracle(self, raw, spellmap):
        rounds = clean(raw, spellmap)
        want = oracle_clean(raw, spellmap)
        # repr tells -0.0 from 0.0, which == does not
        assert repr(list(rounds)) == repr(want)
        assert _rounds_written(rounds) == _oracle_written(want)
        again = Rounds.from_clean(list(rounds))
        assert repr(rounds_rows(again)) == repr(rounds_rows(rounds))
        assert again.chip_keys.tolist() == rounds.chip_keys.tolist()
        assert again.chip_ids.tolist() == rounds.chip_ids.tolist()

    def test_fixture_corpus(self, fixture_corpus, fixture_rounds):
        raw, _ = ingest(fixture_corpus.csv)
        spellmap = read_spellmap(fixture_corpus.spellmap)
        for rounds, want in ((fixture_rounds, oracle_clean(raw)),
                             (clean(raw, spellmap),
                              oracle_clean(raw, spellmap))):
            assert repr(list(rounds)) == repr(want)
            assert _rounds_written(rounds) == _oracle_written(want)

    def test_all_dropped(self):
        chip = HslColor(10.0, 0.5, 0.5)
        raw = [_raw_round(chip, chip, chip, correct=False),
               _raw_round(chip, chip, chip, utterance="very blue"),
               _raw_round(chip, chip, chip, utterance="!")]
        rounds = clean(raw)
        assert len(rounds) == 0 and list(rounds) == []
        assert rounds.vocab == ()
        assert rounds.chip_keys.shape == (0, 3)
        assert rounds.target.shape == rounds.distractor2.shape == (0, 3)
        assert _rounds_written(rounds) == _oracle_written([])

    def test_rows_by_index(self, fixture_rounds, fixture_clean):
        assert fixture_rounds[0] == fixture_clean[0]
        assert fixture_rounds[-1] == fixture_clean[-1]
        with pytest.raises(IndexError):
            fixture_rounds[len(fixture_clean)]
        with pytest.raises(TypeError):
            fixture_rounds[0:2]


class TestSlots:
    def test_frozen_and_hashed_by_value(self):
        chip = HslColor(10.0, 0.5, 0.5)
        lab = LabColor(1.0, 2.0, 3.0)
        rows = [
            RawRound("g1", 1, "blue", chip, chip, chip, True, None),
            CleanRound("blue", lab, (lab, lab), 1.0, (10, 50, 50), None,
                       "g1", 1),
            RejectedRow(3, "bad"),
        ]
        for row in rows:
            copy = dataclasses.replace(row)
            assert copy == row and copy is not row
            assert hash(copy) == hash(row)
            assert not hasattr(row, "__dict__")
            field = dataclasses.fields(row)[0].name
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(row, field, None)


class TestInfiniteHue:
    @pytest.mark.parametrize("hue", ["inf", "-inf", "nan"])
    def test_reject_names_the_hue(self, tmp_path, hue):
        path = tmp_path / "hue.csv"
        _write_csv(path, _MINI_HEADER, [_mini_row(h=hue)])
        raw, rejects = ingest(path)
        assert not raw
        assert [r.reason for r in rejects] == [
            f"hue {float(hue)!r} outside [0, 360)"]
