"""Ingestion, normalization, cleaning and denotation building."""

import csv
import dataclasses
import io
import math
import re

import numpy as np
import pytest
from _regress_oracle import repeated_chip_subset
from _rounds_oracle import (
    clean_row,
    key_lab,
    lab_distance,
    oracle_chip_table,
    oracle_clean,
    oracle_ingest,
    oracle_read_clean_rounds,
    oracle_write_clean_rounds,
    rounds_from_rows,
    rounds_rows,
)
from hypothesis import HealthCheck, Phase, example, given, settings
from hypothesis import strategies as st

from colorlex import corpus
from colorlex.colorspace import (
    HslColor,
    LabColor,
    hsl_to_lab_array,
    hsl_to_srgb,
    srgb_to_lab,
)
from colorlex.corpus import (
    DEFAULT_SCHEMA,
    CleanRound,
    RawRound,
    RawRounds,
    RejectedRow,
    SchemaError,
    build_denotations,
    chip_key,
    clean,
    format_chip_key,
    ingest,
    normalize_utterance,
    read_clean_rounds,
    read_spellmap,
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

    def test_reject_check_leaves_out_the_value(self, tmp_path):
        path = tmp_path / "rows.csv"
        row = list(_mini_row())
        edits = [(3, "nan"), (4, 150), (1, "x"), (6, "abc"), (12, "maybe"),
                 (0, "g\t: 1"), (13, "s\tholds a tab or line break")]
        rows = [row[:k] + [v] + row[k + 1:] for k, v in edits] + [row[:5]]
        _write_quoted_csv(path, rows)
        _, rejects = ingest(path)
        assert [r.check for r in rejects] == [
            "hue outside [0, 360)",
            "saturation outside [0, 1]",
            "invalid literal for int() with base 10",
            "could not convert string to float",
            "not a boolean",
            "game_id holds a tab or line break",
            "speaker_id holds a tab or line break",
            "row width differs, header has 14",
        ]

    def test_missing_mapped_column_is_schema_error(self, tmp_path):
        path = tmp_path / "bad.csv"
        header = [c for c in _MINI_HEADER if c != "distractor2_l"]
        _write_csv(path, header, [])
        with pytest.raises(SchemaError, match="distractor2_l"):
            ingest(path)

    def test_unmapped_field_is_schema_error(self, tmp_path):
        path = tmp_path / "rows.csv"
        _write_csv(path, _MINI_HEADER, [_mini_row()])
        schema = {k: v for k, v in DEFAULT_SCHEMA.items() if k != "target_h"}
        with pytest.raises(SchemaError, match="'target_h'"):
            ingest(path, schema)

    def test_schema_renames_columns(self, tmp_path):
        path = tmp_path / "renamed.csv"
        header = ["msg" if c == "utterance" else c for c in _MINI_HEADER]
        _write_csv(path, header, [_mini_row()])
        schema = dict(DEFAULT_SCHEMA, utterance="msg")
        raw, rejects = ingest(path, schema)
        assert not rejects
        assert raw.utterances == ["blue"]

    def test_speaker_column_optional(self, tmp_path):
        path = tmp_path / "nospeaker.csv"
        header = [c for c in _MINI_HEADER if c != "speaker_id"]
        _write_csv(path, header, [_mini_row()[:-1]])
        schema = dict(DEFAULT_SCHEMA, speaker_id=None)
        raw, _ = ingest(path, schema)
        assert raw.speaker_ids == [""]
        assert [r.speaker_id for r in raw] == [None]

    def test_fraction_scale(self, tmp_path):
        path = tmp_path / "frac.csv"
        row = ("g1", 1, "blue", 230, 0.8, 0.5, 0, 0.8, 0.5, 60, 0.8, 0.5,
               "true", "s1")
        _write_csv(path, _MINI_HEADER, [row])
        raw, _ = ingest(path, hsl_scale="fraction")
        assert [r.target for r in raw] == [HslColor(230.0, 0.8, 0.5)]

    def test_hue_normalized(self, tmp_path):
        path = tmp_path / "hue.csv"
        _write_csv(path, _MINI_HEADER, [
            _mini_row(h=365), _mini_row(h=-10), _mini_row(h="-1e-20")])
        raw, rejects = ingest(path)
        assert not rejects
        hues = [r.target.h for r in raw]
        assert hues[0] == pytest.approx(5.0)
        assert hues[1] == pytest.approx(350.0)
        # wrapping a tiny negative hue rounds up to 360, which means 0
        assert hues[2] == 0.0
        assert rounds_rows(clean(raw))[2].target_key == (0, 80, 50)

    def test_repeated_column_uses_last_occurrence(self, tmp_path):
        path = tmp_path / "twice.csv"
        _write_csv(path, ("utterance",) + _MINI_HEADER,
                   [("very teal",) + _mini_row()])
        raw, rejects = ingest(path)
        assert not rejects
        assert raw.utterances == ["blue"]

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

    def test_byte_order_mark_ignored(self, tmp_path, fixture_corpus):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf" + fixture_corpus.csv.read_bytes())
        raw, rejects = ingest(path)
        want, want_rejects = ingest(fixture_corpus.csv)
        assert repr(list(raw)) == repr(list(want))
        assert rejects == want_rejects

    def test_deterministic(self, fixture_corpus):
        first, first_rejects = ingest(fixture_corpus.csv)
        second, second_rejects = ingest(fixture_corpus.csv)
        assert repr(list(first)) == repr(list(second))
        assert first_rejects == second_rejects

    def test_unknown_scale_rejected(self, fixture_corpus):
        with pytest.raises(ValueError):
            ingest(fixture_corpus.csv, hsl_scale="other")

    # A line past the first block of rows, which ingest has parsed by then.
    LATE_LINE = 2 + corpus._ROW_BLOCK + 500

    def _late_line_corpus(self, path, bad_line: bytes) -> None:
        """3,000 good rows, with bad_line in place of LATE_LINE."""
        _write_quoted_csv(path, [_mini_row(idx=i) for i in range(3000)])
        lines = path.read_bytes().splitlines(keepends=True)
        lines[self.LATE_LINE - 1] = bad_line
        path.write_bytes(b"".join(lines))

    def test_overlong_field_past_the_first_block_names_its_line(
            self, tmp_path):
        path = tmp_path / "long.csv"
        row = list(_mini_row())
        row[2] = "a" * (csv.field_size_limit() + 1)
        self._late_line_corpus(path, (
            ",".join(f'"{v}"' for v in row) + "\r\n").encode())
        with pytest.raises(SchemaError, match=re.escape(
                f"{path}:{self.LATE_LINE}: field larger than field limit")):
            ingest(path)

    def test_non_utf8_byte_past_the_first_block_names_its_line(
            self, tmp_path):
        path = tmp_path / "bytes.csv"
        row = ",".join(map(str, _mini_row())).encode()
        self._late_line_corpus(path, row.replace(b"blue", b"bl\xffue")
                               + b"\r\n")
        with pytest.raises(SchemaError, match=re.escape(
                f"{path}:{self.LATE_LINE}: not UTF-8: byte 0xff")):
            ingest(path)


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
            target, d1, d2 = (LabColor(*c) for c in (r.target, r.d1, r.d2))
            expected = min(lab_distance(target, d1),
                           lab_distance(target, d2))
            assert r.ease == expected

    def test_spellmap_rescues_typos(self, fixture_corpus):
        raw, _ = ingest(fixture_corpus.csv)
        plain = clean(raw)
        corrected = clean(raw, read_spellmap(fixture_corpus.spellmap))
        n_blue_plain = sum(1 for r in rounds_rows(plain) if r.word == "blue")
        n_blue_fixed = sum(1 for r in rounds_rows(corrected)
                           if r.word == "blue")
        assert n_blue_fixed > n_blue_plain
        assert "bleu" not in corrected.vocab


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
        rounds = clean(RawRounds.from_rows(
            [_raw_round(t, near, far), _raw_round(t, far, near)]))
        assert rounds.ease.tolist() == [want, want]


def _round_with(word, key, game="g1", idx=1):
    """A round with black and white distractors, its Lab and ease its
    keys'."""
    return clean_row(game, idx, "s1", word, key, (0, 0, 0), (0, 0, 100))


def _rounds(*rows):
    return rounds_from_rows(rows)


def _lab_of(key):
    c = key_lab(key)
    return (c.l_star, c.a_star, c.b_star)


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
        chips = build_denotations(rounds, 1)["blue"]
        assert chips.dtype == np.float64
        assert chips.tolist() == [list(_lab_of((1, 0, 0)))] * 2

    def test_counts_match_rounds(self, fixture_clean, fixture_denotations):
        for word, den in fixture_denotations.items():
            chips = [r.target for r in fixture_clean if r.word == word]
            # the word's chips, in row order
            assert den.shape == (len(chips), 3)
            assert list(map(tuple, den.tolist())) == chips

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

    @pytest.mark.parametrize("line", [
        "Blu blue",         # never looked up: tokens are lowercased first
        "blu Blue",         # makes a word no utterance could produce
        "blu blue-green",   # ... or one that tokenizing would split
        "bl-u blue",
        "blu blue_",
    ])
    def test_side_that_is_not_one_token_rejected(self, tmp_path, line):
        path = tmp_path / "map.txt"
        path.write_text("# comment\ngren green\n" + line + "\n")
        with pytest.raises(ValueError, match=r"map\.txt:3: .*one lowercase"):
            read_spellmap(path)

    def test_wrong_token_mapped_twice_rejected(self, tmp_path):
        path = tmp_path / "map.txt"
        path.write_text("bleu blue\ngren green\nbleu blau\n")
        with pytest.raises(ValueError, match=r"map\.txt:3: 'bleu' .*twice"):
            read_spellmap(path)

    def test_non_ascii_tokens_accepted(self, tmp_path):
        path = tmp_path / "map.txt"
        path.write_text("grün green\nbleu 蓝\n", encoding="utf-8")
        assert read_spellmap(path) == {"grün": "green", "bleu": "蓝"}


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
            fixture_clean)

    def test_hash_game_id_survives(self):
        # only lines before the column header are comments
        rounds = [_round_with("blue", (1, 2, 3), game="#g1"),
                  _round_with("teal", (4, 5, 6), game="g#2", idx=2)]
        buffer = io.StringIO()
        write_clean_rounds(buffer, _rounds(*rounds), "# header line")
        buffer.seek(0)
        assert rounds_rows(read_clean_rounds(buffer)) == rounds

    def test_missing_column_header_is_an_error(self):
        with pytest.raises(ValueError, match="column header"):
            read_clean_rounds(io.StringIO("# header line\n"))

    def test_wrong_width_is_an_error(self, fixture_rounds):
        buffer = io.StringIO()
        write_clean_rounds(buffer, fixture_rounds.take([0, 1]),
                           "# header line")
        lines = buffer.getvalue().splitlines(keepends=True)
        lines[-1] = lines[-1].rsplit("\t", 1)[0] + "\n"
        with pytest.raises(ValueError, match="6 fields, expected 7"):
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

# Spellings of numbers that int() or float() accepts or refuses, and
# the edges of the hue, saturation and lightness ranges.
_NUMBER_TEXT = st.sampled_from([
    " 12 ", "1_0", "nan", "inf", "1e400", "-1e-20", "12.5", "\u0663",
    "-0", "12345678901234567890", "-360", "360", "100", "1.0"])


def _rarely(usual, rare):
    """Draws of usual, and about one time in six of rare."""
    return st.builds(lambda k, u, r: r if k == 5 else u,
                     st.integers(0, 5), usual, rare)


# Rows with every field well formed except, possibly, the ids and the
# spelling of the numbers. Saturation and lightness are mostly
# fractions, which are in range under either hsl_scale.
_COLUMNS = {
    "game_id": _JUNK,
    "round_index": _rarely(st.integers(0, 60).map(str), _NUMBER_TEXT),
    "utterance": st.sampled_from(["blue", "BLUE!", " teal", "very blue", ""]),
    "listener_correct": st.sampled_from(["true", "1", "0", " No", "T"]),
    "speaker_id": _JUNK,
}
for _c in ("target", "distractor1", "distractor2"):
    _COLUMNS[f"{_c}_h"] = _rarely(st.integers(-400, 400).map(str),
                                  _NUMBER_TEXT)
    for _ch in "sl":
        _COLUMNS[f"{_c}_{_ch}"] = _rarely(
            st.floats(0.0, 1.0).map(repr),
            st.one_of(st.integers(0, 100).map(str), _NUMBER_TEXT))
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

# No shrink phase: shrinking a failing oracle property's rows can take
# minutes, while the unshrunk example is reported at once.
_NO_SHRINK = [phase for phase in Phase if phase is not Phase.shrink]
_PROPERTY = settings(
    derandomize=True, database=None, deadline=None, max_examples=100,
    phases=_NO_SHRINK,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def _csv_text(rows):
    buffer = io.StringIO(newline="")
    csv.writer(buffer).writerows(rows)
    return buffer.getvalue()


def _line_breaks(text):
    """Line ends as a newline="" file iterator sees them: CRLF, CR or LF."""
    return len(re.findall(r"\r\n|\r|\n", text))


# A row on the edges of the ranges: hues of -360, which wrap to -0.0,
# and full saturation and lightness.
_EDGE_ROW = ("g1", "1", "blue") + ("-360", "100", "100") * 3 + ("1", "s1")


def _edge_row(**fields):
    """_EDGE_ROW with the named fields replaced."""
    return tuple(fields.get(c, v) for c, v in zip(_MINI_HEADER, _EDGE_ROW))


# Rows that each fail two adjacent checks, so the reject reason shows
# which check comes first.
_TWO_FAULT_ROWS = [
    _edge_row(game_id="g\t1", speaker_id="s\n1"),
    _edge_row(speaker_id="s\t1", round_index="x"),
    _edge_row(round_index="x", target_h="x"),
    _edge_row(target_h="inf", target_l="x"),
    _edge_row(target_s="150", distractor1_h="x"),
    _edge_row(distractor2_l="150", listener_correct="maybe"),
]


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

    # Blocks of 1 to 3 rows put block edges between every kind of row:
    # rounds, rejects, quoted rows over several lines and blank lines.
    @pytest.mark.parametrize("block", [1, 2, 3])
    @_PROPERTY
    @given(rows=st.lists(st.one_of(_ID_ROWS, _ROWS, st.just(())),
                         max_size=8),
           scale=st.sampled_from(["percent", "fraction"]))
    @example(rows=[_EDGE_ROW, _EDGE_ROW[:3] + ("361", "0", "0") * 3
                   + _EDGE_ROW[-2:]], scale="percent")
    @example(rows=[_EDGE_ROW[:3] + ("-0", "1", "1.0") * 3
                   + _EDGE_ROW[-2:]], scale="fraction")
    @example(rows=_TWO_FAULT_ROWS, scale="percent")
    def test_equals_per_row_oracle(self, tmp_path, monkeypatch, block, rows,
                                   scale):
        monkeypatch.setattr(corpus, "_ROW_BLOCK", block)
        path = tmp_path / "rows.csv"
        _write_quoted_csv(path, rows)
        raw, rejects = ingest(path, hsl_scale=scale)
        want, want_rejects = oracle_ingest(path, hsl_scale=scale)
        # repr tells -0.0 from 0.0, which == does not
        assert repr(list(raw)) == repr(want)
        assert repr(rejects) == repr(want_rejects)
        assert repr(rounds_rows(clean(raw))) == repr(oracle_clean(want))

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
        assert rounds_rows(read_clean_rounds(buffer)) == rounds_rows(rounds)


# ------------------------------------------------- columnar clean rounds

# In-range chip keys: the bounds, and parts of one, two and three digits.
_CHIP_KEYS = st.tuples(*(
    st.one_of(st.sampled_from([0, 9, 10, 99, 100, top]),
              st.integers(0, top))
    for top in (359, 100, 100)))
# Ids and words hold "#", spaces and non-ASCII letters, never a tab or a
# line break (ingest rejects those, and words are single tokens).
_ID_TEXT = st.text(alphabet="ab#é蓝 -", max_size=5)

_CLEAN_ROUNDS = st.builds(
    clean_row,
    _ID_TEXT,
    st.integers(-10, 10**6),
    st.one_of(st.just(""), _ID_TEXT),
    st.one_of(st.sampled_from(["blue", "蓝", "bleu#", "é"]), _ID_TEXT),
    _CHIP_KEYS, _CHIP_KEYS, _CHIP_KEYS,
)


def _rounds_written(rounds) -> str:
    buffer = io.StringIO()
    write_clean_rounds(buffer, rounds, "# header line")
    return buffer.getvalue()


def _written(rows) -> str:
    buffer = io.StringIO()
    oracle_write_clean_rounds(buffer, rows, "# header line")
    return buffer.getvalue()


def _assert_reads_as_oracle(rows):
    text = _written(rows)
    rounds = read_clean_rounds(io.StringIO(text))
    got = rounds_rows(rounds)
    want = oracle_read_clean_rounds(io.StringIO(text))
    # repr tells -0.0 from 0.0 and shows NaN, which == does not
    assert repr(got) == repr(want)
    assert repr(got) == repr(rows)
    assert _rounds_written(rounds) == text
    backwards = list(range(len(rows)))[::-1]
    assert repr(rounds_rows(rounds.take(backwards))) == repr(rows[::-1])


_KEY_MESSAGE = ("{column}: expected h:s:l with 0 <= h < 360 and "
                "0 <= s, l <= 100, got {value!r}")
_MALFORMED_FIELDS = [
    (1, "1.5", "round_index: invalid literal for int()"),
    (4, "1:2", "target_key: expected h:s:l"),
    (4, "1:x:2", "target_key: expected h:s:l with 0 <= h < 360 and "
                 "0 <= s, l <= 100, got '1:x:2'"),
] + [
    # a distractor key is read like the target's: on every row, by
    # every stage
    (column, value, _KEY_MESSAGE.format(column=name, value=value))
    for column, name in ((5, "d1_key"), (6, "d2_key"))
    for value in ("", "x:y:z", "360:0:0", "1:101:0", "01:2:3")
]


def _assert_named_on_read(tmp_path, rows, column, value, message):
    """Set the field of the fourth row, on line 6, and read the table."""
    path = tmp_path / "clean_rounds.tsv"
    lines = _written(rows[:5]).splitlines(keepends=True)
    fields = lines[5].rstrip("\n").split("\t")
    fields[column] = value
    lines[5] = "\t".join(fields) + "\n"
    path.write_text("".join(lines), encoding="utf-8")
    with open(path, encoding="utf-8") as handle:
        with pytest.raises(ValueError,
                           match=re.escape(f"{path}:6: {message}")):
            read_clean_rounds(handle)


def _with_d1_key(tmp_path, rows, value):
    """The first five rows written with d1_key of the third row, on
    line 5, set to `value`."""
    path = tmp_path / "clean_rounds.tsv"
    lines = _written(rows[:5]).splitlines(keepends=True)
    fields = lines[4].rstrip("\n").split("\t")
    fields[5] = value
    lines[4] = "\t".join(fields) + "\n"
    path.write_text("".join(lines), encoding="utf-8")
    return path


class TestColumnarRead:
    @settings(derandomize=True, database=None, deadline=None,
              max_examples=200)
    @given(rows=st.lists(_CLEAN_ROUNDS, max_size=8))
    def test_equals_per_row_oracle(self, rows):
        _assert_reads_as_oracle(rows)

    # Blocks of 2 rows put block edges between the rows.
    @settings(derandomize=True, database=None, deadline=None,
              max_examples=200,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(rows=st.lists(_CLEAN_ROUNDS, max_size=8))
    def test_equals_per_row_oracle_in_blocks_of_2(self, monkeypatch, rows):
        monkeypatch.setattr(corpus, "_ROW_BLOCK", 2)
        _assert_reads_as_oracle(rows)

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

    def test_table_with_lab_columns_refused(self, fixture_clean):
        # the layout that stored Lab and ease beside the target key
        header = ("game_id\tround_index\tspeaker_id\tword\ttarget_key\t"
                  "ease\t" + "\t".join(f"{c}_{ch}" for c in
                                       ("target", "d1", "d2") for ch in "lab"))
        text = _written(fixture_clean[:2]).replace(
            "\t".join(corpus._CLEAN_COLUMNS), header)
        with pytest.raises(ValueError, match="no column header"):
            read_clean_rounds(io.StringIO(text))

    def test_lab_converted_on_first_access(self, fixture_clean):
        # A table's Lab is first accessed when it is read: read_clean_rounds
        # converts every key then, so the table holds plain arrays and
        # take gathers their rows.
        rounds = read_clean_rounds(io.StringIO(_written(fixture_clean)))
        assert {"target", "distractor1", "distractor2", "ease"} <= vars(
            rounds).keys()
        assert rounds.distractor1.tolist() == [
            list(row.d1) for row in fixture_clean]
        repeated_chip_subset(rounds)
        rows_picked = rounds.take([3, 1])
        assert rows_picked.distractor2.tolist() == [
            list(fixture_clean[3].d2), list(fixture_clean[1].d2)]
        assert rows_picked.ease.tolist() == [
            fixture_clean[3].ease, fixture_clean[1].ease]

    def test_malformed_lab_named_when_converted(self, tmp_path,
                                               fixture_clean):
        # A distractor's Lab is converted from its key on read, so a
        # malformed key is named there, whichever rows a stage takes.
        path = _with_d1_key(tmp_path, fixture_clean, "nanx")
        with open(path, encoding="utf-8") as handle:
            with pytest.raises(ValueError, match=re.escape(
                    f"{path}:5: "
                    + _KEY_MESSAGE.format(column="d1_key", value="nanx"))):
                read_clean_rounds(handle)

    # A key part beyond the grid's bounds, written as a float or as a
    # value that is not finite, is named when the key is converted.
    @pytest.mark.parametrize("value", ["1e200", "-500.0000000000001",
                                       "nan", "-inf"])
    def test_lab_outside_bound_named_when_converted(self, tmp_path,
                                                   fixture_clean, value):
        key = f"{value}:50:50"
        path = _with_d1_key(tmp_path, fixture_clean, key)
        with open(path, encoding="utf-8") as handle:
            with pytest.raises(ValueError, match=re.escape(
                    f"{path}:5: "
                    + _KEY_MESSAGE.format(column="d1_key", value=key))):
                read_clean_rounds(handle)

    @pytest.mark.parametrize("column, value, message", _MALFORMED_FIELDS)
    def test_malformed_field_named_on_read(self, tmp_path, fixture_clean,
                                           column, value, message):
        _assert_named_on_read(tmp_path, fixture_clean, column, value,
                              message)

    @pytest.mark.parametrize("column, value, message", _MALFORMED_FIELDS)
    def test_malformed_field_named_in_blocks_of_2(
            self, tmp_path, monkeypatch, fixture_clean, column, value,
            message):
        monkeypatch.setattr(corpus, "_ROW_BLOCK", 2)
        _assert_named_on_read(tmp_path, fixture_clean, column, value,
                              message)


def _clean_of_keys(keys) -> corpus.Rounds:
    """`clean` of one solved one-word round per key, each key's chip
    the target."""
    n = len(keys)
    target = np.array(keys, dtype=np.float64).reshape(-1, 3) / [1, 100, 100]
    return clean(RawRounds(
        game_ids=["g"] * n, round_indices=list(range(n)),
        utterances=["blue"] * n, speaker_ids=[""] * n,
        listener_correct=np.ones(n, dtype=bool), target=target,
        distractor1=target, distractor2=target))


class TestChipNumbering:
    """Chip keys numbered from their integer codes, against the per-key
    int() parse and lexsort of oracle_chip_table."""

    @pytest.mark.parametrize("block", [2, corpus._ROW_BLOCK])
    @settings(derandomize=True, database=None, deadline=None,
              max_examples=200,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(keys=st.lists(_CHIP_KEYS, max_size=12))
    def test_reader_and_clean_equal_oracle(self, monkeypatch, block, keys):
        monkeypatch.setattr(corpus, "_ROW_BLOCK", block)
        want_keys, want_ids = oracle_chip_table(list(map(format_chip_key,
                                                         keys)))
        text = _written([_round_with("blue", k, idx=i)
                         for i, k in enumerate(keys)])
        for rounds in (read_clean_rounds(io.StringIO(text)),
                       _clean_of_keys(keys)):
            assert rounds.chip_keys.dtype == np.int64
            assert rounds.chip_keys.shape == want_keys.shape
            assert rounds.chip_keys.tolist() == want_keys.tolist()
            assert rounds.chip_ids.tolist() == want_ids.tolist()

    # Keys that int() would parse, or that lie outside the grid: a
    # chip key is only ever what write_clean_rounds writes.
    @pytest.mark.parametrize("block", [2, corpus._ROW_BLOCK])
    @pytest.mark.parametrize("key", [
        "360:0:0", "0:101:0", "0:0:101", "-1:0:0", "+1:0:0", " 1:2:3",
        "1:2:3 ", "\u0663:0:0", "1_0:0:0", "0001:0:0", "01:0:0",
        "1::2", "1:2:3:4", "1:2", "", "1:2:3\x0b", "1000:0:0"])
    def test_not_a_chip_key_named_on_read(self, tmp_path, monkeypatch,
                                          fixture_clean, block, key):
        monkeypatch.setattr(corpus, "_ROW_BLOCK", block)
        _assert_named_on_read(
            tmp_path, fixture_clean, 4, key,
            f"target_key: expected h:s:l with 0 <= h < 360 and "
            f"0 <= s, l <= 100, got {key!r}")

    def test_first_bad_key_of_a_block_named(self, tmp_path, fixture_clean):
        path = tmp_path / "clean_rounds.tsv"
        lines = _written(fixture_clean[:5]).splitlines(keepends=True)
        for line, key in ((4, "1:2:x"), (6, "360:0:0")):
            fields = lines[line - 1].split("\t")
            fields[4] = key
            lines[line - 1] = "\t".join(fields)
        path.write_text("".join(lines), encoding="utf-8")
        with open(path, encoding="utf-8") as handle:
            with pytest.raises(ValueError, match=re.escape(
                    f"{path}:4: target_key: expected h:s:l with 0 <= h < 360 "
                    f"and 0 <= s, l <= 100, got '1:2:x'")):
                read_clean_rounds(handle)

    @pytest.mark.parametrize("edits, message", [
        # round_index before target_key, target_key before d1_key,
        # each whatever its line
        ({3: (1, "x"), 5: (4, "1:2")}, "{path}:3: round_index:"),
        ({3: (4, "1:2"), 5: (1, "x")}, "{path}:5: round_index:"),
        ({3: (5, "x"), 5: (4, "1:2")}, "{path}:5: target_key:"),
        ({3: (4, "1:2"), 5: (5, "x")}, "{path}:3: target_key:"),
    ])
    def test_block_checks_keep_their_order(self, tmp_path, fixture_clean,
                                           edits, message):
        path = tmp_path / "clean_rounds.tsv"
        lines = _written(fixture_clean[:5]).splitlines(keepends=True)
        for line, (column, value) in edits.items():
            fields = lines[line - 1].split("\t")
            fields[column] = value
            lines[line - 1] = "\t".join(fields)
        path.write_text("".join(lines), encoding="utf-8")
        with open(path, encoding="utf-8") as handle:
            with pytest.raises(ValueError, match=re.escape(
                    message.format(path=path))):
                read_clean_rounds(handle)


def _set(column, value):
    """An edit that sets one field of a line."""
    def edit(line):
        fields = line.split("\t")
        fields[column] = value
        return "\t".join(fields)
    return edit


class TestReadInBlocks:
    """read_clean_rounds at two rows per block. Six rows are on lines
    3 to 8, and blocks start on lines 3, 5 and 7."""

    @pytest.fixture(autouse=True)
    def blocks_of_2(self, monkeypatch):
        monkeypatch.setattr(corpus, "_ROW_BLOCK", 2)

    ROWS = [_round_with("blue", (10 * i, 50, 50), idx=i) for i in range(6)]

    @staticmethod
    def _read(tmp_path, text):
        path = tmp_path / "clean_rounds.tsv"
        path.write_text(text, encoding="utf-8")
        with open(path, encoding="utf-8") as handle:
            return path, read_clean_rounds(handle)

    @staticmethod
    def _edited(text, line, edit):
        """The text with `edit` applied to line `line` (1-based, without
        its line break)."""
        lines = text.split("\n")
        lines[line - 1] = edit(lines[line - 1])
        return "\n".join(lines)

    def _raises(self, tmp_path, text, message):
        path = tmp_path / "clean_rounds.tsv"
        with pytest.raises(ValueError, match=re.escape(
                message.format(path=path))):
            self._read(tmp_path, text)

    @pytest.mark.parametrize("line, edit, message", [
        (8, lambda s: s.rsplit("\t", 1)[0],
         "{path}:8: row has 6 fields, expected 7"),
        (7, _set(5, "x"), "{path}:7: d1_key: expected h:s:l"),
        # the line breaks of a 15-field row fall where those of two
        # 7-field rows would
        (7, lambda s: f"{s}\t{s}\tx", "{path}:7: row has 15 fields"),
        (8, lambda s: s + "\t", "{path}:8: row has 8 fields"),
    ])
    def test_bad_row_in_third_block_named_by_its_line(self, tmp_path, line,
                                                      edit, message):
        self._raises(tmp_path, self._edited(_written(self.ROWS), line, edit),
                     message)

    @pytest.mark.parametrize("n", [4, 5])
    def test_last_line_without_line_break(self, tmp_path, n):
        text = _written(self.ROWS[:n])
        _, rounds = self._read(tmp_path, text[:-1])
        assert rounds_rows(rounds) == self.ROWS[:n]

    def test_trailing_blank_line(self, tmp_path):
        self._raises(tmp_path, _written(self.ROWS) + "\n",
                     "{path}:9: row has 1 fields, expected 7")

    def test_data_row_starting_with_hash(self, tmp_path):
        rows = [r._replace(game_id="#g") if i in (2, 3) else r
                for i, r in enumerate(self.ROWS)]
        _, rounds = self._read(tmp_path, _written(rows))
        assert rounds_rows(rounds) == rows

    def test_column_header_below_extra_comment_lines(self, tmp_path):
        text = "# one\n# two\n" + self._edited(
            _written(self.ROWS), 6, lambda s: s.rsplit("\t", 1)[0])
        self._raises(tmp_path, text, "{path}:8: row has 6 fields")
        _, rounds = self._read(tmp_path, "# one\n# two\n"
                               + _written(self.ROWS))
        assert rounds_rows(rounds) == self.ROWS

    @pytest.mark.parametrize("text", [_written([]), _written([])[:-1]])
    def test_zero_rows(self, tmp_path, text):
        _, rounds = self._read(tmp_path, text)
        assert len(rounds) == 0
        assert rounds.chip_keys.shape == (0, 3)
        assert rounds.target.shape == (0, 3)
        assert rounds.take([]).distractor2.shape == (0, 3)

    def test_take_reads_across_blocks(self, tmp_path):
        _, rounds = self._read(tmp_path, _written(self.ROWS))
        picked = rounds.take([5, 0, 3, 3]).take([3, 0, 1])
        assert rounds_rows(picked) == [self.ROWS[i] for i in (3, 5, 0)]

    def test_take_counts_negative_positions_from_the_end(self, tmp_path):
        # the last of three blocks holds one row
        _, rounds = self._read(tmp_path, _written(self.ROWS[:5]))
        picked = rounds.take([-2, -5, 4])
        assert rounds_rows(picked) == [self.ROWS[i] for i in (3, 0, 4)]
        with pytest.raises(IndexError):
            rounds.take([-6])

    # The first bad block wins; within a block, a row of the wrong
    # width comes before a bad value.
    @pytest.mark.parametrize("edits, message", [
        # a bad d1_key in block 1, a short row in block 3
        ({3: _set(5, "x"), 8: lambda s: s.rsplit("\t", 1)[0]},
         "{path}:3: d1_key"),
        # a bad d1_key on the first line of block 2, a row of two rows'
        # fields on its second
        ({5: _set(5, "x"), 6: lambda s: f"{s}\t{s}"},
         "{path}:6: row has 14"),
        # a bad d2_key on the first line of block 3, a row of two rows'
        # fields on its second
        ({7: _set(6, "x"), 8: lambda s: f"{s}\t{s}"},
         "{path}:8: row has 14"),
        # a bad d2_key, the last field, in block 1
        ({3: _set(6, "x"), 8: lambda s: s.rsplit("\t", 1)[0]},
         "{path}:3: d2_key"),
    ])
    def test_error_order(self, tmp_path, edits, message):
        text = _written(self.ROWS)
        for line, edit in edits.items():
            text = self._edited(text, line, edit)
        self._raises(tmp_path, text, message)


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


class TestCleanOracle:
    @settings(derandomize=True, database=None, deadline=None,
              max_examples=300, phases=_NO_SHRINK)
    @given(raw=st.lists(_RAW_ROUNDS, max_size=8), spellmap=_SPELLMAPS)
    @example(raw=[], spellmap=None)
    def test_equals_per_row_oracle(self, raw, spellmap):
        rounds = clean(RawRounds.from_rows(raw), spellmap)
        want = oracle_clean(raw, spellmap)
        # repr tells -0.0 from 0.0, which == does not
        assert repr(rounds_rows(rounds)) == repr(want)
        text = _rounds_written(rounds)
        assert text == _written(want)
        # the table read back is the table, column for column
        again = read_clean_rounds(io.StringIO(text))
        assert repr(rounds_rows(again)) == repr(rounds_rows(rounds))
        assert again.vocab == rounds.vocab
        assert again.chip_keys.tolist() == rounds.chip_keys.tolist()
        assert again.chip_ids.tolist() == rounds.chip_ids.tolist()

    def test_iterates_as_clean_rounds(self, fixture_rounds):
        rows = [(r.game_id, r.round_index, r.speaker_id or "", r.word,
                 r.target_key, r.context_ease,
                 *((c.l_star, c.a_star, c.b_star)
                   for c in (r.target, *r.distractors)))
                for r in fixture_rounds]
        assert repr(rows) == repr([row[:5] + row[7:] for row in
                                   rounds_rows(fixture_rounds)])

    def test_fixture_corpus(self, fixture_corpus, fixture_rounds):
        raw, _ = ingest(fixture_corpus.csv)
        spellmap = read_spellmap(fixture_corpus.spellmap)
        for rounds, want in ((fixture_rounds, oracle_clean(raw)),
                             (clean(raw, spellmap),
                              oracle_clean(raw, spellmap))):
            assert repr(rounds_rows(rounds)) == repr(want)
            assert _rounds_written(rounds) == _written(want)

    def test_all_dropped(self):
        chip = HslColor(10.0, 0.5, 0.5)
        raw = [_raw_round(chip, chip, chip, correct=False),
               _raw_round(chip, chip, chip, utterance="very blue"),
               _raw_round(chip, chip, chip, utterance="!")]
        rounds = clean(RawRounds.from_rows(raw))
        assert len(rounds) == 0 and rounds_rows(rounds) == []
        assert rounds.vocab == ()
        assert rounds.chip_keys.shape == (0, 3)
        assert rounds.target.shape == rounds.distractor2.shape == (0, 3)
        assert _rounds_written(rounds) == _written([])


# The largest CIELAB distance between a chip and its grid point,
# 3.33493 at (219.5, 0.995, 0.505), a corner of the cell of 220:100:50.
# Measured with hsl_to_lab_array over the eight corners of every grid
# cell (each coordinate half a step, less 1e-9, from its grid point) and
# a 9 x 9 x 9 sweep of the 2,000 cells whose corners lie farthest: no
# point inside a cell lay farther than its farthest corner. Over 2
# million uniform random chips the median was 0.44 and the largest 2.97.
_GRID_DELTA_E = 3.335


def _lab_rows(lab) -> list:
    """An (n, 3) array's rows as tuples, for a repr that tells -0.0 from
    0.0."""
    return list(map(tuple, lab.tolist()))


def _grid_corpus(path, keys, scale):
    """A corpus of one solved one-word round per key, the key's chip the
    target and the next keys' chips the distractors, in hsl_scale
    `scale`."""
    def chip(key):
        h, s, l = key
        if scale == "fraction":
            return h, repr(s / 100), repr(l / 100)
        return h, s, l

    n = len(keys)
    _write_csv(path, _MINI_HEADER, [
        ("g1", i, "blue", *chip(keys[i]), *chip(keys[(i + 1) % n]),
         *chip(keys[(i + 2) % n]), "true", "s1") for i in range(n)])


def _cell_chip(key, offset) -> HslColor:
    """A chip of the grid cell of `key`, `offset` steps from its grid
    point in each coordinate (|offset| < 0.5)."""
    (h, s, l), (dh, ds, dl) = key, offset
    hue = (h + dh) % 360.0  # a tiny step below 0 rounds up to 360
    return HslColor(0.0 if hue == 360.0 else hue,
                    min(max((s + ds) / 100.0, 0.0), 1.0),
                    min(max((l + dl) / 100.0, 0.0), 1.0))


_OFFSETS = st.tuples(*[st.floats(-0.49, 0.49)] * 3)


class TestQuantization:
    """Every chip is its grid key: `clean` gives each chip its grid
    point's Lab, which is the chip's own on the grid."""

    @pytest.mark.parametrize("scale", ["percent", "fraction"])
    @settings(derandomize=True, database=None, deadline=None,
              max_examples=50,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(keys=st.lists(_CHIP_KEYS, min_size=1, max_size=12))
    def test_on_grid_chips_keep_their_own_lab(self, tmp_path, scale, keys):
        path = tmp_path / "grid.csv"
        _grid_corpus(path, keys, scale)
        raw, rejects = ingest(path, hsl_scale=scale)
        assert not rejects
        rounds = clean(raw)
        assert len(rounds) == len(keys)
        for chips, lab in ((raw.target, rounds.target),
                           (raw.distractor1, rounds.distractor1),
                           (raw.distractor2, rounds.distractor2)):
            assert repr(_lab_rows(lab)) == repr(
                _lab_rows(hsl_to_lab_array(*chips.T)))

    @settings(derandomize=True, database=None, deadline=None,
              max_examples=300)
    @given(chips=st.lists(_HSL, min_size=1, max_size=8))
    @example(chips=[HslColor(219.5, 0.995, 0.505)])
    def test_off_grid_chips_get_their_grid_points_lab(self, chips):
        raw = RawRounds.from_rows([_raw_round(c, c, c) for c in chips])
        rounds = clean(raw)
        grid = [_lab_of(chip_key(c)) for c in chips]
        for lab in (rounds.target, rounds.distractor1, rounds.distractor2):
            assert repr(_lab_rows(lab)) == repr(grid)
        own = hsl_to_lab_array(*raw.target.T)
        assert (np.sqrt(((own - rounds.target) ** 2).sum(axis=1))
                <= _GRID_DELTA_E).all()

    @settings(derandomize=True, database=None, deadline=None,
              max_examples=200)
    @given(key=_CHIP_KEYS, offsets=st.tuples(_OFFSETS, _OFFSETS))
    def test_one_key_one_lab(self, key, offsets):
        a, b = (_cell_chip(key, offset) for offset in offsets)
        rounds = clean(RawRounds.from_rows(
            [_raw_round(a, b, a, idx=1), _raw_round(b, a, b, idx=2)]))
        assert rounds.codes.tolist() == [[rounds.codes[0, 0]] * 3] * 2
        assert rounds.chip_keys.tolist() == [list(key)]
        rows = {lab.tobytes() for block in (
            rounds.target, rounds.distractor1, rounds.distractor2)
            for lab in block}
        assert rows == {np.array(_lab_of(key)).tobytes()}
        assert rounds.ease.tolist() == [0.0, 0.0]


class TestRawRounds:
    @settings(derandomize=True, database=None, deadline=None,
              max_examples=100)
    @given(raw=st.lists(_RAW_ROUNDS, max_size=8))
    def test_from_rows_iterates_as_the_rows(self, raw):
        table = RawRounds.from_rows(raw)
        assert len(table) == len(raw)
        assert repr(list(table)) == repr(raw)

    def test_zero_rows(self, tmp_path):
        path = tmp_path / "header.csv"
        _write_csv(path, _MINI_HEADER, [])
        raw, rejects = ingest(path)
        for table in (raw, RawRounds.from_rows([])):
            assert len(table) == 0 and list(table) == [] and not rejects
            assert table.listener_correct.shape == (0,)
            assert table.target.shape == table.distractor2.shape == (0, 3)
            assert len(clean(table)) == 0


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
