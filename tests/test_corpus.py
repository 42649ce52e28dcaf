"""Ingestion, normalization, cleaning and denotation building."""

import io

import pytest

from colorlex.colorspace import HslColor, LabColor, lab_distance
from colorlex.corpus import (
    DEFAULT_SCHEMA,
    CleanRound,
    RawRound,
    SchemaError,
    build_denotations,
    chip_key,
    clean,
    context_ease,
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


def _mini_row(word="blue", ok="true", h=230, game="g1", idx=1):
    return (game, idx, word, h, 80, 50, 0, 80, 50, 60, 80, 50, ok, "s1")


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
        _write_csv(path, _MINI_HEADER, [_mini_row(h=365), _mini_row(h=-10)])
        raw, rejects = ingest(path)
        assert not rejects
        assert raw[0].target.h == pytest.approx(5.0)
        assert raw[1].target.h == pytest.approx(350.0)

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
                                               fixture_rounds):
        raw, _ = ingest(fixture_corpus.csv)
        by_key = {(r.game_id, r.round_index): r for r in raw}
        assert fixture_rounds
        for r in fixture_rounds:
            source = by_key[(r.game_id, r.round_index)]
            assert source.listener_correct
            assert len(normalize_utterance(source.utterance)) == 1

    def test_normalization_applied(self, fixture_rounds):
        # the hand-written "BLUE!" row must survive as plain "blue"
        special = [
            r for r in fixture_rounds
            if r.game_id == "g21" and r.round_index == 1
        ]
        assert len(special) == 1
        assert special[0].word == "blue"
        assert special[0].target_key == (230, 80, 50)

    def test_multiword_and_empty_dropped(self, fixture_rounds):
        dropped = {
            (r.game_id, r.round_index)
            for r in fixture_rounds if r.game_id == "g21"
        }
        assert ("g21", 2) not in dropped
        assert ("g21", 3) not in dropped

    def test_context_ease_is_closest_distractor(self, fixture_rounds):
        for r in fixture_rounds[:50]:
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


class TestContextEase:
    def test_takes_minimum(self):
        t = LabColor(0.0, 0.0, 0.0)
        near = LabColor(3.0, 4.0, 0.0)
        far = LabColor(30.0, 40.0, 0.0)
        assert context_ease(t, near, far) == 5.0
        assert context_ease(t, far, near) == 5.0


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


class TestBuildDenotations:
    def test_threshold_boundary(self):
        rounds = [_round_with("blue", (i, 0, 0), idx=i) for i in range(3)]
        rounds += [_round_with("teal", (9, 0, 0), idx=9)]
        kept = build_denotations(rounds, 3)
        assert set(kept) == {"blue"}
        kept2 = build_denotations(rounds, 4)
        assert set(kept2) == set()

    def test_chips_are_a_multiset(self):
        rounds = [
            _round_with("blue", (1, 0, 0), idx=1),
            _round_with("blue", (1, 0, 0), idx=2),
        ]
        den = build_denotations(rounds, 1)["blue"]
        assert den.count == 2
        assert len(den.chips) == 2
        assert den.keys == frozenset({(1, 0, 0)})

    def test_counts_match_rounds(self, fixture_rounds, fixture_denotations):
        for word, den in fixture_denotations.items():
            n = sum(1 for r in fixture_rounds if r.word == word)
            assert den.count == n == len(den.chips)

    def test_min_count_validated(self):
        with pytest.raises(ValueError):
            build_denotations([], 0)


class TestRepeatedChipSubset:
    def test_small_example(self):
        rounds = [
            _round_with("blue", (1, 0, 0), idx=1),
            _round_with("teal", (1, 0, 0), idx=2),
            _round_with("blue", (2, 0, 0), idx=3),
        ]
        subset = repeated_chip_subset(rounds)
        assert [r.round_index for r in subset] == [1, 2]

    def test_fixture_subset(self, fixture_rounds):
        subset = repeated_chip_subset(fixture_rounds)
        assert 0 < len(subset) < len(fixture_rounds)
        seen = {}
        for r in subset:
            seen[r.target_key] = seen.get(r.target_key, 0) + 1
        assert all(v >= 2 for v in seen.values())


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
    def test_clean_rounds_round_trip(self, fixture_rounds):
        buffer = io.StringIO()
        write_clean_rounds(buffer, fixture_rounds, "# header line")
        buffer.seek(0)
        assert read_clean_rounds(buffer) == fixture_rounds

    def test_rejects_sanitized(self):
        from colorlex.corpus import RejectedRow

        buffer = io.StringIO()
        write_rejects(buffer, [RejectedRow(5, "bad\tvalue\nhere")], "# h")
        text = buffer.getvalue()
        assert "5\tbad value here" in text.splitlines()[-1]
