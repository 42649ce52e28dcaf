"""Reference-game corpus ingestion, cleaning and denotation building.

The raw corpus is delimiter-separated text with one row per game round:
an utterance, three HSL chips (target plus two distractors) and whether
the listener picked the target. A schema maps our canonical field names
to the file's column names so published corpora can be ingested without
reshaping. Cleaning keeps rounds that were solved with a single
normalized token, converts chips to CIELAB and computes context ease
(distance from the target to its closest distractor: the smaller, the
harder the round).

Chip identity: source corpora draw chips on an integer HSL grid
(hue in degrees, saturation/lightness in percent), so a chip's key is
its grid triple, quantized before any color conversion. This makes
"the same chip across rounds" well-defined.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence, TextIO

from .colorspace import (
    HslColor,
    LabColor,
    hsl_to_srgb,
    lab_distance,
    normalize_hue,
    srgb_to_lab,
)
from .errors import ColorlexError

__all__ = [
    "CANONICAL_FIELDS",
    "DEFAULT_SCHEMA",
    "LANGUAGE_MIN_COUNT",
    "RawRound",
    "CleanRound",
    "Denotation",
    "RejectedRow",
    "SchemaError",
    "ingest",
    "normalize_utterance",
    "clean",
    "context_ease",
    "build_denotations",
    "repeated_chip_subset",
    "read_spellmap",
    "write_clean_rounds",
    "read_clean_rounds",
    "write_rejects",
]

# Word-frequency thresholds for building denotations.
LANGUAGE_MIN_COUNT = {"english": 10, "chinese": 5}

ChipKey = tuple[int, int, int]


class SchemaError(ColorlexError):
    pass


@dataclass(frozen=True)
class RawRound:
    """One reference-game round as found in the corpus."""

    game_id: str
    round_index: int
    utterance: str
    target: HslColor
    distractor1: HslColor
    distractor2: HslColor
    listener_correct: bool
    speaker_id: str | None
    language: str


@dataclass(frozen=True)
class CleanRound:
    """A successfully solved round whose utterance was a single token."""

    word: str
    target: LabColor
    distractors: tuple[LabColor, LabColor]
    context_ease: float
    target_key: ChipKey
    speaker_id: str | None
    game_id: str
    round_index: int


@dataclass(frozen=True)
class Denotation:
    """All chips a word labeled, one entry per clean round (a multiset).

    keys holds the quantized grid identities of those chips; a word is
    "applicable" to a chip when the chip's key is in here.
    """

    word: str
    chips: tuple[LabColor, ...]
    count: int
    keys: frozenset[ChipKey]


@dataclass(frozen=True)
class RejectedRow:
    """A row that failed schema validation, with its 1-based file line."""

    line: int
    reason: str


_COLOR_FIELDS = ("target", "distractor1", "distractor2")
CANONICAL_FIELDS = (
    "game_id",
    "round_index",
    "utterance",
    "listener_correct",
    "speaker_id",
) + tuple(f"{c}_{ch}" for c in _COLOR_FIELDS for ch in "hsl")

# Canonical layout: column names equal field names. speaker_id may be
# mapped to None / omitted when the corpus has no speaker identifiers.
DEFAULT_SCHEMA = {name: name for name in CANONICAL_FIELDS}

_TRUE_VALUES = {"true", "1", "yes", "t"}
_FALSE_VALUES = {"false", "0", "no", "f"}


def _parse_bool(text: str) -> bool:
    v = text.strip().lower()
    if v in _TRUE_VALUES:
        return True
    if v in _FALSE_VALUES:
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_hsl(row: Mapping[str, str], schema: Mapping[str, str],
               field: str, hsl_scale: str) -> HslColor:
    h = float(row[schema[f"{field}_h"]])
    s = float(row[schema[f"{field}_s"]])
    l = float(row[schema[f"{field}_l"]])
    if hsl_scale == "percent":
        s /= 100.0
        l /= 100.0
    return HslColor(normalize_hue(h), s, l)


def ingest(
    path,
    schema: Mapping[str, str] | None = None,
    *,
    delimiter: str = ",",
    language: str = "english",
    hsl_scale: str = "percent",
) -> tuple[list[RawRound], list[RejectedRow]]:
    """Read raw rounds from a delimited file.

    Rows that fail to parse (too few or too many fields, bad numbers,
    out-of-range saturation or lightness, malformed booleans) are
    returned in the rejects list with their file line number, never
    silently dropped. A mapped column missing from the header is a
    SchemaError: that is corpus drift, not row noise.
    """
    schema = dict(DEFAULT_SCHEMA if schema is None else schema)
    if hsl_scale not in ("percent", "fraction"):
        raise ValueError(f"unknown hsl_scale {hsl_scale!r}")
    rounds: list[RawRound] = []
    rejects: list[RejectedRow] = []
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.DictReader(handle, delimiter=delimiter)
        if reader.fieldnames is None:
            raise SchemaError(f"{path}: empty file, no header row")
        header = set(reader.fieldnames)
        for field, column in schema.items():
            if field == "speaker_id" and column is None:
                continue
            if column not in header:
                raise SchemaError(
                    f"{path}: mapped column {column!r} (field {field!r}) "
                    f"not in header"
                )
        n_fields = len(reader.fieldnames)
        for line_no, row in enumerate(reader, start=2):
            # DictReader files surplus fields under the key None and
            # fills missing ones with the value None.
            if None in row or None in row.values():
                got = (n_fields + len(row[None]) if None in row else
                       sum(v is not None for v in row.values()))
                rejects.append(RejectedRow(
                    line_no, f"row has {got} fields, header has {n_fields}"))
                continue
            try:
                speaker_col = schema.get("speaker_id")
                speaker = row[speaker_col].strip() if speaker_col else ""
                rounds.append(
                    RawRound(
                        game_id=row[schema["game_id"]].strip(),
                        round_index=int(row[schema["round_index"]]),
                        utterance=row[schema["utterance"]] or "",
                        target=_parse_hsl(row, schema, "target", hsl_scale),
                        distractor1=_parse_hsl(
                            row, schema, "distractor1", hsl_scale),
                        distractor2=_parse_hsl(
                            row, schema, "distractor2", hsl_scale),
                        listener_correct=_parse_bool(
                            row[schema["listener_correct"]]),
                        speaker_id=speaker or None,
                        language=language,
                    )
                )
            except (ValueError, TypeError, KeyError) as exc:
                rejects.append(RejectedRow(line_no, str(exc)))
    return rounds, rejects


# Any non-word character, plus underscore, separates tokens; hyphens and
# slashes therefore split ("blue-green" -> two tokens).
_SEPARATORS = re.compile(r"[\W_]+", re.UNICODE)


def normalize_utterance(
    text: str, spellmap: Mapping[str, str] | None = None
) -> list[str]:
    """Lowercase, strip punctuation, tokenize, apply spelling corrections."""
    tokens = [t for t in _SEPARATORS.split(text.lower()) if t]
    if spellmap:
        tokens = [spellmap.get(t, t) for t in tokens]
    return tokens


def context_ease(target: LabColor, d1: LabColor, d2: LabColor) -> float:
    """Distance from the target to its closest (hardest) distractor."""
    return min(lab_distance(target, d1), lab_distance(target, d2))


def chip_key(c: HslColor) -> ChipKey:
    """Quantize a chip to the corpus's native integer HSL grid."""
    return (
        int(round(c.h)) % 360,
        int(round(c.s * 100.0)),
        int(round(c.l * 100.0)),
    )


def _to_lab(c: HslColor) -> LabColor:
    return srgb_to_lab(hsl_to_srgb(c))


def clean(
    rounds: Iterable[RawRound], spellmap: Mapping[str, str] | None = None
) -> list[CleanRound]:
    """Keep rounds solved with exactly one token; convert colors to Lab."""
    out: list[CleanRound] = []
    for r in rounds:
        if not r.listener_correct:
            continue
        tokens = normalize_utterance(r.utterance, spellmap)
        if len(tokens) != 1:
            continue
        target = _to_lab(r.target)
        d1 = _to_lab(r.distractor1)
        d2 = _to_lab(r.distractor2)
        out.append(
            CleanRound(
                word=tokens[0],
                target=target,
                distractors=(d1, d2),
                context_ease=context_ease(target, d1, d2),
                target_key=chip_key(r.target),
                speaker_id=r.speaker_id,
                game_id=r.game_id,
                round_index=r.round_index,
            )
        )
    return out


def build_denotations(
    rounds: Sequence[CleanRound], min_count: int
) -> dict[str, Denotation]:
    """Group chips by word, dropping words used fewer than min_count times.

    Words appear in first-occurrence order. Chips are a multiset: a chip
    named twice with the same word contributes two entries.
    """
    if min_count < 1:
        raise ValueError("min_count must be at least 1")
    chips: dict[str, list[LabColor]] = {}
    keys: dict[str, set[ChipKey]] = {}
    for r in rounds:
        chips.setdefault(r.word, []).append(r.target)
        keys.setdefault(r.word, set()).add(r.target_key)
    return {
        word: Denotation(word, tuple(points), len(points),
                         frozenset(keys[word]))
        for word, points in chips.items()
        if len(points) >= min_count
    }


def repeated_chip_subset(rounds: Sequence[CleanRound]) -> list[CleanRound]:
    """Keep rounds whose target chip occurs at least twice in the data."""
    occurrences: dict[ChipKey, int] = {}
    for r in rounds:
        occurrences[r.target_key] = occurrences.get(r.target_key, 0) + 1
    return [r for r in rounds if occurrences[r.target_key] >= 2]


def read_spellmap(path) -> dict[str, str]:
    """Read token corrections: one "wrong right" pair per line, # comments."""
    spellmap: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(
                    f"{path}:{line_no}: expected 'wrong right', got {line!r}"
                )
            spellmap[parts[0]] = parts[1]
    return spellmap


_CLEAN_HEADER = (
    "game_id\tround_index\tspeaker_id\tword\ttarget_key\tease\t"
    "target_l\ttarget_a\ttarget_b\td1_l\td1_a\td1_b\td2_l\td2_a\td2_b"
)


def _key_str(key: ChipKey) -> str:
    return f"{key[0]}:{key[1]}:{key[2]}"


def write_clean_rounds(
    handle: TextIO, rounds: Iterable[CleanRound], header_comment: str
) -> None:
    """Write clean rounds as tab-separated text, repr-precision floats."""
    handle.write(header_comment + "\n")
    handle.write(_CLEAN_HEADER + "\n")
    for r in rounds:
        d1, d2 = r.distractors
        fields = [
            r.game_id,
            str(r.round_index),
            r.speaker_id or "",
            r.word,
            _key_str(r.target_key),
            repr(r.context_ease),
            repr(r.target.l_star), repr(r.target.a_star), repr(r.target.b_star),
            repr(d1.l_star), repr(d1.a_star), repr(d1.b_star),
            repr(d2.l_star), repr(d2.a_star), repr(d2.b_star),
        ]
        handle.write("\t".join(fields) + "\n")


def read_clean_rounds(handle: TextIO) -> list[CleanRound]:
    """Read a file written by write_clean_rounds."""
    rounds: list[CleanRound] = []
    for line in handle:
        line = line.rstrip("\n")
        if not line or line.startswith("#") or line == _CLEAN_HEADER:
            continue
        parts = line.split("\t")
        if len(parts) != 15:
            raise ValueError(f"malformed clean-rounds line: {line!r}")
        (game_id, round_index, speaker, word, key, ease,
         tl, ta, tb, d1l, d1a, d1b, d2l, d2a, d2b) = parts
        kh, ks, kl = key.split(":")
        rounds.append(
            CleanRound(
                word=word,
                target=LabColor(float(tl), float(ta), float(tb)),
                distractors=(
                    LabColor(float(d1l), float(d1a), float(d1b)),
                    LabColor(float(d2l), float(d2a), float(d2b)),
                ),
                context_ease=float(ease),
                target_key=(int(kh), int(ks), int(kl)),
                speaker_id=speaker or None,
                game_id=game_id,
                round_index=int(round_index),
            )
        )
    return rounds


def write_rejects(
    handle: TextIO, rejects: Iterable[RejectedRow], header_comment: str
) -> None:
    handle.write(header_comment + "\n")
    handle.write("line\treason\n")
    for r in rejects:
        reason = r.reason.replace("\t", " ").replace("\n", " ")
        handle.write(f"{r.line}\t{reason}\n")
