"""Reference-game corpus ingestion, cleaning and denotation building.

The raw corpus is delimiter-separated text with one row per game round:
an utterance, three HSL chips (target plus two distractors) and whether
the listener picked the target. A schema maps our canonical field names
to the file's column names so published corpora can be ingested without
reshaping. Cleaning keeps rounds that were solved with a single
normalized token, converts chips to CIELAB and computes context ease
(distance from the target to its closest distractor: the smaller, the
harder the round).

Ingestion returns one columnar `RawRounds` table, and cleaning
returns, and the stages after ingestion read back, one columnar
`Rounds` table, rather than one object per round.

Chip identity: source corpora draw chips on an integer HSL grid
(hue in degrees, saturation/lightness in percent), so a chip's key is
its grid triple, quantized before any color conversion. This makes
"the same chip across rounds" well-defined.
"""

from __future__ import annotations

import csv
import operator
import re
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress
from typing import Callable, Iterable, Iterator, Mapping, Sequence, TextIO

import numpy as np

from .colorspace import HslColor, LabColor, hsl_to_lab_array, normalize_hue
from .errors import ColorlexError, not_utf8

__all__ = [
    "CANONICAL_FIELDS",
    "DEFAULT_SCHEMA",
    "LANGUAGE_MIN_COUNT",
    "RawRound",
    "RawRounds",
    "CleanRound",
    "Rounds",
    "RejectedRow",
    "SchemaError",
    "ingest",
    "normalize_utterance",
    "clean",
    "build_denotations",
    "repeated_chip_subset",
    "format_chip_key",
    "read_spellmap",
    "LAB_COLUMNS",
    "lab_fields",
    "write_table",
    "read_table",
    "write_clean_rounds",
    "read_clean_rounds",
    "write_rejects",
]

# Word-frequency thresholds for building denotations.
LANGUAGE_MIN_COUNT = {"english": 10, "chinese": 5}

ChipKey = tuple[int, int, int]


class SchemaError(ColorlexError):
    pass


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
class RejectedRow:
    """A row that failed schema validation, with the file line it ends on."""

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

# Characters that would split an id across clean_rounds.tsv fields or lines.
_ROW_BREAKS = re.compile("[\t\r\n]")

# The stripped, lowercased spellings of a boolean.
_BOOLS = {"true": True, "1": True, "yes": True, "t": True,
          "false": False, "0": False, "no": False, "f": False}


def _parse_bool(text: str) -> bool:
    value = _BOOLS.get(text.strip().lower())
    if value is None:
        raise ValueError(f"not a boolean: {text!r}")
    return value


def _parse_hsl(row: Sequence[str], cols: Mapping[str, int],
               field: str, hsl_scale: str) -> HslColor:
    h = float(row[cols[f"{field}_h"]])
    s = float(row[cols[f"{field}_s"]])
    l = float(row[cols[f"{field}_l"]])
    if hsl_scale == "percent":
        s /= 100.0
        l /= 100.0
    return HslColor(normalize_hue(h), s, l)


def _parse_row(row: Sequence[str], cols: Mapping[str, int],
               hsl_scale: str) -> RawRound:
    """One full-width row as a RawRound; a ValueError says why not."""
    speaker_col = cols.get("speaker_id")
    speaker = "" if speaker_col is None else row[speaker_col].strip()
    game_id = row[cols["game_id"]].strip()
    for field, value in (("game_id", game_id), ("speaker_id", speaker)):
        if _ROW_BREAKS.search(value):
            raise ValueError(f"{field} {value!r} holds a tab or line break")
    return RawRound(
        game_id=game_id,
        round_index=int(row[cols["round_index"]]),
        utterance=row[cols["utterance"]],
        target=_parse_hsl(row, cols, "target", hsl_scale),
        distractor1=_parse_hsl(row, cols, "distractor1", hsl_scale),
        distractor2=_parse_hsl(row, cols, "distractor2", hsl_scale),
        listener_correct=_parse_bool(row[cols["listener_correct"]]),
        speaker_id=speaker or None,
    )


class RawRounds:
    """Raw rounds as columns: entry i of every column is round i.

    - `game_ids`, `round_indices`, `utterances` and `speaker_ids` ("" when
      the corpus has none) are lists;
    - `listener_correct` is a bool array;
    - `target`, `distractor1` and `distractor2` are (n, 3) float64
      arrays of valid HslColor fields (h, s, l).

    `ingest` returns this table, and RawRounds.from_rows builds it from
    RawRound rows. Iterating over it yields its rounds as RawRound rows.
    """

    def __init__(self, *, game_ids: list[str], round_indices: list[int],
                 utterances: list[str], speaker_ids: list[str],
                 listener_correct: np.ndarray, target: np.ndarray,
                 distractor1: np.ndarray, distractor2: np.ndarray):
        self.game_ids = game_ids
        self.round_indices = round_indices
        self.utterances = utterances
        self.speaker_ids = speaker_ids
        self.listener_correct = listener_correct
        self.target = target
        self.distractor1 = distractor1
        self.distractor2 = distractor2

    @classmethod
    def from_rows(cls, rows: Sequence[RawRound]) -> RawRounds:
        """The table of the given raw rounds, in their order."""
        return cls(
            game_ids=[r.game_id for r in rows],
            round_indices=[r.round_index for r in rows],
            utterances=[r.utterance for r in rows],
            speaker_ids=[r.speaker_id or "" for r in rows],
            listener_correct=np.array(
                [r.listener_correct for r in rows], dtype=bool),
            **{field: np.array([(c.h, c.s, c.l) for c in chips],
                               dtype=np.float64).reshape(-1, 3)
               for field, chips in zip(_COLOR_FIELDS, (
                   [r.target for r in rows],
                   [r.distractor1 for r in rows],
                   [r.distractor2 for r in rows]))},
        )

    def __len__(self) -> int:
        return len(self.game_ids)

    def __iter__(self) -> Iterator[RawRound]:
        targets, d1s, d2s = (
            [HslColor(*c) for c in block.tolist()]
            for block in (self.target, self.distractor1, self.distractor2))
        for (game, index, utterance, target, d1, d2, correct,
             speaker) in zip(self.game_ids, self.round_indices,
                             self.utterances, targets, d1s, d2s,
                             self.listener_correct.tolist(),
                             self.speaker_ids):
            yield RawRound(game, index, utterance, target, d1, d2, correct,
                           speaker or None)


def _framed(reader, path) -> Iterator[list[str]]:
    """The reader's rows; a CSV framing error or a byte that is not
    UTF-8 names the file line."""
    try:
        yield from reader
    except csv.Error as exc:
        raise SchemaError(f"{path}:{reader.line_num}: {exc}") from None
    except UnicodeDecodeError:
        raise SchemaError(not_utf8(path)) from None


_ROW_BLOCK = 8192  # data rows held as text at a time


def _converted(convert, values: Sequence[str], bad: np.ndarray) -> list:
    """convert() of each value; a value it refuses marks bad and gives 0."""
    try:
        return list(map(convert, values))
    except ValueError:
        pass
    out = []
    for i, value in enumerate(values):
        try:
            out.append(convert(value))
        except ValueError:
            bad[i] = True
            out.append(0)
    return out


def _ids(values: Sequence[str], bad: np.ndarray) -> list[str]:
    """The stripped ids; one that holds a tab or line break marks bad."""
    ids = list(map(str.strip, values))
    if _ROW_BREAKS.search("".join(ids)):
        bad |= [_ROW_BREAKS.search(v) is not None for v in ids]
    return ids


def _parse_block(rows: list[list[str]], lines: list[int],
                 cols: Mapping[str, int], hsl_scale: str,
                 rejects: list[RejectedRow]) -> RawRounds:
    """The rounds of full-width rows, parsed column by column with
    _parse_row's checks in its operation order. The rows a check fails
    go to rejects, with the reason _parse_row gives."""
    columns = list(zip(*rows))
    bad = np.zeros(len(rows), dtype=bool)
    game_ids = _ids(columns[cols["game_id"]], bad)
    speaker_col = cols.get("speaker_id")
    speaker_ids = ([""] * len(rows) if speaker_col is None
                   else _ids(columns[speaker_col], bad))
    round_indices = _converted(int, columns[cols["round_index"]], bad)
    correct = list(map(_BOOLS.get, map(str.lower, map(
        str.strip, columns[cols["listener_correct"]]))))
    if None in correct:
        bad |= [v is None for v in correct]
    chips = []
    for field in _COLOR_FIELDS:
        h, s, l = (np.array(_converted(float, columns[cols[f"{field}_{c}"]],
                                       bad), dtype=np.float64)
                   for c in "hsl")
        if hsl_scale == "percent":
            s /= 100.0
            l /= 100.0
        # normalize_hue; a hue that is not finite becomes NaN, which
        # fails the range test as HslColor fails the unwrapped hue
        with np.errstate(invalid="ignore"):
            h = np.fmod(h, 360.0)
        h[h < 0.0] += 360.0
        h[h == 360.0] = 0.0
        bad |= ~((0.0 <= h) & (h < 360.0) & (0.0 <= s) & (s <= 1.0)
                 & (0.0 <= l) & (l <= 1.0))
        chips.append(np.column_stack([h, s, l]))
    utterances = list(columns[cols["utterance"]])
    correct = np.array(correct, dtype=bool)
    if bad.any():
        for i in np.flatnonzero(bad).tolist():
            try:
                _parse_row(rows[i], cols, hsl_scale)
            except ValueError as exc:
                rejects.append(RejectedRow(lines[i], str(exc)))
            else:
                raise RuntimeError(
                    f"line {lines[i]}: a column check failed a row that "
                    f"_parse_row accepts")
        good = ~bad
        keep = good.tolist()
        game_ids, round_indices, utterances, speaker_ids = (
            list(compress(v, keep))
            for v in (game_ids, round_indices, utterances, speaker_ids))
        correct = correct[good]
        chips = [block[good] for block in chips]
    return RawRounds(game_ids=game_ids, round_indices=round_indices,
                     utterances=utterances, speaker_ids=speaker_ids,
                     listener_correct=correct, target=chips[0],
                     distractor1=chips[1], distractor2=chips[2])


def _joined(parts: Sequence[RawRounds]) -> RawRounds:
    """The rounds of the tables in turn, as one table."""
    lists = {name: list(chain.from_iterable(getattr(p, name) for p in parts))
             for name in ("game_ids", "round_indices", "utterances",
                          "speaker_ids")}
    arrays = {name: np.concatenate([getattr(part, name) for part in parts])
              for name in ("listener_correct",) + _COLOR_FIELDS}
    return RawRounds(**lists, **arrays)


def ingest(
    path,
    schema: Mapping[str, str] | None = None,
    *,
    delimiter: str = ",",
    hsl_scale: str = "percent",
) -> tuple[RawRounds, list[RejectedRow]]:
    """Read raw rounds from a delimited file, with or without a UTF-8
    byte order mark, one block of rows at a time.

    Rows that fail to parse (too few or too many fields, bad numbers,
    out-of-range saturation or lightness, malformed booleans, ids that
    hold a tab or line break) are returned in the rejects list with the
    file line they end on, in file order, never silently dropped. A
    field the schema leaves unmapped, or a mapped column missing from
    the header, is a SchemaError: that is corpus drift, not row noise,
    and so is a field the csv module cannot frame (one over its field
    limit). A column named twice resolves to its last occurrence.
    """
    schema = DEFAULT_SCHEMA if schema is None else schema
    if hsl_scale not in ("percent", "fraction"):
        raise ValueError(f"unknown hsl_scale {hsl_scale!r}")
    parts = [RawRounds.from_rows([])]  # a corpus may hold no round
    rejects: list[RejectedRow] = []
    with open(path, "r", encoding="utf-8-sig", newline="") as handle:
        reader = csv.reader(handle, delimiter=delimiter)
        rows = _framed(reader, path)
        header = next(rows, None)
        if header is None:
            raise SchemaError(f"{path}: empty file, no header row")
        index = {column: i for i, column in enumerate(header)}
        cols: dict[str, int] = {}
        for field in CANONICAL_FIELDS:
            column = schema.get(field)
            if field == "speaker_id" and column is None:
                continue
            if column not in index:
                raise SchemaError(
                    f"{path}: mapped column {column!r} (field {field!r}) "
                    f"not in header"
                )
            cols[field] = index[column]
        width = len(header)
        block: list[list[str]] = []
        lines: list[int] = []
        for row in rows:
            if len(row) == width:
                block.append(row)
                lines.append(reader.line_num)
                if len(block) == _ROW_BLOCK:
                    parts.append(
                        _parse_block(block, lines, cols, hsl_scale, rejects))
                    block, lines = [], []
            elif row:
                rejects.append(RejectedRow(
                    reader.line_num,
                    f"row has {len(row)} fields, header has {width}"))
        if block:
            parts.append(_parse_block(block, lines, cols, hsl_scale, rejects))
    rejects.sort(key=operator.attrgetter("line"))
    return _joined(parts), rejects


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


def chip_key(c: HslColor) -> ChipKey:
    """Quantize a chip to the corpus's native integer HSL grid."""
    return (
        int(round(c.h)) % 360,
        int(round(c.s * 100.0)),
        int(round(c.l * 100.0)),
    )


def _lab_distance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """colorspace.lab_distance of each row pair of two (n, 3) arrays."""
    d = a - b
    dl, da, db = d[:, 0], d[:, 1], d[:, 2]
    return np.sqrt(dl * dl + da * da + db * db)


def clean(
    raw: RawRounds, spellmap: Mapping[str, str] | None = None
) -> Rounds:
    """Keep rounds solved with exactly one token; convert colors to Lab.

    Context ease is the distance from the target to its closest
    (hardest) distractor. All kept chips are converted in one
    hsl_to_lab_array call, and each distinct utterance is normalized
    once.
    """
    utterance_ids, utterances = _dense_ids(raw.utterances)
    words = []  # each distinct utterance's one token, or None
    for utterance in utterances:
        tokens = normalize_utterance(utterance, spellmap)
        words.append(tokens[0] if len(tokens) == 1 else None)
    one_token = np.array([w is not None for w in words], dtype=bool)
    kept = np.flatnonzero(raw.listener_correct & one_token[utterance_ids])
    rows = kept.tolist()
    n = len(rows)
    h, s, l = np.concatenate(
        [raw.target[kept], raw.distractor1[kept], raw.distractor2[kept]]).T
    target, d1, d2 = hsl_to_lab_array(h, s, l).reshape(3, n, 3)
    e1, e2 = _lab_distance(target, d1), _lab_distance(target, d2)
    # chip_key of each target; rint rounds half to even, as round does
    keys = np.column_stack([np.rint(h[:n]).astype(np.int64) % 360,
                            np.rint(s[:n] * 100.0).astype(np.int64),
                            np.rint(l[:n] * 100.0).astype(np.int64)])
    chip_keys, chip_ids = _chip_table(keys)
    word_ids, vocab = _dense_ids(
        [words[u] for u in utterance_ids[kept].tolist()])
    return Rounds(
        vocab=tuple(vocab),
        word_ids=word_ids,
        chip_keys=chip_keys,
        chip_ids=chip_ids,
        ease=np.where(e2 < e1, e2, e1),  # min(e1, e2)
        game_ids=[raw.game_ids[i] for i in rows],
        speaker_ids=[raw.speaker_ids[i] for i in rows],
        round_indices=[raw.round_indices[i] for i in rows],
        lab=(target, d1, d2),
    )


def _dense_ids(values: Sequence) -> tuple[np.ndarray, list]:
    """Each value's index among the distinct values, which are returned
    in first-appearance order."""
    index: dict = {}
    ids = [index.setdefault(v, len(index)) for v in values]
    return np.array(ids, dtype=np.intp), list(index)


def _chip_table(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sort (h, s, l) rows as integer triples and merge equal rows.

    Returns the sorted distinct rows and each input row's index in them.
    """
    order = np.lexsort(keys.T[::-1])
    ordered = keys[order]
    first = np.ones(len(keys), dtype=bool)
    first[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    ids = np.empty(len(keys), dtype=np.intp)
    ids[order] = np.cumsum(first) - 1
    return ordered[first], ids


def _parse_column(convert, values: Sequence[str], column: str,
                  where: Callable[[int], str], dtype=None):
    """convert() applied to every value: a list, or an array of dtype.

    A value that does not convert is a ValueError naming where(i), the
    file position of value i, and the column.
    """
    try:
        parsed = list(map(convert, values))
        return parsed if dtype is None else np.array(parsed, dtype=dtype)
    except (ValueError, OverflowError) as exc:
        error = exc
    for i, value in enumerate(values):
        try:
            np.array(convert(value), dtype=dtype)
        except (ValueError, OverflowError) as exc:
            raise ValueError(f"{where(i)}: {column}: {exc}") from None
    raise error


_LAB_BLOCKS = ("target", "distractor1", "distractor2")


class _LabText:
    """The LAB_COLUMNS text of a stage table's rows (all of them, or
    those at `rows`), converted to floats one block of three columns at
    a time."""

    def __init__(self, columns: Sequence[list[str]],
                 where: Callable[[int], str], rows: np.ndarray | None = None):
        self.columns = columns
        self.where = where
        self.rows = rows

    def take(self, index: np.ndarray) -> _LabText:
        rows = index if self.rows is None else self.rows[index]
        return _LabText(self.columns, self.where, rows)

    def block(self, k: int) -> np.ndarray:
        """Block k (target, d1, d2) as an (n, 3) float64 array."""
        columns = self.columns[3 * k:3 * k + 3]
        where = self.where
        if self.rows is not None:
            rows = self.rows.tolist()
            columns = [[text[i] for i in rows] for text in columns]

            def where(i: int) -> str:
                return self.where(rows[i])

        return np.column_stack([
            _parse_column(float, text, name, where, np.float64)
            for text, name in zip(columns, LAB_COLUMNS[3 * k:3 * k + 3])
        ])


class Rounds:
    """Clean rounds as columns: entry i of every column is round i.

    - `vocab` holds the words and `word_ids[i]` indexes it;
    - `chip_keys` is an (m, 3) int64 array of target chip keys, sorted
      as (h, s, l) integer triples, and `chip_ids[i]` indexes it, so
      ascending chip ids are ascending keys;
    - `ease` is the float64 context ease;
    - `game_ids`, `speaker_ids` ("" when the corpus has none) and
      `round_indices` are lists;
    - `target`, `distractor1` and `distractor2` are (n, 3) float64
      arrays of (L*, a*, b*) rows. A table read by read_clean_rounds
      keeps them as text and converts a block on its first access, so
      a stage that reads no Lab converts none.

    `clean` returns this table, and read_clean_rounds reads it back.
    Iterating over it yields its rounds as CleanRound rows; no stage
    does, but the benchmark's ground-truth test still does.
    """

    def __init__(self, *, vocab: tuple[str, ...], word_ids: np.ndarray,
                 chip_keys: np.ndarray, chip_ids: np.ndarray,
                 ease: np.ndarray, game_ids: list[str],
                 speaker_ids: list[str], round_indices: list[int],
                 lab: _LabText | Sequence[np.ndarray]):
        self.vocab = vocab
        self.word_ids = word_ids
        self.chip_keys = chip_keys
        self.chip_ids = chip_ids
        self.ease = ease
        self.game_ids = game_ids
        self.speaker_ids = speaker_ids
        self.round_indices = round_indices
        if isinstance(lab, _LabText):
            self._lab = lab
        else:  # the three blocks as arrays: fill the cached properties
            self._lab = None
            self.target, self.distractor1, self.distractor2 = lab

    def __len__(self) -> int:
        return len(self.word_ids)

    def __iter__(self) -> Iterator[CleanRound]:
        keys = [tuple(k) for k in self.chip_keys.tolist()]
        targets, d1s, d2s = (
            [LabColor(*v) for v in block.tolist()]
            for block in (self.target, self.distractor1, self.distractor2))
        for (word, chip, ease, target, d1, d2, speaker, game,
             index) in zip(self.word_ids.tolist(), self.chip_ids.tolist(),
                           self.ease.tolist(), targets, d1s, d2s,
                           self.speaker_ids, self.game_ids,
                           self.round_indices):
            yield CleanRound(
                word=self.vocab[word],
                target=target,
                distractors=(d1, d2),
                context_ease=ease,
                target_key=keys[chip],
                speaker_id=speaker or None,
                game_id=game,
                round_index=index,
            )

    @cached_property
    def target(self) -> np.ndarray:
        return self._lab.block(0)

    @cached_property
    def distractor1(self) -> np.ndarray:
        return self._lab.block(1)

    @cached_property
    def distractor2(self) -> np.ndarray:
        return self._lab.block(2)

    def take(self, index) -> Rounds:
        """The rounds at the given row positions, as a new table; Lab
        text not yet converted stays text."""
        index = np.asarray(index, dtype=np.intp)
        rows = index.tolist()
        lab = self._lab
        out = Rounds(
            vocab=self.vocab,
            word_ids=self.word_ids[index],
            chip_keys=self.chip_keys,
            chip_ids=self.chip_ids[index],
            ease=self.ease[index],
            game_ids=[self.game_ids[i] for i in rows],
            speaker_ids=[self.speaker_ids[i] for i in rows],
            round_indices=[self.round_indices[i] for i in rows],
            lab=([getattr(self, name)[index] for name in _LAB_BLOCKS]
                 if lab is None else lab.take(index)),
        )
        if lab is not None:
            for name in _LAB_BLOCKS:
                if name in self.__dict__:
                    out.__dict__[name] = self.__dict__[name][index]
        return out


def build_denotations(rounds: Rounds,
                      min_count: int) -> dict[str, np.ndarray]:
    """Each word's chips as the CIELAB rows of a (k, 3) float64 array,
    dropping words used fewer than min_count times.

    Words appear in first-occurrence order, and each word's chips in row
    order. Chips are a multiset: a chip named twice with the same word
    contributes two entries.
    """
    if min_count < 1:
        raise ValueError("min_count must be at least 1")
    counts = np.bincount(rounds.word_ids, minlength=len(rounds.vocab))
    present, first = np.unique(rounds.word_ids, return_index=True)
    kept = [w for w in present[np.argsort(first)].tolist()
            if counts[w] >= min_count]
    if not kept:
        return {}
    chips = rounds.target[np.argsort(rounds.word_ids, kind="stable")]
    ends = np.cumsum(counts).tolist()
    counts = counts.tolist()
    return {
        rounds.vocab[w]: chips[ends[w] - counts[w]:ends[w]]
        for w in kept
    }


def repeated_chip_subset(rounds: Rounds) -> Rounds:
    """Keep rounds whose target chip occurs at least twice in the data."""
    counts = np.bincount(rounds.chip_ids, minlength=len(rounds.chip_keys))
    return rounds.take(np.flatnonzero(counts[rounds.chip_ids] >= 2))


def read_spellmap(path) -> dict[str, str]:
    """Read token corrections: one "wrong right" pair per line, # comments."""
    spellmap: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as handle:
        try:
            lines = list(handle)
        except UnicodeDecodeError:
            raise ValueError(not_utf8(path)) from None
    for line_no, line in enumerate(lines, start=1):
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


def write_table(handle: TextIO, header_comment: str, columns: Sequence[str],
                rows: Iterable[Sequence[str]]) -> None:
    """Write a stage table: the provenance comment, the column line,
    then one line per row, fields separated by tabs."""
    handle.write(header_comment + "\n")
    handle.write("\t".join(columns) + "\n")
    for fields in rows:
        handle.write("\t".join(fields) + "\n")


def read_table(handle: TextIO, columns: Sequence[str]
               ) -> tuple[Callable[[int], str], list[str]]:
    """The data lines of a stage table: every line after the exact
    column line, even one that starts with "#".

    Also returns where(i), the "path:line" of data line i, for error
    messages. A missing column line, or a line that does not hold one
    field per column, is a ValueError naming the file (and line).
    """
    source = getattr(handle, "name", "<table>")
    lines = handle.read().split("\n")
    if lines[-1] == "":
        lines.pop()
    header = "\t".join(columns)
    try:
        start = lines.index(header) + 1
    except ValueError:
        raise ValueError(
            f"{source}: no column header {header!r} found") from None
    del lines[:start]

    def where(i: int) -> str:
        return f"{source}:{start + 1 + i}"

    tabs = len(columns) - 1
    for i, line in enumerate(lines):
        if line.count("\t") != tabs:
            raise ValueError(
                f"{where(i)}: row has {line.count(chr(9)) + 1} fields, "
                f"expected {len(columns)}")
    return where, lines


LAB_COLUMNS = tuple(f"{c}_{ch}" for c in ("target", "d1", "d2")
                    for ch in "lab")


def lab_fields(*colors: LabColor) -> list[str]:
    """The LAB_COLUMNS text of a target and its two distractors."""
    return [repr(v) for c in colors
            for v in (c.l_star, c.a_star, c.b_star)]


_CLEAN_COLUMNS = ("game_id", "round_index", "speaker_id", "word",
                  "target_key", "ease") + LAB_COLUMNS


def format_chip_key(key: ChipKey) -> str:
    """A chip key as written in output tables: "h:s:l"."""
    return f"{key[0]}:{key[1]}:{key[2]}"


def write_clean_rounds(
    handle: TextIO, rounds: Rounds, header_comment: str
) -> None:
    """Write clean rounds as a stage table, repr-precision floats."""
    keys = [format_chip_key(k) for k in rounds.chip_keys.tolist()]
    write_table(handle, header_comment, _CLEAN_COLUMNS, zip(
        rounds.game_ids,
        map(str, rounds.round_indices),
        rounds.speaker_ids,
        [rounds.vocab[w] for w in rounds.word_ids.tolist()],
        [keys[c] for c in rounds.chip_ids.tolist()],
        map(repr, rounds.ease.tolist()),
        *(map(repr, column)
          for block in (rounds.target, rounds.distractor1, rounds.distractor2)
          for column in block.T.tolist()),
    ))


def _parse_keys(texts: Sequence[str],
                where: Callable[[int], str]) -> np.ndarray:
    """The (h, s, l) int64 rows of "h:s:l" chip key texts."""
    for i, text in enumerate(texts):
        if text.count(":") != 2:
            raise ValueError(f"{where(i)}: target_key: expected h:s:l, "
                             f"got {text!r}")
    if not texts:
        return np.empty((0, 3), dtype=np.int64)
    parts = ":".join(texts).split(":")
    return _parse_column(int, parts, "target_key", lambda j: where(j // 3),
                         np.int64).reshape(-1, 3)


def read_clean_rounds(handle: TextIO) -> Rounds:
    """Read a file written by write_clean_rounds, one column at a time.

    The lines are split once into fields and each column is sliced out
    and converted with float() or int() as a whole; Lab columns stay
    text until a stage reads them (see Rounds).
    """
    where, lines = read_table(handle, _CLEAN_COLUMNS)
    width = len(_CLEAN_COLUMNS)
    fields = "\t".join(lines).split("\t") if lines else []
    del lines
    (game_ids, round_text, speaker_ids, words, key_text, ease_text,
     *lab_text) = (fields[k::width] for k in range(width))
    del fields
    word_ids, vocab = _dense_ids(words)
    key_ids, keys = _dense_ids(key_text)

    def key_where(j: int) -> str:  # the first row holding key j
        return where(key_ids.tolist().index(j))

    chip_keys, chip_ids = _chip_table(_parse_keys(keys, key_where))
    return Rounds(
        vocab=tuple(vocab),
        word_ids=word_ids,
        chip_keys=chip_keys,
        chip_ids=chip_ids[key_ids],
        ease=_parse_column(float, ease_text, "ease", where, np.float64),
        game_ids=game_ids,
        speaker_ids=speaker_ids,
        round_indices=_parse_column(int, round_text, "round_index", where),
        lab=_LabText(lab_text, where),
    )


def write_rejects(
    handle: TextIO, rejects: Iterable[RejectedRow], header_comment: str
) -> None:
    write_table(handle, header_comment, ("line", "reason"), (
        [str(r.line), r.reason.replace("\t", " ").replace("\n", " ")]
        for r in rejects
    ))
