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
from itertools import chain, compress, islice
from typing import Callable, Iterable, Iterator, Mapping, Sequence, TextIO

import numpy as np

from .colorspace import HslColor, LabColor, hsl_to_lab_array
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


# Rows parsed, converted, formatted or held as text at a time by ingest,
# clean, write_clean_rounds and read_clean_rounds.
_ROW_BLOCK = 8192


def _converted(convert, values: Sequence[str],
               reasons: dict[int, str]) -> list:
    """convert() of each value; a value it refuses gives 0, and its
    ValueError text is its row's reason unless the row has one already."""
    try:
        return list(map(convert, values))
    except ValueError:
        pass
    out = []
    for i, value in enumerate(values):
        try:
            out.append(convert(value))
        except ValueError as exc:
            reasons.setdefault(i, str(exc))
            out.append(0)
    return out


def _ids(values: Sequence[str], field: str,
         reasons: dict[int, str]) -> list[str]:
    """The stripped ids; one that holds a tab or line break is its
    row's reason unless the row has one already."""
    ids = list(map(str.strip, values))
    if _ROW_BREAKS.search("".join(ids)):
        for i, value in enumerate(ids):
            if _ROW_BREAKS.search(value):
                reasons.setdefault(
                    i, f"{field} {value!r} holds a tab or line break")
    return ids


def _parse_block(rows: list[list[str]], lines: list[int],
                 cols: Mapping[str, int], hsl_scale: str,
                 rejects: list[RejectedRow]) -> RawRounds:
    """The rounds of full-width rows, parsed column by column.

    A row that fails a check goes to rejects with the reason of the
    first check it fails, in field order: the game_id and speaker_id
    line breaks, round_index, each chip's h, s and l numbers and then
    their ranges, and listener_correct.
    """
    columns = list(zip(*rows))
    reasons: dict[int, str] = {}  # row -> the first check it fails
    game_ids = _ids(columns[cols["game_id"]], "game_id", reasons)
    speaker_col = cols.get("speaker_id")
    speaker_ids = ([""] * len(rows) if speaker_col is None
                   else _ids(columns[speaker_col], "speaker_id", reasons))
    round_indices = _converted(int, columns[cols["round_index"]], reasons)
    chips = []
    for field in _COLOR_FIELDS:
        h, s, l = (np.array(_converted(float, columns[cols[f"{field}_{c}"]],
                                       reasons), dtype=np.float64)
                   for c in "hsl")
        if hsl_scale == "percent":
            s /= 100.0
            l /= 100.0
        # wrap the hue into [0, 360); one that is not finite becomes
        # NaN and fails the range check, named by its unwrapped value
        with np.errstate(invalid="ignore"):
            hue = np.fmod(h, 360.0)
        hue[hue < 0.0] += 360.0
        hue[hue == 360.0] = 0.0  # a tiny negative hue rounds up to 360
        for name, bounds, v, ok in (
                ("hue", "[0, 360)", h, (0.0 <= hue) & (hue < 360.0)),
                ("saturation", "[0, 1]", s, (0.0 <= s) & (s <= 1.0)),
                ("lightness", "[0, 1]", l, (0.0 <= l) & (l <= 1.0))):
            for i in np.flatnonzero(~ok).tolist():
                reasons.setdefault(
                    i, f"{name} {v[i].item()!r} outside {bounds}")
        chips.append(np.column_stack([hue, s, l]))
    text = columns[cols["listener_correct"]]
    correct = list(map(_BOOLS.get, map(str.lower, map(str.strip, text))))
    if None in correct:
        for i, value in enumerate(correct):
            if value is None:
                reasons.setdefault(i, f"not a boolean: {text[i]!r}")
    utterances = list(columns[cols["utterance"]])
    correct = np.array(correct, dtype=bool)
    if reasons:
        rejects.extend(RejectedRow(lines[i], reason)
                       for i, reason in reasons.items())
        good = np.ones(len(rows), dtype=bool)
        good[list(reasons)] = False
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
    """The CIELAB (Euclidean) distance of each row pair of two (n, 3)
    arrays."""
    d = a - b
    dl, da, db = d[:, 0], d[:, 1], d[:, 2]
    return np.sqrt(dl * dl + da * da + db * db)


def clean(
    raw: RawRounds, spellmap: Mapping[str, str] | None = None
) -> Rounds:
    """Keep rounds solved with exactly one token; convert colors to Lab.

    Context ease is the distance from the target to its closest
    (hardest) distractor. The kept chips are converted by
    hsl_to_lab_array _ROW_BLOCK rounds at a time, and each distinct
    utterance is normalized once.
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
    lab = np.empty((3, n, 3))
    for start in range(0, n, _ROW_BLOCK):
        block = kept[start:start + _ROW_BLOCK]
        h, s, l = np.concatenate([raw.target[block], raw.distractor1[block],
                                  raw.distractor2[block]]).T
        lab[:, start:start + len(block)] = hsl_to_lab_array(
            h, s, l).reshape(3, -1, 3)
    target, d1, d2 = lab
    e1, e2 = _lab_distance(target, d1), _lab_distance(target, d2)
    # chip_key of each target; rint rounds half to even, as round does
    h, s, l = raw.target[kept].T
    keys = np.column_stack([np.rint(h).astype(np.int64) % 360,
                            np.rint(s * 100.0).astype(np.int64),
                            np.rint(l * 100.0).astype(np.int64)])
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


class _LabText:
    """The LAB_COLUMNS text of a stage table's rows (all of them, or
    those at `rows`), converted to floats one block of three columns at
    a time.

    Each column is held as one tab-joined text per `size` rows of the
    table: row r is field r % size of text r // size of its column.
    """

    def __init__(self, columns: Sequence[list[str]], size: int,
                 where: Callable[[int], str], rows: np.ndarray | None = None):
        self.columns = columns
        self.size = size
        self.where = where
        self.rows = rows

    def take(self, index: np.ndarray) -> _LabText:
        rows = index if self.rows is None else self.rows[index]
        return _LabText(self.columns, self.size, self.where, rows)

    def block(self, k: int) -> np.ndarray:
        """Block k (target, d1, d2) as an (n, 3) float64 array."""
        return np.column_stack([
            self._column(texts, name)
            for texts, name in zip(self.columns[3 * k:3 * k + 3],
                                   LAB_COLUMNS[3 * k:3 * k + 3])])

    def _column(self, texts: list[str], name: str) -> np.ndarray:
        """One column's rows as float64: all rows text by text, or the
        rows at `rows`, cut from each text they need."""
        if self.rows is None:
            return np.concatenate([np.empty(0)] + [
                _parse_column(float, text.split("\t"), name,
                              _shifted(self.where, b * self.size), np.float64)
                for b, text in enumerate(texts)])
        rows = self.rows.tolist()
        blocks, offsets = np.divmod(self.rows, self.size)
        values = np.empty(len(rows), dtype=object)
        for b in np.unique(blocks).tolist():
            at = blocks == b
            values[at] = _fields(texts[b], offsets[at])
        return _parse_column(float, values.tolist(), name,
                             lambda i: self.where(rows[i]), np.float64)


def _fields(text: str, offsets: np.ndarray) -> list[str]:
    """The fields at `offsets` of a tab-joined text, cut out of its UTF-8
    bytes (a tab byte is never part of another character), which costs
    a few times less than splitting the text when only a few are
    needed."""
    data = text.encode()
    tabs = np.flatnonzero(np.frombuffer(data, dtype=np.uint8) == 9)
    starts = np.concatenate([[0], tabs + 1])[offsets].tolist()
    ends = np.append(tabs, len(data))[offsets].tolist()
    return [data[a:z].decode() for a, z in zip(starts, ends)]


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
      keeps them as text, one string per Lab column and block of
      _ROW_BLOCK rows, and converts a block of three columns on its
      first access, so a stage that reads no Lab converts none.

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
        read as text stays text, converted on the new table's first
        access."""
        # positions from the start, which _LabText.take needs
        index = np.arange(len(self))[np.asarray(index, dtype=np.intp)]
        rows = index.tolist()
        lab = self._lab
        return Rounds(
            vocab=self.vocab,
            word_ids=self.word_ids[index],
            chip_keys=self.chip_keys,
            chip_ids=self.chip_ids[index],
            ease=self.ease[index],
            game_ids=[self.game_ids[i] for i in rows],
            speaker_ids=[self.speaker_ids[i] for i in rows],
            round_indices=[self.round_indices[i] for i in rows],
            lab=((self.target[index], self.distractor1[index],
                  self.distractor2[index]) if lab is None
                 else lab.take(index)),
        )


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
    where = _skip_to_columns(handle, columns)
    lines = handle.read().split("\n")
    if lines[-1] == "":
        lines.pop()
    _check_widths(lines, len(columns), where)
    return where, lines


def _skip_to_columns(handle: TextIO, columns: Sequence[str]
                     ) -> Callable[[int], str]:
    """Read the handle through its exact column line, and return
    where(i), the "path:line" of the i-th line after it. A missing
    column line is a ValueError naming the file."""
    source = getattr(handle, "name", "<table>")
    header = "\t".join(columns)
    for start, line in enumerate(iter(handle.readline, ""), start=1):
        if line.rstrip("\n") == header:
            return lambda i: f"{source}:{start + 1 + i}"
    raise ValueError(f"{source}: no column header {header!r} found")


def _check_widths(lines: Iterable[str], width: int,
                  where: Callable[[int], str]) -> None:
    """A ValueError naming the first line (by where(i)) that does not
    hold `width` tab-separated fields."""
    for i, line in enumerate(lines):
        if line.count("\t") != width - 1:
            raise ValueError(
                f"{where(i)}: row has {line.count(chr(9)) + 1} fields, "
                f"expected {width}")


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
    """Write clean rounds as a stage table, repr-precision floats,
    formatting _ROW_BLOCK rows at a time."""
    keys = [format_chip_key(k) for k in rounds.chip_keys.tolist()]

    def rows(start: int) -> Iterator[tuple[str, ...]]:
        block = slice(start, start + _ROW_BLOCK)
        lab = np.concatenate([rounds.target[block], rounds.distractor1[block],
                              rounds.distractor2[block]], axis=1)
        return zip(
            rounds.game_ids[block],
            map(str, rounds.round_indices[block]),
            rounds.speaker_ids[block],
            [rounds.vocab[w] for w in rounds.word_ids[block].tolist()],
            [keys[c] for c in rounds.chip_ids[block].tolist()],
            map(repr, rounds.ease[block].tolist()),
            *(map(repr, column) for column in lab.T.tolist()),
        )

    write_table(handle, header_comment, _CLEAN_COLUMNS, chain.from_iterable(
        map(rows, range(0, len(rounds), _ROW_BLOCK))))


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
    """Read a file written by write_clean_rounds, _ROW_BLOCK lines at a
    time.

    Each block is split once into fields, and each of its columns is
    sliced out and converted with float() or int() as a whole. Words
    and chip keys map to ids through tables that all blocks share. The
    Lab columns stay text, one string per column and block, until a
    stage reads them (see Rounds).

    A malformed line is a ValueError naming its "path:line". The first
    bad block wins, and within it a row that does not hold one field
    per column comes first, then a bad round_index, target_key or ease,
    in that order. A bad Lab value is named when its block is first
    converted.
    """
    where = _skip_to_columns(handle, _CLEAN_COLUMNS)
    size, width = _ROW_BLOCK, len(_CLEAN_COLUMNS)
    game_ids: list[str] = []
    speaker_ids: list[str] = []
    round_indices: list[int] = []
    word_ids = [np.empty(0, dtype=np.intp)]
    key_ids = [np.empty(0, dtype=np.intp)]
    keys, ease = [np.empty((0, 3), dtype=np.int64)], [np.empty(0)]
    words: dict[str, int] = {}
    key_index: dict[str, int] = {}
    lab: list[list[str]] = [[] for _ in LAB_COLUMNS]
    first = 0  # the table row of the block's first line
    while text := "".join(islice(handle, size)):
        if not text.endswith("\n"):
            text += "\n"
        n = text.count("\n")
        block_where = _shifted(where, first)
        # Every line holds `width` fields exactly when the list holds
        # (width + 1) * n + 1 fields (an empty one ends it) and every
        # (width + 1)-th is a line break; the second check alone would
        # pass a line of 2 * width + 1 fields.
        fields = text.replace("\n", "\t\n\t").split("\t")
        if (len(fields) != (width + 1) * n + 1
                or fields[width::width + 1].count("\n") != n):
            _check_widths(text.split("\n")[:n], width, block_where)
        del text, fields[-1]
        (games, round_text, speakers, word_text, key_text, ease_text,
         *lab_text) = (fields[k::width + 1] for k in range(width))
        del fields
        game_ids += games
        round_indices += _parse_column(int, round_text, "round_index",
                                       block_where)
        speaker_ids += speakers
        word_ids.append(np.array(
            [words.setdefault(w, len(words)) for w in word_text],
            dtype=np.intp))
        known = len(key_index)
        block_keys = [key_index.setdefault(k, len(key_index))
                      for k in key_text]
        key_ids.append(np.array(block_keys, dtype=np.intp))

        def key_where(j: int) -> str:  # the first row holding new key j
            return block_where(block_keys.index(known + j))

        keys.append(_parse_keys(list(key_index)[known:], key_where))
        ease.append(_parse_column(float, ease_text, "ease", block_where,
                                  np.float64))
        for column, values in zip(lab, lab_text):
            column.append("\t".join(values))
        first += n
    chip_keys, chip_ids = _chip_table(np.concatenate(keys))
    return Rounds(
        vocab=tuple(words),
        word_ids=np.concatenate(word_ids),
        chip_keys=chip_keys,
        chip_ids=chip_ids[np.concatenate(key_ids)],
        ease=np.concatenate(ease),
        game_ids=game_ids,
        speaker_ids=speaker_ids,
        round_indices=round_indices,
        lab=_LabText(lab, size, where),
    )


def _shifted(where: Callable[[int], str], first: int) -> Callable[[int], str]:
    """where() of the line `first` lines further on."""
    return lambda i: where(first + i)


def write_rejects(
    handle: TextIO, rejects: Iterable[RejectedRow], header_comment: str
) -> None:
    write_table(handle, header_comment, ("line", "reason"), (
        [str(r.line), r.reason.replace("\t", " ").replace("\n", " ")]
        for r in rejects
    ))
