"""Reference-game corpus ingestion, cleaning and denotation building.

The raw corpus is delimiter-separated text with one row per game round:
an utterance, three HSL chips (target plus two distractors) and whether
the listener picked the target. A schema maps our canonical field names
to the file's column names so published corpora can be ingested without
reshaping. Cleaning keeps rounds that were solved with a single
normalized token, quantizes each chip to its grid key, converts the
keys to CIELAB and computes context ease (distance from the target to
its closest distractor: the smaller, the harder the round).

Ingestion returns one columnar `RawRounds` table, and cleaning
returns, and the stages after ingestion read back, one columnar
`Rounds` table, rather than one object per round.

Chip identity: source corpora draw chips on an integer HSL grid
(hue in degrees, saturation/lightness in percent), so every chip,
target or distractor, is its grid key, quantized before any color
conversion: input off the grid gets its grid point's Lab. This makes
"the same chip across rounds" well-defined. A key is held as one
integer code, (h * 101 + s) * 101 + l. clean_rounds.tsv stores each
round's three keys, not their Lab or the ease; `clean` and
`read_clean_rounds` both derive those from the codes, in `_rounds`.
"""

from __future__ import annotations

import csv
import operator
import re
from dataclasses import dataclass
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
    "format_chip_key",
    "read_spellmap",
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


# Each form of reject reason that quotes a value, and its check: the
# reason without that value.
_REASON_CHECKS = (
    (re.compile(r"(hue|saturation|lightness) \S+ (outside .+)"), r"\1 \2"),
    (re.compile(r"(game_id|speaker_id) .+ (holds a tab or line break)"),
     r"\1 \2"),
    (re.compile(r"row has \d+ fields, (header has \d+)"),
     r"row width differs, \1"),
    (re.compile(r"(.+?): .+"), r"\1"),  # int(), float() and booleans
)


@dataclass(frozen=True, slots=True)
class RejectedRow:
    """A row that failed schema validation, with the file line it ends on."""

    line: int
    reason: str

    @property
    def check(self) -> str:
        """The check the row failed: its reason without the value it
        quotes, such as "saturation outside [0, 1]" for "saturation 88.0
        outside [0, 1]", or "not a boolean" for "not a boolean: 'x'"."""
        for pattern, check in _REASON_CHECKS:
            match = pattern.fullmatch(self.reason)
            if match:
                return match.expand(check)
        return self.reason


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
      the corpus has none) are lists. In a table from `ingest`, equal
      ids and utterances are one shared string object;
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


# Rows parsed, formatted or held as text at a time by ingest,
# write_clean_rounds and read_table, and chips converted at a time by
# _rounds.
_ROW_BLOCK = 2048


def _shared(values: Sequence[str], table: dict[str, str]) -> list[str]:
    """The values, each one replaced by the first equal string that
    `table` has seen, so that a repeated id is held once, not per row."""
    return list(map(table.setdefault, values, values))


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


def _ids(values: Sequence[str], field: str, reasons: dict[int, str],
         shared: dict[str, str]) -> list[str]:
    """The stripped ids, shared through `shared`; one that holds a tab or
    line break is its row's reason unless the row has one already."""
    ids = _shared(list(map(str.strip, values)), shared)
    if _ROW_BREAKS.search("".join(ids)):
        for i, value in enumerate(ids):
            if _ROW_BREAKS.search(value):
                reasons.setdefault(
                    i, f"{field} {value!r} holds a tab or line break")
    return ids


def _parse_block(rows: list[list[str]], lines: list[int],
                 cols: Mapping[str, int], hsl_scale: str,
                 rejects: list[RejectedRow],
                 shared: dict[str, str]) -> RawRounds:
    """The rounds of full-width rows, parsed column by column. Equal ids
    and utterances become the one string that `shared` holds for them.

    A row that fails a check goes to rejects with the reason of the
    first check it fails, in field order: the game_id and speaker_id
    line breaks, round_index, each chip's h, s and l numbers and then
    their ranges, and listener_correct.
    """
    columns = list(zip(*rows))
    reasons: dict[int, str] = {}  # row -> the first check it fails
    game_ids = _ids(columns[cols["game_id"]], "game_id", reasons, shared)
    speaker_col = cols.get("speaker_id")
    speaker_ids = ([""] * len(rows) if speaker_col is None
                   else _ids(columns[speaker_col], "speaker_id", reasons,
                             shared))
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
    utterances = _shared(columns[cols["utterance"]], shared)
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
    shared: dict[str, str] = {}  # each distinct id and utterance
    with open(path, "r", encoding="utf-8-sig", newline="") as handle:
        reader = csv.reader(handle, delimiter=delimiter)
        try:
            header = next(reader, None)
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
                        f"{path}: mapped column {column!r} (field "
                        f"{field!r}) not in header"
                    )
                cols[field] = index[column]
            width = len(header)
            block: list[list[str]] = []
            lines: list[int] = []
            for row in reader:
                if len(row) == width:
                    block.append(row)
                    lines.append(reader.line_num)
                    if len(block) == _ROW_BLOCK:
                        parts.append(_parse_block(block, lines, cols,
                                                  hsl_scale, rejects, shared))
                        block, lines = [], []
                elif row:
                    rejects.append(RejectedRow(
                        reader.line_num,
                        f"row has {len(row)} fields, header has {width}"))
        except csv.Error as exc:  # a field the csv module cannot frame
            raise SchemaError(f"{path}:{reader.line_num}: {exc}") from None
        except UnicodeDecodeError:
            raise SchemaError(not_utf8(path)) from None
    if block:
        parts.append(_parse_block(block, lines, cols, hsl_scale, rejects,
                                  shared))
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


def _grid_codes(hsl: np.ndarray) -> np.ndarray:
    """The code of chip_key of each row of an (n, 3) array of HslColor
    fields; rint rounds half to even, as round does."""
    h, s, l = np.rint(hsl.T * [[1.0], [100.0], [100.0]]).astype(np.int64)
    return (h % 360 * 101 + s) * 101 + l


def _lab_distance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The CIELAB (Euclidean) distance of each row pair of two (n, 3)
    arrays."""
    d = a - b
    dl, da, db = d[:, 0], d[:, 1], d[:, 2]
    return np.sqrt(dl * dl + da * da + db * db)


def clean(
    raw: RawRounds, spellmap: Mapping[str, str] | None = None
) -> Rounds:
    """Keep rounds solved with exactly one token, each chip as its grid
    key; their Lab and context ease come from the keys (see _rounds).
    Each distinct utterance is normalized once.
    """
    utterance_ids, utterances = _dense_ids(raw.utterances)
    words = []  # each distinct utterance's one token, or None
    for utterance in utterances:
        tokens = normalize_utterance(utterance, spellmap)
        words.append(tokens[0] if len(tokens) == 1 else None)
    one_token = np.array([w is not None for w in words], dtype=bool)
    kept = np.flatnonzero(raw.listener_correct & one_token[utterance_ids])
    rows = kept.tolist()
    game_ids, speaker_ids, round_indices = (
        list(map(column.__getitem__, rows))
        for column in (raw.game_ids, raw.speaker_ids, raw.round_indices))
    word_ids, vocab = _dense_ids(
        list(map(words.__getitem__, utterance_ids[kept].tolist())))
    codes = np.column_stack([_grid_codes(chips[kept]) for chips in (
        raw.target, raw.distractor1, raw.distractor2)])
    del rows, utterance_ids, kept  # freed before the chips are converted
    return _rounds(codes, vocab=tuple(vocab), word_ids=word_ids,
                   game_ids=game_ids, speaker_ids=speaker_ids,
                   round_indices=round_indices)


def _rounds(codes: np.ndarray, **columns) -> Rounds:
    """The Rounds table of rounds whose chips have the given (n, 3) codes
    (target, d1, d2) and whose other columns are given by name.

    Each distinct code is converted once, at its grid point, by
    hsl_to_lab_array _ROW_BLOCK codes at a time, and the target chips
    are numbered (see Rounds).
    """
    distinct, inverse = np.unique(codes, return_inverse=True)
    lab = np.empty((len(distinct), 3))
    for start in range(0, len(distinct), _ROW_BLOCK):
        block = slice(start, start + _ROW_BLOCK)
        h, s, l = (_key_array(distinct[block]) / [1.0, 100.0, 100.0]).T
        lab[block] = hsl_to_lab_array(h, s, l)
    del distinct
    target, d1, d2 = lab[inverse.reshape(codes.shape).T]
    del lab, inverse
    e1, e2 = _lab_distance(target, d1), _lab_distance(target, d2)
    chip_keys, chip_ids = _numbered(codes[:, 0])
    return Rounds(codes=codes, chip_keys=chip_keys, chip_ids=chip_ids,
                  ease=np.where(e2 < e1, e2, e1),  # min(e1, e2)
                  lab=(target, d1, d2), **columns)


def _dense_ids(values: Sequence) -> tuple[np.ndarray, list]:
    """Each value's index among the distinct values, which are returned
    in first-appearance order."""
    distinct = list(dict.fromkeys(values))
    index = dict(zip(distinct, range(len(distinct))))
    return (np.fromiter(map(index.__getitem__, values), dtype=np.intp,
                        count=len(values)), distinct)


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


def _in_range(values: np.ndarray, low: float, high: float, column: str,
              where: Callable[[int], str], open_low: bool = False
              ) -> np.ndarray:
    """The values, when each is in [low, high] ((low, high] when
    open_low); otherwise a ValueError naming where(i) of the first that
    is not (NaN never is) and the column."""
    above = low < values if open_low else low <= values
    bad = np.flatnonzero(~(above & (values <= high)))
    if len(bad):
        i = int(bad[0])
        raise ValueError(f"{where(i)}: {column}: {values[i].item()!r} "
                         f"outside {'(' if open_low else '['}{low!r}, "
                         f"{high!r}]")
    return values


class Rounds:
    """Clean rounds as columns: entry i of every column is round i.

    - `vocab` holds the words and `word_ids[i]` indexes it;
    - `codes` is an (n, 3) int64 array of each round's target, d1 and
      d2 chip codes (h * 101 + s) * 101 + l, 0 <= h < 360 and
      0 <= s, l <= 100;
    - `chip_keys` is an (m, 3) int64 array of the distinct target chip
      keys (h, s, l), sorted as integer triples, and `chip_ids[i]`
      indexes it, so ascending chip ids are ascending keys. Both come
      from one np.unique of the target codes;
    - `target`, `distractor1` and `distractor2` are (n, 3) float64
      arrays of the (L*, a*, b*) rows of the chips' grid points, and
      `ease` is the float64 context ease computed from them;
    - `game_ids`, `speaker_ids` ("" when the corpus has none) and
      `round_indices` are lists. Equal ids are one shared string
      object, in a table from read_clean_rounds and in one that `clean`
      made from an `ingest` table.

    `clean` returns this table, and read_clean_rounds reads it back;
    both derive the Lab, the ease and the chip numbering from the codes.
    A stage drops its table once it has what it needs from it (the
    denotations, or the regression table), before its heaviest work.
    Iterating over it yields its rounds as CleanRound rows; no stage
    does, but the benchmark's ground-truth test still does.
    """

    def __init__(self, *, vocab: tuple[str, ...], word_ids: np.ndarray,
                 codes: np.ndarray, chip_keys: np.ndarray,
                 chip_ids: np.ndarray, ease: np.ndarray,
                 game_ids: list[str], speaker_ids: list[str],
                 round_indices: list[int], lab: Sequence[np.ndarray]):
        self.vocab = vocab
        self.word_ids = word_ids
        self.codes = codes
        self.chip_keys = chip_keys
        self.chip_ids = chip_ids
        self.ease = ease
        self.game_ids = game_ids
        self.speaker_ids = speaker_ids
        self.round_indices = round_indices
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

    def take(self, index) -> Rounds:
        """The rounds at the given row positions, as a new table."""
        index = np.asarray(index, dtype=np.intp)
        rows = index.tolist()
        return Rounds(
            vocab=self.vocab,
            word_ids=self.word_ids[index],
            codes=self.codes[index],
            chip_keys=self.chip_keys,
            chip_ids=self.chip_ids[index],
            ease=self.ease[index],
            game_ids=[self.game_ids[i] for i in rows],
            speaker_ids=[self.speaker_ids[i] for i in rows],
            round_indices=[self.round_indices[i] for i in rows],
            lab=(self.target[index], self.distractor1[index],
                 self.distractor2[index]),
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


def read_spellmap(path) -> dict[str, str]:
    """Read token corrections: one "wrong right" pair per line, # comments.
    Each side must be one token as normalize_utterance leaves it, and
    each wrong token is mapped once; else a ValueError names the line."""
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
        bad = [t for t in parts if normalize_utterance(t) != [t]]
        if bad or parts[0] in spellmap:
            why = (f"{bad[0]!r} is not one lowercase token" if bad
                   else f"{parts[0]!r} is mapped twice")
            raise ValueError(f"{path}:{line_no}: {why}")
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
               ) -> Iterator[tuple[Callable[[int], str], list[list[str]]]]:
    """The data lines of a stage table, every line after the exact
    column line (even one that starts with "#"), _ROW_BLOCK lines at a
    time.

    Yields each block's where(i), the "path:line" of its line i (i < 0
    names an earlier block's line), and its fields as one list per
    column. Each block is split into fields once; the reader keeps none
    of them once the next block is asked for, so a caller that drops
    its columns by then holds one block of fields at a time. A missing
    column line, or a line that does not hold one field per column, is
    a ValueError naming the file (and line).
    """
    source = getattr(handle, "name", "<table>")
    header = "\t".join(columns)
    for line, text in enumerate(iter(handle.readline, ""), start=1):
        if text.rstrip("\n") == header:
            break
    else:
        raise ValueError(f"{source}: no column header {header!r} found")
    width = len(columns)
    while text := "".join(islice(handle, _ROW_BLOCK)):
        if not text.endswith("\n"):
            text += "\n"
        n = text.count("\n")

        def where(i: int, first: int = line + 1) -> str:
            return f"{source}:{first + i}"

        # Every line holds `width` fields exactly when the list holds
        # (width + 1) * n + 1 fields (an empty one ends it) and every
        # (width + 1)-th is a line break; the second check alone would
        # pass a line of 2 * width + 1 fields.
        fields = text.replace("\n", "\t\n\t").split("\t")
        if (len(fields) != (width + 1) * n + 1
                or fields[width::width + 1].count("\n") != n):
            for i, row in enumerate(text.split("\n")[:n]):
                if row.count("\t") != width - 1:
                    raise ValueError(
                        f"{where(i)}: row has {row.count(chr(9)) + 1} "
                        f"fields, expected {width}")
        del text, fields[-1]
        block = [fields[k::width + 1] for k in range(width)]
        del fields
        yield where, block
        del block
        line += n


_KEY_COLUMNS = ("target_key", "d1_key", "d2_key")
_CLEAN_COLUMNS = ("game_id", "round_index", "speaker_id",
                  "word") + _KEY_COLUMNS
_KEY_TEXT = "{}:{}:{}".format


def format_chip_key(key: ChipKey) -> str:
    """A chip key as written in output tables: "h:s:l"."""
    return _KEY_TEXT(*key)


def write_clean_rounds(
    handle: TextIO, rounds: Rounds, header_comment: str
) -> None:
    """Write clean rounds as a stage table, each chip as its "h:s:l" key,
    formatting and writing _ROW_BLOCK rows at a time as one text."""
    write_table(handle, header_comment, _CLEAN_COLUMNS, ())
    for start in range(0, len(rounds), _ROW_BLOCK):
        block = slice(start, start + _ROW_BLOCK)
        lines = list(map("\t".join, zip(
            rounds.game_ids[block],
            map(str, rounds.round_indices[block]),
            rounds.speaker_ids[block],
            map(rounds.vocab.__getitem__, rounds.word_ids[block].tolist()),
            *(map(_KEY_TEXT, *_key_array(codes).T.tolist())
              for codes in rounds.codes[block].T),
        )))
        lines.append("")  # the last line's line break
        text = "\n".join(lines)
        del lines  # freed before write() encodes a copy of the text
        handle.write(text)


def _chip_codes(texts: Sequence[str]) -> np.ndarray | None:
    """The int64 code (h * 101 + s) * 101 + l of each chip key text,
    read from the bytes of all the texts at once, or None when any is
    not "h:s:l" as write_clean_rounds writes it: three ASCII integers
    without a sign or a leading zero, 0 <= h < 360 and 0 <= s, l <= 100.
    Codes order as (h, s, l) triples do."""
    if not texts:
        return np.empty(0, dtype=np.int64)
    data = np.frombuffer(("\n".join(texts) + "\n").encode(), dtype=np.uint8)
    digits = data - np.uint8(ord("0"))  # a byte below "0" wraps above 9
    ends = np.flatnonzero(digits > 9)
    if (len(ends) != 3 * len(texts)
            or (data[ends].reshape(-1, 3) != list(b"::\n")).any()):
        return None
    width = np.diff(ends, prepend=-1) - 1
    first = digits[ends - width]
    if ((width < 1) | (width > 3) | ((width > 1) & (first == 0))).any():
        return None
    # each field's last three digits, those before its start counted as 0
    ones, tens, hundreds = (digits[ends - k].astype(np.int64)
                            for k in (1, 2, 3))
    parts = (ones + 10 * tens * (width > 1)
             + 100 * hundreds * (width > 2)).reshape(-1, 3)
    if (parts > [359, 100, 100]).any():
        return None
    h, s, l = parts.T
    return (h * 101 + s) * 101 + l


def _key_codes(columns: Sequence[Sequence[str]],
               where: Callable[[int], str]) -> np.ndarray:
    """The (n, 3) codes of a block's target_key, d1_key and d2_key
    texts, read in one pass; a text that is not a chip key is a
    ValueError naming where(i) of the first such row of the first
    column that has one, and the column."""
    codes = _chip_codes(list(chain.from_iterable(columns)))
    if codes is None:
        for column, texts in zip(_KEY_COLUMNS, columns):
            for i, text in enumerate(texts):
                if _chip_codes([text]) is None:
                    raise ValueError(
                        f"{where(i)}: {column}: expected h:s:l with "
                        f"0 <= h < 360 and 0 <= s, l <= 100, got {text!r}")
    return codes.reshape(3, -1).T


def _key_array(codes: np.ndarray) -> np.ndarray:
    """The chip keys of the codes, as an (m, 3) int64 array of (h, s, l)
    rows."""
    h, sl = np.divmod(codes, 101 * 101)
    return np.column_stack([h, *np.divmod(sl, 101)])


def _numbered(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct chip keys of the codes, ascending, as an (m, 3)
    int64 array of (h, s, l) rows, and each code's index in them."""
    distinct, ids = np.unique(codes, return_inverse=True)
    return _key_array(distinct), ids


def read_clean_rounds(handle: TextIO) -> Rounds:
    """Read a file written by write_clean_rounds, one read_table block
    at a time.

    round_index is converted with int() as a whole column, and the
    three key columns are read as integer codes in one pass over their
    ASCII bytes. The Lab, the ease and the chip numbering are derived
    from the codes of all blocks at the end (see _rounds). Words map to
    ids through a table that all blocks share, and equal game and
    speaker ids become one shared string. A block's field strings are
    dropped before the next block is read, so no more than one block of
    them is alive at a time.

    A malformed line is a ValueError naming its "path:line". The first
    bad block wins, and within it a row that does not hold one field
    per column comes first, then a bad round_index, target_key, d1_key
    or d2_key, in that order, each naming its first bad row. A key must
    be what write_clean_rounds writes: three ASCII integers without a
    sign or a leading zero, 0 <= h < 360 and 0 <= s, l <= 100.
    """
    game_ids: list[str] = []
    speaker_ids: list[str] = []
    shared: dict[str, str] = {}  # each distinct game and speaker id
    round_indices: list[int] = []
    word_ids = [np.empty(0, dtype=np.intp)]
    codes = [np.empty((0, 3), dtype=np.int64)]
    words: dict[str, int] = {}
    for where, (games, round_text, speakers, word_text,
                *key_text) in read_table(handle, _CLEAN_COLUMNS):
        game_ids += _shared(games, shared)
        round_indices += _parse_column(int, round_text, "round_index", where)
        speaker_ids += _shared(speakers, shared)
        word_ids.append(np.array(
            [words.setdefault(w, len(words)) for w in word_text],
            dtype=np.intp))
        codes.append(_key_codes(key_text, where))
        # the block's fields, before the next block's are made
        del games, round_text, speakers, word_text, key_text
    return _rounds(
        np.concatenate(codes),
        vocab=tuple(words),
        word_ids=np.concatenate(word_ids),
        game_ids=game_ids,
        speaker_ids=speaker_ids,
        round_indices=round_indices,
    )


def write_rejects(
    handle: TextIO, rejects: Iterable[RejectedRow], header_comment: str
) -> None:
    write_table(handle, header_comment, ("line", "reason"), (
        [str(r.line), r.reason.replace("\t", " ").replace("\n", " ")]
        for r in rejects
    ))
