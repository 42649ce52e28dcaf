"""The per-row corpus code, kept as the oracle for the columnar one.

`oracle_ingest` reads a corpus row by row into RawRound objects, with
its own checks and reject reasons, as the package did before `ingest`
parsed blocks of rows column by column into a `RawRounds` table.
`oracle_clean` and `oracle_write_clean_rounds` clean raw rounds into
`CleanRow` tuples row by row, quantizing each chip to its grid key and
converting that grid point with the scalar colorspace functions, and
write their keys line by line: the per-row counterparts of `clean`,
which converts each distinct chip code once into a `Rounds` table, and
of `write_clean_rounds`. `oracle_read_clean_rounds` parses a
clean_rounds.tsv table line by line into `CleanRow` tuples, converting
each key the same way, where `read_clean_rounds` reads it column by
column.
`oracle_chip_table` numbers chip key texts by parsing each distinct one
with int() and sorting the triples, as the package did before it
numbered chips by their integer codes. `rounds_rows` gives a `Rounds`
table's rows in the same form, so that tests can compare tables by
repr, which tells -0.0 from 0.0 and shows NaN; `rounds_from_rows`
builds a table from such rows as they are, their Lab and ease not
derived from their keys.
"""

import csv
import math
from typing import NamedTuple

import numpy as np

from colorlex.colorspace import (
    HslColor,
    LabColor,
    hsl_to_srgb,
    srgb_to_lab,
)
from colorlex.corpus import (
    DEFAULT_SCHEMA,
    RawRound,
    RejectedRow,
    Rounds,
    SchemaError,
    _numbered,
    chip_key,
    format_chip_key,
    normalize_utterance,
    write_table,
)
from colorlex.errors import not_utf8

_CLEAN_COLUMNS = ("game_id", "round_index", "speaker_id", "word",
                  "target_key", "d1_key", "d2_key")

Lab = tuple[float, float, float]
Key = tuple[int, int, int]


class CleanRow(NamedTuple):
    """One clean round: the fields of its clean_rounds.tsv line, with
    speaker_id "" when the corpus has none, then its context ease and
    each chip's (L*, a*, b*)."""

    game_id: str
    round_index: int
    speaker_id: str
    word: str
    target_key: Key
    d1_key: Key
    d2_key: Key
    ease: float
    target: Lab
    d1: Lab
    d2: Lab


def normalize_hue(h: float) -> float:
    """Wrap a hue in degrees into [0, 360). An infinite or NaN hue is
    returned as it is, for HslColor to reject by value."""
    if not math.isfinite(h):
        return h
    h = math.fmod(h, 360.0)
    if h < 0.0:
        h += 360.0
    # A tiny negative hue rounds up to exactly 360 when wrapped.
    return 0.0 if h == 360.0 else h


def _parse_bool(text):
    value = {"true": True, "1": True, "yes": True, "t": True,
             "false": False, "0": False, "no": False,
             "f": False}.get(text.strip().lower())
    if value is None:
        raise ValueError(f"not a boolean: {text!r}")
    return value


def _parse_hsl(row, cols, field, hsl_scale):
    h = float(row[cols[f"{field}_h"]])
    s = float(row[cols[f"{field}_s"]])
    l = float(row[cols[f"{field}_l"]])
    if hsl_scale == "percent":
        s /= 100.0
        l /= 100.0
    return HslColor(normalize_hue(h), s, l)


def _framed(reader, path):
    """The reader's rows; a CSV framing error or a byte that is not
    UTF-8 names the file line."""
    try:
        yield from reader
    except csv.Error as exc:
        raise SchemaError(f"{path}:{reader.line_num}: {exc}") from None
    except UnicodeDecodeError:
        raise SchemaError(not_utf8(path)) from None


def oracle_ingest(path, schema=None, *, delimiter=",", hsl_scale="percent"):
    schema = dict(DEFAULT_SCHEMA if schema is None else schema)
    if hsl_scale not in ("percent", "fraction"):
        raise ValueError(f"unknown hsl_scale {hsl_scale!r}")
    rounds = []
    rejects = []
    with open(path, "r", encoding="utf-8-sig", newline="") as handle:
        reader = csv.reader(handle, delimiter=delimiter)
        rows = _framed(reader, path)
        header = next(rows, None)
        if header is None:
            raise SchemaError(f"{path}: empty file, no header row")
        index = {column: i for i, column in enumerate(header)}
        cols = {}
        for field, column in schema.items():
            if field == "speaker_id" and column is None:
                continue
            if column not in index:
                raise SchemaError(
                    f"{path}: mapped column {column!r} (field {field!r}) "
                    f"not in header"
                )
            cols[field] = index[column]
        speaker_col = cols.get("speaker_id")
        for row in rows:
            if not row:
                continue
            line_no = reader.line_num
            if len(row) != len(header):
                rejects.append(RejectedRow(
                    line_no,
                    f"row has {len(row)} fields, header has {len(header)}"))
                continue
            try:
                speaker = ("" if speaker_col is None
                           else row[speaker_col].strip())
                game_id = row[cols["game_id"]].strip()
                for field, value in (("game_id", game_id),
                                     ("speaker_id", speaker)):
                    if any(c in value for c in "\t\r\n"):
                        raise ValueError(
                            f"{field} {value!r} holds a tab or line break")
                rounds.append(
                    RawRound(
                        game_id=game_id,
                        round_index=int(row[cols["round_index"]]),
                        utterance=row[cols["utterance"]],
                        target=_parse_hsl(row, cols, "target", hsl_scale),
                        distractor1=_parse_hsl(
                            row, cols, "distractor1", hsl_scale),
                        distractor2=_parse_hsl(
                            row, cols, "distractor2", hsl_scale),
                        listener_correct=_parse_bool(
                            row[cols["listener_correct"]]),
                        speaker_id=speaker or None,
                    )
                )
            except (ValueError, KeyError) as exc:
                rejects.append(RejectedRow(line_no, str(exc)))
    return rounds, rejects


def key_lab(key: Key) -> LabColor:
    """The CIELAB point of a chip key: its grid point, converted."""
    h, s, l = key
    return srgb_to_lab(hsl_to_srgb(HslColor(h, s / 100.0, l / 100.0)))


def lab_distance(a: LabColor, b: LabColor) -> float:
    """Euclidean distance between two CIELAB points."""
    dl = a.l_star - b.l_star
    da = a.a_star - b.a_star
    db = a.b_star - b.b_star
    return math.sqrt(dl * dl + da * da + db * db)


def context_ease(target, d1, d2):
    """Distance from the target to its closest (hardest) distractor."""
    return min(lab_distance(target, d1), lab_distance(target, d2))


def _lab(c: LabColor) -> Lab:
    return (c.l_star, c.a_star, c.b_star)


def oracle_clean(rounds, spellmap=None) -> list[CleanRow]:
    out = []
    for r in rounds:
        if not r.listener_correct:
            continue
        tokens = normalize_utterance(r.utterance, spellmap)
        if len(tokens) != 1:
            continue
        out.append(clean_row(
            r.game_id, r.round_index, r.speaker_id or "", tokens[0],
            *map(chip_key, (r.target, r.distractor1, r.distractor2))))
    return out


def clean_row(game_id, round_index, speaker_id, word, target_key, d1_key,
              d2_key) -> CleanRow:
    """The round of a clean_rounds.tsv line's fields, its Lab and ease
    derived from its keys."""
    target, d1, d2 = map(key_lab, (target_key, d1_key, d2_key))
    return CleanRow(game_id, round_index, speaker_id, word, target_key,
                    d1_key, d2_key, context_ease(target, d1, d2),
                    _lab(target), _lab(d1), _lab(d2))


def oracle_write_clean_rounds(handle, rows, header_comment) -> None:
    write_table(handle, header_comment, _CLEAN_COLUMNS, (
        [r.game_id, str(r.round_index), r.speaker_id, r.word,
         *map(format_chip_key, (r.target_key, r.d1_key, r.d2_key))]
        for r in rows
    ))


def _table_rows(handle, columns):
    header = "\t".join(columns)
    for line in handle:
        if line.rstrip("\n") == header:
            break
    else:
        raise ValueError(f"no column header {header!r} found")
    for line in handle:
        fields = line.rstrip("\n").split("\t")
        if len(fields) != len(columns):
            raise ValueError(f"row has {len(fields)} fields")
        yield fields


def oracle_read_clean_rounds(handle) -> list[CleanRow]:
    rows = []
    for game_id, round_index, speaker, word, *keys in _table_rows(
            handle, _CLEAN_COLUMNS):
        rows.append(clean_row(
            game_id, int(round_index), speaker, word,
            *(tuple(map(int, key.split(":"))) for key in keys)))
    return rows


def oracle_chip_table(texts) -> tuple[np.ndarray, np.ndarray]:
    """The distinct chip keys of "h:s:l" texts, sorted as (h, s, l)
    integer triples, as an (m, 3) int64 array, and each text's index in
    them. Each distinct text is parsed once, part by part with int()."""
    index: dict[str, int] = {}
    ids = np.array([index.setdefault(t, len(index)) for t in texts],
                   dtype=np.intp)
    keys = np.array([[int(p) for p in t.split(":")] for t in index],
                    dtype=np.int64).reshape(-1, 3)
    order = np.lexsort(keys.T[::-1])
    ordered = keys[order]
    first = np.ones(len(keys), dtype=bool)
    first[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    numbers = np.empty(len(keys), dtype=np.intp)
    numbers[order] = np.cumsum(first) - 1
    return ordered[first], numbers[ids]


def _code_key(code: int) -> Key:
    h, sl = divmod(code, 101 * 101)
    return (h, *divmod(sl, 101))


def rounds_rows(rounds: Rounds) -> list[CleanRow]:
    """A Rounds table's rounds as CleanRow tuples. The target keys are
    read through chip_keys and chip_ids, the distractor keys from the
    codes."""
    keys = [tuple(k) for k in rounds.chip_keys.tolist()]
    return list(map(CleanRow._make, zip(
        rounds.game_ids,
        rounds.round_indices,
        rounds.speaker_ids,
        [rounds.vocab[w] for w in rounds.word_ids.tolist()],
        [keys[c] for c in rounds.chip_ids.tolist()],
        *([_code_key(c) for c in column]
          for column in rounds.codes[:, 1:].T.tolist()),
        rounds.ease.tolist(),
        map(tuple, rounds.target.tolist()),
        map(tuple, rounds.distractor1.tolist()),
        map(tuple, rounds.distractor2.tolist()),
    )))


def rounds_from_rows(rows) -> Rounds:
    """The Rounds table of the given CleanRow tuples, in their order,
    with their own ease and Lab, which need not be their keys'."""
    words: dict[str, int] = {}
    word_ids = np.array([words.setdefault(r.word, len(words)) for r in rows],
                        dtype=np.intp)
    codes = np.array([[(h * 101 + s) * 101 + l for h, s, l in keys]
                      for keys in (r[4:7] for r in rows)],
                     dtype=np.int64).reshape(-1, 3)
    chip_keys, chip_ids = _numbered(codes[:, 0])
    return Rounds(
        vocab=tuple(words),
        word_ids=word_ids,
        codes=codes, chip_keys=chip_keys, chip_ids=chip_ids,
        ease=np.array([r.ease for r in rows], dtype=np.float64),
        game_ids=[r.game_id for r in rows],
        speaker_ids=[r.speaker_id for r in rows],
        round_indices=[r.round_index for r in rows],
        lab=tuple(np.array([r[k] for r in rows],
                           dtype=np.float64).reshape(-1, 3)
                  for k in (8, 9, 10)))
