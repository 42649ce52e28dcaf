"""The per-row corpus code, kept as the oracle for the columnar one.

`oracle_ingest` reads a corpus row by row into RawRound objects, with
its own checks and reject reasons, as the package did before `ingest`
parsed blocks of rows column by column into a `RawRounds` table.
`oracle_clean` and `oracle_write_clean_rounds` clean raw rounds into
`CleanRow` tuples, converting each chip with the scalar colorspace
functions, and write them line by line, as the package did before
`clean` converted all chips in one batch and wrote a `Rounds` table.
`oracle_read_clean_rounds` parses a clean_rounds.tsv table line by line
into `CleanRow` tuples, as the package did before `read_clean_rounds`
read it column by column. `oracle_chip_table` numbers chip key texts by
parsing each distinct one with int() and sorting the triples, as the
package did before it numbered chips by their integer codes. `rounds_rows` gives a `Rounds` table's rows in
the same form, so that tests can compare tables by repr, which tells
-0.0 from 0.0 and shows NaN; `rounds_from_rows` writes such rows and
reads them back as a table.
"""

import csv
import io
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
    chip_key,
    format_chip_key,
    normalize_utterance,
    read_clean_rounds,
    write_table,
)
from colorlex.errors import not_utf8

_CLEAN_COLUMNS = ("game_id", "round_index", "speaker_id", "word",
                  "target_key", "ease") + tuple(
    f"{c}_{ch}" for c in ("target", "d1", "d2") for ch in "lab")

Lab = tuple[float, float, float]


class CleanRow(NamedTuple):
    """One clean round, as a clean_rounds.tsv line holds it: speaker_id
    is "" when the corpus has none, and each Lab value is (L*, a*, b*)."""

    game_id: str
    round_index: int
    speaker_id: str
    word: str
    target_key: tuple[int, int, int]
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


def _to_lab(c):
    return srgb_to_lab(hsl_to_srgb(c))


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
        target = _to_lab(r.target)
        d1 = _to_lab(r.distractor1)
        d2 = _to_lab(r.distractor2)
        out.append(CleanRow(
            r.game_id, r.round_index, r.speaker_id or "", tokens[0],
            chip_key(r.target), context_ease(target, d1, d2),
            _lab(target), _lab(d1), _lab(d2)))
    return out


def oracle_write_clean_rounds(handle, rows, header_comment) -> None:
    write_table(handle, header_comment, _CLEAN_COLUMNS, (
        [r.game_id, str(r.round_index), r.speaker_id, r.word,
         format_chip_key(r.target_key), repr(r.ease),
         *(repr(v) for lab in (r.target, r.d1, r.d2) for v in lab)]
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
    for (game_id, round_index, speaker, word, key, ease,
         *lab) in _table_rows(handle, _CLEAN_COLUMNS):
        tl, ta, tb, d1l, d1a, d1b, d2l, d2a, d2b = map(float, lab)
        kh, ks, kl = key.split(":")
        rows.append(CleanRow(
            game_id, int(round_index), speaker, word,
            (int(kh), int(ks), int(kl)), float(ease),
            (tl, ta, tb), (d1l, d1a, d1b), (d2l, d2a, d2b)))
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


def rounds_rows(rounds: Rounds) -> list[CleanRow]:
    """A Rounds table's rounds as CleanRow tuples (converts all Lab)."""
    keys = [tuple(k) for k in rounds.chip_keys.tolist()]
    return list(map(CleanRow._make, zip(
        rounds.game_ids,
        rounds.round_indices,
        rounds.speaker_ids,
        [rounds.vocab[w] for w in rounds.word_ids.tolist()],
        [keys[c] for c in rounds.chip_ids.tolist()],
        rounds.ease.tolist(),
        map(tuple, rounds.target.tolist()),
        map(tuple, rounds.distractor1.tolist()),
        map(tuple, rounds.distractor2.tolist()),
    )))


def rounds_from_rows(rows) -> Rounds:
    """The Rounds table of the given CleanRow tuples, in their order:
    written by oracle_write_clean_rounds, read by read_clean_rounds."""
    buffer = io.StringIO()
    oracle_write_clean_rounds(buffer, rows, "# rows")
    buffer.seek(0)
    return read_clean_rounds(buffer)
