"""Heap peaks of `ingest`, `clean`, `write_clean_rounds` and
`read_clean_rounds`, and the heap a read table keeps.

Each of them works through the table `corpus._ROW_BLOCK` rows at a
time, so its heap peak grows with the table only by what it keeps: the
table's columns, not whole-table lists of text or floats. The guards
below bound the `tracemalloc` peak of each on a 20,000-round table:
`ingest`'s by a multiple of the corpus's bytes, the others' by bytes
per round (a clean_rounds.tsv line holds three chip keys, about 45
bytes, so a multiple of its bytes would say little about the table
read from it). `tracemalloc` counts what Python and numpy allocate, not
the pages the process holds, so the bounds do not depend on the host.

Each bound sits between the peak of the code these functions replaced
and their own (measured at this size, in the comment beside it).
"""

import csv
import os
import tracemalloc

import numpy as np
import pytest

from colorlex.corpus import (
    CANONICAL_FIELDS,
    RawRounds,
    clean,
    ingest,
    read_clean_rounds,
    write_clean_rounds,
)

N_ROWS = 20_000

# Lab and ease stored as text (209 bytes per row), the Lab kept as text
# until used, 334 bytes per row; three chip keys per row (45 bytes), the
# Lab and ease derived on read, each distinct key converted once, 264
READ_PER_ROW = 300
# the Lab kept as text 243 bytes per row, as three float64 arrays 174
READ_KEEPS_PER_ROW = 210
# 8,192-row blocks, one string per row and id 11.7 times the CSV's
# bytes; 2,048-row blocks sharing repeated ids and utterances 5.8 (8.5
# without the sharing)
INGEST_PER_BYTE = 7.0
# 2,048-row blocks of chips converted 250 bytes per row; each distinct
# chip key converted once, the raw rows' indices freed first, 229
CLEAN_PER_ROW = 240
# Lab and ease formatted with repr, 2,048-row blocks, 163 bytes per
# row; three chip keys, 29
WRITE_PER_ROW = 100


def _raw_rounds(n: int, seed: int) -> RawRounds:
    """n solved one-word rounds: 600 Zipf-weighted words, chips drawn
    from the integer HSL grid, 50 rounds per game."""
    rng = np.random.default_rng(seed)
    weights = 1.0 / np.arange(1, 601)
    words = rng.choice(600, size=n, p=weights / weights.sum()).tolist()
    games = [f"g{i // 50}" for i in range(n)]

    def chips():
        return np.column_stack([rng.integers(0, 360, n).astype(np.float64),
                                rng.integers(0, 101, n) / 100.0,
                                rng.integers(0, 101, n) / 100.0])

    return RawRounds(
        game_ids=games, round_indices=[i % 50 + 1 for i in range(n)],
        utterances=[f"w{w}" for w in words], speaker_ids=games,
        listener_correct=np.ones(n, dtype=bool),
        target=chips(), distractor1=chips(), distractor2=chips())


def heap_peak(fn, *args) -> int:
    """The tracemalloc peak, in bytes, of fn(*args)."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def heap_kept(fn, *args) -> tuple[object, int]:
    """fn(*args), and the tracemalloc bytes it still holds on return."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def write_corpus(path, raw: RawRounds) -> None:
    """The rounds as a corpus CSV in canonical layout, percent scale."""
    columns = {
        "game_id": raw.game_ids, "round_index": raw.round_indices,
        "utterance": raw.utterances,
        "listener_correct": ["true" if c else "false"
                             for c in raw.listener_correct.tolist()],
        "speaker_id": raw.speaker_ids,
    }
    for name in ("target", "distractor1", "distractor2"):
        hsl = getattr(raw, name) * [1.0, 100.0, 100.0]
        for k, channel in enumerate("hsl"):
            columns[f"{name}_{channel}"] = np.rint(
                hsl[:, k]).astype(np.int64).tolist()
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(CANONICAL_FIELDS)
        writer.writerows(zip(*(columns[f] for f in CANONICAL_FIELDS)))


def distinct_objects(values: list[str]) -> tuple[int, int]:
    """The number of string objects, and of distinct values, in a list."""
    return len(set(map(id, values))), len(set(values))


@pytest.fixture(scope="module")
def raw():
    return _raw_rounds(N_ROWS, 5)


@pytest.fixture(scope="module")
def rounds(raw):
    return clean(raw)


@pytest.fixture(scope="module")
def table(rounds, tmp_path_factory):
    path = tmp_path_factory.mktemp("heap") / "clean_rounds.tsv"
    with open(path, "w", encoding="utf-8") as handle:
        write_clean_rounds(handle, rounds, "# heap")
    return path


@pytest.fixture(scope="module")
def corpus_csv(raw, tmp_path_factory):
    path = tmp_path_factory.mktemp("heap") / "corpus.csv"
    write_corpus(path, raw)
    return path


def test_ingest(corpus_csv):
    assert heap_peak(ingest, corpus_csv) <= (
        INGEST_PER_BYTE * corpus_csv.stat().st_size)


def test_ingest_shares_repeated_strings(raw, corpus_csv):
    got, rejects = ingest(corpus_csv)
    assert not rejects and got.game_ids == raw.game_ids
    for column in (got.game_ids, got.speaker_ids, got.utterances):
        objects, values = distinct_objects(column)
        assert objects == values < len(column)


def test_clean(raw):
    assert heap_peak(clean, raw) <= CLEAN_PER_ROW * len(raw)


def test_write_clean_rounds(rounds):
    with open(os.devnull, "w", encoding="utf-8") as handle:
        peak = heap_peak(write_clean_rounds, handle, rounds, "# heap")
    assert peak <= WRITE_PER_ROW * len(rounds)


def test_read_clean_rounds(table):
    with open(table, encoding="utf-8") as handle:
        peak = heap_peak(read_clean_rounds, handle)
    assert peak <= READ_PER_ROW * N_ROWS


def test_read_table_keeps_one_string_per_id(table):
    with open(table, encoding="utf-8") as handle:
        got, kept = heap_kept(read_clean_rounds, handle)
    assert kept <= READ_KEEPS_PER_ROW * N_ROWS
    for column in (got.game_ids, got.speaker_ids):
        objects, values = distinct_objects(column)
        assert objects == values < len(column)
