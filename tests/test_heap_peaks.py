"""Heap peaks of `clean`, `write_clean_rounds` and `read_clean_rounds`.

Each of them works through the table `corpus._ROW_BLOCK` rows at a
time, so its heap peak grows with the table only by what it keeps: the
table's columns, not whole-table lists of text or floats. The guards
below bound the `tracemalloc` peak of each on a 20,000-round table: the
reader's by a multiple of the file's bytes, `clean`'s and the writer's
by bytes per row. `tracemalloc` counts what Python and numpy allocate,
not the pages the process holds, so the bounds do not depend on the
host.

Each bound sits between the peak of the whole-table code these
functions replaced and their own (measured at this size, in the
comment beside it).
"""

import os
import tracemalloc

import numpy as np
import pytest

from colorlex.corpus import (
    RawRounds,
    clean,
    read_clean_rounds,
    write_clean_rounds,
)

N_ROWS = 20_000

# whole-table code 7.3 times the file's bytes, block by block 5.6
READ_PER_BYTE = 6.4
# whole-table code 730 bytes per row, block by block 421
CLEAN_PER_ROW = 575
# whole-table code 405 bytes per row, block by block 244
WRITE_PER_ROW = 325


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


def test_clean(raw):
    assert heap_peak(clean, raw) <= CLEAN_PER_ROW * len(raw)


def test_write_clean_rounds(rounds):
    with open(os.devnull, "w", encoding="utf-8") as handle:
        peak = heap_peak(write_clean_rounds, handle, rounds, "# heap")
    assert peak <= WRITE_PER_ROW * len(rounds)


def test_read_clean_rounds(table):
    with open(table, encoding="utf-8") as handle:
        peak = heap_peak(read_clean_rounds, handle)
    assert peak <= READ_PER_BYTE * table.stat().st_size
