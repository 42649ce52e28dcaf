"""Word spread and informativeness measures.

A word's spread is the mean pairwise CIELAB distance between the chips
in its denotation; informativeness is the reciprocal, scaled by 100 for
readability (most raw values sit around 1e-2). Large denotations are
estimated by repeatedly subsampling a fixed number of chips and
averaging the per-sample informativeness, which removes denotation-size
effects; the subsample RNG is seeded per word, so results do not depend
on the order in which words are processed.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from math import fsum
from typing import Iterable, Mapping, Sequence, TextIO

import numpy as np

from . import kernels
from .corpus import _in_range, _parse_column, read_table, write_table
from .errors import ColorlexError

__all__ = [
    "SCALE",
    "WordInfo",
    "SamplingConfig",
    "InsufficientDenotationError",
    "DegenerateDenotationError",
    "derive_seed",
    "spread",
    "informativeness",
    "compute_word_infos",
    "vocab_scores",
    "write_word_infos",
    "read_word_infos",
]

# Reciprocal-spread scores are multiplied by 10^2 for readability.
# Applied in informativeness() only, never in spread().
SCALE = 100.0


class InsufficientDenotationError(ColorlexError):
    """Fewer than two chips: spread is undefined."""


class DegenerateDenotationError(ColorlexError):
    """All chips identical: spread is zero and informativeness diverges."""


@dataclass(frozen=True)
class WordInfo:
    """Spread and informativeness of one word.

    For exact computations (sampled=False) i_w == SCALE / spread. For
    subsampled estimates both fields are means over the samples, so the
    identity holds only approximately.
    """

    word: str
    spread: float
    i_w: float
    n_chips: int
    sampled: bool


@dataclass(frozen=True)
class SamplingConfig:
    """Subsampling scheme for large denotations.

    Denotations with more than max_exact chips are estimated from
    `iterations` random subsamples of `sample_size` chips each (drawn
    without replacement within a sample).
    """

    max_exact: int = 100
    sample_size: int = 100
    iterations: int = 30
    seed: int = 0

    def __post_init__(self):
        if self.max_exact < 2:
            raise ValueError("max_exact must be at least 2")
        if not (2 <= self.sample_size <= self.max_exact):
            raise ValueError("sample_size must be in [2, max_exact]")
        if self.iterations < 1:
            raise ValueError("iterations must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")


def spread(chips: np.ndarray) -> float:
    """Mean pairwise CIELAB distance over a denotation's (n, 3) chips
    (unscaled)."""
    pts = np.ascontiguousarray(chips, dtype=np.float64)
    if pts.shape[0] < 2:
        raise InsufficientDenotationError(
            f"need at least 2 chips, got {pts.shape[0]}"
        )
    value = kernels.mean_pairwise_distance(pts)
    if value == 0.0:
        raise DegenerateDenotationError("all chips identical; spread is zero")
    return value


def derive_seed(seed: int, label: str) -> int:
    """Stable sub-seed for one labeled consumer of the run seed.

    Hashing the label in keeps independently seeded stages (per-word
    subsampling, stimulus selection) decorrelated and insensitive to
    the order in which they run.
    """
    digest = hashlib.sha256(f"{seed}:{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def informativeness(
    chips: np.ndarray,
    cfg: SamplingConfig,
    word: str = "",
) -> WordInfo:
    """Informativeness of a denotation: SCALE / spread.

    Exact when the denotation has at most cfg.max_exact chips;
    otherwise the mean over cfg.iterations subsample estimates.
    Deterministic given (cfg.seed, word). An undefined spread raises
    spread()'s error, naming the word, its chip count and the subsample.
    """
    pts = np.ascontiguousarray(chips, dtype=np.float64)
    n = pts.shape[0]
    spreads = []  # one per subsample
    try:
        if n <= cfg.max_exact:
            s = spread(pts)
            return WordInfo(word, s, SCALE / s, n, sampled=False)
        rng = np.random.default_rng(derive_seed(cfg.seed, word))
        for _ in range(cfg.iterations):
            idx = rng.choice(n, size=cfg.sample_size, replace=False)
            spreads.append(spread(pts[idx]))
    except (InsufficientDenotationError, DegenerateDenotationError) as exc:
        of = (f", subsample {len(spreads) + 1} of {cfg.iterations}"
              if n > cfg.max_exact else "")
        raise type(exc)(f"word {word!r} ({n} chips{of}): {exc}") from None
    return WordInfo(
        word,
        fsum(spreads) / cfg.iterations,
        fsum(SCALE / s for s in spreads) / cfg.iterations,
        n,
        sampled=True,
    )


def compute_word_infos(
    denotations: Mapping[str, np.ndarray], cfg: SamplingConfig
) -> dict[str, WordInfo]:
    """Informativeness of each word's (k, 3) chips, keyed by word."""
    return {
        word: informativeness(chips, cfg, word=word)
        for word, chips in denotations.items()
    }


def vocab_scores(vocab: Sequence[str], infos: Mapping[str, WordInfo]
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Per vocab id: whether the word has an info entry (bool), and its
    i_w (float64, 0.0 where it has none)."""
    known = [w in infos for w in vocab]
    i_w = [infos[w].i_w if k else 0.0 for w, k in zip(vocab, known)]
    return np.array(known, dtype=bool), np.array(i_w, dtype=np.float64)


_INFO_COLUMNS = ("word", "n_chips", "spread", "i_w", "sampled")
# spread and i_w as read back lie in (0, _INFO_LIMIT]. A real spread is a
# mean CIELAB distance, below 2,000; the fits square i_w and add it up
# over every row, which stays finite for any table below this bound.
_INFO_LIMIT = 1e100


def write_word_infos(
    handle: TextIO, infos: Iterable[WordInfo], header_comment: str
) -> None:
    """Write the word-info table (repr-precision floats)."""
    write_table(handle, header_comment, _INFO_COLUMNS, (
        [info.word, str(info.n_chips), repr(info.spread), repr(info.i_w),
         str(int(info.sampled))]
        for info in infos
    ))


def read_word_infos(handle: TextIO) -> dict[str, WordInfo]:
    """Read a table written by write_word_infos: each word's WordInfo,
    in file order, one read_table block at a time.

    A malformed line is a ValueError naming its "path:line" and column:
    an n_chips that is not an integer of at least 2 (spread needs two
    chips), a spread or i_w that is not a number in (0, _INFO_LIMIT], a
    sampled that is not 0 or 1, or a word on an earlier line too. The
    first bad block wins, and within it a row that does not hold one
    field per column comes first, then the checks in that order.
    """
    infos: dict[str, WordInfo] = {}
    for where, (words, n_text, spread_text, i_w_text, sampled_text) in (
            read_table(handle, _INFO_COLUMNS)):
        n_chips = _in_range(
            _parse_column(int, n_text, "n_chips", where, np.int64),
            2, np.inf, "n_chips", where)
        spreads, i_ws = (
            _in_range(_parse_column(float, text, column, where, np.float64),
                      0, _INFO_LIMIT, column, where, open_low=True)
            for column, text in (("spread", spread_text), ("i_w", i_w_text)))
        sampled = _in_range(
            _parse_column(int, sampled_text, "sampled", where, np.int64),
            0, 1, "sampled", where)
        before = len(infos)
        infos.update(zip(words, map(
            WordInfo, words, spreads.tolist(), i_ws.tolist(),
            n_chips.tolist(), sampled.astype(bool).tolist())))
        if len(infos) != before + len(words):  # a word repeats
            first = dict(zip(infos, range(len(infos))))  # its first row
            i = next(i for i, w in enumerate(words) if first[w] < before + i)
            line = where(first[words[i]] - before).rpartition(":")[2]
            raise ValueError(
                f"{where(i)}: word: {words[i]!r} also on line {line}")
    return infos
