"""Lexical-system simulation over the chips a corpus actually named.

Every target chip that received at least two distinct names (words
surviving the frequency threshold) becomes a referent. A simulated
reference game enumerates all ordered (target, distractor) referent
pairs. One speaker rule is played over three lexicons: the speaker
utters the least informative of the target's names in the lexicon that
does not apply to the distractor, or, if every one applies, the most
informative. The listener picks the target unless the uttered word also
applies to the distractor, judged by every name the corpus gave the
distractor whatever the lexicon; then it guesses (half credit, as an
expected value rather than a coin flip). The lexicons:

  actual         every name a referent received
  general_only   only its least informative name
  specific_only  only its most informative name

Accuracy is tallied in integers (chance = 1, success = 2, out of two
per interaction) and the mean informativeness of uttered words is a
compensated sum over per-word tallies, so results are exact and
independent of referent or word enumeration order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from math import fsum
from typing import Iterable, Mapping, Sequence, TextIO

import numpy as np

from . import kernels
from .colorspace import LabColor
from .corpus import (
    LAB_COLUMNS,
    ChipKey,
    Rounds,
    format_chip_key,
    lab_fields,
    write_table,
)
from .errors import ColorlexError
from .informativeness import WordInfo

__all__ = [
    "SystemVariant",
    "ReferentEntry",
    "SimResult",
    "Stimulus",
    "SimulationError",
    "build_entries",
    "run_simulation",
    "run_all_variants",
    "generate_stimuli",
    "write_simulation",
    "write_stimuli",
]


class SimulationError(ColorlexError):
    pass


class SystemVariant(Enum):
    ACTUAL = "actual"
    GENERAL_ONLY = "general_only"
    SPECIFIC_ONLY = "specific_only"


@dataclass(frozen=True)
class ReferentEntry:
    """A referent chip and its (word, i_w) names, least informative first.

    Names are sorted ascending by (i_w, word) and contain at least two
    distinct words, so the general name (names[0]) and the specific
    name (names[-1]) always differ as words; equal scores fall back to
    lexicographic order.
    """

    key: ChipKey
    names: tuple[tuple[str, float], ...]

    @property
    def general(self) -> str:
        return self.names[0][0]

    @property
    def specific(self) -> str:
        return self.names[-1][0]


@dataclass(frozen=True)
class SimResult:
    variant: SystemVariant
    accuracy: float
    i_l: float
    n_interactions: int
    vocab_size: int
    counts: Mapping[str, int]


@dataclass(frozen=True)
class Stimulus:
    """One corpus round selected for elicitation, with simulated names.

    simulated_general is the least informative name the target chip
    received across contexts, present only when strictly less
    informative than the name actually uttered; simulated_specific is
    the most informative one, present only when strictly more
    informative. A chip with no alternative names gets neither.
    """

    target: LabColor
    distractor1: LabColor
    distractor2: LabColor
    target_key: ChipKey
    actual_name: str
    simulated_general: str | None
    simulated_specific: str | None
    ease: float
    bin_index: int


def build_entries(
    rounds: Rounds, infos: Mapping[str, WordInfo]
) -> tuple[list[ReferentEntry], dict]:
    """Collect referents that received at least two distinct names.

    Words without an informativeness entry (below the frequency
    threshold) are dropped first; chips left with fewer than two
    distinct names are skipped. The report counts skipped chips,
    dropped names, and entries whose name order needed a lexicographic
    tie-break.
    """
    n_words = len(rounds.vocab)
    # Distinct (chip, word) pairs, by chip id (ascending key), then word.
    chips, words = np.divmod(
        np.unique(rounds.chip_ids.astype(np.int64) * n_words
                  + rounds.word_ids),
        n_words)
    n_chips = int(np.count_nonzero(np.diff(chips, prepend=-1)))
    named = np.array([w in infos for w in rounds.vocab], dtype=bool)[words]
    chips, words = chips[named], words[named]
    starts = np.flatnonzero(np.diff(chips, prepend=-1))
    ends = np.append(starts[1:], len(chips))
    starts, ends = starts[ends - starts >= 2], ends[ends - starts >= 2]
    entries: list[ReferentEntry] = []
    ties = 0
    for chip, a, b in zip(chips[starts].tolist(), starts.tolist(),
                          ends.tolist()):
        ordered = tuple(
            (w, infos[w].i_w)
            for w in sorted((rounds.vocab[i] for i in words[a:b].tolist()),
                            key=lambda w: (infos[w].i_w, w))
        )
        scores = [i for _, i in ordered]
        if len(set(scores)) != len(scores):
            ties += 1
        entries.append(
            ReferentEntry(tuple(rounds.chip_keys[chip].tolist()), ordered))
    report = {
        "n_referents": len(entries),
        "skipped_few_names": n_chips - len(entries),
        "dropped_names": int(np.count_nonzero(~named)),
        "tie_entries": ties,
    }
    return entries, report


def _vocab_arrays(entries: Sequence[ReferentEntry]):
    """Kernel inputs, which every variant shares; a word applies to the
    referents it names. Also each word's informativeness, in vocab
    order."""
    if len(entries) < 2:
        raise SimulationError(f"need at least 2 referents, got {len(entries)}")
    i_w_of = {w: i_w for e in entries for w, i_w in e.names}
    vocab = sorted(i_w_of)
    index = {w: i for i, w in enumerate(vocab)}
    offsets = np.zeros(len(entries) + 1, dtype=np.int64)
    flat: list[int] = []
    for i, e in enumerate(entries):
        flat.extend(index[w] for w, _ in e.names)
        offsets[i + 1] = len(flat)
    words = np.array(flat, dtype=np.int64)
    app = np.zeros((len(entries), len(vocab)), dtype=np.uint8)
    app[np.repeat(np.arange(len(entries)), np.diff(offsets)), words] = 1
    return vocab, [i_w_of[w] for w in vocab], offsets, words, app


def _play(arrays, variant: SystemVariant) -> SimResult:
    """One variant's result from the _vocab_arrays of its entries."""
    vocab, i_ws, offsets, words, app = arrays
    n = len(offsets) - 1
    if variant is not SystemVariant.ACTUAL:
        # One name per referent; `app` still holds every name.
        general = variant is SystemVariant.GENERAL_ONLY
        words = words[offsets[:-1]] if general else words[offsets[1:] - 1]
        offsets = np.arange(n + 1)
    acc_twice, counts = kernels.simulate_counts(offsets, words, app)
    n_inter = n * (n - 1)
    accuracy = acc_twice / (2 * n_inter)
    counts = counts.tolist()
    i_l = fsum(c * i_w for c, i_w in zip(counts, i_ws)) / n_inter
    tallies = {w: c for w, c in zip(vocab, counts) if c > 0}
    return SimResult(variant, accuracy, i_l, n_inter, len(np.unique(words)),
                     tallies)


def run_simulation(
    entries: Sequence[ReferentEntry], variant: SystemVariant
) -> SimResult:
    """Play every ordered referent pair once over one variant's lexicon."""
    return _play(_vocab_arrays(entries), variant)


def run_all_variants(
    entries: Sequence[ReferentEntry],
) -> dict[SystemVariant, SimResult]:
    """run_simulation of each variant, the shared inputs built once."""
    arrays = _vocab_arrays(entries)
    return {v: _play(arrays, v) for v in SystemVariant}


def _ease_pools(rounds: Rounds, eligible: np.ndarray,
                bins: int) -> list[list[int]]:
    """The eligible rows of each of `bins` equal-width ease bins, in row
    order. Row i falls in bin int((ease[i] - lo) / width), the top edge
    in the last bin, where lo and hi are the least and greatest eligible
    ease and width = (hi - lo) / bins; all rows are in bin 0 when
    lo == hi. A width that underflows to zero (hi - lo a few subnormal
    steps) is divided out as (ease[i] - lo) / (hi - lo) * bins."""
    ease = rounds.ease[eligible]
    lo, hi = ease.min(), ease.max()
    offset = ease - lo
    width = (hi - lo) / bins
    if width > 0.0:
        offset /= width
    elif hi > lo:
        offset = offset / (hi - lo) * bins
    bin_of = np.minimum(offset.astype(np.intp), bins - 1)
    rows = eligible[np.argsort(bin_of, kind="stable")].tolist()
    ends = np.cumsum(np.bincount(bin_of, minlength=bins)).tolist()
    return [rows[a:b] for a, b in zip([0] + ends[:-1], ends)]


def generate_stimuli(
    rounds: Rounds,
    entries: Sequence[ReferentEntry],
    infos: Mapping[str, WordInfo],
    n: int = 100,
    bins: int = 10,
    seed: int = 0,
) -> tuple[list[Stimulus], dict]:
    """Sample corpus rounds evenly across the context-ease range.

    Rounds whose word has an informativeness entry are eligible. Ease
    values are split into equal-width bins and n // bins rounds are
    drawn from each; when a bin holds too few rounds the shortfall
    moves to the nearest bins that still have spares, recorded in the
    report. Each stimulus carries the alternative names of its target
    chip per the Stimulus rules.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if bins < 1:
        raise ValueError(f"bins must be positive, got {bins}")
    if n % bins != 0:
        raise ValueError(f"bins must divide n evenly, got n={n} bins={bins}")
    by_key = {e.key: e for e in entries}
    known = np.array([w in infos for w in rounds.vocab], dtype=bool)
    eligible = np.flatnonzero(known[rounds.word_ids])
    if len(eligible) < n:
        raise SimulationError(f"only {len(eligible)} eligible rounds, need {n}")
    pools = _ease_pools(rounds, eligible, bins)
    ease = rounds.ease.tolist()
    quota = n // bins
    take = [min(quota, len(p)) for p in pools]
    short = [b for b in range(bins) if take[b] < quota]
    moved: dict[int, int] = {}
    for b in short:
        # From the nearest bins with spare rounds, the lower index first
        # on a tie; n eligible rounds always leave enough spares.
        deficit = quota - take[b]
        for other in sorted(range(bins), key=lambda o: (abs(o - b), o)):
            extra = min(deficit, len(pools[other]) - take[other])
            if extra > 0:
                take[other] += extra
                moved[other] = moved.get(other, 0) + extra
                deficit -= extra
    rng = random.Random(seed)
    picked: list[tuple[int, int]] = []  # (bin, row)
    for b in range(bins):
        picked.extend((b, i) for i in sorted(
            rng.sample(pools[b], take[b]),
            key=lambda i: (ease[i], rounds.game_ids[i],
                           rounds.round_indices[i]),
        ))
    # Only the picked rounds' Lab values are read.
    chosen = rounds.take([i for _, i in picked])
    lab = zip(chosen.target.tolist(), chosen.distractor1.tolist(),
              chosen.distractor2.tolist())
    stimuli: list[Stimulus] = []
    for (b, i), (target, d1, d2) in zip(picked, lab):
        key = tuple(rounds.chip_keys[rounds.chip_ids[i]].tolist())
        word = rounds.vocab[rounds.word_ids[i]]
        entry = by_key.get(key)
        actual_i_w = infos[word].i_w
        general = specific = None
        if entry is not None:
            if entry.names[0][1] < actual_i_w:
                general = entry.general
            if entry.names[-1][1] > actual_i_w:
                specific = entry.specific
        stimuli.append(
            Stimulus(
                target=LabColor(*target),
                distractor1=LabColor(*d1),
                distractor2=LabColor(*d2),
                target_key=key,
                actual_name=word,
                simulated_general=general,
                simulated_specific=specific,
                ease=ease[i],
                bin_index=b,
            )
        )
    report = {
        "n_eligible": len(eligible),
        "bin_counts": take,
        "underpopulated_bins": short,
        "rebalanced": moved,
    }
    return stimuli, report


_SIMULATION_COLUMNS = ("variant", "accuracy", "i_l", "n_interactions",
                       "vocab_size")


def write_simulation(
    handle: TextIO, results: Iterable[SimResult], header_comment: str
) -> None:
    write_table(handle, header_comment, _SIMULATION_COLUMNS, (
        [r.variant.value, repr(r.accuracy), repr(r.i_l),
         str(r.n_interactions), str(r.vocab_size)]
        for r in results
    ))


_STIMULUS_COLUMNS = ("bin", "ease", "target_key", "actual",
                     "simulated_general", "simulated_specific") + LAB_COLUMNS


def write_stimuli(
    handle: TextIO, stimuli: Iterable[Stimulus], header_comment: str
) -> None:
    write_table(handle, header_comment, _STIMULUS_COLUMNS, (
        [str(s.bin_index), repr(s.ease), format_chip_key(s.target_key),
         s.actual_name, s.simulated_general or "",
         s.simulated_specific or "",
         *lab_fields(s.target, s.distractor1, s.distractor2)]
        for s in stimuli
    ))
