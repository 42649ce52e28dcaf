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

The referents are columns, one `Referents` table: their chip keys in
ascending order, and their names as CSR word ids into the corpus
vocabulary, least informative first.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from math import fsum
from typing import Iterable, Mapping, TextIO

import numpy as np

from . import kernels
from .colorspace import LabColor
from .corpus import ChipKey, Rounds, format_chip_key, write_table
from .errors import ColorlexError
from .informativeness import WordInfo, vocab_scores

__all__ = [
    "SystemVariant",
    "Referents",
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


@dataclass(frozen=True, eq=False)
class Referents:
    """The referents as columns: `keys`, their (m, 3) int64 chip keys in
    ascending order, and their names, referent r's being the int64
    vocab ids words[offsets[r]:offsets[r + 1]], sorted by (i_w, word) so
    that the general name comes first and the specific name last. `i_w`
    is each vocab word's informativeness (0.0 for one without an entry).
    """

    keys: np.ndarray
    offsets: np.ndarray
    words: np.ndarray
    vocab: tuple[str, ...]
    i_w: np.ndarray

    def __len__(self) -> int:
        return len(self.keys)


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
) -> tuple[Referents, dict]:
    """Collect referents that received at least two distinct names.

    Words without an informativeness entry (below the frequency
    threshold) are dropped first; chips left with fewer than two
    distinct names are skipped. The report counts skipped chips,
    dropped names, and referents whose name order needed a
    lexicographic tie-break.
    """
    n_words = len(rounds.vocab)
    known, i_w = vocab_scores(rounds.vocab, infos)
    # Distinct (chip, word) pairs, by chip id (ascending key), then word.
    chips, words = np.divmod(
        np.unique(rounds.chip_ids.astype(np.int64) * n_words
                  + rounds.word_ids),
        n_words)
    n_chips = int(np.count_nonzero(np.diff(chips, prepend=-1)))
    named = known[words]
    chips, words = chips[named], words[named]
    kept = np.bincount(chips)[chips] >= 2
    chips, words = chips[kept], words[kept]
    rank = np.empty(n_words, dtype=np.int64)
    rank[sorted(range(n_words), key=rounds.vocab.__getitem__)] = np.arange(
        n_words)
    # Chips stay in place: they are the primary key and already sorted.
    words = words[np.lexsort((rank[words], i_w[words], chips))]
    starts = np.flatnonzero(np.diff(chips, prepend=-1))
    scores = i_w[words]
    tied = (scores[1:] == scores[:-1]) & (chips[1:] == chips[:-1])
    referents = Referents(
        keys=rounds.chip_keys[chips[starts]],
        offsets=np.append(starts, len(chips)), words=words,
        vocab=rounds.vocab, i_w=i_w)
    report = {
        "n_referents": len(referents),
        "skipped_few_names": n_chips - len(referents),
        "dropped_names": int(np.count_nonzero(~named)),
        "tie_entries": len(np.unique(chips[1:][tied])),
    }
    return referents, report


def run_simulation(referents: Referents,
                   variant: SystemVariant) -> SimResult:
    """Play every ordered referent pair once over one variant's lexicon;
    a word applies to the referents it names, whatever the variant."""
    n = len(referents)
    if n < 2:
        raise SimulationError(f"need at least 2 referents, got {n}")
    offsets = referents.offsets
    used, words = np.unique(referents.words, return_inverse=True)
    app = np.zeros((n, len(used)), dtype=np.uint8)
    app[np.repeat(np.arange(n), np.diff(offsets)), words] = 1
    if variant is not SystemVariant.ACTUAL:
        # One name per referent; `app` still holds every name.
        general = variant is SystemVariant.GENERAL_ONLY
        words = words[offsets[:-1]] if general else words[offsets[1:] - 1]
        offsets = np.arange(n + 1)
    acc_twice, counts = kernels.simulate_counts(offsets, words, app)
    n_inter = n * (n - 1)
    i_l = fsum((counts * referents.i_w[used]).tolist()) / n_inter
    tallies = dict(sorted((referents.vocab[w], c) for w, c in
                          zip(used.tolist(), counts.tolist()) if c > 0))
    return SimResult(variant, acc_twice / (2 * n_inter), i_l, n_inter,
                     len(np.unique(words)), tallies)


def run_all_variants(referents: Referents) -> dict[SystemVariant, SimResult]:
    """run_simulation of each variant."""
    return {v: run_simulation(referents, v) for v in SystemVariant}


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
    referents: Referents,
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
    known, i_w = vocab_scores(rounds.vocab, infos)
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
    rows = [i for _, i in picked]
    keys = rounds.chip_keys[rounds.chip_ids[rows]]
    # Each picked round's referent, found by key code (ascending keys,
    # ascending codes): `referents` may come from another table.
    codes, wanted = ((k[:, 0] * 101 + k[:, 1]) * 101 + k[:, 2]
                     for k in (referents.keys, keys))
    at = np.searchsorted(codes, wanted).tolist()
    generals = referents.words[referents.offsets[:-1]].tolist()
    specifics = referents.words[referents.offsets[1:] - 1].tolist()
    ref_i_w = referents.i_w.tolist()
    stimuli: list[Stimulus] = []
    for (b, i), key, hit, r, actual_i_w, target, d1, d2 in zip(
            picked, keys.tolist(), np.isin(wanted, codes).tolist(), at,
            i_w[rounds.word_ids[rows]].tolist(),
            rounds.target[rows].tolist(), rounds.distractor1[rows].tolist(),
            rounds.distractor2[rows].tolist()):
        general = specific = None
        if hit and ref_i_w[generals[r]] < actual_i_w:
            general = referents.vocab[generals[r]]
        if hit and ref_i_w[specifics[r]] > actual_i_w:
            specific = referents.vocab[specifics[r]]
        stimuli.append(
            Stimulus(
                target=LabColor(*target),
                distractor1=LabColor(*d1),
                distractor2=LabColor(*d2),
                target_key=tuple(key),
                actual_name=rounds.vocab[rounds.word_ids[i]],
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
                     "simulated_general", "simulated_specific") + tuple(
    f"{c}_{ch}" for c in ("target", "d1", "d2") for ch in "lab")


def write_stimuli(
    handle: TextIO, stimuli: Iterable[Stimulus], header_comment: str
) -> None:
    write_table(handle, header_comment, _STIMULUS_COLUMNS, (
        [str(s.bin_index), repr(s.ease), format_chip_key(s.target_key),
         s.actual_name, s.simulated_general or "",
         s.simulated_specific or "",
         *(repr(v) for c in (s.target, s.distractor1, s.distractor2)
           for v in (c.l_star, c.a_star, c.b_star))]
        for s in stimuli
    ))
