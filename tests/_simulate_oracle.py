"""The simulation's referents one chip, one name and one pair at a time.

`oracle_build_entries` walks the chips of a Rounds table one by one and
returns its referents as rows, the shape `referent_rows` gives a
`simulate.Referents` table: one `(key, ((word, i_w), ...))` per
referent, in key order, names least informative first.
`oracle_run_all_variants` plays such rows through the simulation
kernel the way the package did before its referents were columns: a
word -> i_w dict, a sorted vocabulary, and CSR names and an
applicability matrix filled from Python lists.
"""

from __future__ import annotations

from math import fsum

import numpy as np

from colorlex import kernels
from colorlex.simulate import Referents, SimResult, SystemVariant


def oracle_build_entries(rounds, infos):
    """build_entries one chip at a time: every distinct target chip, in
    key order, with its distinct words; words without an info entry
    dropped, and chips left with fewer than two names skipped."""
    keys = [tuple(k) for k in rounds.chip_keys.tolist()]
    words_of = {}
    for w, c in zip(rounds.word_ids.tolist(), rounds.chip_ids.tolist()):
        words_of.setdefault(keys[c], set()).add(rounds.vocab[w])
    rows, ties, dropped = [], 0, 0
    for key in sorted(words_of):
        named = [w for w in words_of[key] if w in infos]
        dropped += len(words_of[key]) - len(named)
        if len(named) < 2:
            continue
        named.sort(key=lambda w: (infos[w].i_w, w))
        scores = [infos[w].i_w for w in named]
        ties += len(set(scores)) != len(scores)
        rows.append((key, tuple((w, infos[w].i_w) for w in named)))
    return rows, {
        "n_referents": len(rows),
        "skipped_few_names": len(words_of) - len(rows),
        "dropped_names": dropped,
        "tie_entries": ties,
    }


def referent_rows(referents: Referents):
    """The table as oracle_build_entries rows."""
    words = referents.words.tolist()
    offsets = referents.offsets.tolist()
    i_w = referents.i_w.tolist()
    return [
        (tuple(key), tuple((referents.vocab[w], i_w[w])
                           for w in words[a:b]))
        for key, a, b in zip(referents.keys.tolist(), offsets[:-1],
                             offsets[1:])
    ]


def take_referents(referents: Referents, order) -> Referents:
    """The referents at the given positions, in that order (which need
    not keep the keys ascending)."""
    offsets = referents.offsets.tolist()
    words = referents.words.tolist()
    names = [words[offsets[r]:offsets[r + 1]] for r in order]
    return Referents(
        keys=referents.keys[np.array(order, dtype=np.int64)],
        offsets=np.cumsum([0] + [len(n) for n in names]),
        words=np.array([w for n in names for w in n], dtype=np.int64),
        vocab=referents.vocab,
        i_w=referents.i_w,
    )


def no_referents() -> Referents:
    """An empty table."""
    return Referents(keys=np.zeros((0, 3), dtype=np.int64),
                     offsets=np.zeros(1, dtype=np.int64),
                     words=np.zeros(0, dtype=np.int64), vocab=(),
                     i_w=np.zeros(0))


def oracle_run_all_variants(rows) -> dict[SystemVariant, SimResult]:
    """Every variant's result from oracle_build_entries rows, through
    Python-built kernel inputs."""
    i_w_of = {w: i_w for _, names in rows for w, i_w in names}
    vocab = sorted(i_w_of)
    index = {w: i for i, w in enumerate(vocab)}
    offsets, flat = [0], []
    for _, names in rows:
        flat.extend(index[w] for w, _ in names)
        offsets.append(len(flat))
    app = np.zeros((len(rows), len(vocab)), dtype=np.uint8)
    for r, (_, names) in enumerate(rows):
        for w, _ in names:
            app[r, index[w]] = 1
    n = len(rows)
    results = {}
    for variant in SystemVariant:
        if variant is SystemVariant.ACTUAL:
            lexicon = offsets, flat
        else:
            pick = 0 if variant is SystemVariant.GENERAL_ONLY else -1
            lexicon = (list(range(n + 1)),
                       [index[names[pick][0]] for _, names in rows])
        acc_twice, counts = kernels.simulate_counts(*lexicon, app)
        n_inter = n * (n - 1)
        counts = counts.tolist()
        results[variant] = SimResult(
            variant, acc_twice / (2 * n_inter),
            fsum(c * i_w_of[w] for w, c in zip(vocab, counts)) / n_inter,
            n_inter, len(set(lexicon[1])),
            {w: c for w, c in zip(vocab, counts) if c > 0})
    return results
