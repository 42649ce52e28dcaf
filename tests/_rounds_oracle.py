"""The per-row clean-rounds reader, kept as the oracle for the columnar one.

`oracle_read_clean_rounds` parses a clean_rounds.tsv table line by line
into CleanRound objects, as the package did before `read_clean_rounds`
read it column by column into a `Rounds` table. `rounds_rows` and
`clean_rows` turn either result into the same list of plain tuples, so
that tests can compare the two by repr, which tells -0.0 from 0.0.
"""

from colorlex.colorspace import LabColor
from colorlex.corpus import CleanRound

_CLEAN_COLUMNS = ("game_id", "round_index", "speaker_id", "word",
                  "target_key", "ease") + tuple(
    f"{c}_{ch}" for c in ("target", "d1", "d2") for ch in "lab")


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


def oracle_read_clean_rounds(handle) -> list[CleanRound]:
    rounds = []
    for (game_id, round_index, speaker, word, key, ease,
         tl, ta, tb, d1l, d1a, d1b, d2l, d2a, d2b) in _table_rows(
            handle, _CLEAN_COLUMNS):
        kh, ks, kl = key.split(":")
        rounds.append(
            CleanRound(
                word=word,
                target=LabColor(float(tl), float(ta), float(tb)),
                distractors=(
                    LabColor(float(d1l), float(d1a), float(d1b)),
                    LabColor(float(d2l), float(d2a), float(d2b)),
                ),
                context_ease=float(ease),
                target_key=(int(kh), int(ks), int(kl)),
                speaker_id=speaker or None,
                game_id=game_id,
                round_index=int(round_index),
            )
        )
    return rounds


def _lab(c: LabColor) -> tuple[float, float, float]:
    return (c.l_star, c.a_star, c.b_star)


def clean_rows(rows) -> list[tuple]:
    """CleanRound objects as plain tuples, in Rounds column order."""
    return [
        (r.game_id, r.round_index, r.speaker_id or "", r.word, r.target_key,
         r.context_ease, _lab(r.target), _lab(r.distractors[0]),
         _lab(r.distractors[1]))
        for r in rows
    ]


def rounds_rows(rounds) -> list[tuple]:
    """A Rounds table as one plain tuple per round (converts all Lab)."""
    keys = [tuple(k) for k in rounds.chip_keys.tolist()]
    return list(zip(
        rounds.game_ids,
        rounds.round_indices,
        rounds.speaker_ids,
        [rounds.vocab[w] for w in rounds.word_ids.tolist()],
        [keys[c] for c in rounds.chip_ids.tolist()],
        rounds.ease.tolist(),
        map(tuple, rounds.target.tolist()),
        map(tuple, rounds.distractor1.tolist()),
        map(tuple, rounds.distractor2.tolist()),
    ))
