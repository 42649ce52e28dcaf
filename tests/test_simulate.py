"""Lexical-system simulation against a hand-enumerated oracle.

The toy system's six referents and seven words are small enough to
play every ordered pair by hand; the expected accuracies, utterance
tallies and mean informativeness below come from that enumeration and
are asserted exactly where the arithmetic is exact.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from _rounds_oracle import CleanRow, rounds_from_rows
from _simulate_oracle import (
    no_referents,
    oracle_build_entries,
    referent_rows,
    take_referents,
)
from conftest import TOY_I_W, TOY_NAMES

from colorlex import simulate
from colorlex.informativeness import WordInfo
from colorlex.simulate import (
    SimulationError,
    SystemVariant,
    build_entries,
    generate_stimuli,
    run_all_variants,
    run_simulation,
    write_simulation,
    write_stimuli,
)

# Oracle tallies: who says what, over all 30 ordered pairs.
ORACLE = {
    SystemVariant.ACTUAL: {
        "accuracy": 29 / 30,
        "i_l_numerator": 74.19,
        "counts": {"blue": 8, "turquoise": 1, "teal": 1, "green": 5,
                   "purple": 9, "magenta": 2, "mauve": 4},
        "vocab_size": 7,
    },
    SystemVariant.GENERAL_ONLY: {
        "accuracy": 13 / 15,
        "i_l_numerator": 64.55,
        "counts": {"blue": 10, "green": 5, "purple": 15},
        "vocab_size": 3,
    },
    SystemVariant.SPECIFIC_ONLY: {
        "accuracy": 14 / 15,
        "i_l_numerator": 99.15,
        "counts": {"turquoise": 5, "teal": 10, "magenta": 5, "mauve": 10},
        "vocab_size": 4,
    },
}


def _info(word, i_w):
    return WordInfo(word, 100.0 / i_w, i_w, 10, False)


def _table(rows):
    return rounds_from_rows(rows)


def _round(word, key, ease=1.0, game="g", idx=0):
    gray = (50.0, 0.0, 0.0)
    return CleanRow(game, idx, "", word, key, key, key, ease, gray, gray, gray)


def oracle_rebalance(sizes, quota):
    """The per-round rebalancing rule: each short bin, in index order,
    takes one round at a time from the nearest bin with a spare round,
    the lower index first on a tie. Returns the stimuli report's
    bin_counts, underpopulated_bins and rebalanced."""
    bins = len(sizes)
    take = [min(quota, size) for size in sizes]
    short = [b for b in range(bins) if take[b] < quota]
    moved = {}
    for b in short:
        deficit = quota - take[b]
        while deficit > 0:
            best = None
            for other in sorted(range(bins), key=lambda o: (abs(o - b), o)):
                if other != b and sizes[other] > take[other]:
                    best = other
                    break
            assert best is not None, "not enough eligible rounds"
            take[best] += 1
            moved[best] = moved.get(best, 0) + 1
            deficit -= 1
    return take, short, moved


def oracle_assign_bins(values, bins):
    """Each value's equal-width bin, one value at a time."""
    lo = min(values)
    hi = max(values)
    if hi == lo:
        return [0] * len(values)
    width = (hi - lo) / bins
    return [min(int((v - lo) / width), bins - 1) for v in values]


def oracle_ease_pools(rounds, eligible, bins):
    """The eligible rows of each ease bin, appended row by row."""
    ease = rounds.ease.tolist()
    eligible = eligible.tolist()
    bin_of = oracle_assign_bins([ease[i] for i in eligible], bins)
    pools = [[] for _ in range(bins)]
    for i, b in zip(eligible, bin_of):
        pools[b].append(i)
    return pools


@st.composite
def _named_rounds(draw):
    """4 to 30 rounds over 4 chips and 8 words; the words' i_w drawn
    from 3 values, so names tie, and some words have no entry. The
    words hold a prefix pair, an upper-case letter and non-ASCII ones,
    so ties are broken by Python's string order."""
    words = ("a", "ab", "b", "Z", "ä", "é", "ĳ", "中")
    scores = draw(st.lists(st.sampled_from([None, 1.0, 2.5, 4.0]),
                           min_size=len(words), max_size=len(words)))
    infos = {w: _info(w, i_w) for w, i_w in zip(words, scores)
             if i_w is not None}
    pairs = draw(st.lists(st.tuples(st.sampled_from(words),
                                    st.integers(0, 3)),
                          min_size=4, max_size=30))
    return _table([_round(w, (c * 45, c % 3, 0), idx=i)
                   for i, (w, c) in enumerate(pairs)]), infos


def _words(referents):
    """Each referent's names, least informative first."""
    return [[w for w, _ in names] for _, names in referent_rows(referents)]


class TestBuildEntries:
    @settings(derandomize=True, database=None, deadline=None,
              max_examples=200)
    @given(case=_named_rounds())
    def test_equals_chip_by_chip_oracle(self, case):
        rounds, infos = case
        referents, report = build_entries(rounds, infos)
        assert repr((referent_rows(referents), report)) == repr(
            oracle_build_entries(rounds, infos))

    def test_fixture_equals_oracle(self, fixture_rounds, fixture_infos):
        referents, report = build_entries(fixture_rounds, fixture_infos)
        assert repr((referent_rows(referents), report)) == repr(
            oracle_build_entries(fixture_rounds, fixture_infos))

    def test_table_layout(self, fixture_rounds, fixture_infos):
        referents, _ = build_entries(fixture_rounds, fixture_infos)
        m = len(referents)
        assert referents.keys.shape == (m, 3)
        assert referents.offsets.shape == (m + 1,)
        for column in (referents.keys, referents.offsets, referents.words):
            assert column.dtype == np.int64
        assert referents.offsets[0] == 0
        assert referents.offsets[-1] == len(referents.words)
        assert (np.diff(referents.offsets) >= 2).all()
        assert referents.vocab == fixture_rounds.vocab
        assert referents.i_w.shape == (len(referents.vocab),)

    def test_toy_structure(self, toy_system):
        assert toy_system.report == {
            "n_referents": 6,
            "skipped_few_names": 0,
            "dropped_names": 0,
            "tie_entries": 0,
        }
        for ref, words in TOY_NAMES.items():
            names = toy_system.names[ref]
            assert {w for w, _ in names} == set(words)
            scores = [i for _, i in names]
            assert scores == sorted(scores)
            assert names[0][0] == min(words, key=TOY_I_W.get)
            assert names[-1][0] == max(words, key=TOY_I_W.get)

    def test_single_name_chips_skipped(self):
        infos = {"a": _info("a", 2.0), "b": _info("b", 3.0)}
        rounds = [
            _round("a", (1, 0, 0), idx=1),
            _round("b", (1, 0, 0), idx=2),
            _round("a", (2, 0, 0), idx=3),
        ]
        referents, report = build_entries(_table(rounds), infos)
        assert referents.keys.tolist() == [[1, 0, 0]]
        assert report["skipped_few_names"] == 1

    def test_names_below_threshold_dropped(self):
        infos = {"a": _info("a", 2.0), "b": _info("b", 3.0)}
        rounds = [
            _round("a", (1, 0, 0), idx=1),
            _round("b", (1, 0, 0), idx=2),
            _round("rare", (1, 0, 0), idx=3),
        ]
        referents, report = build_entries(_table(rounds), infos)
        assert _words(referents) == [["a", "b"]]
        assert report["dropped_names"] == 1

    def test_three_names_ordered(self):
        infos = {w: _info(w, i) for w, i in
                 [("mid", 2.5), ("low", 1.0), ("high", 4.0)]}
        rounds = [_round(w, (1, 0, 0), idx=i)
                  for i, w in enumerate(infos)]
        rounds.append(_round("low", (2, 0, 0), idx=9))
        rounds.append(_round("mid", (2, 0, 0), idx=10))
        referents, _ = build_entries(_table(rounds), infos)
        assert _words(referents) == [["low", "mid", "high"],
                                     ["low", "mid"]]

    def test_equal_scores_break_ties_alphabetically(self):
        infos = {"zeta": _info("zeta", 2.0), "alpha": _info("alpha", 2.0)}
        rounds = [
            _round("zeta", (1, 0, 0), idx=1),
            _round("alpha", (1, 0, 0), idx=2),
        ]
        referents, report = build_entries(_table(rounds), infos)
        assert _words(referents) == [["alpha", "zeta"]]
        assert report["tie_entries"] == 1

    def test_equal_scores_of_two_referents_are_no_tie(self):
        infos = {w: _info(w, i) for w, i in
                 [("a", 1.0), ("b", 2.5), ("c", 2.5), ("d", 4.0)]}
        rounds = [_round(w, key, idx=i) for i, (w, key) in enumerate(
            [("a", (1, 0, 0)), ("b", (1, 0, 0)), ("c", (2, 0, 0)),
             ("d", (2, 0, 0))])]
        referents, report = build_entries(_table(rounds), infos)
        assert _words(referents) == [["a", "b"], ["c", "d"]]
        assert report["tie_entries"] == 0

    def test_duplicate_rounds_collapse(self):
        infos = {"a": _info("a", 2.0), "b": _info("b", 3.0)}
        rounds = [_round("a", (1, 0, 0), idx=i) for i in range(5)]
        rounds.append(_round("b", (1, 0, 0), idx=9))
        referents, _ = build_entries(_table(rounds), infos)
        assert len(referents) == 1
        assert _words(referents) == [["a", "b"]]

    def test_entries_sorted_by_key(self, fixture_rounds, fixture_infos):
        referents, report = build_entries(fixture_rounds, fixture_infos)
        keys = referents.keys.tolist()
        assert keys == sorted(keys)
        assert report["n_referents"] == len(referents) > 20
        assert report["skipped_few_names"] > 0
        assert report["dropped_names"] > 0


def _assert_pair(toy_system, t, d, variant, counts, accuracy):
    """Play the two-referent system {t, d}: interactions t->d and d->t.

    counts are the words uttered over both interactions; accuracy is
    their mean listener credit (1 when the word excludes the
    distractor, 1/2 when it also applies to it).
    """
    at = toy_system.position
    result = run_simulation(
        take_referents(toy_system.referents, [at[t], at[d]]), variant)
    assert result.n_interactions == 2
    assert result.counts == counts
    assert result.accuracy == accuracy


ACTUAL = SystemVariant.ACTUAL
GENERAL = SystemVariant.GENERAL_ONLY
SPECIFIC = SystemVariant.SPECIFIC_ONLY


class TestSpeak:
    def test_prefers_general_when_discriminating(self, toy_system):
        _assert_pair(toy_system, 1, 3, ACTUAL, {"blue": 1, "green": 1}, 1.0)

    def test_escalates_when_general_ambiguous(self, toy_system):
        _assert_pair(toy_system, 1, 2, ACTUAL,
                     {"turquoise": 1, "teal": 1}, 1.0)
        _assert_pair(toy_system, 4, 5, ACTUAL,
                     {"magenta": 1, "mauve": 1}, 1.0)

    def test_falls_back_to_specific(self, toy_system):
        # 5 and 6 share both names; nothing discriminates
        _assert_pair(toy_system, 5, 6, ACTUAL, {"mauve": 2}, 0.5)

    def test_fixed_variants_ignore_context(self, toy_system):
        # 1 says blue / turquoise whatever the distractor
        _assert_pair(toy_system, 1, 2, GENERAL, {"blue": 2}, 0.5)
        _assert_pair(toy_system, 1, 3, GENERAL, {"blue": 1, "green": 1}, 1.0)
        _assert_pair(toy_system, 1, 4, GENERAL,
                     {"blue": 1, "purple": 1}, 1.0)
        _assert_pair(toy_system, 1, 2, SPECIFIC,
                     {"turquoise": 1, "teal": 1}, 1.0)
        _assert_pair(toy_system, 1, 3, SPECIFIC,
                     {"turquoise": 1, "teal": 1}, 1.0)
        _assert_pair(toy_system, 1, 4, SPECIFIC,
                     {"turquoise": 1, "magenta": 1}, 1.0)


class TestListen:
    def test_full_credit_when_unambiguous(self, toy_system):
        _assert_pair(toy_system, 1, 3, GENERAL, {"blue": 1, "green": 1}, 1.0)

    def test_half_credit_when_ambiguous(self, toy_system):
        # blue names both 1 and 2
        _assert_pair(toy_system, 1, 2, GENERAL, {"blue": 2}, 0.5)


class TestRunSimulation:
    @pytest.mark.parametrize("variant", list(SystemVariant),
                             ids=lambda v: v.value)
    def test_toy_oracle(self, toy_system, variant):
        oracle = ORACLE[variant]
        result = run_simulation(toy_system.referents, variant)
        assert result.accuracy == oracle["accuracy"]
        assert result.counts == oracle["counts"]
        assert result.i_l == pytest.approx(oracle["i_l_numerator"] / 30,
                                           abs=1e-9)
        assert result.n_interactions == 30
        assert result.vocab_size == oracle["vocab_size"]
        assert sum(result.counts.values()) == 30

    def test_entry_order_is_irrelevant(self, toy_system):
        order = list(range(len(toy_system.referents)))
        random.Random(5).shuffle(order)
        shuffled = take_referents(toy_system.referents, order)
        assert shuffled.keys.tolist() != toy_system.referents.keys.tolist()
        for variant in SystemVariant:
            assert run_simulation(shuffled, variant) == \
                run_simulation(toy_system.referents, variant)

    def test_run_all_variants(self, toy_system):
        results = run_all_variants(toy_system.referents)
        assert set(results) == set(SystemVariant)
        for variant, result in results.items():
            assert result == run_simulation(toy_system.referents, variant)

    def test_needs_two_referents(self, toy_system):
        with pytest.raises(SimulationError, match="at least 2"):
            run_simulation(take_referents(toy_system.referents, [0]),
                           SystemVariant.ACTUAL)

    def test_fixture_orderings(self, fixture_rounds, fixture_infos):
        # the adaptive speaker never loses an interaction a fixed
        # system would win, and its utterances sit between the two
        # extremes in informativeness, so these hold exactly
        referents, _ = build_entries(fixture_rounds, fixture_infos)
        results = run_all_variants(referents)
        actual = results[SystemVariant.ACTUAL]
        general = results[SystemVariant.GENERAL_ONLY]
        specific = results[SystemVariant.SPECIFIC_ONLY]
        assert actual.accuracy >= general.accuracy
        assert actual.accuracy >= specific.accuracy
        assert general.i_l <= actual.i_l <= specific.i_l
        for result in results.values():
            assert 0.5 <= result.accuracy <= 1.0
            assert result.n_interactions == \
                len(referents) * (len(referents) - 1)

    def test_fixture_vocab_sizes_nest(self, fixture_rounds, fixture_infos):
        referents, _ = build_entries(fixture_rounds, fixture_infos)
        results = run_all_variants(referents)
        assert results[SystemVariant.GENERAL_ONLY].vocab_size <= \
            results[SystemVariant.ACTUAL].vocab_size
        assert results[SystemVariant.SPECIFIC_ONLY].vocab_size <= \
            results[SystemVariant.ACTUAL].vocab_size


def _stimulus_fixture_pieces(n_chips=12):
    """Rounds over n_chips two-name chips with evenly spread ease."""
    infos = {"broad": _info("broad", 1.5)}
    rounds = []
    for i in range(n_chips):
        word = f"w{i}"
        infos[word] = _info(word, 2.0 + 0.1 * i)
        key = (i, 0, 0)
        rounds.append(_round("broad", key, ease=0.5 + i, game="a", idx=i))
        rounds.append(_round(word, key, ease=0.5 + i, game="b", idx=i))
    referents, _ = build_entries(_table(rounds), infos)
    return rounds, referents, infos


class TestGenerateStimuli:
    def test_uniform_ease_fills_each_bin(self):
        rounds, referents, infos = _stimulus_fixture_pieces(10)
        picked = [r for r in rounds if r.game_id == "a"]
        stimuli, report = generate_stimuli(_table(picked), referents, infos,
                                           n=10, bins=10, seed=0)
        assert [s.bin_index for s in stimuli] == list(range(10))
        assert report["bin_counts"] == [1] * 10
        assert report["underpopulated_bins"] == []
        assert report["rebalanced"] == {}

    def test_divisibility_enforced(self):
        rounds, referents, infos = _stimulus_fixture_pieces(10)
        with pytest.raises(ValueError, match="divide"):
            generate_stimuli(_table(rounds), referents, infos, n=10, bins=3)
        with pytest.raises(ValueError, match="positive"):
            generate_stimuli(_table(rounds), referents, infos, n=0, bins=1)

    def test_too_few_eligible_rounds(self):
        rounds, referents, infos = _stimulus_fixture_pieces(4)
        with pytest.raises(SimulationError, match="eligible"):
            generate_stimuli(_table(rounds), referents, infos, n=20, bins=4)

    def test_deficits_move_to_nearest_bins(self):
        infos = {"broad": _info("broad", 1.5), "w": _info("w", 3.0)}
        rounds = []
        eases = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 3.9, 4.0]
        for i, ease in enumerate(eases):
            rounds.append(_round("broad", (i, 0, 0), ease=ease, idx=i))
            rounds.append(_round("w", (i, 0, 0), ease=ease, idx=i + 100))
        referents, _ = build_entries(_table(rounds), infos)
        picked = [r for r in rounds if r.round_index < 100]
        stimuli, report = generate_stimuli(_table(picked), referents, infos,
                                           n=8, bins=4, seed=1)
        assert report["bin_counts"] == [6, 0, 0, 2]
        assert report["underpopulated_bins"] == [1, 2]
        assert report["rebalanced"] == {0: 4}
        assert len(stimuli) == 8

    @settings(derandomize=True, database=None, deadline=None,
              max_examples=100)
    @given(quota=st.integers(1, 4),
           counts=st.lists(st.integers(0, 8), min_size=1, max_size=8))
    def test_rebalancing_equals_per_round_rule(self, quota, counts):
        # counts[b] rounds at ease b + 0.5, plus one at each end of
        # [0, bins], so that bin b holds exactly sizes[b] rounds.
        bins = len(counts)
        eases = [0.0, float(bins)] + [
            b + 0.5 for b, c in enumerate(counts) for _ in range(c)]
        sizes = list(counts)
        sizes[0] += 1
        sizes[-1] += 1
        assume(sum(sizes) >= quota * bins)
        rows = [_round("w", (i, 0, 0), ease=e, idx=i)
                for i, e in enumerate(eases)]
        stimuli, report = generate_stimuli(
            _table(rows), no_referents(), {"w": _info("w", 2.0)}, n=quota * bins,
            bins=bins, seed=5)
        take, short, moved = oracle_rebalance(sizes, quota)
        assert report["bin_counts"] == take
        assert report["underpopulated_bins"] == short
        assert list(report["rebalanced"].items()) == list(moved.items())
        assert [s.bin_index for s in stimuli] == [
            b for b, k in enumerate(take) for _ in range(k)]

    def test_deterministic_in_seed(self, fixture_rounds, fixture_infos):
        referents, _ = build_entries(fixture_rounds, fixture_infos)
        a = generate_stimuli(fixture_rounds, referents, fixture_infos, seed=3)
        b = generate_stimuli(fixture_rounds, referents, fixture_infos, seed=3)
        c = generate_stimuli(fixture_rounds, referents, fixture_infos, seed=4)
        assert a == b
        assert a != c

    def test_simulated_name_rules(self, fixture_rounds, fixture_infos):
        referents, _ = build_entries(fixture_rounds, fixture_infos)
        names_of = dict(referent_rows(referents))
        stimuli, _ = generate_stimuli(fixture_rounds, referents,
                                      fixture_infos, n=100, bins=10, seed=0)
        assert len(stimuli) == 100
        saw_general = saw_specific = 0
        for s in stimuli:
            actual = fixture_infos[s.actual_name].i_w
            names = names_of.get(s.target_key)
            if names is None:
                assert s.simulated_general is None
                assert s.simulated_specific is None
                continue
            if s.simulated_general is not None:
                saw_general += 1
                assert s.simulated_general == names[0][0]
                assert fixture_infos[s.simulated_general].i_w < actual
            else:
                assert names[0][1] >= actual
            if s.simulated_specific is not None:
                saw_specific += 1
                assert s.simulated_specific == names[-1][0]
                assert fixture_infos[s.simulated_specific].i_w > actual
            else:
                assert names[-1][1] <= actual
        assert saw_general > 0
        assert saw_specific > 0

    def test_single_name_chip_gets_no_alternatives(self):
        rounds, referents, infos = _stimulus_fixture_pieces(10)
        lone = _round("broad", (99, 0, 0), ease=5.0, game="c", idx=999)
        stimuli, _ = generate_stimuli(_table([lone] + rounds), referents,
                                      infos, n=21, bins=1, seed=0)
        solo = [s for s in stimuli if s.target_key == (99, 0, 0)]
        assert len(solo) == 1
        assert solo[0].simulated_general is None
        assert solo[0].simulated_specific is None

    def test_referents_from_another_table(self):
        # Referents whose vocab ids (the words in reverse order) and chip
        # ids (no chip (0, 50, 50)) are not those of the picked table.
        rounds, _, infos = _stimulus_fixture_pieces(10)
        referents, _ = build_entries(_table(rounds[::-1]), infos)
        lone = _round("broad", (0, 50, 50), ease=5.0, game="c", idx=999)
        table = _table([lone] + rounds)
        assert referents.vocab != table.vocab
        own, _ = build_entries(table, infos)
        stimuli, _ = generate_stimuli(table, referents, infos, n=21, bins=1,
                                      seed=0)
        assert (stimuli, _) == generate_stimuli(table, own, infos, n=21,
                                                bins=1, seed=0)
        assert {s.simulated_general for s in stimuli} == {None, "broad"}
        assert len({s.simulated_specific for s in stimuli}) == 11

    def test_bins_partition_the_ease_range(self, fixture_rounds,
                                           fixture_clean, fixture_infos):
        referents, _ = build_entries(fixture_rounds, fixture_infos)
        stimuli, report = generate_stimuli(fixture_rounds, referents,
                                           fixture_infos, n=100, bins=10,
                                           seed=0)
        eligible = [r.ease for r in fixture_clean
                    if r.word in fixture_infos]
        lo, hi = min(eligible), max(eligible)
        width = (hi - lo) / 10
        assert report["n_eligible"] == len(eligible)
        assert sum(report["bin_counts"]) == 100
        for s in stimuli:
            expected = min(int((s.ease - lo) / width), 9)
            assert s.bin_index == expected

    def test_within_bin_order_is_by_ease(self, fixture_rounds,
                                         fixture_infos):
        referents, _ = build_entries(fixture_rounds, fixture_infos)
        stimuli, _ = generate_stimuli(fixture_rounds, referents,
                                      fixture_infos, n=100, bins=10, seed=0)
        for b in range(10):
            eases = [s.ease for s in stimuli if s.bin_index == b]
            assert eases == sorted(eases)


# The CIELAB distance of two points whose every coordinate lies within
# 500, beyond any ease that `clean` computes.
_EASE_LIMIT = 2.0 * math.sqrt(3.0) * 500.0
# Eases anywhere in [0, _EASE_LIMIT], and eases on the edges of
# equal-width bins over [lo, lo + 6 * step].
_EASES = st.one_of(
    st.lists(st.one_of(st.sampled_from([0.0, 5e-324, 1e-300, 1.0, 2.5,
                                        _EASE_LIMIT]),
                       st.floats(0.0, _EASE_LIMIT)),
             min_size=1, max_size=24),
    st.builds(lambda lo, step, ks: [lo + k * step for k in ks],
              st.sampled_from([0.0, 1.0, 3.7]),
              st.sampled_from([0.1, 0.5, 1.0, 1e-3, 1 / 3]),
              st.lists(st.integers(0, 6), min_size=1, max_size=24)),
)


def _ease_table(eases, known):
    """One round per ease; the rounds where `known` is true name the
    word of `_EASE_INFOS`, the others one without an entry."""
    return _table([_round("w" if k else "x", (i % 360, 0, 0), ease=e, idx=i)
                   for i, (e, k) in enumerate(zip(eases, known))])


_EASE_INFOS = {"w": _info("w", 2.0)}
_ALL = [True] * 24


class TestEaseBins:
    """The pools of generate_stimuli from arrays, against the per-row
    bin assignment it replaced."""

    @settings(derandomize=True, database=None, deadline=None,
              max_examples=300)
    @given(eases=_EASES, bins=st.integers(1, 7),
           known=st.lists(st.booleans(), min_size=24, max_size=24))
    @example(eases=[2.0] * 5, bins=3, known=_ALL)  # all equal
    @example(eases=[7.5], bins=1, known=_ALL)  # one eligible row
    @example(eases=[7.5, 1.0, 3.0], bins=1, known=[False, True] + _ALL)
    @example(eases=[float(k) for k in range(11)], bins=10, known=_ALL)
    @example(eases=[0.1 * k for k in range(8)], bins=7, known=_ALL)
    @example(eases=[1.0, math.nextafter(1.0, 2.0)] * 4, bins=7, known=_ALL)
    @example(eases=[0.0, math.ulp(0.0) * 7] * 4, bins=7, known=_ALL)
    def test_pools_and_stimuli_equal_oracle(self, eases, bins, known):
        known = known[:len(eases)]
        assume(any(known))
        # a width under the smallest subnormal is covered below; the
        # width is that of the eligible eases
        lo, hi = (f(e for e, k in zip(eases, known) if k) for f in (min, max))
        assume((hi - lo) / bins > 0.0 or hi == lo)
        rounds = _ease_table(eases, known)
        eligible = np.flatnonzero(known)
        want = oracle_ease_pools(rounds, eligible, bins)
        assert simulate._ease_pools(rounds, eligible, bins) == want
        if len(eligible) >= bins:
            got = generate_stimuli(rounds, no_referents(), _EASE_INFOS, n=bins,
                                   bins=bins, seed=11)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(simulate, "_ease_pools", oracle_ease_pools)
                assert got == generate_stimuli(rounds, no_referents(), _EASE_INFOS,
                                               n=bins, bins=bins, seed=11)

    @pytest.mark.parametrize("steps, bins, pools", [
        ([0, 1] * 5, 10, [[0, 2, 4, 6, 8]] + [[]] * 8 + [[1, 3, 5, 7, 9]]),
        # offsets 1/3, 0, 1 and 1/3 of the range, in 7 bins
        ([2, 1, 4, 2, 1, 1, 1], 7, [[1, 4, 5, 6], [], [0, 3], [], [], [],
                                    [2]]),
    ])
    def test_width_below_the_smallest_subnormal(self, steps, bins, pools):
        # (hi - lo) / bins rounds to zero, which the per-row rule divides
        # by; the bins are those of the exact offsets
        eases = [k * math.ulp(0.0) for k in steps]
        rounds = _ease_table(eases, [True] * len(eases))
        eligible = np.arange(len(eases))
        with pytest.raises(ZeroDivisionError):
            oracle_ease_pools(rounds, eligible, bins)
        assert simulate._ease_pools(rounds, eligible, bins) == pools
        stimuli, report = generate_stimuli(rounds, no_referents(), _EASE_INFOS,
                                           n=bins, bins=bins, seed=0)
        assert len(stimuli) == sum(report["bin_counts"]) == bins
        bin_of = {i: b for b, pool in enumerate(pools) for i in pool}
        assert all(s.bin_index == bin_of[eases.index(s.ease)]
                   for s in stimuli)


class TestSerialization:
    def test_simulation_table(self, toy_system, tmp_path):
        results = run_all_variants(toy_system.referents)
        path = tmp_path / "sim.tsv"
        with open(path, "w") as handle:
            write_simulation(handle, results.values(), "# hdr")
        lines = path.read_text().splitlines()
        assert lines[0] == "# hdr"
        assert lines[1].split("\t")[0] == "variant"
        assert len(lines) == 5
        row = dict(zip(lines[1].split("\t"), lines[2].split("\t")))
        assert row["variant"] == "actual"
        assert float(row["accuracy"]) == results[SystemVariant.ACTUAL].accuracy
        assert int(row["n_interactions"]) == 30

    def test_stimuli_table(self, fixture_rounds, fixture_infos, tmp_path):
        referents, _ = build_entries(fixture_rounds, fixture_infos)
        stimuli, _ = generate_stimuli(fixture_rounds, referents,
                                      fixture_infos, n=20, bins=10, seed=0)
        path = tmp_path / "stimuli.tsv"
        with open(path, "w") as handle:
            write_stimuli(handle, stimuli, "# hdr")
        lines = path.read_text().splitlines()
        assert len(lines) == 22
        header = lines[1].split("\t")
        assert header[:6] == ["bin", "ease", "target_key", "actual",
                              "simulated_general", "simulated_specific"]
        for line, s in zip(lines[2:], stimuli):
            fields = dict(zip(header, line.split("\t")))
            assert int(fields["bin"]) == s.bin_index
            assert float(fields["ease"]) == s.ease
            assert fields["actual"] == s.actual_name
            assert float(fields["target_l"]) == s.target.l_star
