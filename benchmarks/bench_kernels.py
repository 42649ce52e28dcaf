"""Time the numpy kernels against their scalar oracles in tests/.

Each case runs the kernel and the oracle on identical inputs, asserts
that they agree exactly, and prints the best-of-repeat time of each.
The spread and simulation kernels are checked against
tests/test_kernels.py, the simulation once per lexicon of
`lexicon_for_mode`; the random-intercept profile likelihood against
`reference_profile` in tests/test_regress.py and the per-group
statistics against `oracle_group_stats` in tests/_regress_oracle.py;
the regression table from `rows_from_rounds` and both fits, over all
rounds and the repeated-chip subset, against the row-per-tuple code
in tests/_regress_oracle.py (equal fields; with the tracemalloc heap
peak of each side); the referent table of `build_entries` and the
three simulations of `run_all_variants` against the chip-by-chip
referents and Python-built kernel inputs of tests/_simulate_oracle.py
(equal referents, reports and results); the batch colour
conversion against hsl_to_srgb + srgb_to_lab over the whole integer
HSL grid; the columnar `ingest`, `clean` and clean-rounds reader
against the per-row code in tests/_rounds_oracle.py, and the reader's
chip key codes against its `oracle_chip_table`; the SVG plots
against the per-point renderings in tests/_svg_oracle.py (equal
bytes); and the cached random-intercept fit against `every_step_fit`
in tests/test_regress.py, whose search profiles every step (equal
fields), with the number of profile evaluations of each. The
clean-rounds and ingest cases also print the tracemalloc heap peak of
one call (ingest, read, clean, write), the read case the heap its table
keeps, and the clean-rounds cases the bytes per row of the table
written. Usage, from the root of a checkout:

    PYTHONPATH=src python3 benchmarks/bench_kernels.py

The simulation oracle is a Python double loop over all ordered pairs
(about a minute at 6,000 referents), and the scalar conversion of the
3,672,360 grid chips takes about half a minute.
"""

import csv
import io
import os
import sys
import tempfile
import timeit
from dataclasses import asdict
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from _regress_oracle import (  # noqa: E402
    oracle_fit_ols,
    oracle_fit_random_intercept,
    oracle_group_stats,
    oracle_rows_from_rounds,
    regression_table,
    repeated_chip_subset,
    stats_repr,
    table_rows,
)
from _rounds_oracle import (  # noqa: E402
    oracle_chip_table,
    oracle_clean,
    oracle_ingest,
    oracle_read_clean_rounds,
    oracle_write_clean_rounds,
    rounds_rows,
)
from _simulate_oracle import (  # noqa: E402
    oracle_build_entries,
    oracle_run_all_variants,
    referent_rows,
)
from _svg_oracle import oracle_denotation_plot, oracle_ease_plot  # noqa: E402
from test_heap_peaks import heap_kept, heap_peak  # noqa: E402
from test_kernels import (  # noqa: E402
    lexicon_for_mode,
    oracle_mean_pairwise,
    reference_simulate,
)
from test_regress import every_step_fit, reference_profile  # noqa: E402

from colorlex import corpus, kernels, regress, simulate, svgplot  # noqa: E402
from colorlex.colorspace import (  # noqa: E402
    HslColor,
    hsl_to_lab_array,
    hsl_to_srgb,
    srgb_to_lab,
)
from colorlex.informativeness import WordInfo  # noqa: E402


def _spread_case(n: int, seed: int):
    rng = np.random.default_rng(seed)
    return np.ascontiguousarray(rng.uniform(0.0, 100.0, size=(n, 3)))


def _simulate_case(n_referents: int, vocab: int, seed: int):
    """2-4 names per referent, plus two extra applicable words per row."""
    rng = np.random.default_rng(seed)
    offsets = [0]
    flat = []
    for _ in range(n_referents):
        k = int(rng.integers(2, 5))
        flat.extend(sorted(rng.choice(vocab, size=k, replace=False).tolist()))
        offsets.append(len(flat))
    offsets = np.array(offsets, dtype=np.int64)
    words = np.array(flat, dtype=np.int64)
    app = np.zeros((n_referents, vocab), dtype=np.uint8)
    for t in range(n_referents):
        app[t, words[offsets[t]:offsets[t + 1]]] = 1
        app[t, rng.choice(vocab, size=2, replace=False)] = 1
    return offsets, words, app


def _profile_rows(n_groups: int, sizes: tuple[int, ...],
                  singleton_share: float, seed: int):
    """Rows in groups of 1 (at the given share) or a size drawn from
    `sizes`, interleaved, each group with its own intercept, so that
    the variance ratio's maximum is inside the search bracket."""
    rng = np.random.default_rng(seed)
    n_rows = np.where(rng.random(n_groups) < singleton_share, 1,
                      rng.choice(sizes, size=n_groups))
    labels = rng.permutation(np.repeat(np.arange(n_groups), n_rows))
    ease = rng.uniform(0.0, 100.0, size=len(labels))
    i_w = (rng.normal(4.0, 0.5, size=len(labels)) - 0.02 * ease
           + rng.normal(0.0, 0.3, size=n_groups)[labels])
    return regression_table(zip(i_w.tolist(), ease.tolist(),
                                labels.tolist()))


def _profile_case(*shape):
    """The row count and group statistics of _profile_rows(*shape)."""
    rows = _profile_rows(*shape)
    return len(rows), regress._group_stats(rows)


def _group_rows(n_groups: int, n_rows: int, seed: int):
    """n_rows rows in n_groups interleaved groups: singletons, plus
    pairs for the rows left over."""
    rng = np.random.default_rng(seed)
    labels = np.arange(n_groups)
    labels = rng.permutation(np.concatenate(
        [labels, rng.choice(labels, size=n_rows - n_groups, replace=False)]))
    ease = rng.uniform(0.0, 100.0, size=n_rows)
    i_w = rng.normal(4.0, 0.5, size=n_rows)
    return regression_table(zip(i_w.tolist(), ease.tolist(),
                                labels.tolist()))


def _regression_case(n_rows: int, n_chips: int, seed: int,
                     n_words: int = 606):
    """A Rounds table of n_rows rounds whose target chips are drawn from
    n_chips distinct grid chips, over n_words Zipf-weighted words, and
    an info entry for each word said at least 10 times."""
    rng = np.random.default_rng(seed)
    weights = 1.0 / np.arange(1, n_words + 1)
    word_ids = rng.choice(n_words, size=n_rows, p=weights / weights.sum())
    codes = rng.choice(360 * 101 * 101, size=n_chips, replace=False)
    chip_keys = np.stack(np.unravel_index(np.sort(codes), (360, 101, 101)),
                         axis=1).astype(np.int64)
    gray = np.zeros((n_rows, 3))
    chip_ids = rng.integers(0, n_chips, n_rows)
    rounds = corpus.Rounds(
        vocab=tuple(f"w{i}" for i in range(n_words)), word_ids=word_ids,
        codes=np.repeat(np.sort(codes)[chip_ids, None], 3, axis=1),
        chip_keys=chip_keys, chip_ids=chip_ids,
        ease=rng.uniform(0.0, 100.0, size=n_rows), game_ids=[""] * n_rows,
        speaker_ids=[""] * n_rows, round_indices=list(range(n_rows)),
        lab=(gray, gray, gray))
    counts = np.bincount(word_ids, minlength=n_words).tolist()
    i_w = rng.uniform(1.0, 10.0, size=n_words).tolist()
    infos = {f"w{i}": WordInfo(f"w{i}", 100.0 / i_w[i], i_w[i], n, False)
             for i, n in enumerate(counts) if n >= 10}
    return rounds, infos


def _clean_table(n_rows: int, seed: int) -> str:
    """A clean_rounds.tsv text of n_rows rounds: 606 Zipf-weighted
    words, chips drawn from the integer HSL grid."""
    rng = np.random.default_rng(seed)
    weights = 1.0 / np.arange(1, 607)
    words = rng.choice(606, size=n_rows, p=weights / weights.sum())
    keys = np.stack([rng.integers(0, 360, (n_rows, 3)),
                     rng.integers(0, 101, (n_rows, 3)),
                     rng.integers(0, 101, (n_rows, 3))], axis=2).tolist()
    buffer = io.StringIO()
    corpus.write_table(buffer, "# colorlex bench", corpus._CLEAN_COLUMNS, (
        [f"g{i // 50}", str(i % 50 + 1), f"s{i // 50}", f"w{w}",
         *map(corpus.format_chip_key, k)]
        for i, (w, k) in enumerate(zip(words.tolist(), keys))))
    return buffer.getvalue()


def _raw_rounds(n_rows: int, seed: int) -> corpus.RawRounds:
    """n_rows raw rounds on the integer HSL grid: 606 Zipf-weighted
    words, one utterance in ten of two words, one round in ten failed."""
    rng = np.random.default_rng(seed)
    weights = 1.0 / np.arange(1, 607)
    words = rng.choice(606, size=n_rows, p=weights / weights.sum()).tolist()
    two_words = (rng.random(n_rows) < 0.1).tolist()
    correct = (rng.random(n_rows) >= 0.1).tolist()
    hsl = np.stack([rng.integers(0, 360, (n_rows, 3)),
                    rng.integers(0, 101, (n_rows, 3)),
                    rng.integers(0, 101, (n_rows, 3))], axis=2).tolist()
    return corpus.RawRounds.from_rows([
        corpus.RawRound(
            game_id=f"g{i // 50}", round_index=i % 50 + 1,
            utterance=f"light w{w}" if two else f"W{w}!",
            target=HslColor(*_fraction(chips[0])),
            distractor1=HslColor(*_fraction(chips[1])),
            distractor2=HslColor(*_fraction(chips[2])),
            listener_correct=ok, speaker_id=f"s{i // 50}")
        for i, (w, two, ok, chips) in enumerate(
            zip(words, two_words, correct, hsl))
    ])


# One malformed row of each kind, by replacing one row's fields.
_MALFORMED = ({"target_s": "150"}, {"listener_correct": "maybe"},
              {"distractor1_h": "abc"}, {"game_id": "g\t1"},
              {"speaker_id": None})


def _write_corpus(path: Path, n_rows: int, seed: int) -> None:
    """The rounds of _raw_rounds as a percent-scale corpus CSV in which
    one row in a thousand is malformed (_MALFORMED in turn; a None
    field is dropped, which leaves the row too short)."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(corpus.CANONICAL_FIELDS)
        for i, r in enumerate(_raw_rounds(n_rows, seed)):
            row = {"game_id": r.game_id, "round_index": r.round_index,
                   "utterance": r.utterance,
                   "listener_correct": str(r.listener_correct).lower(),
                   "speaker_id": r.speaker_id}
            for name in ("target", "distractor1", "distractor2"):
                chip = getattr(r, name)
                row.update({f"{name}_h": int(chip.h),
                            f"{name}_s": round(chip.s * 100.0),
                            f"{name}_l": round(chip.l * 100.0)})
            if i % 1000 == 999:
                row.update(_MALFORMED[i // 1000 % len(_MALFORMED)])
            writer.writerow([row[f] for f in corpus.CANONICAL_FIELDS
                             if row[f] is not None])


def _fraction(chip: list[int]) -> tuple[float, float, float]:
    h, s, l = chip
    return float(h), s / 100.0, l / 100.0


def _best(fn, repeat: int, number: int = 1) -> float:
    """Best-of-repeat seconds per call; the first result is returned too."""
    result = fn()
    seconds = min(timeit.repeat(fn, repeat=repeat, number=number)) / number
    return result, seconds


def _line(label: str, t_kernel: float, t_oracle: float,
          kernel: str = "numpy", peak: int | None = None,
          kept: int | None = None, row_bytes: float | None = None) -> None:
    print(f"{label:<34} {kernel:<7} {t_kernel * 1e3:10.3f} ms"
          f"   oracle {t_oracle * 1e3:10.1f} ms"
          f"   {t_oracle / t_kernel:8.1f}x"
          + ("" if peak is None else f"   heap peak {peak / 1e6:7.1f} MB")
          + ("" if kept is None else f"   keeps {kept / 1e6:7.1f} MB")
          + ("" if row_bytes is None else f"   {row_bytes:5.1f} B/row"))


def bench_spread(n: int, seed: int) -> None:
    pts = _spread_case(n, seed)
    got, t_kernel = _best(lambda: kernels.mean_pairwise_distance(pts),
                          repeat=5, number=max(1, 10_000 // n))
    want, t_oracle = _best(lambda: oracle_mean_pairwise(pts.tolist()),
                           repeat=3)
    assert got == want, f"spread n={n}: {got!r} != {want!r}"
    _line(f"mean_pairwise_distance n={n}", t_kernel, t_oracle, "in-place")


def bench_simulate(n_referents: int, vocab: int, seed: int) -> None:
    """One line per lexicon: every name, the first, the last."""
    offsets, words, app = _simulate_case(n_referents, vocab, seed)
    for mode, lexicon in enumerate(("all names", "first name", "last name")):
        names = lexicon_for_mode(offsets, words, mode)
        got, t_kernel = _best(
            lambda: kernels.simulate_counts(*names, app), repeat=3)
        want, t_oracle = _best(
            lambda: reference_simulate(offsets, words, app, mode), repeat=1)
        assert got[0] == want[0] and (got[1] == want[1]).all(), (
            f"simulate n={n_referents} {lexicon} disagrees")
        _line(f"simulate_counts n={n_referents} {lexicon}", t_kernel,
              t_oracle)


def bench_profile(label: str, n_groups: int, sizes: tuple[int, ...],
                  singleton_share: float, seed: int) -> None:
    n, stats = _profile_case(n_groups, sizes, singleton_share, seed)
    for theta in (0.0, 1e3):
        assert regress._profile(stats, n, theta) == reference_profile(
            stats, n, theta), f"profile {label} theta={theta} disagrees"
    got, t_kernel = _best(lambda: regress._profile(stats, n, 0.7),
                          repeat=5, number=10)
    want, t_oracle = _best(lambda: reference_profile(stats, n, 0.7),
                           repeat=3)
    assert got == want, f"profile {label} theta=0.7 disagrees"
    _line(f"_profile {label} g={n_groups}", t_kernel, t_oracle)


def _profile_calls(fn) -> int:
    """The number of `regress._profile` calls that fn() makes."""
    calls = 0
    profile = regress._profile

    def counting(*args):
        nonlocal calls
        calls += 1
        return profile(*args)

    regress._profile = counting
    try:
        fn()
    finally:
        regress._profile = profile
    return calls


def bench_fit(label: str, *shape) -> None:
    rows = _profile_rows(*shape)
    got, t_fit = _best(lambda: regress.fit_random_intercept(rows), repeat=3)
    want, t_oracle = _best(lambda: every_step_fit(rows), repeat=3)
    assert repr(asdict(got)) == repr(asdict(want)), (
        f"fit {label} disagrees with the every-step search")
    _line(f"fit_random_intercept {label}", t_fit, t_oracle, "cached")
    print(f"  _profile evaluations: "
          f"{_profile_calls(lambda: regress.fit_random_intercept(rows))}"
          f", every step "
          f"{_profile_calls(lambda: every_step_fit(rows))}")


def bench_ease_plot(n: int, seed: int) -> None:
    rng = np.random.default_rng(seed)
    ease = rng.uniform(0.0, 100.0, size=n).tolist()
    i_w = rng.normal(4.0, 0.5, size=n).tolist()
    points = list(zip(ease, i_w))
    line = (4.0, -0.02)
    got, t_plot = _best(lambda: svgplot.ease_plot(ease, i_w, "h", line),
                        repeat=5)
    want, t_oracle = _best(lambda: oracle_ease_plot(points, "h", line),
                           repeat=3)
    assert got == want, "ease_plot disagrees with the per-point oracle"
    _line(f"ease_plot n={n}", t_plot, t_oracle, "arrays")


def bench_denotation_plot(n: int, seed: int) -> None:
    """n chips over six words of Zipf-weighted sizes."""
    rng = np.random.default_rng(seed)
    chips = np.column_stack([rng.uniform(0.0, 100.0, size=n),
                             rng.uniform(-80.0, 80.0, size=(n, 2))])
    weights = 1.0 / np.arange(1, 7)
    ends = np.cumsum(np.round(n * weights / weights.sum()).astype(int))
    ends[-1] = n
    denotations = {
        f"w{i}": chips[end - size:end]
        for i, (end, size) in enumerate(zip(ends, np.diff(ends, prepend=0)))
    }
    words = list(denotations)
    got, t_plot = _best(
        lambda: svgplot.denotation_plot(denotations, words, "h"), repeat=5)
    want, t_oracle = _best(
        lambda: oracle_denotation_plot(denotations, words, "h"), repeat=3)
    assert got == want, "denotation_plot disagrees with the per-point oracle"
    _line(f"denotation_plot n={n}", t_plot, t_oracle, "arrays")


def bench_group_stats(n_groups: int, n_rows: int, seed: int) -> None:
    rows = _group_rows(n_groups, n_rows, seed)
    oracle_rows = table_rows(rows)
    got, t_kernel = _best(lambda: regress._group_stats(rows), repeat=5)
    want, t_oracle = _best(lambda: oracle_group_stats(oracle_rows),
                           repeat=5)
    assert stats_repr(got) == stats_repr(want), "group stats disagree"
    _line(f"_group_stats g={n_groups} n={n_rows}", t_kernel, t_oracle)


def bench_regression_inputs(label: str, n_rows: int, n_chips: int,
                            seed: int) -> None:
    """The regression table and both fits, over all rounds and over the
    repeated-chip subset, against the row oracle; then the part the
    table changed alone: the rows, OLS and the per-group statistics."""
    rounds, infos = _regression_case(n_rows, n_chips, seed)

    def table_fits():
        rows = regress.rows_from_rounds(rounds, infos)
        return [fit(subset) for subset in
                (rows, regress.repeated_chip_rows(rows, rounds))
                for fit in (regress.fit_ols, regress.fit_random_intercept)]

    def row_fits():
        return [fit(oracle_rows_from_rounds(subset, infos)) for subset in
                (rounds, repeated_chip_subset(rounds))
                for fit in (oracle_fit_ols, oracle_fit_random_intercept)]

    def table_inputs():
        rows = regress.rows_from_rounds(rounds, infos)
        return regress.fit_ols(rows), regress._group_stats(rows)

    def row_inputs():
        rows = oracle_rows_from_rounds(rounds, infos)
        return oracle_fit_ols(rows), oracle_group_stats(rows)

    got, t_table = _best(table_fits, repeat=3)
    want, t_rows = _best(row_fits, repeat=3)
    assert repr([asdict(f) for f in got]) == repr(
        [asdict(f) for f in want]), f"fits {label} disagree with the rows"
    _line(f"regression {label} n={n_rows}", t_table, t_rows, "table",
          heap_peak(table_fits))
    print(f"  row oracle heap peak {heap_peak(row_fits) / 1e6:7.1f} MB")
    (ols, stats), t_table = _best(table_inputs, repeat=5)
    (want_ols, want_stats), t_rows = _best(row_inputs, repeat=5)
    assert asdict(ols) == asdict(want_ols) and stats_repr(
        stats) == stats_repr(want_stats), f"inputs {label} disagree"
    _line("  rows + OLS + group stats", t_table, t_rows, "table",
          heap_peak(table_inputs))
    print(f"  row oracle heap peak {heap_peak(row_inputs) / 1e6:7.1f} MB")


def bench_referents(label: str, n_rows: int, n_chips: int, n_words: int,
                    seed: int) -> None:
    """The referent table and the three simulations, against the
    chip-by-chip referents played through Python-built kernel inputs;
    then the table alone."""
    rounds, infos = _regression_case(n_rows, n_chips, seed, n_words)

    def table():
        referents, report = simulate.build_entries(rounds, infos)
        return referents, report, simulate.run_all_variants(referents)

    def oracle():
        rows, report = oracle_build_entries(rounds, infos)
        return rows, report, oracle_run_all_variants(rows)

    (referents, report, results), t_table = _best(table, repeat=3)
    (rows, want_report, want), t_oracle = _best(oracle, repeat=3)
    assert referent_rows(referents) == rows and report == want_report, (
        f"referents {label} disagree")
    assert repr(results) == repr(want), f"simulation {label} disagrees"
    _line(f"referents {label} m={len(referents)}", t_table, t_oracle,
          "table")
    _, t_table = _best(lambda: simulate.build_entries(rounds, infos),
                       repeat=5)
    _, t_oracle = _best(lambda: oracle_build_entries(rounds, infos),
                        repeat=5)
    _line("  build_entries", t_table, t_oracle, "table")


def bench_read_clean_rounds(n_rows: int, seed: int) -> None:
    """The reader, Lab and ease derived from the keys, against the
    per-row reader that converts each key with the scalar functions."""
    text = _clean_table(n_rows, seed)
    got, t_read = _best(
        lambda: corpus.read_clean_rounds(io.StringIO(text)), repeat=5)
    want, t_oracle = _best(
        lambda: oracle_read_clean_rounds(io.StringIO(text)), repeat=1)
    assert repr(rounds_rows(got)) == repr(want), (
        "read_clean_rounds disagrees with the per-row reader")
    _line(f"read_clean_rounds n={n_rows}", t_read, t_oracle, "columns",
          heap_peak(corpus.read_clean_rounds, io.StringIO(text)),
          heap_kept(corpus.read_clean_rounds, io.StringIO(text))[1],
          len(text.encode()) / n_rows)


def bench_chip_keys(n_keys: int, seed: int) -> None:
    """A target_key column of n_keys grid chips, nearly all distinct,
    read as codes one reader block at a time and numbered, against the
    per-key int() parse and lexsort."""
    rng = np.random.default_rng(seed)
    texts = list(map(corpus.format_chip_key, np.stack(
        [rng.integers(0, 360, n_keys), rng.integers(0, 101, n_keys),
         rng.integers(0, 101, n_keys)], axis=1).tolist()))
    block = corpus._ROW_BLOCK

    def numbered():
        return corpus._numbered(np.concatenate([
            corpus._chip_codes(texts[i:i + block])
            for i in range(0, n_keys, block)]))

    (keys, ids), t_codes = _best(numbered, repeat=7)
    (want_keys, want_ids), t_oracle = _best(
        lambda: oracle_chip_table(texts), repeat=7)
    assert keys.tolist() == want_keys.tolist() and (
        ids == want_ids).all(), "chip key codes disagree with the oracle"
    _line(f"chip key codes n={n_keys}", t_codes, t_oracle, "codes")


def bench_hsl_grid() -> None:
    """Every integer-grid chip, converted 36 hues at a time."""
    t_batch = t_scalar = 0.0
    for h0 in range(0, 360, 36):
        h, s, l = (a.ravel() for a in np.meshgrid(
            np.arange(h0, h0 + 36, dtype=np.float64),
            np.arange(101) / 100.0, np.arange(101) / 100.0, indexing="ij"))
        got, seconds = _best(lambda: hsl_to_lab_array(h, s, l), repeat=1)
        t_batch += seconds
        chips = [HslColor(*c) for c in zip(h.tolist(), s.tolist(),
                                           l.tolist())]
        want, seconds = _best(lambda: [srgb_to_lab(hsl_to_srgb(c))
                                       for c in chips], repeat=1)
        t_scalar += seconds
        want = np.array([(c.l_star, c.a_star, c.b_star) for c in want])
        assert (got.view(np.uint64) == want.view(np.uint64)).all(), (
            f"hsl_to_lab_array disagrees at hues {h0}-{h0 + 35}")
    _line("hsl_to_lab_array grid n=3,672,360", t_batch, t_scalar, "batch")


def bench_ingest(n_rows: int, seed: int) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "corpus.csv"
        _write_corpus(path, n_rows, seed)
        (got, rejects), t_ingest = _best(lambda: corpus.ingest(path),
                                         repeat=3)
        (want, want_rejects), t_oracle = _best(lambda: oracle_ingest(path),
                                               repeat=3)
        peak = heap_peak(corpus.ingest, path)
    assert rejects and repr(rejects) == repr(want_rejects), (
        "ingest rejects differ from oracle_ingest")
    assert repr(list(got)) == repr(want), "ingest disagrees with oracle_ingest"
    _line(f"ingest n={n_rows}", t_ingest, t_oracle, "columns", peak)


def bench_clean(n_rows: int, seed: int) -> None:
    raw = _raw_rounds(n_rows, seed)
    rows = list(raw)
    got, t_clean = _best(lambda: corpus.clean(raw), repeat=3)
    want, t_oracle = _best(lambda: oracle_clean(rows), repeat=1)
    assert repr(rounds_rows(got)) == repr(want), (
        "clean disagrees with oracle_clean")
    written, t_write = _best(lambda: _write(corpus.write_clean_rounds, got),
                             repeat=3)
    oracle_written, t_oracle_write = _best(
        lambda: _write(oracle_write_clean_rounds, want), repeat=3)
    assert written == oracle_written, "written clean rounds differ"
    _line(f"clean n={n_rows}", t_clean, t_oracle, "columns",
          heap_peak(corpus.clean, raw))
    with open(os.devnull, "w", encoding="utf-8") as sink:
        _line("  write_clean_rounds", t_write, t_oracle_write, "columns",
              heap_peak(corpus.write_clean_rounds, sink, got, "# bench"),
              row_bytes=len(written.encode()) / len(got))


def _write(writer, rounds) -> str:
    buffer = io.StringIO()
    writer(buffer, rounds, "# colorlex bench")
    return buffer.getvalue()


def main() -> None:
    print(f"backend {kernels.backend_name()}, numpy {np.__version__}")
    # the subsample size of `info`, and a denotation 10 times as large
    bench_spread(100, 1)
    bench_spread(1000, 2)
    for i, n in enumerate((500, 1500, 2500, 6000)):
        bench_simulate(n, 60, 3 + i)
    # ~90 % singleton groups, as when chips rarely repeat (vocab47k);
    # groups of ~13 rows, as over a pooled chip set (pool47k).
    bench_profile("singletons", 36_000, (2, 3, 4, 5, 6), 0.9, 7)
    bench_profile("pooled", 3_000, tuple(range(7, 20)), 0.0, 8)
    bench_fit("singletons", 36_000, (2, 3, 4, 5, 6), 0.9, 7)
    bench_fit("pooled", 3_000, tuple(range(7, 20)), 0.0, 8)
    bench_ease_plot(40_000, 13)
    bench_denotation_plot(40_000, 14)
    # The vocab47k shape: 40k regression rows, nearly all singletons.
    bench_group_stats(39_000, 40_000, 9)
    # The regression stages' two shapes: 40k rounds on 300k chips, about
    # 37k of them distinct (vocab47k), and on a pool of 3,000 (pool47k).
    bench_regression_inputs("distinct chips", 40_000, 300_000, 16)
    bench_regression_inputs("pooled chips", 40_000, 3_000, 17)
    # The simulation's two shapes: 17 words over a pool of 3,000 chips
    # (pool47k), and ~600 Zipf words over ~36k distinct chips (vocab47k).
    bench_referents("pooled chips", 40_000, 3_000, 17, 18)
    bench_referents("distinct chips", 40_000, 300_000, 606, 19)
    bench_chip_keys(40_000, 15)
    bench_read_clean_rounds(47_000, 10)
    bench_ingest(47_000, 12)
    bench_clean(47_000, 11)
    bench_hsl_grid()


if __name__ == "__main__":
    main()
