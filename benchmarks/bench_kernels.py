"""Time the numpy kernels against their scalar oracles in tests/.

Each case runs the kernel and the oracle on identical inputs, asserts
that they agree exactly, and prints the best-of-repeat time of each.
The spread and simulation kernels are checked against
tests/test_kernels.py; the random-intercept profile likelihood and the
per-group statistics against `reference_profile` and
`reference_group_stats` in tests/test_regress.py; the batch colour
conversion against hsl_to_srgb + srgb_to_lab over the whole integer
HSL grid; the columnar `ingest`, `clean` and clean-rounds reader
against the per-row code in tests/_rounds_oracle.py; the SVG plots
against the per-point renderings in tests/_svg_oracle.py (equal
bytes); and the cached random-intercept fit against `every_step_fit`
in tests/test_regress.py, whose search profiles every step (equal
fields), with the number of profile evaluations of each. The
clean-rounds cases also print the tracemalloc heap peak of one call
(read, read with the target block, clean, write). Usage, from the
root of a checkout:

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

from _rounds_oracle import (  # noqa: E402
    CleanRow,
    oracle_clean,
    oracle_ingest,
    oracle_read_clean_rounds,
    oracle_write_clean_rounds,
    rounds_rows,
)
from _svg_oracle import oracle_denotation_plot, oracle_ease_plot  # noqa: E402
from test_heap_peaks import heap_peak  # noqa: E402
from test_kernels import oracle_mean_pairwise, reference_simulate  # noqa: E402
from test_regress import (  # noqa: E402
    every_step_fit,
    group_stats_tuples,
    reference_group_stats,
    reference_profile,
)

from colorlex import corpus, kernels, regress, svgplot  # noqa: E402
from colorlex.colorspace import (  # noqa: E402
    HslColor,
    hsl_to_lab_array,
    hsl_to_srgb,
    srgb_to_lab,
)


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
    return [regress.RegressionRow(y, x, g) for y, x, g in
            zip(i_w.tolist(), ease.tolist(), labels.tolist())]


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
    return [regress.RegressionRow(y, x, g) for y, x, g in
            zip(i_w.tolist(), ease.tolist(), labels.tolist())]


def _clean_table(n_rows: int, seed: int) -> str:
    """A clean_rounds.tsv text of n_rows rounds: 606 Zipf-weighted
    words, chips drawn from the integer HSL grid, uniform Lab values."""
    rng = np.random.default_rng(seed)
    weights = 1.0 / np.arange(1, 607)
    words = rng.choice(606, size=n_rows, p=weights / weights.sum())
    keys = np.stack([rng.integers(0, 360, n_rows),
                     rng.integers(0, 101, n_rows),
                     rng.integers(0, 101, n_rows)], axis=1).tolist()
    lab = rng.uniform(-100.0, 100.0, size=(n_rows, 9)).tolist()
    ease = rng.uniform(0.0, 100.0, size=n_rows).tolist()
    rows = [
        CleanRow(f"g{i // 50}", i % 50 + 1, f"s{i // 50}", f"w{w}", tuple(k),
                 e, tuple(v[0:3]), tuple(v[3:6]), tuple(v[6:9]))
        for i, (w, k, v, e) in enumerate(zip(words.tolist(), keys, lab, ease))
    ]
    buffer = io.StringIO()
    oracle_write_clean_rounds(buffer, rows, "# colorlex bench")
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
          kernel: str = "numpy", peak: int | None = None) -> None:
    print(f"{label:<34} {kernel:<7} {t_kernel * 1e3:10.3f} ms"
          f"   oracle {t_oracle * 1e3:10.1f} ms"
          f"   {t_oracle / t_kernel:8.1f}x"
          + ("" if peak is None else f"   heap peak {peak / 1e6:7.1f} MB"))


def bench_spread(n: int, seed: int) -> None:
    pts = _spread_case(n, seed)
    got, t_kernel = _best(lambda: kernels.mean_pairwise_distance(pts),
                          repeat=5, number=100)
    want, t_oracle = _best(lambda: oracle_mean_pairwise(pts.tolist()),
                           repeat=3)
    assert got == want, f"spread n={n}: {got!r} != {want!r}"
    _line(f"mean_pairwise_distance n={n}", t_kernel, t_oracle)


def bench_simulate(n_referents: int, vocab: int, seed: int) -> None:
    offsets, words, app = _simulate_case(n_referents, vocab, seed)
    for mode in (0, 1, 2):
        got, t_kernel = _best(
            lambda: kernels.simulate_counts(offsets, words, app, mode),
            repeat=3)
        want, t_oracle = _best(
            lambda: reference_simulate(offsets, words, app, mode), repeat=1)
        assert got[0] == want[0] and (got[1] == want[1]).all(), (
            f"simulate n={n_referents} mode={mode} disagrees")
        _line(f"simulate_counts n={n_referents} mode={mode}", t_kernel,
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
    got, t_kernel = _best(lambda: regress._group_stats(rows), repeat=5)
    want, t_oracle = _best(lambda: reference_group_stats(rows), repeat=5)
    assert repr(group_stats_tuples(got)) == repr(want), "group stats disagree"
    _line(f"_group_stats g={n_groups} n={n_rows}", t_kernel, t_oracle)


def bench_read_clean_rounds(n_rows: int, seed: int) -> None:
    text = _clean_table(n_rows, seed)
    got, t_read = _best(
        lambda: corpus.read_clean_rounds(io.StringIO(text)), repeat=5)
    _, t_lab = _best(
        lambda: corpus.read_clean_rounds(io.StringIO(text)).target, repeat=5)
    want, t_oracle = _best(
        lambda: oracle_read_clean_rounds(io.StringIO(text)), repeat=3)
    assert repr(rounds_rows(got)) == repr(want), (
        "read_clean_rounds disagrees with the per-row reader")
    _line(f"read_clean_rounds n={n_rows}", t_read, t_oracle, "columns",
          heap_peak(corpus.read_clean_rounds, io.StringIO(text)))
    _line("  and its target Lab block", t_lab, t_oracle, "columns",
          heap_peak(lambda handle: corpus.read_clean_rounds(handle).target,
                    io.StringIO(text)))


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
    assert rejects and repr(rejects) == repr(want_rejects), (
        "ingest rejects differ from oracle_ingest")
    assert repr(list(got)) == repr(want), "ingest disagrees with oracle_ingest"
    _line(f"ingest n={n_rows}", t_ingest, t_oracle, "columns")


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
              heap_peak(corpus.write_clean_rounds, sink, got, "# bench"))


def _write(writer, rounds) -> str:
    buffer = io.StringIO()
    writer(buffer, rounds, "# colorlex bench")
    return buffer.getvalue()


def main() -> None:
    print(f"backend {kernels.backend_name()}, numpy {np.__version__}")
    bench_spread(100, 1)
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
    bench_read_clean_rounds(47_000, 10)
    bench_ingest(47_000, 12)
    bench_clean(47_000, 11)
    bench_hsl_grid()


if __name__ == "__main__":
    main()
