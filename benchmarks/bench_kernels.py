"""Time the numpy kernels against their scalar oracles in tests/.

Each case runs the kernel and the oracle on identical inputs, asserts
that they agree exactly, and prints the best-of-repeat time of each.
The spread and simulation kernels are checked against
tests/test_kernels.py, the random-intercept profile likelihood against
`reference_profile` in tests/test_regress.py. Usage, from the root of a
checkout:

    PYTHONPATH=src python3 benchmarks/bench_kernels.py

The simulation oracle is a Python double loop over all ordered pairs
(about a minute at 6,000 referents).
"""

import sys
import timeit
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from test_kernels import oracle_mean_pairwise, reference_simulate  # noqa: E402
from test_regress import reference_profile  # noqa: E402

from colorlex import kernels, regress  # noqa: E402


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


def _profile_case(n_groups: int, sizes: tuple[int, ...],
                  singleton_share: float, seed: int):
    """Rows in groups of 1 (at the given share) or a size drawn from
    `sizes`, interleaved; returns the row count and group statistics."""
    rng = np.random.default_rng(seed)
    n_rows = np.where(rng.random(n_groups) < singleton_share, 1,
                      rng.choice(sizes, size=n_groups))
    labels = rng.permutation(np.repeat(np.arange(n_groups), n_rows))
    ease = rng.uniform(0.0, 100.0, size=len(labels))
    i_w = rng.normal(4.0, 0.5, size=len(labels)) - 0.02 * ease
    rows = [regress.RegressionRow(y, x, g) for y, x, g in
            zip(i_w.tolist(), ease.tolist(), labels.tolist())]
    return len(rows), regress._group_stats(rows)


def _best(fn, repeat: int, number: int = 1) -> float:
    """Best-of-repeat seconds per call; the first result is returned too."""
    result = fn()
    seconds = min(timeit.repeat(fn, repeat=repeat, number=number)) / number
    return result, seconds


def _line(label: str, t_kernel: float, t_oracle: float) -> None:
    print(f"{label:<34} numpy {t_kernel * 1e3:10.3f} ms"
          f"   oracle {t_oracle * 1e3:10.1f} ms"
          f"   {t_oracle / t_kernel:8.1f}x")


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


def main() -> None:
    print(f"backend {kernels.backend_name()}, numpy {np.__version__}")
    bench_spread(100, 1)
    for i, n in enumerate((500, 1500, 2500, 6000)):
        bench_simulate(n, 60, 3 + i)
    # ~90 % singleton groups, as when chips rarely repeat (vocab47k);
    # groups of ~13 rows, as over a pooled chip set (pool47k).
    bench_profile("singletons", 36_000, (2, 3, 4, 5, 6), 0.9, 7)
    bench_profile("pooled", 3_000, tuple(range(7, 20)), 0.0, 8)


if __name__ == "__main__":
    main()
