"""Time the numpy kernels against the scalar oracles of tests/test_kernels.py.

Each case runs the kernel and the oracle on identical inputs, asserts
that they agree exactly, and prints the best-of-repeat time of each.
Usage, from the root of a checkout:

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

from colorlex import kernels  # noqa: E402


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


def main() -> None:
    print(f"backend {kernels.backend_name()}, numpy {np.__version__}")
    bench_spread(100, 1)
    for i, n in enumerate((500, 1500, 2500, 6000)):
        bench_simulate(n, 60, 3 + i)


if __name__ == "__main__":
    main()
