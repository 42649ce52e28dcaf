"""The numpy kernels against scalar oracles: results must match exactly."""

import importlib.util
import math
import random
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from colorlex import kernels

_PROPERTY = settings(derandomize=True, database=None, deadline=None,
                     max_examples=100)


def oracle_mean_pairwise(pts) -> float:
    """Plain double loop in the same accumulation order as the kernels."""
    n = len(pts)
    acc = 0.0
    for i in range(n):
        for j in range(n):
            dl = pts[i][0] - pts[j][0]
            da = pts[i][1] - pts[j][1]
            db = pts[i][2] - pts[j][2]
            acc += math.sqrt(dl * dl + da * da + db * db)
    return acc / (n * (n - 1))


def reference_simulate(offsets, words, applicable, mode):
    """Scalar pair loop over an arbitrary `applicable` matrix.

    A referent's row may hold words beyond its names, or lack one of
    them; only distractor rows are consulted.
    """
    n_entries = len(offsets) - 1
    counts = np.zeros(applicable.shape[1], dtype=np.int64)
    name_lists = [
        words[offsets[t]:offsets[t + 1]].tolist() for t in range(n_entries)
    ]
    app_rows = [row.tolist() for row in applicable]
    acc_twice = 0
    for t in range(n_entries):
        names = name_lists[t]
        for d in range(n_entries):
            if d == t:
                continue
            row = app_rows[d]
            if mode == 1:
                chosen = names[0]
            elif mode == 2:
                chosen = names[-1]
            else:
                chosen = names[-1]
                for w in names:
                    if not row[w]:
                        chosen = w
                        break
            acc_twice += 1 if row[chosen] else 2
            counts[chosen] += 1
    return acc_twice, counts


def lexicon_for_mode(offsets, words, mode):
    """The lexicon that plays `reference_simulate`'s speaker `mode`
    under the kernel's one rule: every name (0), or one name per
    referent, its first (1) or its last (2). Returns (offsets, words)."""
    if mode == 0:
        return offsets, words
    kept = words[offsets[:-1]] if mode == 1 else words[offsets[1:] - 1]
    return np.arange(len(offsets), dtype=np.int64), kept


def _random_points(rng, n):
    return np.array(
        [[rng.uniform(0, 100), rng.uniform(-80, 80), rng.uniform(-80, 80)]
         for _ in range(n)]
    )


def _random_system(rng, n_referents, vocab):
    name_lists = []
    for _ in range(n_referents):
        k = rng.randint(2, min(4, vocab))
        name_lists.append(sorted(rng.sample(range(vocab), k)))
    offsets = np.zeros(n_referents + 1, dtype=np.int64)
    flat = []
    for i, names in enumerate(name_lists):
        flat.extend(names)
        offsets[i + 1] = len(flat)
    words = np.array(flat, dtype=np.int64)
    app = np.zeros((n_referents, vocab), dtype=np.uint8)
    for i, names in enumerate(name_lists):
        app[i, names] = 1
    return offsets, words, app


def _random_matrix_system(rng, n_referents, vocab):
    """Name lists of 1 to 6 words over a random `applicable` matrix.

    Rows get extra words at a density drawn per system, and one row in
    four drops one of its own names.
    """
    density = rng.random()
    app = np.array(
        [[rng.random() < density for _ in range(vocab)]
         for _ in range(n_referents)], dtype=np.uint8)
    offsets = np.zeros(n_referents + 1, dtype=np.int64)
    flat = []
    for t in range(n_referents):
        names = rng.sample(range(vocab), rng.randint(1, min(6, vocab)))
        app[t, names] = 1
        if rng.random() < 0.25:
            app[t, rng.choice(names)] = 0
        flat.extend(names)
        offsets[t + 1] = len(flat)
    return offsets, np.array(flat, dtype=np.int64), app


def _assert_simulate_matches_reference(offsets, words, app):
    for mode in (0, 1, 2):
        acc_twice, counts = kernels.simulate_counts(
            *lexicon_for_mode(offsets, words, mode), app)
        exp_acc, exp_counts = reference_simulate(offsets, words, app, mode)
        assert acc_twice == exp_acc
        assert counts.dtype == np.int64
        assert (counts == exp_counts).all()


@st.composite
def _named_system(draw):
    """A 0/1 applicability matrix and 1 to 4 distinct names per target."""
    n_referents = draw(st.integers(1, 12))
    vocab = draw(st.integers(1, 8))
    app = draw(arrays(np.uint8, (n_referents, vocab),
                      elements=st.sampled_from([0, 1])))
    name_lists = [
        draw(st.lists(st.integers(0, vocab - 1), min_size=1,
                      max_size=min(4, vocab), unique=True))
        for _ in range(n_referents)
    ]
    offsets = np.cumsum([0] + [len(names) for names in name_lists])
    words = np.array([w for names in name_lists for w in names],
                     dtype=np.int64)
    return offsets.astype(np.int64), words, app


class TestMeanPairwiseDistance:
    def test_equals_oracle_bitwise(self):
        rng = random.Random(501)
        for _ in range(100):
            n = rng.randint(2, 100)
            pts = _random_points(rng, n)
            expected = oracle_mean_pairwise(pts.tolist())
            assert kernels.mean_pairwise_distance(pts) == expected

    def test_backends_agree_bitwise(self):
        # Float32, integer and non-contiguous inputs go through the same
        # float64 kernel as the oracle sees.
        rng = random.Random(502)
        for _ in range(50):
            pts = _random_points(rng, rng.randint(2, 80))
            expected = oracle_mean_pairwise(pts.tolist())
            wide = np.asfortranarray(np.hstack([pts, pts]))[:, :3]
            assert kernels.mean_pairwise_distance(wide) == expected
            as_f32 = pts.astype(np.float32)
            assert kernels.mean_pairwise_distance(as_f32) == (
                oracle_mean_pairwise(as_f32.astype(np.float64).tolist()))
            as_int = np.rint(pts).astype(np.int64)
            assert kernels.mean_pairwise_distance(as_int) == (
                oracle_mean_pairwise(as_int.astype(np.float64).tolist()))

    @pytest.mark.parametrize("n", [2, 256, 257, 700])
    def test_block_boundaries(self, n):
        # 256 rows fill one default block exactly, 257 spill into a
        # second, 700 take eight.
        pts = _random_points(random.Random(504 + n), n)
        assert kernels.mean_pairwise_distance(pts) == oracle_mean_pairwise(
            pts.tolist())

    @_PROPERTY
    @given(pts=arrays(np.float64, st.tuples(st.integers(2, 30), st.just(3)),
                      elements=st.floats(allow_nan=False,
                                         allow_infinity=False)))
    def test_equals_oracle_property(self, pts):
        # Coordinates far apart overflow to inf in both; that is expected.
        with np.errstate(over="ignore"):
            got = kernels.mean_pairwise_distance(pts)
        assert got == oracle_mean_pairwise(pts.tolist())

    def test_repeat_is_bitwise_stable(self):
        rng = random.Random(503)
        pts = _random_points(rng, 60)
        first = kernels.mean_pairwise_distance(pts)
        for _ in range(5):
            assert kernels.mean_pairwise_distance(pts) == first

    def test_two_points(self):
        pts = np.array([[0.0, 0.0, 0.0], [3.0, 4.0, 0.0]])
        assert kernels.mean_pairwise_distance(pts) == 5.0

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            kernels.mean_pairwise_distance(np.zeros((3, 2)))
        with pytest.raises(ValueError):
            kernels.mean_pairwise_distance(np.zeros((1, 3)))
        with pytest.raises(ValueError):
            kernels.mean_pairwise_distance(np.zeros(3))


class TestSimulateCounts:
    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_equals_oracle(self, mode):
        rng = random.Random(510 + mode)
        for _ in range(30):
            n_ref = rng.randint(2, 40)
            vocab = rng.randint(4, 20)
            offsets, words, app = _random_system(rng, n_ref, vocab)
            acc_twice, counts = kernels.simulate_counts(
                *lexicon_for_mode(offsets, words, mode), app)
            exp_acc, exp_counts = reference_simulate(offsets, words, app, mode)
            assert acc_twice == exp_acc
            assert (counts == exp_counts).all()

    def test_backends_agree(self):
        # Extra words per row and targets lacking their own names, beyond
        # the names-only rows of `_random_system`.
        rng = random.Random(520)
        for _ in range(30):
            offsets, words, app = _random_matrix_system(
                rng, rng.randint(2, 40), rng.randint(1, 20))
            _assert_simulate_matches_reference(offsets, words, app)

    @pytest.mark.parametrize("n_referents", [2, 7, 8, 9, 63, 64, 65, 300])
    def test_bitset_boundaries(self, n_referents):
        # Referent counts around the byte and 64-bit word boundaries of
        # the packed bitsets.
        rng = random.Random(523 + n_referents)
        offsets, words, app = _random_matrix_system(rng, n_referents, 24)
        _assert_simulate_matches_reference(offsets, words, app)

    def test_small_chunks(self, monkeypatch):
        # One target per gathered chunk.
        monkeypatch.setattr(kernels, "_SIMULATE_BLOCK", 1)
        offsets, words, app = _random_matrix_system(
            random.Random(524), 70, 12)
        _assert_simulate_matches_reference(offsets, words, app)

    @_PROPERTY
    @given(system=_named_system())
    def test_equals_reference_property(self, system):
        _assert_simulate_matches_reference(*system)

    def test_target_row_is_ignored(self):
        # Referent 0's row lacks its first name; it must not count as
        # its own distractor in any mode.
        offsets = np.array([0, 2, 4], dtype=np.int64)
        words = np.array([0, 1, 0, 1], dtype=np.int64)
        app = np.array([[0, 1], [1, 1]], dtype=np.uint8)
        assert kernels.simulate_counts(offsets, words, app)[0] == 3
        _assert_simulate_matches_reference(offsets, words, app)

    def test_degenerate_sizes(self):
        app = np.ones((1, 3), dtype=np.uint8)
        offsets = np.array([0, 2], dtype=np.int64)
        words = np.array([0, 2], dtype=np.int64)
        _assert_simulate_matches_reference(offsets, words, app)
        empty = np.zeros((0, 3), dtype=np.uint8)
        for mode in (0, 1, 2):
            acc_twice, counts = kernels.simulate_counts(
                *lexicon_for_mode(np.zeros(1, dtype=np.int64),
                                  np.zeros(0, dtype=np.int64), mode), empty)
            assert acc_twice == 0
            assert counts.tolist() == [0, 0, 0]

    def test_counts_sum_to_interactions(self):
        rng = random.Random(521)
        offsets, words, app = _random_system(rng, 30, 15)
        for mode in (0, 1, 2):
            _, counts = kernels.simulate_counts(
                *lexicon_for_mode(offsets, words, mode), app)
            assert int(np.sum(counts)) == 30 * 29

    def test_every_target_needs_a_name(self):
        app = np.ones((2, 2), dtype=np.uint8)
        with pytest.raises(ValueError):
            kernels.simulate_counts(np.array([0, 0, 1]), np.array([1]), app)
        with pytest.raises(ValueError):
            kernels.simulate_counts(np.array([0, 1]), np.array([1]), app)


def test_backend_name_consistent():
    assert kernels.backend_name() == "numpy"


def _load_bench(monkeypatch):
    """benchmarks/bench_kernels.py as a module, without running main()."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    path = Path(__file__).resolve().parents[1] / "benchmarks"
    spec = importlib.util.spec_from_file_location(
        "bench_kernels", path / "bench_kernels.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


def test_bench_kernels_imports(monkeypatch):
    # The kernel bench imports oracles from these tests by name, so a
    # renamed oracle fails here.
    assert callable(_load_bench(monkeypatch).main)


def test_bench_kernels_cases_run(monkeypatch):
    # Every case of main() but the full-grid conversion, at tiny sizes,
    # so that a name a case body uses cannot go stale. Ingest needs
    # 1,000 rows: every 1,000th row is malformed and the case asserts
    # that there are rejects.
    bench = _load_bench(monkeypatch)
    bench.bench_spread(20, 1)
    bench.bench_simulate(30, 8, 3)
    for shape in (("singletons", 50, (2, 3, 4, 5, 6), 0.9, 7),
                  ("pooled", 50, tuple(range(7, 20)), 0.0, 8)):
        bench.bench_profile(*shape)
        bench.bench_fit(*shape)
    bench.bench_ease_plot(100, 13)
    bench.bench_denotation_plot(100, 14)
    bench.bench_group_stats(40, 60, 9)
    bench.bench_regression_inputs("pooled", 200, 40, 16)
    bench.bench_read_clean_rounds(60, 10)
    bench.bench_clean(60, 11)
    bench.bench_ingest(1_000, 12)
