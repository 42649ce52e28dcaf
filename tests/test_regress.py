"""Least squares and the random-intercept model."""

import json
import math
import random
from dataclasses import asdict

import numpy as np
import pytest
from _regress_oracle import (
    Row,
    oracle_fit_ols,
    oracle_fit_random_intercept,
    oracle_group_stats,
    oracle_rows_from_rounds,
    regression_table,
    repeated_chip_subset,
    stats_repr,
    table_rows,
)
from _rounds_oracle import CleanRow, rounds_from_rows
from conftest import make_grouped_rows
from hypothesis import example, given, settings
from hypothesis import strategies as st

from colorlex import regress
from colorlex.informativeness import WordInfo
from colorlex.regress import (
    FitError,
    FitResult,
    _group_stats,
    _profile,
    fit_ols,
    fit_random_intercept,
    format_fit,
    repeated_chip_rows,
    rows_from_rounds,
)


def _line_rows(n=10, intercept=2.0, slope=-0.01):
    return regression_table(
        (intercept + slope * x, float(x), str(x)) for x in range(n))


def _noisy_rows(seed, n, intercept, slope, sd):
    rng = random.Random(seed)
    rows = []
    for i in range(n):
        x = rng.uniform(0.0, 100.0)
        rows.append((intercept + slope * x + rng.gauss(0.0, sd), x, str(i)))
    return regression_table(rows)


def reference_profile(groups, n, theta):
    """The scalar per-group loop that `regress._profile` vectorises.

    groups holds per-group statistics as `regress._group_stats` returns
    them; each sum runs over the groups in order from 0.0. `_profile`
    must return these seven values bit for bit.
    """
    a11 = a12 = a22 = b1 = b2 = yy = logdet = 0.0
    columns = (groups.n, groups.sx, groups.sy, groups.sxx, groups.sxy,
               groups.syy)
    for g_n, sx, sy, sxx, sxy, syy in zip(*(a.tolist() for a in columns)):
        c = theta / (1.0 + theta * g_n)
        a11 += g_n - c * g_n * g_n
        a12 += sx * (1.0 - c * g_n)
        a22 += sxx - c * sx * sx
        b1 += sy - c * g_n * sy
        b2 += sxy - c * sx * sy
        yy += syy - c * sy * sy
        logdet += math.log1p(theta * g_n)
    det = a11 * a22 - a12 * a12
    if det <= 0.0:
        raise FitError("singular design; predictor constant within groups")
    intercept = (a22 * b1 - a12 * b2) / det
    slope = (a11 * b2 - a12 * b1) / det
    rss_w = yy - (intercept * b1 + slope * b2)
    sigma2 = max(rss_w / n, 1e-300)
    loglik = -0.5 * (
        n * math.log(2.0 * math.pi) + n * math.log(sigma2) + logdet + n
    )
    return loglik, intercept, slope, sigma2, a11, a22, det


def every_step_fit(rows):
    """fit_random_intercept with its profile cache off, so that the
    search calls `_profile` at every step, revisited points included."""
    saved = regress.cache
    regress.cache = lambda fn: fn
    try:
        return fit_random_intercept(rows)
    finally:
        regress.cache = saved


class TestOls:
    def test_exact_line(self):
        fit = fit_ols(_line_rows())
        assert fit.slope == pytest.approx(-0.01, abs=1e-12)
        assert fit.intercept == pytest.approx(2.0, abs=1e-12)
        assert fit.sigma2_residual == pytest.approx(0.0, abs=1e-20)

    def test_exact_line_degenerate_inference(self):
        # zero residual variance: the slope is infinitely significant
        fit = fit_ols(_line_rows())
        assert fit.se_slope == 0.0
        assert fit.t_slope == -math.inf
        assert fit.p_slope == 0.0

    def test_noisy_recovery(self):
        fit = fit_ols(_noisy_rows(123, 2000, 3.0, -0.02, 0.3))
        assert fit.slope == pytest.approx(-0.02, abs=0.002)
        assert fit.intercept == pytest.approx(3.0, abs=0.05)
        assert fit.sigma2_residual == pytest.approx(0.09, rel=0.2)
        assert fit.p_slope < 1e-10
        assert fit.converged

    def test_matches_numpy_polyfit(self):
        rows = _noisy_rows(7, 200, 1.0, 0.5, 1.0)
        fit = fit_ols(rows)
        slope, intercept = np.polyfit(rows.ease, rows.i_w, 1)
        assert fit.slope == pytest.approx(slope, rel=1e-10)
        assert fit.intercept == pytest.approx(intercept, rel=1e-10)

    def test_null_slope_not_significant(self):
        rng = random.Random(55)
        rows = regression_table(
            (1.0 + rng.gauss(0.0, 0.5), rng.uniform(0.0, 10.0), str(i))
            for i in range(500))
        fit = fit_ols(rows)
        assert abs(fit.t_slope) < 2.0
        assert fit.p_slope > 0.05

    def test_shift_invariance(self):
        rows = _noisy_rows(11, 100, 2.0, -0.5, 0.2)
        shifted = rows.copy()
        shifted.ease += 37.5
        a, b = fit_ols(rows), fit_ols(shifted)
        assert b.slope == pytest.approx(a.slope, abs=1e-9)
        assert b.intercept == pytest.approx(a.intercept - a.slope * 37.5,
                                            abs=1e-9)

    def test_loglik_definition(self):
        fit = fit_ols(_noisy_rows(3, 50, 0.0, 1.0, 0.5))
        expected = -0.5 * fit.n * (
            math.log(2.0 * math.pi) + math.log(fit.sigma2_residual) + 1.0
        )
        assert fit.loglik == pytest.approx(expected, rel=1e-12)

    def test_constant_predictor_rejected(self):
        rows = regression_table((float(i), 5.0, str(i)) for i in range(10))
        with pytest.raises(FitError, match="constant"):
            fit_ols(rows)

    def test_too_few_rows_rejected(self):
        with pytest.raises(FitError, match="at least 3"):
            fit_ols(_line_rows(2))


class TestRandomIntercept:
    def test_zero_group_variance_reduces_to_ols(self):
        rng = random.Random(9)
        rows = []
        for g in range(40):
            for _ in range(5):
                x = rng.uniform(0.0, 100.0)
                rows.append((2.0 + 0.01 * x + rng.gauss(0.0, 0.2), x, f"g{g}"))
        rows = regression_table(rows)
        mixed = fit_random_intercept(rows)
        ols = fit_ols(rows)
        assert mixed.sigma2_group == pytest.approx(0.0, abs=1e-8)
        assert mixed.slope == pytest.approx(ols.slope, abs=1e-4)
        assert mixed.intercept == pytest.approx(ols.intercept, abs=1e-4)
        assert mixed.loglik == pytest.approx(ols.loglik, abs=1e-6)
        assert mixed.converged

    def test_recovers_generating_parameters(self):
        rows = make_grouped_rows(2024)
        fit = fit_random_intercept(rows)
        assert fit.method == "random_intercept"
        assert fit.n == 3000
        assert fit.n_groups == 300
        assert fit.converged
        assert fit.slope == pytest.approx(-0.02, rel=0.10)
        assert fit.sigma2_group == pytest.approx(0.25, rel=0.20)
        assert fit.sigma2_residual == pytest.approx(0.09, rel=0.20)

    def test_profile_loglik_locally_optimal(self):
        rows = make_grouped_rows(2024)
        fit = fit_random_intercept(rows)
        stats = _group_stats(rows)
        theta = fit.sigma2_group / fit.sigma2_residual
        n = len(rows)
        at_hat = _profile(stats, n, theta)[0]
        assert at_hat == pytest.approx(fit.loglik, abs=1e-9)
        assert at_hat >= _profile(stats, n, 0.0)[0]
        assert at_hat >= _profile(stats, n, 2.0 * theta)[0]

    def test_beats_ols_when_groups_matter(self):
        rows = make_grouped_rows(2024)
        assert fit_random_intercept(rows).loglik > fit_ols(rows).loglik

    def test_singleton_groups_fall_back_to_ols(self):
        rows = _noisy_rows(21, 60, 1.0, -0.3, 0.4)
        mixed = fit_random_intercept(rows)
        ols = fit_ols(rows)
        assert mixed.method == "random_intercept"
        assert mixed.slope == pytest.approx(ols.slope, abs=1e-6)
        assert mixed.se_slope == pytest.approx(ols.se_slope, abs=1e-6)
        assert mixed.loglik == pytest.approx(ols.loglik, abs=1e-6)
        assert mixed.sigma2_group == 0.0
        assert any("fell back" in w for w in mixed.warnings)

    def test_boundary_theta_flagged_unconverged(self):
        rng = random.Random(3)
        rows = []
        for g in range(30):
            offset = rng.gauss(0.0, 10.0)
            for _ in range(6):
                x = rng.uniform(0.0, 100.0)
                rows.append(
                    (offset + 0.01 * x + rng.gauss(0.0, 1e-3), x, f"g{g}"))
        fit = fit_random_intercept(regression_table(rows))
        assert not fit.converged
        assert any("boundary" in w for w in fit.warnings)

    def test_deterministic(self):
        rows = make_grouped_rows(4)
        assert fit_random_intercept(rows) == fit_random_intercept(rows)

    def test_group_labels_are_opaque(self):
        rows = make_grouped_rows(8, n_groups=50)
        renamed = regression_table(zip(
            rows.i_w.tolist(), rows.ease.tolist(),
            ["x" + g for g in rows.group.tolist()]))
        a, b = fit_random_intercept(rows), fit_random_intercept(renamed)
        assert a.slope == b.slope
        assert a.loglik == b.loglik


def _dense_profile(rows, theta):
    """GLS estimates and ML log-likelihood from the full covariance.

    V = I + theta * Z Z' with Z the row-to-group indicator matrix, i.e.
    blockdiag(J_g) up to a row permutation. For the profiled deviance
    see Bates et al. 2015, "Fitting Linear Mixed-Effects Models Using
    lme4", JSS 67(1).
    """
    g = rows.group
    n = len(rows)
    v = np.eye(n) + theta * (g[:, None] == g[None, :])
    x = np.column_stack([np.ones(n), rows.ease])
    y = rows.i_w
    vinv = np.linalg.inv(v)
    intercept, slope = np.linalg.solve(x.T @ vinv @ x, x.T @ vinv @ y)
    resid = y - intercept - slope * x[:, 1]
    sigma2 = resid @ vinv @ resid / n
    sign, logdet = np.linalg.slogdet(v)
    assert sign == 1.0
    loglik = -0.5 * (n * math.log(2.0 * math.pi) + n * math.log(sigma2)
                     + logdet + n)
    return loglik, intercept, slope, sigma2


def _unequal_groups(seed):
    """Groups of 1, 2, 3, 5 and 8 rows, shuffled so groups interleave."""
    rng = random.Random(seed)
    rows = []
    for g, size in enumerate((1, 2, 3, 5, 8)):
        offset = rng.gauss(0.0, 0.7)
        for _ in range(size):
            x = rng.uniform(0.0, 50.0)
            rows.append((1.0 + offset - 0.03 * x + rng.gauss(0.0, 0.4), x, g))
    rng.shuffle(rows)
    return regression_table(rows)


_DENSE_PROBLEMS = {
    "equal_groups": lambda: make_grouped_rows(5, n_groups=6, group_size=4),
    "unequal_interleaved": lambda: _unequal_groups(11),
    "weak_groups": lambda: make_grouped_rows(
        6, n_groups=8, group_size=3, group_sd=0.05),
}


class TestDenseLikelihoodOracle:
    """_profile and the fitted optimum against the dense-covariance ML."""

    @pytest.mark.parametrize("problem", sorted(_DENSE_PROBLEMS))
    @pytest.mark.parametrize("theta", [0.0, 0.1, 1.0, 10.0, 100.0])
    def test_profile_matches_dense(self, problem, theta):
        rows = _DENSE_PROBLEMS[problem]()
        loglik, intercept, slope, sigma2 = _profile(
            _group_stats(rows), len(rows), theta)[:4]
        dense = _dense_profile(rows, theta)
        assert (loglik, intercept, slope, sigma2) == pytest.approx(
            dense, rel=1e-9)

    @pytest.mark.parametrize("problem", sorted(_DENSE_PROBLEMS))
    def test_fit_maximizes_dense_loglik(self, problem):
        rows = _DENSE_PROBLEMS[problem]()
        fit = fit_random_intercept(rows)
        grid = np.concatenate([[0.0], np.geomspace(1e-4, 1e3, 141)])
        for theta in grid:
            dense = _dense_profile(rows, theta)[0]
            # the dense and profiled values agree to ~1e-9 relative
            assert fit.loglik >= dense - 1e-9 * abs(dense), theta


def _mixed_groups(seed, n_groups, singleton_share):
    """Groups of 1 row (at the given share) or 2-8 rows, interleaved."""
    rng = random.Random(seed)
    rows = []
    for g in range(n_groups):
        size = 1 if rng.random() < singleton_share else rng.randint(2, 8)
        offset = rng.gauss(0.0, 0.5)
        for _ in range(size):
            x = rng.uniform(0.0, 100.0)
            rows.append((4.0 + offset - 0.02 * x + rng.gauss(0.0, 0.3), x,
                         f"g{g}"))
    rng.shuffle(rows)
    return regression_table(rows)


_ORACLE_PROBLEMS = {
    "grouped_2024": lambda: make_grouped_rows(2024),
    "unequal_interleaved": lambda: _mixed_groups(31, 400, 0.2),
    # ~90 % singleton groups, as in a corpus whose chips rarely repeat
    "mostly_singletons": lambda: _mixed_groups(32, 3000, 0.9),
}


_FIT_PROBLEMS = {**_ORACLE_PROBLEMS,
                 **{f"dense_{k}": v for k, v in _DENSE_PROBLEMS.items()}}


def _outcome(profile, groups, n, theta):
    """The seven values as reprs (exact, and NaN equals NaN), or the error."""
    try:
        return [repr(v) for v in profile(groups, n, theta)]
    except FitError as exc:
        return f"FitError: {exc}"


@st.composite
def _grouped_rows(draw):
    """Random group sizes, interleaved, with arbitrary finite values.

    Magnitudes stay below 1e100 so the groups' fsum totals cannot
    overflow; the profile's own products may still reach inf or NaN.
    """
    sizes = draw(st.lists(st.integers(1, 6), min_size=1, max_size=12))
    labels = draw(st.permutations(
        [g for g, size in enumerate(sizes) for _ in range(size)]))
    value = st.floats(-1e100, 1e100, allow_nan=False, allow_infinity=False)
    return regression_table((draw(value), draw(value), g) for g in labels)


_SIGNED_ZERO_OR_FINITE = st.one_of(
    st.just(-0.0), st.just(0.0),
    st.floats(-1e100, 1e100, allow_nan=False, allow_infinity=False))


@st.composite
def _interleaved_rows(draw):
    """A table of int or of str labels in random order, with signed
    zeros."""
    label = draw(st.sampled_from([st.integers(0, 5),
                                  st.sampled_from(["b", "a", "c"])]))
    labels = draw(st.lists(label, min_size=1, max_size=30))
    return regression_table((draw(_SIGNED_ZERO_OR_FINITE),
                             draw(_SIGNED_ZERO_OR_FINITE), g) for g in labels)


class TestGroupStatsOracle:
    @settings(derandomize=True, database=None, deadline=None,
              max_examples=300)
    @given(rows=_interleaved_rows())
    def test_equals_dict_and_fsum_grouping(self, rows):
        assert stats_repr(_group_stats(rows)) == stats_repr(
            oracle_group_stats(table_rows(rows)))

    def test_single_negative_zero_sums_to_positive_zero(self):
        stats = _group_stats(regression_table([(-0.0, -0.0, "a"),
                                               (1.0, 2.0, "b"),
                                               (3.0, 4.0, "b")]))
        assert repr(stats.sx.tolist()) == "[0.0, 6.0]"
        assert repr(stats.sy.tolist()) == "[0.0, 4.0]"


class TestProfileOracle:
    """_profile against the scalar loop: all seven values bit for bit."""

    def test_group_stats_in_first_appearance_order(self):
        rows = regression_table([(1.0, 2.0, "b"), (3.0, 5.0, "a"),
                                 (0.1, 0.2, "b")])
        stats = _group_stats(rows)
        assert stats.n.tolist() == [2.0, 1.0]
        assert stats.sx.tolist() == [math.fsum([2.0, 0.2]), 5.0]
        assert stats.sy.tolist() == [math.fsum([1.0, 0.1]), 3.0]
        assert stats.sxx.tolist() == [math.fsum([4.0, 0.2 * 0.2]), 25.0]
        assert stats.sxy.tolist() == [math.fsum([2.0, 0.1 * 0.2]), 15.0]
        assert stats.syy.tolist() == [math.fsum([1.0, 0.1 * 0.1]), 9.0]
        assert stats.sizes.tolist() == [1.0, 2.0]
        assert stats.size_index.tolist() == [1, 0]

    def test_sum_of_negative_zeros_is_positive_zero(self):
        # A loop's total starts at +0.0, and 0.0 + -0.0 is +0.0.
        total = regress._sequential_sum(np.array([-0.0, -0.0]))
        assert math.copysign(1.0, total) == 1.0

    @pytest.mark.parametrize("problem", sorted(_ORACLE_PROBLEMS))
    @pytest.mark.parametrize("theta", [0.0, 1e3])
    def test_equals_reference(self, problem, theta):
        rows = _ORACLE_PROBLEMS[problem]()
        groups = _group_stats(rows)
        assert _profile(groups, len(rows), theta) == reference_profile(
            groups, len(rows), theta)

    @pytest.mark.parametrize("problem", sorted(_ORACLE_PROBLEMS))
    def test_equals_reference_on_search_grid(self, problem, monkeypatch):
        # Every theta the golden-section search visits, then the final
        # evaluation at its estimate; none is evaluated twice.
        rows = _ORACLE_PROBLEMS[problem]()
        seen = []

        def recording(groups, n, theta):
            seen.append(theta)
            return _profile(groups, n, theta)

        monkeypatch.setattr(regress, "_profile", recording)
        fit_random_intercept(rows)
        assert len(seen) == len(set(seen))
        groups = _group_stats(rows)
        for theta in seen:
            assert _profile(groups, len(rows), theta) == reference_profile(
                groups, len(rows), theta), theta

    @pytest.mark.parametrize("problem", sorted(_FIT_PROBLEMS))
    def test_cached_fit_equals_every_step_search(self, problem):
        rows = _FIT_PROBLEMS[problem]()
        assert repr(asdict(fit_random_intercept(rows))) == repr(
            asdict(every_step_fit(rows)))

    @settings(derandomize=True, database=None, deadline=None,
              max_examples=150)
    @given(rows=_grouped_rows(),
           theta=st.one_of(st.just(0.0), st.floats(0.0, 1e3)))
    def test_equals_reference_property(self, rows, theta):
        groups = _group_stats(rows)
        assert _outcome(_profile, groups, len(rows), theta) == _outcome(
            reference_profile, groups, len(rows), theta)


def _fit_outcome(fit, rows):
    """A fit's fields as one repr (exact, and NaN equals NaN), or the
    error it raised."""
    try:
        return repr(asdict(fit(rows)))
    except FitError as exc:
        return f"FitError: {exc}"


@st.composite
def _fit_tables(draw):
    """Tables of 0-40 rows: all singletons (the OLS fallback), or
    groups of 1-8 rows interleaved; int or str labels; signed zeros."""
    if draw(st.booleans()):
        sizes = [1] * draw(st.integers(0, 40))
    else:
        sizes = draw(st.lists(st.integers(1, 8), min_size=1, max_size=8))
    groups = draw(st.permutations(
        [g for g, size in enumerate(sizes) for _ in range(size)]))
    if draw(st.booleans()):
        groups = [f"chip{g:02d}" for g in groups]
    values = st.one_of(_SIGNED_ZERO_OR_FINITE, st.floats(-10.0, 10.0))
    return regression_table((draw(values), draw(values), g) for g in groups)


# d * d and d ** 2 round apart: the two sums of squares differ.
_POW_ROUNDS_APART = 37334686.26253329


class TestFitsEqualRowOracle:
    """Both fits of a table against the row code they replaced, field
    for field (warnings included), or the same FitError."""

    @settings(derandomize=True, database=None, deadline=None,
              max_examples=300)
    @given(rows=_fit_tables())
    @example(rows=regression_table([(1.0, -_POW_ROUNDS_APART, 0),
                                    (2.0, 0.0, 1),
                                    (4.0, _POW_ROUNDS_APART, 2)]))
    @example(rows=regression_table([(-0.0, -0.0, "b"), (-0.0, 1.0, "a"),
                                    (0.0, 2.0, "b"), (1.0, -0.0, "a")]))
    def test_property(self, rows):
        assert _fit_outcome(fit_ols, rows) == _fit_outcome(
            oracle_fit_ols, table_rows(rows))
        assert _fit_outcome(fit_random_intercept, rows) == _fit_outcome(
            oracle_fit_random_intercept, table_rows(rows))

    def test_square_rounds_as_pow(self):
        assert _POW_ROUNDS_APART * _POW_ROUNDS_APART != \
            _POW_ROUNDS_APART ** 2
        rows = regression_table([(1.0, -_POW_ROUNDS_APART, 0),
                                 (2.0, 0.0, 1), (4.0, _POW_ROUNDS_APART, 2)])
        assert asdict(fit_ols(rows)) == asdict(oracle_fit_ols(
            table_rows(rows)))

    @pytest.mark.parametrize("problem", sorted(_FIT_PROBLEMS))
    def test_problems(self, problem):
        rows = _FIT_PROBLEMS[problem]()
        for fit, oracle in ((fit_ols, oracle_fit_ols),
                            (fit_random_intercept,
                             oracle_fit_random_intercept)):
            assert _fit_outcome(fit, rows) == _fit_outcome(
                oracle, table_rows(rows))

    @pytest.mark.parametrize("subset", ["all", "repeated"])
    def test_fixture_corpus(self, fixture_rounds, fixture_infos, subset):
        rows = rows_from_rounds(fixture_rounds, fixture_infos)
        rounds = fixture_rounds
        if subset == "repeated":
            rows = repeated_chip_rows(rows, fixture_rounds)
            rounds = repeated_chip_subset(fixture_rounds)
        oracle_rows = oracle_rows_from_rounds(rounds, fixture_infos)
        assert table_rows(rows) == oracle_rows
        assert asdict(fit_ols(rows)) == asdict(oracle_fit_ols(oracle_rows))
        assert asdict(fit_random_intercept(rows)) == asdict(
            oracle_fit_random_intercept(oracle_rows))


class TestOverflow:
    """Terms that overflow float64 raise FitError, not a silent inf."""

    def _huge(self, groups):
        rng = random.Random(5)
        return regression_table(
            (1e200 * rng.uniform(0.5, 1.0), 1e200 * rng.uniform(-1.0, 1.0),
             g) for g in groups)

    def test_ols(self):
        with pytest.raises(FitError, match="overflow"):
            fit_ols(self._huge(range(10)))

    def test_random_intercept_grouped(self):
        with pytest.raises(FitError, match="overflow"):
            fit_random_intercept(self._huge([0, 1, 0, 2, 1, 2]))

    def test_random_intercept_singletons(self):
        # the OLS fallback
        with pytest.raises(FitError, match="overflow"):
            fit_random_intercept(self._huge(range(10)))

    @pytest.mark.parametrize("column", ["i_w", "ease"])
    def test_one_column(self, column):
        rows = _noisy_rows(4, 20, 1.0, 0.5, 0.1)
        getattr(rows, column)[3] = 1e200
        with pytest.raises(FitError, match="overflow"):
            fit_ols(rows)

    def test_sum_overflow(self):
        # each centred ease and its square are finite; the sum is not
        rows = regression_table((float(i), 1.0e154 * (1 - 2 * (i % 2)), i)
                                for i in range(40))
        with pytest.raises(FitError, match="overflow"):
            fit_ols(rows)


def _info(word, i_w):
    return WordInfo(word, 100.0 / i_w, i_w, 10, False)


class TestRowsFromRounds:
    def test_groups_by_target_chip(self, fixture_rounds, fixture_clean,
                                   fixture_infos):
        rows = rows_from_rounds(fixture_rounds, fixture_infos)
        assert rows.dtype.descr == [
            ("i_w", "<f8"), ("ease", "<f8"), ("group", "<i8")]
        with_info = [r for r in fixture_clean if r.word in fixture_infos]
        assert len(rows) == len(with_info)
        for row, r in zip(rows, with_info):
            assert row.i_w == fixture_infos[r.word].i_w
            assert row.ease == r.ease
            assert tuple(fixture_rounds.chip_keys[row.group].tolist()) == \
                r.target_key

    def test_skips_words_below_threshold(self, fixture_rounds, fixture_infos):
        rows = rows_from_rounds(fixture_rounds, fixture_infos)
        assert len(rows) < len(fixture_rounds)

    def test_repeated_counts_rounds_of_every_word(self):
        # Chip 1 is the target twice, once of a word without info, so its
        # "a" round is kept; chip 2 is the target once.
        gray = (50.0, 0.0, 0.0)
        rounds = rounds_from_rows([
            CleanRow("g", i, "", word, key, key, key, ease, gray, gray, gray)
            for i, (word, key, ease) in enumerate([
                ("a", (1, 0, 0), 1.0), ("rare", (1, 0, 0), 2.0),
                ("b", (2, 0, 0), 3.0), ("a", (3, 0, 0), 4.0),
                ("b", (3, 0, 0), 5.0)])])
        infos = {"a": _info("a", 2.0), "b": _info("b", 3.0)}
        rows = repeated_chip_rows(rows_from_rounds(rounds, infos), rounds)
        assert table_rows(rows) == [Row(2.0, 1.0, 0), Row(2.0, 4.0, 2),
                                    Row(3.0, 5.0, 2)]
        assert table_rows(rows) == oracle_rows_from_rounds(
            repeated_chip_subset(rounds), infos)


class TestFixtureCorpusRegression:
    """The synthetic speaker prefers narrow words in hard contexts, so
    informativeness must fall as context ease rises."""

    def test_ols_slope_negative(self, fixture_rounds, fixture_infos):
        fit = fit_ols(rows_from_rounds(fixture_rounds, fixture_infos))
        assert fit.slope < 0
        assert fit.t_slope < -3.0

    def test_mixed_slope_negative(self, fixture_rounds, fixture_infos):
        fit = fit_random_intercept(
            rows_from_rounds(fixture_rounds, fixture_infos)
        )
        assert fit.converged
        assert fit.slope < 0
        assert fit.t_slope < -3.0
        assert fit.sigma2_group > 0

    def test_repeated_subset_slope_negative(self, fixture_rounds,
                                            fixture_infos):
        rows = repeated_chip_rows(
            rows_from_rounds(fixture_rounds, fixture_infos), fixture_rounds)
        fit = fit_random_intercept(rows)
        assert fit.slope < 0
        assert fit.t_slope < -2.0


class TestPublishedCorpus:
    def test_distractor_distance_correlation(self, english_corpus):
        rounds = english_corpus.rounds
        d = np.sort(np.stack([
            np.linalg.norm(rounds.target - rounds.distractor1, axis=1),
            np.linalg.norm(rounds.target - rounds.distractor2, axis=1),
        ]), axis=0)
        assert np.corrcoef(d[0], d[1])[0, 1] == pytest.approx(0.58, abs=0.05)


class TestReporting:
    def test_format_fit_fields(self):
        fit = fit_ols(_noisy_rows(1, 30, 1.0, 2.0, 0.1))
        text = format_fit(fit, "demo")
        assert text.startswith("demo (ols)\n")
        assert "observations: 30" in text
        assert "slope:" in text
        assert "log-likelihood:" in text
        assert "NOT CONVERGED" not in text

    def test_format_fit_flags_problems(self):
        fit = FitResult(
            method="random_intercept", intercept=1.0, slope=-1.0,
            se_intercept=0.1, se_slope=0.1, t_slope=-10.0, p_slope=0.0,
            sigma2_residual=1.0, sigma2_group=5.0, n=10, n_groups=2,
            converged=False, loglik=-12.0, warnings=("something odd",),
        )
        text = format_fit(fit)
        assert "NOT CONVERGED" in text
        assert "warning: something odd" in text

    def test_asdict_is_json_ready(self):
        fit = fit_random_intercept(make_grouped_rows(12, n_groups=20))
        payload = asdict(fit)
        parsed = json.loads(json.dumps(payload))
        assert parsed["method"] == "random_intercept"
        assert parsed["n_groups"] == 20
        assert parsed["slope"] == fit.slope
        assert isinstance(parsed["warnings"], list)
