"""Least squares, the random-intercept model, and correlation."""

import json
import math
import random
from dataclasses import asdict

import numpy as np
import pytest
from conftest import make_grouped_rows

from colorlex.colorspace import lab_distance
from colorlex.regress import (
    FitError,
    FitResult,
    RegressionRow,
    _GroupStats,
    _profile,
    fit_ols,
    fit_random_intercept,
    format_fit,
    pearson_r,
    rows_from_rounds,
)


def _line_rows(n=10, intercept=2.0, slope=-0.01):
    return [
        RegressionRow(intercept + slope * x, float(x), str(x))
        for x in range(n)
    ]


def _noisy_rows(seed, n, intercept, slope, sd):
    rng = random.Random(seed)
    rows = []
    for i in range(n):
        x = rng.uniform(0.0, 100.0)
        rows.append(
            RegressionRow(intercept + slope * x + rng.gauss(0.0, sd), x,
                          str(i))
        )
    return rows


def _group_stats(rows):
    """Per-group statistics in first-appearance order, as the fit uses."""
    by_group = {}
    for r in rows:
        xs, ys = by_group.setdefault(r.group, ([], []))
        xs.append(r.ease)
        ys.append(r.i_w)
    return [_GroupStats(xs, ys) for xs, ys in by_group.values()]


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
        slope, intercept = np.polyfit([r.ease for r in rows],
                                      [r.i_w for r in rows], 1)
        assert fit.slope == pytest.approx(slope, rel=1e-10)
        assert fit.intercept == pytest.approx(intercept, rel=1e-10)

    def test_null_slope_not_significant(self):
        rng = random.Random(55)
        rows = [
            RegressionRow(1.0 + rng.gauss(0.0, 0.5), rng.uniform(0.0, 10.0),
                          str(i))
            for i in range(500)
        ]
        fit = fit_ols(rows)
        assert abs(fit.t_slope) < 2.0
        assert fit.p_slope > 0.05

    def test_shift_invariance(self):
        rows = _noisy_rows(11, 100, 2.0, -0.5, 0.2)
        shifted = [RegressionRow(r.i_w, r.ease + 37.5, r.group) for r in rows]
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
        rows = [RegressionRow(float(i), 5.0, str(i)) for i in range(10)]
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
                rows.append(
                    RegressionRow(2.0 + 0.01 * x + rng.gauss(0.0, 0.2), x,
                                  f"g{g}")
                )
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
                    RegressionRow(offset + 0.01 * x + rng.gauss(0.0, 1e-3),
                                  x, f"g{g}")
                )
        fit = fit_random_intercept(rows)
        assert not fit.converged
        assert any("boundary" in w for w in fit.warnings)

    def test_deterministic(self):
        rows = make_grouped_rows(4)
        assert fit_random_intercept(rows) == fit_random_intercept(rows)

    def test_group_labels_are_opaque(self):
        rows = make_grouped_rows(8, n_groups=50)
        renamed = [
            RegressionRow(r.i_w, r.ease, "x" + r.group) for r in rows
        ]
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
    labels = {}
    g = np.array([labels.setdefault(r.group, len(labels)) for r in rows])
    n = len(rows)
    v = np.eye(n) + theta * (g[:, None] == g[None, :])
    x = np.column_stack([np.ones(n), [r.ease for r in rows]])
    y = np.array([r.i_w for r in rows])
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
            rows.append(RegressionRow(1.0 + offset - 0.03 * x
                                      + rng.gauss(0.0, 0.4), x, (g, 0, 0)))
    rng.shuffle(rows)
    return rows


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


class TestRowsFromRounds:
    def test_groups_by_target_chip(self, fixture_rounds, fixture_infos):
        rows = rows_from_rounds(fixture_rounds, fixture_infos)
        with_info = [r for r in fixture_rounds if r.word in fixture_infos]
        assert len(rows) == len(with_info)
        for row, r in zip(rows, with_info):
            assert row.i_w == fixture_infos[r.word].i_w
            assert row.ease == r.context_ease
            assert row.group == r.target_key

    def test_skips_words_below_threshold(self, fixture_rounds, fixture_infos):
        rows = rows_from_rounds(fixture_rounds, fixture_infos)
        assert len(rows) < len(fixture_rounds)


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
        from colorlex.corpus import repeated_chip_subset

        rows = rows_from_rounds(repeated_chip_subset(fixture_rounds),
                                fixture_infos)
        fit = fit_random_intercept(rows)
        assert fit.slope < 0
        assert fit.t_slope < -2.0


class TestPearson:
    def test_perfect_correlation(self):
        x = [1.0, 2.0, 3.0, 4.0]
        assert pearson_r(x, x) == pytest.approx(1.0, abs=1e-15)
        assert pearson_r(x, [-v for v in x]) == pytest.approx(-1.0, abs=1e-15)

    def test_matches_numpy(self):
        rng = random.Random(77)
        x = [rng.uniform(0, 10) for _ in range(200)]
        y = [xi * 0.5 + rng.gauss(0, 2) for xi in x]
        assert pearson_r(x, y) == pytest.approx(np.corrcoef(x, y)[0, 1],
                                                rel=1e-12)

    def test_affine_invariance(self):
        rng = random.Random(78)
        x = [rng.uniform(0, 10) for _ in range(50)]
        y = [rng.uniform(0, 10) for _ in range(50)]
        scaled = [3.0 * v + 11.0 for v in y]
        assert pearson_r(x, scaled) == pytest.approx(pearson_r(x, y),
                                                     abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError, match="at least 3"):
            pearson_r([1.0, 2.0], [1.0, 2.0])
        with pytest.raises(ValueError, match="mismatch"):
            pearson_r([1.0, 2.0, 3.0], [1.0, 2.0])
        with pytest.raises(ValueError, match="variance"):
            pearson_r([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_distractor_distance_correlation(self, english_corpus):
        closest, other = [], []
        for r in english_corpus.rounds:
            d = sorted(lab_distance(r.target, c) for c in r.distractors)
            closest.append(d[0])
            other.append(d[1])
        assert pearson_r(closest, other) == pytest.approx(0.58, abs=0.05)


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
