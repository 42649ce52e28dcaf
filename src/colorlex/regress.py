"""Linear models relating utterance informativeness to context ease.

Two fits are provided: plain least squares, and a linear model with a
random intercept per group (target chip), estimated by maximum
likelihood. The random-intercept model is fit by profiling: for a
fixed variance ratio theta = sigma2_group / sigma2_residual the GLS
solution is closed form via per-group sufficient statistics (each
group's covariance is I + theta * J, whose inverse is
I - theta/(1 + theta*n) * J), and theta itself is found by
golden-section search on the profile log-likelihood. Everything is
deterministic: no starting values, no iterative solvers with
data-dependent step counts.

The per-group statistics are float64 arrays, and each profile sum is a
sequential numpy accumulation: `np.cumsum` adds the group terms one at
a time in group order, so every sum has the bits of a plain Python
loop over the groups. `np.sum` is not used because it adds pairwise,
which changes the low bits, and `np.log1p` is not used because it need
not round as `math.log1p` does; `math.log1p` runs once per distinct
group size instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cache
from math import fsum
from typing import Hashable, Mapping, NamedTuple, Sequence

import numpy as np

from .corpus import Rounds
from .errors import ColorlexError
from .informativeness import WordInfo

__all__ = [
    "RegressionRow",
    "FitResult",
    "FitError",
    "fit_ols",
    "fit_random_intercept",
    "rows_from_rounds",
    "format_fit",
]


class FitError(ColorlexError):
    pass


class RegressionRow(NamedTuple):
    """One observation: informativeness of the word uttered in a round.

    i_w is the response, ease the predictor, group the random-intercept
    key (the target chip's id, or any other opaque hashable label).
    """

    i_w: float
    ease: float
    group: Hashable


@dataclass(frozen=True)
class FitResult:
    method: str
    intercept: float
    slope: float
    se_intercept: float
    se_slope: float
    t_slope: float
    p_slope: float
    sigma2_residual: float
    sigma2_group: float
    n: int
    n_groups: int
    converged: bool
    loglik: float
    warnings: tuple[str, ...] = ()


def _two_sided_p(t: float) -> float:
    if math.isinf(t):
        return 0.0
    return math.erfc(abs(t) / math.sqrt(2.0))


def _t_stat(slope: float, se_slope: float) -> float:
    if se_slope == 0.0:
        return 0.0 if slope == 0.0 else math.copysign(math.inf, slope)
    return slope / se_slope


def _check_rows(rows: Sequence[RegressionRow]) -> int:
    n = len(rows)
    if n < 3:
        raise FitError(f"need at least 3 observations, got {n}")
    return n


def fit_ols(rows: Sequence[RegressionRow]) -> FitResult:
    """Ordinary least squares of i_w on ease with an intercept.

    sigma2_residual is the maximum-likelihood estimate (RSS / n) so the
    reported log-likelihood is comparable with the random-intercept
    model's; standard errors use the classical n - 2 denominator.
    """
    n = _check_rows(rows)
    x = [r.ease for r in rows]
    y = [r.i_w for r in rows]
    mean_x = fsum(x) / n
    mean_y = fsum(y) / n
    sxx = fsum((xi - mean_x) ** 2 for xi in x)
    if sxx == 0.0:
        raise FitError("predictor is constant; slope undefined")
    sxy = fsum((xi - mean_x) * (yi - mean_y) for xi, yi in zip(x, y))
    slope = sxy / sxx
    intercept = mean_y - slope * mean_x
    rss = fsum((yi - intercept - slope * xi) ** 2 for xi, yi in zip(x, y))
    sigma2_ml = rss / n
    s2 = rss / (n - 2)
    se_slope = math.sqrt(s2 / sxx)
    se_intercept = math.sqrt(s2 * (1.0 / n + mean_x * mean_x / sxx))
    t = _t_stat(slope, se_slope)
    loglik = -0.5 * n * (
        math.log(2.0 * math.pi) + math.log(max(sigma2_ml, 1e-300)) + 1.0
    )
    return FitResult(
        method="ols",
        intercept=intercept,
        slope=slope,
        se_intercept=se_intercept,
        se_slope=se_slope,
        t_slope=t,
        p_slope=_two_sided_p(t),
        sigma2_residual=sigma2_ml,
        sigma2_group=0.0,
        n=n,
        n_groups=n,
        converged=True,
        loglik=loglik,
    )


# theta = sigma2_group / sigma2_residual is searched on a log1p grid up
# to this ratio; a maximizer at the boundary is reported unconverged.
_THETA_MAX = 1e3
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class _GroupStats(NamedTuple):
    """Per-group sufficient statistics for the profiled GLS solve.

    One float64 array per statistic, one entry per group, in the order
    the groups first appear in the rows. `sizes` holds the distinct
    group sizes in ascending order and `size_index` each group's
    position in it.
    """

    n: np.ndarray
    sx: np.ndarray
    sy: np.ndarray
    sxx: np.ndarray
    sxy: np.ndarray
    syy: np.ndarray
    sizes: np.ndarray
    size_index: np.ndarray


def _group_stats(rows: Sequence[RegressionRow]) -> _GroupStats:
    """Group the rows by label and sum each group's statistics.

    Labels become dense integer ids in first-appearance order, and each
    group's values are gathered in row order. A group of several rows
    takes one fsum per statistic; a single row's fsum is the value
    itself, except that fsum([-0.0]) is +0.0, so it is `0.0 + v`.
    """
    ids: dict[Hashable, int] = {}
    group = np.fromiter((ids.setdefault(r.group, len(ids)) for r in rows),
                        dtype=np.intp, count=len(rows))
    x = np.fromiter((r.ease for r in rows), dtype=np.float64, count=len(rows))
    y = np.fromiter((r.i_w for r in rows), dtype=np.float64, count=len(rows))
    counts = np.bincount(group, minlength=len(ids))
    order = np.argsort(group, kind="stable")
    x, y = x[order], y[order]
    terms = (x, y, x * x, x * y, y * y)
    ends = np.cumsum(counts)
    starts = ends - counts
    sums = [0.0 + t[starts] for t in terms]
    multi = np.flatnonzero(counts > 1)
    if len(multi):
        spans = list(zip(starts[multi].tolist(), ends[multi].tolist()))
        for total, values in zip(sums, (t.tolist() for t in terms)):
            total[multi] = [fsum(values[a:b]) for a, b in spans]
    n = counts.astype(np.float64)
    sizes, size_index = np.unique(n, return_inverse=True)
    return _GroupStats(n, *sums, sizes, size_index)


def _sequential_sum(terms: np.ndarray) -> float:
    """terms[0] + terms[1] + ..., added left to right from 0.0."""
    # np.cumsum adds strictly in order. Adding the loop's starting 0.0
    # turns a sum of negative zeros into +0.0, the one case where a
    # running total that starts at terms[0] differs.
    return 0.0 + float(np.cumsum(terms)[-1])


def _profile(stats: _GroupStats, n: int, theta: float):
    """GLS estimates and profile log-likelihood at a fixed variance ratio.

    Each sum adds its per-group terms in group order, and each term is
    computed with the same operations in the same order as a scalar
    loop over the groups would use, so the results have its bits.
    """
    c = theta / (1.0 + theta * stats.n)
    cn = c * stats.n
    cx = c * stats.sx
    cy = c * stats.sy
    a11 = _sequential_sum(stats.n - cn * stats.n)
    a12 = _sequential_sum(stats.sx * (1.0 - cn))
    a22 = _sequential_sum(stats.sxx - cx * stats.sx)
    b1 = _sequential_sum(stats.sy - cn * stats.sy)
    b2 = _sequential_sum(stats.sxy - cx * stats.sy)
    yy = _sequential_sum(stats.syy - cy * stats.sy)
    log1p = np.array([math.log1p(theta * s) for s in stats.sizes.tolist()])
    logdet = _sequential_sum(log1p[stats.size_index])
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


def fit_random_intercept(rows: Sequence[RegressionRow]) -> FitResult:
    """ML fit of i_w on ease with a random intercept per row group.

    When every group is a singleton the group variance is not
    identifiable; the fit falls back to least squares and says so in
    the result's warnings.
    """
    n = _check_rows(rows)
    stats = _group_stats(rows)
    n_groups = len(stats.n)
    if stats.sizes[-1] < 2:  # the largest group has one row
        return replace(
            fit_ols(rows),
            method="random_intercept",
            n_groups=n_groups,
            warnings=(
                "every group has a single observation; "
                "group variance not identifiable, fell back to OLS",
            ),
        )

    # After about 80 steps the bracket is an ulp or so wide and the
    # search revisits points; each theta is profiled once.
    profile = cache(lambda theta: _profile(stats, n, theta))

    def objective(u: float) -> float:
        return profile(math.expm1(u))[0]

    # Golden-section search on u = log1p(theta). 120 iterations shrink
    # the bracket far below any meaningful resolution in theta.
    lo, hi = 0.0, math.log1p(_THETA_MAX)
    m1 = hi - _GOLDEN * (hi - lo)
    m2 = lo + _GOLDEN * (hi - lo)
    f1, f2 = objective(m1), objective(m2)
    for _ in range(120):
        if f1 >= f2:
            hi, m2, f2 = m2, m1, f1
            m1 = hi - _GOLDEN * (hi - lo)
            f1 = objective(m1)
        else:
            lo, m1, f1 = m1, m2, f2
            m2 = lo + _GOLDEN * (hi - lo)
            f2 = objective(m2)
    u_hat = (lo + hi) / 2.0
    # The bracket shrinks toward the interior; snap to the lower
    # endpoint when it is at least as good, so theta = 0 is exact.
    if objective(0.0) >= objective(u_hat):
        u_hat = 0.0
    theta = math.expm1(u_hat)
    loglik, intercept, slope, sigma2, a11, a22, det = profile(theta)
    se_intercept = math.sqrt(sigma2 * a22 / det)
    se_slope = math.sqrt(sigma2 * a11 / det)
    t = _t_stat(slope, se_slope)
    converged = theta < 0.999 * _THETA_MAX
    warnings = ()
    if not converged:
        warnings = (
            "variance ratio hit the search boundary; "
            "group variance estimate unreliable",
        )
    return FitResult(
        method="random_intercept",
        intercept=intercept,
        slope=slope,
        se_intercept=se_intercept,
        se_slope=se_slope,
        t_slope=t,
        p_slope=_two_sided_p(t),
        sigma2_residual=sigma2,
        sigma2_group=theta * sigma2,
        n=n,
        n_groups=n_groups,
        converged=converged,
        loglik=loglik,
        warnings=warnings,
    )


def rows_from_rounds(rounds: Rounds,
                     infos: Mapping[str, WordInfo]) -> list[RegressionRow]:
    """Pair each round's context ease with its word's informativeness.

    Rounds whose word fell below the frequency threshold (no info
    entry) are skipped. Rows are grouped by target chip id, so chips
    that recur across rounds share a random intercept.
    """
    i_w = [infos[w].i_w if w in infos else None for w in rounds.vocab]
    known = np.array([v is not None for v in i_w], dtype=bool)
    kept = np.flatnonzero(known[rounds.word_ids])
    return list(map(
        RegressionRow,
        [i_w[w] for w in rounds.word_ids[kept].tolist()],
        rounds.ease[kept].tolist(),
        rounds.chip_ids[kept].tolist(),
    ))


def format_fit(result: FitResult, label: str = "") -> str:
    """Human-readable report block for a fitted model."""
    lines = []
    title = result.method if not label else f"{label} ({result.method})"
    lines.append(title)
    lines.append("-" * len(title))
    lines.append(f"observations: {result.n}   groups: {result.n_groups}")
    lines.append(
        f"intercept: {result.intercept:.6f}  (se {result.se_intercept:.6f})"
    )
    lines.append(
        f"slope:     {result.slope:.6f}  (se {result.se_slope:.6f},"
        f" t {result.t_slope:.3f}, p {result.p_slope:.3g})"
    )
    lines.append(
        f"sigma2 residual: {result.sigma2_residual:.6f}   "
        f"sigma2 group: {result.sigma2_group:.6f}"
    )
    lines.append(f"log-likelihood: {result.loglik:.4f}")
    if not result.converged:
        lines.append("NOT CONVERGED")
    for w in result.warnings:
        lines.append(f"warning: {w}")
    return "\n".join(lines) + "\n"
