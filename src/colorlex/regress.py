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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from math import fsum
from typing import Hashable, Mapping, Sequence

from .errors import ColorlexError
from .informativeness import WordInfo

__all__ = [
    "RegressionRow",
    "FitResult",
    "FitError",
    "fit_ols",
    "fit_random_intercept",
    "rows_from_rounds",
    "pearson_r",
    "format_fit",
]


class FitError(ColorlexError):
    pass


@dataclass(frozen=True)
class RegressionRow:
    """One observation: informativeness of the word uttered in a round.

    i_w is the response, ease the predictor, group the random-intercept
    key (the target chip's key, or any other opaque hashable label).
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


class _GroupStats:
    """Per-group sufficient statistics for the profiled GLS solve."""

    __slots__ = ("n", "sx", "sy", "sxx", "sxy", "syy")

    def __init__(self, xs: list[float], ys: list[float]):
        self.n = len(xs)
        self.sx = fsum(xs)
        self.sy = fsum(ys)
        self.sxx = fsum(v * v for v in xs)
        self.sxy = fsum(a * b for a, b in zip(xs, ys))
        self.syy = fsum(v * v for v in ys)


def _profile(stats: list[_GroupStats], n: int, theta: float):
    """GLS estimates and profile log-likelihood at a fixed variance ratio."""
    a11 = a12 = a22 = b1 = b2 = yy = logdet = 0.0
    for g in stats:
        c = theta / (1.0 + theta * g.n)
        a11 += g.n - c * g.n * g.n
        a12 += g.sx * (1.0 - c * g.n)
        a22 += g.sxx - c * g.sx * g.sx
        b1 += g.sy - c * g.n * g.sy
        b2 += g.sxy - c * g.sx * g.sy
        yy += g.syy - c * g.sy * g.sy
        logdet += math.log1p(theta * g.n)
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
    by_group: dict[Hashable, tuple[list[float], list[float]]] = {}
    for r in rows:
        xs, ys = by_group.setdefault(r.group, ([], []))
        xs.append(r.ease)
        ys.append(r.i_w)
    if max(len(xs) for xs, _ in by_group.values()) < 2:
        return replace(
            fit_ols(rows),
            method="random_intercept",
            n_groups=len(by_group),
            warnings=(
                "every group has a single observation; "
                "group variance not identifiable, fell back to OLS",
            ),
        )
    stats = [_GroupStats(xs, ys) for xs, ys in by_group.values()]

    def objective(u: float) -> float:
        return _profile(stats, n, math.expm1(u))[0]

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
    loglik, intercept, slope, sigma2, a11, a22, det = _profile(stats, n, theta)
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
        n_groups=len(by_group),
        converged=converged,
        loglik=loglik,
        warnings=warnings,
    )


def rows_from_rounds(rounds, infos: Mapping[str, WordInfo]) -> list[RegressionRow]:
    """Pair each round's context ease with its word's informativeness.

    Rounds whose word fell below the frequency threshold (no info
    entry) are skipped. Rows are grouped by target chip, so chips that
    recur across rounds share a random intercept.
    """
    rows = []
    for r in rounds:
        info = infos.get(r.word)
        if info is None:
            continue
        rows.append(RegressionRow(info.i_w, r.context_ease, r.target_key))
    return rows


def pearson_r(x: Sequence[float], y: Sequence[float]) -> float:
    n = len(x)
    if n != len(y):
        raise ValueError("length mismatch")
    if n < 3:
        raise ValueError("need at least 3 observations")
    mean_x = fsum(x) / n
    mean_y = fsum(y) / n
    sxx = fsum((v - mean_x) ** 2 for v in x)
    syy = fsum((v - mean_y) ** 2 for v in y)
    if sxx == 0.0 or syy == 0.0:
        raise ValueError("zero variance")
    sxy = fsum((a - mean_x) * (b - mean_y) for a, b in zip(x, y))
    return sxy / math.sqrt(sxx * syy)


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
