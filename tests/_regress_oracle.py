"""Row-by-row oracles of the regression inputs and fits.

`regress` works on one numpy record table (fields i_w, ease, group).
This module keeps the code it replaced, one observation per Python
tuple, as the reference the table code is compared with:

- `oracle_rows_from_rounds` builds one `Row` per round, and
  `repeated_chip_subset` takes the rounds whose target chip recurs,
  before the rows are built;
- `oracle_fit_ols` sums Python floats, squares with `** 2`;
- `oracle_group_stats` groups with a dict of lists per label, in
  first-appearance order, and fsums each statistic per group;
- `oracle_fit_random_intercept` runs `regress.fit_random_intercept`
  with those two in place of `regress.fit_ols` and
  `regress._group_stats`, so the profile search is shared and the
  inputs it gets are the oracle's.

`regression_table` is the one way the tests build a table.
"""

from __future__ import annotations

import math
from math import fsum
from operator import mul
from typing import Hashable, NamedTuple

import numpy as np

from colorlex import regress
from colorlex.corpus import Rounds
from colorlex.regress import FitError, FitResult


class Row(NamedTuple):
    """One observation, as the fits took it before the table."""

    i_w: float
    ease: float
    group: Hashable


def regression_table(rows) -> np.recarray:
    """The record table of (i_w, ease, group) triples, in their order.

    Integer labels give an int64 `group`, as `rows_from_rounds` does;
    string labels give a unicode one. An empty table's `group` is
    float64, which no fit reaches: fewer than 3 rows are refused.
    """
    i_w, ease, group = list(zip(*rows)) or [(), (), ()]
    return np.rec.fromarrays(
        [np.array(i_w, dtype=np.float64), np.array(ease, dtype=np.float64),
         np.array(group)], names=("i_w", "ease", "group"))


def table_rows(table: np.recarray) -> list[Row]:
    """A table's records as Row tuples of Python values."""
    return list(map(Row, table.i_w.tolist(), table.ease.tolist(),
                    table.group.tolist()))


def repeated_chip_subset(rounds: Rounds) -> Rounds:
    """Keep rounds whose target chip occurs at least twice in the data."""
    counts = np.bincount(rounds.chip_ids, minlength=len(rounds.chip_keys))
    return rounds.take(np.flatnonzero(counts[rounds.chip_ids] >= 2))


def oracle_rows_from_rounds(rounds: Rounds, infos) -> list[Row]:
    """One Row per round whose word has an info entry, in round order,
    grouped by target chip id."""
    words = [rounds.vocab[w] for w in rounds.word_ids.tolist()]
    return [Row(infos[w].i_w, ease, chip)
            for w, ease, chip in zip(words, rounds.ease.tolist(),
                                     rounds.chip_ids.tolist())
            if w in infos]


def oracle_fit_ols(rows) -> FitResult:
    """`regress.fit_ols` over Python floats, one generator per sum."""
    n = len(rows)
    if n < 3:
        raise FitError(f"need at least 3 observations, got {n}")
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
    t = regress._t_stat(slope, se_slope)
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
        p_slope=regress._two_sided_p(t),
        sigma2_residual=sigma2_ml,
        sigma2_group=0.0,
        n=n,
        n_groups=n,
        converged=True,
        loglik=loglik,
    )


def oracle_group_stats(rows) -> regress._GroupStats:
    """The `_GroupStats` that `_profile` takes: a dict of two lists per
    label, groups in first-appearance order, then one fsum per
    statistic (n, sx, sy, sxx, sxy, syy) and group."""
    by_group = {}
    for r in rows:
        xs, ys = by_group.setdefault(r.group, ([], []))
        xs.append(r.ease)
        ys.append(r.i_w)
    columns = [np.array(c, dtype=np.float64) for c in zip(*(
        (len(xs), fsum(xs), fsum(ys), fsum(map(mul, xs, xs)),
         fsum(map(mul, xs, ys)), fsum(map(mul, ys, ys)))
        for xs, ys in by_group.values()))]
    sizes, size_index = np.unique(columns[0], return_inverse=True)
    return regress._GroupStats(*columns, sizes, size_index)


def stats_repr(stats) -> str:
    """All eight arrays of a `_GroupStats`; repr tells -0.0 from 0.0,
    which == does not."""
    return repr([a.tolist() for a in stats])


def oracle_fit_random_intercept(rows) -> FitResult:
    """`regress.fit_random_intercept` of Row tuples, with the oracle's
    OLS fallback and per-group statistics."""
    saved = regress.fit_ols, regress._group_stats
    regress.fit_ols, regress._group_stats = oracle_fit_ols, oracle_group_stats
    try:
        return regress.fit_random_intercept(rows)
    finally:
        regress.fit_ols, regress._group_stats = saved
