"""Acceptance gate: one test per release criterion.

Each test prints a single `[acceptance N] PASS/FAIL/SKIP` line (run
pytest with -s to see them all) and fails with the collected reasons.
Criteria that need the published reference-game corpora skip visibly
when the data is not available.
"""

import filecmp
import random

import numpy as np
import pytest
from _labref import srgb_to_lab_decimal
from _simulate_oracle import referent_rows
from conftest import _locate_corpus, make_grouped_rows, run_stages
from test_kernels import oracle_mean_pairwise

from colorlex.colorspace import SrgbColor, srgb_to_lab
from colorlex.informativeness import SamplingConfig, informativeness
from colorlex.regress import (
    fit_random_intercept,
    repeated_chip_rows,
    rows_from_rounds,
)
from colorlex.simulate import (
    SystemVariant,
    build_entries,
    generate_stimuli,
    run_all_variants,
)

ACTUAL = SystemVariant.ACTUAL
GENERAL = SystemVariant.GENERAL_ONLY
SPECIFIC = SystemVariant.SPECIFIC_ONLY


def _report(num, desc, failures):
    status = "FAIL" if failures else "PASS"
    print(f"[acceptance {num}] {status}: {desc}")
    if failures:
        pytest.fail("; ".join(failures), pytrace=False)


def _skip(num, desc, reason):
    print(f"[acceptance {num}] SKIP: {desc} ({reason})")
    pytest.skip(reason)


def _corpus_or_skip(request, lang, fixture, num, desc):
    if _locate_corpus(lang) is None:
        _skip(num, desc, f"public {lang} corpus not present")
    return request.getfixturevalue(fixture)


def _within(value, target, tol, label):
    ok = abs(value - target) <= tol
    return (ok, f"{label}: {value:.4f} not within {tol} of {target}")


def test_01_toy_oracle(toy_system):
    desc = "toy-system accuracies exactly 29/30, 13/15, 14/15"
    results = run_all_variants(toy_system.referents)
    expected = {ACTUAL: 29 / 30, GENERAL: 13 / 15, SPECIFIC: 14 / 15}
    failures = [
        f"{v.value}: {results[v].accuracy!r} != {acc!r}"
        for v, acc in expected.items()
        if results[v].accuracy != acc
    ]
    _report(1, desc, failures)


def _check_table3(corpus, acc_targets, acc_tol, il_targets, il_tol):
    referents, _ = build_entries(corpus.rounds, corpus.infos)
    results = run_all_variants(referents)
    checks = []
    for variant, acc, il in zip((ACTUAL, GENERAL, SPECIFIC),
                                acc_targets, il_targets):
        r = results[variant]
        checks.append(_within(r.accuracy, acc, acc_tol,
                              f"accuracy({variant.value})"))
        checks.append(_within(r.i_l, il, il_tol, f"I_L({variant.value})"))
    return [msg for ok, msg in checks if not ok]


def test_02_simulation_english(request):
    desc = "English simulation accuracies within 2pp, I_L within 0.25"
    corpus = _corpus_or_skip(request, "en", "english_corpus", 2, desc)
    failures = _check_table3(corpus, (0.98, 0.93, 0.96), 0.02,
                             (2.78, 2.56, 3.99), 0.25)
    _report(2, desc, failures)


def test_02_simulation_chinese(request):
    desc = "Chinese simulation accuracies within 3pp, I_L within 0.3"
    corpus = _corpus_or_skip(request, "zh", "chinese_corpus", 2, desc)
    failures = _check_table3(corpus, (0.99, 0.93, 0.98), 0.03,
                             (1.99, 1.83, 3.13), 0.3)
    _report(2, desc, failures)


def test_03_orderings(fixture_rounds, fixture_infos, toy_system):
    desc = "accuracy(actual) >= both; I_L general <= actual <= specific"
    failures = []
    fixture_referents, _ = build_entries(fixture_rounds, fixture_infos)
    for label, referents in (("fixture", fixture_referents),
                             ("toy", toy_system.referents)):
        r = run_all_variants(referents)
        if not (r[ACTUAL].accuracy >= r[GENERAL].accuracy
                and r[ACTUAL].accuracy >= r[SPECIFIC].accuracy):
            failures.append(f"{label}: accuracy ordering violated")
        if not (r[GENERAL].i_l <= r[ACTUAL].i_l <= r[SPECIFIC].i_l):
            failures.append(f"{label}: I_L ordering violated")
    _report(3, desc, failures)


def test_04_regression_signs_english(request):
    desc = "English slope negative: |t| >= 3.3 full, repeated subset too"
    corpus = _corpus_or_skip(request, "en", "english_corpus", 4, desc)
    failures = []
    full = fit_random_intercept(rows_from_rounds(corpus.rounds, corpus.infos))
    if not (full.slope < 0 and abs(full.t_slope) >= 3.3):
        failures.append(
            f"full: slope {full.slope:.5f}, t {full.t_slope:.2f}"
        )
    sub = fit_random_intercept(repeated_chip_rows(
        rows_from_rounds(corpus.rounds, corpus.infos), corpus.rounds))
    if not sub.slope < 0:
        failures.append(f"repeated: slope {sub.slope:.5f}")
    _report(4, desc, failures)


def test_04_regression_signs_chinese(request):
    desc = "Chinese slope negative with |t| >= 2"
    corpus = _corpus_or_skip(request, "zh", "chinese_corpus", 4, desc)
    fit = fit_random_intercept(rows_from_rounds(corpus.rounds, corpus.infos))
    failures = []
    if not (fit.slope < 0 and abs(fit.t_slope) >= 2.0):
        failures.append(f"slope {fit.slope:.5f}, t {fit.t_slope:.2f}")
    _report(4, desc, failures)


def test_05_synthetic_recovery():
    desc = "random-intercept fit recovers generating parameters, 5 seeds"
    failures = []
    for seed in (1, 2, 3, 4, 5):
        fit = fit_random_intercept(make_grouped_rows(seed))
        for ok, msg in (
            _within(fit.slope, -0.02, 0.002, f"seed {seed} slope"),
            _within(fit.sigma2_group, 0.25, 0.05, f"seed {seed} s2_group"),
            _within(fit.sigma2_residual, 0.09, 0.018,
                    f"seed {seed} s2_residual"),
        ):
            if not ok:
                failures.append(msg)
    _report(5, desc, failures)


def test_06_english_word_scores(request):
    desc = "English word informativeness within 0.4; orderings exact"
    corpus = _corpus_or_skip(request, "en", "english_corpus", 6, desc)
    targets = {
        "purple": 2.30,
        "magenta": 2.93,
        "green": 2.59,
        "grass": 3.07,
        "blue": 1.71,
        "mint": 3.34,
    }
    failures = []
    for word, target in targets.items():
        info = corpus.infos.get(word)
        if info is None:
            failures.append(f"{word}: missing from word infos")
            continue
        ok, msg = _within(info.i_w, target, 0.4, f"i_w({word})")
        if not ok:
            failures.append(msg)
    if not failures:
        if not corpus.infos["magenta"].i_w > corpus.infos["purple"].i_w:
            failures.append("i_w(magenta) <= i_w(purple)")
        if not corpus.infos["grass"].i_w > corpus.infos["green"].i_w:
            failures.append("i_w(grass) <= i_w(green)")
    _report(6, desc, failures)


def test_07_spread_equivalence():
    desc = "exact spread matches O(n^2) oracle bitwise; sampled within 5%"
    failures = []
    rng = random.Random(718)
    cfg = SamplingConfig(seed=0)
    for case in range(100):
        n = rng.randint(2, 100)
        pts = [
            (rng.uniform(0, 100), rng.uniform(-80, 80), rng.uniform(-80, 80))
            for _ in range(n)
        ]
        arr = np.array(pts)
        first = informativeness(arr, cfg)
        again = informativeness(arr, cfg)
        expected = oracle_mean_pairwise(pts)
        if first.sampled:
            failures.append(f"case {case}: unexpectedly sampled")
        if first.spread != expected:
            failures.append(
                f"case {case}: spread {first.spread!r} != {expected!r}"
            )
        if first.i_w != 100.0 / expected or first.i_w != again.i_w:
            failures.append(f"case {case}: i_w not bitwise stable")
        if len(failures) > 3:
            break
    big = np.array(
        [(rng.uniform(0, 100), rng.uniform(-80, 80), rng.uniform(-80, 80))
         for _ in range(150)]
    )
    exact = informativeness(big, SamplingConfig(max_exact=150, seed=0))
    sampled = informativeness(big, cfg)
    if not sampled.sampled or exact.sampled:
        failures.append("sampling paths not exercised as intended")
    elif abs(sampled.i_w - exact.i_w) > 0.05 * exact.i_w:
        failures.append(
            f"sampled {sampled.i_w:.4f} deviates more than 5% "
            f"from exact {exact.i_w:.4f}"
        )
    _report(7, desc, failures)


def test_08_cielab_conformance():
    desc = "CIELAB within 0.01 of reference; white/black within 1e-4"
    rng = random.Random(424)
    rgbs = [(rng.random(), rng.random(), rng.random()) for _ in range(1000)]
    reference = [srgb_to_lab_decimal(*rgb) for rgb in rgbs]
    failures = []
    worst = 0.0
    for (r, g, b), ref in zip(rgbs, reference):
        ours = srgb_to_lab(SrgbColor(r, g, b))
        delta = max(abs(ours.l_star - ref[0]), abs(ours.a_star - ref[1]),
                    abs(ours.b_star - ref[2]))
        worst = max(worst, delta)
    if worst > 0.01:
        failures.append(f"max per-channel deviation {worst:.5f} > 0.01")
    white = srgb_to_lab(SrgbColor(1.0, 1.0, 1.0))
    black = srgb_to_lab(SrgbColor(0.0, 0.0, 0.0))
    for label, got, want in (
        ("white L*", white.l_star, 100.0),
        ("white a*", white.a_star, 0.0),
        ("white b*", white.b_star, 0.0),
        ("black L*", black.l_star, 0.0),
        ("black a*", black.a_star, 0.0),
        ("black b*", black.b_star, 0.0),
    ):
        if abs(got - want) > 1e-4:
            failures.append(f"{label}: {got!r}")
    _report(8, desc, failures)


def test_09_pipeline_determinism(fixture_corpus, tmp_path):
    desc = "two identical runs produce byte-identical output directories"
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    run_stages(fixture_corpus.config, out1)
    run_stages(fixture_corpus.config, out2)
    names1 = sorted(p.name for p in out1.iterdir())
    names2 = sorted(p.name for p in out2.iterdir())
    failures = []
    if names1 != names2:
        failures.append(f"file sets differ: {names1} vs {names2}")
    else:
        match, mismatch, errors = filecmp.cmpfiles(out1, out2, names1,
                                                   shallow=False)
        for name in mismatch + errors:
            failures.append(f"{name} differs between runs")
    _report(9, desc, failures)


def test_note_stimulus_generation(fixture_rounds, fixture_infos):
    desc = "100 stimuli, uniform ease bins, simulated-name rules hold"
    referents, _ = build_entries(fixture_rounds, fixture_infos)
    names_of = dict(referent_rows(referents))
    stimuli, report = generate_stimuli(fixture_rounds, referents,
                                       fixture_infos, n=100, bins=10, seed=0)
    failures = []
    if len(stimuli) != 100:
        failures.append(f"{len(stimuli)} stimuli, wanted 100")
    if sum(report["bin_counts"]) != 100:
        failures.append(f"bin counts {report['bin_counts']} do not sum")
    untouched = set(range(10)) - set(report["underpopulated_bins"]) \
        - set(report["rebalanced"])
    for b in untouched:
        if report["bin_counts"][b] != 10:
            failures.append(f"bin {b} holds {report['bin_counts'][b]}")
    for s in stimuli:
        actual = fixture_infos[s.actual_name].i_w
        names = names_of.get(s.target_key)
        ok_general = (
            s.simulated_general is None
            if names is None or names[0][1] >= actual
            else s.simulated_general == names[0][0]
        )
        ok_specific = (
            s.simulated_specific is None
            if names is None or names[-1][1] <= actual
            else s.simulated_specific == names[-1][0]
        )
        if not (ok_general and ok_specific):
            failures.append(f"stimulus at {s.target_key} breaks name rules")
            break
    _report("note", desc, failures)
