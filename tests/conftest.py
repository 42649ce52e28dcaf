"""Shared fixtures.

Most tests run against a synthetic reference-game corpus generated
here: a pool of HSL chips, a vocabulary of broad ("general") and
narrow ("specific") color words defined as boxes in HSL space, and a
speaker that prefers the broadest word that still distinguishes the
target from both distractors. That rule makes harder contexts elicit
narrower words, which is the structure the analysis pipeline is
supposed to detect. The generator is fully deterministic.

Tests against the published reference-game corpora run only when the
data is present: set COLORLEX_CORPUS_EN / COLORLEX_CORPUS_ZH to the
message-level CSV files, or COLOR_REFGAME_DATA to a directory holding
filteredCorpus.csv. Otherwise those tests skip with a visible notice.
"""

from __future__ import annotations

import csv
import os
import random
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from _rounds_oracle import CleanRow, rounds_from_rows, rounds_rows
from _simulate_oracle import referent_rows

from colorlex.cli import STAGES as STAGE_TABLE
from colorlex.cli import main
from colorlex.corpus import Rounds, build_denotations, clean, ingest
from colorlex.informativeness import SamplingConfig, WordInfo, compute_word_infos
from colorlex.simulate import build_entries


@dataclass(frozen=True)
class Region:
    """A word's denotation as a box in integer HSL space."""

    word: str
    hue: tuple[tuple[int, int], ...]  # half-open [lo, hi) degree segments
    sat: tuple[int, int]              # inclusive percent bounds
    light: tuple[int, int]
    general: bool

    def applies(self, h: int, s: int, l: int) -> bool:
        if not (self.sat[0] <= s <= self.sat[1]):
            return False
        if not (self.light[0] <= l <= self.light[1]):
            return False
        return any(lo <= h < hi for lo, hi in self.hue)


# Specific regions sit strictly inside their general's box, so any chip
# a specific word fits is also covered by the general word.
REGIONS = (
    Region("red", ((345, 360), (0, 15)), (45, 100), (30, 70), True),
    Region("orange", ((20, 45),), (45, 100), (30, 70), True),
    Region("yellow", ((50, 70),), (45, 100), (30, 70), True),
    Region("green", ((90, 150),), (45, 100), (30, 70), True),
    Region("blue", ((200, 250),), (45, 100), (30, 70), True),
    Region("purple", ((265, 300),), (45, 100), (30, 70), True),
    Region("rust", ((20, 35),), (45, 100), (30, 42), False),
    Region("gold", ((50, 62),), (60, 100), (42, 58), False),
    Region("lime", ((90, 112),), (45, 100), (50, 68), False),
    Region("forest", ((125, 150),), (45, 100), (30, 42), False),
    Region("sky", ((200, 220),), (45, 100), (58, 70), False),
    Region("navy", ((222, 250),), (45, 100), (30, 40), False),
    Region("violet", ((265, 282),), (45, 100), (55, 68), False),
    Region("plum", ((284, 300),), (45, 100), (30, 42), False),
)

# Broadest-first utterance preference for the synthetic speaker.
_SPEAK_ORDER = sorted(REGIONS, key=lambda r: (not r.general, r.word))

_TYPOS = {"blue": "bleu", "green": "gren", "purple": "purpel"}

_POOL_SIZE = 250
_N_GAMES = 20
_ROUNDS_PER_GAME = 50

# Three hand-written rows exercising normalization and cleaning, plus
# four malformed rows that ingest must reject.
_SPECIAL_ROWS = (
    ("g21", 1, "BLUE!", 230, 80, 50, 0, 80, 50, 60, 80, 50, "true", "s21"),
    ("g21", 2, "very blue", 230, 80, 50, 0, 80, 50, 60, 80, 50, "true", "s21"),
    ("g21", 3, "", 230, 80, 50, 0, 80, 50, 60, 80, 50, "true", "s21"),
)
_BAD_ROWS = (
    ("g22", 1, "blue", 230, 150, 50, 0, 80, 50, 60, 80, 50, "true", "s22"),
    ("g22", 2, "blue", 230, 80, -5, 0, 80, 50, 60, 80, 50, "true", "s22"),
    ("g22", 3, "blue", 230, 80, 50, 0, 80, 50, 60, 80, 50, "maybe", "s22"),
    ("g22", 4, "blue", "abc", 80, 50, 0, 80, 50, 60, 80, 50, "true", "s22"),
)

N_RAW = _N_GAMES * _ROUNDS_PER_GAME + len(_SPECIAL_ROWS)
N_REJECTS = len(_BAD_ROWS)
FIXTURE_SEED = 7
FIXTURE_MIN_COUNT = 10


def _hue_dist(a: int, b: int) -> int:
    d = abs(a - b) % 360
    return min(d, 360 - d)


def _make_pool(rng: random.Random) -> list[tuple[int, int, int]]:
    specifics = [r for r in REGIONS if not r.general]
    generals = [r for r in REGIONS if r.general]
    pool: set[tuple[int, int, int]] = set()
    while len(pool) < _POOL_SIZE:
        p = rng.random()
        if p < 0.85:
            region = rng.choice(specifics if p < 0.60 else generals)
            lo, hi = rng.choice(region.hue)
            chip = (
                rng.randrange(lo, hi) % 360,
                rng.randint(*region.sat),
                rng.randint(*region.light),
            )
        else:
            chip = (rng.randrange(360), rng.randint(40, 100),
                    rng.randint(10, 90))
        pool.add(chip)
    return sorted(pool)


def _near_context(pool, target, rng):
    close = [
        c for c in pool
        if c != target
        and _hue_dist(c[0], target[0]) <= 30
        and abs(c[2] - target[2]) <= 25
    ]
    if len(close) < 2:
        return None
    return tuple(rng.sample(close, 2))


def _generate_rows(rng: random.Random) -> list[tuple]:
    pool = _make_pool(rng)
    rows = []
    for i in range(_N_GAMES * _ROUNDS_PER_GAME):
        game = i // _ROUNDS_PER_GAME + 1
        while True:
            target = rng.choice(pool)
            candidates = [
                reg.word for reg in _SPEAK_ORDER if reg.applies(*target)
            ]
            if candidates:
                break
        context = None
        if rng.random() < 0.5:
            context = _near_context(pool, target, rng)
        if context is None:
            others = [c for c in pool if c != target]
            context = tuple(rng.sample(others, 2))
        d1, d2 = context
        by_word = {r.word: r for r in REGIONS}
        word = next(
            (
                w for w in candidates
                if not by_word[w].applies(*d1) and not by_word[w].applies(*d2)
            ),
            candidates[-1],
        )
        roll = rng.random()
        if roll < 0.06:
            text = f"very {word}"
        elif roll < 0.09:
            text = _TYPOS.get(word, word)
        elif roll < 0.19:
            text = word.upper() + "!"
        else:
            text = word
        ok = "true" if rng.random() >= 0.10 else "false"
        rows.append(
            (f"g{game:02d}", i % _ROUNDS_PER_GAME + 1, text,
             *target, *d1, *d2, ok, f"s{game:02d}")
        )
    rows.extend(_SPECIAL_ROWS)
    rows.extend(_BAD_ROWS)
    return rows


_HEADER = (
    "game_id", "round_index", "utterance",
    "target_h", "target_s", "target_l",
    "distractor1_h", "distractor1_s", "distractor1_l",
    "distractor2_h", "distractor2_s", "distractor2_l",
    "listener_correct", "speaker_id",
)


def write_fixture_csv(path) -> None:
    """Write the synthetic fixture corpus to `path`."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(_HEADER)
        writer.writerows(_generate_rows(random.Random(20240811)))


@pytest.fixture(scope="session")
def fixture_corpus(tmp_path_factory) -> SimpleNamespace:
    root = tmp_path_factory.mktemp("fixture_corpus")
    csv_path = root / "rounds.csv"
    write_fixture_csv(csv_path)
    spellmap_path = root / "spellmap.txt"
    spellmap_path.write_text(
        "# fixture spelling corrections\n"
        + "".join(f"{bad} {good}\n" for good, bad in sorted(_TYPOS.items())),
        encoding="utf-8",
    )
    config_path = root / "run.ini"
    config_path.write_text(
        f"[run]\ninput = {csv_path}\nlanguage = english\n"
        f"seed = {FIXTURE_SEED}\n",
        encoding="utf-8",
    )
    config_spellmap_path = root / "run_spellmap.ini"
    config_spellmap_path.write_text(
        f"[run]\ninput = {csv_path}\nlanguage = english\n"
        f"seed = {FIXTURE_SEED}\nspellmap = {spellmap_path}\n",
        encoding="utf-8",
    )
    return SimpleNamespace(
        csv=csv_path,
        config=config_path,
        config_spellmap=config_spellmap_path,
        spellmap=spellmap_path,
        n_raw=N_RAW,
        n_rejects=N_REJECTS,
        seed=FIXTURE_SEED,
        min_count=FIXTURE_MIN_COUNT,
        regions=REGIONS,
    )


@pytest.fixture(scope="session")
def fixture_rounds(fixture_corpus) -> Rounds:
    """The fixture corpus's clean rounds, as the table `clean` returns."""
    raw, rejects = ingest(fixture_corpus.csv)
    assert len(rejects) == fixture_corpus.n_rejects
    return clean(raw)


@pytest.fixture(scope="session")
def fixture_clean(fixture_rounds) -> list[CleanRow]:
    """The same rounds as CleanRow tuples."""
    return rounds_rows(fixture_rounds)


@pytest.fixture(scope="session")
def fixture_denotations(fixture_rounds) -> dict[str, np.ndarray]:
    return build_denotations(fixture_rounds, FIXTURE_MIN_COUNT)


@pytest.fixture(scope="session")
def fixture_infos(fixture_denotations) -> dict[str, WordInfo]:
    return compute_word_infos(
        fixture_denotations, SamplingConfig(seed=FIXTURE_SEED)
    )


# ----------------------------------------------------------------- stages

# The eight stage invocations of a full pass, in pipeline order, with
# the default options of `stimuli`: the package's stage table.
STAGES = tuple(stage.argv for stage in STAGE_TABLE)
_, _, REGRESS_ALL, REGRESS_REPEATED, _, _, PLOT_DENOTATIONS, PLOT_EASE = STAGES

# The stages that read each stage table, in pipeline order: `info`
# rewrites word_info.tsv from clean_rounds.tsv before the others read it.
READERS = {
    table: tuple(stage.argv for stage in STAGE_TABLE if table in stage.reads)
    for stage in STAGE_TABLE for table in stage.reads
}


def run_stages(config, out) -> None:
    """Run the eight STAGES through `cli.main`; each must return 0."""
    for stage in STAGES:
        code = main(["--config", str(config), "--out", str(out), *stage])
        assert code == 0, f"stage {' '.join(stage)} exited {code}"


# ---------------------------------------------------------------- toy system

# Six referents, two names each; i_w values chosen so every word pair
# is strictly ordered. Hand enumeration of all 30 ordered pairs gives
# the oracle accuracies and utterance tallies asserted in the tests.
TOY_I_W = {
    "blue": 1.71,
    "purple": 2.30,
    "green": 2.59,
    "magenta": 2.93,
    "teal": 3.1,
    "turquoise": 3.5,
    "mauve": 3.6,
}
TOY_NAMES = {
    1: ("blue", "turquoise"),
    2: ("blue", "teal"),
    3: ("green", "teal"),
    4: ("purple", "magenta"),
    5: ("purple", "mauve"),
    6: ("purple", "mauve"),
}


def _toy_key(referent: int) -> tuple[int, int, int]:
    return (referent, 0, 0)


@pytest.fixture(scope="session")
def toy_system() -> SimpleNamespace:
    infos = {
        w: WordInfo(w, 100.0 / i_w, i_w, 10, False)
        for w, i_w in TOY_I_W.items()
    }
    gray = (50.0, 0.0, 0.0)
    rounds = [
        CleanRow("toy", ref, "", w, *[_toy_key(ref)] * 3, 1.0, gray, gray,
                 gray)
        for ref, words in TOY_NAMES.items()
        for w in words
    ]
    referents, report = build_entries(rounds_from_rows(rounds), infos)
    rows = referent_rows(referents)
    return SimpleNamespace(
        referents=referents,
        report=report,
        infos=infos,
        # referent number -> its position in the table, and its names
        position={key[0]: i for i, (key, _) in enumerate(rows)},
        names={key[0]: names for key, names in rows},
    )


def make_grouped_rows(
    seed: int,
    n_groups: int = 300,
    group_size: int = 10,
    intercept: float = 4.0,
    slope: float = -0.02,
    group_sd: float = 0.5,
    residual_sd: float = 0.3,
):
    """Random-intercept regression data with known generating parameters."""
    from _regress_oracle import regression_table

    rng = random.Random(seed)
    rows = []
    for g in range(n_groups):
        offset = rng.gauss(0.0, group_sd)
        for _ in range(group_size):
            x = rng.uniform(0.0, 100.0)
            y = intercept + offset + slope * x + rng.gauss(0.0, residual_sd)
            rows.append((y, x, f"g{g}"))
    return regression_table(rows)


# ------------------------------------------------------- published corpora

def _locate_corpus(lang: str) -> Path | None:
    explicit = os.environ.get(f"COLORLEX_CORPUS_{lang.upper()}")
    if explicit:
        return Path(explicit)
    data_dir = os.environ.get("COLOR_REFGAME_DATA")
    if data_dir and lang == "en":
        candidate = Path(data_dir) / "filteredCorpus.csv"
        if candidate.exists():
            return candidate
    return None


def _load_real(lang: str, min_count: int, tmp_path_factory) -> SimpleNamespace:
    src = _locate_corpus(lang)
    if src is None or not src.exists():
        pytest.skip(
            f"public {lang} corpus not present; set "
            f"COLORLEX_CORPUS_{lang.upper()} or COLOR_REFGAME_DATA"
        )
    from _refgame import to_canonical

    dst = tmp_path_factory.mktemp(f"corpus_{lang}") / "canonical.csv"
    to_canonical(src, dst)
    raw, _ = ingest(dst)
    rounds = clean(raw)
    denotations = build_denotations(rounds, min_count)
    infos = compute_word_infos(denotations, SamplingConfig(seed=0))
    return SimpleNamespace(
        rounds=rounds, denotations=denotations, infos=infos
    )


@pytest.fixture(scope="session")
def english_corpus(tmp_path_factory) -> SimpleNamespace:
    return _load_real("en", 10, tmp_path_factory)


@pytest.fixture(scope="session")
def chinese_corpus(tmp_path_factory) -> SimpleNamespace:
    return _load_real("zh", 5, tmp_path_factory)
