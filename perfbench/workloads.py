"""Seeded corpus generators for the pipeline benchmark.

Each workload writes a 47,000-round reference-game corpus (the scale of
the published source corpus) in the package's canonical CSV layout,
plus a few malformed rows that ingest must reject. Every workload has
about 10% listener failures and about 5% multi-token utterances, both
of which `clean` drops. The generator returns the ground truth the
benchmark checks the pipeline's outputs against.

The speaker model is a frozen copy of the box model in
`tests/conftest.py`: the benchmark must keep generating the same inputs
when the test fixtures change, or runs of two commits would not be
comparable.

  vocab47k  a Zipf vocabulary of 606 words: the six general boxes, each
            tiled into 100 specific boxes; targets drawn uniformly
            inside the word's box, so almost every chip is distinct.
            Loads the spread kernel, subsampling and the
            random-intercept fit over many singleton groups.
  pool47k   the 14-region speaker model (17 surface words with its
            typos) over a pool of 3,000 chips, so chips repeat and most
            become simulation referents. Loads the simulation kernel.
  grid47k   targets and distractors uniform over the full integer HSL
            grid, as in the published corpus, with the vocab47k
            vocabulary. See KNOWN_DEFECTS: it fails at ingest today.

All randomness comes from `random.Random`, whose streams are stable
across Python versions, so a seed names the same bytes.
"""

from __future__ import annotations

import csv
import hashlib
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

N_ROUNDS = 47_000
ROUNDS_PER_GAME = 50
LISTENER_FAILURE_SHARE = 0.10
MULTI_TOKEN_SHARE = 0.05
SHOUTED_SHARE = 0.10  # "WORD!": still a single token after normalization
TYPO_SHARE = 0.03     # pool47k only
NEAR_CONTEXT_SHARE = 0.5
N_BAD_ROWS = 47

POOL_SIZE = 3_000
ZIPF_EXPONENT = 1.0
# Each general box is tiled into HUE_CELLS x SAT_CELLS x LIGHT_CELLS
# disjoint cells, one per specific word, so specific words never share a
# chip and each spreads well below its general word.
HUE_CELLS, SAT_CELLS, LIGHT_CELLS = 5, 4, 5

WORKLOADS = ("vocab47k", "pool47k", "grid47k")

# Failures the benchmark reports rather than avoids. The chips were
# counted by converting every chip of the integer HSL grid with
# colorlex.colorspace.hsl_to_srgb; the error names the first failing
# chip's channel and value, for example channel b=-1.734723475976807e-17
# for seed 1.
KNOWN_DEFECTS = {
    "grid47k": {
        "stage": "ingest",
        "error": "error: channel <r|g|b>=<about -1e-17> outside [0, 1]",
        "failing_grid_chips": 2_520,
        "grid_chips": 360 * 101 * 101,
        "where": "s = 100 %, l in {1, 2, 3, 8, 15, 16, 17} %",
    },
}

HEADER = (
    "game_id", "round_index", "utterance",
    "target_h", "target_s", "target_l",
    "distractor1_h", "distractor1_s", "distractor1_l",
    "distractor2_h", "distractor2_s", "distractor2_l",
    "listener_correct", "speaker_id",
)

Chip = tuple[int, int, int]


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


# The speaker model of tests/conftest.py. Specific regions sit strictly
# inside their general's box. The general boxes keep s at 45-100 % and
# l at 30-70 %, so they hold none of the grid chips in KNOWN_DEFECTS.
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
GENERALS = tuple(r for r in REGIONS if r.general)
TYPOS = {"blue": "bleu", "green": "gren", "purple": "purpel"}
BOX_SAT = (45, 100)
BOX_LIGHT = (30, 70)


@dataclass
class GroundTruth:
    """What the generator knows about the corpus it wrote."""

    n_raw: int = 0
    n_rejected: int = 0
    n_clean: int = 0
    n_chips: int = 0
    # specific word -> the general word whose box contains its box
    parents: dict[str, str] = field(default_factory=dict)
    sha256: str = ""
    bytes: int = 0

    def counts(self) -> dict[str, int]:
        return {"n_raw": self.n_raw, "n_rejected": self.n_rejected,
                "n_clean": self.n_clean, "n_chips": self.n_chips}


def _hue_span(region: Region) -> tuple[int, int]:
    """The region's hue segments as one unwrapped [lo, hi) range."""
    if len(region.hue) == 1:
        return region.hue[0]
    (lo, _), (_, hi) = region.hue  # red: [345, 360) + [0, 15)
    return lo, 360 + hi


def _cells(lo: int, hi: int, n: int) -> list[tuple[int, int]]:
    """Split [lo, hi) into n contiguous, nearly equal parts."""
    edges = [lo + (hi - lo) * k // n for k in range(n + 1)]
    return list(zip(edges, edges[1:]))


def _zipf_vocabulary(rng: random.Random):
    """General words first, then the specific cells in shuffled rank order.

    Returns (words, cumulative Zipf weights, word -> box, parents),
    where a box is (hue lo, hue hi exclusive, sat lo, sat hi, light lo,
    light hi) in unwrapped degrees and inclusive percents.
    """
    boxes: dict[str, tuple[int, int, int, int, int, int]] = {}
    parents: dict[str, str] = {}
    specifics = []
    for region in GENERALS:
        h_lo, h_hi = _hue_span(region)
        boxes[region.word] = (h_lo, h_hi, *region.sat, *region.light)
        cells = [
            (h, s, l)
            for h in _cells(h_lo, h_hi, HUE_CELLS)
            for s in _cells(region.sat[0], region.sat[1] + 1, SAT_CELLS)
            for l in _cells(region.light[0], region.light[1] + 1, LIGHT_CELLS)
        ]
        for k, (h, s, l) in enumerate(cells):
            word = f"{region.word}{k:03d}"
            boxes[word] = (*h, s[0], s[1] - 1, l[0], l[1] - 1)
            parents[word] = region.word
            specifics.append(word)
    rng.shuffle(specifics)
    words = [r.word for r in GENERALS] + specifics
    cum, total = [], 0.0
    for rank in range(1, len(words) + 1):
        total += rank ** -ZIPF_EXPONENT
        cum.append(total)
    return words, cum, boxes, parents


def _chip_in(rng: random.Random, box) -> Chip:
    h_lo, h_hi, s_lo, s_hi, l_lo, l_hi = box
    return (rng.randrange(h_lo, h_hi) % 360, rng.randint(s_lo, s_hi),
            rng.randint(l_lo, l_hi))


def _box_distractor(rng: random.Random, target: Chip) -> Chip:
    """A chip of the general boxes' s/l range, near the target or not."""
    if rng.random() < NEAR_CONTEXT_SHARE:
        return ((target[0] + rng.randint(-30, 30)) % 360,
                rng.randint(*BOX_SAT),
                min(BOX_LIGHT[1], max(BOX_LIGHT[0],
                                      target[2] + rng.randint(-15, 15))))
    return (rng.randrange(360), rng.randint(*BOX_SAT), rng.randint(*BOX_LIGHT))


def _grid_chip(rng: random.Random) -> Chip:
    return (rng.randrange(360), rng.randint(0, 100), rng.randint(0, 100))


def _vocab_rounds(world: random.Random, rng: random.Random,
                  truth: GroundTruth, grid: bool):
    words, cum, boxes, parents = _zipf_vocabulary(world)
    truth.parents = {} if grid else parents
    for _ in range(N_ROUNDS):
        word = rng.choices(words, cum_weights=cum)[0]
        if grid:
            target = _grid_chip(rng)
            d1, d2 = _grid_chip(rng), _grid_chip(rng)
        else:
            target = _chip_in(rng, boxes[word])
            d1 = _box_distractor(rng, target)
            d2 = _box_distractor(rng, target)
        yield word, target, d1, d2


def _make_pool(rng: random.Random) -> list[Chip]:
    specifics = [r for r in REGIONS if not r.general]
    pool: set[Chip] = set()
    while len(pool) < POOL_SIZE:
        region = rng.choice(specifics if rng.random() < 0.7 else GENERALS)
        lo, hi = rng.choice(region.hue)
        pool.add((rng.randrange(lo, hi) % 360, rng.randint(*region.sat),
                  rng.randint(*region.light)))
    return sorted(pool)


def _pool_rounds(world: random.Random, rng: random.Random,
                 truth: GroundTruth):
    """The conftest speaker: the broadest word that excludes both
    distractors, else the narrowest word that fits the target."""
    pool = _make_pool(world)
    speak_order = sorted(REGIONS, key=lambda r: (not r.general, r.word))
    fits = [[reg for reg in speak_order if reg.applies(*c)] for c in pool]
    truth.parents = {
        r.word: g.word for r in REGIONS if not r.general for g in GENERALS
        if g.applies(r.hue[0][0], r.sat[0], r.light[0])
    }
    arr = np.array(pool, dtype=np.int64)
    hue_gap = np.abs(arr[:, None, 0] - arr[None, :, 0]) % 360
    hue_gap = np.minimum(hue_gap, 360 - hue_gap)
    near = (hue_gap <= 30) & (np.abs(arr[:, None, 2] - arr[None, :, 2]) <= 25)
    np.fill_diagonal(near, False)
    neighbours = [np.flatnonzero(row).tolist() for row in near]
    n = len(pool)
    for _ in range(N_ROUNDS):
        t = rng.randrange(n)
        close = neighbours[t]
        if rng.random() < NEAR_CONTEXT_SHARE and len(close) >= 2:
            i, j = rng.sample(close, 2)
        else:
            i, j = (k + (k >= t) for k in rng.sample(range(n - 1), 2))
        d1, d2 = pool[i], pool[j]
        candidates = fits[t]
        word = next(
            (reg.word for reg in candidates
             if not reg.applies(*d1) and not reg.applies(*d2)),
            candidates[-1].word,
        )
        yield word, pool[t], d1, d2


def _bad_row(k: int) -> tuple:
    """Malformed rows of four kinds, each a reject for ingest."""
    row = ["bad", k + 1, "blue", 230, 80, 50, 0, 80, 50, 60, 80, 50,
           "true", "sbad"]
    if k % 4 == 0:
        row[4] = 150      # saturation above 100 %
    elif k % 4 == 1:
        row[5] = -5       # negative lightness
    elif k % 4 == 2:
        row[12] = "maybe"  # not a boolean
    else:
        row[3] = "abc"    # not a number
    return tuple(row)


def generate(workload: str, seed: int, path) -> GroundTruth:
    """Write the workload's corpus for `seed` to `path`."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    # The lexicon and the chip pool are part of the workload and the same
    # for every seed; the seed draws the rounds. Work per pass then
    # varies little between seeds.
    world = random.Random("colorlex-perfbench")
    rng = random.Random(f"{workload}:{seed}")
    truth = GroundTruth()
    if workload == "pool47k":
        rounds = _pool_rounds(world, rng, truth)
    else:
        rounds = _vocab_rounds(world, rng, truth, grid=workload == "grid47k")
    chips: set[Chip] = set()
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(HEADER)
        for i, (word, target, d1, d2) in enumerate(rounds):
            game = i // ROUNDS_PER_GAME + 1
            roll = rng.random()
            single = roll >= MULTI_TOKEN_SHARE
            if not single:
                text = f"very {word}"
            elif roll < MULTI_TOKEN_SHARE + SHOUTED_SHARE:
                text = word.upper() + "!"
            elif workload == "pool47k" and rng.random() < TYPO_SHARE:
                text = TYPOS.get(word, word)
            else:
                text = word
            ok = rng.random() >= LISTENER_FAILURE_SHARE
            writer.writerow((f"g{game:04d}", i % ROUNDS_PER_GAME + 1, text,
                             *target, *d1, *d2, "true" if ok else "false",
                             f"s{game:04d}"))
            truth.n_raw += 1
            if ok and single:
                truth.n_clean += 1
                chips.add(target)
        writer.writerows(_bad_row(k) for k in range(N_BAD_ROWS))
    truth.n_rejected = N_BAD_ROWS
    truth.n_chips = len(chips)
    data = Path(path).read_bytes()
    truth.sha256 = hashlib.sha256(data).hexdigest()
    truth.bytes = len(data)
    return truth
