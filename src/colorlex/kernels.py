"""The two hot primitives, one numpy implementation each.

Both are exact by construction, so their results do not depend on the
machine's SIMD width or on how the work is blocked:

- `mean_pairwise_distance` adds the ordered-pair distances one at a time
  in row-major order (`np.cumsum` is a strictly sequential add), the
  same order as a plain double loop;
- `simulate_counts` produces integer tallies only, from popcounts of
  per-word referent bitsets.
"""

import numpy as np

# Distances computed per block of rows in `mean_pairwise_distance`;
# bounds its temporaries to a few MB whatever the number of points.
_SPREAD_BLOCK = 1 << 16
# Bitset bytes gathered per chunk of targets in `simulate_counts`.
_SIMULATE_BLOCK = 1 << 22
# _CLEAR[k] clears bit k of a byte in np.packbits' big-endian order.
_CLEAR = ~(np.uint8(0x80) >> np.arange(8, dtype=np.uint8))


def backend_name() -> str:
    return "numpy"


def mean_pairwise_distance(pts) -> float:
    """Mean Euclidean distance over all ordered row pairs of an (n, 3) array.

    The sum runs over i, then j (the zero diagonal adds nothing), so the
    result equals that of the scalar double loop bit for bit.
    """
    arr = np.ascontiguousarray(pts, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise ValueError(f"expected an (n, 3) array, got shape {arr.shape}")
    n = arr.shape[0]
    if n < 2:
        raise ValueError("need at least two points")
    xs, ys, zs = arr[:, 0], arr[:, 1], arr[:, 2]
    rows = max(1, _SPREAD_BLOCK // n)
    acc = 0.0
    for i0 in range(0, n, rows):
        i1 = min(n, i0 + rows)
        dl = xs[i0:i1, None] - xs
        da = ys[i0:i1, None] - ys
        db = zs[i0:i1, None] - zs
        dist = np.sqrt(dl * dl + da * da + db * db)
        # The running total leads the block, so the cumulative sum
        # continues it instead of starting a fresh partial sum.
        run = np.empty(dist.size + 1)
        run[0] = acc
        run[1:] = dist.ravel()
        acc = float(np.cumsum(run, out=run)[-1])
    return acc / (n * (n - 1))


def simulate_counts(offsets, words, applicable, mode: int):
    """Tally one speaker/listener interaction per ordered referent pair.

    offsets/words give each target's candidate names (word columns of
    `applicable`) in ascending informativeness order, CSR layout; every
    target needs at least one. applicable[d, w] is nonzero when word w
    applies to referent d. mode: 0 = the first name that does not apply
    to the distractor, else the last; 1 = always the first name; 2 =
    always the last. Returns (acc_twice, counts): twice the summed
    expected accuracy (chance = 1, success = 2) and how often each word
    was uttered.
    """
    offsets = np.ascontiguousarray(offsets, dtype=np.int64)
    words = np.ascontiguousarray(words, dtype=np.int64)
    app = np.ascontiguousarray(applicable, dtype=np.uint8) != 0
    if mode not in (0, 1, 2):
        raise ValueError(f"unknown mode {mode}")
    n, n_words = app.shape
    lengths = np.diff(offsets)
    if len(lengths) != n or (lengths < 1).any():
        raise ValueError("offsets must give every referent at least one name")
    if mode == 0:
        return _simulate_adaptive(lengths, offsets, words, app)
    chosen = words[offsets[:-1]] if mode == 1 else words[offsets[1:] - 1]
    counts = np.bincount(chosen, minlength=n_words).astype(np.int64)
    counts *= n - 1
    # Each of the n - 1 distractors scores 2, less 1 when the word also
    # applies to it; the target's own row is not a distractor.
    shared = (app.sum(axis=0, dtype=np.int64)[chosen]
              - app[np.arange(n), chosen])
    return int(2 * n * (n - 1) - shared.sum()), counts


def _simulate_adaptive(lengths, offsets, words, app):
    """Mode 0 from bitsets: with P_k the set of distractors to which the
    target's names w_0..w_k all apply, name w_k is uttered to the
    |P_{k-1}| - |P_k| distractors that it is the first not to fit, and
    w_m to the |P_m| distractors that every name fits."""
    n, n_words = app.shape
    counts = np.zeros(n_words, dtype=np.int64)
    bits = np.packbits(app, axis=0).T.copy()  # (n_words, n_bytes)
    n_bytes = bits.shape[1]
    acc_twice = 0
    for length in np.unique(lengths).tolist():
        targets = np.flatnonzero(lengths == length)
        step = max(1, _SIMULATE_BLOCK // (length * n_bytes))
        for c0 in range(0, len(targets), step):
            t = targets[c0:c0 + step]
            names = words[offsets[t, None] + np.arange(length)]
            sets = bits[names]  # (targets, length, n_bytes)
            # The target is no distractor of its own; packbits already
            # left the padding bits clear.
            sets[np.arange(len(t)), 0, t >> 3] &= _CLEAR[t & 7]
            np.bitwise_and.accumulate(sets, axis=1, out=sets)
            fits = np.bitwise_count(sets).sum(axis=2, dtype=np.int64)
            uttered = np.empty_like(fits)
            uttered[:, 0] = n - 1 - fits[:, 0]
            uttered[:, 1:] = fits[:, :-1] - fits[:, 1:]
            uttered[:, -1] += fits[:, -1]
            np.add.at(counts, names.ravel(), uttered.ravel())
            acc_twice += 2 * len(t) * (n - 1) - int(fits[:, -1].sum())
    return acc_twice, counts
