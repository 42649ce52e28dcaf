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
    rows = min(n, max(1, _SPREAD_BLOCK // n))
    # The running total leads each block's distances in `run`, so the
    # cumulative sum continues it instead of starting a fresh partial
    # sum. Each block's distances are computed in place in run's tail,
    # as sqrt(dl * dl + da * da + db * db) in that order.
    run = np.empty(rows * n + 1)
    sq = np.empty((rows, n))
    acc = 0.0
    for i0 in range(0, n, rows):
        i1 = min(n, i0 + rows)
        m = (i1 - i0) * n
        dist = run[1:m + 1].reshape(i1 - i0, n)
        d = sq[:i1 - i0]
        np.subtract(xs[i0:i1, None], xs, out=dist)
        np.multiply(dist, dist, out=dist)
        for cs in (ys, zs):
            np.subtract(cs[i0:i1, None], cs, out=d)
            np.multiply(d, d, out=d)
            np.add(dist, d, out=dist)
        np.sqrt(dist, out=dist)
        run[0] = acc
        acc = float(np.cumsum(run[:m + 1], out=run[:m + 1])[-1])
    return acc / (n * (n - 1))


def simulate_counts(offsets, words, applicable):
    """Tally one speaker/listener interaction per ordered referent pair.

    offsets/words give each target's names (word columns of `applicable`)
    in ascending informativeness order, CSR layout; every target needs
    at least one. applicable[d, w] is nonzero when word w
    applies to referent d. The speaker utters the first name that does
    not apply to the distractor, else the last; a lexicon of one name
    per referent always utters that name. Returns (acc_twice, counts):
    twice the summed expected accuracy (chance = 1, success = 2) and
    how often each word was uttered.

    From bitsets: with P_k the set of distractors to which the target's
    names w_0..w_k all apply, name w_k is uttered to the |P_{k-1}| -
    |P_k| distractors that it is the first not to fit, and w_m to the
    |P_m| distractors that every name fits.
    """
    offsets = np.ascontiguousarray(offsets, dtype=np.int64)
    words = np.ascontiguousarray(words, dtype=np.int64)
    app = np.ascontiguousarray(applicable, dtype=np.uint8) != 0
    n, n_words = app.shape
    lengths = np.diff(offsets)
    if len(lengths) != n or (lengths < 1).any():
        raise ValueError("offsets must give every referent at least one name")
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
            # One name at a time: np.bitwise_and.accumulate along
            # axis 1 is several times slower than these ANDs of rows.
            for k in range(1, length):
                np.bitwise_and(sets[:, k - 1], sets[:, k], out=sets[:, k])
            fits = np.bitwise_count(sets).sum(axis=2, dtype=np.int64)
            uttered = np.empty_like(fits)
            uttered[:, 0] = n - 1 - fits[:, 0]
            uttered[:, 1:] = fits[:, :-1] - fits[:, 1:]
            uttered[:, -1] += fits[:, -1]
            np.add.at(counts, names.ravel(), uttered.ravel())
            acc_twice += 2 * len(t) * (n - 1) - int(fits[:, -1].sum())
    return acc_twice, counts
