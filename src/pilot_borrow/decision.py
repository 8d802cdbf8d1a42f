"""Posterior superiority probability for two independent Beta mixtures.

Every Beta shape of the model is one plus a count. X ~ Beta(a_x, b_x) with
integer shapes is then the a_x-th smallest of m = a_x + b_x - 1 uniforms,
so X > Y exactly when fewer than a_x of them fall below Y, and

    P(X > Y) = P(K <= a_x - 1),    K ~ BetaBinomial(m, a_y, b_y).

All rows with the same (m, a_y, b_y) read their values from one cumulative
pmf; in the model those are the replicates that pair the same control
component with the same treatment-component total. That grouping is the
only sort of the rows: duplicate rows are not collapsed first, they read
the same entry of their group's pmf. A row with a_x > b_x is
reflected (p -> 1 - p, which gives 1 - P(K' <= b_x - 1) with K' ~
BetaBinomial(m, b_y, a_y)), so the orientation is fixed by the row alone.

Each group's pmf is built by the ratio recurrence

    pmf(j + 1) / pmf(j) = (m - j)(j + a) / ((j + 1)(m - j - 1 + b)),

outward from an anchor at the floor of the mean, over a window clipped to
[0, m], and normalized over that window; no gamma function is evaluated.
The window reaches _WINDOW_SD standard deviations of K to each side, moved
by _SKEW_SD sd per unit of skewness toward the longer tail (at least
_MIN_SD sd on the shorter one): with a margin, the reach that the laws of
the paper grid's probes need for the tolerance below. For shapes >= 1 the
pmf is log-concave, so the ratios never increase going outward and the
mass past an edge whose outward ratio is r < 1 is at most
pmf(edge) r / (1 - r). Where that bound exceeds _TAIL_MASS of the window's
mass, that side of the window is doubled and the group evaluated again.

Groups are evaluated in 2-D blocks (groups x terms); every product and sum
runs lane by lane, outward from the anchor or inward from an edge, so a
row's value is a pure function of its four shapes, whatever batch or block
it is evaluated in. The scheme is exact up to rounding and the bounded
tail, and seed-free, so simulated power carries data-sampling noise only.
Shapes that are not positive integers raise ValueError.
"""

import numpy as np

# A group's first window, in standard deviations of K: the reach to each
# side, its shift per unit of skewness, and the least reach on either side.
_WINDOW_SD = 10.0
_SKEW_SD = 12.0
_MIN_SD = 4.0
# Largest share of a group's mass that its window may leave out.
_TAIL_MASS = 1e-17
# Most terms one (groups x terms) block holds, which bounds working memory.
_BLOCK = 1 << 14

# Not used by the package: perfbench/spans.py wraps these two names for its
# decision.nodes span, which records Gauss-Legendre table builds.
_gl_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _gl_nodes(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights mapped to (0, 1), cached per order."""
    cached = _gl_cache.get(order)
    if cached is None:
        raw_x, raw_w = np.polynomial.legendre.leggauss(order)
        cached = ((raw_x + 1.0) / 2.0, raw_w / 2.0)
        _gl_cache[order] = cached
    return cached


def exceedance_pairs(a_x, b_x, a_y, b_y) -> np.ndarray:
    """P(X_i > Y_i) for arrays of independent Beta pairs with integer shapes.

    Duplicate pairs are not collapsed: they fall into the same (m, a, b)
    group and read the same entry of its pmf, so the value of a pair never
    depends on its multiplicity or on the other pairs of the call.
    """
    rows = np.column_stack(
        [
            np.atleast_1d(np.asarray(v, dtype=np.float64))
            for v in (a_x, b_x, a_y, b_y)
        ]
    )
    return _exceedance_unique(rows)


# perfbench/spans.py wraps this name and counts the rows of each call, so
# the name stays and exceedance_pairs calls it exactly once.
def _exceedance_unique(rows: np.ndarray) -> np.ndarray:
    """P(X > Y) per row (a_x, b_x, a_y, b_y), reflected when a_x > b_x."""
    if not np.all(np.isfinite(rows) & (rows >= 1.0) & (rows == np.floor(rows))):
        raise ValueError("Beta shapes must be positive integers for the exact exceedance sum")
    a_x, b_x, a_y, b_y = rows.T
    flip = a_x > b_x
    cdf = _beta_binomial_cdf(
        np.minimum(a_x, b_x) - 1.0,
        a_x + b_x - 1.0,
        np.where(flip, b_y, a_y),
        np.where(flip, a_y, b_y),
    )
    return np.clip(np.where(flip, 1.0 - cdf, cdf), 0.0, 1.0)


def _beta_binomial_cdf(k, m, a, b) -> np.ndarray:
    """P(K <= k), K ~ BetaBinomial(m, a, b), per row of integers with m, a, b >= 1.

    Rows are grouped by (m, a, b); groups are taken in order of window
    width, in blocks of at most _BLOCK terms, and the groups a block widens
    go round again until none is widened.
    """
    k, m, a, b = (np.atleast_1d(np.asarray(v, dtype=np.float64)) for v in (k, m, a, b))
    size = k.shape[0]
    values = np.empty(size)
    if size == 0:
        return values
    order = np.lexsort((b, a, m))
    keys = np.column_stack([m, a, b])[order]
    first = np.ones(size, dtype=bool)
    first[1:] = (keys[1:] != keys[:-1]).any(axis=1)
    row_start = np.flatnonzero(first)
    row_count = np.diff(np.append(row_start, size))
    cut = k[order]
    gm, ga, gb = keys[first].T
    s = ga + gb
    anchor = np.floor(gm * ga / s)
    sd = np.sqrt(gm * ga * gb * (s + gm) / (s * s * (s + 1.0)))
    skew = (gb - ga) * (2.0 * gm + s) / ((s + 2.0) * s * sd)
    # terms of the window below and above the anchor
    below = np.minimum(anchor, np.ceil(sd * np.maximum(_WINDOW_SD - _SKEW_SD * skew, _MIN_SD)))
    above = np.minimum(gm - anchor, np.ceil(sd * np.maximum(_WINDOW_SD + _SKEW_SD * skew, _MIN_SD)))
    below, above = below.astype(np.int64), above.astype(np.int64)
    found = np.empty(size)
    pending = np.arange(gm.shape[0])
    while pending.size:
        widths = below[pending] + above[pending] + 1
        by_width = np.argsort(widths, kind="stable")
        pending, widths = pending[by_width], widths[by_width]
        count = row_count[pending]
        bounds = np.concatenate([[0], np.cumsum(count)])
        rows = np.repeat(row_start[pending] - bounds[:-1], count) + np.arange(bounds[-1])
        local = np.repeat(np.arange(pending.size), count)
        m_, a_, b_, j0, lo, hi = (v[pending] for v in (gm, ga, gb, anchor, below, above))
        up_edge, down_edge, total = np.empty((3, pending.size))
        start = 0
        while start < pending.size:
            # widths ascend, so the last group of a block is its widest
            ahead = widths[start : start + max(1, _BLOCK // int(widths[start]))]
            fits = np.arange(1, ahead.size + 1) * ahead <= _BLOCK
            stop = start + max(1, int(np.count_nonzero(fits)))
            block, span = slice(start, stop), slice(bounds[start], bounds[stop])
            found[rows[span]], up_edge[block], down_edge[block], total[block] = _window_block(
                m_[block], a_[block], b_[block], j0[block], lo[block], hi[block],
                local[span] - start, cut[rows[span]],
            )
            start = stop
        new_hi = _widen(up_edge, m_, a_, b_, j0, hi, total)
        new_lo = _widen(down_edge, m_, b_, a_, m_ - j0, lo, total)
        below[pending], above[pending] = new_lo, new_hi
        pending = pending[(new_lo != lo) | (new_hi != hi)]
    values[order] = found
    return values


def _window_block(m, a, b, anchor, below, above, local, cut):
    """CDF values of one block of groups, with each group's edge terms and window mass.

    ``local`` gives each row's group within the block and ``cut`` its k.
    Returns (values, upper edge, lower edge, total): the edges are
    pmf(anchor + above) and pmf(anchor - below) over pmf(anchor), and the
    total is the window's mass on that scale.
    """
    # The lower side is the upper side of the reflected law: pmf(anchor - x)
    # of BetaBinomial(m, a, b) is pmf(m - anchor + x) of BetaBinomial(m, b, a).
    up = _side(m, a, b, anchor, above)
    down = _side(m, b, a, m - anchor, below)
    # down_tail[:, x - 1] sums the terms anchor - x and lower, taken inward
    # from the edge, so padded lanes add exact zeros first.
    down_tail = np.cumsum(down[:, :0:-1], axis=1)[:, ::-1]
    upto = np.cumsum(up, axis=1)
    upto += down_tail[:, :1]
    total = upto[:, -1]

    offset = cut - anchor[local]
    up_lane = np.clip(offset, 0.0, above[local]).astype(np.int64)
    down_lane = np.maximum(-offset, 1.0)
    inside = down_lane <= below[local]
    down_lane = np.minimum(down_lane, down_tail.shape[1]).astype(np.int64) - 1
    numer = np.where(
        offset >= 0.0,
        upto[local, up_lane],
        np.where(inside, down_tail[local, down_lane], 0.0),
    )
    values = numer / total[local]

    groups = np.arange(m.size)
    return values, up[groups, above], down[groups, below], total


def _side(m, a, b, anchor, terms):
    """pmf(anchor + x) / pmf(anchor) of BetaBinomial(m, a, b) in lane x of a block.

    A running product of the ratios pmf(j + 1) / pmf(j) = (m - j)(j + a) /
    ((j + 1)(m - j - 1 + b)), written in x = j + 1 - anchor. Lane 0 is 1,
    lanes past a group's ``terms`` are 0, and there is always a lane 1.
    """
    x = np.arange(1.0, max(int(terms.max()), 1) + 1.0)
    p, q, u, v = (col[:, None] for col in _ratio_terms(m, a, b, anchor))
    num = p - x
    num *= q + x
    den = u + x
    den *= v - x
    out = np.zeros((m.size, x.size + 1))
    out[:, 0] = 1.0
    np.divide(num, den, out=out[:, 1:], where=x <= terms[:, None])
    np.cumprod(out, axis=1, out=out)
    return out


def _ratio_terms(m, a, b, anchor):
    """(p, q, u, v) with pmf(anchor + x) / pmf(anchor + x - 1) = (p - x)(q + x) / ((u + x)(v - x))."""
    return m - anchor + 1.0, anchor + a - 1.0, anchor, m - anchor + b


def _widen(edge, m, a, b, anchor, terms, total):
    """Terms above the anchor of each group's window after the tail check.

    The lower side is checked as the upper side of the reflected law.
    ``edge`` is pmf(anchor + terms) / pmf(anchor). Past an edge below m with
    outward ratio r < 1, log-concavity bounds the mass left out by
    edge * r / (1 - r). A side whose bound exceeds half of _TAIL_MASS *
    total, or that does not decay at its edge, doubles its terms, up to m.
    """
    limit = m - anchor
    open_ = terms < limit
    p, q, u, v = _ratio_terms(m, a, b, anchor)
    x = terms + 1.0
    r = np.divide((p - x) * (q + x), (u + x) * (v - x), out=np.zeros(m.size), where=open_)
    short = open_ & ((r >= 1.0) | (edge * r > 0.5 * _TAIL_MASS * total * (1.0 - r)))
    return np.where(short, np.minimum(2 * terms + 1, limit).astype(np.int64), terms)


def mixture_superiority_batch(w_t, a_t, b_t, w_c, a_c, b_c) -> np.ndarray:
    """Vectorized superiority probability for stacked two-arm posteriors.

    All inputs have shape (n, k): per row one replicate's mixture weights and
    shapes for the treatment (t) and control (c) arm. P(p_T > p_C) is the
    double sum over component pairs of the product of the two weights and
    the pair's exact exceedance.
    """
    n, k_t = a_t.shape
    k_c = a_c.shape[1]
    a_x = np.repeat(a_t, k_c, axis=1).reshape(-1)
    b_x = np.repeat(b_t, k_c, axis=1).reshape(-1)
    a_y = np.tile(a_c, (1, k_t)).reshape(-1)
    b_y = np.tile(b_c, (1, k_t)).reshape(-1)
    values = exceedance_pairs(a_x, b_x, a_y, b_y).reshape(n, k_t, k_c)
    total = np.zeros(n, dtype=np.float64)
    for i in range(k_t):
        for j in range(k_c):
            total += w_t[:, i] * w_c[:, j] * values[:, i, j]
    return np.clip(total, 0.0, 1.0)
