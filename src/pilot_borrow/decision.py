"""Posterior superiority probability for two independent Beta mixtures.

Every Beta shape of the model is one plus a count. X ~ Beta(a_x, b_x) with
integer shapes is then the a_x-th smallest of m = a_x + b_x - 1 uniforms,
so X > Y exactly when fewer than a_x of them fall below Y, and

    P(X > Y) = P(K <= a_x - 1),    K ~ BetaBinomial(m, a_y, b_y).

Rows with the same (m, a_y, b_y) read one cumulative pmf. In the model, one
component pair's rows share m and a_y + b_y, so within a pair the group is
a_y, one plus the control count, and the cut the treatment count: rows group
by one integer key, a count, and where the keys are dense an array indexed
by key holds each key's group; elsewhere each row is its own group. Each
block of groups becomes a table that its rows read in one gather; when a
call's groups fit one block, every row reads the one table in place, and no
row is sorted. No duplicate row is collapsed.

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

Groups are evaluated in 2-D blocks (terms x groups); every product and sum
runs lane by lane, outward from the anchor or inward from an edge, so a
row's value is a pure function of its four shapes, whatever batch or block
it is evaluated in. The scheme is exact up to rounding and the bounded
tail, and seed-free, so simulated power carries data-sampling noise only.
Shapes that are not integers from 1 to 2**52 raise ValueError.
"""

import numpy as np

# A group's first window, in standard deviations of K: the reach to each
# side, its shift per unit of skewness, and the least reach on either side.
_WINDOW_SD = 10.0
_SKEW_SD = 12.0
_MIN_SD = 4.0
# Largest share of a group's mass that its window may leave out.
_TAIL_MASS = 1e-17
# Most terms one (terms x groups) block holds, which bounds working memory.
_BLOCK = 1 << 14
# Widest span of group keys per row for which rows of a key share a group,
# found through a dense array indexed by key; past it, each row is its own.
_KEY_SPAN = 4
# Most rows in flight: a probe's batch of replicates (simulate._chunk_task)
# and one call of the grouped CDF in the superiority sum, which bounds the
# memory of both.
_CALL_ROWS = 1 << 14

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


# perfbench/spans.py wraps this name and counts the rows of each call, so
# the name stays and callers look it up as a module global.
def _exceedance_unique(rows: np.ndarray) -> np.ndarray:
    """P(X > Y) = P(K <= a_x - 1) per row (a_x, b_x, a_y, b_y) of an (N, 4) array.

    The one entry to the exact sum, and its one check: shapes are integers
    from 1 to 2**52, so that the sums of two, such as m, are exact integers
    too. A row's value depends on its four shapes only, not on the others.
    """
    # rows less their floors are 0 at integers, NaN at an infinity or a NaN
    # (inf - inf is not a warning here) and positive elsewhere
    with np.errstate(invalid="ignore"):
        fraction = np.floor(rows)
        np.subtract(rows, fraction, out=fraction)
        low, high = rows.min(initial=1.0), rows.max(initial=1.0)
        if not (low >= 1.0 and high <= 2.0**52 and fraction.max(initial=0.0) == 0.0):
            raise ValueError("Beta shapes must be positive integers up to 2**52 for the exact sum")
    a_x, b_x, a_y, b_y = rows.T
    values = _beta_binomial_cdf(a_x - 1.0, a_x + b_x - 1.0, a_y, b_y)
    return np.clip(values, 0.0, 1.0, out=values)


def _beta_binomial_cdf(k, m, a, b) -> np.ndarray:
    """P(K <= k), K ~ BetaBinomial(m, a, b), per row of integers with m, a, b >= 1.

    A run is a stretch of rows with equal (m, a + b). A row's group key is
    its run's offset plus a less the least a of the run, so keys count up
    from 0, one per (run, a). Where the keys span at most _KEY_SPAN per row,
    rows of one key share a group; otherwise each row is its own group (see
    :func:`_key_groups`). Either way grouping takes O(rows) memory and
    changes no value. Groups go in blocks of at most _BLOCK terms, and
    widened groups go round again. When all the groups fit one block, each
    row reads its group's column of the one table in one gather. Otherwise
    the round's groups go in order of window width and the rows are sorted
    by their group's place, so that a block's rows are one slice that reads
    its table once it is built.
    """
    k, m, a, b = (np.atleast_1d(np.asarray(v, dtype=np.float64)) for v in (k, m, a, b))
    size = k.shape[0]
    values = np.empty(size)
    if size == 0:
        return values
    s = a + b
    new_run = np.ones(size, dtype=bool)
    new_run[1:] = (m[1:] != m[:-1]) | (s[1:] != s[:-1])
    run_start = np.flatnonzero(new_run)
    least = np.minimum.reduceat(a, run_start)
    end = np.cumsum(np.maximum.reduceat(a, run_start) - least + 1.0)
    offset = np.append(0.0, end[:-1]) - least
    key = np.repeat(offset, np.diff(run_start, append=size)) + a
    group, heads = _key_groups(key, int(end[-1]))
    groups = heads.shape[0]
    gm, ga, gb, s = m[heads], a[heads], b[heads], s[heads]
    anchor = np.floor(gm * ga / s)
    sd = np.sqrt(gm * ga * gb * (s + gm) / (s * s * (s + 1.0)))
    skew = (gb - ga) * (2.0 * gm + s) / ((s + 2.0) * s * sd)
    # terms of the window below and above the anchor
    below = np.minimum(anchor, np.ceil(sd * np.maximum(_WINDOW_SD - _SKEW_SD * skew, _MIN_SD)))
    above = np.minimum(gm - anchor, np.ceil(sd * np.maximum(_WINDOW_SD + _SKEW_SD * skew, _MIN_SD)))
    below, above = below.astype(np.int64), above.astype(np.int64)
    pending = np.arange(groups)
    while pending.size:
        widths = below[pending] + above[pending] + 1
        if pending.size == groups and groups * int(widths.max()) <= _BLOCK:
            # Every group in one table, whose column g the rows of group g
            # read. Windows only widen, so every earlier round fitted too and
            # left the groups in their order.
            blocks = [(slice(None), slice(None), group)]
        else:
            by_width = np.argsort(widths, kind="stable")
            pending, widths = pending[by_width], widths[by_width]
            blocks = _row_blocks(widths, pending, group, groups)
        m_, a_, b_, j0, lo, hi = (v[pending] for v in (gm, ga, gb, anchor, below, above))
        up_edge, down_edge, total = np.empty((3, pending.size))
        for block, at, column in blocks:
            table, origin, up_edge[block], down_edge[block], total[block] = _window_block(
                m_[block], a_[block], b_[block], j0[block], lo[block], hi[block]
            )
            # a cut reads lane clip(cut - origin) of its column, by flat index
            entry = np.clip(k[at] - origin[column], 0.0, table.shape[0] - 1.0).astype(np.intp)
            entry *= table.shape[1]
            entry += column
            values[at] = table.ravel()[entry] / table[-1][column]
        new_hi = _widen(up_edge, m_, a_, b_, j0, hi, total)
        new_lo = _widen(down_edge, m_, b_, a_, m_ - j0, lo, total)
        below[pending], above[pending] = new_lo, new_hi
        pending = pending[(new_lo != lo) | (new_hi != hi)]
    return values


def _key_groups(key, span):
    """Each row's group and the first row of each group.

    Keys are integers in [0, span). Up to _KEY_SPAN keys per row, the group of
    a key is the count of keys present below it, read from a dense array of
    the span, so the rows of a key share a group. Past that, each row is its
    own group, whatever the span. No value depends on the grouping.
    """
    rows = np.arange(key.shape[0])
    if span > _KEY_SPAN * key.shape[0]:
        return rows, rows
    key = key.astype(np.intp)
    first = np.full(span, key.shape[0], dtype=np.intp)
    np.minimum.at(first, key, rows)
    present = first < key.shape[0]
    return (np.cumsum(present) - 1)[key], first[present]


def _row_blocks(widths, pending, group, groups):
    """(groups of the block, its rows, their columns) per block of a round.

    The pending groups go in blocks of at most _BLOCK terms in their order,
    by ascending width. The rows are sorted by their group's place in the
    round, so a block's rows are one slice; the rows of the other groups
    take the last place.
    """
    place = np.full(groups, pending.size, dtype=np.min_scalar_type(pending.size))
    place[pending] = np.arange(pending.size)
    per_group = np.bincount(group, minlength=groups)
    bounds = np.concatenate([[0], np.cumsum(per_group[pending])])
    rows = np.argsort(place[group], kind="stable")[: bounds[-1]]
    local = place[group[rows]].astype(np.intp)
    start = 0
    while start < pending.size:
        # widths ascend, so the last group of a block is its widest
        ahead = widths[start : start + max(1, _BLOCK // int(widths[start]))]
        fits = np.arange(1, ahead.size + 1) * ahead <= _BLOCK
        stop = start + max(1, int(np.count_nonzero(fits)))
        span = slice(bounds[start], bounds[stop])
        yield slice(start, stop), rows[span], local[span] - start
        start = stop


def _window_block(m, a, b, anchor, below, above):
    """A block of groups as one CDF table over pmf(anchor), with each group's edge terms.

    Returns (table, origin, upper edge, lower edge, total). A group's table
    column is [0 | down tail, reversed | running sum]: row r sums the
    window's terms up to origin + r, so a cut reads row clip(cut - origin,
    0, rows - 1), and the last row is the total, the window's mass. The
    edges are pmf(anchor + above) and pmf(anchor - below).
    """
    # The lower side is the upper side of the reflected law: pmf(anchor - x)
    # of BetaBinomial(m, a, b) is pmf(m - anchor + x) of BetaBinomial(m, b, a).
    up = _side(m, a, b, anchor, above)
    down = _side(m, b, a, m - anchor, below)
    lanes = down.shape[0] - 1
    table = np.zeros((1 + lanes + up.shape[0], m.size))
    # sums below the anchor run inward from the edge: padded lanes add exact zeros first
    np.cumsum(down[:0:-1], axis=0, out=table[1 : lanes + 1])
    upto = np.cumsum(up, axis=0, out=table[lanes + 1 :])
    upto += table[lanes]
    groups = np.arange(m.size)
    return table, anchor - (lanes + 1.0), up[above, groups], down[below, groups], table[-1]


def _side(m, a, b, anchor, terms):
    """pmf(anchor + x) / pmf(anchor) of BetaBinomial(m, a, b) in row x, one column per group.

    A running product of the ratios pmf(j + 1) / pmf(j) = (m - j)(j + a) /
    ((j + 1)(m - j - 1 + b)), written in x = j + 1 - anchor. Lane (row) 0 is
    1, lanes past a group's ``terms`` are 0, and there is always a lane 1.
    """
    x = np.arange(1.0, max(int(terms.max()), 1) + 1.0)[:, None]
    p, q, u, v = _ratio_terms(m, a, b, anchor)
    num = p - x
    num *= q + x
    den = u + x
    den *= v - x
    out = np.zeros((x.size + 1, m.size))
    out[0] = 1.0
    np.divide(num, den, out=out[1:], where=x <= terms)
    np.cumprod(out, axis=0, out=out)
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


def _first_equal(a, b) -> list[int]:
    """Per mixture component (column), the first component with the same shapes in a and b."""
    return [
        next(
            (
                e for e in range(col)
                if np.array_equal(a[:, e], a[:, col]) and np.array_equal(b[:, e], b[:, col])
            ),
            col,
        )
        for col in range(a.shape[1])
    ]


def mixture_superiority_batch(w_t, a_t, b_t, w_c, a_c, b_c) -> np.ndarray:
    """Vectorized superiority probability for stacked two-arm posteriors.

    All inputs have shape (n, k): per row one replicate's mixture weights and
    shapes for the treatment (t) and control (c) arm. P(p_T > p_C) is the
    double sum over component pairs of the product of the two weights and
    the pair's exact exceedance.

    A pair whose four shape columns equal an earlier pair's reads that
    pair's values (without a pilot the two components of an arm coincide).
    The other pairs' rows go to the grouped CDF pair after pair,
    max(1, _CALL_ROWS // n) whole pairs to a call: a batch of n <= _CALL_ROWS
    replicates sends no call past _CALL_ROWS rows, and a larger batch sends
    each pair as one call of n rows. A pair's rows are one run of equal
    (m, a_y + b_y) for the grouped CDF, and a row's value depends on its
    four shapes only, so the packing changes no value.
    """
    n, k_t = a_t.shape
    k_c = a_c.shape[1]
    same_t, same_c = _first_equal(a_t, b_t), _first_equal(a_c, b_c)
    pairs = [(i, j) for i in range(k_t) for j in range(k_c)]
    distinct = [(i, j) for i, j in pairs if same_t[i] == i and same_c[j] == j]
    values = {}
    per_call = max(1, _CALL_ROWS // max(n, 1))
    for first in range(0, len(distinct), per_call):
        group = distinct[first : first + per_call]
        # (a_x, b_x, a_y, b_y) of the group's pairs, pair after pair, each a
        # contiguous column of the call's (rows, 4) array
        columns = np.empty((4, len(group), n))
        for pair, (i, j) in enumerate(group):
            for column, shapes, component in zip(columns, (a_t, b_t, a_c, b_c), (i, i, j, j)):
                column[pair] = shapes[:, component]
        rows = columns.reshape(4, -1).T
        values.update(zip(group, _exceedance_unique(rows).reshape(len(group), n)))
    total = np.zeros(n, dtype=np.float64)
    term = np.empty(n)
    for i, j in pairs:
        np.multiply(w_t[:, i], w_c[:, j], out=term)
        term *= values[same_t[i], same_c[j]]
        total += term
    return np.clip(total, 0.0, 1.0, out=total)
