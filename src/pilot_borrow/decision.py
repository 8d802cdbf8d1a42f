"""Posterior superiority probability for two independent Beta mixtures.

Every Beta shape of the model is one plus a count, and for integer shapes
P(X > Y), X ~ Beta(a1, b1), Y ~ Beta(a2, b2), is the finite sum
(Cook, "Exact calculation of beta inequalities", 2005)

    P(X > Y) = sum_{i < a1} t_i,    t_0 = B(a2, b1 + b2) / B(a2, b2),
    t_{i+1} = t_i * (a2 + i)(b1 + i) / ((a2 + b1 + b2 + i)(1 + i)).

Swapping X and Y (P(X > Y) = 1 - P(Y > X)) and reflecting p -> 1 - p give
sums of length a2, b2 and b1 instead; each pair takes the shortest. Terms
are built in log space from a running sum of log ratios, so shapes in the
thousands neither underflow nor overflow, and both running sums are taken
strictly in the order of i. A pair's value is therefore a pure function of
its four shapes, whatever batch it is evaluated in. The scheme is exact and
seed-free, so simulated power carries data-sampling noise only. Shapes that
are not positive integers raise ValueError.
"""

from dataclasses import dataclass

import numpy as np
from scipy import special as sp

from .map_prior import BetaMixture, BetaParams

_HALF_LOG_2PI = 0.5 * np.log(2.0 * np.pi)

# Column orders of (a1, b1, a2, b2) for the four forms of the sum: direct,
# swapped, reflected, reflected and swapped. The first shape of each is the
# form's length; the swapped forms give the complement.
_FORMS = np.array([[0, 1, 2, 3], [2, 3, 0, 1], [3, 2, 1, 0], [1, 0, 3, 2]])

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

    Duplicate parameter rows (common when shapes come from integer trial
    counts) are collapsed before evaluation; the value of a pair never
    depends on its multiplicity or on the other pairs of the call.
    """
    stacked = np.column_stack(
        [
            np.atleast_1d(np.asarray(v, dtype=np.float64))
            for v in (a_x, b_x, a_y, b_y)
        ]
    )
    rows, inverse = np.unique(stacked, axis=0, return_inverse=True)
    return _exceedance_unique(rows)[inverse.reshape(-1)]


def _exceedance_unique(rows: np.ndarray) -> np.ndarray:
    """P(X > Y) per row (a1, b1, a2, b2), through the shortest form of the sum."""
    if not np.all(np.isfinite(rows) & (rows >= 1.0) & (rows == np.floor(rows))):
        raise ValueError("Beta shapes must be positive integers for the exact exceedance sum")
    form = np.argmin(rows[:, _FORMS[:, 0]], axis=1)
    sums = _exceedance_sum(np.take_along_axis(rows, _FORMS[form], axis=1))
    return np.clip(np.where(form % 2 == 1, 1.0 - sums, sums), 0.0, 1.0)


def _stirling_remainder(z: np.ndarray) -> np.ndarray:
    """lgamma(z) - ((z - 1/2) log z - z + log(2 pi) / 2), for z >= 1."""
    z2 = z * z
    series = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / (1188 * z2)) / z2) / z2) / z2) / z
    direct = sp.gammaln(z) - ((z - 0.5) * np.log(z) - z + _HALF_LOG_2PI)
    return np.where(z >= 15.0, series, direct)


def _log_first_term(a2, b1, b2) -> np.ndarray:
    """log t_0 = log B(a2, b1 + b2) - log B(a2, b2), elementwise.

    The four log-gamma values of the two betaln calls reach 1e5 at shapes
    near 1e4, and their difference loses up to 7e-11. Written as Stirling's
    formula, the linear terms cancel exactly and what is left has the size
    of log t_0 itself, which keeps the error near 1e-12.
    """
    d, e = np.minimum(a2, b1), np.maximum(a2, b1)
    main = (
        (b2 - 0.5) * np.log1p(d / b2)
        - (b2 + e - 0.5) * np.log1p(d / (b2 + e))
        - d * np.log1p(e / (b2 + d))
    )
    return (
        main
        + _stirling_remainder(b2 + d)
        + _stirling_remainder(b2 + e)
        - _stirling_remainder(b2 + d + e)
        - _stirling_remainder(b2)
    )


def _exceedance_sum(rows: np.ndarray) -> np.ndarray:
    """sum_{i < a1} t_i per row (a1, b1, a2, b2) of integer shapes.

    One pass per term index i, vectorized over rows: rows are taken longest
    first, so the rows that have a term i form a prefix. Each row's log term
    and total are running sums taken in the order of i, so its value does not
    depend on the other rows. Working memory is a few arrays of one value
    per row.
    """
    order = np.argsort(-rows[:, 0], kind="stable")
    a1, b1, a2, b2 = rows[order].T
    s = a2 + b1 + b2
    log_term = _log_first_term(a2, b1, b2)
    total = np.zeros(rows.shape[0])
    num = np.empty(rows.shape[0])
    den = np.empty(rows.shape[0])
    longest = int(a1[0]) if a1.size else 0
    rows_with_term = np.searchsorted(-a1, -np.arange(longest), side="left")
    for i, m in enumerate(rows_with_term.tolist()):
        total[:m] += np.exp(log_term[:m], out=num[:m])
        np.add(a2[:m], i, out=num[:m])
        num[:m] *= b1[:m] + i
        np.add(s[:m], i, out=den[:m])
        den[:m] *= 1.0 + i
        num[:m] /= den[:m]
        log_term[:m] += np.log(num[:m], out=num[:m])
    result = np.empty(rows.shape[0])
    result[order] = total
    return result


@dataclass(frozen=True)
class DecisionRule:
    """Superiority is declared when the posterior probability strictly exceeds the threshold."""

    threshold: float

    def __post_init__(self):
        if not 0.0 < self.threshold < 1.0:
            raise ValueError(f"threshold must lie in (0, 1), got {self.threshold}")


def beta_exceedance(t: BetaParams, c: BetaParams) -> float:
    """P(X > Y) for independent X ~ Beta(t), Y ~ Beta(c)."""
    return float(
        exceedance_pairs(
            np.array([t.alpha]), np.array([t.beta]), np.array([c.alpha]), np.array([c.beta])
        )[0]
    )


def superiority_probability(post_t: BetaMixture, post_c: BetaMixture) -> float:
    """P(p_T > p_C | data) for independent mixture posteriors.

    The double sum over component pairs weights each pairwise exceedance by
    the product of the component weights.
    """
    a_x, b_x, a_y, b_y, pair_w = [], [], [], [], []
    for w_t, params_t in post_t.components:
        for w_c, params_c in post_c.components:
            a_x.append(params_t.alpha)
            b_x.append(params_t.beta)
            a_y.append(params_c.alpha)
            b_y.append(params_c.beta)
            pair_w.append(w_t * w_c)
    values = exceedance_pairs(np.array(a_x), np.array(b_x), np.array(a_y), np.array(b_y))
    total = 0.0
    for w, v in zip(pair_w, values):
        total += w * float(v)
    return min(max(total, 0.0), 1.0)


def mixture_superiority_batch(w_t, a_t, b_t, w_c, a_c, b_c) -> np.ndarray:
    """Vectorized superiority probability for stacked two-arm posteriors.

    All inputs have shape (n, k): per row one replicate's mixture weights and
    shapes for the treatment (t) and control (c) arm. Rows are evaluated with
    the same exact pairwise sum as :func:`superiority_probability`.
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


def decide(prob: float, rule: DecisionRule) -> bool:
    """True when the posterior superiority probability strictly exceeds the rule threshold."""
    if not 0.0 <= prob <= 1.0:
        raise ValueError(f"probability must lie in [0, 1], got {prob}")
    return prob > rule.threshold
