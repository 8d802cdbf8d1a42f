"""Robust mixture priors for a binomial success probability.

A prior for each trial arm is a two-component Beta mixture: a vague
component and an informative component fitted to pilot data by conjugate
updating. Observing definitive-trial data updates both the component
parameters and the component weights, the latter in proportion to each
component's marginal likelihood of the new counts, so borrowing adapts to
how well the pilot agrees with the new data.
"""

import math
from dataclasses import dataclass

from .special import log_beta_binomial_pmf, log_beta_fn


@dataclass(frozen=True)
class ArmCounts:
    """Successes out of size for one arm of one study."""

    successes: int
    size: int

    def __post_init__(self):
        if self.size < 0:
            raise ValueError(f"arm size must be >= 0, got {self.size}")
        if not 0 <= self.successes <= self.size:
            raise ValueError(
                f"successes must lie in [0, size], got {self.successes} of {self.size}"
            )

    @property
    def failures(self) -> int:
        return self.size - self.successes


@dataclass(frozen=True)
class BetaParams:
    """Shape pair of one Beta component."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not (self.alpha > 0.0 and self.beta > 0.0):
            raise ValueError(f"Beta shapes must be positive, got ({self.alpha}, {self.beta})")

    @property
    def mean(self) -> float:
        return self.alpha / (self.alpha + self.beta)

    def log_pdf(self, x: float) -> float:
        if not 0.0 < x < 1.0:
            raise ValueError("log_pdf requires 0 < x < 1")
        return (
            (self.alpha - 1.0) * math.log(x)
            + (self.beta - 1.0) * math.log1p(-x)
            - log_beta_fn(self.alpha, self.beta)
        )


_WEIGHT_SUM_TOL = 1e-12


@dataclass(frozen=True)
class BetaMixture:
    """Weighted Beta components; weights sum to one.

    By convention the vague component comes first and the informative
    component second. The type allows any number of components, but the
    operations built on top of it fix two.
    """

    components: tuple[tuple[float, BetaParams], ...]

    def __post_init__(self):
        if len(self.components) == 0:
            raise ValueError("mixture needs at least one component")
        total = 0.0
        for weight, params in self.components:
            if not 0.0 <= weight <= 1.0:
                raise ValueError(f"component weight must lie in [0, 1], got {weight}")
            if not isinstance(params, BetaParams):
                raise TypeError("mixture components must carry BetaParams")
            total += weight
        if abs(total - 1.0) > _WEIGHT_SUM_TOL:
            raise ValueError(f"mixture weights must sum to 1, got {total}")

    @property
    def weights(self) -> tuple[float, ...]:
        return tuple(w for w, _ in self.components)

    @property
    def params(self) -> tuple[BetaParams, ...]:
        return tuple(p for _, p in self.components)

    def mean(self) -> float:
        return sum(w * p.mean for w, p in self.components)

    def pdf(self, x: float) -> float:
        return sum(w * math.exp(p.log_pdf(x)) for w, p in self.components if w > 0.0)


VAGUE = BetaParams(1.0, 1.0)


def build_robust_map(
    pilot: ArmCounts,
    weight: float = 0.5,
    a0: float = 1.0,
    b0: float = 1.0,
    vague: BetaParams = VAGUE,
) -> BetaMixture:
    """Mixture prior from pilot counts: (1 - weight) vague + weight informative.

    The informative component is the conjugate update of Beta(a0, b0) by the
    pilot counts; an empty pilot leaves it at Beta(a0, b0). The vague
    component stays Beta(1, 1) unless explicitly overridden. The superiority
    probability needs integer-valued shapes, so a0, b0 and the vague shapes
    must be integers for the mixture to reach the decision.
    """
    if not 0.0 <= weight <= 1.0:
        raise ValueError(f"prior weight must lie in [0, 1], got {weight}")
    informative = BetaParams(a0 + pilot.successes, b0 + pilot.failures)
    return BetaMixture(((1.0 - weight, vague), (weight, informative)))


def update_posterior(prior: BetaMixture, data: ArmCounts) -> BetaMixture:
    """Conjugate posterior of a Beta mixture given binomial counts.

    Each component's parameters are updated by the counts and its weight is
    reweighted by the component's marginal likelihood of the counts (the
    beta-binomial mass) before renormalizing. Renormalization subtracts the
    running log maximum so large counts cannot overflow.
    """
    if data.size == 0:
        return prior

    log_posts = []
    for weight, params in prior.components:
        if weight > 0.0:
            log_marginal = log_beta_binomial_pmf(
                data.successes, data.size, params.alpha, params.beta
            )
            log_posts.append(math.log(weight) + log_marginal)
        else:
            log_posts.append(-math.inf)
    peak = max(log_posts)
    raw = [math.exp(lp - peak) for lp in log_posts]
    total = sum(raw)

    updated = []
    for (weight, params), r in zip(prior.components, raw):
        new_params = BetaParams(params.alpha + data.successes, params.beta + data.failures)
        updated.append((r / total, new_params))
    return BetaMixture(tuple(updated))


def informative_weight(mixture: BetaMixture) -> float:
    """Weight on the informative (second) component of a two-component mixture."""
    if len(mixture.components) != 2:
        raise ValueError(
            f"informative_weight expects exactly 2 components, got {len(mixture.components)}"
        )
    return mixture.components[1][0]
