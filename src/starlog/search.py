"""Adversarial search for counterexamples to the plain-squares bound.

Maximizes ratio(seed) = sum |d_n|^2 / bound over a certified seed family
(coarse grid, then Nelder-Mead refinement).  Deterministic for a fixed
rng seed and budget; the expected outcome is a maximum ratio of 1 attained
at (or converging to) the identity-equivalent corner.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import thm_a_bound
from .logcoeffs import log_coefficients, sum_sq
from .members import ClassParams, ExpDamp, Polynomial, SchwarzSeed, member_from_seed, suggested_order

FAMILIES = ("expdamp", "poly")

_EXPDAMP_C_MAX = 5.0
_POLY_DEGREE = 4


@dataclass(frozen=True)
class SearchReport:
    family: str
    params: ClassParams
    rng_seed: int
    budget: int
    order: int
    evaluations: int
    max_ratio: float
    best_seed: SchwarzSeed
    converged: bool


class _Budget:
    """Shared evaluation counter with deterministic best-tracking.

    Ties on the ratio are broken by the lexicographic seed key, so the
    report does not depend on evaluation order.
    """

    def __init__(self, limit: int):
        self.limit = limit
        self.used = 0
        self.best_ratio = -math.inf
        self.best_seed: SchwarzSeed | None = None

    @property
    def exhausted(self) -> bool:
        return self.used >= self.limit

    def record(self, seed: SchwarzSeed, ratio: float):
        self.used += 1
        if ratio > self.best_ratio or (
            ratio == self.best_ratio
            and self.best_seed is not None
            and seed.sort_key() < self.best_seed.sort_key()
        ):
            self.best_ratio = ratio
            self.best_seed = seed


def _ratio_fn(params: ClassParams, order: int):
    bound = thm_a_bound(params).bound

    def ratio(seed: SchwarzSeed) -> float:
        member = member_from_seed(params, seed, order)
        return sum_sq(log_coefficients(member)) / bound

    return ratio


def _expdamp_seed(x) -> ExpDamp:
    theta = float(x[0]) % (2.0 * math.pi)
    c = min(max(float(x[1]), 0.0), _EXPDAMP_C_MAX)
    return ExpDamp(theta=theta, c=c)


def _poly_seed(x) -> Polynomial:
    p = np.asarray(x[0::2], dtype=float) + 1j * np.asarray(x[1::2], dtype=float)
    total = float(np.sum(np.abs(p)))
    if total > 1.0:
        p = p * ((1.0 - 1e-12) / total)  # project back onto the certified simplex
    return Polynomial(coeffs=tuple(p.tolist()))


def adversarial_search(
    params: ClassParams,
    family: str = "expdamp",
    budget: int = 2000,
    rng_seed: int = 0,
    order: int | None = None,
) -> SearchReport:
    """Probe the sharpness claim: grid scan plus simplex refinement.

    A max ratio above 1 + 1e-9 would be a counterexample; the report flags
    non-convergence when the budget runs out before refinement finishes.
    """
    # imported here, not at module level: scipy.optimize loads scipy.special,
    # which nothing else in `import starlog` needs
    from scipy.optimize import minimize

    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")
    if budget < 1:
        raise ValueError("budget must be at least 1")
    if order is None:
        order = suggested_order(params)
    ratio = _ratio_fn(params, order)
    tracker = _Budget(budget)
    rng = np.random.default_rng(rng_seed)

    if family == "expdamp":
        make_seed = _expdamp_seed
        thetas = np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False)
        cs = np.array([0.0, 0.05, 0.2, 0.5, 1.0, 2.0, 3.5, _EXPDAMP_C_MAX])
        grid = [np.array([th, c]) for th in thetas for c in cs]
    else:
        make_seed = _poly_seed
        corners = [
            np.array([math.cos(th), math.sin(th), 0, 0, 0, 0, 0, 0])
            for th in np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False)
        ]
        randoms = [rng.uniform(-0.5, 0.5, 2 * _POLY_DEGREE) for _ in range(40)]
        grid = corners + randoms

    best_x = grid[0]
    for x in grid:
        if tracker.exhausted:
            break
        seed = make_seed(x)
        r = ratio(seed)
        if r > tracker.best_ratio:
            best_x = x
        tracker.record(seed, r)

    refined = False
    if not tracker.exhausted:

        def objective(x):
            if tracker.exhausted:
                return math.inf
            pen = 0.0
            if family == "expdamp":  # keep c inside [0, C_MAX], where _expdamp_seed clips it
                pen = min(x[1], 0.0) ** 2 + max(x[1] - _EXPDAMP_C_MAX, 0.0) ** 2
            seed = make_seed(x)
            r = ratio(seed)
            tracker.record(seed, r)
            return -r + 10.0 * pen

        res = minimize(
            objective,
            np.asarray(best_x, dtype=float),
            method="Nelder-Mead",
            options={
                "maxfev": tracker.limit - tracker.used,
                "xatol": 1e-10,
                "fatol": 1e-13,
            },
        )
        refined = bool(res.success)

    return SearchReport(
        family=family,
        params=params,
        rng_seed=rng_seed,
        budget=budget,
        order=order,
        evaluations=tracker.used,
        max_ratio=tracker.best_ratio,
        best_seed=tracker.best_seed,
        converged=refined and not tracker.exhausted,
    )
