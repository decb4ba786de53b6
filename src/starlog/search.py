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
from .errors import ConfigError
from .members import ClassParams, ExpDamp, Polynomial, SchwarzSeed, _log_ratio, suggested_order

FAMILIES = ("expdamp", "poly")

_EXPDAMP_C_MAX = 5.0
_POLY_DEGREE = 4


@dataclass(frozen=True)
class SearchReport:
    order: int
    evaluations: int
    max_ratio: float
    best_seed: SchwarzSeed
    converged: bool


def _ratio_fn(params: ClassParams, order: int):
    bound = thm_a_bound(params)

    def ratio(seed: SchwarzSeed) -> float:
        # sum_sq(log_coefficients(member_from_seed(...))) / bound, op for op, off the array
        d = _log_ratio(params, seed, order)[1:] / 2.0
        return float((np.abs(d) ** 2).sum()) / bound

    return ratio


def _expdamp_seed(x) -> ExpDamp:
    theta = float(x[0]) % (2.0 * math.pi)
    c = min(max(float(x[1]), 0.0), _EXPDAMP_C_MAX)
    return ExpDamp(theta=theta, c=c)


def _poly_seed(x) -> Polynomial:
    p = x[0::2] + 1j * x[1::2]
    total = float(np.abs(p).sum())
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
    # imported here, not at module level: scipy.optimize loads scipy.special
    # and the scipy.linalg package, which `import starlog` skips
    from scipy.optimize import minimize

    if family not in FAMILIES:
        raise ConfigError(f"unknown family {family!r}; expected one of {FAMILIES}")
    if not budget >= 1:
        raise ConfigError(f"budget {budget!r} must be at least 1")
    if order is None:
        order = suggested_order(params)
    ratio = _ratio_fn(params, order)
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

    # evaluations so far and the best (ratio, seed); a tie on the ratio goes to the
    # smaller seed key, so the report does not depend on evaluation order
    used, max_ratio, best_seed = 0, -math.inf, None

    def score(x) -> float:
        nonlocal used, max_ratio, best_seed
        seed = make_seed(x)
        r = ratio(seed)
        used += 1
        if r > max_ratio or (
            r == max_ratio and best_seed is not None and seed.sort_key() < best_seed.sort_key()
        ):
            max_ratio, best_seed = r, seed
        return r

    grid_ratios = [score(x) for x in grid[:budget]]
    best_x = grid[grid_ratios.index(max(grid_ratios))]

    refined = False
    if used < budget:

        def objective(x):
            if used >= budget:
                return math.inf
            pen = 0.0
            if family == "expdamp":  # keep c inside [0, C_MAX], where _expdamp_seed clips it
                pen = min(x[1], 0.0) ** 2 + max(x[1] - _EXPDAMP_C_MAX, 0.0) ** 2
            return -score(x) + 10.0 * pen

        res = minimize(
            objective,
            np.asarray(best_x, dtype=float),
            method="Nelder-Mead",
            options={
                "maxfev": budget - used,
                "xatol": 1e-10,
                "fatol": 1e-13,
            },
        )
        refined = bool(res.success)

    return SearchReport(
        order=order,
        evaluations=used,
        max_ratio=max_ratio,
        best_seed=best_seed,
        converged=refined and used < budget,
    )
