"""Adversarial search for counterexamples to the plain-squares bound.

Maximizes ratio(seed) = sum |d_n|^2 / bound over a certified seed family
(coarse grid, then Nelder-Mead refinement).  Deterministic for a fixed
rng seed and budget; the expected outcome is a maximum ratio of 1 attained
at (or converging to) the identity-equivalent corner.

The refinement is an in-house Nelder-Mead that runs, step for step and bit
for bit, the one path `scipy.optimize.minimize(method="Nelder-Mead")` runs
here (default coefficients, `maxfev`, `xatol` and `fatol` set), so the search
imports nothing of scipy beyond the BLAS extension `starlog.series` loads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import thm_a_bound
from .errors import ConfigError
from .members import ClassParams, ExpDamp, Polynomial, SchwarzSeed, _log_coeffs, suggested_order

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
        d = _log_coeffs(params, seed, order)
        return float((np.abs(d) ** 2).sum()) / bound

    return ratio


class _Spent(Exception):
    """The evaluation cap is reached; the run ends where it stands."""


def _nelder_mead(f, x0, maxfev: int, xatol: float, fatol: float) -> tuple[bool, int]:
    """Minimize f from x0 by Nelder-Mead with rho, chi, psi, sigma = 1, 2, 1/2, 1/2.

    Returns (converged, calls): converged is True when the simplex met both
    tolerances before `maxfev` calls of f were spent.  The vertices are
    re-sorted by argsort after the initial fill and after every step, as in
    scipy, so ties between equal values break the same way (scipy sorts once
    more after the fill, an argsort of sorted values that changes nothing).
    """
    calls = 0

    def fun(x):
        nonlocal calls
        if calls == maxfev:
            raise _Spent
        calls += 1
        return f(x)

    n = len(x0)
    sim = np.tile(np.asarray(x0, dtype=float), (n + 1, 1))
    for k in range(n):
        sim[k + 1, k] = 1.05 * sim[0, k] if sim[0, k] != 0 else 0.00025
    fsim = np.full(n + 1, np.inf)
    try:
        for k in range(n + 1):
            fsim[k] = fun(sim[k])
        while calls < maxfev:  # the cap goes before the tolerances: a step ending on it fails
            order = np.argsort(fsim)
            sim, fsim = sim[order], fsim[order]
            spread = np.abs(sim[1:] - sim[0]).max()
            if spread <= xatol and np.abs(fsim[0] - fsim[1:]).max() <= fatol:
                return True, calls
            xbar = sim[:-1].sum(axis=0) / n
            xr = 2 * xbar - sim[-1]
            fxr = fun(xr)
            if fxr < fsim[0]:  # expand
                xe = 3 * xbar - 2 * sim[-1]
                fxe = fun(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:  # reflect
                sim[-1], fsim[-1] = xr, fxr
            else:  # contract outside or inside; shrink toward sim[0] if that fails
                if fxr < fsim[-1]:
                    xc = 1.5 * xbar - 0.5 * sim[-1]
                    fxc = fun(xc)
                    accept = fxc <= fxr
                else:
                    xc = 0.5 * xbar + 0.5 * sim[-1]
                    fxc = fun(xc)
                    accept = fxc < fsim[-1]
                if accept:
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    for j in range(1, n + 1):
                        sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                        fsim[j] = fun(sim[j])
    except _Spent:
        pass
    return False, calls


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
    if family not in FAMILIES:
        raise ConfigError(f"unknown family {family!r}; expected one of {FAMILIES}")
    if not budget >= 1:
        raise ConfigError(f"budget {budget!r} must be at least 1")
    if order is None:
        order = suggested_order(params)
    ratio = _ratio_fn(params, order)

    if family == "expdamp":
        make_seed = _expdamp_seed
        thetas = np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False)
        cs = np.array([0.0, 0.05, 0.2, 0.5, 1.0, 2.0, 3.5, _EXPDAMP_C_MAX])
        grid = [np.array([th, c]) for th in thetas for c in cs]
    else:
        make_seed = _poly_seed
        rng = np.random.default_rng(rng_seed)
        corners = [
            np.array([math.cos(th), math.sin(th), 0, 0, 0, 0, 0, 0])
            for th in np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False)
        ]
        randoms = [rng.uniform(-0.5, 0.5, 2 * _POLY_DEGREE) for _ in range(40)]
        grid = corners + randoms

    # the best (ratio, seed) so far; a tie on the ratio goes to the smaller seed
    # key, so the report does not depend on evaluation order
    max_ratio, best_seed = -math.inf, None

    def score(x) -> float:
        nonlocal max_ratio, best_seed
        seed = make_seed(x)
        r = ratio(seed)
        if r > max_ratio or (
            r == max_ratio and best_seed is not None and seed.sort_key() < best_seed.sort_key()
        ):
            max_ratio, best_seed = r, seed
        return r

    grid_ratios = [score(x) for x in grid[:budget]]
    best_x = grid[grid_ratios.index(max(grid_ratios))]
    used = len(grid_ratios)

    converged = False
    if used < budget:

        def objective(x):
            pen = 0.0
            if family == "expdamp":  # keep c inside [0, C_MAX], where _expdamp_seed clips it
                pen = min(x[1], 0.0) ** 2 + max(x[1] - _EXPDAMP_C_MAX, 0.0) ** 2
            return -score(x) + 10.0 * pen

        converged, calls = _nelder_mead(objective, best_x, budget - used, xatol=1e-10, fatol=1e-13)
        used += calls

    return SearchReport(
        order=order,
        evaluations=used,
        max_ratio=max_ratio,
        best_seed=best_seed,
        converged=converged,
    )
