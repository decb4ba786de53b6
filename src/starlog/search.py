"""Adversarial search for counterexamples to the plain-squares bound.

Maximizes ratio(seed) = sum |d_n|^2 / bound over a certified seed family
(coarse grid, then Nelder-Mead refinement).  Deterministic for a fixed
rng seed and budget; the expected outcome is a maximum ratio of 1 attained
at (or converging to) the identity-equivalent corner.

The refinement is an in-house Nelder-Mead, step for step and bit for bit
scipy's (`method="Nelder-Mead"` with `maxfev`, `xatol` and `fatol` set), so
the search loads nothing of scipy beyond the BLAS extension of `starlog.series`.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .bounds import thm_a_bound
from .errors import ConfigError
from .members import ClassParams, ExpDamp, Polynomial, SchwarzSeed, suggested_order
from .members import _check_expdamp, _check_poly, _d_setup, _held_solver, _solve_d
from .members import _poly_total, _write_expdamp, _write_poly

_EXPDAMP_C_MAX = 5.0
_POLY_DEGREE = 4


@dataclass(frozen=True)
class SearchReport:
    order: int
    evaluations: int
    max_ratio: float
    best_seed: SchwarzSeed
    converged: bool


def _expdamp_point(v: np.ndarray, x) -> tuple:
    """Write the certified ExpDamp seed of point x into v; returns its (theta, c)."""
    theta = float(x[0]) % (2.0 * math.pi)
    c = min(max(float(x[1]), 0.0), _EXPDAMP_C_MAX)
    _check_expdamp(theta, c)
    _write_expdamp(v, theta, c)
    return theta, c


def _poly_point(v: np.ndarray, x: np.ndarray) -> tuple:
    """Write the certified Polynomial seed of point x into v; returns its
    (coeffs,), the array of coefficients written.

    x is a contiguous float64 array (re p_1, im p_1, re p_2, ...), read as
    complex128 in place and copied, so a projection scales the copy, not x.
    For a point with no -0.0 and no non-finite coordinate, which is every
    point of a search, these are the bits of x[0::2] + 1j * x[1::2].
    """
    p = x.view(np.complex128).copy()
    total = _poly_total(p)
    if total > 1.0:
        p *= (1.0 - 1e-12) / total  # project back onto the certified simplex
        total = _poly_total(p)
    _check_poly(total)  # the total of the coefficients written, as `Polynomial` reads it
    _write_poly(v, p)
    return (p,)


# each family's seed type and the writer of its seed at a search point
_FAMILY = {"expdamp": (ExpDamp, _expdamp_point), "poly": (Polynomial, _poly_point)}
FAMILIES = tuple(_FAMILY)


def _scorer(params: ClassParams, family: str, order: int):
    """x -> (ratio, seed args) of the family's seed at x, scored op for op as
    `(np.abs(member_from_seed(...).d) ** 2).sum() / bound`.  A poly seed is
    solved on buffers held for the whole search; an ExpDamp seed, dense, is
    written into one reused buffer and solved by `_solve_d`, its band scanned."""
    write = _FAMILY[family][1]
    bound = thm_a_bound(params)
    if family == "poly":
        v, abs_sq = _held_solver(params, order, _POLY_DEGREE)
    else:
        v, scale, evens = _d_setup(params, order)

        def abs_sq() -> np.ndarray:
            return np.abs(_solve_d(v, scale, params.B, evens)) ** 2

    def score(x) -> tuple[float, tuple]:
        args = write(v, x)
        return float(np.add.reduce(abs_sq())) / bound, args

    return score


class _Spent(Exception):
    """The evaluation cap is reached; the run ends where it stands."""


def _nelder_mead(f, x0, maxfev: int, xatol: float, fatol: float) -> tuple[bool, int]:
    """Minimize f from x0 by Nelder-Mead with rho, chi, psi, sigma = 1, 2, 1/2, 1/2.

    Returns (converged, calls): converged when the simplex met both tolerances
    before `maxfev` calls of f were spent.  The vertices are argsorted after
    the fill and after every step, as in scipy, so ties break the same way
    (scipy sorts once more after the fill, which changes nothing).

    Each step runs scipy's arithmetic on the same arrays, on fewer calls:
    `fsim.argsort()` (numpy's quicksort; Python's sort may break ties
    otherwise) and `take` reorder the simplex; `np.maximum.reduce(..., None)`
    takes the two spreads and `np.add.reduce` the centroid, the reductions
    that `ndarray.max` and `ndarray.sum` run, without their wrappers; n and
    the step coefficients are Python floats, the same doubles as scipy's ints,
    which numpy converts for less; and a shrink moves every vertex but the
    best in one expression, to the bits of scipy's row by row update, then
    calls f on them in order.
    """
    calls = 0

    def fun(x):
        nonlocal calls
        if calls == maxfev:
            raise _Spent
        calls += 1
        return f(x)

    n = len(x0)
    nf = float(n)
    sim = np.tile(np.asarray(x0, dtype=float), (n + 1, 1))
    for k in range(n):
        sim[k + 1, k] = 1.05 * sim[0, k] if sim[0, k] != 0 else 0.00025
    fsim = np.full(n + 1, np.inf)
    try:
        for k in range(n + 1):
            fsim[k] = fun(sim[k])
        while calls < maxfev:  # the cap goes before the tolerances: a step ending on it fails
            order = fsim.argsort()
            sim, fsim = sim.take(order, 0), fsim.take(order)
            spread = np.maximum.reduce(np.abs(sim[1:] - sim[0]), None)
            if spread <= xatol and np.maximum.reduce(np.abs(fsim[0] - fsim[1:]), None) <= fatol:
                return True, calls
            xbar = np.add.reduce(sim[:-1], 0) / nf
            xr = 2.0 * xbar - sim[-1]
            fxr = fun(xr)
            if fxr < fsim[0]:  # expand
                xe = 3.0 * xbar - 2.0 * sim[-1]
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
                    sim[1:] = sim[0] + 0.5 * (sim[1:] - sim[0])
                    for j in range(1, n + 1):
                        fsim[j] = fun(sim[j])
    except _Spent:
        pass
    return False, calls


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
    order = suggested_order(params) if order is None else order
    for name, value in (("budget", budget), ("rng_seed", rng_seed), ("order", order)):
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ConfigError(f"{name} {value!r} must be an integer")
    if budget < 1 or rng_seed < 0:
        raise ConfigError(f"need budget >= 1 and rng_seed >= 0, got {budget} and {rng_seed}")
    ratio = _scorer(params, family, order)
    make_seed = _FAMILY[family][0]

    thetas = np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False)
    if family == "expdamp":
        cs = np.array([0.0, 0.05, 0.2, 0.5, 1.0, 2.0, 3.5, _EXPDAMP_C_MAX])
        grid = [np.array([th, c]) for th in thetas for c in cs]
    else:
        rng = np.random.default_rng(rng_seed)
        grid = [np.array([math.cos(th), math.sin(th), 0, 0, 0, 0, 0, 0]) for th in thetas]
        grid += [rng.uniform(-0.5, 0.5, 2 * _POLY_DEGREE) for _ in range(40)]

    # the best (ratio, seed) so far; a tie goes to the smaller seed key, whatever the order
    max_ratio, best_seed = -math.inf, None

    def score(x) -> float:
        nonlocal max_ratio, best_seed
        r, args = ratio(x)
        if r >= max_ratio:  # a seed is built only for a new best or a tie
            seed = make_seed(*args)
            if r > max_ratio or seed.sort_key() < best_seed.sort_key():
                max_ratio, best_seed = r, seed
        return r

    grid_ratios = [score(x) for x in grid[:budget]]
    best_x = grid[grid_ratios.index(max(grid_ratios))]
    used = len(grid_ratios)

    if family == "expdamp":

        def objective(x):  # keep c inside [0, C_MAX], where _expdamp_point clips it
            pen = min(x[1], 0.0) ** 2 + max(x[1] - _EXPDAMP_C_MAX, 0.0) ** 2
            return -score(x) + 10.0 * pen

    else:

        def objective(x):  # -r + 10.0 * 0.0, to the bit: a ratio of 0 still gives +0.0
            return -score(x) + 0.0

    # a budget spent in the grid leaves no call: the refinement stops at once, unconverged
    converged, calls = _nelder_mead(objective, best_x, budget - used, xatol=1e-10, fatol=1e-13)
    used += calls

    return SearchReport(order, used, max_ratio, best_seed, converged)
