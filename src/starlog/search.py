"""Adversarial search for counterexamples to the plain-squares bound.

Maximizes ratio(seed) = sum |d_n|^2 / bound over a certified seed family
(coarse grid, then Nelder-Mead refinement).  The bound is G K(B), with
K(B) = Li_2(B^2)/B^2, and sum |d_n|^2 = G sum |q_n|^2, q the seed's unit
coefficients (`members.unit_log_coefficients`), so the search scores
sum |q_n|^2 / K(B): G cancels, and a search depends on B and N_d, not on A
or m.  Deterministic for a fixed rng seed and budget; the expected outcome
is a maximum ratio of 1 attained at (or converging to) the
identity-equivalent corner.

The refinement is an in-house Nelder-Mead, step for step and bit for bit
scipy's (`method="Nelder-Mead"` with `maxfev`, `xatol` and `fatol` set), so
the search loads nothing of scipy beyond the BLAS extension of `starlog.series`.

Points that do not depend on each other, the grid, the initial simplex and
the n vertices of each shrink, are scored together: a poly search writes up
to a stack of them at once and solves them on its solver's held stack with
one `ztbsv`, a few calls per stack where one point alone takes about
fifteen.  Reflections, expansions and contractions, and every ExpDamp
point, are scored one at a time.  The best ratio and its ties are tracked in
the order the points come, so a report has the bits of one scored point by
point.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .bounds import _weighted_series
from .errors import ConfigError
from .members import ClassParams, ExpDamp, Polynomial, SchwarzSeed, log_order, suggested_order
from .members import _check_expdamp, _check_poly, _held_solver
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


def _poly_point(v: np.ndarray, x: np.ndarray, mags: np.ndarray) -> tuple:
    """Write the certified Polynomial seed of point x into v; returns its
    (coeffs,), the array of coefficients written.

    x is a contiguous float64 array (re p_1, im p_1, re p_2, ...), read as
    complex128 in place and copied, so a projection scales the copy, not x.
    For a point with no -0.0 and no non-finite coordinate, which is every
    point of a search, these are the bits of x[0::2] + 1j * x[1::2].  Each
    total is `_poly_total`'s, the certificate's own: numpy's |p_i| into
    `mags`, held by the search, added left to right in Python, which costs
    less than a numpy reduce over four entries.  A projected point (most of a
    poly search's) takes two totals, the point's and the one certified.
    """
    p = x.view(np.complex128).copy()
    total = _poly_total(p, mags)
    if total > 1.0:
        p *= (1.0 - 1e-12) / total  # project back onto the certified simplex
        total = _poly_total(p, mags)
    _check_poly(total)  # the total of the coefficients written, as `Polynomial` reads it
    _write_poly(v, p)
    return (p,)


def _poly_points(heads: np.ndarray, xs) -> list:
    """Write the certified Polynomial seeds of points xs into the first rows of
    heads, v_1..v_h of each, as `_poly_point` writes each into v; returns each
    one's (coeffs,), a row of one new array.  Each total is a numpy sum along
    a row, which for four coefficients folds left to right as `_poly_total`
    does, so it has the bits of the point's own.  The projection is one masked
    multiply, with no boolean indexing: each projected row by its factor, which
    is computed only for the rows projected.  Any point that fails the
    certificate fails the batch before anything is written."""
    p = np.array(xs).view(np.complex128)
    totals = np.add.reduce(np.abs(p), 1)
    over = totals > 1.0
    if over.any():
        # project back onto the certified simplex: each projected row's total becomes
        # its factor, and no other row's total is divided (a total of 0 would warn)
        np.divide(1.0 - 1e-12, totals, out=totals, where=over)
        np.multiply(p, totals[:, None], out=p, where=over[:, None])
        totals = np.add.reduce(np.abs(p), 1)
    _check_poly(np.maximum.reduce(totals))  # NaN, the max of a NaN total, fails too
    heads[: len(p)] = p[:, : heads.shape[1]]
    return [(coeffs,) for coeffs in p]


# each family's seed type and the writer of its seed at a search point
_FAMILY = {"expdamp": (ExpDamp, _expdamp_point), "poly": (Polynomial, _poly_point)}
FAMILIES = tuple(_FAMILY)


def _scorer(B: float, family: str, n_d: int):
    """(score, score_all) of the family's seed, on the buffers of one
    `_held_solver` held for the whole search.  score(x) is (ratio, seed args) of
    the seed at x, scored op for op as `(np.abs(unit_log_coefficients(B, seed,
    n_d)) ** 2).sum() / K(B)`; score_all(xs) is [score(x) for x in xs], the same
    bits.  A poly seed is solved at its degree's band, and score_all solves its
    points a stack at a time where the solver has a stack (a one-block plan); an
    ExpDamp seed is solved at the band scanned per point, one at a time."""
    write = _FAMILY[family][1]
    kernel = _weighted_series(B, 0.0)  # K(B), the bound in units of G
    if family == "poly":
        v, sum_sq, stack = _held_solver(B, n_d, _POLY_DEGREE)
        write = functools.partial(write, mags=np.empty(_POLY_DEGREE))
    else:
        v, sum_sq, stack = _held_solver(B, n_d)

    def score(x) -> tuple[float, tuple]:
        args = write(v, x)
        return sum_sq() / kernel, args

    def score_all(xs) -> list:
        if stack is None:
            return [score(x) for x in xs]
        heads, sums = stack
        scored = []
        for at in range(0, len(xs), len(heads)):
            args = _poly_points(heads, xs[at : at + len(heads)])
            scored += zip([s / kernel for s in sums(len(args))], args)
        return scored

    return score, score_all


class _Spent(Exception):
    """The evaluation cap is reached; the run ends where it stands."""


def _nelder_mead(f, f_all, x0, maxfev: int, xatol: float, fatol: float) -> tuple[bool, int]:
    """Minimize f from x0 by Nelder-Mead with rho, chi, psi, sigma = 1, 2, 1/2, 1/2.

    f_all(xs) must be [f(x) for x in xs].  It scores the points that do not
    depend on each other, the initial simplex and each shrink's n vertices, as
    many of them as the calls left allow.  Returns (converged, calls): converged
    when the simplex met both tolerances before `maxfev` points were scored.
    The vertices are argsorted after the fill and after every step, as in
    scipy, so ties break the same way (scipy sorts once more after the fill,
    which changes nothing).

    Each step runs scipy's arithmetic on fewer calls: `fsim.argsort()` (numpy's
    quicksort; Python's sort may break ties otherwise) and `take` reorder the
    simplex; f's spread, tested first, is fsim[-1] - fsim[0], scipy's max
    |fsim[0] - fsim[1:]| on the sorted fsim (rounding is monotone; a NaN, sorted
    last, fails both), so the vertices' spread is taken only once f's is met;
    `np.add.reduce` takes the centroid without `ndarray.sum`'s wrapper; n and
    the step coefficients are 0-d float64 arrays, scipy's doubles, which numpy
    takes without converting a Python number; and a shrink moves every vertex
    but the best in one expression, to the bits of scipy's row by row update.
    """
    calls = 0

    def fun(x):
        nonlocal calls
        if calls == maxfev:
            raise _Spent
        calls += 1
        return f(x)

    def fun_all(xs) -> list:
        nonlocal calls
        take = min(len(xs), maxfev - calls)
        values = f_all(xs[:take]) if take else []
        calls += take
        if take < len(xs):
            raise _Spent
        return values

    n = len(x0)
    nf, half, three_halves, two, three = map(np.array, (float(n), 0.5, 1.5, 2.0, 3.0))
    sim = np.tile(np.asarray(x0, dtype=float), (n + 1, 1))
    for k in range(n):
        sim[k + 1, k] = 1.05 * sim[0, k] if sim[0, k] != 0 else 0.00025
    fsim = np.full(n + 1, np.inf)
    try:
        fsim[:] = fun_all(sim)
        while calls < maxfev:  # the cap goes before the tolerances: a step ending on it fails
            order = fsim.argsort()
            sim, fsim = sim.take(order, 0), fsim.take(order)
            if fsim[-1] - fsim[0] <= fatol and np.maximum.reduce(np.abs(sim[1:] - sim[0]), None) <= xatol:
                return True, calls
            xbar = np.add.reduce(sim[:-1], 0) / nf
            xr = two * xbar - sim[-1]
            fxr = fun(xr)
            if fxr < fsim[0]:  # expand
                xe = three * xbar - two * sim[-1]
                fxe = fun(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:  # reflect
                sim[-1], fsim[-1] = xr, fxr
            else:  # contract outside or inside; shrink toward sim[0] if that fails
                if fxr < fsim[-1]:
                    xc = three_halves * xbar - half * sim[-1]
                    fxc = fun(xc)
                    accept = fxc <= fxr
                else:
                    xc = half * xbar + half * sim[-1]
                    fxc = fun(xc)
                    accept = fxc < fsim[-1]
                if accept:
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    sim[1:] = sim[0] + half * (sim[1:] - sim[0])
                    fsim[1:] = fun_all(sim[1:])
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
    Every field of the report but `order` depends only on (B, N_d, family,
    budget, rng_seed), N_d = order // m: not on A, nor on m apart from N_d.
    """
    if family not in FAMILIES:
        raise ConfigError(f"unknown family {family!r}; expected one of {FAMILIES}")
    order = suggested_order(params) if order is None else order
    for name, value in (("budget", budget), ("rng_seed", rng_seed), ("order", order)):
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ConfigError(f"{name} {value!r} must be an integer")
    if budget < 1 or rng_seed < 0:
        raise ConfigError(f"need budget >= 1 and rng_seed >= 0, got {budget} and {rng_seed}")
    ratio, ratios = _scorer(params.B, family, log_order(params, order))
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
    clip = family == "expdamp"  # c is kept inside [0, C_MAX], where _expdamp_point clips it

    # -r + 10.0 * pen of the point x of ratio r, pen +0.0 for poly: a ratio of 0 gives +0.0
    def value(x, r: float, args: tuple) -> float:
        nonlocal max_ratio, best_seed
        if r >= max_ratio:  # a seed is built only for a new best or a tie
            seed = make_seed(*args)
            if r > max_ratio or seed.sort_key() < best_seed.sort_key():
                max_ratio, best_seed = r, seed
        pen = min(x[1], 0.0) ** 2 + max(x[1] - _EXPDAMP_C_MAX, 0.0) ** 2 if clip else 0.0
        return -r + 10.0 * pen

    def objective(x) -> float:
        return value(x, *ratio(x))

    def objectives(xs) -> list:  # scored together, tracked in order: [objective(x) for x in xs]
        return [value(x, *scored) for x, scored in zip(xs, ratios(xs))]

    # no grid point is penalized, so the least objective is the first greatest ratio
    grid_values = objectives(grid[:budget])
    best_x = grid[grid_values.index(min(grid_values))]
    used = len(grid_values)

    # a budget spent in the grid leaves no call: the refinement stops at once, unconverged
    converged, calls = _nelder_mead(objective, objectives, best_x, budget - used, xatol=1e-10, fatol=1e-13)
    used += calls

    return SearchReport(order, used, max_ratio, best_seed, converged)
