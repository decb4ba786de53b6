"""Truncated complex formal power series on the unit disk.

All operations are pure functions on immutable values.  Truncation is
explicit: every binary operation truncates to the minimum operand order,
never zero-pads.  div, log and exp are lower-triangular Toeplitz solves
(the Cauchy-product recursions q*b = a, L'*a = a' and E' = a'*E), done in
blocks of rows: one convolution brings the solved history into the rows
of a block that the band reaches, and one BLAS banded triangular solve
finishes it.  The history and the
band reach back only over the index of the last nonzero Toeplitz entry,
so a banded divisor such as 1 + Bv costs O(N*(band + 64)) multiply-adds
and a dense one O(N^2); the per-coefficient Python overhead goes.
`_block_plan` cuts the rows into blocks and makes every view a block reads
once, and `_solve_blocks`, the one block loop, runs the plan: one `ztbsv`
per block and one convolution per later block, the convolution's result
the only allocation.  `_solve_toeplitz` plans every call; a caller that
solves many divisors of one band keeps the plan and rewrites the rows
that change.  Each block's solve is scipy's f2py `ztbsv`, loaded from its
compiled BLAS wrapper `scipy.linalg._fblas` without the `scipy.linalg`
package, so importing this module loads numpy and that one scipy extension.
"""

from __future__ import annotations

import importlib.util
import os
from dataclasses import dataclass
from importlib.machinery import PathFinder

import numpy as np

from .errors import NonzeroConstantTerm, NotUnitConstantTerm, ZeroConstantTerm


def _load_ztbsv():
    """scipy's `ztbsv`, from the extension `scipy/linalg/_fblas` loaded on its own.

    Importing the `scipy.linalg` package takes longer than numpy itself,
    and nothing else of it is used.  The extension is single-phase f2py,
    so loading it registers `scipy.linalg._fblas` in sys.modules and a
    later `import scipy.linalg` reuses it: `scipy.linalg.blas.ztbsv` is
    this same object.
    Where no such extension loads (say, an editable scipy build keeping its
    extensions elsewhere), the public import gives the same function.
    """
    scipy = importlib.util.find_spec("scipy")
    roots = scipy.submodule_search_locations if scipy else None
    dirs = [os.path.join(root, "linalg") for root in roots or ()]
    spec = PathFinder.find_spec("scipy.linalg._fblas", dirs)
    if spec:
        try:
            return importlib.util.module_from_spec(spec).ztbsv
        except (ImportError, OSError):
            pass
    from scipy.linalg.blas import ztbsv

    return ztbsv


ztbsv = _load_ztbsv()

#: rows per block of a dense solve; every block's band storage holds _BLOCK**2 entries
_BLOCK = 64


@dataclass(frozen=True, eq=False)
class TruncatedSeries:
    """Taylor coefficients c_0..c_N of an analytic function, truncated at order N.

    `array` is a read-only complex128 copy of the input.  Series compare by
    identity.
    """

    array: np.ndarray

    def __post_init__(self):
        array = np.array(self.array, dtype=np.complex128)
        if array.ndim != 1 or array.size == 0:
            raise ValueError("a series needs at least its constant term")
        array.flags.writeable = False
        object.__setattr__(self, "array", array)

    @property
    def coeffs(self) -> tuple[complex, ...]:
        return tuple(self.array.tolist())

    @property
    def order(self) -> int:
        return len(self.array) - 1

    def __getitem__(self, n: int) -> complex:
        return self.array[n]

    def __len__(self) -> int:
        return len(self.array)

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return add(self, other)


def _band(t: np.ndarray, n: int) -> int:
    """The band b of the first n entries of t (t_k = 0 for k > b): scanned for
    when t[n - 1] is zero, else n - 1; NaN and inf count as nonzero."""
    if t[n - 1] == 0:
        (nonzero,) = t[:n].nonzero()
        return int(nonzero[-1]) if nonzero.size else 0
    return n - 1


def _block_plan(t: np.ndarray, x: np.ndarray, band: int, flat: np.ndarray, diag=None) -> tuple:
    """(ab, plan) for the solve of x in place on t, of band `band`.  ab, one
    block's band storage (unfilled), is a Fortran-order view of `flat`: w =
    min(band, _BLOCK - 1) + 1 rows (row i for t_i) over _BLOCK**2 // w columns,
    at most len(x), so 64 rows of x a block at band 63 or more, 2048 at band 1.  The
    plan has each block's (offset, storage, history, diagonal): the history, from
    the second block on, is (its first min(band, rows) rows of x, t_1.., the
    solved rows of x the band reaches), since the band reaches no later row of
    the block, and the diagonal, with `diag`, is (storage row 0, its rows of diag)."""
    width = min(band, _BLOCK - 1) + 1
    rows = min(_BLOCK * _BLOCK // width, len(x))
    ab = flat[: width * rows].reshape((width, rows), order="F")
    plan = []
    for s in range(0, len(x), rows):
        e = min(s + rows, len(x))
        lo, reach = max(0, s - band), min(s + band, e)
        history = (x[s:reach], t[1 : reach - lo], x[lo:s]) if s and band else None
        diagonal = None if diag is None else (ab[0, : e - s], diag[s:e])
        plan.append((s, ab[:, : e - s], history, diagonal))
    return ab, plan


def _solve_blocks(plan: list, x: np.ndarray) -> np.ndarray:
    """Solve in place by `_block_plan`'s plan made on x, which holds the rhs of
    `_solve_toeplitz` and becomes its solution: per block, its history by one
    convolution over the band, into the block's first min(band, rows) rows,
    then one `ztbsv`.  x is contiguous complex128, so
    `ztbsv` overwrites x itself, which the plan's views read."""
    for s, a, history, diagonal in plan:
        if history:
            rows, t, past = history
            rows -= np.convolve(t, past, "valid")
        if diagonal:
            row, d = diagonal
            row[...] = d
        # incx 1, offx s, lower, no transpose, non-unit diagonal, overwrite x; passed
        # by position, since f2py's keyword parsing costs more than a short solve
        ztbsv(len(a) - 1, a, x, 1, s, 1, 0, 0, 1)
    return x


def _solve_toeplitz(t: np.ndarray, rhs: np.ndarray, diag: np.ndarray | None = None) -> np.ndarray:
    """x with d_n x_n + sum_{k=1}^{n} t_k x_{n-k} = rhs_n for n < len(rhs); d_n = t_0
    unless `diag` gives the diagonal, and t needs len(rhs) entries.  Allocates x
    and one block's band storage, plans, fills the storage and runs the plan."""
    x = np.array(rhs, dtype=np.complex128)
    if not len(x):
        return x
    flat = np.empty(min(_BLOCK, len(x)) ** 2, dtype=np.complex128)  # any band's storage
    ab, plan = _block_plan(t, x, _band(t, len(x)), flat, diag)
    ab[:] = t[: len(ab), None]
    return _solve_blocks(plan, x)


def from_coeffs(coeffs, order: int | None = None) -> TruncatedSeries:
    """Series from an iterable of scalars, optionally zero-padded to `order`."""
    cs = np.fromiter(coeffs, dtype=np.complex128)
    if order is not None:
        padded = np.zeros(order + 1, dtype=np.complex128)
        padded[: len(cs)] = cs[: order + 1]
        cs = padded
    return TruncatedSeries(cs)


def one(order: int) -> TruncatedSeries:
    """The constant series 1 at the given order."""
    return from_coeffs([1.0], order)


def scale(a: TruncatedSeries, s) -> TruncatedSeries:
    return TruncatedSeries(a.array * complex(s))


def add(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    n = min(a.order, b.order)
    return TruncatedSeries(a.array[: n + 1] + b.array[: n + 1])


def div(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Series quotient q with q*b = a up to the truncation order."""
    if b.array[0] == 0:
        raise ZeroConstantTerm("divisor has zero constant term")
    n = min(a.order, b.order)
    return TruncatedSeries(_solve_toeplitz(b.array[: n + 1], a.array[: n + 1]))


def log_series(a: TruncatedSeries) -> TruncatedSeries:
    """Principal-branch log of a series with constant term 1.

    Solves L' = a'/a, i.e. sum_{k=1}^{n} k*L_k*a_{n-k} = n*a_n, for k*L_k.
    """
    if a.array[0] != 1:
        raise NotUnitConstantTerm("log needs constant term exactly 1")
    k = np.arange(1, a.order + 1)
    L = np.zeros(a.order + 1, dtype=np.complex128)
    L[1:] = _solve_toeplitz(a.array[:-1], k * a.array[1:]) / k
    return TruncatedSeries(L)


def exp_series(a: TruncatedSeries) -> TruncatedSeries:
    """exp of a series with constant term 0, via n*E_n = sum_k k*a_k*E_{n-k}."""
    if a.array[0] != 0:
        raise NonzeroConstantTerm("exp needs constant term exactly 0")
    k = np.arange(a.order + 1)
    rhs = np.zeros(a.order + 1, dtype=np.complex128)
    rhs[0] = 1.0
    # E_0 = 1 comes from the unit diagonal entry of row 0
    return TruncatedSeries(_solve_toeplitz(-k * a.array, rhs, diag=np.maximum(k, 1)))


def integrate_over_t(a: TruncatedSeries) -> TruncatedSeries:
    """int_0^z a(t)/t dt: maps c_n -> c_n/n; needs c_0 = 0 (no 1/t singularity)."""
    if a.array[0] != 0:
        raise NonzeroConstantTerm("integrand a(t)/t needs a(0) = 0")
    out = np.zeros_like(a.array)
    out[1:] = a.array[1:] / np.arange(1, a.order + 1)
    return TruncatedSeries(out)
