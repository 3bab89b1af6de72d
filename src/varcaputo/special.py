"""Real-valued special functions: Gamma, digamma and the signed generalized
binomial coefficient.

Everything here runs on ``math`` (and NumPy for the binomial rows), so it
loads no SciPy.  The expansion coefficients are signed binomials
(-1)^k C(nu, k), built as rows by the recurrence of consecutive terms.
``gamma_ratio`` serves the closed forms of the reference layer: it works in
log-space with sign bookkeeping, since its factors can overflow or sit at
negative arguments while the ratio itself is finite and modest.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "PoleError",
    "DomainError",
    "gamma",
    "gamma_ratio",
    "digamma",
    "signed_binomial",
]


class PoleError(ValueError):
    """Argument hit a pole of the Gamma/digamma function."""


class DomainError(ValueError):
    """Argument outside the domain of the requested function."""


def _check_finite(x: float, name: str = "x") -> float:
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"{name} must be finite, got {x!r}")
    return x


def _is_nonpositive_integer(x: float) -> bool:
    return x <= 0.0 and x == math.floor(x)


def gamma(x: float) -> float:
    """Gamma function for real x, excluding the poles at 0, -1, -2, ...

    Raises :class:`PoleError` at non-positive integers and
    :class:`OverflowError` when the result is not representable.
    """
    x = _check_finite(x)
    if _is_nonpositive_integer(x):
        raise PoleError(f"gamma pole at x = {x}")
    try:
        return math.gamma(x)
    except OverflowError:
        raise OverflowError(f"gamma({x}) overflows double precision") from None


def gamma_ratio(num: float, den: float) -> float:
    """Gamma(num) / Gamma(den), computed as exp(logGamma difference).

    Safe for negative non-integer arguments on either side; the sign of each
    factor is tracked separately.  If only the denominator is at a pole the
    ratio is zero.  A logGamma that overflows (past about 2.6e305), or a
    ratio that does, raises :class:`OverflowError`.
    """
    num = _check_finite(num, "num")
    den = _check_finite(den, "den")
    den_pole = _is_nonpositive_integer(den)
    num_pole = _is_nonpositive_integer(num)
    if num_pole and den_pole:
        raise PoleError(
            f"gamma_ratio({num}, {den}): poles in numerator and denominator "
            "do not cancel automatically"
        )
    if num_pole:
        raise PoleError(f"gamma_ratio: numerator pole at {num}")
    if den_pole:
        return 0.0
    # Off the poles, Gamma(x < 0) has the sign (-1)^ceil(-x).
    sign = (-1.0) ** ((num < 0.0) * math.ceil(-num) + (den < 0.0) * math.ceil(-den))
    try:
        return sign * math.exp(math.lgamma(num) - math.lgamma(den))
    except OverflowError:
        raise OverflowError(f"gamma_ratio({num}, {den}) overflows double precision") from None


def digamma(x: float) -> float:
    """Digamma (Psi) function, the logarithmic derivative of Gamma.

    Below 1/2 it reflects, Psi(x) = Psi(1-x) - pi / tan(pi r), with r = x -
    round(x) exact, so the pole term keeps its relative accuracy next to the
    negative poles.  Then Psi(x) = Psi(x+1) - 1/x carries x up to 10, where
    the asymptotic series (Abramowitz & Stegun 6.3.18) ends the sum.
    """
    x = _check_finite(x)
    if _is_nonpositive_integer(x):
        raise PoleError(f"digamma pole at x = {x}")
    if x < 0.5:
        return digamma(1.0 - x) - math.pi / math.tan(math.pi * (x - round(x)))
    acc = 0.0
    while x < 10.0:
        acc -= 1.0 / x
        x += 1.0
    s = 1.0 / (x * x)
    # B_2k / (2k) for k = 1..7 by Horner; at x >= 10 the first term left out is below 1e-17.
    series = 1/12 - s * (1/120 - s * (1/252 - s * (1/240 - s * (1/132 - s * (691/32760 - s/12)))))
    return acc + math.log(x) - 0.5 / x - s * series


#: k = 0..4095, read-only: k and k + 1 of every signed-binomial row of up
#: to 4096 entries are two views into these 32 KiB.
_K = np.arange(4096.0)
_K.flags.writeable = False


def _signed_binomials(nu: float, count: int) -> np.ndarray:
    """(-1)^k C(nu, k) for k = 0..count-1, from 1 by the recurrence
    (-1)^(k+1) C(nu, k+1) = (-1)^k C(nu, k) (k - nu) / (k + 1), as the
    running product of the factors in one preallocated row."""
    k = _K if count <= _K.size else np.arange(float(count))
    row = np.empty(count)
    row[0] = 1.0
    np.divide(k[:count - 1] - nu, k[1:count], out=row[1:])
    # The ufunc form of np.cumprod, in place, without its dispatch cost on short rows.
    return np.multiply.accumulate(row, out=row)


def signed_binomial(nu: float, p: int) -> float:
    """(-1)^p * C(nu, p) for real nu and non-negative integer p.

    The last entry of the row built by ``_signed_binomials``, so it costs
    O(p) time and memory.  Exact at p = 0.  For integer nu it is zero once
    p exceeds nu >= 0, and C(m+p-1, p), which is finite, for nu = -m.  It
    needs no factorial, so it stays finite beyond p = 170.  A p that is not a
    non-negative integer, inf and nan included, raises ``DomainError``.
    """
    nu = _check_finite(nu, "nu")
    if not (0 <= p < math.inf and p == int(p)):
        raise DomainError(f"p must be a non-negative integer, got {p!r}")
    return float(_signed_binomials(nu, int(p) + 1)[-1])
