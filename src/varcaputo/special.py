"""Real-valued special functions: Gamma, digamma and the signed generalized
binomial coefficient.

The expansion coefficients are signed binomials (-1)^k C(nu, k), built as
rows by the recurrence of consecutive terms.  ``gamma_ratio`` serves the
closed forms of the reference layer: it works in log-space with sign
bookkeeping, since its factors can overflow or sit at negative arguments
while the ratio itself is finite and modest.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special as _sp

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
    value = float(_sp.gamma(x))
    if not math.isfinite(value):
        raise OverflowError(f"gamma({x}) overflows double precision")
    return value


def gamma_ratio(num: float, den: float) -> float:
    """Gamma(num) / Gamma(den), computed as exp(logGamma difference).

    Safe for negative non-integer arguments on either side; the sign of each
    factor is tracked separately.  If only the denominator is at a pole the
    ratio is zero.  A log ratio that is not finite (logGamma overflows past
    about 2.6e305) raises :class:`OverflowError`.
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
    sign = float(_sp.gammasgn(num) * _sp.gammasgn(den))
    log_ratio = float(_sp.gammaln(num)) - float(_sp.gammaln(den))
    if not math.isfinite(log_ratio):
        raise OverflowError(f"gamma_ratio({num}, {den}): log ratio {log_ratio} is not finite")
    return sign * math.exp(log_ratio)


def digamma(x: float) -> float:
    """Digamma (Psi) function, the logarithmic derivative of Gamma."""
    x = _check_finite(x)
    if _is_nonpositive_integer(x):
        raise PoleError(f"digamma pole at x = {x}")
    return float(_sp.psi(x))


def _signed_binomials(nu: float, count: int) -> np.ndarray:
    """(-1)^k C(nu, k) for k = 0..count-1, from 1 by the recurrence
    (-1)^(k+1) C(nu, k+1) = (-1)^k C(nu, k) (k - nu) / (k + 1)."""
    k = np.arange(count - 1.0)
    # The ufunc form of np.cumprod, without its dispatch cost on short rows.
    return np.multiply.accumulate(np.concatenate(([1.0], (k - nu) / (k + 1.0))))


def signed_binomial(nu: float, p: int) -> float:
    """(-1)^p * C(nu, p) for real nu and non-negative integer p.

    The last entry of the row built by ``_signed_binomials``, so it costs
    O(p) time and memory.  Exact at p = 0.  For integer nu it is zero once
    p exceeds nu >= 0, and C(m+p-1, p), which is finite, for nu = -m.  It
    needs no factorial, so it stays finite beyond p = 170.
    """
    nu = _check_finite(nu, "nu")
    if p < 0 or p != int(p):
        raise DomainError(f"p must be a non-negative integer, got {p!r}")
    return float(_signed_binomials(nu, int(p) + 1)[-1])
