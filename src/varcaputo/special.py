"""Real-valued special functions: Gamma, digamma and the signed generalized
binomial coefficient.

All coefficient formulas in this package involve ratios of Gamma functions
whose individual factors can overflow or sit at negative arguments while the
ratio itself is finite and modest.  ``gamma_ratio`` therefore works in
log-space with explicit sign bookkeeping, and everything else is built on it.
"""

from __future__ import annotations

import math

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


def gamma_ratio(num: float, den: float, k: int = 0) -> float:
    """Gamma(num) / (Gamma(den) k!), computed as exp(logGamma difference).

    Safe for negative non-integer arguments on either side; the sign of each
    factor is tracked separately.  The factorial joins the log-space
    difference as logGamma(k+1), so the result stays finite where k! alone
    would overflow (k >= 171).  If only the denominator is at a pole the
    ratio is zero.
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
    log_ratio = float(_sp.gammaln(num) - _sp.gammaln(den))
    return sign * math.exp(log_ratio - math.lgamma(k + 1.0))


def digamma(x: float) -> float:
    """Digamma (Psi) function, the logarithmic derivative of Gamma."""
    x = _check_finite(x)
    if _is_nonpositive_integer(x):
        raise PoleError(f"digamma pole at x = {x}")
    return float(_sp.psi(x))


def signed_binomial(nu: float, p: int) -> float:
    """(-1)^p * C(nu, p) for real nu and non-negative integer p.

    Uses the identity (-1)^p C(nu, p) = Gamma(p - nu) / (Gamma(-nu) p!),
    evaluated through ``gamma_ratio``, so it stays finite beyond p = 170.
    Exact at p = 0.
    """
    nu = _check_finite(nu, "nu")
    if p < 0 or p != int(p):
        raise DomainError(f"p must be a non-negative integer, got {p!r}")
    p = int(p)
    if p == 0:
        return 1.0
    if nu == math.floor(nu):
        # Integer nu: the Gamma-ratio form degenerates; C(nu, p) is an
        # ordinary binomial coefficient (zero once p exceeds nu >= 0).
        nu_int = int(nu)
        if nu_int < 0:
            raise PoleError(
                f"signed_binomial({nu}, {p}): negative integer nu hits an "
                "uncancelled Gamma pole"
            )
        if p > nu_int:
            return 0.0
        return float((-1) ** p * math.comb(nu_int, p))
    return gamma_ratio(p - nu, -nu, p)
