"""Exact values for the benchmark, computed apart from the package.

Nothing here imports ``varcaputo``.  Every value is evaluated with mpmath
at 30 significant digits and rounded to a float only at the end.

Closed forms for x(t) = (t-a)^g (left) or (b-t)^g (right), with d the
distance to the operator's endpoint and alpha, alpha' taken at t:

    type III:  G(g+1)/G(g+1-alpha) * d^(g-alpha)
    type II :  type III -+ alpha' G(g+1)/G(g+2-alpha) d^(g+1-alpha)
                              * (ln d - psi(g+2-alpha))
    type I  :  type II  -+ alpha' G(g+1)/G(g+2-alpha) d^(g+1-alpha)
                              * psi(1-alpha)

with "-" on the left and "+" on the right.  They follow from
d/dt [B(g+1, 1-alpha(t)) d^(g+1-alpha(t))], where type I keeps
1/Gamma(1-alpha(t)) outside the derivative and type II takes it inside.
"""

from __future__ import annotations

import mpmath as mp

DIGITS = 30

#: Affine orders alpha(t) = c1*t + c0 named as in the package's CLI.
ORDERS = {
    "paper-alpha": (0.5, 0.49),
    "paper-beta": (0.1, 0.5),
    "fig1-alpha": (0.5, 0.1),
}

KINDS = (1, 2, 3)
SIDES = ("left", "right")


def caputo_power(kind: int, side: str, g: float, c1: float, c0: float, t: float,
                 a: float = 0.0, b: float = 1.0) -> float:
    """Exact type ``kind`` derivative of the power function on ``side``."""
    with mp.workdps(DIGITS):
        g, t = mp.mpf(g), mp.mpf(t)
        d = t - a if side == "left" else b - t
        if d == 0:
            return 0.0
        alpha = c1 * t + c0
        value = mp.gamma(g + 1) / mp.gamma(g + 1 - alpha) * d ** (g - alpha)
        if kind != 3 and c1 != 0:
            bracket = mp.log(d) - mp.digamma(g + 2 - alpha)
            if kind == 1:
                bracket += mp.digamma(1 - alpha)
            corr = c1 * mp.gamma(g + 1) / mp.gamma(g + 2 - alpha) * d ** (g + 1 - alpha) * bracket
            value = value - corr if side == "left" else value + corr
        return float(value)


def caputo_power_by_definition(kind: int, side: str, g: float, c1: float, c0: float,
                               t: float) -> float:
    """The same derivative from the defining integrals on [0, 1].

    The memory integral is taken by tanh-sinh quadrature, which copes with
    the weak endpoint singularity, and the t-derivative of types I/II by
    mpmath's numerical differentiation.  Slow: for self-checks only.
    """
    alpha = lambda s: c1 * s + c0
    left = side == "left"
    x = (lambda s: s ** g) if left else (lambda s: (1 - s) ** g)
    dx = (lambda s: g * s ** (g - 1)) if left else (lambda s: -g * (1 - s) ** (g - 1))
    sign = 1 if left else -1

    def memory(s, f, order):
        # integral of |s - tau|^(-order) f(tau) over the operator's range;
        # x vanishes at the endpoint, so x - x(endpoint) = x.
        if left:
            return mp.quad(lambda tau: (s - tau) ** (-order) * f(tau), [0, s])
        return mp.quad(lambda tau: (tau - s) ** (-order) * f(tau), [s, 1])

    with mp.workdps(DIGITS):
        t = mp.mpf(t)
        if kind == 3:
            value = sign * memory(t, dx, alpha(t)) / mp.gamma(1 - alpha(t))
        elif kind == 1:
            value = sign * mp.diff(lambda s: memory(s, x, alpha(s)), t) / mp.gamma(1 - alpha(t))
        else:
            value = sign * mp.diff(lambda s: memory(s, x, alpha(s)) / mp.gamma(1 - alpha(s)), t)
        return float(value)


def diffusion_field(xs, ts) -> list[list[float]]:
    """t^2 sin(2 pi x) on the grid, indexed [ix][it]."""
    with mp.workdps(DIGITS):
        sines = [mp.sin(2 * mp.pi * mp.mpf(x)) for x in xs]
        squares = [mp.mpf(t) ** 2 for t in ts]
        return [[float(t2 * s) for t2 in squares] for s in sines]


def burgers_field(xs, ts) -> list[list[float]]:
    """x^2 + t^2 on the grid, indexed [ix][it]."""
    with mp.workdps(DIGITS):
        return [[float(mp.mpf(x) ** 2 + mp.mpf(t) ** 2) for t in ts] for x in xs]


def self_check() -> None:
    """At constant order all three kinds equal the classical formula."""
    for g in (1.0, 2.0, 3.5):
        for side in SIDES:
            for t in (0.1, 0.5, 0.9):
                d = t if side == "left" else 1.0 - t
                with mp.workdps(DIGITS):
                    want = float(mp.gamma(g + 1) / mp.gamma(g + 1 - mp.mpf(0.3))
                                 * mp.mpf(d) ** (g - mp.mpf(0.3)))
                for kind in KINDS:
                    got = caputo_power(kind, side, g, 0.0, 0.3, t)
                    if abs(got - want) > 1e-15 * abs(want):
                        raise AssertionError(
                            f"constant-order self-check failed: kind={kind} side={side} "
                            f"g={g} t={t}: {got!r} != {want!r}")
