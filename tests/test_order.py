import math
import random
import re

import numpy as np
import pytest

from varcaputo.order import (
    ADMISSIBILITY_MARGIN,
    AdmissibilityError,
    affine_order,
    constant_order,
    order_from_callables,
    _difference,
)


class TestAffineOrder:
    def test_valid_examples(self):
        # Endpoint values and slope of alpha(t) = (5t + 1)/10 on [0, 1].
        order = affine_order(0.5, 0.1, (0.0, 1.0))
        assert order.alpha(0.0) == pytest.approx(0.1, abs=1e-15)
        assert order.alpha(1.0) == pytest.approx(0.6, abs=1e-15)
        assert order.alpha_prime(0.3) == pytest.approx(0.5, abs=1e-15)

    def test_paper_presets_admissible(self):
        affine_order(0.5, 0.49, (0.0, 1.0))   # (50t + 49)/100
        affine_order(0.1, 0.5, (0.0, 1.0))    # (t + 5)/10

    def test_rejects_out_of_range(self):
        with pytest.raises(AdmissibilityError):
            affine_order(1.0, 0.5, (0.0, 1.0))  # hits 1.5 at t=1
        with pytest.raises(AdmissibilityError):
            affine_order(-0.5, 0.2, (0.0, 1.0))  # negative at t=1
        with pytest.raises(AdmissibilityError):
            affine_order(0.0, 1.0, (0.0, 1.0))  # constant 1 not in (0,1)
        with pytest.raises(AdmissibilityError):
            affine_order(0.0, 0.0, (0.0, 1.0))  # constant 0

    def test_rejects_degenerate_domain(self):
        with pytest.raises(AdmissibilityError, match=r"domain \[1.0, 1.0\] is empty"):
            affine_order(0.0, 0.5, (1.0, 1.0))
        # A length that is not finite is refused before a grid is built on it.
        for domain in [(0.0, math.inf), (-math.inf, 0.0), (-1e308, 1e308)]:
            with pytest.raises(AdmissibilityError, match="unbounded: b - a = inf"):
                affine_order(0.0, 0.5, domain)

    def test_admitted_exactly_when_both_ends_inside(self):
        # affine_order admits through the shared grid and alpha' tests; an
        # affine alpha must still be accepted exactly when c1*t + c0 lies in
        # (eps, 1-eps) at both ends, also where the alpha' test's difference
        # rounds badly: domains ~1e-11 long, or offset to 1e4 and beyond.
        eps = ADMISSIBILITY_MARGIN
        rng = random.Random(7)
        near = [eps, 1.0 - eps]
        accepted = 0
        for _ in range(1000):
            tiny = rng.random() < 0.4
            a = rng.choice([0.0, 1.0, -1.0]) * rng.choice(
                [rng.random(), 10 ** rng.uniform(4, 4.3 if tiny else 6)])
            b = a + 10 ** (rng.uniform(-11.5, -10.5) if tiny else rng.uniform(-3, 3))
            ends = [rng.choice(near) * (1.0 + rng.choice([-1e-15, 0.0, 1e-15]))
                    if rng.random() < 0.4 else rng.uniform(-0.05, 1.05) for _ in range(2)]
            c1 = (ends[1] - ends[0]) / (b - a)
            c0 = ends[0] - c1 * a
            inside = all(eps < c1 * t + c0 < 1.0 - eps for t in (a, b))
            try:
                affine_order(c1, c0, (a, b))
                admitted = True
            except AdmissibilityError:
                admitted = False
            assert admitted == inside, (c1, c0, a, b)
            accepted += admitted
        assert 200 < accepted < 800  # both verdicts are exercised


class TestConstantOrder:
    def test_basic(self):
        order = constant_order(0.5, (0.0, 2.0))
        assert order.alpha(1.3) == 0.5
        assert order.alpha_prime(1.3) == 0.0

    def test_rejects_invalid(self):
        with pytest.raises(AdmissibilityError):
            constant_order(1.0, (0.0, 1.0))


class TestCallableOrders:
    def test_consistent_pair_accepted(self):
        order_from_callables(
            lambda t: 0.3 + 0.2 * np.sin(t),
            lambda t: 0.2 * np.cos(t),
            (0.0, 1.0),
        )

    def test_inconsistent_derivative_rejected(self):
        with pytest.raises(AdmissibilityError):
            order_from_callables(
                lambda t: 0.3 + 0.2 * np.sin(t),
                lambda t: 0.5 * np.cos(t),
                (0.0, 1.0),
            )

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_difference_float_and_array_agree_bitwise(self, k):
        # A float is clamped by min/max, an array by np.minimum/np.maximum:
        # the same bits at both ends, next to them, inside and at nan.
        dfn = _difference(lambda t: t * t * t - 2.0 * t + 0.5, k, -1.0, 2.0)
        ts = [-1.0, -1.0 + 1e-12, -0.3, 0.0, 0.5, 2.0 - 1e-12, 2.0, math.nan]
        floats = np.array([dfn(t) for t in ts])
        assert floats.view(np.uint64).tolist() == dfn(np.array(ts)).view(np.uint64).tolist()

    @pytest.mark.parametrize("inner, slope, end", [
        (lambda t: t, 1.0, 0.0),
        (lambda t: 1.0 - t, -1.0, 1.0),
    ], ids=["sqrt(t)", "sqrt(1-t)"])
    def test_finite_difference_fallback_stays_in_domain(self, inner, slope, end):
        # alpha = 0.3 + 0.4 sqrt(t) or 0.3 + 0.4 sqrt(1 - t) has an infinite
        # alpha' at one end, and math.sqrt rejects a t outside [0, 1]: the
        # alpha' test must not reach past the domain for alpha's difference,
        # and it must reject the analytic alpha' at that end by name, before
        # its rounding allowance (inf or nan there) is used.
        def alpha(t):
            if not 0.0 <= t <= 1.0:
                pytest.fail(f"alpha called at t = {t!r}, outside [0, 1]")
            return 0.3 + 0.4 * math.sqrt(inner(t))

        def alpha_prime(t):
            return 0.2 * slope / math.sqrt(inner(t)) if inner(t) > 0.0 else slope * math.inf

        with pytest.raises(AdmissibilityError, match=re.escape(
                f"alpha'({end}) = {slope * math.inf} is not finite")) as exc:
            order_from_callables(alpha, alpha_prime)
        assert "nan" not in str(exc.value)

    def test_reversed_domain_rejected(self):
        with pytest.raises(AdmissibilityError):
            order_from_callables(lambda t: 0.5, lambda t: 0.0, (1.0, 0.0))

    def test_exact_alpha_prime_accepted_far_from_zero(self):
        # alpha' is exact, but alpha's difference at t ~ 1e4 carries a
        # rounding of about eps |t alpha'| / h, far above 1e-5.
        order_from_callables(lambda t: 0.9 * t + 0.05 - 9000, lambda t: 0.9, (1e4, 1e4 + 1))

    def test_rejection_names_test_and_t(self):
        with pytest.raises(AdmissibilityError,
                           match=re.escape("alpha(0.8) = 1.0 outside (1e-09, 0.999999999)")):
            affine_order(0.5, 0.6)  # first leaves (0, 1) at t = 0.8, not at the end
        with pytest.raises(AdmissibilityError, match=re.escape("alpha'(0.0) = 0.5 is not within")):
            order_from_callables(lambda t: 0.3 + 0.2 * math.sin(t), lambda t: 0.5 * math.cos(t))
        with pytest.raises(AdmissibilityError, match=re.escape("alpha'(0.5) = 0.7 is not within")):
            order_from_callables(lambda t: 0.5, lambda t: 0.7 if t == 0.5 else 0.0)

    def test_builds_the_good_order_and_raises_for_each_bad_one(self):
        good = order_from_callables(lambda t: 0.5, lambda t: 0.0, (0.0, 1.0))
        assert (good.a, good.b, good.alpha(0.3), good.alpha_prime(0.3)) == (0.0, 1.0, 0.5, 0.0)
        for alpha, alpha_prime, domain in ((lambda t: 1.5, lambda t: 0.0, (0.0, 1.0)),
                                           (lambda t: 0.5, lambda t: 1.0, (0.0, 1.0)),
                                           (lambda t: 0.5, lambda t: 0.0, (1.0, 0.0))):
            with pytest.raises(AdmissibilityError):
                order_from_callables(alpha, alpha_prime, domain)

    def test_calls_alpha_then_alpha_prime_on_the_grid(self):
        # The range test calls alpha on the 101-point grid first; the alpha'
        # test then calls alpha' there, each point before alpha's difference.
        seen = []

        def alpha(t):
            seen.append(("alpha", t))
            return 0.3 + 0.1 * t

        def alpha_prime(t):
            seen.append(("alpha'", t))
            return 0.1

        order_from_callables(alpha, alpha_prime, (0.0, 1.0))
        grid = np.linspace(0.0, 1.0, 101).tolist()
        assert seen[:101] == [("alpha", t) for t in grid]
        assert seen[101::3] == [("alpha'", t) for t in grid]  # then alpha twice, the difference
        assert len(seen) == 101 + 3 * 101

    def test_range_violation_detected_on_grid(self):
        with pytest.raises(AdmissibilityError):
            order_from_callables(
                lambda t: 0.5 + 0.6 * np.sin(np.pi * t),  # exceeds 1 mid-domain
                lambda t: 0.6 * np.pi * np.cos(np.pi * t),
                (0.0, 1.0),
            )
