import math
import re
import time
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from varcaputo.order import affine_order
from varcaputo.special import DomainError
from varcaputo.pde import (
    DegenerateCoefficientError,
    DiffusionProblem,
    Field2D,
    Grid1D,
    SolverError,
    _ALPHA,
    _GAMMA,
    _PREDICT,
    _SUFFIX,
    _change_d,
    _derivative_matrix,
    burgers_exact,
    diffusion_exact,
    field_error,
    manufactured_diffusion,
    solve_burgers,
    solve_diffusion,
)

ORDER = affine_order(0.1, 0.5, (0.0, 1.0))  # alpha(t) = (t + 5)/10


class TestGrid:
    def test_nodes(self):
        g = Grid1D(mx=10, mt=20, t0=1e-4)
        assert g.hx == pytest.approx(0.1)
        assert len(g.x_nodes) == 11
        assert len(g.t_nodes) == 21
        assert g.t_nodes[0] == 1e-4
        assert g.t_nodes[-1] == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            Grid1D(mx=2, mt=20)
        with pytest.raises(DegenerateCoefficientError):
            Grid1D(mx=10, mt=20, t0=0.0)
        with pytest.raises(DegenerateCoefficientError):
            Grid1D(mx=10, mt=20, t0=1.5)

    @pytest.mark.parametrize("mx, mt", [(4.5, 10), (8, 10.5), (8.0, 10), ("8", 10)])
    def test_non_integer_sizes_rejected(self, mx, mt):
        with pytest.raises(ValueError, match="mx and mt must be integers"):
            Grid1D(mx=mx, mt=mt)

    def test_numpy_integer_sizes_accepted(self):
        g = Grid1D(mx=np.int64(8), mt=np.int32(10))
        assert len(g.x_nodes) == 9 and len(g.t_nodes) == 11


def _derivative_matrix_by_rows(mx: int, hx: float, deriv: int) -> np.ndarray:
    """One Vandermonde solve per row, over that row's own window."""
    D = np.zeros((mx - 1, mx + 1))
    width = min(6, mx + 1)
    for row, i in enumerate(range(1, mx)):
        if 2 <= i <= mx - 2:
            nodes = np.arange(i - 2, i + 3)
        else:
            nodes = np.arange(width) if i == 1 else np.arange(mx + 1 - width, mx + 1)
        vander = np.vander((nodes - i) * hx, nodes.size, increasing=True).T
        taylor = np.zeros(nodes.size)
        taylor[deriv] = math.factorial(deriv)
        D[row, nodes] = np.linalg.solve(vander, taylor)
    return D


class TestDerivativeMatrix:
    @pytest.mark.parametrize("deriv", [1, 2])
    def test_matches_per_row_reference(self, deriv):
        for mx in [*range(4, 13), 20, 40, 80, 160]:
            got = _derivative_matrix(mx, 1.0 / mx, deriv)
            assert np.array_equal(got, _derivative_matrix_by_rows(mx, 1.0 / mx, deriv)), mx


@pytest.fixture(scope="module")
def diffusion_field():
    problem = manufactured_diffusion(ORDER, N=4)
    grid = Grid1D(mx=12, mt=40, t0=1e-4)
    return solve_diffusion(problem, grid)


class TestDiffusion:
    def test_dirichlet_rows_exact_zero(self, diffusion_field):
        assert np.all(diffusion_field.u[0, :] == 0.0)
        assert np.all(diffusion_field.u[-1, :] == 0.0)

    def test_matches_manufactured_solution(self, diffusion_field):
        err = field_error(diffusion_field, diffusion_exact)
        assert err <= 5e-3

    def test_moment_fields_start_at_zero(self, diffusion_field):
        assert np.all(diffusion_field.v[:, :, 0] == 0.0)

    @pytest.mark.filterwarnings("ignore::UserWarning")
    @pytest.mark.filterwarnings(
        "ignore::scipy.integrate.IntegrationWarning"
    )
    def test_moment_consistency_with_dense_output(self, diffusion_field):
        # V_p(x_i, t) must equal int_{t0}^t tau^(p-1) u_t(x_i, tau) dtau;
        # recover u_t from the stored rhs applied to the dense solution.
        f = diffusion_field
        m = len(f.x_nodes) - 2
        i = m // 2  # interior column index into the state vector
        t_end = f.t_nodes[-1]
        for p in (1, 3):
            def integrand(tau):
                u_t = f.rhs(tau, f.dense(tau))[:m]
                return tau ** (p - 1) * u_t[i]

            ref, _ = quad(integrand, f.t_nodes[0], t_end, epsabs=1e-10, limit=400)
            got = f.v[p - 1, i + 1, -1]
            assert got == pytest.approx(ref, abs=10.0 * 1e-7, rel=1e-5)

    def test_t_terms_computed_once_per_t(self):
        # Each start-up RHS call and each step attempt's structured solve is
        # at a new t, so the source is called once per t, and meta["njev"]
        # counts those assemblies.
        problem = manufactured_diffusion(ORDER, N=4)
        ts = []

        def f(x, t):
            ts.append(t)
            return problem.f(x, t)

        recorded = DiffusionProblem(problem.order, problem.N, f, problem.g)
        field = solve_diffusion(recorded, Grid1D(mx=12, mt=40, t0=1e-4))
        assert len(ts) > 10
        assert all(s != t for s, t in zip(ts, ts[1:]))
        assert field.meta["njev"] == len(ts)
        assert field_error(field, diffusion_exact) <= 5e-3

    def test_error_decreases_with_N(self):
        grid = Grid1D(mx=12, mt=40, t0=1e-4)
        errs = []
        for N in (2, 6):
            problem = manufactured_diffusion(ORDER, N=N)
            errs.append(field_error(solve_diffusion(problem, grid), diffusion_exact))
        assert errs[1] <= 1.05 * errs[0]


@pytest.fixture(scope="module")
def fieldv():
    return solve_burgers(ORDER, Grid1D(mx=12, mt=40, t0=1e-4), N=4)


class TestBurgers:
    def test_initial_row_exact(self, fieldv):
        t0 = fieldv.t_nodes[0]
        expected = fieldv.x_nodes**2 + t0**2
        assert np.max(np.abs(fieldv.u[:, 0] - expected)) <= 1e-12

    def test_lateral_boundaries_recorded(self, fieldv):
        assert "lateral_bc" in fieldv.meta
        assert np.allclose(fieldv.u[0, :], fieldv.t_nodes**2)
        assert np.allclose(fieldv.u[-1, :], 1.0 + fieldv.t_nodes**2)

    def test_matches_exact_solution(self, fieldv):
        assert field_error(fieldv, burgers_exact) <= 2e-2

    def test_error_decreases_with_N(self):
        grid = Grid1D(mx=12, mt=40, t0=1e-4)
        errs = [
            field_error(solve_burgers(ORDER, grid, N=N), burgers_exact)
            for N in (2, 6)
        ]
        assert errs[1] <= 1.05 * errs[0]

    def test_numpy_integer_N_accepted(self):
        grid = Grid1D(mx=12, mt=40, t0=1e-4)
        got = solve_burgers(ORDER, grid, np.int64(4))
        assert np.array_equal(got.u, solve_burgers(ORDER, grid, 4).u)


def _record_solves(monkeypatch) -> dict:
    """Run the real stepper, but keep the structured solve that the core
    hands it and count the calls the stepper makes of it and of f."""
    import varcaputo.pde as pde

    real, seen = pde._LinearBDF, {"calls": 0, "fun_calls": 0}

    def spy(fun, *args, solve, **kwargs):
        def counted(*call):
            seen["calls"] += 1
            return solve(*call)

        def counted_fun(*call):
            seen["fun_calls"] += 1
            return fun(*call)

        seen["solve"] = solve
        return real(counted_fun, *args, solve=counted, **kwargs)

    monkeypatch.setattr(pde, "_LinearBDF", spy)
    return seen


def _never_step(monkeypatch) -> None:
    import varcaputo.pde as pde

    def stepper(*args, **kwargs):
        raise AssertionError("the time stepper ran")

    monkeypatch.setattr(pde, "_LinearBDF", stepper)


class TestStructuredSolve:
    @pytest.mark.parametrize("equation", ["diffusion", "burgers"])
    @pytest.mark.parametrize("N", [1, 6, 12, 48])
    def test_solve_against_jacobian_oracle(self, equation, N, monkeypatch):
        # The solve eliminates the W_p rows and factorises one banded m x m
        # matrix, and returns the y with y - c rhs(t, y) = r.  Its oracle is
        # the right-hand side itself: the system is affine, rhs(t, y) = J y +
        # F with F = rhs(t, 0) and J e_j = (rhs(t, s e_j) - F) / s.  A large
        # s keeps the constant F (Burgers' boundary values) from cancelling
        # digits, and a power of two makes the division exact.
        seen = _record_solves(monkeypatch)
        grid = Grid1D(mx=12, mt=4, t0=1e-4)
        if equation == "diffusion":
            f = solve_diffusion(manufactured_diffusion(ORDER, N=N), grid)
        else:
            f = solve_burgers(ORDER, grid, N=N)
        n = (N + 1) * (grid.mx - 1)
        rng = np.random.default_rng(N)
        eps = np.finfo(float).eps
        s = 2.0**30
        for t in (grid.t0, 0.3, 1.0):
            base = f.rhs(t, np.zeros(n))
            J = np.column_stack([(f.rhs(t, s * e) - base) / s for e in np.eye(n)])
            for ratio in np.logspace(-3, 3, 7):  # c/t
                c = ratio * t
                r = rng.standard_normal(n)
                y = seen["solve"](t, c, r)
                scale = np.abs(r) + np.abs(y) + c * (np.abs(J) @ np.abs(y))
                assert np.all(np.abs(y - c * (J @ y) - c * base - r) <= 16 * eps * scale)

    @pytest.mark.parametrize("equation", ["diffusion", "burgers"])
    def test_no_rhs_call_per_attempt(self, equation, monkeypatch):
        # Start-up takes two RHS calls (y0, and the initial-step probe); every
        # step attempt after that is one solve, with the forcing inside it.
        seen = _record_solves(monkeypatch)
        grid = Grid1D(mx=20, mt=20, t0=1e-4)
        if equation == "diffusion":
            f = solve_diffusion(manufactured_diffusion(ORDER, N=3), grid)
        else:
            f = solve_burgers(ORDER, grid, N=3)
        meta = f.meta
        assert meta["nlu"] == seen["calls"] >= meta["steps"]
        assert meta["nfev"] == seen["fun_calls"] == 2

    def test_small_t0_costs_no_more_steps(self):
        # Near t = 0 the Jacobian's entries scale like 1/t and 1/a(t); with
        # an exact solve per step, accuracy alone sets the step count there.
        fields = {t0: solve_burgers(ORDER, Grid1D(mx=40, mt=20, t0=t0), N=3)
                  for t0 in (1e-4, 1e-6)}
        assert fields[1e-6].meta["steps"] <= 2 * fields[1e-4].meta["steps"]
        errs = [field_error(f, burgers_exact) for f in fields.values()]
        assert errs[1] == pytest.approx(errs[0], rel=1e-4)


class TestStepper:
    def test_meta_records_stepper_counts(self, diffusion_field, fieldv):
        # bench/layers.py reads dense.ts and calls dense at a float and at an
        # array of t; the time-node columns come from the same interpolants.
        for f in (diffusion_field, fieldv):
            assert f.meta["stepper"] == "BDF"
            assert f.meta["steps"] == len(f.dense.ts) - 1
            for key in ("steps", "nfev", "njev", "nlu"):
                assert f.meta[key] > 0
            m = len(f.x_nodes) - 2
            n = (f.meta["N"] + 1) * m
            assert f.dense(0.5).shape == (n,)
            assert f.dense(np.array([0.3, 0.7])).shape == (n, 2)
            assert np.array_equal(f.dense(f.t_nodes)[:m], f.u[1:-1])

    def test_steps_do_not_grow_with_mx(self):
        # An explicit stepper needs ~mx^2 more steps; an implicit one is set
        # by accuracy, so a quiet fallback would show up here.
        problem = manufactured_diffusion(ORDER, N=3)
        steps = {
            mx: solve_diffusion(problem, Grid1D(mx=mx, mt=20)).meta["steps"]
            for mx in (20, 80)
        }
        assert steps[80] <= 1.5 * steps[20]

    @pytest.mark.parametrize("equation", ["diffusion", "burgers"])
    def test_zero_N_rejected_before_stepping(self, equation, monkeypatch):
        _never_step(monkeypatch)
        grid = Grid1D(mx=8, mt=4)
        with pytest.raises(ValueError, match="N >= n >= 1"):
            if equation == "diffusion":
                solve_diffusion(manufactured_diffusion(ORDER, N=0), grid)
            else:
                solve_burgers(ORDER, grid, N=0)

    @pytest.mark.parametrize("equation", ["diffusion", "burgers"])
    @pytest.mark.parametrize("c1, c0, domain", [
        (0.5, 0.49, (0.0, 0.5)),  # alpha admissible, but only up to t = 0.5
        (0.1, 0.5, (0.2, 1.0)),   # starts after t0 = 1e-4
        (1.0, 0.3, (0.0, 0.5)),   # alpha(1) = 1.3 once past the domain
    ])
    def test_order_domain_must_cover_time_range(self, equation, c1, c0, domain, monkeypatch):
        _never_step(monkeypatch)
        order, grid = affine_order(c1, c0, domain), Grid1D(mx=10, mt=10)
        with pytest.raises(DomainError, match="does not cover"):
            if equation == "diffusion":
                solve_diffusion(manufactured_diffusion(order, N=3), grid)
            else:
                solve_burgers(order, grid, N=3)


    @pytest.mark.parametrize("k", range(1, 6))
    def test_difference_algebra(self, k):
        # The rescaling caches U = R(k, 1), which leaves SciPy's product as
        # it is; the predictor and the difference update are one product
        # each, against the sums and the loop they replace.
        from scipy.integrate._ivp.bdf import change_D

        rng = np.random.default_rng(k)
        eps = np.finfo(float).eps
        for factor in (0.2, 0.5, 1.7, 10.0):
            D = rng.standard_normal((8, 7))
            want = D.copy()
            change_D(want, k, factor)
            _change_d(D, k, factor)
            assert np.array_equal(D, want)
        D = rng.standard_normal((8, 7))
        y_predict, r = _PREDICT[k] @ D[: k + 1]
        want = D[: k + 1].sum(0)
        size = np.abs(D[: k + 1]).sum(0)
        assert np.all(np.abs(y_predict - want) <= 8 * eps * size)
        want -= _GAMMA[1 : k + 1] @ D[1 : k + 1] / _ALPHA[k]
        size += _GAMMA[1 : k + 1] @ np.abs(D[1 : k + 1]) / _ALPHA[k]
        assert np.all(np.abs(r - want) <= 8 * eps * size)
        want = D[: k + 2].copy()
        for i in reversed(range(k + 1)):
            want[i] += want[i + 1]
        got = _SUFFIX[k] @ D[: k + 2]
        assert np.all(np.abs(got - want[: k + 1]) <= 8 * eps * (_SUFFIX[k] @ np.abs(D[: k + 2])))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_initial_profile_rejected_before_stepping(self, bad):
        # The profile is outside input: a nan in it must not reach the
        # stepper, whose first RHS call would call the source.
        ts = []

        def f(x, t):
            ts.append(t)
            return np.zeros_like(x)

        def g(x):
            u0 = np.zeros_like(x)
            u0[3] = bad
            return u0

        with pytest.raises(ValueError, match="finite"):
            solve_diffusion(DiffusionProblem(ORDER, 3, f, g), Grid1D(mx=12, mt=20))
        assert ts == []

    def test_constant_initial_profile_broadcast(self):
        zero = lambda x, t=None: np.zeros_like(x)
        f = solve_diffusion(DiffusionProblem(ORDER, 3, zero, lambda x: 0.0), Grid1D(mx=12, mt=20))
        assert np.array_equal(f.u, np.zeros_like(f.u))
        assert np.array_equal(f.v, np.zeros_like(f.v))

    def test_initial_profile_of_wrong_length_rejected_before_stepping(self, monkeypatch):
        # g is called at the mx - 1 interior nodes; values on all mx + 1
        # nodes do not broadcast to them.
        _never_step(monkeypatch)
        problem = DiffusionProblem(ORDER, 3, lambda x, t: np.zeros_like(x),
                                   lambda x: np.zeros(len(x) + 2))
        with pytest.raises(ValueError, match="broadcast"):
            solve_diffusion(problem, Grid1D(mx=10, mt=20))

    @pytest.mark.parametrize("N", [1, 3, 12])
    def test_zero_data_gives_zero_field(self, N):
        # Every error norm is 0: each step is accepted and the order choice
        # sees three zero-or-infinite norms, where 0.0 ** -x must read as an
        # infinite step factor (Python's float power raises instead).
        def zero(x, t=None):
            return np.zeros_like(x)

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            f = solve_diffusion(DiffusionProblem(ORDER, N, zero, zero), Grid1D(mx=12, mt=20))
        assert np.array_equal(f.u, np.zeros_like(f.u))
        assert np.array_equal(f.v, np.zeros_like(f.v))
        assert f.meta["steps"] == 13

    @pytest.mark.parametrize("equation, mx, N, steps, nlu", [
        # The bench's pde-mol solves and acceptance criteria 7 and 8.
        ("diffusion", 20, 3, 194, 195),
        ("diffusion", 20, 12, 188, 188),
        ("diffusion", 40, 3, 193, 194),
        ("burgers", 20, 3, 207, 208),
        ("burgers", 20, 6, 204, 205),
        ("burgers", 20, 12, 200, 201),
    ])
    def test_step_counts_pinned(self, equation, mx, N, steps, nlu):
        # A faster step must take the same steps: same formulas, same
        # error control, same order and step-size choice.
        grid = Grid1D(mx=mx, mt=200, t0=1e-4)
        if equation == "diffusion":
            f = solve_diffusion(manufactured_diffusion(ORDER, N=N), grid)
        else:
            f = solve_burgers(ORDER, grid, N=N)
        assert (f.meta["steps"], f.meta["nlu"]) == (steps, nlu)

    def test_failed_step_names_its_t(self):
        # A source that turns nan at t = 0.5 stops the steps just short of
        # it; the error says where, and the nan raises no warning on the way.
        problem = manufactured_diffusion(ORDER, N=3)

        def f(x, t):
            return np.full_like(x, np.nan) if t >= 0.5 else problem.f(x, t)

        start = time.perf_counter()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SolverError, match="step size") as info:
                solve_diffusion(DiffusionProblem(ORDER, 3, f, problem.g), Grid1D(mx=12, mt=20))
        assert time.perf_counter() - start < 5.0
        found = re.search(r"at t = (\S+):", str(info.value))
        assert found, str(info.value)
        assert 0.5 - 1e-6 < float(found.group(1)) < 0.5


class TestFieldError:
    @staticmethod
    def _field(value: float, col: int) -> Field2D:
        """A zero field on 5 x 5 nodes with ``value`` at one node of column ``col``."""
        u = np.zeros((5, 5))
        u[2, col] = value
        return Field2D(np.linspace(0.0, 1.0, 5), np.linspace(0.2, 1.0, 5), u, np.zeros((1, 5, 5)))

    @pytest.mark.parametrize("value", [np.nan, -np.inf])
    @pytest.mark.parametrize("col", [0, 2, -1])
    def test_non_finite_in_field(self, value, col):
        # Python's max(err, nan) keeps err, so a running max() would drop a nan.
        got = field_error(self._field(value, col), lambda x, t: np.zeros_like(x))
        np.testing.assert_equal(got, abs(value))

    def test_nan_from_exact(self):
        f = self._field(0.0, 0)

        def exact(x, t):
            return np.full_like(x, np.nan) if t == f.t_nodes[2] else np.zeros_like(x)

        assert np.isnan(field_error(f, exact))
