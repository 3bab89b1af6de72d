import math
import re
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest

from scipy.special import erfcx

from varcaputo.order import affine_order, constant_order
from varcaputo.reference import Kind, Side, power_closed_form
from varcaputo.special import DomainError, signed_binomial
from varcaputo.pde import (
    DEFAULT_T0,
    DegenerateCoefficientError,
    DiffusionProblem,
    Field2D,
    Grid1D,
    SolverError,
    _ALPHA,
    _GAMMA,
    _KERNEL_SHARE,
    _MAX_ORDER,
    _PREDICT,
    _SUFFIX,
    _TOL,
    _LinearBDF,
    _NdfDense,
    _change_d,
    _compute_r,
    _space_operator,
    burgers_exact,
    diffusion_exact,
    field_error,
    manufactured_burgers,
    manufactured_diffusion,
    solve_burgers,
    solve_diffusion,
)

ORDER = affine_order(0.1, 0.5, (0.0, 1.0))  # alpha(t) = (t + 5)/10
#: The keys of Field2D.meta: what the solve decided and counted.
SOLVE_KEYS = {"t0", "N", "mx", "mt", "stepper", "tol", "steps", "nlu"}


def _kernel_tol(order, N: int, t0: float) -> float:
    """The stepper's tolerance rule, max(_TOL, _KERNEL_SHARE E_N), with the
    kernel error E_N(alpha) = |C(1 - alpha, N + 1)| / Gamma(3 - alpha) in its
    closed form, least at one end of [t0, 1] for a monotone order."""
    e_n = min(abs(signed_binomial(1.0 - a, N + 1)) / math.gamma(3.0 - a)
              for a in (order.alpha(t0), order.alpha(1.0)))
    return max(_TOL, _KERNEL_SHARE * e_n)


class TestGrid:
    def test_nodes(self):
        g = Grid1D(mx=10, mt=20, t0=1e-4)
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


def _operator_by_rows(mx: int, w: float) -> np.ndarray:
    """D = mx^2 S2 + w mx S1, each row from its own unit-spacing Vandermonde
    solves (derivatives 1 and 2) over that row's window."""
    D = np.zeros((mx - 1, mx + 1))
    width = min(6, mx + 1)
    for row, i in enumerate(range(1, mx)):
        if 2 <= i <= mx - 2:
            nodes = np.arange(i - 2, i + 3)
        else:
            nodes = np.arange(width) if i == 1 else np.arange(mx + 1 - width, mx + 1)
        vander = np.vander(nodes - i, nodes.size, increasing=True).T
        s1, s2 = (np.linalg.solve(vander, math.factorial(d) * np.eye(nodes.size)[d]) for d in (1, 2))
        D[row, nodes] = mx * mx * s2 + w * mx * s1
    return D


class TestSpaceOperator:
    """``_space_operator(mx, w)`` builds (kl, ku, band, L, d_left, d_right) of
    D = D2 + w D1 per call, with L and the boundary columns views of D."""

    @pytest.mark.parametrize("w", [0.0, -1.0, 0.5])
    def test_matches_per_row_reference(self, w):
        for mx in [*range(4, 13), 20, 40, 80, 160]:
            kl, ku, band, L, d_left, d_right = _space_operator(mx, w)
            ref = _operator_by_rows(mx, w)
            assert L.base.shape == (mx - 1, mx + 1) and L.base is d_left.base is d_right.base
            assert np.array_equal(L, ref[:, 1:-1]), mx
            assert np.array_equal(d_left, ref[:, 0]) and np.array_equal(d_right, ref[:, -1]), mx
            want = np.zeros((2 * kl + ku + 1, mx - 1))
            for i, j in np.ndindex(L.shape):
                if -ku <= i - j <= kl:
                    want[kl + ku + i - j, j] = ref[i, j + 1]
            assert np.array_equal(band, want), mx

    @pytest.mark.parametrize("w", [0.0, -1.0, 0.5])
    def test_exact_on_quartics(self, w):
        # Every window holds at least 5 nodes, so D x^k is exact for k <= 4 up
        # to rounding, which grows like eps mx^2 (at most 6.2 eps mx^2 seen).
        for mx in [*range(4, 41), 80, 160, 320]:
            x = Grid1D(mx=mx, mt=4).x_nodes
            D = _space_operator(mx, w)[3].base
            for k in range(5):
                want = k * (k - 1) * x[1:-1] ** max(k - 2, 0) + w * k * x[1:-1] ** max(k - 1, 0)
                assert np.abs(D @ x**k - want).max() <= 16 * np.finfo(float).eps * mx**2, (mx, k)

    def test_bandwidths_match_nonzero_pattern(self):
        for mx in range(4, 200):
            for w in (0.0, -1.0):
                kl, ku, _, L, _, _ = _space_operator(mx, w)
                rows, cols = np.nonzero(L)
                assert kl == ku == min(min(6, mx + 1) - 2, mx - 2), mx
                assert (kl, ku) == (np.max(rows - cols), np.max(cols - rows)), mx

    @staticmethod
    def _bits(f: Field2D) -> tuple:
        ts = np.linspace(f.t_nodes[0], 1.0, 57)  # time nodes and the t between them
        return f.u.tobytes(), f.dense(ts).tobytes(), f.meta

    def test_solve_history_does_not_change_bits(self):
        grid = Grid1D(mx=12, mt=20)
        first = self._bits(_solve("diffusion", grid, 3))
        _solve("burgers", Grid1D(mx=16, mt=20), 3)
        assert self._bits(_solve("diffusion", grid, 3)) == first

    @pytest.mark.parametrize("w", [0.0, -1.0])
    def test_refuses_huge_mx_before_allocating(self, w):
        # mx = 10^7 asks for a 728 TiB D, the first allocation of
        # ``_space_operator``: NumPy refuses that shape, so nothing of O(mx)
        # (80 MB) is allocated before the MemoryError.
        with pytest.raises(MemoryError, match=r"shape \(9999999, 10000001\)"):
            _space_operator(10_000_000, w)


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
        f = diffusion_field
        m = len(f.x_nodes) - 2
        assert np.all(f.dense(f.t_nodes[0])[m:] == 0.0)

    def test_moment_consistency_with_dense_output(self, diffusion_field, fieldv):
        # V_p(x_i, t) must equal int_{t0}^t tau^(p-1) u_t(x_i, tau) dtau;
        # recover u_t from the stored rhs applied to the dense solution and
        # integrate it by 6-point Gauss-Legendre on each step.  The stepper's
        # error test covers u alone, so this is the check that the moments
        # it carries stay right.  The column is x = 0.25, where the diffusion
        # solution t^2 sin(2 pi x) is largest (at x = 0.5 it is 0, and so is
        # every V_p).
        nodes, weights = np.polynomial.legendre.leggauss(6)
        for f in (diffusion_field, fieldv):
            m, N = len(f.x_nodes) - 2, f.meta["N"]
            i = int(np.flatnonzero(np.isclose(f.x_nodes, 0.25))[0]) - 1  # interior index
            ts = np.asarray(f.dense.ts)
            half = (ts[1:, None] - ts[:-1, None]) / 2
            tau = (half * (nodes + 1) + ts[:-1, None]).ravel()
            u_t = np.array([f.rhs(s, f.dense(s))[i] for s in tau])
            p = np.arange(1, N + 1)[:, None]
            ref = (tau ** (p - 1) * u_t) @ (half * weights).ravel()
            # V_p = t^p W_p, with W_1..W_N in dense(t)[m:] reshaped to (N, m).
            t_end = ts[-1]
            got = t_end ** p[:, 0] * f.dense(t_end)[m:].reshape(N, m)[:, i]
            np.testing.assert_allclose(got, ref, rtol=1e-6)

    def test_t_terms_computed_once_per_t(self):
        # Each of the two start-up RHS calls and each step attempt's
        # structured solve is at a new t, so the source is called once per
        # t, and once per RHS call or factorisation.
        problem = manufactured_diffusion(ORDER, N=4)
        ts = []

        def f(x, t):
            ts.append(t)
            return problem.f(x, t)

        recorded = DiffusionProblem(problem.order, problem.N, f, problem.g)
        field = solve_diffusion(recorded, Grid1D(mx=12, mt=40, t0=1e-4))
        assert len(ts) > 10
        assert all(s != t for s, t in zip(ts, ts[1:]))
        assert len(ts) == field.meta["nlu"] + 2
        assert field_error(field, diffusion_exact) <= 5e-3

    def test_error_decreases_with_N(self):
        grid = Grid1D(mx=12, mt=40, t0=1e-4)
        errs = []
        for N in (2, 6):
            problem = manufactured_diffusion(ORDER, N=N)
            errs.append(field_error(solve_diffusion(problem, grid), diffusion_exact))
        assert errs[1] <= 1.05 * errs[0]

    @pytest.mark.parametrize("t0", [1e-4, 1e-6])
    def test_start_up_error_is_of_order_t0_to_the_alpha(self, t0):
        # Starting from u(t0) = g costs about t0^alpha |Dg + f(., 0)| /
        # Gamma(1 + alpha); it is O(t0^2) only where Dg + f(., 0) = 0.  Here
        # alpha = 1/2, g = sin(pi x), f = 0, so |Dg| = pi^2, and the exact
        # solution is E_{1/2}(-pi^2 sqrt(t)) sin(pi x) = erfcx(pi^2 sqrt(t)) sin(pi x).
        problem = DiffusionProblem(constant_order(0.5), 12, lambda x, t: 0.0,
                                   lambda x: np.sin(np.pi * x))
        field = solve_diffusion(problem, Grid1D(mx=20, mt=200, t0=t0))
        exact = lambda x, t: erfcx(np.pi**2 * math.sqrt(t)) * np.sin(np.pi * x)
        assert field_error(field, exact) <= 1.2 * math.sqrt(t0) * np.pi**2 / math.gamma(1.5)


@pytest.fixture(scope="module")
def fieldv():
    return _solve("burgers", Grid1D(mx=12, mt=40, t0=1e-4), 4)


class TestBurgers:
    def test_initial_row_exact(self, fieldv):
        t0 = fieldv.t_nodes[0]
        expected = fieldv.x_nodes**2 + t0**2
        assert np.max(np.abs(fieldv.u[:, 0] - expected)) <= 1e-12

    def test_lateral_boundaries_recorded(self, fieldv):
        assert np.allclose(fieldv.u[0, :], fieldv.t_nodes**2)
        assert np.allclose(fieldv.u[-1, :], 1.0 + fieldv.t_nodes**2)

    def test_matches_exact_solution(self, fieldv):
        assert field_error(fieldv, burgers_exact) <= 2e-2

    def test_error_decreases_with_N(self):
        grid = Grid1D(mx=12, mt=40, t0=1e-4)
        errs = [field_error(_solve("burgers", grid, N), burgers_exact) for N in (2, 6)]
        assert errs[1] <= 1.05 * errs[0]

    def test_numpy_integer_N_accepted(self):
        # solve_burgers is the one solve of the manufactured Burgers problem.
        grid = Grid1D(mx=12, mt=40, t0=1e-4)
        got = solve_burgers(ORDER, grid, np.int64(4))
        want = _solve("burgers", grid, 4)
        assert np.array_equal(got.u, want.u) and got.meta == want.meta


def _solve(equation: str, grid: Grid1D, N: int, order=ORDER) -> Field2D:
    """The one solve of the manufactured diffusion or Burgers problem."""
    if equation == "diffusion":
        problem = manufactured_diffusion(order, N=N)
    else:
        problem = manufactured_burgers(order, N, grid.t0)
    return solve_diffusion(problem, grid)


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


def _dt2(order):
    """D^alpha t^2 from t = 0, as the manufactured sources take it."""
    origin = replace(order, a=0.0)
    return lambda t: power_closed_form(Kind.TYPE_III, Side.LEFT, 2.0, origin, t)


class TestProblemData:
    """The one problem type with other data, each against its own
    manufactured solution: the errors are the expansion's, falling with N."""

    def test_diffusion_with_nonzero_dirichlet_values(self):
        # u = t^2 (sin 2 pi x + 1 + x), so u(0, t) = t^2 and u(1, t) = 2 t^2.
        dt2, sin = _dt2(ORDER), lambda x: np.sin(2.0 * np.pi * x)

        def f(x, t):
            return dt2(t) * (sin(x) + 1.0 + x) + 4.0 * np.pi**2 * t**2 * sin(x)

        def exact(x, t):
            return t**2 * (sin(x) + 1.0 + x)

        grid = Grid1D(mx=12, mt=40, t0=1e-4)
        ts, errs = grid.t_nodes, []
        for N in (2, 6):
            problem = DiffusionProblem(ORDER, N, f, lambda x: 0.0, lambda t: (t**2, 2.0 * t**2))
            got = solve_diffusion(problem, grid)
            assert np.array_equal(got.u[0], ts**2) and np.array_equal(got.u[-1], 2.0 * ts**2)
            errs.append(field_error(got, exact))
        assert errs[1] <= 1e-2 and errs[1] <= 0.5 * errs[0]

    def test_burgers_operator_with_other_initial_and_boundary_data(self):
        # u = cos(pi x) + t^2 x under D^alpha u = u_xx - u_x + f.
        dt2 = _dt2(ORDER)

        def f(x, t):
            return dt2(t) * x + np.pi**2 * np.cos(np.pi * x) - np.pi * np.sin(np.pi * x) + t**2

        def exact(x, t):
            return np.cos(np.pi * x) + t**2 * x

        grid = Grid1D(mx=12, mt=40, t0=1e-4)
        errs = []
        for N in (2, 6):
            problem = DiffusionProblem(ORDER, N, f, lambda x: exact(x, grid.t0),
                                       lambda t: (1.0, t**2 - 1.0), -1.0)
            got = solve_diffusion(problem, grid)
            assert np.max(np.abs(got.u[:, 0] - exact(got.x_nodes, grid.t0))) <= 1e-12
            errs.append(field_error(got, exact))
        assert errs[1] <= 3e-3 and errs[1] <= 0.5 * errs[0]

    @pytest.mark.parametrize("weight", [np.nan, np.inf, -np.inf])
    def test_non_finite_ux_weight_rejected_before_stepping(self, weight, monkeypatch):
        _never_step(monkeypatch)
        problem = replace(manufactured_burgers(ORDER, 3), ux_weight=weight)
        with pytest.raises(ValueError, match="u_x weight must be finite"):
            solve_diffusion(problem, Grid1D(mx=10, mt=10))

    @pytest.mark.parametrize("ends", [
        (0.0, np.nan), (np.inf, 0.0), (0.0,), (0.0, 0.0, 0.0), 0.0, None,
        (np.zeros(9), np.zeros(9)), ("0", "0"), (1j, 0.0),
        (0.0, np.zeros(3)), (0.0, np.zeros(1)),  # ragged: NumPy's asarray raises its own
    ])
    def test_boundary_at_t0_must_be_two_finite_numbers(self, ends, monkeypatch):
        _never_step(monkeypatch)
        problem = replace(manufactured_diffusion(ORDER, 3), boundary=lambda t: ends)
        with pytest.raises(ValueError, match="two finite numbers"):
            solve_diffusion(problem, Grid1D(mx=10, mt=10))

    def test_boundary_called_on_the_time_nodes_before_stepping(self, monkeypatch):
        # boundary is only ever called with a Python float: first at every
        # time node, in order, before any step, then at each t of the solve.
        # So a boundary that takes only floats solves, and its values are
        # the Dirichlet rows of u.
        import varcaputo.pde as pde

        calls, steps = [], []
        real_step = pde._LinearBDF.step

        def step(self):
            steps.append(len(calls))
            return real_step(self)

        monkeypatch.setattr(pde._LinearBDF, "step", step)

        def boundary(t):
            calls.append(t)
            return math.sin(t), 0.0

        grid = Grid1D(mx=10, mt=10)
        got = solve_diffusion(replace(manufactured_diffusion(ORDER, 3), boundary=boundary), grid)
        nodes = grid.t_nodes.tolist()
        assert all(type(t) is float for t in calls) and len(calls) > len(nodes)
        assert calls[: len(nodes)] == nodes and steps[0] >= len(nodes)
        assert np.array_equal(got.u[0], [math.sin(t) for t in nodes])
        assert not got.u[-1].any() and np.isfinite(got.u).all()

    @pytest.mark.parametrize("late", [
        lambda t: (0.0, np.nan),
        lambda t: (np.inf, 0.0),
        lambda t: (0.0,),
        lambda t: (0.0, np.zeros(3)),  # ragged
        lambda t: (0.0, 0.0, 0.0),
    ])
    def test_boundary_on_the_time_nodes_must_give_two_rows(self, late, monkeypatch):
        # Two finite numbers at t0 and up to t = 0.5, but not after: the
        # boundary is checked at every time node before any step, and the
        # error names the first node that fails, not a step that hits it.
        _never_step(monkeypatch)
        grid = Grid1D(mx=10, mt=10)
        first = next(t for t in grid.t_nodes.tolist() if t > 0.5)
        boundary = lambda t: (0.0, 1.0 + t) if t <= 0.5 else late(t)
        problem = replace(manufactured_diffusion(ORDER, 3), boundary=boundary)
        with pytest.raises(ValueError, match=r"two finite numbers, got .* at t = "
                                             + re.escape(f"{first}") + "$"):
            solve_diffusion(problem, grid)

    def test_boundary_between_time_nodes_must_be_finite(self):
        # Finite at every time node but nan on (0.52, 0.58), between the
        # nodes 0.50005 and 0.60004: the step attempt that reaches the gap
        # names its t, from the boundary call it makes anyway (one per
        # start-up call and step attempt, as the source's), not a step
        # size that collapses at t = 0.52.
        problem = manufactured_diffusion(ORDER, 3)
        calls, sources = [], []

        def boundary(t):
            calls.append(t)
            return (math.nan, 0.0) if 0.52 < t < 0.58 else (0.0, 0.0)

        def f(x, t):
            sources.append(t)
            return problem.f(x, t)

        grid = Grid1D(mx=10, mt=10)
        message = r"two finite numbers, got \(nan, 0\.0\) at t = "
        with pytest.raises(ValueError, match=message) as info:
            solve_diffusion(replace(problem, f=f, boundary=boundary), grid)
        t = float(str(info.value).rsplit(" ", 1)[1])
        assert 0.52 < t < 0.58 and calls[-1] == t
        assert len(calls) == len(grid.t_nodes) + len(sources) + 1

    def test_meta_holds_only_the_solve_keys(self):
        # A hand-built problem on the Burgers operator: meta records what
        # the solve decided and counted, and no label of what was solved.
        problem = DiffusionProblem(ORDER, 3, lambda x, t: t, lambda x: 0.0,
                                   lambda t: (0.0, 0.0), -1.0)
        got = solve_diffusion(problem, Grid1D(mx=10, mt=10))
        assert got.meta.keys() == SOLVE_KEYS

    def test_checks_run_in_order(self, monkeypatch):
        # Each bad field is reported once every field checked before it is
        # mended, and all of them before any step.
        import varcaputo.pde as pde

        def step(self):
            raise AssertionError("the time stepper stepped")

        monkeypatch.setattr(pde._LinearBDF, "step", step)
        wide = lambda x, t=None: np.zeros(len(x) + 2)
        problem = DiffusionProblem(affine_order(0.1, 0.5, (0.2, 1.0)), 0, wide, wide,
                                   lambda t: (0.0, np.nan), np.nan)
        for mend, error, match in [
            ({"g": lambda x: np.full_like(x, np.nan)}, ValueError, "broadcast"),
            ({"order": ORDER}, DomainError, "does not cover"),
            ({"N": 3}, ValueError, "N >= n >= 1"),
            ({"g": lambda x: 0.0}, ValueError, "initial profile must be finite"),
            ({"ux_weight": -1.0}, ValueError, "u_x weight must be finite"),
            ({"boundary": lambda t: (0.0, 0.0)}, ValueError, "two finite numbers"),
            ({"f": lambda x, t: 0.0}, ValueError, "the source gave shape"),
        ]:
            with pytest.raises(error, match=match):
                solve_diffusion(problem, Grid1D(mx=10, mt=10))
            problem = replace(problem, **mend)
        with pytest.raises(AssertionError, match="stepped"):
            solve_diffusion(problem, Grid1D(mx=10, mt=10))


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
        f = _solve(equation, grid, N)
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
        f = _solve(equation, grid, 3)
        meta = f.meta
        assert meta["nlu"] == seen["calls"] >= meta["steps"]
        assert seen["fun_calls"] == 2

    def test_small_t0_costs_no_more_steps(self):
        # Near t = 0 the Jacobian's entries scale like 1/t and 1/a(t); with
        # an exact solve per step, accuracy alone sets the step count there.
        fields = {t0: _solve("burgers", Grid1D(mx=40, mt=20, t0=t0), 3) for t0 in (1e-4, 1e-6)}
        assert fields[1e-6].meta["steps"] <= 2 * fields[1e-4].meta["steps"]
        errs = [field_error(f, burgers_exact) for f in fields.values()]
        assert errs[1] == pytest.approx(errs[0], rel=1e-4)


class TestStepper:
    def test_meta_records_stepper_counts(self, diffusion_field, fieldv):
        # bench/layers.py reads dense.ts and calls dense at a float and at an
        # array of t; the time-node columns come from the same interpolants.
        for f in (diffusion_field, fieldv):
            assert f.meta["stepper"] == "BDF"
            assert f.meta["tol"] == pytest.approx(_kernel_tol(ORDER, f.meta["N"], f.meta["t0"]),
                                                  rel=1e-13, abs=0.0)
            assert f.meta["steps"] == len(f.dense.ts) - 1
            assert f.meta.keys() == SOLVE_KEYS
            for key in ("steps", "nlu"):
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
            _solve(equation, grid, 0)

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
            _solve(equation, grid, 3, order)

    @pytest.mark.parametrize("equation", ["diffusion", "burgers"])
    def test_sources_start_at_zero_on_any_order_domain(self, equation):
        # The fractional derivative runs from t = 0, so the manufactured
        # sources do too: the same alpha on a wider domain gives the same field.
        grid = Grid1D(mx=10, mt=10)
        fields = []
        for domain in [(0.0, 1.0), (-0.5, 1.5)]:
            fields.append(_solve(equation, grid, 3, affine_order(0.1, 0.5, domain)))
        assert np.array_equal(fields[0].u, fields[1].u)

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
        assert not np.any(f.dense(f.t_nodes))

    def test_source_of_wrong_length_rejected_before_stepping(self, monkeypatch):
        # f is called at the mx - 1 interior nodes; values on all mx + 1
        # nodes are refused by name at the first start-up call.
        import varcaputo.pde as pde

        def step(self):
            raise AssertionError("the time stepper stepped")

        monkeypatch.setattr(pde._LinearBDF, "step", step)
        problem = DiffusionProblem(ORDER, 3, lambda x, t: np.zeros(len(x) + 2), lambda x: 0.0)
        with pytest.raises(ValueError, match=r"shape \(11,\), not \(\) or \(9,\) for the 9 interior"):
            solve_diffusion(problem, Grid1D(mx=10, mt=20))

    def test_constant_source_broadcast(self):
        grid = Grid1D(mx=12, mt=20)
        scalar = DiffusionProblem(ORDER, 3, lambda x, t: t, lambda x: 0.0)
        nodal = DiffusionProblem(ORDER, 3, lambda x, t: np.full_like(x, t), lambda x: 0.0)
        got, want = solve_diffusion(scalar, grid), solve_diffusion(nodal, grid)
        assert np.any(want.u) and np.array_equal(got.u, want.u)
        assert got.meta == want.meta

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
        assert not np.any(f.dense(f.t_nodes))
        assert f.meta["steps"] == 13

    @pytest.mark.parametrize("equation, mx, N, steps, nlu", [
        # The bench's pde-mol solves and acceptance criteria 7 and 8.
        ("diffusion", 20, 3, 31, 32),
        ("diffusion", 20, 12, 35, 35),
        ("diffusion", 40, 3, 31, 32),
        ("burgers", 20, 3, 36, 36),
        ("burgers", 20, 6, 36, 38),
        ("burgers", 20, 12, 40, 41),
    ])
    def test_step_counts_pinned(self, equation, mx, N, steps, nlu):
        # A faster step must take the same steps: same formulas, same
        # error control, same order and step-size choice.  The counts are
        # those of the weight tol (1 + |u|) on the u entries alone, tol =
        # max(_TOL, _KERNEL_SHARE E_N); at the fixed tol = _TOL these solves
        # took 36-50 steps, with the moments in the norm 99-119, and with
        # an absolute floor of 1e-10 188-207.
        grid = Grid1D(mx=mx, mt=200, t0=1e-4)
        f = _solve(equation, grid, N)
        assert (f.meta["steps"], f.meta["nlu"]) == (steps, nlu)

    @pytest.mark.parametrize("equation, mx, N, t0", [
        ("diffusion", 20, 3, 1e-4),
        ("diffusion", 20, 12, 1e-4),
        ("diffusion", 40, 3, 1e-4),
        ("burgers", 20, 3, 1e-4),
        ("burgers", 20, 6, 1e-4),
        ("burgers", 20, 12, 1e-4),
        ("diffusion", 40, 96, 1e-4),  # the smallest kernel error here, 1.1e-5
        ("burgers", 40, 3, 1e-6),
        ("burgers", 20, 96, 1e-6),  # 465 steps at order 1 with the moments in the norm
    ])
    def test_stepper_error_small_share_of_total(self, equation, mx, N, t0, monkeypatch):
        # The stepper's tolerance serves the kernel's truncation error: its
        # own error, against a far tighter solve whose error test covers
        # every state entry, the moments too, stays a small share of the
        # field's error against the exact solution.  The reference sets
        # tol = 1e-11 itself, whatever the solve's rule would pick.
        import varcaputo.pde as pde

        grid = Grid1D(mx=mx, mt=200, t0=t0)
        got = _solve(equation, grid, N)
        real = pde._LinearBDF

        def whole_state(fun, t0, y0, *, solve, m, tol):
            return real(fun, t0, y0, solve=solve, m=y0.size, tol=1e-11)

        monkeypatch.setattr(pde, "_LinearBDF", whole_state)
        ref = _solve(equation, grid, N)
        exact = diffusion_exact if equation == "diffusion" else burgers_exact
        assert np.max(np.abs(got.u - ref.u)) <= 1e-2 * field_error(ref, exact)

    @pytest.mark.parametrize("N", [1, 3, 12, 96])
    def test_tolerance_follows_the_kernel_error(self, N):
        # tol = max(_TOL, _KERNEL_SHARE E_N), a Python float: E_N from the
        # solve's own A_1 agrees with its closed form.  The kernel error
        # falls with N, so the floor holds at N = 96 alone.
        tol = _solve("diffusion", Grid1D(mx=10, mt=10), N).meta["tol"]
        assert type(tol) is float
        assert tol == pytest.approx(_kernel_tol(ORDER, N, DEFAULT_T0), rel=1e-13, abs=0.0)
        assert (tol == _TOL) == (N == 96)

    @pytest.mark.parametrize("equation, mx, t0", [("diffusion", 40, 1e-4), ("burgers", 20, 1e-6)])
    def test_floor_keeps_large_n_at_the_fixed_tolerance(self, equation, mx, t0, monkeypatch):
        # Where _KERNEL_SHARE E_N < _TOL (N = 96), the solve is bit for bit
        # one whose stepper runs at the fixed _TOL.
        import varcaputo.pde as pde

        grid = Grid1D(mx=mx, mt=200, t0=t0)
        got = _solve(equation, grid, 96)
        real = pde._LinearBDF

        def fixed(fun, t0, y0, *, solve, m, tol):
            return real(fun, t0, y0, solve=solve, m=m, tol=_TOL)

        monkeypatch.setattr(pde, "_LinearBDF", fixed)
        ref = _solve(equation, grid, 96)
        assert got.u.tobytes() == ref.u.tobytes()
        assert got.dense(grid.t_nodes).tobytes() == ref.dense(grid.t_nodes).tobytes()
        assert got.meta == ref.meta

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

    def test_step_below_ten_ulp_taken_at_that_floor(self):
        # y' = -y from t = 0.5: a step size below 10 ulp of t is raised to
        # that floor on entry, its differences rescaled as SciPy's change_D
        # does, and the step is taken there.
        from scipy.integrate._ivp.bdf import change_D

        seen = []

        def solve(t, c, r):
            seen.append((t, c, stepper.D[:2].copy()))
            return r / (1.0 + c)

        t0, y0 = 0.5, np.array([1.0])
        stepper = _LinearBDF(lambda t, y: -y, t0, y0, solve, 1, _TOL)
        min_step = 10.0 * (math.nextafter(t0, math.inf) - t0)
        stepper.h_abs = min_step / 3.0
        stepper.D[1] = -y0 * stepper.h_abs
        want = stepper.D.copy()
        change_D(want, 1, min_step / stepper.h_abs)
        stepper.step()
        assert len(seen) == 1 and stepper.nlu == 1
        t, c, D = seen[0]
        assert t == stepper.t == t0 + min_step and c == min_step / _ALPHA[1]
        assert D.tobytes() == want[:2].tobytes()

    def test_singular_step_matrix_names_its_t(self, monkeypatch):
        # A banded LU that reports a zero pivot (LAPACK info > 0) stops the
        # first step attempt with a SolverError at that attempt's t.
        import varcaputo.pde as pde

        real, first, calls = pde._LinearBDF, [], []

        def spy(*args, **kwargs):
            stepper = real(*args, **kwargs)
            first.append(stepper.t + stepper.h_abs)
            return stepper

        def gbsv(kl, ku, ab, b, **kwargs):
            calls.append(b)
            return ab, None, b, 1

        monkeypatch.setattr(pde, "_LinearBDF", spy)
        monkeypatch.setattr(pde, "get_lapack_funcs", lambda names, arrays: (gbsv,))
        with pytest.raises(SolverError, match=r"singular step matrix .*gbsv info 1") as info:
            _solve("diffusion", Grid1D(mx=12, mt=20), 3)
        found = re.search(r"at t = (\S+) ", str(info.value))
        assert len(calls) == 1 and float(found.group(1)) == first[0]


class TestInterpolant:
    """``u`` and ``dense`` share one evaluator, ``_interpolate``."""

    @pytest.mark.parametrize("equation, mx, N", [
        ("diffusion", 20, 3), ("diffusion", 20, 12), ("diffusion", 40, 3), ("burgers", 20, 6),
    ])
    def test_matches_matrix_form(self, equation, mx, N):
        # The interpolant as one matrix product, D_0 + D_1:^T cumprod(x),
        # on the bench's pde-mol solves: the elementwise sum in a fixed
        # order agrees with it to rounding, at points across each step.
        eps = np.finfo(float).eps
        f = _solve(equation, Grid1D(mx=mx, mt=200, t0=1e-4), N)
        ts = np.asarray(f.dense.ts)
        for q, t_lo, t_hi in zip(f.dense.interpolants, ts[:-1], ts[1:]):
            t = np.linspace(t_lo, t_hi, 5)
            k = np.arange(q.order)[:, None]
            P = np.cumprod((t - (q.t - q.h * k)) / (q.h * (1 + k)), axis=0)
            want = q.D[0][:, None] + q.D[1:].T @ P
            size = np.abs(q.D[0])[:, None] + np.abs(q.D[1:]).T @ np.abs(P)
            assert np.all(np.abs(q(t) - want) <= 4 * eps * size)

    def test_nodes_take_the_earlier_piece(self, monkeypatch):
        # Hand-built pieces of orders 1..4 whose boundaries fall on time
        # nodes: a node on a boundary takes the earlier piece, t0 the first
        # and t = 1 the last, bit for bit as that piece gives it alone.
        import varcaputo.pde as pde

        grid = Grid1D(mx=8, mt=10, t0=0.1)
        nodes = grid.t_nodes
        bounds = nodes[[0, 3, 4, 7, 10]]
        rng = np.random.default_rng(7)
        n = (3 + 1) * (grid.mx - 1)
        pieces = [_NdfDense(t, 0.9 * (t - t_old), order, rng.standard_normal((order + 1, n)))
                  for order, t_old, t in zip([2, 4, 1, 3], bounds[:-1], bounds[1:])]

        class Replay:
            def __init__(self, fun, t0, y0, *, solve, m, tol):
                self.t, self.nlu, self.left = t0, 0, iter(pieces)

            def step(self):
                piece = next(self.left)
                self.t = piece.t
                return piece

        monkeypatch.setattr(pde, "_LinearBDF", Replay)
        f = _solve("diffusion", grid, 3)
        m = grid.mx - 1
        for j, piece in enumerate([0, 0, 0, 0, 1, 2, 2, 2, 3, 3, 3]):
            want = pieces[piece](np.asarray(nodes[j]))[:m]
            assert f.u[1:-1, j].tobytes() == want.tobytes(), j
        assert np.array_equal(f.dense(nodes)[:m], f.u[1:-1])

    @pytest.mark.parametrize("equation, mt", [("diffusion", 4), ("burgers", 2000)])
    def test_columns_equal_dense(self, equation, mt):
        # mt = 4 leaves most steps without a node; mt = 2000 puts many in each.
        f = _solve(equation, Grid1D(mx=8, mt=mt), 6)
        m = len(f.x_nodes) - 2
        assert f.meta["steps"] > mt if mt == 4 else f.meta["steps"] < mt
        assert np.array_equal(f.dense(f.t_nodes)[:m], f.u[1:-1])

    @pytest.mark.parametrize("k", range(_MAX_ORDER + 1))
    def test_compute_r_matches_scipy(self, k):
        from scipy.integrate._ivp.bdf import compute_R

        t = 0.5
        min_step = 10.0 * (math.nextafter(t, math.inf) - t)
        ratio = min_step / math.nextafter(min_step, 0.0)  # h just below 10 ulp of t
        for factor in (0.2, 0.5, 1.0, 1.7, 10.0, ratio):
            assert _compute_r(k, factor).tobytes() == compute_R(k, factor).tobytes()


class TestFieldError:
    @staticmethod
    def _field(value: float, col: int) -> Field2D:
        """A zero field on 5 x 5 nodes with ``value`` at one node of column ``col``."""
        u = np.zeros((5, 5))
        u[2, col] = value
        return Field2D(np.linspace(0.0, 1.0, 5), np.linspace(0.2, 1.0, 5), u, {}, None, None)

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
