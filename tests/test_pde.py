import numpy as np
import pytest
from scipy import sparse
from scipy.integrate import quad

from varcaputo.order import affine_order
from varcaputo.pde import (
    DegenerateCoefficientError,
    Grid1D,
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

    def test_error_decreases_with_N(self):
        grid = Grid1D(mx=12, mt=40, t0=1e-4)
        errs = []
        for N in (2, 6):
            problem = manufactured_diffusion(ORDER, N=N)
            errs.append(field_error(solve_diffusion(problem, grid), diffusion_exact))
        assert errs[1] <= 1.05 * errs[0]

    def test_only_first_order_expansion(self, diffusion_field):
        problem = manufactured_diffusion(ORDER, N=4)
        with pytest.raises(ValueError):
            solve_diffusion(problem, Grid1D(mx=12, mt=40), n_expansion=2)


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


class TestStepper:
    def test_meta_records_stepper_counts(self, diffusion_field, fieldv):
        for f in (diffusion_field, fieldv):
            assert f.meta["stepper"] == "BDF"
            assert f.meta["steps"] == len(f.dense.ts) - 1
            for key in ("steps", "nfev", "njev", "nlu"):
                assert f.meta[key] > 0

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
    @pytest.mark.parametrize("N", [1, 6, 12])
    def test_analytic_jacobian_of_linear_system(self, equation, N):
        # The system is linear in y, so J(t) y = rhs(t, y) - rhs(t, 0).
        grid = Grid1D(mx=12, mt=4, t0=1e-4)
        if equation == "diffusion":
            f = solve_diffusion(manufactured_diffusion(ORDER, N=N), grid)
        else:
            f = solve_burgers(ORDER, grid, N=N)
        n = (N + 1) * (grid.mx - 1)
        rng = np.random.default_rng(N)
        eps = np.finfo(float).eps
        for t in (grid.t0, 0.3, 1.0):
            y = rng.standard_normal(n)
            J = f.jac(t, y)
            assert sparse.issparse(J) and J.shape == (n, n)
            base = f.rhs(t, np.zeros(n))
            scale = abs(J) @ np.abs(y) + np.abs(base)
            gap = np.abs(J @ y - (f.rhs(t, y) - base))
            assert np.all(gap <= 64 * eps * scale)
