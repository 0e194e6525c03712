import numpy as np
import pytest
from scipy import sparse
from scipy.optimize import linprog

from cdmpanel import (
    CollinearityError,
    CqrSpec,
    ModelSpec,
    ValidationError,
    VcovSpec,
    cqr_fit,
    from_long,
    ols_fit,
)
from cdmpanel import cqr
from cdmpanel.cqr import check_loss
from cdmpanel.estim import design_matrix, newton_design
from cdmpanel.panel import take_entities


def iid_panel(columns):
    n = len(next(iter(columns.values())))
    return from_long([f"E{i}" for i in range(n)], [2010] * n, columns)


class TestMedians:
    def test_odd_sample_median_exact(self):
        ds = iid_panel({"y": [1.0, 2.0, 3.0]})
        fit = cqr_fit(ds, CqrSpec("y"))
        assert fit.coefficients["_cons"] == pytest.approx(2.0, abs=1e-6)

    def test_even_sample_flat_interval(self):
        ds = iid_panel({"y": [1.0, 2.0, 3.0, 4.0]})
        fit = cqr_fit(ds, CqrSpec("y"))
        assert 2.0 - 1e-4 <= fit.coefficients["_cons"] <= 3.0 + 1e-4
        assert fit.notes["flat_optimum"] is True

    def test_other_quantiles(self):
        y = np.arange(1.0, 11.0)
        ds = iid_panel({"y": y})
        fit = cqr_fit(ds, CqrSpec("y", tau=0.2))
        # any value in [2, 3] minimizes the tau=0.2 loss on 1..10
        assert 2.0 - 1e-4 <= fit.coefficients["_cons"] <= 3.0 + 1e-4

    @pytest.mark.parametrize("y, tau, flat", [
        (np.arange(1.0, 11.0), 0.2, True),    # any value in [2, 3]
        (np.arange(1.0, 11.0), 0.7, True),    # any value in [7, 8]
        (np.arange(1.0, 11.0), 0.25, False),  # unique at 3
        (np.arange(1.0, 11.0), 0.75, False),  # unique at 8
        (np.array([1.0, 2.0, 3.0]), 0.5, False),
    ])
    def test_flat_optimum_from_duals(self, y, tau, flat):
        fit = cqr_fit(iid_panel({"y": y}), CqrSpec("y", tau=tau))
        assert fit.notes["flat_optimum"] is flat


class TestSlopeFits:
    def grid_oracle(self, y, x, tau=0.5):
        grid = np.arange(-5.0, 5.0 + 1e-9, 1e-3)
        losses = np.array([check_loss(y - b * x, tau) for b in grid])
        i = int(np.argmin(losses))
        return grid[i], losses[i]

    def test_matches_grid_search_loss(self):
        rng = np.random.default_rng(55)
        x = rng.normal(size=9) + 2.0
        y = 0.7313 * x + 0.5 * rng.normal(size=9)
        ds = iid_panel({"y": y, "x": x})
        fit = cqr_fit(ds, CqrSpec("y", ("x",), tau=0.5, intercept=False))
        _, grid_loss = self.grid_oracle(y, x)
        assert fit.notes["check_loss"] <= grid_loss + 1e-6

    def test_check_loss_not_worse_than_ols(self):
        rng = np.random.default_rng(56)
        n = 120
        x = rng.normal(size=n)
        y = 1.0 + 0.8 * x + rng.standard_t(3, size=n)
        ds = iid_panel({"y": y, "x": x})
        fit = cqr_fit(ds, CqrSpec("y", ("x",), tau=0.5))
        ols = ols_fit(ds, ModelSpec("y", ("x",)))
        resid_ols = y - ols.coefficients["x"] * x - ols.coefficients["_cons"]
        assert fit.notes["check_loss"] <= check_loss(resid_ols, 0.5) + 1e-10

    def test_scale_equivariance(self):
        rng = np.random.default_rng(57)
        x = rng.normal(size=40)
        y = 0.6 * x + rng.normal(size=40)
        ds = iid_panel({"y": y, "ys": 7.0 * y, "x": x})
        f1 = cqr_fit(ds, CqrSpec("y", ("x",), tau=0.3))
        f2 = cqr_fit(ds, CqrSpec("ys", ("x",), tau=0.3))
        assert abs(f2.coefficients["x"] - 7.0 * f1.coefficients["x"]) < 1e-6

    def test_noiseless_symmetric_data_exact(self):
        x = np.linspace(-2.0, 2.0, 21)
        y = 1.5 * x
        ds = iid_panel({"y": y, "x": x})
        fit = cqr_fit(ds, CqrSpec("y", ("x",), tau=0.5))
        assert fit.coefficients["x"] == pytest.approx(1.5, abs=1e-6)
        assert fit.coefficients["_cons"] == pytest.approx(0.0, abs=1e-6)

    def test_rank_deficiency_errors(self):
        rng = np.random.default_rng(58)
        x = rng.normal(size=30)
        ds = iid_panel({"y": rng.normal(size=30), "x1": x, "x2": x.copy()})
        with pytest.raises(CollinearityError):
            cqr_fit(ds, CqrSpec("y", ("x1", "x2")))

    def test_fe_dummies_and_bootstrap(self):
        rng = np.random.default_rng(59)
        n_e, n_t = 25, 5
        ents = np.repeat([f"E{i}" for i in range(n_e)], n_t)
        yrs = list(range(2010, 2010 + n_t)) * n_e
        fe = np.repeat(rng.normal(size=n_e), n_t)
        x = rng.normal(size=n_e * n_t)
        y = 0.4 * x + fe + rng.normal(size=n_e * n_t) * 0.3
        ds = from_long(ents, yrs, {"y": y, "x": x})
        spec = CqrSpec("y", ("x",), tau=0.5, fe_dims=("entity", "year"),
                       vcov=VcovSpec("cluster_bootstrap", replications=25, seed=3))
        fit = cqr_fit(ds, spec)
        assert abs(fit.coefficients["x"] - 0.4) < 4 * fit.se("x")
        assert not any(name.startswith("entity=") for name in fit.coefficients)
        assert fit.se_method == "cluster_bootstrap(B=25, seed=3)"

    def test_optimality_certificate_with_year_effects(self):
        # every one-sided directional derivative of the exact check loss
        # along +-e_j of a reported coefficient is >= 0 at an optimum
        rng = np.random.default_rng(60)
        n_e, n_t, tau = 25, 5, 0.3
        ents = np.repeat([f"E{i}" for i in range(n_e)], n_t)
        yrs = np.tile(np.arange(2010, 2010 + n_t), n_e)
        x = rng.normal(size=n_e * n_t)
        y = 0.4 * x + 0.2 * (yrs - 2012) + rng.standard_t(3, size=n_e * n_t)
        ds = from_long(ents, [int(t) for t in yrs], {"y": y, "x": x})
        fit = cqr_fit(ds, CqrSpec("y", ("x",), tau=tau, fe_dims=("year",)))
        cols = {"x": x, "_cons": np.ones_like(y)}
        cols.update({f"year={t}": (yrs == t).astype(float) for t in range(2011, 2010 + n_t)})
        assert set(fit.coefficients) == set(cols)
        u = y - sum(b * cols[nm] for nm, b in fit.coefficients.items())
        zero = np.abs(u) <= 1e-9 * (1.0 + np.max(np.abs(y)))
        psi = tau - (u < 0)
        for col in cols.values():
            for d in (col, -col):
                deriv = -np.sum(psi[~zero] * d[~zero]) + check_loss(-d[zero], tau)
                assert deriv >= -1e-9

    def test_tau_validation(self):
        with pytest.raises(ValidationError):
            CqrSpec("y", tau=1.0)


def fe_panel(seed, n_e=20, n_t=5):
    rng = np.random.default_rng(seed)
    ents = np.repeat([f"E{i}" for i in range(n_e)], n_t)
    yrs = [int(t) for t in np.tile(np.arange(2010, 2010 + n_t), n_e)]
    fe = np.repeat(rng.normal(size=n_e), n_t)
    x = rng.normal(size=n_e * n_t)
    z = rng.normal(size=n_e * n_t) + fe
    y = 0.4 * x - 0.3 * z + fe + rng.standard_t(3, size=n_e * n_t)
    region = np.repeat(rng.integers(0, 3, size=n_e), n_t).astype(float)
    return from_long(list(ents), yrs, {"y": y, "x": x, "z": z, "region": region,
                                       "firm_const": np.repeat(rng.normal(size=n_e), n_t)})


def primal_oracle_loss(y, X, tau):
    """Check loss at the optimum of the Koenker-Bassett primal LP:
    min tau*1'u+ + (1-tau)*1'u-  s.t.  X b + u+ - u- = y."""
    n, p = X.shape
    eye = sparse.identity(n, format="csc")
    A = sparse.hstack([sparse.csc_matrix(X), eye, -eye], format="csc")
    c = np.concatenate([np.zeros(p), np.full(n, tau), np.full(n, 1.0 - tau)])
    bounds = [(None, None)] * p + [(0.0, None)] * (2 * n)
    res = linprog(c, A_eq=A, b_eq=y, bounds=bounds, method="highs")
    assert res.status == 0
    return check_loss(y - X @ res.x[:p], tau)


class TestEntityEffectsAsCodes:
    @pytest.mark.parametrize("regressors", [("x", "firm_const"), ("firm_const", "x")])
    def test_entity_constant_regressor_named(self, regressors):
        ds = fe_panel(61)
        with pytest.raises(CollinearityError, match="column 'firm_const'"):
            cqr_fit(ds, CqrSpec("y", regressors, fe_dims=("entity", "year")))

    @pytest.mark.parametrize("regressors, fe_dims", [
        (("firm_const",), ("entity",)),
        (("x", "big_const"), ("entity", "year")),
        (("big_const", "x"), ("entity", "year")),
        (("x", "zero"), ("entity", "year")),
    ])
    def test_entity_constant_regressor_named_at_any_scale(self, regressors, fe_dims):
        # after the entity means are removed such a column is round-off only;
        # it must be judged against its own norm, not the largest pivot
        ds = fe_panel(70)
        ds = ds.with_column("big_const", 1e3 * ds.column("firm_const"))
        ds = ds.with_column("zero", np.zeros(ds.n_rows))
        culprit = regressors[-1] if regressors[0] == "x" else regressors[0]
        with pytest.raises(CollinearityError, match=f"column '{culprit}'"):
            cqr_fit(ds, CqrSpec("y", regressors, fe_dims=fe_dims))

    def test_baseline_entity_indicator_needs_no_intercept(self):
        # without an intercept the dropped baseline entity's indicator is not
        # spanned by the other entities' indicators; with one it is
        ds = fe_panel(70)
        ds = ds.with_column("baseline", (ds.entity_index() == 0).astype(float))
        fit = cqr_fit(ds, CqrSpec("y", ("x", "baseline"), fe_dims=("entity", "year"), intercept=False))
        assert np.isfinite(fit.coefficients["baseline"])
        with pytest.raises(CollinearityError, match="column 'baseline'"):
            cqr_fit(ds, CqrSpec("y", ("x", "baseline"), fe_dims=("entity", "year")))

    @pytest.mark.parametrize("fe_dims", [("entity",), ("entity", "year")])
    def test_intercept_only_with_entity_effects(self, fe_dims):
        ds = fe_panel(62)
        fit = cqr_fit(ds, CqrSpec("y", (), tau=0.4, fe_dims=fe_dims))
        X, _, _ = design_matrix(ds, np.ones(ds.n_rows, dtype=bool), (), fe_dims, True)
        oracle = primal_oracle_loss(ds.column("y"), X, 0.4)
        assert "_cons" in fit.coefficients
        assert abs(fit.notes["check_loss"] - oracle) <= 1e-9 * oracle

    @pytest.mark.parametrize("fe_dims, intercept", [
        (("entity", "year"), True),
        (("year", "entity"), True),
        (("entity", "region", "year"), False),
        (("region", "entity"), True),
        (("entity",), False),
    ])
    def test_lp_matrix_equals_dense_design(self, fe_dims, intercept):
        ds = fe_panel(63)
        mask = np.ones(ds.n_rows, dtype=bool)
        X, names, _, layout = newton_design(ds, mask, ("x", "z"), fe_dims, intercept)
        A = cqr._lp_matrix(X, layout)
        dense, dense_names, _ = design_matrix(ds, mask, ("x", "z"), fe_dims, intercept)
        B = sparse.csr_matrix(dense.T)
        assert names == dense_names
        assert A.shape == B.shape and A.nnz == B.nnz
        assert (A != B).nnz == 0


class TestDualAgainstPrimal:
    @pytest.mark.parametrize("seed, tau, fe_dims, duplicated", [
        (64, 0.5, ("entity", "year"), False),
        (65, 0.25, ("entity", "year"), False),
        (66, 0.8, ("entity", "year"), False),
        (67, 0.5, ("year", "entity"), False),
        (68, 0.5, ("entity", "year"), True),
        (69, 0.7, ("entity", "year"), True),
    ])
    def test_check_loss_and_dual_feasibility(self, seed, tau, fe_dims, duplicated):
        ds = fe_panel(seed, n_e=30)
        if duplicated:
            # a cluster-bootstrap draw: some entities repeated, some left out
            draw = np.random.default_rng(seed).integers(0, 30, size=30)
            ds = take_entities(ds, draw)
        fit = cqr_fit(ds, CqrSpec("y", ("x", "z"), tau=tau, fe_dims=fe_dims))
        mask = np.ones(ds.n_rows, dtype=bool)
        y = ds.column("y")
        dense, _, _ = design_matrix(ds, mask, ("x", "z"), fe_dims, True)
        oracle = primal_oracle_loss(y, dense, tau)
        assert abs(fit.notes["check_loss"] - oracle) <= 1e-9 * oracle

        X, _, _, layout = newton_design(ds, mask, ("x", "z"), fe_dims, True)
        _, d = cqr._lp_solve(y, cqr._lp_matrix(X, layout), tau)
        assert np.max(np.abs(dense.T @ d)) <= 1e-9
        assert np.all(d >= tau - 1.0 - 1e-9) and np.all(d <= tau + 1e-9)
