import warnings

import numpy as np
import pytest
from scipy import sparse
from scipy.optimize import linprog

from cdmpanel import (
    CollinearityError,
    ConvergenceError,
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
from cdmpanel.estim import design_gradient, design_index, design_matrix, newton_design
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
        # the LP solves the design exactly; the fit, which reports neither the
        # entity effects nor _cons, refuses it when nothing else is left
        ds = fe_panel(62)
        y, mask = ds.column("y"), np.ones(ds.n_rows, dtype=bool)
        X, _, _ = design_matrix(ds, mask, (), fe_dims, True)
        oracle = primal_oracle_loss(y, X, 0.4)
        Xn, _, _, layout = newton_design(ds, mask, (), fe_dims, True)
        sol = cqr._quantile_lp(y, Xn, layout, 0.4)
        assert abs(check_loss(y - design_index(Xn, sol.b, layout), 0.4) - oracle) <= 1e-9 * oracle
        if fe_dims == ("entity",):
            with pytest.raises(ValidationError, match="^no identifiable regressors beside the entity effects$"):
                cqr_fit(ds, CqrSpec("y", (), tau=0.4, fe_dims=fe_dims))
            return
        fit = cqr_fit(ds, CqrSpec("y", (), tau=0.4, fe_dims=fe_dims))
        assert list(fit.coefficients) == [f"year={t}" for t in ds.periods[1:]]
        assert abs(fit.notes["check_loss"] - oracle) <= 1e-9 * oracle

    @pytest.mark.parametrize("fe_dims, intercept", [
        (("entity", "year"), True),
        (("year", "entity"), True),
        (("entity", "region", "year"), False),
        (("region", "entity"), True),
        (("entity",), False),
        (("year", "region"), True),
    ])
    def test_estim_primitives_equal_dense_design(self, fe_dims, intercept):
        # the LP's A = Z' for the full design Z, kept as X and the entity
        # codes in newton_design's parameter order: A v, A'w and
        # (A Q A')^-1 g through the estim primitives against Z's. Without
        # entity effects the entity block is empty. fe_panel's region is
        # entity-constant; a region that varies within entities keeps Z'QZ
        # nonsingular
        rng = np.random.default_rng(63)
        ds = fe_panel(63)
        ds = ds.with_replaced({"region": rng.integers(0, 3, size=ds.n_rows).astype(float)})
        mask = np.ones(ds.n_rows, dtype=bool)
        X, names, _, layout = newton_design(ds, mask, ("x", "z"), fe_dims, intercept)
        Z, dense_names, _ = design_matrix(ds, mask, ("x", "z"), fe_dims, intercept)
        assert names == [dense_names[pos] for pos in layout.dense_pos]
        assert layout.n_params == len(dense_names)
        v = rng.normal(size=Z.shape[0])
        w = rng.normal(size=Z.shape[1])
        q = rng.uniform(0.1, 2.0, size=Z.shape[0])

        def close(a, b):
            return np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))

        assert close(design_gradient(X, v, layout), Z.T @ v)
        assert close(design_index(X, w, layout), Z @ w)
        assert close(cqr._normal(X, layout, q)(w), np.linalg.solve(Z.T @ (q[:, None] * Z), w))


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
        d = cqr._quantile_lp(y, X, layout, tau).d
        assert np.max(np.abs(dense.T @ d)) <= 1e-9
        assert np.all(d >= tau - 1.0 - 1e-9) and np.all(d <= tau + 1e-9)


def stress_case(seed, n_e, n_t):
    """One seeded LP of the stress oracle: a panel with continuous, integer
    or heavily tied y, often a cluster-bootstrap draw with repeated
    entities, and a random choice of regressors, fixed effects, intercept
    and tau (among them tau with tau * T an integer)."""
    rng = np.random.default_rng(seed)
    ents = np.repeat([f"E{i}" for i in range(n_e)], n_t)
    yrs = [int(t) for t in np.tile(np.arange(2010, 2010 + n_t), n_e)]
    fe = np.repeat(rng.normal(size=n_e), n_t)
    x = rng.normal(size=n_e * n_t)
    z = rng.normal(size=n_e * n_t) + fe
    kind = seed % 3
    if kind == 0:
        y = 0.4 * x - 0.3 * z + fe + rng.standard_t(3, size=n_e * n_t)
    elif kind == 1:
        y = np.round(2.0 + x + fe + rng.normal(size=n_e * n_t))
    else:
        y = np.round(2.0 * rng.exponential(size=n_e * n_t))
    ds = from_long(list(ents), yrs, {"y": y, "x": x, "z": z})
    if rng.random() < 0.5:
        ds = take_entities(ds, rng.integers(0, n_e, size=n_e))
    tau = float(rng.choice([0.5, 1.0 / n_t, 2.0 / n_t, 0.25, 0.8, rng.uniform(0.05, 0.95)]))
    regressors = [("x", "z"), ("x",), ()][rng.integers(0, 3)]
    intercept = rng.random() < 0.75 or not regressors
    fe_dims = tuple(dim for dim, on in (("entity", rng.random() < 0.7), ("year", rng.random() < 0.5)) if on)
    return ds, regressors, fe_dims, intercept, tau


class TestAgainstHighs:
    # tolerances, fixed before the first run: check loss within 1e-9
    # relative of HiGHS's optimum, ||X'd||_inf <= 1e-9, d inside
    # [tau - 1, tau] to 1e-9, and no certificate failure (ConvergenceError)
    @pytest.mark.parametrize("n_e", [10, 30, 120])
    @pytest.mark.parametrize("n_t", [3, 5, 6])
    def test_seeded_panels(self, n_e, n_t):
        failures = []
        for seed in range(24):
            ds, regressors, fe_dims, intercept, tau = stress_case(1000 * n_e + 10 * n_t + seed, n_e, n_t)
            mask = np.ones(ds.n_rows, dtype=bool)
            y = ds.column("y")
            X, _, _, layout = newton_design(ds, mask, regressors, fe_dims, intercept)
            dense, _, _ = design_matrix(ds, mask, regressors, fe_dims, intercept)
            oracle = linprog(-y, A_eq=dense.T, b_eq=np.zeros(dense.shape[1]), bounds=(tau - 1.0, tau),
                             method="highs")
            assert oracle.status == 0
            try:
                sol = cqr._quantile_lp(y, X, layout, tau)
            except ConvergenceError as exc:
                failures.append((seed, repr(exc)))
                continue
            loss = check_loss(y - dense @ sol.b, tau)
            checks = {
                "loss": abs(loss + oracle.fun) <= 1e-9 * -oracle.fun,
                "X'd": np.max(np.abs(dense.T @ sol.d)) <= 1e-9,
                "bounds": np.all(sol.d >= tau - 1.0 - 1e-9) and np.all(sol.d <= tau + 1e-9),
            }
            failures.extend((seed, name) for name, ok in checks.items() if not ok)
        assert failures == []


class TestDegenerateInputs:
    # each fit must be exact and raise no RuntimeWarning (tier-1 turns
    # warnings into errors; the explicit filter keeps that true when this
    # file runs alone)
    def fit(self, ds, spec):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            return cqr_fit(ds, spec)

    @pytest.mark.parametrize("fe_dims", [(), ("year",), ("entity", "year")])
    def test_constant_y(self, fe_dims):
        # the only zero-loss fit is y = 3 exactly, so the optimum is unique
        ds = fe_panel(71)
        ds = ds.with_replaced({"y": np.full(ds.n_rows, 3.0)})
        fit = self.fit(ds, CqrSpec("y", ("x",), tau=0.3, fe_dims=fe_dims))
        # with entity effects the level 3 is theirs, not a _cons coefficient
        assert ("_cons" in fit.coefficients) == ("entity" not in fe_dims)
        assert fit.coefficients.get("_cons", 3.0) == pytest.approx(3.0, abs=1e-12)
        assert all(abs(b) <= 1e-12 for nm, b in fit.coefficients.items() if nm != "_cons")
        assert fit.notes["check_loss"] == pytest.approx(0.0, abs=1e-12)
        assert fit.notes["flat_optimum"] is False

    @pytest.mark.parametrize("tau, cons, flat", [
        (0.45, 1.0, False),       # tau * n = 5.4 falls inside the block of 1s
        (0.25, 1.0, False),       # tau * n = 3 as well
        (0.7, 2.0, False),        # tau * n = 8.4 inside the block of 2s
        (2.0 / 12.0, None, True),  # tau * n = 2: any value in [0, 1]
    ])
    def test_integer_y_with_ties(self, tau, cons, flat):
        y = np.array([0.0, 0.0, 1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0, 3.0, 3.0])
        fit = self.fit(iid_panel({"y": y}), CqrSpec("y", tau=tau))
        if cons is None:
            assert fit.coefficients["_cons"] in (0.0, 1.0)
        else:
            assert fit.coefficients["_cons"] == cons
        assert fit.notes["flat_optimum"] is flat

    def test_integer_y_with_ties_in_a_panel(self):
        ds = fe_panel(72, n_e=30)
        ds = ds.with_replaced({"y": np.round(ds.column("y"))})
        fit = self.fit(ds, CqrSpec("y", ("x", "z"), tau=0.4, fe_dims=("entity", "year")))
        dense, _, _ = design_matrix(ds, np.ones(ds.n_rows, dtype=bool), ("x", "z"), ("entity", "year"), True)
        oracle = primal_oracle_loss(ds.column("y"), dense, 0.4)
        assert abs(fit.notes["check_loss"] - oracle) <= 1e-12 * oracle

    def test_entity_with_a_single_row(self):
        # entity E3 keeps one complete row: its effect fits that row exactly
        ds = fe_panel(73)
        y = ds.column("y").copy()
        y[ds.entity_index() == 3] = np.nan
        y[3 * 5 + 2] = 1.7
        ds = ds.with_replaced({"y": y})
        fit = self.fit(ds, CqrSpec("y", ("x", "z"), tau=0.37, fe_dims=("entity",)))
        mask = np.isfinite(y)
        dense, _, _ = design_matrix(ds, mask, ("x", "z"), ("entity",), True)
        oracle = primal_oracle_loss(y[mask], dense, 0.37)
        assert abs(fit.notes["check_loss"] - oracle) <= 1e-12 * oracle
        assert fit.notes["flat_optimum"] is False


class TestLpNotes:
    def test_iterations_and_pivots_recorded_not_reported(self):
        from cdmpanel import tables

        fit = cqr_fit(fe_panel(74), CqrSpec("y", ("x", "z"), tau=0.5, fe_dims=("entity", "year")))
        assert isinstance(fit.notes["lp_iterations"], int) and fit.notes["lp_iterations"] >= 1
        assert isinstance(fit.notes["vertex_pivots"], int) and fit.notes["vertex_pivots"] >= 0
        lines = tables.result_lines("cqr", "full", "m", fit, tables.STAR_STYLES["uqr"], tau=0.5)
        assert not any("lp_iterations" in line or "vertex_pivots" in line for line in lines)


class TestVertexPivots:
    @pytest.mark.parametrize("seed, fe_dims", [(75, ("entity", "year")), (76, ("year",)), (77, ("entity",))])
    def test_pivots_reach_the_optimum_from_a_poor_vertex(self, seed, fe_dims):
        # start from the vertex of random residuals, far from the optimum:
        # the simplex pivots alone must reach HiGHS's check loss
        ds = take_entities(fe_panel(seed, n_e=30), np.random.default_rng(seed).integers(0, 30, size=30))
        mask = np.ones(ds.n_rows, dtype=bool)
        y = ds.column("y")
        X, _, _, layout = newton_design(ds, mask, ("x", "z"), fe_dims, True)
        dense, _, _ = design_matrix(ds, mask, ("x", "z"), fe_dims, True)
        tau = 0.3
        start = cqr._vertex(X, layout, y, tau,
                            *cqr._initial_basis(X, layout, np.random.default_rng(seed).normal(size=len(y))),
                            np.full(len(y), tau - 0.5))
        v, pivots = cqr._certify(X, layout, y, tau, start, np.full(len(y), tau - 0.5))
        assert pivots > 0
        oracle = primal_oracle_loss(y, dense, tau)
        assert abs(check_loss(v.r, tau) - oracle) <= 1e-9 * oracle
        assert np.all(v.d >= tau - 1.0 - cqr.DUAL_TOL) and np.all(v.d <= tau + cqr.DUAL_TOL)
