import math
from fractions import Fraction

import numpy as np
import pytest

from cdmpanel import (
    CollinearityError,
    ConvergenceError,
    CountSpec,
    CqrSpec,
    ModelSpec,
    QuantileSpec,
    ValidationError,
    VcovSpec,
    bootstrap_vcov,
    cqr_fit,
    from_long,
    mle_fit,
    nb2_fit,
    ols_fit,
    poisson_fe_fit,
    probit_fit,
    uqr_fit,
    vif,
    wald_chi2,
)
from cdmpanel import estim, synthdgp
from cdmpanel.counts import _nb2_parts, _poisson_parts
from cdmpanel.estim import (
    LM_SHIFTS,
    BlockHessian,
    EntityLayout,
    FitResult,
    _hessian_vcov,
    _newton_direction,
    design_matrix,
    draw_rows,
    fe_codes,
    fe_residuals,
    linear_index,
    newton_design,
    ols_core,
    ols_solve,
    sample_codes,
)
from cdmpanel.heckman import _probit_parts
from cdmpanel.panel import take_entities


def iid_panel(n, columns, seed=0):
    return from_long([f"E{i}" for i in range(n)], [2010] * n, columns)


def one_level(X):
    """The EntityLayout of a design without entity effects (an empty entity block)."""
    return EntityLayout.from_codes(np.zeros(len(X), dtype=np.intp), 1, X.shape[1])


def no_entity_block(H):
    """A dense Hessian as a BlockHessian with no entity block."""
    k = len(H)
    return BlockHessian(H, np.zeros((0, k)), np.zeros(0))


class TestOls:
    def test_exact_fit_line(self):
        # two points for a slope and an intercept leave no residual degree
        # of freedom, and the fit is refused as one with absorbed FE is;
        # three collinear points fit the line exactly
        two = from_long(["A", "B"], [2010, 2010], {"x": [0.0, 1.0], "y": [0.0, 2.0]})
        with pytest.raises(ValidationError, match="^only 2 complete cases for 2 regressors$"):
            ols_fit(two, ModelSpec("y", ("x",)))
        ds = from_long(["A", "B", "C"], [2010] * 3, {"x": [0.0, 1.0, 2.0], "y": [0.0, 2.0, 4.0]})
        fit = ols_fit(ds, ModelSpec("y", ("x",)))
        assert fit.coefficients["x"] == pytest.approx(2.0, abs=1e-12)
        assert fit.coefficients["_cons"] == pytest.approx(0.0, abs=1e-12)
        assert fit.fit["r2"] == pytest.approx(1.0, abs=1e-12)

    def test_no_residual_degrees_of_freedom_refused(self):
        # 2 entities x 2 years with entity and year FE: 4 cases for 1 slope
        # and 3 absorbed FE parameters leave no residual degree of freedom,
        # and the SE would be round-off (about 1e-15, p = 0); a bootstrap
        # replicate's solve refuses it as the fit does
        ents, years = ["A", "A", "B", "B", "C", "C"], [2010, 2011] * 3
        x, y = [0.3, 1.1, -0.4, 0.9, 0.5, -0.2], [1.0, 2.5, 0.2, 1.7, 0.4, 0.8]
        ds = from_long(ents[:4], years[:4], {"x": x[:4], "y": y[:4]})
        message = "^only 4 complete cases for 1 regressors and 3 absorbed fixed effects$"
        with pytest.raises(ValidationError, match=message):
            ols_fit(ds, ModelSpec("y", ("x",), fe_dims=("entity", "year")))
        fe = [np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1])]
        with pytest.raises(ValidationError, match=message):
            ols_solve(np.array(x[:4])[:, None], np.array(y[:4]), ["x"], fe=fe)
        # a third entity leaves one
        fit = ols_fit(from_long(ents, years, {"x": x, "y": y}), ModelSpec("y", ("x",), fe_dims=("entity", "year")))
        assert fit.notes["absorbed_df"] == 4 and fit.se("x") > 1e-3

    def test_duplicated_regressor_names_culprit(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=20)
        ds = iid_panel(20, {"x1": x, "x2": x.copy(), "y": rng.normal(size=20)})
        with pytest.raises(CollinearityError, match="x1|x2"):
            ols_fit(ds, ModelSpec("y", ("x1", "x2")))

    def test_fe_absorption_matches_dummy_ols(self):
        rng = np.random.default_rng(5)
        ents = np.repeat(["A", "B"], 4)
        yrs = list(range(2010, 2014)) * 2
        x = rng.normal(size=8)
        fe = np.where(ents == "A", 1.5, -0.7)
        y = 0.8 * x + fe + rng.normal(size=8) * 0.1
        ds = from_long(ents, yrs, {"x": x, "y": y})
        absorbed = ols_fit(ds, ModelSpec("y", ("x",), fe_dims=("entity",)))
        dummy = np.column_stack([x, (ents == "A").astype(float), np.ones(8)])
        coef, *_ = np.linalg.lstsq(dummy, y, rcond=None)
        assert abs(absorbed.coefficients["x"] - coef[0]) < 1e-10

    def test_residuals_orthogonal_to_regressors(self):
        rng = np.random.default_rng(9)
        ents = np.repeat([f"E{i}" for i in range(10)], 5)
        yrs = list(range(2010, 2015)) * 10
        x1 = rng.normal(size=50)
        x2 = rng.normal(size=50)
        y = 1 + x1 - 2 * x2 + rng.normal(size=50)
        ds = from_long(ents, yrs, {"x1": x1, "x2": x2, "y": y})
        fit = ols_fit(ds, ModelSpec("y", ("x1", "x2"), fe_dims=("entity", "year")))
        # [y, x1, x2] less their least-squares fit on entity and year dummies
        D = np.column_stack([ds.entity_index()[:, None] == np.arange(10),
                             ds.year_index()[:, None] == np.arange(5)]).astype(float)
        Y = np.column_stack([y, x1, x2])
        M = Y - D @ np.linalg.lstsq(D, Y, rcond=None)[0]
        resid = M[:, 0] - M[:, 1:] @ np.array([fit.coefficients["x1"], fit.coefficients["x2"]])
        assert abs(resid @ M[:, 1]) < 1e-8
        assert abs(resid @ M[:, 2]) < 1e-8

    def test_rescaling_regressor_rescales_coefficient(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=40)
        y = 0.5 * x + rng.normal(size=40)
        ds = iid_panel(40, {"x": x, "xs": 10 * x + 0 * x, "y": y})
        f1 = ols_fit(ds, ModelSpec("y", ("x",)))
        f2 = ols_fit(ds, ModelSpec("y", ("xs",)))
        assert f2.coefficients["xs"] == pytest.approx(f1.coefficients["x"] / 10, rel=1e-10)

    def test_zero_complete_cases_errors(self):
        ds = iid_panel(4, {"x": [np.nan] * 4, "y": [1.0, 2.0, 3.0, 4.0]})
        with pytest.raises(ValidationError, match="complete cases"):
            ols_fit(ds, ModelSpec("y", ("x",)))

    def test_hc1_matches_hand_computed_sandwich(self):
        rng = np.random.default_rng(13)
        n = 25
        x = rng.normal(size=n)
        y = 1.0 + 0.5 * x + rng.normal(size=n) * (1 + np.abs(x))
        X = np.column_stack([x, np.ones(n)])
        core = ols_core(X, y, ["x", "_cons"], robust=True)
        beta = np.linalg.solve(X.T @ X, X.T @ y)
        e = y - X @ beta
        bread = np.linalg.inv(X.T @ X)
        meat = (X * e[:, None]).T @ (X * e[:, None])
        V = n / (n - 2) * bread @ meat @ bread
        assert np.allclose(core.vcov, V, rtol=1e-10)
        # the RIF regressions take this covariance and say so
        fit = uqr_fit(iid_panel(n, {"x": x, "y": y}), "y", ("x",), QuantileSpec(taus=(0.5,)), fe_dims=())[0.5]
        assert fit.se_method == "robust"

    def test_weighted_fit_matches_replication(self):
        # weights of 2 behave like duplicated observations
        x = np.array([0.0, 1.0, 2.0, 3.0])
        y = np.array([0.1, 1.2, 1.8, 3.3])
        w = np.array([2.0, 1.0, 1.0, 2.0])
        fw = ols_core(np.column_stack([x, np.ones(4)]), y, ["x", "_cons"], w=w)
        xr = np.concatenate([x, x[[0, 3]]])
        yr = np.concatenate([y, y[[0, 3]]])
        coef, *_ = np.linalg.lstsq(np.column_stack([xr, np.ones(6)]), yr, rcond=None)
        assert fw.beta[0] == pytest.approx(coef[0], rel=1e-12)

    @pytest.mark.parametrize("big, small, gap, cond", [
        (1e3, 1e-2, 1e-4, 1e9), (1e3, 1e-3, 1e-5, 1e11), (1e4, 1e-3, 1e-6, 1e13)])
    def test_variances_of_ill_conditioned_designs_are_exact(self, big, small, gap, cond):
        # mixed-scale columns, two of them nearly collinear, that the rank
        # rule accepts: the variances must come from the QR's R, not from
        # an inverse of X'X, whose condition number is squared. The oracle
        # is (X'X)^-1 in exact rational arithmetic on X's float values.
        rng = np.random.default_rng(5)
        n = 300
        x1 = rng.normal(size=n)
        X = np.column_stack([big * x1, small * (x1 + gap * rng.normal(size=n)), 0.1 * rng.normal(size=n), np.ones(n)])
        assert cond / 3 < np.linalg.cond(X) < 3 * cond
        y = X @ np.array([1 / big, 1 / small, 1.0, 0.5]) + rng.normal(size=n)
        core = ols_core(X, y, ["x1", "x2", "x3", "_cons"])
        p = X.shape[1]
        F = [[Fraction(v) for v in row] for row in X.tolist()]
        G = [[sum(r[i] * r[j] for r in F) for j in range(p)] + [Fraction(int(i == j)) for j in range(p)]
             for i in range(p)]
        for c in range(p):  # Gauss-Jordan; X'X is positive definite, so no pivot is 0
            G[c] = [v / G[c][c] for v in G[c]]
            G = [row if r == c else [a - row[c] * b for a, b in zip(row, G[c])] for r, row in enumerate(G)]
        exact = np.array([float(G[i][p + i]) for i in range(p)])
        s2 = float(np.sum(core.resid**2)) / (n - p)
        assert np.max(np.abs(np.diag(core.vcov) / s2 - exact) / exact) < 1e-8


class TestOlsCoreColumns:
    """ols_core on an (n, m) y against m one-column calls."""

    @staticmethod
    def problem(seed=17, n_entities=40, n_periods=6, m=9):
        rng = np.random.default_rng(seed)
        ents = np.repeat([f"E{i}" for i in range(n_entities)], n_periods)
        years = np.tile(np.arange(2010, 2010 + n_periods), n_entities)
        keep = rng.random(ents.size) > 0.25
        n = int(keep.sum())
        x1, x2 = rng.normal(size=n), rng.normal(size=n)
        effect = rng.normal(size=n_entities)[np.repeat(np.arange(n_entities), n_periods)][keep]
        Y = np.column_stack([effect + 0.3 * x1 - x2 + rng.normal(size=n) * (1 + 0.3 * j) for j in range(m)])
        ds = from_long(ents[keep], years[keep], {"x1": x1, "x2": x2})
        mask = np.isfinite(ds.column("x1"))  # rows in input order: it is the grid's
        X, names, _ = design_matrix(ds, mask, ("x1", "x2"), (), False)
        fe = [fe_codes(ds, dim, mask)[0] for dim in ("entity", "year")]
        return X, Y, names, fe, rng.uniform(0.5, 2.0, size=n)

    @staticmethod
    def gap(a, b) -> float:
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("robust", [False, True])
    def test_one_column_is_bit_identical(self, weighted, robust):
        X, Y, names, fe, w = self.problem()
        w = w if weighted else None
        (batched,) = ols_core(X, Y[:, :1], names, w=w, fe=fe, robust=robust)
        single = ols_core(X, Y[:, 0], names, w=w, fe=fe, robust=robust)
        for a, b in zip(batched, single):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("fe_used", [0, 1, 2])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_exact_demeaning_gives_identical_columns(self, fe_used, weighted):
        # the FE projection solves each column on its own, so sharing it
        # changes nothing
        X, Y, names, fe, w = self.problem()
        w = w if weighted else None
        batched = ols_core(X, Y, names, w=w, fe=fe[:fe_used], robust=True)
        for j, core in enumerate(batched):
            for a, b in zip(core, ols_core(X, Y[:, j], names, w=w, fe=fe[:fe_used], robust=True)):
                assert np.array_equal(a, b)

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("robust", [False, True])
    def test_two_way_fe_columns_match(self, weighted, robust):
        # Tolerances set when the two-way demeaning was iterative and could
        # stop one sweep later in a batch: beta 1e-12 relative; residuals and
        # what is built from them 1e-10 relative. The exact projection now
        # meets them with identical columns.
        X, Y, names, fe, w = self.problem()
        w = w if weighted else None
        batched = ols_core(X, Y, names, w=w, fe=fe, robust=robust)
        assert len(batched) == Y.shape[1]
        for j, core in enumerate(batched):
            single = ols_core(X, Y[:, j], names, w=w, fe=fe, robust=robust)
            assert self.gap(core.beta, single.beta) <= 1e-12
            for a, b in ((core.resid, single.resid), (core.vcov, single.vcov), (core.r2, single.r2),
                         (core.adj_r2, single.adj_r2), (core.loglik, single.loglik)):
                assert self.gap(a, b) <= 1e-10
            assert core.absorbed_df == single.absorbed_df


def two_block_panel(seed=23):
    """Entities 0-4 observed in years 0-2 and entities 5-9 in years 3-5: an
    entity-year graph of two unconnected parts."""
    rng = np.random.default_rng(seed)
    ent = np.repeat(np.arange(10), 3)
    year = np.tile(np.arange(3), 10) + 3 * (ent >= 5)
    return ent, year, rng


def dummy_residuals(M, fe, w):
    """Oracle: M less its weighted least-squares fit on every level's dummy."""
    D = np.column_stack([codes[:, None] == np.arange(codes.max() + 1) for codes in fe]).astype(float)
    sw = np.sqrt(w)
    return M - D @ np.linalg.lstsq(D * sw[:, None], M * sw[:, None], rcond=None)[0]


class TestFeResiduals:
    """fe_residuals against a dense-dummy least-squares oracle."""

    # tolerance, fixed before the first run: relative 1e-12 in the max norm
    TOL = 1e-12

    @staticmethod
    def unbalanced(seed=29, n_entities=30, n_periods=6):
        rng = np.random.default_rng(seed)
        ent = np.repeat(np.arange(n_entities), n_periods)
        year = np.tile(np.arange(n_periods), n_entities)
        keep = rng.random(ent.size) > 0.3
        keep[::n_periods] = True  # every entity keeps a row
        return np.unique(ent[keep], return_inverse=True)[1], year[keep], rng

    @pytest.mark.parametrize("panel", ["unbalanced", "two_block"])
    def test_matches_dummy_oracle(self, panel):
        ent, year, rng = self.unbalanced() if panel == "unbalanced" else two_block_panel()
        M = rng.normal(size=(len(ent), 3)) * np.array([1.0, 10.0, 0.1])
        w = rng.uniform(0.2, 3.0, size=len(ent))
        for fe in ([ent, year], [year, ent], [ent]):
            out, _ = fe_residuals(M, fe, w)
            assert max_rel_gap(out, dummy_residuals(M, fe, w)) < self.TOL

    def test_zero_weight_entity(self):
        # finite everywhere, and the fit of the positive-weight rows unchanged
        ent, year, rng = self.unbalanced(seed=31)
        M = rng.normal(size=(len(ent), 2))
        w = rng.uniform(0.2, 3.0, size=len(ent))
        w[ent == 4] = 0.0
        out, _ = fe_residuals(M, [ent, year], w)
        assert np.all(np.isfinite(out))
        rows = w > 0
        assert max_rel_gap(out[rows], dummy_residuals(M, [ent, year], w)[rows]) < self.TOL

    def test_absorbed_df_counts_unconnected_parts(self):
        # two parts: 10 entity + 6 year levels identify 10 + 6 - 2 = 14
        # effects, not the 15 a connected panel would; the slope's SE then
        # uses n - 1 - 14 residual degrees of freedom. SE tolerance, fixed
        # before the first run: 1e-10 relative.
        ent, year, rng = two_block_panel()
        x = rng.normal(size=len(ent))
        y = 0.5 * x + rng.normal(size=len(ent))
        ds = from_long([f"E{e}" for e in ent], (2010 + year).tolist(), {"x": x, "y": y})
        fit = ols_fit(ds, ModelSpec("y", ("x",), fe_dims=("entity", "year")))
        assert fit.notes["absorbed_df"] == 14
        ones = np.ones(len(ent))
        xt = dummy_residuals(x[:, None], [ent, year], ones)[:, 0]
        e = dummy_residuals(y[:, None], [ent, year], ones)[:, 0] - fit.coefficients["x"] * xt
        se = np.sqrt(e @ e / (len(ent) - 1 - 14) / (xt @ xt))
        assert fit.se("x") == pytest.approx(se, rel=1e-10)


class TestMle:
    def test_quadratic_converges_in_one_step(self):
        A = np.array([[2.0, 0.3], [0.3, 1.0]])
        b = np.array([1.0, -2.0])

        calls = []

        def objective(t):
            calls.append(t.copy())
            return -0.5 * t @ A @ t + b @ t, b - A @ t, no_entity_block(-A)

        res = mle_fit(objective, np.array([5.0, -7.0]))
        assert res.iterations == 1
        assert np.allclose(res.params, np.linalg.solve(A, b), atol=1e-12)
        assert np.allclose(res.vcov, np.linalg.inv(A), atol=1e-12)

    def test_gradient_norm_below_tol_and_positive_vcov(self):
        def objective(t):
            return -((t[0] - 3.0) ** 4) - t[0] ** 2, np.array([-4 * (t[0] - 3) ** 3 - 2 * t[0]]), no_entity_block(np.array([[-12 * (t[0] - 3) ** 2 - 2.0]]))

        res = mle_fit(objective, np.array([0.0]))
        assert res.grad_norm < 1e-8
        assert res.vcov[0, 0] > 0

    def test_non_finite_start_errors(self):
        def objective(t):
            return np.inf, np.zeros(1), no_entity_block(-np.eye(1))

        with pytest.raises(ValidationError, match="starting point"):
            mle_fit(objective, np.zeros(1))

    def test_max_iter_reports_gradient_norm(self, monkeypatch):
        # gradient never vanishes: linear objective with fake curvature
        def objective(t):
            return float(t[0]), np.array([1.0]), no_entity_block(np.array([[-1e-8]]))

        monkeypatch.setattr(estim, "MAX_ITER", 5)
        with pytest.raises(ConvergenceError, match="no convergence in 5 iterations; final gradient max-norm"):
            mle_fit(objective, np.zeros(1))


class TestBootstrap:
    def test_same_seed_bit_identical(self):
        rng = np.random.default_rng(2)
        ds = iid_panel(60, {"y": rng.normal(size=60)})

        def refit(picks):
            return np.array([np.nanmean(take_entities(ds, picks).column("y"))])

        spec = VcovSpec("cluster_bootstrap", replications=50, seed=123)
        v1 = bootstrap_vcov(refit, ds, spec)
        v2 = bootstrap_vcov(refit, ds, spec)
        assert np.array_equal(v1.vcov, v2.vcov)

    def test_se_of_mean_matches_analytic(self):
        rng = np.random.default_rng(77)
        y = rng.standard_normal(500)
        ds = iid_panel(500, {"y": y})

        def refit(picks):
            return np.array([np.nanmean(take_entities(ds, picks).column("y"))])

        spec = VcovSpec("cluster_bootstrap", replications=999, seed=5)
        res = bootstrap_vcov(refit, ds, spec)
        se = np.sqrt(res.vcov[0, 0])
        target = y.std(ddof=1) / np.sqrt(500)
        assert abs(se - target) / target < 0.10

    def test_single_failure_dropped_and_counted(self):
        rng = np.random.default_rng(4)
        ds = iid_panel(30, {"y": rng.normal(size=30)})
        calls = {"n": 0}

        def refit(picks):
            calls["n"] += 1
            if calls["n"] == 3:
                raise ConvergenceError("boom")
            return np.array([np.nanmean(take_entities(ds, picks).column("y"))])

        res = bootstrap_vcov(refit, ds, VcovSpec("cluster_bootstrap", replications=30, seed=9))
        assert res.n_failed == 1
        assert res.n_used == 29

    def test_all_failures_error(self):
        ds = iid_panel(10, {"y": np.ones(10)})

        def refit(picks):
            raise ConvergenceError("always")

        with pytest.raises(ConvergenceError, match="all 5"):
            bootstrap_vcov(refit, ds, VcovSpec("cluster_bootstrap", replications=5, seed=1))

    def test_library_bug_is_not_a_failed_replicate(self):
        ds = iid_panel(10, {"y": np.ones(10)})

        def refit(picks):
            raise TypeError("a bug, not an estimation failure")

        with pytest.raises(TypeError, match="a bug"):
            bootstrap_vcov(refit, ds, VcovSpec("cluster_bootstrap", replications=5, seed=1))

    def test_zero_replications_rejected(self):
        for replications in (0, 1):
            with pytest.raises(ValidationError):
                VcovSpec("cluster_bootstrap", replications=replications, seed=1)

    def test_seed_required(self):
        with pytest.raises(ValidationError):
            VcovSpec("cluster_bootstrap", replications=10)

    def test_vcov_symmetric_psd(self):
        rng = np.random.default_rng(15)
        n = 40
        ds = from_long(
            np.repeat([f"E{i}" for i in range(n)], 3),
            [2010, 2011, 2012] * n,
            {"x": rng.normal(size=3 * n), "y": rng.normal(size=3 * n)},
        )

        def refit(picks):
            f = ols_fit(take_entities(ds, picks), ModelSpec("y", ("x",)))
            return np.array([f.coefficients["x"], f.coefficients["_cons"]])

        res = bootstrap_vcov(refit, ds, VcovSpec("cluster_bootstrap", replications=80, seed=3))
        V = res.vcov
        assert np.max(np.abs(V - V.T)) < 1e-10
        assert np.min(np.linalg.eigvalsh(V)) > -1e-10


class TestVif:
    def test_orthogonal_regressors_unit_vif(self):
        x1 = np.array([1.0, -1.0, 1.0, -1.0])
        x2 = np.array([1.0, 1.0, -1.0, -1.0])
        ds = iid_panel(4, {"x1": x1, "x2": x2})
        out = vif(ds, ["x1", "x2"])
        assert out["x1"] == pytest.approx(1.0, abs=1e-10)
        assert out["x2"] == pytest.approx(1.0, abs=1e-10)

    def test_correlation_point_eight_closed_form(self):
        # build sample correlation exactly 0.8 from orthonormal pieces
        n = 50
        rng = np.random.default_rng(21)
        a = rng.normal(size=n)
        b = rng.normal(size=n)
        a = (a - a.mean()) / a.std()
        b = b - b.mean()
        b -= (b @ a) / (a @ a) * a
        b /= b.std()
        x2 = 0.8 * a + np.sqrt(1 - 0.64) * b
        ds = iid_panel(n, {"x1": a, "x2": x2})
        out = vif(ds, ["x1", "x2"])
        # independent oracle: closed form 1 / (1 - r^2)
        r = np.corrcoef(a, x2)[0, 1]
        assert out["x1"] == pytest.approx(1.0 / (1.0 - r**2), abs=1e-6)
        assert out["x1"] == pytest.approx(1.0 / (1.0 - 0.64), abs=1e-6)

    def test_exact_collinearity_names_column(self):
        x = np.arange(10.0)
        ds = iid_panel(10, {"x1": x, "x2": x.copy()})
        with pytest.raises(CollinearityError, match="x1|x2"):
            vif(ds, ["x1", "x2"])

    def test_constant_column_named(self):
        # the mean of twenty 0.1s is not 0.1, so centring leaves rounding noise
        ds = iid_panel(20, {"x1": np.arange(20.0), "x2": np.full(20, 0.1)})
        with pytest.raises(CollinearityError, match="'x2' is constant"):
            vif(ds, ["x1", "x2"])

    def test_scale_invariance(self):
        rng = np.random.default_rng(31)
        x1 = rng.normal(size=30)
        x2 = x1 * 0.5 + rng.normal(size=30)
        ds = iid_panel(30, {"x1": x1, "x2": x2, "x2s": 100 * x2})
        v1 = vif(ds, ["x1", "x2"])
        v2 = vif(ds, ["x1", "x2s"])
        assert v1["x2"] == pytest.approx(v2["x2s"], rel=1e-10)
        assert v1["x1"] == pytest.approx(v2["x1"], rel=1e-10)

    def test_needs_two_regressors(self):
        ds = iid_panel(5, {"x": np.arange(5.0)})
        with pytest.raises(ValidationError):
            vif(ds, ["x"])


class TestWald:
    def fit_with(self, coefficients, vcov):
        return FitResult(coefficients=coefficients, vcov=np.asarray(vcov), n_obs=100)

    def test_zero_coefficients_give_zero_stat(self):
        fit = self.fit_with({"a": 0.0, "b": 0.0}, np.eye(2))
        stat, df, p = wald_chi2(fit, ["a", "b"])
        assert stat == 0.0 and df == 2 and p == pytest.approx(1.0)

    def test_scalar_reduction(self):
        fit = self.fit_with({"a": 1.5}, [[0.25]])
        stat, df, p = wald_chi2(fit, ["a"])
        assert stat == pytest.approx(1.5**2 / 0.25, rel=1e-12)
        assert df == 1

    def test_two_by_two_hand_inverted_oracle(self):
        beta = np.array([0.7, -0.3])
        V = np.array([[0.04, 0.01], [0.01, 0.09]])
        fit = self.fit_with({"a": beta[0], "b": beta[1]}, V)
        stat, df, _ = wald_chi2(fit, ["a", "b"])
        det = V[0, 0] * V[1, 1] - V[0, 1] * V[1, 0]
        Vinv = np.array([[V[1, 1], -V[0, 1]], [-V[1, 0], V[0, 0]]]) / det
        expected = float(beta @ Vinv @ beta)
        assert abs(stat - expected) < 1e-10

    def test_reorder_invariance(self):
        rng = np.random.default_rng(8)
        A = rng.normal(size=(3, 3))
        V = A @ A.T + np.eye(3)
        fit = self.fit_with({"a": 1.0, "b": -2.0, "c": 0.5}, V)
        s1, *_ = wald_chi2(fit, ["a", "b", "c"])
        s2, *_ = wald_chi2(fit, ["c", "a", "b"])
        assert s1 == pytest.approx(s2, rel=1e-12)

    def test_unknown_name_errors(self):
        fit = self.fit_with({"a": 1.0}, [[1.0]])
        with pytest.raises(ValidationError, match="zz"):
            wald_chi2(fit, ["zz"])

    def test_singular_block_errors(self):
        V = np.array([[1.0, 1.0], [1.0, 1.0]])
        fit = self.fit_with({"a": 1.0, "b": 2.0}, V)
        with pytest.raises(ValidationError, match="singular"):
            wald_chi2(fit, ["a", "b"])


class TestLinearIndex:
    def test_applies_coefficients_and_dummies(self):
        ds = from_long(
            ["A", "A", "B", "B"],
            [2010, 2011, 2010, 2011],
            {"x": [1.0, 2.0, 3.0, np.nan]},
        )
        fit = FitResult(
            coefficients={"x": 2.0, "year=2011": 0.5, "_cons": 1.0},
            vcov=np.zeros((3, 3)),
            n_obs=4,
            notes={"fe_dummies": {"year=2011": ("year", 2011)}},
        )
        got = linear_index(fit, ds)
        assert got[0] == pytest.approx(3.0)
        assert got[1] == pytest.approx(5.5)
        assert got[2] == pytest.approx(7.0)
        assert np.isnan(got[3])

    def test_categorical_dim_missing_and_unseen_levels(self):
        rng = np.random.default_rng(21)
        n_e, n_t = 40, 4
        ents = np.repeat([f"E{i}" for i in range(n_e)], n_t)
        yrs = list(range(2010, 2010 + n_t)) * n_e
        region = np.repeat(rng.integers(1, 4, size=n_e).astype(float), n_t)
        x = rng.normal(size=n_e * n_t)
        y = x + 0.5 * region + rng.normal(size=n_e * n_t)
        region[:n_t] = np.nan  # first entity: region missing
        region[n_t:2 * n_t] = 9.0  # second entity: a level the fit never sees
        y[n_t:2 * n_t] = np.nan
        ds = from_long(ents, yrs, {"y": y, "x": x, "region": region})
        fit = cqr_fit(ds, CqrSpec("y", ("x",), tau=0.5, fe_dims=("year", "region")))
        assert list(fit.coefficients) == [
            "x", "year=2011", "year=2012", "year=2013", "region=2.0", "region=3.0", "_cons",
        ]
        assert fit.notes["fe_dummies"]["region=2.0"] == ("region", 2.0)
        assert fit.notes["fe_dummies"]["year=2012"] == ("year", 2012)
        got = linear_index(fit, ds)
        assert np.all(np.isnan(got[:n_t]))
        c = fit.coefficients
        year_effect = np.array([0.0, c["year=2011"], c["year=2012"], c["year=2013"]])
        unseen = c["x"] * x[n_t:2 * n_t] + year_effect + c["_cons"]
        assert np.allclose(got[n_t:2 * n_t], unseen, rtol=0, atol=1e-12)

    def test_entity_dummies_read_back_as_the_design(self):
        rng = np.random.default_rng(31)
        n_e, n_t = 15, 8
        ents = np.repeat([f"F{i:02d}" for i in range(n_e)], n_t)
        yrs = list(range(2000, 2000 + n_t)) * n_e
        x = rng.normal(size=n_e * n_t)
        c = rng.poisson(np.exp(0.5 * x + np.repeat(rng.normal(size=n_e), n_t))).astype(float)
        c[0::n_t] += 1.0  # no entity has an all-zero total
        x[5] = np.nan
        ds = from_long(ents, yrs, {"c": c, "x": x})
        fit = nb2_fit(ds, CountSpec("c", ("x",), "nb2", year_fe=False))
        rows = np.isfinite(x)
        labels = np.repeat([f"F{i:02d}" for i in range(n_e)], n_t)[rows]
        # a dummy per entity and no intercept: the entity effects are absolute
        X = np.column_stack([x[rows]] + [(labels == f"F{i:02d}").astype(float) for i in range(n_e)])
        # the entity effects are read from the notes, not the coefficients
        effects = fit.notes["entity_effects"]
        assert list(effects) == [f"F{i:02d}" for i in range(n_e)]
        assert list(fit.coefficients) == ["x"]
        expected = X @ np.array([fit.coefficients["x"], *[effects[f"F{i:02d}"] for i in range(n_e)]])
        got = linear_index(fit, ds)
        assert np.allclose(got[rows], expected, rtol=0, atol=1e-12)
        assert np.isnan(got[5])


class TestDesignMatrix:
    def panel(self):
        # entities listed out of label order: levels follow the dataset's order
        ents = ["E2", "E2", "E2", "E0", "E0", "E0", "E1", "E1", "E1", "E3", "E3", "E3"]
        yrs = [2010, 2011, 2012] * 4
        cols = {
            "x": [0.5, 1.0, -2.0, 3.0, 0.25, 4.0, -1.0, 2.5, 1.5, 0.0, 7.0, -3.0],
            "region": [2.0, 2.0, 2.0, 5.0, 5.0, 5.0, 2.0, 2.0, 2.0, 1.5, 1.5, np.nan],
        }
        return from_long(ents, yrs, cols)

    def test_matches_per_level_indicators(self):
        ds = self.panel()
        # drop the year 2010 and every row of E3 except one, plus the NaN region
        mask = np.isfinite(ds.column("region")) & (ds.row_years() != 2010)
        mask[10] = False
        values = {
            "entity": np.array([ds.entities[i] for i in ds.entity_index()], dtype=object)[mask],
            "year": ds.row_years()[mask],
            "region": ds.column("region")[mask],
        }
        levels = {
            "entity": list(dict.fromkeys(values["entity"])),
            "year": sorted({int(v) for v in values["year"]}),
            "region": sorted({float(v) for v in values["region"]}),
        }
        assert levels["entity"] == ["E2", "E0", "E1"]
        assert levels["region"] == [2.0, 5.0]
        dims = ("entity", "year", "region")
        X, names, mapping = design_matrix(ds, mask, ["x"], dims, intercept=True)

        cols = [ds.column("x")[mask]]
        want_names = ["x"]
        for dim in dims:
            for level in levels[dim][1:]:
                cols.append((values[dim] == level).astype(float))
                want_names.append(f"{dim}={level}")
                assert mapping[want_names[-1]] == (dim, level)
        cols.append(np.ones(int(mask.sum())))
        want_names.append("_cons")
        assert names == want_names == ["x", "entity=E0", "entity=E1", "year=2012", "region=5.0", "_cons"]
        assert len(mapping) == 4
        assert np.array_equal(X, np.column_stack(cols))
        assert X.dtype == np.float64 and X.flags.c_contiguous

    def test_codes_and_levels(self):
        ds = self.panel()
        mask = np.isfinite(ds.column("region"))
        codes, levels = fe_codes(ds, "entity", mask)
        assert levels == ["E2", "E0", "E1", "E3"]
        assert codes.tolist() == [0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3]
        codes, levels = fe_codes(ds, "region", mask)
        assert levels == [1.5, 2.0, 5.0]
        assert codes.tolist() == [1, 1, 1, 2, 2, 2, 1, 1, 1, 0, 0]


def dense_hessian(H: BlockHessian) -> np.ndarray:
    """The full matrix a BlockHessian stands for: the dense block, then the entity effects."""
    return np.block([[H.A, H.C.T], [H.C, np.diag(H.d)]])


def max_rel_gap(a, b) -> float:
    """Largest absolute gap relative to the largest absolute reference entry."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


class TestFeCodes:
    @pytest.mark.parametrize("dropped", [(), (1,), (0, 3), (2, 3)])
    def test_entity_levels_equal_the_per_label_lookup(self, dropped):
        # the levels are the dataset's own label objects of the entities
        # present, in dataset order, as a per-code lookup gives them
        ds = synthdgp.generate_panel(synthdgp.DgpConfig(n_entities=5, n_periods=3, seed=80))
        mask = ~np.isin(ds.entity_index(), dropped)
        codes, levels = fe_codes(ds, "entity", mask)
        present, expected_codes = np.unique(ds.entity_index()[mask], return_inverse=True)
        expected = [ds.entities[i] for i in present]
        assert type(levels) is list and levels == expected
        assert all(a is b for a, b in zip(levels, expected))
        assert np.array_equal(codes, expected_codes)

    def test_an_entity_drawn_twice_is_one_entity(self):
        # a replicate's rows are the drawn entities' row blocks in draw order,
        # less the rows outside the mask; an entity drawn twice has its rows
        # twice and keeps one code and one level
        ds = synthdgp.generate_panel(synthdgp.DgpConfig(n_entities=5, n_periods=3, seed=80))
        mask = np.arange(ds.n_rows) != 7
        rows = draw_rows(ds, np.array([2, 0, 2]), mask)
        assert rows.tolist() == [6, 8, 0, 1, 2, 6, 8]
        codes, present = sample_codes(ds, rows, "entity")
        assert codes.tolist() == [1, 1, 0, 0, 0, 1, 1] and present.tolist() == [0, 2]
        codes, levels = fe_codes(ds, "entity", rows)
        assert codes.tolist() == [1, 1, 0, 0, 0, 1, 1] and levels == [ds.entities[0], ds.entities[2]]


class TestBlockHessian:
    # tolerance, fixed before the first run: relative 1e-10 in the max norm
    TOL = 1e-10

    def blocks(self, seed):
        """A negative definite Hessian over [2 slopes, 2 year effects, _cons,
        log alpha, 6 entity effects] whose entity block is diagonal."""
        rng = np.random.default_rng(seed)
        m, E1 = 5, 6
        d = -rng.uniform(0.5, 20.0, size=E1)
        C = rng.normal(size=(E1, m + 1))
        M = rng.normal(size=(m + 1, m + 1))
        # A chosen so the Schur complement A - C' diag(1/d) C is -(M M' + I)
        A = -(M @ M.T + np.eye(m + 1)) + C.T @ (C / d[:, None])
        A = (A + A.T) / 2.0
        return BlockHessian(A, C, d), rng.normal(size=m + 1 + E1)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_solve_and_inverse_match_dense(self, seed):
        H, g = self.blocks(seed)
        dense = dense_hessian(H)
        assert np.all(np.linalg.eigvalsh(dense) < 0)
        assert max_rel_gap(_newton_direction(g, H), np.linalg.solve(-dense, g)) < self.TOL
        # only the dense block of the inverse is built
        k = len(H.A)
        assert max_rel_gap(_hessian_vcov(H), np.linalg.inv(-dense)[:k, :k]) < self.TOL

    @pytest.mark.parametrize("seed", [5, 6])
    def test_indefinite_entity_block_is_refused(self, seed):
        H, _ = self.blocks(seed)
        # flip the largest entity diagonal to positive and re-solve A so that the
        # Schur complement stays -(M M' + I): V_dd alone then looks valid
        j = int(np.argmax(np.abs(H.d)))
        d = H.d.copy()
        d[j] = -d[j]
        S = H.A - H.C.T @ (H.C / H.d[:, None])
        A = S + H.C.T @ (H.C / d[:, None])
        flipped = H._replace(A=(A + A.T) / 2.0, d=d)
        assert np.all(np.linalg.eigvalsh(flipped.A - flipped.C.T @ (flipped.C / d[:, None])) < 0)
        pos = len(flipped.A) + j
        assert np.linalg.inv(-dense_hessian(flipped))[pos, pos] <= 0
        with pytest.raises(ConvergenceError, match="indefinite"):
            _hessian_vcov(flipped)

    def test_non_finite_hessian_is_named(self):
        H, g = self.blocks(4)
        flat = H._replace(d=np.zeros_like(H.d))  # the step through 1/d is not finite
        with pytest.raises(ConvergenceError, match="Hessian is not finite"):
            _newton_direction(g, flat)

    @pytest.mark.parametrize("seed", [4, 7])
    def test_indefinite_schur_complement_takes_first_ascent_shift(self, seed):
        H, g = self.blocks(seed)
        # re-solve A so that the Schur complement S has the eigenvalue -5 along
        # Q's first column, and send the reduced gradient g_dense - Cd' g_entity
        # along it: the Newton step then descends, and a shift of S ascends only
        # once lam is near 5
        rng = np.random.default_rng(seed)
        m = len(H.A)
        Q, _ = np.linalg.qr(rng.normal(size=(m, m)))
        S = Q @ np.diag([-5.0, *np.linspace(1.0, 4.0, m - 1)]) @ Q.T
        Cd = H.C / H.d[:, None]
        A = Cd.T @ H.C - S
        shifted = H._replace(A=(A + A.T) / 2.0)
        g = g.copy()
        g[:m] = 100.0 * Q[:, 0] + Cd.T @ g[m:]
        dense = dense_hessian(shifted)
        assert np.linalg.solve(-dense, g) @ g < 0
        # (-H_lam)^-1 g for H_lam, H with lam subtracted from its dense diagonal,
        # at the first rung lam = lam0 * 10^k where that is an ascent direction
        lam0 = 1e-8 * max(float(np.max(np.abs(np.diag(S)))), 1.0)
        on_dense = np.zeros(len(g))
        on_dense[:m] = 1.0
        for k in range(LM_SHIFTS):
            expected = np.linalg.solve(-dense + lam0 * 10.0**k * np.diag(on_dense), g)
            if expected @ g > 0:
                break
        assert 0 < k < LM_SHIFTS - 1
        step = _newton_direction(g, shifted)
        assert np.all(np.isfinite(step)) and step @ g > 0
        assert max_rel_gap(step, expected) < self.TOL


class TestEntityLayout:
    # tolerance, fixed before the first run: relative 1e-12 in the max norm
    TOL = 1e-12

    def panel(self):
        ds = synthdgp.generate_panel(synthdgp.DgpConfig(
            n_entities=25, n_periods=5, seed=71,
            counts=synthdgp.CountConfig(slope_rdint=0.5, entity_sd=0.5, alpha=0.6, family="nb2"),
        ))
        mask = np.ones(ds.n_rows, dtype=bool)
        mask[[3, 17, 60]] = False  # unbalanced rows
        return ds, mask

    def designs(self, ds, mask, fe_dims):
        X, names, mapping, layout = newton_design(ds, mask, ["RDINT_star", "X1"], fe_dims, True)
        Xd, names_d, mapping_d = design_matrix(ds, mask, ["RDINT_star", "X1"], fe_dims, True)
        # names and fe_dummies describe X's columns only: design_matrix's less
        # the entity dummies, whose effects follow X's columns
        entity = [mapping_d.get(nm, ("",))[0] == "entity" for nm in names_d]
        order = np.argsort(entity, kind="stable")
        assert names == [names_d[j] for j in order[: len(names)]]
        assert list(mapping.items()) == [(nm, v) for nm, v in mapping_d.items() if v[0] != "entity"]
        assert X.shape[1] == len(names) == layout.n_dense == len(names_d) - 24 and layout.n_entity == 24
        return X, layout, Xd[:, order]

    def check(self, layout_parts, dense_parts, order=None):
        """The parts on the layout against those on the dense design, whose
        parameters taken in ``order`` (all of them by default) are the layout's."""
        ll, g, H = layout_parts
        ll_d, g_d, H_d = dense_parts
        order = np.arange(len(g)) if order is None else order
        assert isinstance(H, BlockHessian)
        assert abs(ll - ll_d) <= self.TOL * abs(ll_d)
        assert max_rel_gap(g, g_d[order]) < self.TOL
        assert max_rel_gap(dense_hessian(H), H_d.A[np.ix_(order, order)]) < self.TOL

    def test_count_parts_match_dummy_design(self):
        ds, mask = self.panel()
        X, layout, Xd = self.designs(ds, mask, ("entity", "year"))
        y = ds.column("PAT")[mask]
        lgy1 = np.array([math.lgamma(v + 1.0) for v in y])
        rng = np.random.default_rng(5)
        beta = 0.3 * rng.normal(size=Xd.shape[1])
        # log alpha is the last dense parameter: after X's columns on the
        # layout, after every column on the dense design
        m = layout.n_dense
        self.check(_nb2_parts(np.insert(beta, m, np.log(0.6)), y, X, lgy1, layout=layout),
                   _nb2_parts(np.append(beta, np.log(0.6)), y, Xd, lgy1, one_level(Xd)),
                   np.r_[:m, len(beta), m:len(beta)])
        self.check(_poisson_parts(beta, y, X, lgy1, layout), _poisson_parts(beta, y, Xd, lgy1, one_level(Xd)))

    def test_probit_parts_match_dummy_design(self):
        ds, mask = self.panel()
        # entity after year: design_matrix puts the entity dummies between the
        # year dummies and _cons, the layout its effects after _cons
        X, layout, Xd = self.designs(ds, mask, ("year", "entity"))
        assert layout.n_dense == 7
        y = (ds.column("PAT")[mask] > 0).astype(float)
        beta = 0.3 * np.random.default_rng(6).normal(size=Xd.shape[1])
        self.check(_probit_parts(beta, y, X, layout), _probit_parts(beta, y, Xd, one_level(Xd)))

    def test_entity_sums_add_in_row_order(self):
        # a vector's and an n x n_dense matrix's sums add each entity's rows
        # in row order, as a sequential np.add.at does, so they agree with it
        # bit for bit, with rows not grouped by entity
        ds, mask = self.panel()
        _, layout, _ = self.designs(ds, mask, ("entity", "year"))
        order = np.random.default_rng(8).permutation(len(layout.codes))
        layout = EntityLayout.from_codes(layout.codes[order], 25, 3)
        V = np.random.default_rng(9).normal(size=(len(order), 3))
        for v in (V[:, 0], V):
            oracle = np.zeros((25, *v.shape[1:]))
            np.add.at(oracle, layout.codes, v)
            assert np.array_equal(layout.entity_sums(v), oracle[1:])
        assert np.array_equal(layout.entity_sums(V[:, 0]), layout.entity_sums(V)[:, 0])

    def test_no_entity_fe_is_the_dense_design(self):
        ds, mask = self.panel()
        X, names, mapping, layout = newton_design(ds, mask, ["X1"], ("year",), True)
        Xd, names_d, mapping_d = design_matrix(ds, mask, ["X1"], ("year",), True)
        assert layout.n_entity == 0 and layout.n_dense == X.shape[1]
        assert np.array_equal(X, Xd) and names == names_d and mapping == mapping_d

    def one_row_entities(self):
        return from_long([f"E{i}" for i in range(5)], [2010] * 5,
                         {"d": [0.0, 1.0, 0.0, 1.0, 1.0], "c": [1.0, 2.0, 3.0, 1.0, 2.0],
                          "x": [0.3, -1.2, 0.8, 0.1, -0.5]})

    @pytest.mark.parametrize("fit, message", [
        # probit refuses entity effects, so its 6 parameters are x, _cons
        # and the 4 year effects of one entity over five years
        (lambda ds: probit_fit(from_long(["E0"] * 5, list(range(2010, 2015)),
                                         {"d": ds.column("d"), "x": ds.column("x")}), "d", ["x"], fe_dims=("year",)),
         "only 5 complete cases for 6 probit parameters"),
        # a count fit drops one-row entities, so NB2 gets the same 5 rows as
        # two entities over four years: x, three year effects, _cons and one
        # entity effect
        (lambda ds: nb2_fit(from_long(["E0"] * 3 + ["E1"] * 2, [2010, 2011, 2012, 2012, 2013],
                                      {"c": ds.column("c"), "x": ds.column("x")}), CountSpec("c", ("x",), "nb2")),
         "only 5 complete cases for 6 parameters"),
        (lambda ds: cqr_fit(ds, CqrSpec("c", ("x",), fe_dims=("entity",))), "only 5 complete cases for 6 parameters"),
    ])
    def test_size_checks_count_the_entity_effects(self, fit, message):
        # one row per entity: the 5 rows cover the 2 parameters of X (x and
        # _cons) but not those plus the 4 entity effects
        with pytest.raises(ValidationError, match=f"^{message}$"):
            fit(self.one_row_entities())

    @pytest.mark.parametrize("family", ["poisson_fe", "nb2"])
    def test_count_sample_names_the_single_row_cause(self, family):
        # every entity has one complete row and a positive count total
        fit = poisson_fe_fit if family == "poisson_fe" else nb2_fit
        with pytest.raises(ValidationError, match="^every entity has a single complete row; nothing to estimate$"):
            fit(self.one_row_entities(), CountSpec("c", ("x",), family))


class TestNewtonNotes:
    def test_fits_keep_newton_iterations_and_grad_norm(self):
        from cdmpanel import CountSpec, nb2_fit, poisson_fe_fit

        ds = synthdgp.generate_panel(synthdgp.DgpConfig(n_entities=30, n_periods=5, seed=72))
        fits = [
            nb2_fit(ds, CountSpec("PAT", ("RDINT_star",), "nb2")),
            poisson_fe_fit(ds, CountSpec("PAT", ("RDINT_star",), "poisson_fe")),
            probit_fit(ds, "D", ["Z", "X1"], fe_dims=("year",)),
        ]
        for fit in fits:
            assert isinstance(fit.notes["newton_iterations"], int)
            assert fit.notes["newton_iterations"] >= 1
            assert 0.0 <= fit.notes["grad_norm"] < 1e-8
