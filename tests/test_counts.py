import warnings

import numpy as np
import pytest
from scipy.special import gammaln

from cdmpanel import (
    CalibrationRule,
    CountSpec,
    ValidationError,
    calibrate_predictions,
    from_long,
    nb2_fit,
    patent_intensity,
    poisson_fe_fit,
)
from cdmpanel import counts, estim, synthdgp
from cdmpanel.counts import _nb2_parts
from cdmpanel.exceptions import CollinearityError, ConvergenceError
from cdmpanel.panel import take_entities


def dummy_poisson_oracle(y, X, tol=1e-10, max_iter=200):
    """Test-local Newton solver for the unconditional Poisson MLE."""
    beta = np.zeros(X.shape[1])
    for _ in range(max_iter):
        mu = np.exp(X @ beta)
        grad = X.T @ (y - mu)
        if np.max(np.abs(grad)) < tol:
            return beta
        H = (X * mu[:, None]).T @ X
        beta = beta + np.linalg.solve(H, grad)
    raise AssertionError("oracle failed to converge")


def one_level(X):
    """The EntityLayout of a design without entity effects (an empty entity block)."""
    return estim.EntityLayout.from_codes(np.zeros(len(X), dtype=np.intp), 1, X.shape[1])


def count_panel(seed, n_entities, n_periods, slope=0.5, entity_sd=0.4, alpha=0.0, family="poisson"):
    cfg = synthdgp.DgpConfig(
        n_entities=n_entities,
        n_periods=n_periods,
        seed=seed,
        counts=synthdgp.CountConfig(
            slope_rdint=slope, entity_sd=entity_sd, alpha=alpha, family=family
        ),
    )
    return synthdgp.generate_panel(cfg)


class TestPoissonFe:
    def test_conditional_matches_dummy_variable_mle(self):
        ds = count_panel(seed=21, n_entities=20, n_periods=5)
        spec = CountSpec("PAT", ("RDINT_star",), "poisson_fe", entity_fe=True, year_fe=False)
        fit = poisson_fe_fit(ds, spec)

        y = ds.column("PAT")
        x = ds.column("RDINT_star")
        ent = ds.entity_index()
        keep = np.isin(ent, [e for e in np.unique(ent) if y[ent == e].sum() > 0])
        yk, xk, entk = y[keep], x[keep], ent[keep]
        levels = {e: i for i, e in enumerate(np.unique(entk))}
        D = np.zeros((len(yk), len(levels)))
        for i, e in enumerate(entk):
            D[i, levels[e]] = 1.0
        beta = dummy_poisson_oracle(yk, np.column_stack([xk, D]))
        assert abs(fit.coefficients["RDINT_star"] - beta[0]) < 1e-6

    def test_all_zero_entity_excluded_and_counted(self):
        ds = from_long(
            ["A", "A", "B", "B"],
            [2010, 2011, 2010, 2011],
            {"c": [0.0, 0.0, 1.0, 3.0], "x": [0.1, 0.5, 0.2, 0.9]},
        )
        fit = poisson_fe_fit(ds, CountSpec("c", ("x",), "poisson_fe", year_fe=False))
        assert fit.notes["dropped_entities"] == 1
        assert "A" not in fit.notes["entity_effects"]
        assert "B" in fit.notes["entity_effects"]

    def test_entity_screens_match_per_entity_loop(self):
        rng = np.random.default_rng(41)
        n_e, n_t = 30, 4
        ents = np.repeat([f"E{i}" for i in range(n_e)], n_t)
        yrs = list(range(2010, 2010 + n_t)) * n_e
        c = rng.poisson(1.0, size=n_e * n_t).astype(float)
        c[0:n_t] = 0.0  # all-zero entity
        x = rng.normal(size=n_e * n_t)
        x[n_t + 1:2 * n_t] = np.nan  # entity left with a single complete row
        c[2 * n_t:3 * n_t:2] = np.nan
        # varies within exactly one entity that the screen drops
        near = np.repeat(rng.normal(size=n_e), n_t)
        near[1] += 1.0
        ds = from_long(ents, yrs, {"c": c, "x": x, "near": near,
                                   "step": np.repeat(np.arange(n_e, dtype=float), n_t)})
        fit = poisson_fe_fit(ds, CountSpec("c", ("x",), "poisson_fe", year_fe=False))

        # reference: the screens written as per-entity loops
        ok = np.isfinite(c) & np.isfinite(x)
        ent = ds.entity_index()
        kept = [e for e in range(n_e) if (ok & (ent == e)).sum() >= 2 and c[ok & (ent == e)].sum() > 0]
        rows = ok & np.isin(ent, kept)
        constant = []
        for name in ("x", "near", "step"):
            v = ds.column(name)
            tol = 1e-12 * (1 + np.max(np.abs(v[rows])))
            if all(np.ptp(v[rows & (ent == e)]) <= tol for e in kept):
                constant.append(name)
        assert fit.notes["dropped_entities"] == n_e - len(kept) == 2
        assert fit.n_obs == int(rows.sum())
        assert list(fit.notes["entity_effects"]) == [f"E{e}" for e in kept]
        # the regressors constant within every kept entity are named, not absorbed
        assert constant == ["near", "step"]
        for name in constant:
            with pytest.raises(CollinearityError, match=f"column '{name}'"):
                poisson_fe_fit(ds, CountSpec("c", ("x", name), "poisson_fe", year_fe=False))

    def test_all_entities_zero_errors(self):
        ds = from_long(["A", "A"], [2010, 2011], {"c": [0.0, 0.0], "x": [0.1, 0.5]})
        with pytest.raises(ValidationError, match="all-zero"):
            poisson_fe_fit(ds, CountSpec("c", ("x",), "poisson_fe", year_fe=False))

    def test_slope_recovery_monte_carlo_scale(self):
        ds = count_panel(seed=22, n_entities=200, n_periods=5, slope=0.5)
        spec = CountSpec("PAT", ("RDINT_star",), "poisson_fe", entity_fe=True, year_fe=False)
        fit = poisson_fe_fit(ds, spec)
        assert abs(fit.coefficients["RDINT_star"] - 0.5) < 3 * fit.se("RDINT_star")

    def test_entity_constant_column_named(self):
        ds = count_panel(seed=23, n_entities=40, n_periods=5)
        ds = ds.with_column("const_by_entity", np.repeat(np.arange(40, dtype=float), 5))
        spec = CountSpec("PAT", ("RDINT_star", "const_by_entity"), "poisson_fe", year_fe=False)
        with pytest.raises(CollinearityError, match="column 'const_by_entity'"):
            poisson_fe_fit(ds, spec)

    def test_non_integer_count_rejected(self):
        ds = from_long(["A", "A", "B", "B"], [2010, 2011, 2010, 2011],
                       {"c": [1.0, 2.4999, 3.0, 1.0], "x": [0.1, 0.2, 0.3, 0.4]})
        with pytest.raises(ValidationError, match="2.4999"):
            poisson_fe_fit(ds, CountSpec("c", ("x",), "poisson_fe", year_fe=False))


def conditional_poisson_oracle(beta, y, X, ent):
    """Test-local conditional FE Poisson: loglik, score and Hessian in beta,
    each entity's counts conditioned on its total T_i (multinomial with
    shares p_it = exp(x_it'b) / sum_s exp(x_is'b))."""
    ll = float(np.sum(gammaln(np.bincount(ent, weights=y) + 1.0)) - np.sum(gammaln(y + 1.0)))
    grad = np.zeros(X.shape[1])
    hess = np.zeros((X.shape[1], X.shape[1]))
    for e in np.unique(ent):
        ye, Xe = y[ent == e], X[ent == e]
        eta = Xe @ beta
        p = np.exp(eta - eta.max())
        p /= p.sum()
        t = ye.sum()
        ll += float(ye @ np.log(p))
        m = p @ Xe
        grad += Xe.T @ ye - t * m
        hess -= t * ((Xe * p[:, None]).T @ Xe - np.outer(m, m))
    return ll, grad, hess


class TestConditionalPoissonOracle:
    def test_oracle_gradient_and_hessian_match_finite_differences(self):
        rng = np.random.default_rng(71)
        n_e, n_t = 8, 4
        ent = np.repeat(np.arange(n_e), n_t)
        X = np.column_stack([rng.normal(size=n_e * n_t), rng.normal(size=n_e * n_t)])
        y = rng.poisson(np.exp(0.4 * X[:, 0] + np.repeat(rng.normal(size=n_e), n_t))).astype(float)
        beta = np.array([0.3, -0.2])
        ll, grad, hess = conditional_poisson_oracle(beta, y, X, ent)
        eps = 1e-6
        for j in range(2):
            bp, bm = beta.copy(), beta.copy()
            bp[j] += eps
            bm[j] -= eps
            lp, gp, _ = conditional_poisson_oracle(bp, y, X, ent)
            lm, gm, _ = conditional_poisson_oracle(bm, y, X, ent)
            assert grad[j] == pytest.approx((lp - lm) / (2 * eps), rel=1e-5, abs=1e-6)
            for i in range(2):
                assert hess[i, j] == pytest.approx((gp[i] - gm[i]) / (2 * eps), rel=1e-4, abs=1e-5)

    @pytest.mark.parametrize("year_fe", [False, True])
    def test_fit_is_the_conditional_optimum(self, year_fe):
        # tolerances fixed before the first run: loglik 1e-10 relative,
        # conditional score max-norm 1e-6, vcov = inv(-H) 1e-7 relative,
        # entity effects 1e-12 relative
        ds = count_panel(seed=73, n_entities=40, n_periods=6)
        pat = ds.column("PAT").copy()
        pat[ds.entity_index() == 3] = 0.0  # one all-zero entity, dropped
        ds = ds.with_replaced({"PAT": pat})
        fit = poisson_fe_fit(ds, CountSpec("PAT", ("RDINT_star",), "poisson_fe", year_fe=year_fe))

        y, x = ds.column("PAT"), ds.column("RDINT_star")
        ent, years = ds.entity_index(), ds.row_years()
        ok = np.isfinite(y) & np.isfinite(x)
        totals = np.bincount(ent[ok], weights=y[ok], minlength=len(ds.entities))
        rows = ok & (totals[ent] > 0)
        cols = [x[rows]]
        if year_fe:
            cols += [(years[rows] == t).astype(float) for t in ds.periods[1:]]
        X = np.column_stack(cols)
        assert fit.names == ("RDINT_star", *(f"year={t}" for t in ds.periods[1:] if year_fe))

        beta = fit.coef_vector()
        ll, grad, hess = conditional_poisson_oracle(beta, y[rows], X, ent[rows])
        assert fit.loglik == pytest.approx(ll, rel=1e-10)
        assert np.max(np.abs(grad)) < 1e-6
        V = np.linalg.inv(-hess)
        assert np.max(np.abs(fit.vcov - V)) <= 1e-7 * np.max(np.abs(V))

        kept = np.flatnonzero(totals > 0)
        denom = np.bincount(ent[rows], weights=np.exp(X @ beta), minlength=len(ds.entities))
        assert fit.notes["dropped_entities"] == 1
        assert list(fit.notes["entity_effects"]) == [ds.entities[e] for e in kept]
        for e in kept:
            assert np.exp(fit.notes["entity_effects"][ds.entities[e]]) == pytest.approx(totals[e] / denom[e], rel=1e-12)


class TestNb2:
    def test_gradient_and_hessian_match_finite_differences(self):
        rng = np.random.default_rng(17)
        n = 60
        X = np.column_stack([rng.normal(size=n), np.ones(n)])
        y = rng.poisson(np.exp(0.3 * X[:, 0])).astype(float)
        lgy1 = gammaln(y + 1.0)
        theta = np.array([0.25, -0.1, np.log(0.7)])
        layout = one_level(X)
        ll, grad, hess = _nb2_parts(theta, y, X, lgy1, layout)
        eps = 1e-6
        for j in range(3):
            tp, tm = theta.copy(), theta.copy()
            tp[j] += eps
            tm[j] -= eps
            lp, gp, _ = _nb2_parts(tp, y, X, lgy1, layout)
            lm, gm, _ = _nb2_parts(tm, y, X, lgy1, layout)
            assert grad[j] == pytest.approx((lp - lm) / (2 * eps), rel=1e-5, abs=1e-5)
            for i in range(3):
                assert hess.A[i, j] == pytest.approx((gp[i] - gm[i]) / (2 * eps), rel=1e-4, abs=1e-4)

    def test_underflowing_alpha_probe_reports_minus_inf(self):
        # a line-search probe at log alpha = -800 underflows exp to 0
        y = np.array([0.0, 1.0, 2.0, 5.0])
        X = np.ones((4, 1))
        ll, grad, hess = _nb2_parts(np.array([0.0, -800.0]), y, X, gammaln(y + 1.0), one_level(X))
        assert ll == -np.inf
        assert grad.shape == (2,) and hess.shape == (2, 2)

    def test_alpha_probe_far_past_the_bound_reports_minus_inf(self):
        # exp(800) overflows: the bound is checked before it is taken
        y = np.array([0.0, 1.0, 2.0, 5.0])
        X = np.ones((4, 1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ll, grad, hess = _nb2_parts(np.array([0.0, 800.0]), y, X, gammaln(y + 1.0), one_level(X))
        assert ll == -np.inf
        assert grad.shape == (2,) and hess.shape == (2, 2)

    # short panels of DGP alpha 2 on which the joint Newton, started at the
    # marginal moment alpha clamped to [0.01, 10], raised ConvergenceError; the
    # alphas are those a Brent search on the profile score found. Tolerance,
    # fixed before the first run: 1e-6 relative
    @pytest.mark.parametrize("n_periods, seed, year_fe, alpha", [
        (2, 1000, False, 0.21068210741111748),
        (2, 1025, False, 0.027625587180178456),
        (2, 1016, True, 0.1449382375654716),
        (2, 1025, True, 0.020491975172397814),
        (3, 1017, False, 0.5731951130547432),
    ])
    def test_short_panel_interior_alpha(self, n_periods, seed, year_fe, alpha):
        ds = synthdgp.generate_panel(synthdgp.DgpConfig(
            150, n_periods, seed=seed, counts=synthdgp.CountConfig(family="nb2", alpha=2.0)))
        fit = nb2_fit(ds, CountSpec("PAT", ("RDINT_star",), "nb2", entity_fe=True, year_fe=year_fe))
        assert fit.notes["alpha"] == pytest.approx(alpha, rel=1e-6)

    def test_alpha_and_slope_recovery(self):
        ds = count_panel(seed=31, n_entities=300, n_periods=6, slope=0.3,
                         entity_sd=0.0, alpha=0.8, family="nb2")
        spec = CountSpec("PAT", ("RDINT_star",), "nb2", entity_fe=False, year_fe=False)
        fit = nb2_fit(ds, spec)
        assert 0.6 <= fit.notes["alpha"] <= 1.0
        assert abs(fit.coefficients["RDINT_star"] - 0.3) < 3 * fit.se("RDINT_star")

    def test_interior_alpha_matches_joint_newton(self):
        # the profile-likelihood optimum against the joint (beta, log alpha)
        # Newton fit from the moment start; tolerance fixed before the first
        # run: 1e-8 relative, since the joint Newton itself stops once its
        # gradient max-norm is below 1e-8
        ds = count_panel(seed=31, n_entities=300, n_periods=6, slope=0.3,
                         entity_sd=0.0, alpha=0.8, family="nb2")
        fit = nb2_fit(ds, CountSpec("PAT", ("RDINT_star",), "nb2", entity_fe=False, year_fe=False))
        y = ds.column("PAT")
        X = np.column_stack([ds.column("RDINT_star"), np.ones(ds.n_rows)])
        ybar = y.mean()
        alpha0 = min(max((y.var() - ybar) / ybar**2, 0.01), 10.0)
        joint = estim.mle_fit(lambda p: _nb2_parts(p, y, X, gammaln(y + 1.0), one_level(X)),
                              [0.0, np.log(ybar), np.log(alpha0)])
        alpha = np.exp(joint.params[-1])
        assert fit.notes["alpha"] == pytest.approx(alpha, rel=1e-8)
        assert fit.notes["alpha_se"] == pytest.approx(alpha * np.sqrt(joint.vcov[-1, -1]), rel=1e-8)
        for j, name in enumerate(("RDINT_star", "_cons")):
            assert fit.coefficients[name] == pytest.approx(joint.params[j], rel=1e-8)
            assert fit.se(name) == pytest.approx(np.sqrt(joint.vcov[j, j]), rel=1e-8)
        lr, p = fit.notes["lr_alpha0"]
        assert lr > 0 and p < 1e-10

    def test_interior_alpha_takes_two_mle_fits(self, monkeypatch):
        # the Poisson MLE, then one joint (beta, log alpha) Newton from it
        starts = []
        mle_fit = estim.mle_fit

        def counted(objective, start, **kw):
            starts.append(len(start))
            return mle_fit(objective, start, **kw)

        monkeypatch.setattr(estim, "mle_fit", counted)
        ds = count_panel(seed=31, n_entities=300, n_periods=6, slope=0.3,
                         entity_sd=0.0, alpha=0.8, family="nb2")
        fit = nb2_fit(ds, CountSpec("PAT", ("RDINT_star",), "nb2", entity_fe=False, year_fe=False))
        assert fit.notes["alpha"] > 0
        assert starts == [2, 3]

    def test_alpha_past_the_bound_names_it(self, monkeypatch):
        # the estimate on this panel is about 27.8
        ds = count_panel(seed=31, n_entities=300, n_periods=6, slope=0.3,
                         entity_sd=0.0, alpha=25.0, family="nb2")
        monkeypatch.setattr(counts, "ALPHA_BOUND", 12.0)
        with pytest.raises(ConvergenceError, match="bound 12"):
            nb2_fit(ds, CountSpec("PAT", ("RDINT_star",), "nb2", entity_fe=False, year_fe=False))

    def test_poisson_panel_with_entity_fe_stops_at_boundary(self, monkeypatch):
        failed = []
        mle_fit = estim.mle_fit

        def counted(objective, start, **kw):
            try:
                return mle_fit(objective, start, **kw)
            except ConvergenceError:
                failed.append(start)
                raise

        monkeypatch.setattr(estim, "mle_fit", counted)
        ds = count_panel(seed=34, n_entities=30, n_periods=6, entity_sd=0.5)
        spec = CountSpec("PAT", ("RDINT_star",), "nb2", entity_fe=True, year_fe=False)
        fit = nb2_fit(ds, spec)
        poisson = nb2_fit(ds, spec, fix_alpha=0.0)
        assert failed == []
        assert fit.notes["alpha"] == 0.0
        assert fit.notes["alpha_se"] is None
        assert fit.notes["lr_alpha0"] == (0.0, 1.0)
        assert fit.coefficients == poisson.coefficients

    def test_fix_alpha_other_than_none_or_zero_refused(self):
        ds = count_panel(seed=34, n_entities=30, n_periods=6)
        spec = CountSpec("PAT", ("RDINT_star",), "nb2", entity_fe=False, year_fe=False)
        with pytest.raises(ValidationError, match="fix_alpha"):
            nb2_fit(ds, spec, fix_alpha=0.5)

    def test_entity_constant_regressor_with_entity_fe_named(self):
        ds = count_panel(seed=23, n_entities=40, n_periods=5)
        ds = ds.with_column("const_by_entity", np.repeat(np.arange(40, dtype=float), 5))
        spec = CountSpec("PAT", ("RDINT_star", "const_by_entity"), "nb2", entity_fe=True, year_fe=False)
        with pytest.raises(CollinearityError, match="const_by_entity"):
            nb2_fit(ds, spec)

    def test_entity_fe_drops_all_zero_entities(self):
        # entity 0 (the baseline) and entity 7 get no counts; the fit then
        # equals one on the panel without them, entity levels included
        # (tolerance fixed before the first run: 1e-12 relative)
        ds = count_panel(seed=34, n_entities=30, n_periods=6, entity_sd=0.5)
        zero = np.isin(ds.entity_index(), [0, 7])
        ds = ds.with_column("PAT0", np.where(zero, 0.0, ds.column("PAT")))
        spec = CountSpec("PAT0", ("RDINT_star",), "nb2", entity_fe=True, year_fe=False)
        fit = nb2_fit(ds, spec)
        kept = nb2_fit(take_entities(ds, [e for e in range(30) if e not in (0, 7)]), spec)
        assert fit.notes["dropped_entities"] == 2
        assert fit.n_obs == 28 * 6 and fit.n_dropped == 2 * 6
        assert list(fit.coefficients) == ["RDINT_star"]
        assert fit.coefficients["RDINT_star"] == pytest.approx(kept.coefficients["RDINT_star"], rel=1e-12)
        effects, kept_effects = fit.notes["entity_effects"], kept.notes["entity_effects"]
        # take_entities relabels the entities it takes, in the same order
        assert list(effects) == [e for i, e in enumerate(ds.entities) if i not in (0, 7)]
        assert len(kept_effects) == 28
        assert np.all(np.isfinite(list(effects.values())))
        assert np.allclose(list(effects.values()), list(kept_effects.values()), rtol=1e-12, atol=0)
        assert fit.notes["alpha"] == pytest.approx(kept.notes["alpha"], rel=1e-12, abs=1e-300)

    def test_poisson_limit_on_equidispersed_data(self):
        ds = count_panel(seed=32, n_entities=300, n_periods=6, slope=0.3,
                         entity_sd=0.0, alpha=0.0, family="poisson")
        spec = CountSpec("PAT", ("RDINT_star",), "nb2", entity_fe=False, year_fe=False)
        free = nb2_fit(ds, spec)
        fixed = nb2_fit(ds, spec, fix_alpha=0.0)
        assert free.notes["alpha"] < 0.05
        assert abs(free.loglik - fixed.loglik) / free.n_obs < 1e-3

    def test_fix_alpha_zero_reproduces_poisson(self):
        ds = count_panel(seed=33, n_entities=60, n_periods=5, entity_sd=0.0)
        spec = CountSpec("PAT", ("RDINT_star",), "nb2", entity_fe=False, year_fe=False)
        fit = nb2_fit(ds, spec, fix_alpha=0.0)
        y = ds.column("PAT")
        X = np.column_stack([ds.column("RDINT_star"), np.ones(ds.n_rows)])
        beta = dummy_poisson_oracle(y, X)
        assert fit.coefficients["RDINT_star"] == pytest.approx(beta[0], abs=1e-6)
        assert fit.coefficients["_cons"] == pytest.approx(beta[1], abs=1e-6)

    def test_entity_fe_dummies_recover_effects(self):
        # on this Poisson panel alpha stops at 0, so NB2 is the Poisson fit on
        # a dummy per entity and no intercept, whose dummy coefficients are
        # the absolute entity effects (tolerance fixed before the first run:
        # 1e-8, the oracle's and the fit's gradient tolerances)
        ds = count_panel(seed=34, n_entities=30, n_periods=6, entity_sd=0.5)
        fit = nb2_fit(ds, CountSpec("PAT", ("RDINT_star",), "nb2", entity_fe=True, year_fe=False))
        assert fit.notes["alpha"] == 0.0
        ent = ds.entity_index()
        X = np.column_stack([ds.column("RDINT_star"), *[(ent == e).astype(float) for e in range(30)]])
        beta = dummy_poisson_oracle(ds.column("PAT"), X)
        assert list(fit.coefficients) == ["RDINT_star"]
        assert fit.coefficients["RDINT_star"] == pytest.approx(beta[0], abs=1e-8)
        assert list(fit.notes["entity_effects"]) == list(ds.entities)
        assert np.allclose(list(fit.notes["entity_effects"].values()), beta[1:], rtol=0, atol=1e-8)

    def test_entity_effects_match_dense_dummy_newton(self):
        # NB2 at alpha = 0 against Newton on the dense design [x, year
        # dummies, one dummy per entity], which has no intercept, so its
        # entity coefficients are the absolute effects; tolerance fixed
        # before the first run: 1e-8 on every parameter
        rng = np.random.default_rng(8)
        n_e, n_t = 30, 10
        ents = np.repeat([f"E{i}" for i in range(n_e)], n_t)
        yrs = list(range(2010, 2010 + n_t)) * n_e
        x = rng.normal(size=n_e * n_t)
        effect = np.repeat(rng.normal(scale=0.5, size=n_e), n_t)
        yr = np.array([0.2 * (t - 2010) / n_t for t in yrs])
        c = rng.poisson(np.exp(0.6 * x + effect + yr)).astype(float)
        c[::n_t] += 1.0  # no entity has an all-zero total
        fit = nb2_fit(from_long(ents, yrs, {"c": c, "x": x}), CountSpec("c", ("x",), "nb2"), fix_alpha=0)

        cols, names = [x], ["x"]
        for year in range(2011, 2010 + n_t):
            cols.append((np.array(yrs) == year).astype(float))
            names.append(f"year={year}")
        for label in [f"E{i}" for i in range(n_e)]:
            cols.append((ents == label).astype(float))
            names.append(label)
        beta = dummy_poisson_oracle(c, np.column_stack(cols))
        assert list(fit.coefficients) == names[:n_t]
        got = {**fit.coefficients, **fit.notes["entity_effects"]}
        assert np.max(np.abs(np.array([got[nm] for nm in names]) - beta)) < 1e-8

    @pytest.mark.parametrize("seed", [35, 36, 37])
    def test_fixed_alpha_zero_equals_poisson_fe_exactly(self, seed):
        # both families fit one Poisson MLE from one start, so on a balanced
        # panel (no entity drops out of one sample but not the other) they
        # report the same names, and the slopes, year effects and their
        # covariance are bit-equal
        ds = count_panel(seed=seed, n_entities=40, n_periods=6, entity_sd=0.4)
        nb2 = nb2_fit(ds, CountSpec("PAT", ("RDINT_star",), "nb2"), fix_alpha=0)
        pois = poisson_fe_fit(ds, CountSpec("PAT", ("RDINT_star",), "poisson_fe"))
        assert nb2.n_obs == pois.n_obs
        assert list(nb2.coefficients) == list(pois.coefficients)
        for name, value in pois.coefficients.items():
            assert nb2.coefficients[name] == value
        assert np.array_equal(nb2.vcov, pois.vcov)

    def test_fixed_alpha_zero_entity_fe_matches_conditional_poisson(self):
        # the conditional-vs-dummy identity of acceptance criterion 3, on the
        # entity-layout path; tolerance fixed before the first run: 1e-6
        ds = count_panel(seed=35, n_entities=40, n_periods=6, entity_sd=0.4)
        dummy = nb2_fit(ds, CountSpec("PAT", ("RDINT_star",), "nb2", entity_fe=True, year_fe=False),
                        fix_alpha=0.0)
        cond = poisson_fe_fit(ds, CountSpec("PAT", ("RDINT_star",), "poisson_fe", year_fe=False))
        assert len(dummy.notes["entity_effects"]) == 40
        assert abs(dummy.coefficients["RDINT_star"] - cond.coefficients["RDINT_star"]) < 1e-6

    def test_non_integer_count_rejected(self):
        ds = from_long(["A", "B", "C", "D", "E"], [2010] * 5,
                       {"c": [1.0, 2.4999, 3.0, 1.0, 2.0], "x": [0.1, 0.2, 0.3, 0.4, 0.5]})
        with pytest.raises(ValidationError, match="2.4999"):
            nb2_fit(ds, CountSpec("c", ("x",), "nb2", entity_fe=False, year_fe=False))

    def test_poisson_fe_requires_entity_fe(self):
        with pytest.raises(ValidationError):
            CountSpec("c", ("x",), "poisson_fe", entity_fe=False)


class TestCalibration:
    def fit_for(self, ds):
        spec = CountSpec("PAT", ("RDINT_star",), "poisson_fe", entity_fe=True, year_fe=False)
        return poisson_fe_fit(ds, spec)

    def test_ratio_scaling_arithmetic(self):
        # raw predictions [2, 4] with realized mean 6 -> scaled [4, 8] + eps
        from cdmpanel.estim import FitResult

        ds = from_long(["A", "A"], [2010, 2011],
                       {"x": [np.log(2.0), np.log(4.0)], "real": [5.0, 7.0]})
        fit = FitResult(coefficients={"x": 1.0}, vcov=np.zeros((1, 1)), n_obs=2, notes={"entity_effects": {"A": 0.0}})
        pred = calibrate_predictions(fit, ds, CalibrationRule("real"))
        assert pred[0] == pytest.approx(4.001, abs=1e-12)
        assert pred[1] == pytest.approx(8.001, abs=1e-12)

    def test_zero_realized_mean_gives_epsilon(self):
        from cdmpanel.estim import FitResult

        ds = from_long(["A", "A"], [2010, 2011], {"x": [0.0, 1.0], "real": [0.0, 0.0]})
        fit = FitResult(coefficients={"x": 1.0}, vcov=np.zeros((1, 1)), n_obs=2)
        pred = calibrate_predictions(fit, ds, CalibrationRule("real"))
        assert np.allclose(pred, 0.001)

    def test_mean_matching_identity(self):
        ds = count_panel(seed=41, n_entities=50, n_periods=6)
        fit = self.fit_for(ds)
        pred = calibrate_predictions(fit, ds, CalibrationRule("PAT"))
        real = ds.column("PAT")
        ent = ds.entity_index()
        for i in range(len(ds.entities)):
            rows = ent == i
            realized = real[rows][np.isfinite(real[rows])]
            if realized.size and realized.mean() > 0:
                got = pred[rows][np.isfinite(pred[rows])]
                assert abs(np.mean(got - 0.001) - realized.mean()) < 1e-9

    def test_entity_effect_level_is_calibrated_away(self):
        # each entity is scaled to its realized mean, so its effect only sets
        # a level that the calibration takes out again
        ds = count_panel(seed=41, n_entities=50, n_periods=6)
        fit = self.fit_for(ds)
        pred = calibrate_predictions(fit, ds, CalibrationRule("PAT"))
        effects = fit.notes["entity_effects"]
        label = list(effects)[5]
        shifted = estim.FitResult(fit.coefficients, fit.vcov, fit.n_obs,
                                  notes={**fit.notes, "entity_effects": {**effects, label: effects[label] + 0.7}})
        got = calibrate_predictions(shifted, ds, CalibrationRule("PAT"))
        assert np.array_equal(np.isnan(got), np.isnan(pred))
        ok = np.isfinite(pred)
        assert np.max(np.abs(got[ok] - pred[ok]) / pred[ok]) <= 1e-12

    def test_epsilon_must_be_positive(self):
        with pytest.raises(ValidationError):
            CalibrationRule("real", epsilon=0.0)

    def test_cannot_scale_zero_raw_prediction(self):
        from cdmpanel.estim import FitResult

        ds = from_long(["A", "A"], [2010, 2011], {"x": [-800.0, -800.0], "real": [3.0, 5.0]})
        fit = FitResult(coefficients={"x": 1.0}, vcov=np.zeros((1, 1)), n_obs=2)
        with pytest.raises(ValidationError, match="cannot scale"):
            calibrate_predictions(fit, ds, CalibrationRule("real"))

    def test_calibrated_predictions_strictly_positive(self):
        ds = count_panel(seed=42, n_entities=40, n_periods=5)
        fit = self.fit_for(ds)
        pred = calibrate_predictions(fit, ds, CalibrationRule("PAT"))
        assert np.nanmin(pred) >= 0.001 - 1e-15


class TestPatentIntensity:
    def test_positive_prediction_divides_by_employees(self):
        got = patent_intensity(np.array([10.001]), np.array([2.0]))
        assert got[0] == pytest.approx(np.log(10.001 / 2.0), rel=1e-12)

    def test_zero_prediction_ignores_employees(self):
        got = patent_intensity(np.array([0.001, 0.001]), np.array([2.0, np.nan]))
        assert got[0] == pytest.approx(np.log(0.001), abs=1e-12)
        assert got[1] == pytest.approx(np.log(0.001), abs=1e-12)

    def test_equal_predictions_different_employees_differ(self):
        got = patent_intensity(np.array([5.0, 5.0]), np.array([1.0, 10.0]))
        assert got[0] != got[1]

    def test_non_positive_employees_error(self):
        with pytest.raises(ValidationError, match="positive"):
            patent_intensity(np.array([5.0]), np.array([0.0]))

    def test_monotone_in_prediction_and_employees(self):
        rng = np.random.default_rng(19)
        preds = np.sort(rng.uniform(0.5, 20.0, size=25))
        got = patent_intensity(preds, np.full(25, 3.0))
        assert np.all(np.diff(got) > 0)
        emps = np.sort(rng.uniform(0.5, 20.0, size=25))
        got2 = patent_intensity(np.full(25, 5.0), emps)
        assert np.all(np.diff(got2) < 0)


def calibrate_by_entity(fit, ds, rule):
    """Reference calibration, one entity at a time: each entity's rows are
    found by a mask and its means taken over its finite cells."""
    raw = np.exp(estim.linear_index(fit, ds))
    ent_idx = ds.entity_index()
    realized = ds.column(rule.firm_mean_source)
    out = np.full(ds.n_rows, np.nan)
    for i, name in enumerate(ds.entities):
        rows = ent_idx == i
        raw_e = raw[rows]
        real = realized[rows]
        real = real[np.isfinite(real)]
        if real.size == 0:
            continue
        finite = np.isfinite(raw_e)
        if np.mean(real) == 0.0:
            out[rows] = np.where(finite, 0.0, np.nan)
            continue
        if not finite.any() or np.mean(raw_e[finite]) == 0.0:
            raise ValidationError(f"cannot scale entity {name!r}")
        out[rows] = np.where(finite, raw_e * (np.mean(real) / np.mean(raw_e[finite])), np.nan)
    return out + rule.epsilon


class TestCalibrationOracle:
    # tolerance, fixed before the first run: 1e-12 relative on every finite cell
    TOL = 1e-12

    def fit_and_panel(self, n_periods, seed):
        from cdmpanel.estim import FitResult

        rng = np.random.default_rng(seed)
        n_e = 40
        labels = [f"F{i:02d}" for i in rng.permutation(n_e)]  # not in label order
        x = rng.normal(size=n_e * n_periods)
        real = rng.poisson(3.0, size=n_e * n_periods).astype(float)
        x[rng.random(x.size) < 0.15] = np.nan
        real[rng.random(real.size) < 0.15] = np.nan
        x_grid, real_grid = x.reshape(n_e, n_periods), real.reshape(n_e, n_periods)  # views
        real_grid[3] = [0.0, np.nan] * (n_periods // 2)  # zero realized mean
        real_grid[7] = np.nan  # no finite realized value
        x_grid[9] = np.nan  # no finite raw prediction, zero realized mean
        real_grid[9] = 0.0
        ds = from_long(np.repeat(labels, n_periods), list(range(2001, 2001 + n_periods)) * n_e,
                       {"x": x, "real": real})
        # non-zero effects for most entities; the rest fall back to 0.0
        effects = {label: float(np.log(rng.uniform(0.2, 5.0))) for label in labels[: n_e - 6]}
        fit = FitResult(coefficients={"x": 0.7, "_cons": -0.2}, vcov=np.zeros((2, 2)), n_obs=ds.n_rows,
                        notes={"entity_effects": effects})
        return fit, ds

    @pytest.mark.parametrize("n_periods, seed", [(6, 1), (8, 2), (8, 3)])
    def test_matches_per_entity_reference(self, n_periods, seed):
        fit, ds = self.fit_and_panel(n_periods, seed)
        rule = CalibrationRule("real")
        got = calibrate_predictions(fit, ds, rule)
        want = calibrate_by_entity(fit, ds, rule)
        assert np.array_equal(np.isnan(got), np.isnan(want))
        ok = np.isfinite(want)
        assert np.max(np.abs(got[ok] - want[ok]) / np.abs(want[ok])) <= self.TOL
        got, x = got.reshape(-1, n_periods), ds.column("x").reshape(-1, n_periods)
        assert np.all(got[3][np.isfinite(x[3])] == rule.epsilon)
        assert np.all(np.isnan(got[7])) and np.all(np.isnan(got[9]))

    def test_zero_raw_mean_names_first_entity_in_dataset_order(self):
        from cdmpanel.estim import FitResult

        labels = ["Q", "B", "Z", "A", "C"]
        x = np.array([[0.0, 0.0], [-800.0, -800.0], [0.0, 1.0], [-800.0, -800.0], [-800.0, 0.0]])
        real = np.array([[1.0, 2.0], [0.0, 0.0], [3.0, 1.0], [4.0, 5.0], [1.0, 1.0]])
        real_b = real.copy()
        ds = from_long(np.repeat(labels, 2), [2010, 2011] * 5, {"x": x.ravel(), "real": real.ravel()})
        fit = FitResult(coefficients={"x": 1.0}, vcov=np.zeros((1, 1)), n_obs=10,
                        notes={"entity_effects": {"C": -np.inf}})
        # B has a zero raw mean but a zero realized mean; A is the first to fail,
        # C (an effect of -inf) the second
        with pytest.raises(ValidationError, match=r"^cannot scale entity 'A': zero mean raw prediction"):
            calibrate_predictions(fit, ds, CalibrationRule("real"))
        real_b[3] = np.nan  # A has no realized value, so C fails
        ds_b = from_long(np.repeat(labels, 2), [2010, 2011] * 5, {"x": x.ravel(), "real": real_b.ravel()})
        with pytest.raises(ValidationError, match=r"^cannot scale entity 'C'"):
            calibrate_predictions(fit, ds_b, CalibrationRule("real"))


class TestCovarianceMemory:
    # bound, fixed before the first run: a 20 MB traced peak; one E x E float64
    # array at E = 3000 alone takes 72 MB
    PEAK_MB = 20.0

    def test_nb2_with_entity_fe_never_builds_an_entity_square(self):
        import tracemalloc

        rng = np.random.default_rng(5)
        n_e, n_t = 3000, 4
        x = rng.normal(size=n_e * n_t)
        effect = np.repeat(rng.normal(scale=0.5, size=n_e), n_t)
        y = rng.poisson(np.exp(0.5 * x + effect)).astype(float)
        ds = from_long(np.repeat([f"E{i}" for i in range(n_e)], n_t), list(range(2001, 2001 + n_t)) * n_e,
                       {"y": y, "x": x})
        tracemalloc.start()
        try:
            fit = nb2_fit(ds, CountSpec("y", ("x",), "nb2", entity_fe=True, year_fe=True))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert fit.vcov.shape == (len(fit.coefficients),) * 2
        assert abs(fit.coefficients["x"] - 0.5) < 5 * fit.se("x")
        assert peak / 2**20 < self.PEAK_MB
