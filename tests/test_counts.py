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
from cdmpanel import estim, synthdgp
from cdmpanel.counts import _nb2_parts
from cdmpanel.exceptions import ConvergenceError
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
        assert abs(fit.base.coefficients["RDINT_star"] - beta[0]) < 1e-6

    def test_all_zero_entity_excluded_and_counted(self):
        ds = from_long(
            ["A", "A", "B", "B"],
            [2010, 2011, 2010, 2011],
            {"c": [0.0, 0.0, 1.0, 3.0], "x": [0.1, 0.5, 0.2, 0.9]},
        )
        fit = poisson_fe_fit(ds, CountSpec("c", ("x",), "poisson_fe", year_fe=False))
        assert fit.n_dropped_entities == 1
        assert "A" not in fit.entity_effects
        assert "B" in fit.entity_effects

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
        fit = poisson_fe_fit(ds, CountSpec("c", ("x", "near", "step"), "poisson_fe", year_fe=False))

        # reference: the screens written as per-entity loops
        ok = np.isfinite(c) & np.isfinite(x)
        ent = ds.entity_index()
        kept = [e for e in range(n_e) if (ok & (ent == e)).sum() >= 2 and c[ok & (ent == e)].sum() > 0]
        rows = ok & np.isin(ent, kept)
        absorbed = []
        for name in ("x", "near", "step"):
            v = ds.column(name)
            tol = 1e-12 * (1 + np.max(np.abs(v[rows])))
            if all(np.ptp(v[rows & (ent == e)]) <= tol for e in kept):
                absorbed.append(name)
        assert fit.n_dropped_entities == n_e - len(kept) == 2
        assert fit.base.notes["absorbed_columns"] == tuple(absorbed) == ("near", "step")
        assert fit.base.n_obs == int(rows.sum())
        assert list(fit.entity_effects) == [f"E{e}" for e in kept]

    def test_all_entities_zero_errors(self):
        ds = from_long(["A", "A"], [2010, 2011], {"c": [0.0, 0.0], "x": [0.1, 0.5]})
        with pytest.raises(ValidationError, match="all-zero"):
            poisson_fe_fit(ds, CountSpec("c", ("x",), "poisson_fe", year_fe=False))

    def test_slope_recovery_monte_carlo_scale(self):
        ds = count_panel(seed=22, n_entities=200, n_periods=5, slope=0.5)
        spec = CountSpec("PAT", ("RDINT_star",), "poisson_fe", entity_fe=True, year_fe=False)
        fit = poisson_fe_fit(ds, spec)
        assert abs(fit.base.coefficients["RDINT_star"] - 0.5) < 3 * fit.base.se("RDINT_star")

    def test_entity_constant_column_absorbed(self):
        ds = count_panel(seed=23, n_entities=40, n_periods=5)
        const = np.repeat(np.arange(40, dtype=float), 5)
        ds2 = ds.with_column("const_by_entity", const)
        spec1 = CountSpec("PAT", ("RDINT_star",), "poisson_fe", year_fe=False)
        spec2 = CountSpec("PAT", ("RDINT_star", "const_by_entity"), "poisson_fe", year_fe=False)
        f1 = poisson_fe_fit(ds, spec1)
        f2 = poisson_fe_fit(ds2, spec2)
        assert "const_by_entity" in f2.base.notes["absorbed_columns"]
        assert abs(
            f1.base.coefficients["RDINT_star"] - f2.base.coefficients["RDINT_star"]
        ) < 1e-8

    def test_non_integer_count_rejected(self):
        ds = from_long(["A", "A", "B", "B"], [2010, 2011, 2010, 2011],
                       {"c": [1.0, 2.4999, 3.0, 1.0], "x": [0.1, 0.2, 0.3, 0.4]})
        with pytest.raises(ValidationError, match="2.4999"):
            poisson_fe_fit(ds, CountSpec("c", ("x",), "poisson_fe", year_fe=False))


class TestConditionalPoissonParts:
    def test_gradient_and_hessian_match_finite_differences(self):
        from cdmpanel.counts import _conditional_poisson_parts, _segments

        rng = np.random.default_rng(71)
        n_e, n_t = 8, 4
        ent = np.repeat(np.arange(n_e), n_t)
        X = np.column_stack([rng.normal(size=n_e * n_t), rng.normal(size=n_e * n_t)])
        y = rng.poisson(np.exp(0.4 * X[:, 0] + np.repeat(rng.normal(size=n_e), n_t))).astype(float)
        keep = np.isin(ent, [e for e in range(n_e) if y[ent == e].sum() > 0])
        y, X, ent = y[keep], X[keep], ent[keep]
        starts, seg = _segments(ent)
        totals = np.add.reduceat(y, starts)
        beta = np.array([0.3, -0.2])
        ll, grad, hess = _conditional_poisson_parts(beta, y, X, starts, seg, totals, 0.0)
        eps = 1e-6
        for j in range(2):
            bp, bm = beta.copy(), beta.copy()
            bp[j] += eps
            bm[j] -= eps
            lp, gp, _ = _conditional_poisson_parts(bp, y, X, starts, seg, totals, 0.0)
            lm, gm, _ = _conditional_poisson_parts(bm, y, X, starts, seg, totals, 0.0)
            assert grad[j] == pytest.approx((lp - lm) / (2 * eps), rel=1e-5, abs=1e-6)
            for i in range(2):
                assert hess[i, j] == pytest.approx((gp[i] - gm[i]) / (2 * eps), rel=1e-4, abs=1e-5)


class TestNb2:
    def test_gradient_and_hessian_match_finite_differences(self):
        rng = np.random.default_rng(17)
        n = 60
        X = np.column_stack([rng.normal(size=n), np.ones(n)])
        y = rng.poisson(np.exp(0.3 * X[:, 0])).astype(float)
        lgy1 = gammaln(y + 1.0)
        theta = np.array([0.25, -0.1, np.log(0.7)])
        ll, grad, hess = _nb2_parts(theta, y, X, lgy1, None)
        eps = 1e-6
        for j in range(3):
            tp, tm = theta.copy(), theta.copy()
            tp[j] += eps
            tm[j] -= eps
            lp, gp, _ = _nb2_parts(tp, y, X, lgy1, None)
            lm, gm, _ = _nb2_parts(tm, y, X, lgy1, None)
            assert grad[j] == pytest.approx((lp - lm) / (2 * eps), rel=1e-5, abs=1e-5)
            for i in range(3):
                assert hess[i, j] == pytest.approx((gp[i] - gm[i]) / (2 * eps), rel=1e-4, abs=1e-4)

    def test_underflowing_alpha_probe_reports_minus_inf(self):
        # a line-search probe at log alpha = -800 underflows exp to 0
        y = np.array([0.0, 1.0, 2.0, 5.0])
        ll, grad, hess = _nb2_parts(np.array([0.0, -800.0]), y, np.ones((4, 1)), gammaln(y + 1.0), None)
        assert ll == -np.inf
        assert grad.shape == (2,) and hess.shape == (2, 2)

    def test_alpha_and_slope_recovery(self):
        ds = count_panel(seed=31, n_entities=300, n_periods=6, slope=0.3,
                         entity_sd=0.0, alpha=0.8, family="nb2")
        spec = CountSpec("PAT", ("RDINT_star",), "nb2", entity_fe=False, year_fe=False)
        fit = nb2_fit(ds, spec)
        assert 0.6 <= fit.alpha <= 1.0
        assert abs(fit.base.coefficients["RDINT_star"] - 0.3) < 3 * fit.base.se("RDINT_star")

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
        joint = estim.mle_fit(lambda p: _nb2_parts(p, y, X, gammaln(y + 1.0), None),
                              [0.0, np.log(ybar), np.log(alpha0)])
        alpha = np.exp(joint.params[-1])
        assert fit.alpha == pytest.approx(alpha, rel=1e-8)
        assert fit.base.notes["alpha_se"] == pytest.approx(alpha * np.sqrt(joint.vcov[-1, -1]), rel=1e-8)
        for j, name in enumerate(("RDINT_star", "_cons")):
            assert fit.base.coefficients[name] == pytest.approx(joint.params[j], rel=1e-8)
            assert fit.base.se(name) == pytest.approx(np.sqrt(joint.vcov[j, j]), rel=1e-8)
        lr, p = fit.base.notes["lr_alpha0"]
        assert lr > 0 and p < 1e-10

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
        assert fit.alpha == 0.0
        assert fit.base.notes["alpha_se"] is None
        assert fit.base.notes["lr_alpha0"] == (0.0, 1.0)
        assert fit.base.coefficients == poisson.base.coefficients

    def test_entity_fe_drops_all_zero_entities(self):
        # entity 0 (the baseline) and entity 7 get no counts; _cons is then
        # identified and the fit equals one on the panel without them
        # (tolerance fixed before the first run: 1e-12 relative)
        ds = count_panel(seed=34, n_entities=30, n_periods=6, entity_sd=0.5)
        zero = np.isin(ds.entity_index(), [0, 7])
        ds = ds.with_column("PAT0", np.where(zero, 0.0, ds.column("PAT")))
        spec = CountSpec("PAT0", ("RDINT_star",), "nb2", entity_fe=True, year_fe=False)
        fit = nb2_fit(ds, spec)
        kept = nb2_fit(take_entities(ds, [e for e in range(30) if e not in (0, 7)]), spec)
        assert fit.n_dropped_entities == 2 and fit.base.notes["dropped_entities"] == 2
        assert fit.base.n_obs == 28 * 6 and fit.base.n_dropped == 2 * 6
        assert len(fit.entity_effects) == 28 and fit.entity_effects[ds.entities[1]] == 1.0
        assert np.isfinite(fit.base.coefficients["_cons"])
        for name in ("RDINT_star", "_cons"):
            assert fit.base.coefficients[name] == pytest.approx(kept.base.coefficients[name], rel=1e-12)
        assert fit.alpha == pytest.approx(kept.alpha, rel=1e-12, abs=1e-300)

    def test_poisson_limit_on_equidispersed_data(self):
        ds = count_panel(seed=32, n_entities=300, n_periods=6, slope=0.3,
                         entity_sd=0.0, alpha=0.0, family="poisson")
        spec = CountSpec("PAT", ("RDINT_star",), "nb2", entity_fe=False, year_fe=False)
        free = nb2_fit(ds, spec)
        fixed = nb2_fit(ds, spec, fix_alpha=0.0)
        assert free.alpha < 0.05
        assert abs(free.base.loglik - fixed.base.loglik) / free.base.n_obs < 1e-3

    def test_fix_alpha_zero_reproduces_poisson(self):
        ds = count_panel(seed=33, n_entities=60, n_periods=5, entity_sd=0.0)
        spec = CountSpec("PAT", ("RDINT_star",), "nb2", entity_fe=False, year_fe=False)
        fit = nb2_fit(ds, spec, fix_alpha=0.0)
        y = ds.column("PAT")
        X = np.column_stack([ds.column("RDINT_star"), np.ones(ds.n_rows)])
        beta = dummy_poisson_oracle(y, X)
        assert fit.base.coefficients["RDINT_star"] == pytest.approx(beta[0], abs=1e-6)
        assert fit.base.coefficients["_cons"] == pytest.approx(beta[1], abs=1e-6)

    def test_entity_fe_dummies_recover_effects(self):
        ds = count_panel(seed=34, n_entities=30, n_periods=6, entity_sd=0.5)
        spec = CountSpec("PAT", ("RDINT_star",), "nb2", entity_fe=True, year_fe=False)
        fit = nb2_fit(ds, spec)
        assert len(fit.entity_effects) == 30
        assert fit.entity_effects[ds.entities[0]] == 1.0

    def test_fixed_alpha_zero_entity_fe_matches_conditional_poisson(self):
        # the conditional-vs-dummy identity of acceptance criterion 3, on the
        # entity-layout path; tolerance fixed before the first run: 1e-6
        ds = count_panel(seed=35, n_entities=40, n_periods=6, entity_sd=0.4)
        dummy = nb2_fit(ds, CountSpec("PAT", ("RDINT_star",), "nb2", entity_fe=True, year_fe=False),
                        fix_alpha=0.0)
        cond = poisson_fe_fit(ds, CountSpec("PAT", ("RDINT_star",), "poisson_fe", year_fe=False))
        assert len(dummy.entity_effects) == 40
        assert abs(dummy.base.coefficients["RDINT_star"] - cond.base.coefficients["RDINT_star"]) < 1e-6

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
        from cdmpanel.counts import CountFit
        from cdmpanel.estim import FitResult

        ds = from_long(["A", "A"], [2010, 2011],
                       {"x": [np.log(2.0), np.log(4.0)], "real": [5.0, 7.0]})
        base = FitResult(coefficients={"x": 1.0}, vcov=np.zeros((1, 1)), n_obs=2)
        fit = CountFit(base=base, family="poisson_fe", entity_effects={"A": 1.0})
        pred = calibrate_predictions(fit, ds, CalibrationRule("real"))
        assert pred[0] == pytest.approx(4.001, abs=1e-12)
        assert pred[1] == pytest.approx(8.001, abs=1e-12)

    def test_zero_realized_mean_gives_epsilon(self):
        from cdmpanel.counts import CountFit
        from cdmpanel.estim import FitResult

        ds = from_long(["A", "A"], [2010, 2011], {"x": [0.0, 1.0], "real": [0.0, 0.0]})
        base = FitResult(coefficients={"x": 1.0}, vcov=np.zeros((1, 1)), n_obs=2)
        fit = CountFit(base=base, family="poisson_fe", entity_effects={})
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

    def test_epsilon_must_be_positive(self):
        with pytest.raises(ValidationError):
            CalibrationRule("real", epsilon=0.0)

    def test_cannot_scale_zero_raw_prediction(self):
        from cdmpanel.counts import CountFit
        from cdmpanel.estim import FitResult

        ds = from_long(["A", "A"], [2010, 2011], {"x": [-800.0, -800.0], "real": [3.0, 5.0]})
        base = FitResult(coefficients={"x": 1.0}, vcov=np.zeros((1, 1)), n_obs=2)
        fit = CountFit(base=base, family="poisson_fe", entity_effects={})
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
