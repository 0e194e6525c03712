import numpy as np
import pytest

from cdmpanel import (
    QuantileSpec,
    TreatmentSpec,
    ValidationError,
    from_long,
    propensity_ipw,
    rif_quantile,
    rif_treatment_fit,
    uqr_fit,
)
from cdmpanel import estim
from cdmpanel.estim import design_matrix
from cdmpanel.rif import _bandwidth, _kde, rif_quantiles, weighted_quantile


def iid_panel(columns, seed_names="E"):
    n = len(next(iter(columns.values())))
    return from_long([f"{seed_names}{i}" for i in range(n)], [2010] * n, columns)


def kde(sample, point, weights=None):
    """Gaussian-kernel density at one point by rif's own kernel and Silverman bandwidth."""
    x = np.asarray(sample, dtype=float)
    w = np.ones(x.shape) if weights is None else np.asarray(weights, dtype=float)
    return _kde(x, w, point, _bandwidth(x, w))


class TestKde:
    def test_kernel_at_its_center(self):
        assert _kde(np.zeros(1), np.ones(1), 0.0, 1.0) == pytest.approx(1.0 / np.sqrt(2 * np.pi), rel=1e-12)

    def test_symmetric_sample_average_of_kernels(self):
        got = _kde(np.array([-1.0, 1.0]), np.ones(2), 0.0, 0.7)
        z = 1.0 / 0.7
        expected = np.exp(-0.5 * z**2) / np.sqrt(2 * np.pi) / 0.7
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(_kde(np.array([1.0, -1.0]), np.ones(2), 0.0, 0.7), rel=1e-15)

    def test_standard_normal_density_at_zero(self):
        rng = np.random.default_rng(2024)
        sample = rng.standard_normal(10000)
        got = kde(sample, 0.0)
        assert abs(got - 0.3989422804014327) < 0.02

    def test_constant_sample_errors_under_silverman(self):
        with pytest.raises(ValidationError, match="bandwidth"):
            kde(np.ones(50), 1.0)

    def test_zero_iqr_falls_back_to_sd(self):
        # IQR 0 with sd 1.50: Silverman's rule uses sd, as R's bw.nrd0 does
        x = np.array([0.0] * 8 + [1.0, 5.0])
        h = 0.9 * x.std() * x.size ** (-0.2)
        assert _bandwidth(x, np.ones(x.size)) == pytest.approx(h, rel=1e-12)
        assert kde(x, 0.5) == pytest.approx(_kde(x, np.ones(x.size), 0.5, h), rel=1e-12)

    def test_weighted_density_integrates_reweighting(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(4000)
        w = np.ones(4000)
        assert kde(x, 0.3, weights=w) == pytest.approx(kde(x, 0.3), rel=1e-12)


class TestWeightedQuantile:
    def test_order_statistic_at_ceil(self):
        y = np.array([5.0, 1.0, 3.0, 2.0, 4.0])
        # ceil(0.5 * 5) = 3rd order statistic
        assert weighted_quantile(y, 0.5) == 3.0
        assert weighted_quantile(y, 0.2) == 1.0
        assert weighted_quantile(y, 0.9) == 5.0

    def test_unweighted_uses_the_exact_rank(self):
        # tau*n = 7.000000000000001 in floating point at tau = 0.07, n = 100; the
        # rule's rank is still 7, as with unit weights
        y = np.random.default_rng(3).permutation(np.arange(1.0, 101.0))
        for tau in (0.07, 0.14, 0.28, 0.55, 0.56):
            rank = round(tau * 100)
            assert weighted_quantile(y, tau) == float(rank)
            assert weighted_quantile(y, tau) == weighted_quantile(y, tau, np.ones(100))

    def test_weighted_smallest_cumulative(self):
        y = np.array([1.0, 2.0, 3.0])
        w = np.array([0.5, 0.25, 0.25])
        assert weighted_quantile(y, 0.5, w) == 1.0
        assert weighted_quantile(y, 0.6, w) == 2.0


class TestRifQuantile:
    def test_formula_arithmetic(self):
        # with q = 0 and f = 0.25 the two RIF levels are +/- 2 at tau = 0.5
        y = np.concatenate([np.linspace(-3, 0, 10), np.linspace(0.3, 3, 10)])
        rr = rif_quantile(y, QuantileSpec(), 0.5)
        above = y > rr.q_hat
        expected_above = rr.q_hat + rr.tau_attained / rr.f_hat
        expected_below = rr.q_hat - (1.0 - rr.tau_attained) / rr.f_hat
        assert np.allclose(rr.rif[above], expected_above)
        assert np.allclose(rr.rif[~above], expected_below)
        assert expected_above - expected_below == pytest.approx(1.0 / rr.f_hat, rel=1e-12)

    def test_mean_identity_any_sample(self):
        rng = np.random.default_rng(11)
        for n in (37, 100, 1001):
            y = rng.normal(size=n)
            for tau in (0.1, 0.25, 0.5, 0.9):
                rr = rif_quantile(y, QuantileSpec(), tau)
                assert abs(np.mean(rr.rif) - rr.q_hat) < 1e-12

    def test_mean_identity_weighted(self):
        rng = np.random.default_rng(12)
        y = rng.normal(size=257)
        w = rng.uniform(0.1, 2.0, size=257)
        rr = rif_quantile(y, QuantileSpec(), 0.3, weights=w)
        assert abs(np.average(rr.rif, weights=w) - rr.q_hat) < 1e-12

    def test_two_levels_differ_by_inverse_density(self):
        rng = np.random.default_rng(13)
        y = rng.normal(size=400)
        rr = rif_quantile(y, QuantileSpec(), 0.7)
        levels = np.unique(rr.rif)
        assert len(levels) == 2
        assert levels[1] - levels[0] == pytest.approx(1.0 / rr.f_hat, rel=1e-12)

    def test_sigma2_if_matches_direct_summation(self):
        rng = np.random.default_rng(14)
        y = rng.normal(size=50)
        rr = rif_quantile(y, QuantileSpec(), 0.4)
        direct = float(np.mean((rr.rif - rr.q_hat) ** 2))
        assert abs(rr.sigma2_if - direct) < 1e-12

    def test_missing_values_stay_missing(self):
        y = np.concatenate([np.random.default_rng(15).normal(size=40), [np.nan] * 5])
        rr = rif_quantile(y, QuantileSpec(), 0.5)
        assert np.isnan(rr.rif[-5:]).all()
        assert np.isfinite(rr.rif[:40]).all()

    def test_too_few_observations_error(self):
        with pytest.raises(ValidationError, match="at least 10"):
            rif_quantile(np.arange(5.0), QuantileSpec(), 0.5)


class TestRifQuantiles:
    def test_each_tau_is_its_one_tau_call(self):
        rng = np.random.default_rng(61)
        y = rng.lognormal(size=300)
        y[::17] = np.nan
        w = rng.uniform(0.2, 3.0, size=300)
        taus = (0.1, 0.25, 0.5, 0.9)
        for weights in (None, w):
            for rr, tau in zip(rif_quantiles(y, taus, weights), taus):
                one = rif_quantile(y, QuantileSpec(), tau, weights)
                assert (rr.tau, rr.q_hat, rr.f_hat, rr.sigma2_if, rr.tau_attained) == (
                    one.tau, one.q_hat, one.f_hat, one.sigma2_if, one.tau_attained)
                assert np.array_equal(rr.rif, one.rif, equal_nan=True)

    def test_bad_tau_named(self):
        with pytest.raises(ValidationError, match="quantile 1.0 outside"):
            rif_quantiles(np.arange(20.0), (0.5, 1.0))


class TestUqr:
    def test_intercept_only_returns_quantile_exactly(self):
        rng = np.random.default_rng(21)
        y = rng.normal(size=500)
        ds = iid_panel({"y": y})
        fits = uqr_fit(ds, "y", (), QuantileSpec(taus=(0.25, 0.5, 0.75)), fe_dims=())
        for tau, fit in fits.items():
            rr = rif_quantile(y, QuantileSpec(), tau)
            assert fit.coefficients["_cons"] == pytest.approx(rr.q_hat, abs=1e-12)

    def test_location_shift_recovered(self):
        rng = np.random.default_rng(22)
        reps = 30
        taus = (0.2, 0.5, 0.8)
        acc = {t: [] for t in taus}
        for _ in range(reps):
            n = 2000
            x = rng.binomial(1, 0.5, size=n).astype(float)
            y = 0.3 * x + rng.normal(size=n)
            ds = iid_panel({"y": y, "x": x})
            fits = uqr_fit(ds, "y", ("x",), QuantileSpec(taus=taus), fe_dims=())
            for t in taus:
                acc[t].append(fits[t].coefficients["x"])
        for t in taus:
            assert abs(np.mean(acc[t]) - 0.3) < 0.05

    def test_constant_shift_of_outcome(self):
        rng = np.random.default_rng(23)
        n = 800
        x = rng.normal(size=n)
        y = 0.5 * x + rng.normal(size=n)
        ds = iid_panel({"y": y, "y2": y + 5.0, "x": x})
        spec = QuantileSpec(taus=(0.5,))
        f1 = uqr_fit(ds, "y", ("x",), spec, fe_dims=())[0.5]
        f2 = uqr_fit(ds, "y2", ("x",), spec, fe_dims=())[0.5]
        assert abs(f1.coefficients["x"] - f2.coefficients["x"]) < 1e-8
        assert f2.notes["q_hat"] - f1.notes["q_hat"] == pytest.approx(5.0, abs=1e-9)

    def test_robust_se_reported(self):
        rng = np.random.default_rng(24)
        n = 400
        x = rng.normal(size=n)
        y = x + rng.normal(size=n)
        ds = iid_panel({"y": y, "x": x})
        fit = uqr_fit(ds, "y", ("x",), QuantileSpec(taus=(0.5,)), fe_dims=())[0.5]
        assert fit.se_method == "robust"
        assert fit.se("x") > 0


class TestPropensityIpw:
    def test_uniform_weights_under_constant_propensity(self):
        rng = np.random.default_rng(31)
        n = 500
        t = (rng.random(n) < 0.4).astype(float)
        ds = iid_panel({"T": t, "y": rng.normal(size=n)})
        spec = TreatmentSpec(treatment="T")
        p, w = propensity_ipw(ds, spec)
        n1, n0 = int(t.sum()), int((1 - t).sum())
        assert np.allclose(w[t == 1.0], 1.0 / n1)
        assert np.allclose(w[t == 0.0], 1.0 / n0)
        assert np.ptp(p[np.isfinite(p)]) < 1e-12

    def test_clipping_applied(self):
        rng = np.random.default_rng(32)
        n = 400
        x = rng.normal(size=n)
        # nearly separable assignment pushes fitted propensities to the clip bounds
        t = ((2.5 * x + 0.1 * rng.normal(size=n)) > 1.5).astype(float)
        ds = iid_panel({"T": t, "x": x})
        spec = TreatmentSpec(treatment="T", propensity_regressors=("x",),
                             clip=(0.05, 0.95))
        p, w = propensity_ipw(ds, spec)
        ok = np.isfinite(p)
        assert p[ok].min() == pytest.approx(0.05)
        assert p[ok].max() == pytest.approx(0.95)

    def test_weights_sum_to_one_per_group(self):
        rng = np.random.default_rng(33)
        n = 600
        x = rng.normal(size=n)
        t = ((0.4 * x + rng.normal(size=n)) > 0).astype(float)
        ds = iid_panel({"T": t, "x": x})
        spec = TreatmentSpec(treatment="T", propensity_regressors=("x",))
        _, w = propensity_ipw(ds, spec)
        assert abs(np.nansum(w[t == 1.0]) - 1.0) < 1e-12
        assert abs(np.nansum(w[t == 0.0]) - 1.0) < 1e-12

    def test_reweighted_quantiles_no_op_when_constant(self):
        rng = np.random.default_rng(34)
        n = 500
        t = (rng.random(n) < 0.5).astype(float)
        y = rng.normal(size=n)
        ds = iid_panel({"T": t, "y": y})
        spec = TreatmentSpec(treatment="T")
        _, w = propensity_ipw(ds, spec)
        treated = t == 1.0
        for tau in (0.1, 0.5, 0.9):
            qw = weighted_quantile(y[treated], tau, w[treated])
            qu = weighted_quantile(y[treated], tau)
            assert abs(qw - qu) < 1e-12

    def test_empty_group_errors(self):
        ds = iid_panel({"T": np.ones(50), "y": np.zeros(50)})
        with pytest.raises(ValidationError, match="control group"):
            propensity_ipw(ds, TreatmentSpec(treatment="T"))


class TestRifTreatment:
    def test_group_below_minimum_errors(self):
        rng = np.random.default_rng(41)
        n = 100
        t = np.zeros(n)
        t[:20] = 1.0
        ds = iid_panel({"T": t, "y": rng.normal(size=n)})
        spec = TreatmentSpec(treatment="T", weighting="none", entity_fe=False, year_fe=False)
        with pytest.raises(ValidationError, match="treated group"):
            rif_treatment_fit(ds, "y", spec, QuantileSpec(taus=(0.5,)))

    def test_location_shift_recovered(self):
        rng = np.random.default_rng(42)
        taus = (0.25, 0.5, 0.75)
        effects = {t: [] for t in taus}
        for _ in range(25):
            n = 1200
            t = (rng.random(n) < 0.5).astype(float)
            y = rng.normal(size=n) + 0.5 * t
            ds = iid_panel({"T": t, "y": y})
            spec = TreatmentSpec(treatment="T", weighting="ipw", entity_fe=False,
                                 year_fe=False)
            fits = rif_treatment_fit(ds, "y", spec, QuantileSpec(taus=taus))
            for tau in taus:
                effects[tau].append(fits[tau].coefficients["T"])
        for tau in taus:
            assert abs(np.mean(effects[tau]) - 0.5) < 0.07

    def test_weighting_variants_agree_under_constant_propensity(self):
        rng = np.random.default_rng(43)
        n = 900
        t = (rng.random(n) < 0.5).astype(float)
        y = rng.normal(size=n) + 0.3 * t
        ds = iid_panel({"T": t, "y": y})
        qspec = QuantileSpec(taus=(0.5,))
        f_ipw = rif_treatment_fit(ds, "y", TreatmentSpec(
            treatment="T", weighting="ipw", entity_fe=False, year_fe=False), qspec)[0.5]
        f_raw = rif_treatment_fit(ds, "y", TreatmentSpec(
            treatment="T", weighting="none", entity_fe=False, year_fe=False), qspec)[0.5]
        assert f_ipw.coefficients["T"] == pytest.approx(f_raw.coefficients["T"], abs=1e-10)

    def test_treatment_spec_validation(self):
        with pytest.raises(ValidationError):
            TreatmentSpec(treatment="T", clip=(0.6, 0.9))
        with pytest.raises(ValidationError):
            TreatmentSpec(treatment="T", weighting="nope")


def fe_panel(seed=51, n_entities=40, n_periods=6, drop=0.25):
    """Unbalanced panel: entity and year effects, two regressors, a binary
    treatment that varies within entities, and about ``drop`` of the rows missing."""
    rng = np.random.default_rng(seed)
    ents = np.repeat([f"E{i}" for i in range(n_entities)], n_periods)
    years = np.tile(np.arange(2010, 2010 + n_periods), n_entities)
    keep = rng.random(ents.size) > drop
    n = int(keep.sum())
    effect = rng.normal(size=n_entities)[np.repeat(np.arange(n_entities), n_periods)][keep]
    x1, x2 = rng.normal(size=n), rng.normal(size=n)
    t = (0.5 * x1 + rng.normal(size=n) > 0).astype(float)
    y = effect + 0.1 * (years[keep] - 2010) + 0.4 * x1 - 0.3 * x2 + 0.5 * t + rng.normal(size=n) * (1 + 0.5 * np.abs(x2))
    return from_long(ents[keep], years[keep], {"y": y, "x1": x1, "x2": x2, "T": t})


def dummy_ols(ds, mask, regressors, rif, w=None):
    """Least squares of rif on the regressors and entity and year dummies:
    (beta, HC1 SEs, within-R2), the SEs and R2 over the regressors."""
    Z, names, _ = design_matrix(ds, mask, regressors, ("entity", "year"), True)
    D = Z[:, len(regressors):]
    w = np.ones(len(rif)) if w is None else w
    sw = np.sqrt(w)
    beta = np.linalg.lstsq(Z * sw[:, None], rif * sw, rcond=None)[0]
    e = rif - Z @ beta
    bread = np.linalg.inv((Z * w[:, None]).T @ Z)
    score = Z * (w * e)[:, None]
    n, p = Z.shape
    V = n / (n - p) * bread @ (score.T @ score) @ bread
    within = rif - D @ np.linalg.lstsq(D * sw[:, None], rif * sw, rcond=None)[0]
    r2 = 1.0 - np.sum(w * e**2) / np.sum(w * within**2)
    k = len(regressors)
    return beta[:k], np.sqrt(np.diag(V)[:k]), r2


class TestFixedEffectOracles:
    # tolerance, fixed before the first run: relative 1e-8; both sides are
    # direct least-squares solves (estim.fe_residuals against lstsq on the
    # dummies), so they differ by rounding only
    TOL = 1e-8

    def check(self, fit, regressors, beta, se, r2):
        for name, b, s in zip(regressors, beta, se):
            assert fit.coefficients[name] == pytest.approx(b, rel=self.TOL)
            assert fit.se(name) == pytest.approx(s, rel=self.TOL)
        assert fit.fit["r2"] == pytest.approx(r2, rel=self.TOL)

    def test_uqr_matches_dummy_variables(self):
        ds = fe_panel()
        regressors = ("x1", "x2")
        fits = uqr_fit(ds, "y", regressors, QuantileSpec())
        mask = np.isfinite(ds.column("y"))
        assert len(fits) == 9
        for tau, fit in fits.items():
            rr = rif_quantile(ds.column("y")[mask], QuantileSpec(), tau)
            self.check(fit, regressors, *dummy_ols(ds, mask, regressors, rr.rif))
            assert fit.notes["q_hat"] == rr.q_hat and fit.notes["f_hat"] == rr.f_hat

    @pytest.mark.parametrize("weighting", ["ipw", "none"])
    def test_treatment_matches_dummy_variables(self, weighting):
        ds = fe_panel()
        spec = TreatmentSpec(treatment="T", propensity_regressors=("x1",), controls=("x2",),
                             weighting=weighting)
        qspec = QuantileSpec()
        fits = rif_treatment_fit(ds, "y", spec, qspec)
        mask = np.isfinite(ds.column("y"))
        t = ds.column("T")[mask]
        if weighting == "ipw":
            w = propensity_ipw(ds, spec)[1][mask]
            for g in (0.0, 1.0):
                w[t == g] /= np.sum(w[t == g])
        else:
            w = None
        regressors = ("T", "x2")
        for tau, fit in fits.items():
            rif = np.empty(t.size)
            for g in (0.0, 1.0):
                rows = t == g
                rif[rows] = rif_quantile(ds.column("y")[mask][rows], qspec, tau,
                                         weights=None if w is None else w[rows]).rif
            self.check(fit, regressors, *dummy_ols(ds, mask, regressors, rif, w))


class TestOneDemeaningPerModel:
    """All taus of one model share one FE projection of [RIF, X]."""

    @pytest.fixture
    def calls(self, monkeypatch):
        seen = []
        original = estim.fe_residuals

        def counting(*args, **kwargs):
            seen.append(args[0].shape)
            return original(*args, **kwargs)

        monkeypatch.setattr(estim, "fe_residuals", counting)
        return seen

    def test_uqr(self, calls):
        uqr_fit(fe_panel(), "y", ("x1", "x2"), QuantileSpec())
        assert len(calls) == 1 and calls[0][1] == 9 + 2

    @pytest.mark.parametrize("weighting", ["ipw", "none"])
    def test_treatment(self, calls, weighting):
        spec = TreatmentSpec(treatment="T", propensity_regressors=("x1",), controls=("x2",),
                             weighting=weighting)
        rif_treatment_fit(fe_panel(), "y", spec, QuantileSpec())
        assert len(calls) == 1 and calls[0][1] == 9 + 2
