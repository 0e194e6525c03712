import warnings

import numpy as np
import pytest

from cdmpanel import (
    CollinearityError,
    DeriveRule,
    ProdSpec,
    ValidationError,
    VcovSpec,
    derive,
    fe_ols,
    mundlak_test,
)
from cdmpanel import estim, synthdgp
from cdmpanel.estim import INTERCEPT, FitResult


def prod_panel(seed=0, n_entities=200, n_periods=6, corr=0.0):
    cfg = synthdgp.DgpConfig(
        n_entities=n_entities,
        n_periods=n_periods,
        seed=seed,
        productivity=synthdgp.ProductivityConfig(effect_covariate_corr=corr),
    )
    ds = synthdgp.generate_panel(cfg)
    return derive(ds, DeriveRule.lead("lnVA_pe", 1, "lnVA_lead"))


def base_spec(**kw):
    return ProdSpec(
        dependent="lnVA_lead",
        patent_intensities=("lnPATINT_true",),
        controls=("lnEMP", "lnCAPINT"),
        **kw,
    )


class TestFeOls:
    def test_slope_recovery_with_bootstrap_se(self):
        ds = prod_panel(seed=51)
        spec = base_spec(vcov=VcovSpec("cluster_bootstrap", replications=60, seed=7))
        fit = fe_ols(ds, spec)
        se = fit.se("lnPATINT_true")
        assert abs(fit.coefficients["lnPATINT_true"] - 0.4) < 3 * se
        assert fit.wald_chi2 is not None and fit.wald_chi2[2] < 0.01
        assert fit.fit["adj_r2"] is not None

    def test_demeaning_matches_dummy_regression(self):
        ds = prod_panel(seed=52, n_entities=25, n_periods=5)
        fit = fe_ols(ds, base_spec())

        mask = np.isfinite(ds.column("lnVA_lead"))
        y = ds.column("lnVA_lead")[mask]
        regs = ["lnPATINT_true", "lnEMP", "lnCAPINT"]
        X = np.column_stack([ds.column(r)[mask] for r in regs])
        ent = ds.entity_index()[mask]
        yr = ds.year_index()[mask]
        dums = [X]
        for labels in (ent, yr):
            lev = np.unique(labels)[1:]
            dums.append((labels[:, None] == lev[None, :]).astype(float))
        dums.append(np.ones((mask.sum(), 1)))
        full = np.hstack(dums)
        coef, *_ = np.linalg.lstsq(full, y, rcond=None)
        for j, r in enumerate(regs):
            assert abs(fit.coefficients[r] - coef[j]) < 1e-9

    def test_entity_constant_regressor_fully_absorbed(self):
        ds = prod_panel(seed=53, n_entities=30, n_periods=5)
        const = np.repeat(np.arange(30, dtype=float), 5)
        ds = ds.with_column("entity_const", const)
        spec = ProdSpec(
            dependent="lnVA_lead",
            patent_intensities=("lnPATINT_true",),
            controls=("entity_const",),
        )
        with pytest.raises(CollinearityError, match="entity_const"):
            fe_ols(ds, spec)

    def test_dependent_shift_invariance(self):
        ds = prod_panel(seed=54, n_entities=40, n_periods=5)
        shifted = ds.with_column("lnVA_shift", ds.column("lnVA_lead") + 7.5)
        f1 = fe_ols(ds, base_spec())
        spec2 = ProdSpec(
            dependent="lnVA_shift",
            patent_intensities=("lnPATINT_true",),
            controls=("lnEMP", "lnCAPINT"),
        )
        f2 = fe_ols(shifted, spec2)
        for name in f1.coefficients:
            assert abs(f1.coefficients[name] - f2.coefficients[name]) < 1e-10

    def test_lead_never_crosses_entity_boundary(self):
        ds = prod_panel(seed=55, n_entities=10, n_periods=4)
        lead = ds.column("lnVA_lead").reshape(10, 4)
        assert np.isnan(lead[:, -1]).all()

    def test_classical_and_extended_forms_enforced(self):
        with pytest.raises(ValidationError):
            ProdSpec(dependent="y", patent_intensities=(), controls=())
        with pytest.raises(ValidationError):
            ProdSpec(dependent="y", patent_intensities=("a", "b", "c"), controls=())


class TestMundlak:
    def test_detects_correlated_effects(self):
        rejections = 0
        for rep in range(30):
            ds = prod_panel(seed=1000 + rep, n_entities=300, n_periods=6, corr=0.6)
            _, _, p, _ = mundlak_test(ds, base_spec())
            rejections += p < 0.05
        assert rejections / 30 > 0.8

    def test_size_under_independent_effects(self):
        rejections = 0
        for rep in range(40):
            ds = prod_panel(seed=2000 + rep, n_entities=300, n_periods=6, corr=0.0)
            _, _, p, _ = mundlak_test(ds, base_spec())
            rejections += p < 0.05
        assert rejections / 40 <= 0.175

    def test_time_invariant_regressor_excluded_with_warning(self):
        ds = prod_panel(seed=56, n_entities=30, n_periods=5)
        const = np.repeat(np.arange(30, dtype=float), 5)
        ds = ds.with_column("tic", const)
        spec = ProdSpec(
            dependent="lnVA_lead",
            patent_intensities=("lnPATINT_true",),
            controls=("lnEMP", "lnCAPINT", "tic"),
        )
        with pytest.warns(UserWarning, match="tic"):
            chi2, df, p, means = mundlak_test(ds, spec)
        assert "mean_tic" not in means
        assert df == 3

    def test_rescaling_invariance(self):
        ds = prod_panel(seed=57, n_entities=60, n_periods=5)
        chi2_a, *_ = mundlak_test(ds, base_spec())
        ds2 = ds.with_column("lnEMP_scaled", 100.0 * ds.column("lnEMP"))
        spec2 = ProdSpec(
            dependent="lnVA_lead",
            patent_intensities=("lnPATINT_true",),
            controls=("lnEMP_scaled", "lnCAPINT"),
        )
        chi2_b, *_ = mundlak_test(ds2, spec2)
        assert chi2_a == pytest.approx(chi2_b, rel=1e-6)

    def test_negative_variance_component_clamped_with_warning(self):
        cfg = synthdgp.DgpConfig(
            n_entities=12, n_periods=8, seed=1,
            productivity=synthdgp.ProductivityConfig(entity_sd=0.0, noise_sd=1.0),
        )
        ds = synthdgp.generate_panel(cfg)
        ds = derive(ds, DeriveRule.lead("lnVA_pe", 1, "lnVA_lead"))
        with pytest.warns(UserWarning, match="clamped"):
            chi2, df, p, _ = mundlak_test(ds, base_spec())
        assert np.isfinite(chi2) and 0.0 <= p <= 1.0

    def test_mean_coefficients_reported(self):
        ds = prod_panel(seed=58, n_entities=50, n_periods=5, corr=0.5)
        _, df, _, means = mundlak_test(ds, base_spec())
        assert set(means) == {"mean_lnPATINT_true", "mean_lnEMP", "mean_lnCAPINT"}
        assert df == 3

    def test_regressor_with_equal_entity_means_named_by_the_between_fit(self):
        # lnEMP demeaned within entity on the test's sample varies over time,
        # but its entity means are all zero up to rounding: its mean column
        # is noise and must not enter the Wald test as a degree of freedom
        ds = prod_panel(seed=5, n_entities=100, n_periods=6)
        mask = estim.complete_case_mask(ds, ["lnEMP", "lnVA_lead"])
        demeaned = np.full(ds.n_rows, np.nan)
        demeaned[mask] = estim.fe_residuals(ds.column("lnEMP")[mask][:, None],
                                            [estim.fe_codes(ds, "entity", mask)[0]])[0][:, 0]
        ds = ds.with_column("dEMP", demeaned)
        spec = ProdSpec(
            dependent="lnVA_lead",
            patent_intensities=("lnPATINT_true",),
            controls=("dEMP", "lnCAPINT"),
        )
        with pytest.raises(CollinearityError, match="mean_dEMP"):
            mundlak_test(ds, spec)

    def test_between_fit_without_residual_degree_of_freedom_refused(self):
        # 4 entities for 3 entity means and the intercept: the between fit
        # is exact, and its residual variance, the entity variance
        # component's first term, is not estimable
        ds = prod_panel(seed=59, n_entities=4, n_periods=6)
        with pytest.raises(ValidationError, match="^only 4 complete cases for 4 regressors$"):
            mundlak_test(ds, base_spec())


def reference_mundlak(ds, spec):
    """Within / between / GLS by per-entity bincount means and lstsq solves,
    with a hand-built covariance: an independent oracle for mundlak_test."""
    regressors = list(spec.regressors)
    mask = estim.complete_case_mask(ds, [spec.dependent, *regressors])
    n = int(mask.sum())
    ent, entities = estim.fe_codes(ds, "entity", mask)
    n_ent = len(entities)

    y = ds.column(spec.dependent)[mask]
    design, names, _ = estim.design_matrix(ds, mask, regressors, ("year",), intercept=False)
    X = design[:, : len(regressors)]

    counts = np.bincount(ent, minlength=n_ent).astype(float)
    means_X = np.vstack([np.bincount(ent, weights=X[:, j], minlength=n_ent) / counts
                         for j in range(X.shape[1])]).T

    time_varying = []
    for j, name in enumerate(regressors):
        within = X[:, j] - means_X[ent, j]
        if np.max(np.abs(within)) <= 1e-10 * (1.0 + np.max(np.abs(X[:, j]))):
            warnings.warn(f"regressor {name!r} is constant within every entity", stacklevel=2)
        else:
            time_varying.append(j)

    mean_names = [f"mean_{regressors[j]}" for j in time_varying]
    Z = np.column_stack([design, means_X[ent][:, time_varying]])
    names += mean_names

    within_y = y - np.bincount(ent, weights=y, minlength=n_ent)[ent] / counts[ent]
    Zbar = np.vstack([np.bincount(ent, weights=Z[:, j], minlength=n_ent) / counts
                      for j in range(Z.shape[1])]).T
    within_Z = Z - Zbar[ent]
    keep_w = [j for j in range(within_Z.shape[1]) if np.max(np.abs(within_Z[:, j])) > 1e-12]
    bw, *_ = np.linalg.lstsq(within_Z[:, keep_w], within_y, rcond=None)
    rss_w = float(np.sum((within_y - within_Z[:, keep_w] @ bw) ** 2))
    sigma2_e = rss_w / max(n - n_ent - len(keep_w), 1)

    ybar = np.bincount(ent, weights=y, minlength=n_ent) / counts
    Bmat = np.column_stack([means_X, np.ones(n_ent)])
    bb, *_ = np.linalg.lstsq(Bmat, ybar, rcond=None)
    rss_b = float(np.sum((ybar - Bmat @ bb) ** 2))
    t_harm = n_ent / float(np.sum(1.0 / counts))
    sigma2_u = max(rss_b / max(n_ent - Bmat.shape[1], 1) - sigma2_e / t_harm, 0.0)

    th = (1.0 - np.sqrt(sigma2_e / (sigma2_e + counts * sigma2_u)))[ent]
    G = np.column_stack([Z - th[:, None] * Zbar[ent], 1.0 - th])
    coef, *_ = np.linalg.lstsq(G, y - th * ybar[ent], rcond=None)
    resid = y - th * ybar[ent] - G @ coef
    V = float(np.sum(resid**2)) / max(n - G.shape[1], 1) * np.linalg.inv(G.T @ G)
    fit = FitResult(coefficients=dict(zip([*names, INTERCEPT], coef)), vcov=V, n_obs=n)
    chi2, df, p = estim.wald_chi2(fit, mean_names)
    return chi2, df, p, {nm: fit.coefficients[nm] for nm in mean_names}


def _holes_in_capint(ds):
    rng = np.random.default_rng(3)
    capint = ds.column("lnCAPINT").copy()
    capint[rng.random(ds.n_rows) < 0.15] = np.nan
    return ds.with_replaced({"lnCAPINT": capint})


def _time_invariant_control(ds):
    return ds.with_column("tic", np.repeat(np.arange(len(ds.entities), dtype=float), len(ds.periods)))


MUNDLAK_CASES = {
    "balanced": (lambda ds: ds, {}),
    "holes_in_control": (_holes_in_capint, {}),
    "time_invariant_control": (_time_invariant_control, {"controls": ("lnEMP", "lnCAPINT", "tic")}),
}


@pytest.mark.parametrize("case", list(MUNDLAK_CASES))
def test_mundlak_matches_reference(case):
    edit, spec_kw = MUNDLAK_CASES[case]
    ds = edit(prod_panel(seed=60, n_entities=500, n_periods=8, corr=0.3))
    spec = ProdSpec(**{
        "dependent": "lnVA_lead",
        "patent_intensities": ("lnPATINT_true",),
        "controls": ("lnEMP", "lnCAPINT"),
        **spec_kw,
    })
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        chi2, df, p, means = mundlak_test(ds, spec)
    with warnings.catch_warnings(record=True) as caught_ref:
        warnings.simplefilter("always")
        ref_chi2, ref_df, ref_p, ref_means = reference_mundlak(ds, spec)
    assert len(caught) == len(caught_ref)
    if case == "time_invariant_control":
        assert "tic" in str(caught[0].message) and "mean_tic" not in means
    assert df == ref_df == len(means)
    assert list(means) == list(ref_means)
    assert chi2 == pytest.approx(ref_chi2, rel=1e-9)
    assert p == pytest.approx(ref_p, rel=1e-9)
    for name, value in ref_means.items():
        assert means[name] == pytest.approx(value, rel=1e-9)
