"""Covariance handling shared by every estimator: each bootstrapping estimator's
cluster-bootstrap covariance is exactly estim.bootstrap_vcov driven by a refit
written here, and a covariance kind an estimator cannot give is refused."""

import numpy as np
import pytest

from cdmpanel import (
    CountSpec,
    CqrSpec,
    HeckmanSpec,
    ModelSpec,
    ValidationError,
    VcovSpec,
    bootstrap_vcov,
    cqr_fit,
    heckman_two_step,
    nb2_fit,
    ols_fit,
    poisson_fe_fit,
)
from cdmpanel import synthdgp
from cdmpanel.estim import apply_vcov

BOOT = VcovSpec("cluster_bootstrap", replications=5, seed=2024)

OLS = ModelSpec("lnVA_pe", ("lnPATINT_true", "lnEMP", "lnCAPINT"), fe_dims=("entity", "year"))
HECKMAN = dict(outcome="RDINT", selection="D", outcome_regressors=("X1",), exclusion_restrictions=("Z",))
CQR = dict(dependent="lnVA_pe", regressors=("lnPATINT_true", "lnEMP"), tau=0.5, fe_dims=("entity", "year"))

# estimator -> (fit with a VcovSpec, the point-estimate refit of one resample)
ESTIMATORS = {
    "ols_fit": (
        lambda ds, vcov: ols_fit(ds, OLS, vcov),
        lambda ds: ols_fit(ds, OLS).coefficients,
    ),
    "poisson_fe_fit": (
        lambda ds, vcov: poisson_fe_fit(ds, CountSpec("PAT", ("RDINT_star",), "poisson_fe", vcov=vcov)),
        lambda ds: poisson_fe_fit(ds, CountSpec("PAT", ("RDINT_star",), "poisson_fe")).coefficients,
    ),
    "nb2_fit": (
        lambda ds, vcov: nb2_fit(ds, CountSpec("PAT", ("RDINT_star",), "nb2", vcov=vcov)),
        lambda ds: nb2_fit(ds, CountSpec("PAT", ("RDINT_star",), "nb2")).coefficients,
    ),
    "heckman_two_step": (
        lambda ds, vcov: heckman_two_step(ds, HeckmanSpec(**HECKMAN, vcov=vcov)).outcome,
        lambda ds: heckman_two_step(ds, HeckmanSpec(**HECKMAN)).outcome.coefficients,
    ),
    "cqr_fit": (
        lambda ds, vcov: cqr_fit(ds, CqrSpec(**CQR, vcov=vcov)),
        lambda ds: cqr_fit(ds, CqrSpec(**CQR)).coefficients,
    ),
}


@pytest.fixture(scope="module")
def ds():
    cfg = synthdgp.DgpConfig(
        n_entities=40,
        n_periods=5,
        seed=17,
        counts=synthdgp.CountConfig(alpha=0.5, family="nb2"),
    )
    return synthdgp.generate_panel(cfg)


@pytest.mark.parametrize("estimator", sorted(ESTIMATORS))
def test_bootstrap_vcov_matches_hand_refit(ds, estimator):
    fit_with, refit = ESTIMATORS[estimator]
    fit = fit_with(ds, BOOT)
    names = list(fit.coefficients)
    boot = bootstrap_vcov(lambda d: np.array([refit(d)[nm] for nm in names]), ds, BOOT)
    assert np.array_equal(fit.vcov, boot.vcov)
    assert fit.se_method == "cluster_bootstrap(B=5, seed=2024)"
    assert fit.notes["bootstrap_failures"] == boot.n_failed


def test_refit_runs_once_per_replicate(ds):
    calls = []

    def refit(d):
        calls.append(d.n_rows)
        return ols_fit(d, OLS)

    fit = apply_vcov(ols_fit(ds, OLS), refit, ds, BOOT, "ols_fit")
    assert len(calls) == BOOT.replications
    assert fit.notes["bootstrap_failures"] == 0


@pytest.mark.parametrize("estimator", ["poisson_fe_fit", "nb2_fit", "heckman_two_step", "cqr_fit"])
def test_robust_vcov_refused(ds, estimator):
    fit_with, _ = ESTIMATORS[estimator]
    with pytest.raises(ValidationError, match=f"{estimator}.*'hc_robust'"):
        fit_with(ds, VcovSpec("hc_robust"))


def test_ols_gives_robust_vcov(ds):
    fit = ols_fit(ds, OLS, VcovSpec("hc_robust"))
    assert fit.se_method == "robust"
    assert not np.array_equal(fit.vcov, ols_fit(ds, OLS).vcov)


def test_cqr_analytic_keeps_zero_vcov(ds):
    fit = cqr_fit(ds, CqrSpec(**CQR, vcov=VcovSpec()))
    assert fit.se_method == "none"
    assert not fit.vcov.any()
