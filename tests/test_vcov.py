"""Covariance handling shared by every estimator: each bootstrapping estimator's
cluster-bootstrap covariance is estim.bootstrap_vcov driven by a refit written
here, on panel.take_entities' dataset of each draw, and the covariance kinds
are analytic and cluster_bootstrap alone.

An estimator's replicate solves the drawn entities' rows of its own dataset,
where an entity drawn twice is one entity whose rows come twice; in
take_entities' dataset each copy is an entity of its own. Both give the same
estimating equations, added in another order, so where a fit has entity codes
the covariances agree to round-off (RTOL); Heckman's two steps have none, and
agree bit for bit."""

import numpy as np
import pytest

from cdmpanel import (
    CountSpec,
    CqrSpec,
    HeckmanSpec,
    ModelSpec,
    ProdSpec,
    ValidationError,
    VcovSpec,
    bootstrap_vcov,
    cqr_fit,
    fe_ols,
    heckman_two_step,
    nb2_fit,
    ols_fit,
    poisson_fe_fit,
)
from cdmpanel import estim, synthdgp
from cdmpanel.counts import count_fits
from cdmpanel.estim import (
    _draw_cov,
    apply_vcov,
    complete_case_mask,
    design_matrix,
    fe_codes,
    linear_index,
    ols_core,
    replicate_rng,
)
from cdmpanel.heckman import inverse_mills
from cdmpanel.panel import take_entities

BOOT = VcovSpec("cluster_bootstrap", replications=5, seed=2024)
# largest gap of a replicate covariance to take_entities' refits, relative to
# the refits' largest entry, where the fit has entity codes
RTOL = 1e-12
# a seed whose 10 draws of the 40 entities leave out entities 0 and 1 together once
BOOT_ONE_FAILURE = 2

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


def assert_same_vcov(got, want, exact):
    if exact:
        assert np.array_equal(got, want)
    else:
        assert np.max(np.abs(got - want)) <= RTOL * np.max(np.abs(want))


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
    boot = bootstrap_vcov(lambda picks: np.array([refit(take_entities(ds, picks))[nm] for nm in names]), ds, BOOT)
    assert_same_vcov(fit.vcov, boot.vcov, exact=estimator == "heckman_two_step")
    assert fit.se_method == "cluster_bootstrap(B=5, seed=2024)"
    assert fit.notes["bootstrap_failures"] == boot.n_failed


def test_refit_runs_once_per_replicate(ds):
    # each replicate's refit gets the draw's rows of the point sample: the
    # drawn entities' rows on which the mask holds, in draw order
    calls = []
    mask = np.arange(ds.n_rows) % 3 > 0
    point = ols_fit(ds, OLS)

    def refit(rows):
        calls.append(rows)
        return point.coefficients

    fit = apply_vcov(point, refit, ds, mask, BOOT)
    assert len(calls) == BOOT.replications
    for r, rows in enumerate(calls):
        picks = replicate_rng(BOOT.seed, r).integers(0, len(ds.entities), size=len(ds.entities))
        want = np.concatenate([np.flatnonzero(mask & (ds.entity_index() == e)) for e in picks])
        assert np.array_equal(rows, want)
    assert fit.notes["bootstrap_failures"] == 0


@pytest.mark.parametrize("estimator", ["poisson_fe_fit", "nb2_fit", "heckman_two_step", "cqr_fit"])
def test_robust_vcov_refused(ds, estimator):
    # the covariance kinds are analytic and cluster_bootstrap alone
    fit_with, _ = ESTIMATORS[estimator]
    with pytest.raises(ValidationError, match="unknown vcov kind 'hc_robust'"):
        fit_with(ds, VcovSpec("hc_robust"))


def test_ols_gives_robust_vcov(ds):
    # HC1 is ols_core's, which the RIF regressions ask for; no VcovSpec kind reaches it
    mask = complete_case_mask(ds, [OLS.dependent, *OLS.regressors])
    X, names, _ = design_matrix(ds, mask, OLS.regressors, OLS.fe_dims, intercept=True)
    y = ds.column(OLS.dependent)[mask]
    robust, analytic = (ols_core(X, y, names, robust=r) for r in (True, False))
    assert np.array_equal(robust.beta, analytic.beta)
    assert not np.array_equal(robust.vcov, analytic.vcov)


def test_cqr_analytic_keeps_zero_vcov(ds):
    fit = cqr_fit(ds, CqrSpec(**CQR, vcov=VcovSpec()))
    assert fit.se_method == "none"
    assert not fit.vcov.any()


# A bootstrap replicate solves the drawn entities' rows of the dataset it was
# given; it must give the coefficients of the public fit on take_entities'
# dataset of the draw (see the module docstring), and fail where that fit
# raises.
HECKMAN_YEAR = dict(outcome="RDINT", selection="D", outcome_regressors=("X1", "lnEMP", "lnCAPINT"),
                    exclusion_restrictions=("Z",), fe_dims=("year",))
COUNTS = ("PAT", ("RDINT_star", "lnEMP"))
PROD = dict(dependent="lnVA_pe", patent_intensities=("lnPATINT_true",), controls=("lnEMP", "lnCAPINT"))

# model -> (its fits with a VcovSpec, the coefficients of its point fits on one dataset)
PIPELINE = {
    "heckman_year_fe": (
        lambda ds, vcov: [heckman_two_step(ds, HeckmanSpec(**HECKMAN_YEAR, vcov=vcov)).outcome],
        lambda ds: [heckman_two_step(ds, HeckmanSpec(**HECKMAN_YEAR)).outcome.coefficients],
    ),
    "count_fits": (
        lambda ds, vcov: count_fits(ds, [CountSpec(*COUNTS, family, vcov=vcov) for family in ("poisson_fe", "nb2")]),
        lambda ds: [f.coefficients for f in count_fits(ds, [CountSpec(*COUNTS, f) for f in ("poisson_fe", "nb2")])],
    ),
    "fe_ols": (
        lambda ds, vcov: [fe_ols(ds, ProdSpec(**PROD, vcov=vcov))],
        lambda ds: [fe_ols(ds, ProdSpec(**PROD)).coefficients],
    ),
}


def assert_replicates_are_refits(ds, model, vcov):
    """The fits' bootstrap equals bootstrap_vcov over the public refits of
    take_entities datasets, failures included; returns each replicate's draw."""
    fit_with, refit = PIPELINE[model]
    fits = fit_with(ds, vcov)
    picks = []

    def draw(p):
        picks.append(p)
        coefficients = refit(take_entities(ds, p))
        if any(nm not in c for c, f in zip(coefficients, fits) for nm in f.names):
            raise ValidationError("the resample gives no coefficient of the fit")
        return np.concatenate([[c[nm] for nm in f.names] for c, f in zip(coefficients, fits)])

    boot = bootstrap_vcov(draw, ds, vcov)
    stop = 0
    for f in fits:
        start, stop = stop, stop + len(f.names)
        assert_same_vcov(f.vcov, _draw_cov(boot.draws[:, start:stop]), exact=model == "heckman_year_fe")
        assert f.notes["bootstrap_failures"] == boot.n_failed
    return picks, boot.n_failed


@pytest.mark.parametrize("model", sorted(PIPELINE))
def test_pipeline_replicates_are_take_entities_refits(ds, model):
    assert_replicates_are_refits(ds, model, BOOT)


def entity_rows(ds, entities):
    return np.isin(ds.entity_index(), entities)


def test_replicate_without_a_year(ds):
    # 2012 has a complete row in entity 0 alone: a draw without it has no
    # 2012 row, and the year effects it absorbs are those of the other years
    lnva = ds.column("lnVA_pe").copy()
    lnva[(ds.row_years() == 2012) & ~entity_rows(ds, [0])] = np.nan
    picks, _ = assert_replicates_are_refits(ds.with_replaced({"lnVA_pe": lnva}), "fe_ols", BOOT)
    assert any(0 not in p for p in picks) and any(0 in p for p in picks)


def test_named_year_effect_missing_from_a_draw_fails_it(ds):
    # 2012 has counts only in entities 0 and 1: a draw of neither has no
    # 2012 effect, and fails
    pat = ds.column("PAT").copy()
    pat[(ds.row_years() == 2012) & ~entity_rows(ds, [0, 1])] = np.nan
    vcov = VcovSpec("cluster_bootstrap", replications=10, seed=BOOT_ONE_FAILURE)
    _, n_failed = assert_replicates_are_refits(ds.with_replaced({"PAT": pat}), "count_fits", vcov)
    assert n_failed == 1


@pytest.mark.parametrize("model", ["count_fits", "fe_ols"])
def test_replicate_with_an_entity_without_complete_rows(ds, model):
    lnemp = ds.column("lnEMP").copy()
    lnemp[entity_rows(ds, [0])] = np.nan
    picks, _ = assert_replicates_are_refits(ds.with_replaced({"lnEMP": lnemp}), model, BOOT)
    assert any(0 in p for p in picks)


def test_entity_with_one_complete_row_drawn_twice_is_dropped(ds):
    # entities 0-9 have one complete row each, with a positive count, which
    # their own effect fits exactly; a count fit drops them, and in a draw one
    # drawn twice still has one distinct row, as each of take_entities'
    # copies has
    pat = ds.column("PAT").copy()
    first = np.flatnonzero(pat > 0)
    single = first[np.unique(ds.entity_index()[first], return_index=True)[1]][:10]
    assert np.array_equal(ds.entity_index()[single], np.arange(10))
    pat[entity_rows(ds, range(10)) & ~np.isin(np.arange(ds.n_rows), single)] = np.nan
    picks, _ = assert_replicates_are_refits(ds.with_replaced({"PAT": pat}), "count_fits", BOOT)
    assert any(np.bincount(p, minlength=10)[:10].max() > 1 for p in picks)


def test_failed_replicate_counted_as_its_refit_fails(ds):
    # lnCAPINT varies within entities 0 and 1 alone: in a draw of neither it
    # is an entity effect, which the within fit names as collinear
    lncap = np.where(entity_rows(ds, [0, 1]), ds.column("lnCAPINT"), 1.0)
    vcov = VcovSpec("cluster_bootstrap", replications=10, seed=BOOT_ONE_FAILURE)
    picks, n_failed = assert_replicates_are_refits(ds.with_replaced({"lnCAPINT": lncap}), "fe_ols", vcov)
    assert n_failed == 1
    assert sum(not np.isin([0, 1], p).any() for p in picks) == 1


def test_replicate_without_a_selected_row_fails(ds):
    # only entities 0 and 1 are selected: a draw of neither has no selected
    # row, and fails, as the point fit on take_entities' dataset of it does
    chosen = entity_rows(ds, [0, 1])
    d = ds.with_replaced({"D": chosen.astype(float), "RDINT": np.where(chosen, ds.column("RDINT_star"), np.nan)})
    vcov = VcovSpec("cluster_bootstrap", replications=10, seed=BOOT_ONE_FAILURE)
    fit = heckman_two_step(d, HeckmanSpec(**HECKMAN, vcov=vcov)).outcome
    assert fit.notes["bootstrap_failures"] == 1
    picks = [replicate_rng(vcov.seed, r).integers(0, len(ds.entities), size=len(ds.entities)) for r in range(10)]
    neither = [p for p in picks if not np.isin([0, 1], p).any()]
    assert len(neither) == 1
    with pytest.raises(ValidationError, match="^no selected rows"):
        heckman_two_step(take_entities(d, neither[0]), HeckmanSpec(**HECKMAN))


def test_imr_index_adds_as_linear_index(ds):
    # step 2 of the point fit and of every replicate sums the probit index
    # in estim.linear_index's order; X @ b differs from it in the last bits
    spec = HeckmanSpec(**HECKMAN_YEAR)
    fit = heckman_two_step(ds, spec)
    index = linear_index(fit.probit, ds)
    sel = ds.column(spec.selection)
    mask = complete_case_mask(ds, [spec.outcome, *spec.outcome_regressors]) & (sel == 1.0) & np.isfinite(index)
    X, names, _ = design_matrix(ds, mask, spec.outcome_regressors, spec.fe_dims, intercept=False)
    X = np.column_stack([X, inverse_mills(index[mask]), np.ones(X.shape[0])])
    core = ols_core(X, ds.column(spec.outcome)[mask], [*names, "IMR", "_cons"])
    assert list(fit.outcome.coefficients) == [*names, "IMR", "_cons"]
    assert np.array_equal(fit.outcome.coef_vector(), core.beta)


def test_fe_ols_replicate_is_a_frequency_weighted_fit(ds, monkeypatch):
    # an entity drawn k times enters a replicate as one entity whose rows come
    # k times: the fit on the distinct drawn rows with weight k (Cameron,
    # Gelbach & Miller 2008), within 1e-10 relative to its largest coefficient
    recorded = []

    def recording_bootstrap(draw, ds, vcov):
        boot = bootstrap_vcov(draw, ds, vcov)
        recorded.append(boot.draws)
        return boot

    monkeypatch.setattr(estim, "bootstrap_vcov", recording_bootstrap)
    vcov = VcovSpec("cluster_bootstrap", replications=20, seed=7)
    fit = ols_fit(ds, OLS, vcov)
    assert fit.notes["bootstrap_failures"] == 0
    mask = complete_case_mask(ds, [OLS.dependent, *OLS.regressors])
    n_entities = len(ds.entities)
    for r, got in enumerate(recorded[0]):
        counts = np.bincount(replicate_rng(vcov.seed, r).integers(0, n_entities, size=n_entities), minlength=n_entities)
        w = counts[ds.entity_index()]
        rows = np.flatnonzero(mask & (w > 0))
        X, names, _ = design_matrix(ds, rows, OLS.regressors, (), intercept=False)
        fe = [fe_codes(ds, dim, rows)[0] for dim in OLS.fe_dims]
        want = ols_core(X, ds.column(OLS.dependent)[rows], names, w=w[rows].astype(float), fe=fe).beta
        assert names == list(fit.coefficients)
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


def test_wald_test_needs_a_draw_more_than_its_restrictions(ds):
    # 3 draws give a covariance of rank at most 2, too few for 3 restrictions;
    # 4 draws are enough
    fit = ols_fit(ds, OLS, VcovSpec("cluster_bootstrap", replications=3, seed=2024))
    with pytest.raises(ValidationError, match="^no Wald test: 3 restrictions need at least 4 bootstrap draws, "
                                              "the covariance has 3$"):
        estim.wald_chi2(fit, OLS.regressors)
    assert fit.notes["bootstrap_draws"] == 3
    estim.attach_wald(fit, OLS.regressors)
    assert fit.wald_chi2 is None and "the covariance has 3" in fit.notes["wald_refused"]
    stat, df, p = estim.wald_chi2(ols_fit(ds, OLS, VcovSpec("cluster_bootstrap", replications=4, seed=2024)),
                                  OLS.regressors)
    assert df == 3 and stat >= 0 and 0 <= p <= 1
