"""Entity effects follow one rule in every fit: they and the level ``_cons``
are never coefficients, a regressor constant within every entity is named,
and a model with nothing but entity effects is refused."""

import numpy as np
import pytest
from scipy.optimize import linprog
from scipy.special import gammaln

from cdmpanel import (
    CollinearityError,
    CountSpec,
    CqrSpec,
    ModelSpec,
    QuantileSpec,
    ValidationError,
    cqr_fit,
    estim,
    nb2_fit,
    ols_fit,
    synthdgp,
    uqr_fit,
)
from cdmpanel import counts, cqr, heckman
from cdmpanel.counts import count_fits
from cdmpanel.estim import INTERCEPT, linear_index

FAMILIES = [("poisson_fe",), ("nb2",), ("poisson_fe", "nb2")]


def count_panel(seed, alpha, family, n_entities=40):
    cfg = synthdgp.DgpConfig(
        n_entities=n_entities, n_periods=5, seed=seed,
        counts=synthdgp.CountConfig(slope_rdint=0.5, entity_sd=0.4, alpha=alpha, family=family),
    )
    ds = synthdgp.generate_panel(cfg)
    return ds.with_column("by_entity", np.repeat(np.arange(n_entities, dtype=float), 5))


def specs(families, regressors=("RDINT_star",), **kw):
    return [CountSpec("PAT", regressors, family, **kw) for family in families]


def test_entity_constant_regressor_named_for_every_mix_of_families():
    ds = count_panel(seed=9, alpha=0.0, family="poisson")
    for families in FAMILIES:
        with pytest.raises(CollinearityError, match="column 'by_entity'"):
            count_fits(ds, specs(families, ("RDINT_star", "by_entity")))


@pytest.mark.parametrize("families", FAMILIES, ids="+".join)
def test_count_model_with_only_entity_effects_refused(families):
    ds = count_panel(seed=9, alpha=0.0, family="poisson")
    with pytest.raises(ValidationError, match="^no identifiable regressors beside the entity effects$"):
        count_fits(ds, specs(families, (), year_fe=False))


def test_cqr_with_only_entity_effects_refused():
    ds = count_panel(seed=9, alpha=0.0, family="poisson")
    with pytest.raises(ValidationError, match="^no identifiable regressors beside the entity effects$"):
        cqr_fit(ds, CqrSpec("lnVA_pe", (), fe_dims=("entity",)))


def test_no_fit_reports_cons_beside_entity_effects():
    names = {}
    for alpha, family in [(0.0, "poisson"), (0.8, "nb2")]:
        ds = count_panel(seed=5, alpha=alpha, family=family)
        poisson, nb2 = count_fits(ds, specs(("poisson_fe", "nb2")))
        assert (nb2.notes["alpha"] > 0) == (alpha > 0)
        # both count families report the same names: slopes and year effects
        assert list(nb2.coefficients) == list(poisson.coefficients)
        assert nb2.vcov.shape == (len(nb2.coefficients),) * 2
        names[f"poisson_fe, alpha {alpha}"] = list(poisson.coefficients)
        names[f"nb2, alpha {alpha}"] = list(nb2.coefficients)
    fe = ("entity", "year")
    names["cqr"] = list(cqr_fit(ds, CqrSpec("lnVA_pe", ("X1",), fe_dims=fe)).coefficients)
    names["ols_fit"] = list(ols_fit(ds, ModelSpec("lnVA_pe", ("X1",), fe_dims=fe)).coefficients)
    names["uqr_fit"] = list(uqr_fit(ds, "lnVA_pe", ("X1",), QuantileSpec(taus=(0.5,)), fe)[0.5].coefficients)
    assert [label for label, nms in names.items() if INTERCEPT in nms] == []
    assert all(nms[0] in ("RDINT_star", "X1") for nms in names.values())


@pytest.mark.parametrize("alpha, family", [(0.0, "poisson"), (0.8, "nb2")])
def test_nb2_linear_index_keeps_the_level(monkeypatch, alpha, family):
    # the level _cons is one of the absolute entity effects now, so the index
    # must equal _cons + relative effect + x'b of the MLE's own parameters
    # [x, _cons, log alpha if fitted, the E-1 relative effects]; tolerance
    # fixed before the first run: 1e-12 relative
    results = []
    mle_fit = estim.mle_fit

    def recorded(*args, **kwargs):
        results.append(mle_fit(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(estim, "mle_fit", recorded)
    ds = count_panel(seed=5, alpha=alpha, family=family)
    fit = nb2_fit(ds, CountSpec("PAT", ("RDINT_star",), "nb2", year_fe=False))
    assert (fit.notes["alpha"] > 0) == (alpha > 0)
    params = results[-1].params  # the final fit's, log alpha third if alpha > 0
    effects = fit.notes["entity_effects"]
    n_dense = 3 if alpha > 0 else 2
    assert len(params) == n_dense + len(effects) - 1
    b, cons, relative = params[0], params[1], np.concatenate(([0.0], params[n_dense:]))
    assert fit.coefficients == {"RDINT_star": b}
    assert list(effects.values()) == (cons + relative).tolist()

    rows = np.isin(np.array(ds.entities)[ds.entity_index()], list(effects))
    level = dict(zip(effects, relative))
    want = np.array([cons + level[ds.entities[e]] for e in ds.entity_index()[rows]])
    want += b * ds.column("RDINT_star")[rows]
    got = linear_index(fit, ds)[rows]
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def entity_last(ds, mask, regressors, fe_dims):
    """design_matrix's design with the entity dummies moved after the other columns."""
    Z, names, mapping = estim.design_matrix(ds, mask, regressors, fe_dims, True)
    return Z[:, np.argsort([mapping.get(nm, ("",))[0] == "entity" for nm in names], kind="stable")]


def test_parameters_are_x_columns_then_entity_effects():
    # every newton_design parameter vector is X's columns (_cons last among
    # them), then the E-1 entity effects, with NB2's log alpha between them:
    # each Newton optimum is a stationary point, at the same loglik, of its
    # objective on design_matrix's design with the entity dummies moved last
    # (log alpha after every column there), and the CQR LP's parameters
    # reach the optimal check loss on that design. Tolerances fixed before
    # the first run: gradient max-norm 1e-7, loglik 1e-12 relative, check
    # loss 1e-9 relative
    ds = count_panel(seed=5, alpha=0.8, family="nb2")
    fe = ("entity", "year")
    pat, entity = ds.column("PAT"), ds.entity_index()

    def designs(mask, regressor):
        X, names, _, layout = estim.newton_design(ds, mask, (regressor,), fe, True)
        Z = entity_last(ds, mask, (regressor,), fe)
        assert layout.n_dense == X.shape[1] and layout.n_dense + layout.n_entity == Z.shape[1]
        return X, names, layout, Z, estim.EntityLayout.from_codes(np.zeros(len(Z), dtype=np.intp), 1, Z.shape[1])

    def stationary(parts, res):
        ll, g, _ = parts
        assert abs(ll - res.loglik) <= 1e-12 * abs(res.loglik)
        assert np.max(np.abs(g)) <= 1e-7

    # the FE Poisson and NB2 at an interior alpha, on the entities with a count
    mask = np.bincount(entity, weights=pat)[entity] > 0
    X, names, layout, Z, dense = designs(mask, "RDINT_star")
    y = pat[mask]
    lgy1 = gammaln(y + 1.0)
    res = counts._poisson_mle(y, X, names, layout)
    stationary(counts._poisson_parts(res.params, y, Z, lgy1, dense), res)
    nb2 = counts._nb2_optimum(res, y, X, layout, None).res
    assert nb2 is not res
    m = layout.n_dense
    stationary(counts._nb2_parts(np.append(np.delete(nb2.params, m), nb2.params[m]), y, Z, lgy1, dense), nb2)

    # the probit, on the entities with both outcomes
    d = (pat > 0).astype(float)
    mixed = np.bincount(entity, weights=d) % np.bincount(entity) > 0
    X, _, layout, Z, dense = designs(mixed[entity], "RDINT_star")
    res = heckman.probit_mle(d[mixed[entity]], X, layout)
    stationary(heckman._probit_parts(res.params, d[mixed[entity]], Z, dense), res)

    # the CQR LP
    y = ds.column("lnVA_pe")
    mask = np.isfinite(y)
    X, _, layout, Z, _ = designs(mask, "X1")
    y = y[mask]
    sol = cqr._quantile_lp(y, X, layout, 0.3)
    oracle = -linprog(-y, A_eq=Z.T, b_eq=np.zeros(Z.shape[1]), bounds=(-0.7, 0.3), method="highs").fun
    assert abs(cqr.check_loss(y - Z @ sol.b, 0.3) - oracle) <= 1e-9 * oracle
