"""One fit per count model: counts.count_fits fits every family of a model
from one sample, one Poisson MLE and one bootstrap, and the one-family calls
poisson_fe_fit and nb2_fit are that same path."""

import dataclasses

import numpy as np
import pytest

from cdmpanel import CountSpec, ValidationError, VcovSpec, estim, nb2_fit, poisson_fe_fit, synthdgp
from cdmpanel.counts import count_fits
from cdmpanel.panel import take_entities

BOOT = VcovSpec("cluster_bootstrap", replications=5, seed=2024)


def count_panel(seed, alpha, family):
    cfg = synthdgp.DgpConfig(
        n_entities=40, n_periods=5, seed=seed,
        counts=synthdgp.CountConfig(slope_rdint=0.5, entity_sd=0.4, alpha=alpha, family=family),
    )
    return synthdgp.generate_panel(cfg)


def specs(vcov=VcovSpec()):
    return [CountSpec("PAT", ("RDINT_star",), family, vcov=vcov) for family in ("poisson_fe", "nb2")]


def assert_same_fit(a, b):
    assert a.coefficients == b.coefficients
    assert np.array_equal(a.vcov, b.vcov)
    assert a.loglik == b.loglik and a.n_obs == b.n_obs and a.n_dropped == b.n_dropped
    assert a.wald_chi2 == b.wald_chi2 and a.se_method == b.se_method
    assert a.notes == b.notes


class TestOneSampleRule:
    def test_nb2_drops_an_entity_with_one_complete_row(self):
        # entity 3 keeps one complete row; NB2 with entity FE must fit as if
        # it were not there (tolerance fixed before the first run: 1e-12
        # relative)
        ds = count_panel(seed=5, alpha=0.8, family="nb2")
        single = (ds.entity_index() == 3) & (ds.year_index() == 3)
        assert ds.column("PAT")[single] > 0  # so its count total is not zero
        x = np.where((ds.entity_index() == 3) & ~single, np.nan, ds.column("RDINT_star"))
        ds = ds.with_column("x1", x)
        spec = CountSpec("PAT", ("x1",), "nb2", year_fe=False)
        fit = nb2_fit(ds, spec)
        without = nb2_fit(take_entities(ds, [e for e in range(40) if e != 3]), spec)
        assert fit.notes["alpha"] > 0
        assert fit.notes["dropped_entities"] == without.notes["dropped_entities"] + 1
        assert ds.entities[3] not in fit.notes["entity_effects"]
        assert fit.n_obs == without.n_obs
        for name in fit.coefficients:
            assert fit.coefficients[name] == pytest.approx(without.coefficients[name], rel=1e-12)
        assert fit.notes["alpha"] == pytest.approx(without.notes["alpha"], rel=1e-12)
        assert np.allclose(fit.vcov, without.vcov, rtol=1e-12, atol=0)


class TestJointCall:
    @pytest.mark.parametrize("vcov", [VcovSpec(), BOOT], ids=["analytic", "bootstrap"])
    @pytest.mark.parametrize("alpha, family", [(0.0, "poisson"), (0.8, "nb2")])
    def test_equals_the_one_family_calls(self, vcov, alpha, family):
        ds = count_panel(seed=9, alpha=alpha, family=family)
        poisson, nb2 = specs(vcov)
        joint = count_fits(ds, [poisson, nb2])
        assert len(joint) == 2
        assert_same_fit(joint[0], poisson_fe_fit(ds, poisson))
        assert_same_fit(joint[1], nb2_fit(ds, nb2))
        assert (joint[1].notes["alpha"] > 0) == (alpha > 0)

    @pytest.mark.parametrize("vcov, calls", [(VcovSpec(), 1), (BOOT, 1 + BOOT.replications)])
    def test_one_poisson_mle_per_model_at_alpha_zero(self, monkeypatch, vcov, calls):
        ds = count_panel(seed=9, alpha=0.0, family="poisson")
        seen = []
        mle_fit = estim.mle_fit

        def counted(*args, **kwargs):
            seen.append(1)
            return mle_fit(*args, **kwargs)

        monkeypatch.setattr(estim, "mle_fit", counted)
        fits = count_fits(ds, specs(vcov))
        assert fits[1].notes["alpha"] == 0.0
        assert len(seen) == calls

    @pytest.mark.parametrize("change", [
        dict(dependent="RDINT_star", regressors=("PAT",)),
        dict(regressors=("RDINT_star", "X1")),
        dict(year_fe=False),
        dict(vcov=BOOT),
    ])
    def test_specs_differing_beyond_family_refused(self, change):
        ds = count_panel(seed=9, alpha=0.0, family="poisson")
        poisson, nb2 = specs()
        with pytest.raises(ValidationError, match="differ only in family"):
            count_fits(ds, [poisson, dataclasses.replace(nb2, **change)])

    def test_no_specs_refused(self):
        with pytest.raises(ValidationError, match="at least one"):
            count_fits(count_panel(seed=9, alpha=0.0, family="poisson"), [])
