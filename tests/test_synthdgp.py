import numpy as np
import pytest

from cdmpanel import DgpConfig, ValidationError, generate_panel, monte_carlo
from cdmpanel import synthdgp


class TestGeneratePanel:
    def test_same_seed_bit_identical(self):
        cfg = DgpConfig(n_entities=50, n_periods=5, seed=4)
        a = generate_panel(cfg)
        b = generate_panel(cfg)
        assert a.entities == b.entities
        for name in a.column_names:
            av, bv = a.column(name), b.column(name)
            assert ((av == bv) | (np.isnan(av) & np.isnan(bv))).all()

    def test_disjoint_seeds_differ(self):
        a = generate_panel(DgpConfig(n_entities=50, n_periods=5, seed=4))
        b = generate_panel(DgpConfig(n_entities=50, n_periods=5, seed=5))
        assert not np.allclose(a.column("X1"), b.column("X1"))

    def test_dimension_contract(self):
        ds = generate_panel(DgpConfig(n_entities=100, n_periods=9, seed=1))
        assert ds.n_rows == 900
        assert len(ds.entities) == 100
        assert len(ds.periods) == 9

    def test_zero_error_correlation(self):
        cfg = DgpConfig(
            n_entities=2000,
            n_periods=5,
            seed=6,
            selection=synthdgp.SelectionConfig(rho_sel=0.0),
        )
        ds = generate_panel(cfg)
        r = np.corrcoef(ds.column("_eps_select"), ds.column("_eps_outcome"))[0, 1]
        assert abs(r) < 0.05

    def test_requested_error_correlation(self):
        cfg = DgpConfig(
            n_entities=2000,
            n_periods=5,
            seed=7,
            selection=synthdgp.SelectionConfig(rho_sel=-0.5),
        )
        ds = generate_panel(cfg)
        r = np.corrcoef(ds.column("_eps_select"), ds.column("_eps_outcome"))[0, 1]
        assert r == pytest.approx(-0.5, abs=0.05)

    def test_rdint_observed_only_when_disclosed(self):
        ds = generate_panel(DgpConfig(n_entities=100, n_periods=5, seed=8))
        d = ds.column("D")
        rdint = ds.column("RDINT")
        assert np.isfinite(rdint[d == 1.0]).all()
        assert np.isnan(rdint[d == 0.0]).all()

    def test_true_parameter_metadata_matches_estimator_names(self):
        ds = generate_panel(DgpConfig(n_entities=10, n_periods=4, seed=9))
        for key in (
            "true:heckman:X1",
            "true:heckman:IMR",
            "true:poisson_fe:RDINT_star",
            "true:nb2:alpha",
            "true:fe_ols:lnPATINT_true",
            "true:fe_ols:lnCAPINT",
            "true:fe_ols:lnEMP",
        ):
            assert key in ds.metadata

    def test_invalid_config_rejected(self):
        with pytest.raises(ValidationError):
            generate_panel(DgpConfig(n_entities=0, n_periods=5))
        with pytest.raises(ValidationError):
            generate_panel(
                DgpConfig(selection=synthdgp.SelectionConfig(rho_sel=1.5))
            )


class TestMonteCarlo:
    def test_unknown_estimator_errors(self):
        with pytest.raises(ValidationError, match="unknown estimator"):
            monte_carlo(DgpConfig(n_entities=20, n_periods=4), "nope", 2, seed=1)

    def test_reps_must_be_positive(self):
        with pytest.raises(ValidationError):
            monte_carlo(DgpConfig(), "fe_ols", 0, seed=1)

    def test_single_rep_reports_without_coverage(self):
        cfg = DgpConfig(n_entities=60, n_periods=5)
        report = monte_carlo(cfg, "fe_ols", 1, seed=3)
        assert report.reps == 1
        stats = report.parameters["lnPATINT_true"]
        assert stats["coverage"] is None
        assert stats["bias"] is not None

    def test_unbiased_estimator_self_consistency(self):
        cfg = DgpConfig(n_entities=120, n_periods=5)
        report = monte_carlo(cfg, "fe_ols", 60, seed=11)
        stats = report.parameters["lnPATINT_true"]
        assert abs(stats["bias"]) < 2.5 * stats["mc_se"]

    def test_coverage_of_nominal_cis(self):
        cfg = DgpConfig(n_entities=150, n_periods=5)
        report = monte_carlo(cfg, "fe_ols", 200, seed=13)
        stats = report.parameters["lnPATINT_true"]
        assert 0.90 <= stats["coverage"] <= 0.99

    def test_nb2_default_dgp_does_not_raise(self):
        # 5 of these 40 fits used to stall in the joint (beta, log alpha)
        # Newton, so the call raised (> 10% failed)
        report = monte_carlo(DgpConfig(500, 8), "nb2", 40, seed=1)
        assert report.reps == 40 and report.n_failed <= 4

    def test_missing_alpha_se_gives_no_coverage(self):
        # equidispersed counts put alpha on the Poisson boundary, where its SE
        # is missing, in some replications: no interval, so no coverage
        cfg = DgpConfig(n_entities=100, n_periods=4, counts=synthdgp.CountConfig(entity_sd=0.0))
        report = monte_carlo(cfg, "nb2", 10, seed=3)
        assert report.parameters["alpha"]["coverage"] is None
        assert report.parameters["alpha"]["mean"] >= 0.0
        assert report.parameters["RDINT_star"]["coverage"] is not None

    def test_failure_accounting(self):
        # three entities cannot support the heckman stage; every rep fails
        cfg = DgpConfig(n_entities=3, n_periods=2)
        with pytest.raises(ValidationError, match="failed"):
            monte_carlo(cfg, "heckman", 5, seed=1)

    def test_determinism(self):
        cfg = DgpConfig(n_entities=80, n_periods=5)
        r1 = monte_carlo(cfg, "naive_ols", 10, seed=21)
        r2 = monte_carlo(cfg, "naive_ols", 10, seed=21)
        assert r1.parameters == r2.parameters

    def test_library_bug_is_not_a_failed_replication(self, monkeypatch):
        def broken(ds):
            raise TypeError("a bug, not an estimation failure")

        monkeypatch.setitem(synthdgp._ESTIMATORS, "naive_ols", broken)
        with pytest.raises(TypeError, match="a bug"):
            monte_carlo(DgpConfig(n_entities=20, n_periods=3), "naive_ols", 3, seed=1)
