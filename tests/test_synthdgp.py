import hashlib

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
        truths = synthdgp.true_parameters(DgpConfig(n_entities=10, n_periods=4, seed=9))
        for key in (
            "true:heckman:X1",
            "true:heckman:IMR",
            "true:poisson_fe:RDINT_star",
            "true:nb2:alpha",
            "true:fe_ols:lnPATINT_true",
            "true:fe_ols:lnCAPINT",
            "true:fe_ols:lnEMP",
        ):
            assert key in truths

    # sha256 of the entities, the periods and each column's name and float64
    # bytes, taken before true_parameters moved out of generate_panel: the
    # draws must not change while the DGP's code does. Taken with numpy 2.4
    # on x86-64 with AVX-512; the columns that pass through exp or log carry
    # the last bits of numpy's kernels for them
    @pytest.mark.parametrize("cfg, digest", [
        (DgpConfig(120, 6, seed=11011),
         "6fbcdc4c2b4b13adf914e52f4b5fd7ce02d4b626382ac90290f85e7eac8b253b"),
        (DgpConfig(500, 8, seed=11011),
         "e05724d213f0099e46cca372e3bf1148799901df9f385cfa488093c961e44ef8"),
        (DgpConfig(150, 6, seed=3, counts=synthdgp.CountConfig(family="nb2", alpha=0.8)),
         "9d4b73531f6306829569b61ffaeac1fa43136c0797a80ab47be05fbf24fe019c"),
        (DgpConfig(150, 6, seed=7, counts=synthdgp.CountConfig(family="nb2", alpha=0.8)),
         "b2909aa75c120648d2fdaeaffa9dd7a2da225f852147b451b4b529393a61b325"),
    ])
    def test_draws_pinned(self, cfg, digest):
        ds = generate_panel(cfg)
        h = hashlib.sha256()
        h.update("\n".join(ds.entities).encode())
        h.update(np.asarray(ds.periods, dtype=np.int64).tobytes())
        for name in ds.column_names:
            h.update(name.encode())
            h.update(np.ascontiguousarray(ds.column(name), dtype=np.float64).tobytes())
        assert h.hexdigest() == digest

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

    def test_nb2_alpha_has_no_bias_from_entity_effects(self):
        # the DGP draws log-normal entity effects (entity_sd 0.3); fitted without
        # them, their spread reads as overdispersion, alpha ~ exp(0.3**2) - 1.
        # 5.97 mc_se is perfbench's Monte Carlo window at 40 replications
        report = monte_carlo(DgpConfig(500, 8), "nb2", 40, seed=1)
        alpha = report.parameters["alpha"]
        assert abs(alpha["bias"]) <= 5.97 * alpha["mc_se"]

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
