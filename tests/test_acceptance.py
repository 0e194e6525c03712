"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Tolerances and runtime bounds are pinned here; the underlying expected values
come from independent oracles (closed forms, brute-force summation, grid
search, Monte Carlo truths), never from the code paths under test.
"""

import copy
import importlib
import json
import math
import os
import time
from dataclasses import replace

import numpy as np

import cdmpanel as cp
from cdmpanel import cli, cqr, stages, synthdgp, tables
from cdmpanel.cqr import CqrSpec, check_loss
from cdmpanel.panel import take_entities
from cdmpanel.rif import QuantileSpec, TreatmentSpec, weighted_quantile


def report(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance {criterion:2d}] {status}: {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def iid_panel(columns):
    n = len(next(iter(columns.values())))
    return cp.from_long([f"E{i}" for i in range(n)], [2010] * n, columns)


def rep_seed(seed: int, r: int) -> int:
    return int(
        np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(r,))).integers(0, 2**63 - 1)
    )


def test_criterion_01_inverse_mills():
    t0 = time.monotonic()

    def oracle(z):
        pdf = math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
        return pdf / (0.5 * math.erfc(-z / math.sqrt(2.0)))

    worst = 0.0
    for z in (-6.0, -3.0, 0.0, 3.0, 6.0):
        expected = oracle(z)
        worst = max(worst, abs(cp.inverse_mills(z) - expected) / max(1.0, abs(expected)))
    zero_err = abs(cp.inverse_mills(0.0) - math.sqrt(2.0 / math.pi))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-9 and zero_err <= 1e-9 and elapsed < 1.0
    report(1, ok, f"IMR vs erfc oracle max rel err {worst:.2e}, IMR(0) err {zero_err:.2e}, {elapsed:.3f}s")


def test_criterion_02_heckman_recovery():
    t0 = time.monotonic()
    reps = 200
    cfg = synthdgp.DgpConfig(
        n_entities=500, n_periods=8,
        selection=synthdgp.SelectionConfig(rho_sel=-0.5),
    )
    heck = synthdgp.monte_carlo(cfg, "heckman", reps, seed=314)
    naive = synthdgp.monte_carlo(cfg, "naive_ols", reps, seed=314)
    heck_bias = abs(heck.parameters["X1"]["bias"])
    naive_bias = abs(naive.parameters["X1"]["bias"])
    naive_se = naive.parameters["X1"]["mc_se"]

    cfg0 = synthdgp.DgpConfig(
        n_entities=500, n_periods=8,
        selection=synthdgp.SelectionConfig(rho_sel=0.0),
    )
    spec = cp.HeckmanSpec(
        outcome="RDINT", selection="D",
        outcome_regressors=("X1",), exclusion_restrictions=("Z",),
    )
    rejections = 0
    lambdas = []
    for r in range(reps):
        ds = synthdgp.generate_panel(replace(cfg0, seed=rep_seed(2718, r)))
        fit = cp.heckman_two_step(ds, spec)
        z = fit.lambda_ / fit.outcome.se("IMR")
        rejections += abs(z) > 1.959963984540054
        lambdas.append(fit.lambda_)
    rate = rejections / reps
    mean_lambda = float(np.mean(lambdas))
    elapsed = time.monotonic() - t0

    ok = (
        heck_bias < 0.02
        and naive_bias > 5 * naive_se
        and 0.02 <= rate <= 0.10
        and abs(mean_lambda) < 0.05
        and elapsed < 300
    )
    report(
        2,
        ok,
        f"heckman slope bias {heck_bias:.4f} (<0.02), naive bias {naive_bias:.4f} "
        f"(> 5x mc_se {5 * naive_se:.4f}), lambda=0 rejection rate {rate:.3f} in [0.02, 0.10], "
        f"mean lambda {mean_lambda:+.4f}, {elapsed:.1f}s",
    )


def test_criterion_03_count_models():
    t0 = time.monotonic()
    # conditional FE Poisson equals dummy-variable Poisson on a 20x5 panel
    ds = synthdgp.generate_panel(synthdgp.DgpConfig(
        n_entities=20, n_periods=5, seed=33,
        counts=synthdgp.CountConfig(slope_rdint=0.5, entity_sd=0.4),
    ))
    spec = cp.CountSpec("PAT", ("RDINT_star",), "poisson_fe", entity_fe=True, year_fe=False)
    cond = cp.poisson_fe_fit(ds, spec)

    y, x, ent = ds.column("PAT"), ds.column("RDINT_star"), ds.entity_index()
    keep = np.isin(ent, [e for e in np.unique(ent) if y[ent == e].sum() > 0])
    yk, xk, entk = y[keep], x[keep], ent[keep]
    levels = {e: i for i, e in enumerate(np.unique(entk))}
    D = np.zeros((len(yk), len(levels)))
    for i, e in enumerate(entk):
        D[i, levels[e]] = 1.0
    Xd = np.column_stack([xk, D])
    beta = np.zeros(Xd.shape[1])
    for _ in range(200):
        mu = np.exp(Xd @ beta)
        g = Xd.T @ (yk - mu)
        if np.max(np.abs(g)) < 1e-10:
            break
        beta = beta + np.linalg.solve((Xd * mu[:, None]).T @ Xd, g)
    gap = abs(cond.coefficients["RDINT_star"] - beta[0])

    # NB2 recovery at alpha = 0.8 on a 300x6 panel
    ds2 = synthdgp.generate_panel(synthdgp.DgpConfig(
        n_entities=300, n_periods=6, seed=34,
        counts=synthdgp.CountConfig(intercept=0.2, slope_rdint=0.3, entity_sd=0.0,
                                    alpha=0.8, family="nb2"),
    ))
    spec2 = cp.CountSpec("PAT", ("RDINT_star",), "nb2", entity_fe=False, year_fe=False)
    nb = cp.nb2_fit(ds2, spec2)
    slope_ok = abs(nb.coefficients["RDINT_star"] - 0.3) < 3 * nb.se("RDINT_star")

    # NB2 at the Poisson limit
    ds3 = synthdgp.generate_panel(synthdgp.DgpConfig(
        n_entities=300, n_periods=6, seed=35,
        counts=synthdgp.CountConfig(intercept=0.5, slope_rdint=0.3, entity_sd=0.0),
    ))
    free = cp.nb2_fit(ds3, spec2)
    fixed = cp.nb2_fit(ds3, spec2, fix_alpha=0.0)
    ll_gap = abs(free.loglik - fixed.loglik) / free.n_obs
    elapsed = time.monotonic() - t0

    ok = gap < 1e-6 and 0.6 <= nb.notes["alpha"] <= 1.0 and slope_ok and ll_gap < 1e-3 and elapsed < 120
    report(
        3,
        ok,
        f"conditional-vs-dummy gap {gap:.2e} (<1e-6), alpha {nb.notes['alpha']:.3f} in [0.6, 1.0], "
        f"slope within 3 SE: {slope_ok}, NB2-Poisson loglik/obs gap {ll_gap:.2e} (<1e-3), {elapsed:.1f}s",
    )


def test_criterion_04_calibration_identities():
    ds = synthdgp.generate_panel(synthdgp.DgpConfig(
        n_entities=60, n_periods=6, seed=44,
        counts=synthdgp.CountConfig(intercept=-1.5, entity_sd=0.6),
    ))
    spec = cp.CountSpec("PAT", ("RDINT_star",), "poisson_fe", entity_fe=True, year_fe=False)
    fit = cp.poisson_fe_fit(ds, spec)
    pred = cp.calibrate_predictions(fit, ds, cp.CalibrationRule("PAT"))
    real, ent = ds.column("PAT"), ds.entity_index()

    worst = 0.0
    zero_ok = True
    saw_zero_entity = False
    for i in range(len(ds.entities)):
        rows = ent == i
        realized = real[rows][np.isfinite(real[rows])]
        got = pred[rows][np.isfinite(pred[rows])]
        if realized.size == 0 or got.size == 0:
            continue
        if realized.mean() > 0:
            worst = max(worst, abs(np.mean(got - 0.001) - realized.mean()))
        else:
            saw_zero_entity = True
            zero_ok &= np.allclose(got, 0.001)
    inten = cp.patent_intensity(pred, ds.column("EMP"))
    zero_rows = np.isfinite(pred) & (np.abs(pred - 0.001) <= 1e-12)
    intensity_ok = np.allclose(inten[zero_rows], np.log(0.001)) if zero_rows.any() else True
    # the log(0.001) rows must not depend on employees
    weird_emp = cp.patent_intensity(pred[zero_rows], np.full(int(zero_rows.sum()), 1e6))
    intensity_ok &= np.allclose(weird_emp, np.log(0.001))

    ok = worst < 1e-9 and saw_zero_entity and zero_ok and intensity_ok
    report(4, ok, f"mean-matching worst err {worst:.2e} (<1e-9), zero-mean entities -> "
                  f"epsilon and log(0.001) independent of employees: {zero_ok and intensity_ok}")


def test_criterion_05_rif_identities():
    rng = np.random.default_rng(550)
    y = rng.normal(size=1003)  # deliberately awkward sample size
    worst_mean, worst_levels, worst_sigma = 0.0, 0.0, 0.0
    for tau in np.round(np.arange(0.1, 0.91, 0.1), 10):
        rr = cp.rif_quantile(y, QuantileSpec(), float(tau))
        worst_mean = max(worst_mean, abs(float(np.mean(rr.rif)) - rr.q_hat))
        levels = np.unique(rr.rif)
        assert len(levels) == 2
        worst_levels = max(worst_levels, abs((levels[1] - levels[0]) - 1.0 / rr.f_hat))
        direct = float(np.mean((rr.rif - rr.q_hat) ** 2))
        worst_sigma = max(worst_sigma, abs(rr.sigma2_if - direct))
    ok = worst_mean < 1e-10 and worst_levels < 1e-10 and worst_sigma < 1e-12
    report(5, ok, f"mean-identity err {worst_mean:.2e} (<1e-10), level gap vs 1/f err "
                  f"{worst_levels:.2e}, sigma2 direct-sum err {worst_sigma:.2e} (<1e-12)")


def test_criterion_06_uqr_oracles():
    t0 = time.monotonic()
    taus = tuple(np.round(np.arange(0.1, 0.91, 0.1), 10))
    reps, n = 200, 3000
    rng = np.random.default_rng(660)

    loc = {t: [] for t in taus}
    for _ in range(reps):
        x = rng.binomial(1, 0.5, size=n).astype(float)
        y = 0.3 * x + rng.normal(size=n)
        ds = iid_panel({"y": y, "x": x})
        fits = cp.uqr_fit(ds, "y", ("x",), QuantileSpec(taus=taus), fe_dims=())
        for t in taus:
            loc[t].append(fits[t].coefficients["x"])
    loc_means = {t: float(np.mean(loc[t])) for t in taus}
    loc_worst = max(abs(m - 0.3) for m in loc_means.values())

    scale = {t: [] for t in taus}
    for _ in range(reps):
        x = rng.binomial(1, 0.5, size=n).astype(float)
        y = (1.0 + 0.5 * x) * rng.normal(size=n)
        ds = iid_panel({"y": y, "x": x})
        fits = cp.uqr_fit(ds, "y", ("x",), QuantileSpec(taus=taus), fe_dims=())
        for t in taus:
            scale[t].append(fits[t].coefficients["x"])
    profile = [float(np.mean(scale[t])) for t in taus]
    monotone = all(b > a for a, b in zip(profile, profile[1:]))
    signs_ok = all(v < 0 for v in profile[:4]) and all(v > 0 for v in profile[5:]) \
        and abs(profile[4]) < 0.05
    elapsed = time.monotonic() - t0

    ok = loc_worst < 0.05 and monotone and signs_ok and elapsed < 600
    report(6, ok, f"location-shift worst |mean - 0.3| = {loc_worst:.4f} (<0.05); scale profile "
                  f"monotone {monotone}, negative below / positive above median {signs_ok}; {elapsed:.1f}s")


def test_criterion_07_ipw_treatment_oracles():
    t0 = time.monotonic()
    taus = tuple(np.round(np.arange(0.1, 0.91, 0.1), 10))
    rng = np.random.default_rng(770)

    # constant propensity: reweighted quantiles equal unweighted exactly
    n = 800
    t_assign = (rng.random(n) < 0.45).astype(float)
    y0 = rng.normal(size=n)
    ds = iid_panel({"T": t_assign, "y": y0})
    _, w = cp.propensity_ipw(ds, TreatmentSpec(treatment="T"))
    treated = t_assign == 1.0
    requant = max(
        abs(weighted_quantile(y0[treated], tau, w[treated]) - weighted_quantile(y0[treated], tau))
        for tau in taus
    )

    reps, n = 200, 1000
    qspec = QuantileSpec(taus=taus)
    spec = TreatmentSpec(treatment="T", weighting="ipw", entity_fe=False, year_fe=False)

    null = {t: [] for t in taus}
    for _ in range(reps):
        t_a = (rng.random(n) < 0.5).astype(float)
        y = rng.normal(size=n)
        fits = cp.rif_treatment_fit(iid_panel({"T": t_a, "y": y}), "y", spec, qspec)
        for t in taus:
            null[t].append(fits[t].coefficients["T"])
    null_worst = max(abs(float(np.mean(null[t]))) for t in taus)

    shift = {t: [] for t in taus}
    for _ in range(reps):
        t_a = (rng.random(n) < 0.5).astype(float)
        y = rng.normal(size=n) + 0.5 * t_a
        fits = cp.rif_treatment_fit(iid_panel({"T": t_a, "y": y}), "y", spec, qspec)
        for t in taus:
            shift[t].append(fits[t].coefficients["T"])
    shift_worst = max(abs(float(np.mean(shift[t])) - 0.5) for t in taus)

    # variance-only treatment flips sign across the median
    scale_spec = TreatmentSpec(treatment="T", weighting="none", entity_fe=False, year_fe=False)
    lows, highs = [], []
    for _ in range(60):
        t_a = (rng.random(n) < 0.5).astype(float)
        y = (1.0 + 0.6 * t_a) * rng.normal(size=n)
        fits = cp.rif_treatment_fit(iid_panel({"T": t_a, "y": y}), "y", scale_spec, qspec)
        lows.append(fits[0.1].coefficients["T"])
        highs.append(fits[0.9].coefficients["T"])
    sign_ok = float(np.mean(lows)) < -0.1 and float(np.mean(highs)) > 0.1
    elapsed = time.monotonic() - t0

    ok = requant < 1e-12 and null_worst < 0.05 and shift_worst < 0.07 and sign_ok and elapsed < 600
    report(7, ok, f"reweighting no-op err {requant:.2e} (<1e-12), null-effect worst mean "
                  f"{null_worst:.4f} (<0.05), shift worst |mean-0.5| {shift_worst:.4f} (<0.07), "
                  f"scale sign pattern {sign_ok}; {elapsed:.1f}s")


def test_criterion_08_cqr():
    ds = iid_panel({"y": [1.0, 2.0, 3.0]})
    med = cp.cqr_fit(ds, CqrSpec("y")).coefficients["_cons"]

    rng = np.random.default_rng(880)
    x = rng.normal(size=9) + 2.0
    y = 0.7313 * x + 0.5 * rng.normal(size=9)
    fit = cp.cqr_fit(iid_panel({"y": y, "x": x}), CqrSpec("y", ("x",), tau=0.5, intercept=False))
    grid = np.arange(-5.0, 5.0 + 1e-9, 1e-3)
    grid_loss = min(check_loss(y - b * x, 0.5) for b in grid)
    loss_gap = fit.notes["check_loss"] - grid_loss

    ok = abs(med - 2.0) <= 1e-6 and loss_gap < 1e-6
    report(8, ok, f"median({{1,2,3}}) = {med:.8f} (err {abs(med - 2.0):.2e} <= 1e-6), "
                  f"check-loss vs 1e-3 grid oracle gap {loss_gap:.2e} (<1e-6)")


def test_criterion_09_mundlak():
    t0 = time.monotonic()
    reps = 200
    spec = cp.ProdSpec(
        dependent="lnVA_lead",
        patent_intensities=("lnPATINT_true",),
        controls=("lnEMP", "lnCAPINT"),
    )

    def run(corr, seed_base):
        rejections = 0
        for r in range(reps):
            cfg = synthdgp.DgpConfig(
                n_entities=500, n_periods=8, seed=rep_seed(seed_base, r),
                productivity=synthdgp.ProductivityConfig(effect_covariate_corr=corr),
            )
            ds = synthdgp.generate_panel(cfg)
            ds = cp.derive(ds, cp.DeriveRule.lead("lnVA_pe", 1, "lnVA_lead"))
            _, _, p, _ = cp.mundlak_test(ds, spec)
            rejections += p < 0.05
        return rejections / reps

    size = run(0.0, 9001)
    power = run(0.6, 9002)
    elapsed = time.monotonic() - t0
    ok = 0.02 <= size <= 0.10 and power > 0.90 and elapsed < 300
    report(9, ok, f"size {size:.3f} in [0.02, 0.10], power {power:.3f} (>0.90) at corr 0.6; {elapsed:.1f}s")


def test_criterion_10_diagnostics():
    # VIF identities
    x1 = np.array([1.0, -1.0, 1.0, -1.0])
    x2 = np.array([1.0, 1.0, -1.0, -1.0])
    v = cp.vif(iid_panel({"x1": x1, "x2": x2}), ["x1", "x2"])
    orth_err = max(abs(v["x1"] - 1.0), abs(v["x2"] - 1.0))

    rng = np.random.default_rng(1010)
    n = 200
    a = rng.normal(size=n)
    b = rng.normal(size=n)
    a = (a - a.mean()) / a.std()
    b = b - b.mean()
    b -= (b @ a) / (a @ a) * a
    b /= b.std()
    xc = 0.8 * a + np.sqrt(1 - 0.64) * b
    vc = cp.vif(iid_panel({"x1": a, "x2": xc}), ["x1", "x2"])
    closed_err = abs(vc["x1"] - 1.0 / (1.0 - 0.64))

    # bootstrap SE of a sample mean
    y = rng.standard_normal(500)
    ds = iid_panel({"y": y})

    def refit(picks):
        return np.array([np.nanmean(take_entities(ds, picks).column("y"))])

    spec = cp.VcovSpec("cluster_bootstrap", replications=999, seed=77)
    r1 = cp.bootstrap_vcov(refit, ds, spec)
    r2 = cp.bootstrap_vcov(refit, ds, spec)
    se = float(np.sqrt(r1.vcov[0, 0]))
    target = y.std(ddof=1) / np.sqrt(500)
    rel = abs(se - target) / target
    identical = np.array_equal(r1.vcov, r2.vcov)

    ok = orth_err <= 1e-10 and closed_err <= 1e-6 and rel < 0.10 and identical
    report(10, ok, f"orthogonal VIF err {orth_err:.2e} (<=1e-10), closed-form err {closed_err:.2e} "
                   f"(<=1e-6), bootstrap SE rel err {rel:.3f} (<0.10), same-seed bit-identical {identical}")


def _pipeline_config(tmp_path):
    return {
        "mode": "pipeline",
        "input": {"path": str(tmp_path / "panel.csv"), "entity_col": "entity", "year_col": "year"},
        "derives": [
            {"kind": "rolling_mean", "source": "PAT", "window": 3, "target": "PAT_rm3"},
            {"kind": "round", "source": "PAT_rm3", "target": "PAT_dep"},
            {"kind": "rolling_mean", "source": "ECO", "window": 3, "target": "ECO_rm3"},
            {"kind": "round", "source": "ECO_rm3", "target": "ECO_dep"},
            {"kind": "rolling_mean", "source": "NECO", "window": 3, "target": "NECO_rm3"},
            {"kind": "round", "source": "NECO_rm3", "target": "NECO_dep"},
            {"kind": "lead", "source": "lnVA_pe", "k": 1, "target": "lnVA_lead"},
            {"kind": "indicator", "predicate": "ECO_rm3 > 0", "target": "HAS_ECO"},
        ],
        "bootstrap": {"replications": 15, "seed": 424242},
        "star_style": "uqr",
        "output_dir": str(tmp_path / "out"),
        "stages": {
            "heckman": {
                "outcome": "RDINT", "selection": "D",
                "outcome_regressors": ["X1", "lnEMP", "lnCAPINT"],
                "exclusion_restrictions": ["Z"],
                "fe": ["year"],
                "predict_as": "RDINT_hat",
            },
            "counts": {
                "epsilon": 0.001,
                "employees": "EMP",
                "models": [
                    {"name": "PAT", "dependent": "PAT_dep", "raw": "PAT_rm3",
                     "families": ["poisson_fe", "nb2"], "regressors": ["RDINT_hat", "lnEMP"],
                     "predict_family": "poisson_fe",
                     "predict_as": "PAT_hat", "intensity_as": "lnPATINT_hat"},
                    {"name": "ECO", "dependent": "ECO_dep", "raw": "ECO_rm3",
                     "families": ["poisson_fe", "nb2"], "regressors": ["RDINT_hat", "lnEMP"],
                     "predict_family": "poisson_fe",
                     "predict_as": "ECO_hat", "intensity_as": "lnECOINT_hat"},
                    {"name": "NECO", "dependent": "NECO_dep", "raw": "NECO_rm3",
                     "families": ["poisson_fe", "nb2"], "regressors": ["RDINT_hat", "lnEMP"],
                     "predict_family": "poisson_fe",
                     "predict_as": "NECO_hat", "intensity_as": "lnNECOINT_hat"},
                ],
            },
            "productivity": {
                "dependent": "lnVA_lead",
                "controls": ["lnEMP", "lnCAPINT"],
                "classical": ["lnPATINT_hat"],
                "extended": ["lnNECOINT_hat", "lnECOINT_hat"],
                "mundlak": True,
            },
            "uqr": {
                "dependent": "lnVA_lead",
                "taus": [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9],
                "models": {
                    "classical": ["lnPATINT_hat", "lnEMP", "lnCAPINT"],
                    "extended": ["lnNECOINT_hat", "lnECOINT_hat", "lnEMP", "lnCAPINT"],
                },
            },
            "treatment": {
                "dependent": "lnVA_lead",
                "treatment": "HAS_ECO",
                "propensity_regressors": ["lnEMP", "lnCAPINT"],
                "controls": ["lnNECOINT_hat", "lnEMP", "lnCAPINT"],
                "variants": ["ipw", "none"],
            },
            "cqr": {
                "dependent": "lnVA_lead",
                "tau": 0.5,
                "models": {
                    "classical": ["lnPATINT_hat", "lnEMP", "lnCAPINT"],
                    "extended": ["lnNECOINT_hat", "lnECOINT_hat", "lnEMP", "lnCAPINT"],
                },
            },
        },
    }


def test_benchmark_keeps_the_acceptance_config(tmp_path, monkeypatch):
    # perfbench/workloads.py holds its own copy of _pipeline_config; they may
    # differ only in where the input and the outputs go
    monkeypatch.syspath_prepend(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    workloads = importlib.import_module("perfbench.workloads")
    ours, theirs = _pipeline_config(tmp_path), copy.deepcopy(workloads.ACCEPTANCE_CONFIG)
    for config in (ours, theirs):
        del config["input"]["path"]
        config.pop("output_dir", None)
    assert ours == theirs


def test_criterion_11_end_to_end(tmp_path):
    t0 = time.monotonic()
    ds = synthdgp.generate_panel(synthdgp.DgpConfig(
        n_entities=120, n_periods=6, seed=11011,
        counts=synthdgp.CountConfig(entity_sd=0.3),
    ))
    ds.to_csv(tmp_path / "panel.csv")
    config = _pipeline_config(tmp_path)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))

    manifest = cli.run_pipeline(str(cfg_path))
    out = tmp_path / "out"

    families = {
        "heckman": out / "tables" / "heckman__full.txt",
        "counts": out / "tables" / "counts__full.txt",
        "productivity": out / "tables" / "productivity__full.txt",
        "uqr": out / "tables" / "uqr__full.txt",
        "treatment": out / "tables" / "treatment__full.txt",
        "cqr": out / "tables" / "cqr__full.txt",
    }
    missing = [k for k, p in families.items() if not p.exists()]

    legend = tables.star_legend(tables.STAR_STYLES["uqr"])
    layout_ok = True
    details = []
    for name, p in families.items():
        text = p.read_text()
        if legend not in text:
            layout_ok = False
            details.append(f"{name}: missing legend")
        if name != "heckman" and ("Individual FE" not in text or "Time FE" not in text):
            layout_ok = False
            details.append(f"{name}: missing FE footer")
        if "N" not in text:
            layout_ok = False
            details.append(f"{name}: missing N row")

    counts_text = families["counts"].read_text()
    for label in ("PAT poisson_fe", "PAT nb2", "ECO poisson_fe", "ECO nb2", "NECO poisson_fe", "NECO nb2"):
        if label not in counts_text:
            layout_ok = False
            details.append(f"counts: missing column {label}")
    uqr_text = families["uqr"].read_text()
    for q in ("Q10", "Q50", "Q90"):
        if q not in uqr_text:
            layout_ok = False
            details.append(f"uqr: missing column {q}")
    treat_text = families["treatment"].read_text()
    if "with IPW" not in treat_text or "without weights" not in treat_text:
        layout_ok = False
        details.append("treatment: missing ipw/none variants")

    # per-column N equals the complete-case count of the underlying sample:
    # heckman step 2 runs on disclosing rows, all complete in this DGP
    reloaded = cp.load_csv(tmp_path / "panel.csv", "entity", "year")
    n_selected = int(np.nansum(reloaded.column("D") == 1.0))
    step2_rows = [r for r in manifest["stages"] if r["stage"] == "heckman" and r["model"] == "step2"]
    n_ok = step2_rows and step2_rows[0]["n"] == n_selected
    doc = (out / "results" / "heckman__full.txt").read_text()
    doc_n = None
    for line in doc.splitlines():
        if "model=step2" in line and "name=n_obs" in line:
            doc_n = int(line.rsplit("value=", 1)[1])
    n_ok = n_ok and doc_n == n_selected
    table_n_ok = f"{n_selected:,}" in families["heckman"].read_text()

    elapsed = time.monotonic() - t0
    ok = not missing and layout_ok and n_ok and table_n_ok and elapsed < 900
    report(11, ok, f"all six table families emitted {not missing}, layout/legend/FE rows {layout_ok} "
                   f"{details if details else ''}, step-2 N == complete-case count ({n_selected}) "
                   f"{n_ok and table_n_ok}; {elapsed:.1f}s (<900s)")


def test_chain_runs_in_memory(tmp_path, monkeypatch):
    # the stage functions run the whole chain without writing a file, and each
    # fit's estimates and SEs are those run_pipeline writes for the same config
    synthdgp.generate_panel(synthdgp.DgpConfig(
        n_entities=120, n_periods=6, seed=11011, counts=synthdgp.CountConfig(entity_sd=0.3),
    )).to_csv(tmp_path / "panel.csv")
    config = _pipeline_config(tmp_path)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    cli.run_pipeline(str(cfg_path))
    written = []
    for path in (tmp_path / "out" / "results").glob("*__full.txt"):
        for line in path.read_text().splitlines():
            if " record=coef " in line:
                f = dict(field.split("=", 1) for field in line.split())
                written.append((f["stage"], f["model"], f.get("tau"), f["name"], f["est"], f["se"]))

    plan = cli._parse_pipeline(cli._Keys(config, "config"), None, None)
    ds = cp.load_csv(*plan.source)
    for rule in plan.derives:
        ds = cp.derive(ds, rule)
    vcov_for = cli._StageRunner(plan, ds, "full", str(tmp_path / "unused"), seed_salt=0)._vcov

    def refuse(*args, **kwargs):
        raise AssertionError("a stage function wrote a file")

    monkeypatch.setattr(tables, "atomic_write", refuse)
    monkeypatch.setattr(os, "makedirs", refuse)
    fitted = []
    for name in stages.STAGE_ORDER:
        ds, fits = getattr(stages, name)(ds, plan.stages[name], vcov_for)
        for sf in fits:
            tau = None if sf.tau is None else repr(float(sf.tau))
            fitted += [(name, sf.model, tau, coef, repr(float(est)), repr(float(sf.fit.se(coef))))
                       for coef, est in sf.fit.coefficients.items() if coef not in sf.fit.notes.get("fe_dummies", {})]
    assert len(fitted) > 100 and sorted(fitted) == sorted(written)


def test_benchmark_cqr_lps_certify_their_vertex(tmp_path, monkeypatch):
    # the acceptance chain's CQR solves 2 point fits and 2 x 15 bootstrap
    # replicates; every one of these LPs must end at a certified vertex, none
    # on the HiGHS fallback
    synthdgp.generate_panel(synthdgp.DgpConfig(
        n_entities=120, n_periods=6, seed=11011, counts=synthdgp.CountConfig(entity_sd=0.3),
    )).to_csv(tmp_path / "panel.csv")
    plan = cli._parse_pipeline(cli._Keys(_pipeline_config(tmp_path), "config"), None, None)
    ds = cp.load_csv(*plan.source)
    for rule in plan.derives:
        ds = cp.derive(ds, rule)
    vcov_for = cli._StageRunner(plan, ds, "full", str(tmp_path / "unused"), seed_salt=0)._vcov
    calls = {"lp": 0, "highs": 0}

    def counted(name, solve):
        def call(*args):
            calls[name] += 1
            return solve(*args)
        return call

    monkeypatch.setattr(cqr, "_quantile_lp", counted("lp", cqr._quantile_lp))
    monkeypatch.setattr(cqr, "_highs", counted("highs", cqr._highs))
    for name in stages.STAGE_ORDER:
        ds, _ = getattr(stages, name)(ds, plan.stages[name], vcov_for)
    assert calls == {"lp": 32, "highs": 0}
