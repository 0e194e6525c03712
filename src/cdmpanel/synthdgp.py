"""Synthetic three-stage firm panels with known parameters, plus a Monte Carlo
harness that measures estimator bias, RMSE, and confidence-interval coverage.

The generated panel mirrors the estimation pipeline's structure:

* selection stage - a disclosure dummy D from a probit with an exclusion
  restriction Z, and an outcome RDINT observed only where D = 1; the selection
  and outcome errors are bivariate normal with correlation ``rho_sel``.
* count stage - patent counts with a log link on the latent R&D intensity and
  multiplicative entity effects (Poisson or NB2 noise), split into green and
  non-green series.
* productivity stage - next-period log value added per employee from patent
  intensity, capital intensity, and size, with entity and year effects; the
  entity effect can be correlated with a covariate's entity mean to give the
  Mundlak test something to find.
* treatment - a separate probit assignment with location/scale effects on the
  productivity outcome, so distributional estimators have known targets.

The true parameters depend on the config alone: true_parameters gives them
under ``true:<estimator>:<name>`` keys whose names match the coefficient names
the estimators report.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import counts as counts_mod
from . import estim, heckman, panel, productivity
from .estim import VcovSpec
from .exceptions import ValidationError


@dataclass(frozen=True)
class SelectionConfig:
    intercept: float = 0.4
    slope_x: float = 0.5
    exclusion_coef: float = 1.0
    rho_sel: float = -0.5

    def validate(self):
        if not -1.0 <= self.rho_sel <= 1.0:
            raise ValidationError("|rho_sel| must be <= 1")


@dataclass(frozen=True)
class RdConfig:
    intercept: float = 1.0
    slope_x: float = 0.5
    noise_sd: float = 1.0

    def validate(self):
        if self.noise_sd < 0:
            raise ValidationError("noise_sd must be >= 0")


@dataclass(frozen=True)
class CountConfig:
    intercept: float = -0.3
    slope_rdint: float = 0.5
    entity_sd: float = 0.3
    alpha: float = 0.0
    family: str = "poisson"
    green_share_logit: float = -1.0

    def validate(self):
        if self.entity_sd < 0 or self.alpha < 0:
            raise ValidationError("entity_sd and alpha must be >= 0")
        if self.family not in ("poisson", "nb2"):
            raise ValidationError(f"unknown count family {self.family!r}")


@dataclass(frozen=True)
class ProductivityConfig:
    intercept: float = 5.0
    beta_patent: float = 0.4
    beta_neco: float = 0.45
    beta_eco: float = 0.1
    beta_capint: float = 0.15
    beta_emp: float = 0.05
    entity_sd: float = 0.5
    year_sd: float = 0.2
    noise_sd: float = 0.5
    effect_covariate_corr: float = 0.0

    def validate(self):
        if min(self.entity_sd, self.year_sd, self.noise_sd) < 0:
            raise ValidationError("standard deviations must be >= 0")
        if not -1.0 <= self.effect_covariate_corr <= 1.0:
            raise ValidationError("|effect_covariate_corr| must be <= 1")


@dataclass(frozen=True)
class TreatmentConfig:
    propensity_intercept: float = 0.0
    propensity_slope: float = 0.0
    location_effect: float = 0.0
    scale_effect: float = 0.0

    def validate(self):
        if self.scale_effect < -0.9:
            raise ValidationError("scale_effect must keep the outcome scale positive")


@dataclass(frozen=True)
class DgpConfig:
    n_entities: int = 500
    n_periods: int = 8
    start_year: int = 2010
    selection: SelectionConfig = field(default_factory=SelectionConfig)
    rd: RdConfig = field(default_factory=RdConfig)
    counts: CountConfig = field(default_factory=CountConfig)
    productivity: ProductivityConfig = field(default_factory=ProductivityConfig)
    treatment: TreatmentConfig = field(default_factory=TreatmentConfig)
    seed: int = 0

    def validate(self):
        if self.n_entities < 1 or self.n_periods < 1:
            raise ValidationError("need at least one entity and one period")
        self.selection.validate()
        self.rd.validate()
        self.counts.validate()
        self.productivity.validate()
        self.treatment.validate()


def generate_panel(cfg: DgpConfig) -> panel.PanelDataset:
    """Deterministic synthetic panel for the given config and seed."""
    cfg.validate()
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    E, P = cfg.n_entities, cfg.n_periods
    n = E * P
    ent_idx = np.repeat(np.arange(E), P)

    x1 = rng.normal(size=n)
    z = rng.normal(size=n)
    ln_capint = rng.normal(loc=1.0, scale=0.7, size=n)
    ln_emp = rng.normal(loc=0.8, scale=0.6, size=n)

    rho = cfg.selection.rho_sel
    eps_sel = rng.normal(size=n)
    eps_rd_ind = rng.normal(size=n)
    eps_rd = cfg.rd.noise_sd * (rho * eps_sel + np.sqrt(max(1.0 - rho**2, 0.0)) * eps_rd_ind)

    sel_index = (
        cfg.selection.intercept
        + cfg.selection.exclusion_coef * z
        + cfg.selection.slope_x * x1
    )
    D = (sel_index + eps_sel > 0).astype(float)
    rdint_star = cfg.rd.intercept + cfg.rd.slope_x * x1 + eps_rd
    rdint = np.where(D == 1.0, rdint_star, np.nan)

    alpha_i = rng.normal(scale=cfg.counts.entity_sd, size=E)
    lam = np.exp(cfg.counts.intercept + cfg.counts.slope_rdint * rdint_star + alpha_i[ent_idx])
    share = 1.0 / (1.0 + np.exp(-cfg.counts.green_share_logit))
    lam_eco = lam * share
    lam_neco = lam * (1.0 - share)
    a = cfg.counts.alpha
    if cfg.counts.family == "poisson" or a <= 0:
        hetero = np.ones(n)
    else:
        # one gamma draw shared by both series keeps their sum NB2(lam, alpha)
        hetero = rng.gamma(1.0 / a, a, size=n)
    eco = rng.poisson(hetero * lam_eco).astype(float)
    neco = rng.poisson(hetero * lam_neco).astype(float)
    pat = eco + neco

    emp = np.exp(ln_emp)
    ln_patint_true = np.log(lam / emp)
    ln_ecoint_true = np.log(lam_eco / emp)
    ln_necoint_true = np.log(lam_neco / emp)

    p = cfg.productivity
    xbar = np.bincount(ent_idx, weights=ln_capint, minlength=E) / P
    xbar_std = (xbar - xbar.mean()) / (xbar.std() if xbar.std() > 0 else 1.0)
    corr = p.effect_covariate_corr
    f_i = p.entity_sd * (corr * xbar_std + np.sqrt(max(1.0 - corr**2, 0.0)) * rng.normal(size=E))
    g_t = p.year_sd * rng.normal(size=P)
    g_t = np.tile(g_t, E)

    treat_index = cfg.treatment.propensity_intercept + cfg.treatment.propensity_slope * x1
    treat = (treat_index + rng.normal(size=n) > 0).astype(float)

    noise = rng.normal(size=n) * p.noise_sd * (1.0 + cfg.treatment.scale_effect * treat)
    ln_va_next = (
        p.intercept
        + p.beta_patent * ln_patint_true
        + p.beta_capint * ln_capint
        + p.beta_emp * ln_emp
        + f_i[ent_idx]
        + g_t
        + cfg.treatment.location_effect * treat
        + noise
    )
    # extended-form outcome, sharing effects and noise
    ln_va_next_ext = (
        p.intercept
        + p.beta_neco * ln_necoint_true
        + p.beta_eco * ln_ecoint_true
        + p.beta_capint * ln_capint
        + p.beta_emp * ln_emp
        + f_i[ent_idx]
        + g_t
        + cfg.treatment.location_effect * treat
        + noise
    )
    # store the outcome at period t-1 so its lead aligns with the regressors
    lnva_col = np.full(n, np.nan)
    lnva_ext_col = np.full(n, np.nan)
    resh = lnva_col.reshape(E, P)
    resh_ext = lnva_ext_col.reshape(E, P)
    resh[:, 1:] = ln_va_next.reshape(E, P)[:, :-1]
    resh_ext[:, 1:] = ln_va_next_ext.reshape(E, P)[:, :-1]

    entities = [f"E{i:05d}" for i in range(E)]
    years = list(range(cfg.start_year, cfg.start_year + P))
    columns = {
        "Z": z,
        "X1": x1,
        "D": D,
        "RDINT_star": rdint_star,
        "RDINT": rdint,
        "PAT": pat,
        "ECO": eco,
        "NECO": neco,
        "EMP": emp,
        "lnEMP": ln_emp,
        "lnCAPINT": ln_capint,
        "lnPATINT_true": ln_patint_true,
        "lnECOINT_true": ln_ecoint_true,
        "lnNECOINT_true": ln_necoint_true,
        "lnVA_pe": lnva_col,
        "lnVA_pe_ext": lnva_ext_col,
        "TREAT": treat,
        # latent error draws, kept for DGP diagnostics
        "_eps_select": eps_sel,
        "_eps_outcome": eps_rd,
    }
    ent_long = np.repeat(np.array(entities, dtype=object), P)
    year_long = np.tile(np.array(years), E)
    return panel.from_long(ent_long, year_long, columns)


def true_parameters(cfg: DgpConfig) -> dict[str, str]:
    """The parameters generate_panel(cfg) draws from, as ``repr`` strings
    under ``true:<estimator>:<name>`` keys, one per Monte Carlo estimator and
    coefficient it reports."""
    p = cfg.productivity
    return {
        "true:heckman:X1": repr(cfg.rd.slope_x),
        "true:heckman:_cons": repr(cfg.rd.intercept),
        "true:heckman:IMR": repr(cfg.selection.rho_sel * cfg.rd.noise_sd),
        "true:naive_ols:X1": repr(cfg.rd.slope_x),
        "true:poisson_fe:RDINT_star": repr(cfg.counts.slope_rdint),
        "true:nb2:RDINT_star": repr(cfg.counts.slope_rdint),
        "true:nb2:alpha": repr(cfg.counts.alpha),
        "true:fe_ols:lnPATINT_true": repr(p.beta_patent),
        "true:fe_ols:lnCAPINT": repr(p.beta_capint),
        "true:fe_ols:lnEMP": repr(p.beta_emp),
    }


@dataclass
class MonteCarloReport:
    estimator: str
    reps: int
    n_failed: int
    parameters: dict[str, dict[str, float | None]]


def _fit_heckman(ds: panel.PanelDataset):
    spec = heckman.HeckmanSpec(
        outcome="RDINT",
        selection="D",
        outcome_regressors=("X1",),
        exclusion_restrictions=("Z",),
        vcov=VcovSpec("analytic"),
    )
    fit = heckman.heckman_two_step(ds, spec)
    return fit.outcome, ("X1", "IMR")


def _fit_naive_ols(ds: panel.PanelDataset):
    model = estim.ModelSpec(dependent="RDINT", regressors=("X1",))
    return estim.ols_fit(ds, model, VcovSpec("analytic")), ("X1",)


def _fit_poisson_fe(ds: panel.PanelDataset):
    spec = counts_mod.CountSpec("PAT", ("RDINT_star",), "poisson_fe", entity_fe=True, year_fe=False)
    return counts_mod.poisson_fe_fit(ds, spec), ("RDINT_star",)


def _fit_nb2(ds: panel.PanelDataset):
    spec = counts_mod.CountSpec("PAT", ("RDINT_star",), "nb2", entity_fe=True, year_fe=False)
    base = counts_mod.nb2_fit(ds, spec)
    se_alpha = base.notes["alpha_se"]
    coefficients = dict(base.coefficients)
    coefficients["alpha"] = base.notes["alpha"]
    k = len(coefficients)
    V = np.zeros((k, k))
    V[:-1, :-1] = base.vcov
    # alpha on the Poisson boundary has no SE: a NaN variance carries that
    V[-1, -1] = np.nan if se_alpha is None else se_alpha**2
    merged = estim.FitResult(coefficients, V, base.n_obs, se_method=base.se_method)
    return merged, ("RDINT_star", "alpha")


def _fit_fe_ols(ds: panel.PanelDataset):
    ds2 = panel.derive(ds, panel.DeriveRule.lead("lnVA_pe", 1, "lnVA_pe_lead"))
    spec = productivity.ProdSpec(
        dependent="lnVA_pe_lead",
        patent_intensities=("lnPATINT_true",),
        controls=("lnEMP", "lnCAPINT"),
        vcov=VcovSpec("analytic"),
    )
    return productivity.fe_ols(ds2, spec), ("lnPATINT_true", "lnCAPINT", "lnEMP")


_ESTIMATORS = {
    "heckman": _fit_heckman,
    "naive_ols": _fit_naive_ols,
    "poisson_fe": _fit_poisson_fe,
    "nb2": _fit_nb2,
    "fe_ols": _fit_fe_ols,
}


def monte_carlo(cfg: DgpConfig, estimator: str, reps: int, seed: int) -> MonteCarloReport:
    """Repeated generate-and-fit cycles; reports bias, RMSE, and 95% CI coverage.

    Replication r draws its panel from a seed stream keyed by (seed, r)
    (estim.replicate_rng), so results do not depend on scheduling. Fits that
    raise one of estim.ESTIMATION_ERRORS are dropped and counted; more than
    10% failing is an error. Any other exception propagates. A parameter whose SE is missing (a
    NaN variance) in any replication gets coverage None.
    """
    if reps < 1:
        raise ValidationError("reps must be >= 1")
    if estimator not in _ESTIMATORS:
        raise ValidationError(
            f"unknown estimator {estimator!r}; known: {sorted(_ESTIMATORS)}"
        )
    fit_fn = _ESTIMATORS[estimator]
    truths = true_parameters(cfg)

    estimates: list[np.ndarray] = []
    ses: list[np.ndarray] = []
    tracked: tuple[str, ...] | None = None
    n_failed = 0
    for r in range(reps):
        rep_seed = int(estim.replicate_rng(seed, r).integers(0, 2**63 - 1))
        ds = generate_panel(replace(cfg, seed=rep_seed))
        try:
            fit, names = fit_fn(ds)
        except estim.ESTIMATION_ERRORS:
            n_failed += 1
            continue
        if tracked is None:
            tracked = names
        estimates.append(np.array([fit.coefficients[nm] for nm in tracked]))
        ses.append(np.array([fit.se(nm) for nm in tracked]))
    if not estimates:
        raise ValidationError(f"all {reps} Monte Carlo replications failed")
    if n_failed > 0.10 * reps:
        raise ValidationError(f"{n_failed} of {reps} Monte Carlo replications failed (> 10%)")

    est = np.vstack(estimates)
    se = np.vstack(ses)
    params: dict[str, dict[str, float | None]] = {}
    for j, nm in enumerate(tracked):
        truth = float(truths[f"true:{estimator}:{nm}"])
        bias = float(np.mean(est[:, j]) - truth)
        rmse = float(np.sqrt(np.mean((est[:, j] - truth) ** 2)))
        if est.shape[0] > 1 and not np.isnan(se[:, j]).any():
            lo = est[:, j] - 1.96 * se[:, j]
            hi = est[:, j] + 1.96 * se[:, j]
            coverage = float(np.mean((lo <= truth) & (truth <= hi)))
        else:
            coverage = None
        params[nm] = {
            "true": truth,
            "mean": float(np.mean(est[:, j])),
            "bias": bias,
            "rmse": rmse,
            "coverage": coverage,
            "mc_se": float(np.std(est[:, j], ddof=1) / np.sqrt(est.shape[0])) if est.shape[0] > 1 else None,
        }
    return MonteCarloReport(estimator=estimator, reps=reps, n_failed=n_failed, parameters=params)
