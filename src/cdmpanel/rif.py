"""Unconditional quantile regression via recentered influence functions, and
IPW-reweighted distributional treatment effects.

The RIF of the tau-th quantile of Y is

    RIF(y; q_tau) = q_tau + (tau* - 1{y <= q_tau}) / f(q_tau),

where q_tau is the (weighted) left-continuous sample quantile, f(q_tau) a
Gaussian-kernel density estimate at the quantile, and tau* the attained
empirical CDF at q_tau (the weighted share of observations <= q_tau). Using
tau* makes the weighted mean of the RIF equal the quantile exactly, which is
the identity everything downstream leans on; with continuous data tau* and tau
differ by at most one observation's weight.

Regressing the RIF on covariates (with FE absorbed) gives the unconditional
quantile partial effect. For treatment effects, each observation's RIF comes
from its own group's reweighted distribution and the combined RIF is regressed
on the treatment indicator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from . import estim, heckman, panel
from .estim import FitResult, ModelSpec, VcovSpec
from .exceptions import ValidationError

DEFAULT_TAUS = tuple(round(0.1 * i, 1) for i in range(1, 10))


@dataclass(frozen=True)
class QuantileSpec:
    """Quantile grid and the density estimator's bandwidth rule."""

    taus: tuple[float, ...] = DEFAULT_TAUS
    bandwidth: str | float = "silverman"

    def __post_init__(self):
        object.__setattr__(self, "taus", tuple(self.taus))
        if not self.taus:
            raise ValidationError("need at least one quantile")
        prev = 0.0
        for t in self.taus:
            if not 0.0 < t < 1.0:
                raise ValidationError(f"quantile {t} outside (0, 1)")
            if t <= prev:
                raise ValidationError("quantiles must be strictly increasing")
            prev = t
        if isinstance(self.bandwidth, str):
            if self.bandwidth != "silverman":
                raise ValidationError(f"unknown bandwidth rule {self.bandwidth!r}")
        elif not self.bandwidth > 0:
            raise ValidationError("fixed bandwidth must be > 0")


@dataclass
class RifResult:
    """Per-observation RIF values plus the quantile and density they encode."""

    tau: float
    q_hat: float
    f_hat: float
    rif: np.ndarray
    sigma2_if: float
    tau_attained: float

    def __post_init__(self):
        if not self.f_hat > 0:
            raise ValidationError("density estimate at the quantile must be positive")


@dataclass(frozen=True)
class TreatmentSpec:
    """Distributional treatment-effect description (binary treatment)."""

    treatment: str
    propensity_regressors: tuple[str, ...] = ()
    controls: tuple[str, ...] = ()
    entity_fe: bool = True
    year_fe: bool = True
    clip: tuple[float, float] = (0.01, 0.99)
    weighting: str = "ipw"
    propensity_year_dummies: bool = True

    def __post_init__(self):
        object.__setattr__(self, "propensity_regressors", tuple(self.propensity_regressors))
        object.__setattr__(self, "controls", tuple(self.controls))
        if len(self.clip) != 2 or not (0.0 < self.clip[0] < 0.5 and 0.5 < self.clip[1] < 1.0):
            raise ValidationError("clip bounds must be a pair in (0, 0.5) and (0.5, 1)")
        if self.weighting not in ("none", "ipw"):
            raise ValidationError(f"unknown weighting {self.weighting!r}")


def _weighted_sd_iqr(x: np.ndarray, w: np.ndarray) -> tuple[float, float]:
    wsum = float(np.sum(w))
    mean = float(np.sum(w * x)) / wsum
    sd = float(np.sqrt(np.sum(w * (x - mean) ** 2) / wsum))
    q25 = weighted_quantile(x, 0.25, w)
    q75 = weighted_quantile(x, 0.75, w)
    return sd, q75 - q25


def kde_at(sample, point: float, bandwidth="silverman", weights=None) -> float:
    """Gaussian-kernel density estimate at one point.

    Silverman's rule: h = 0.9 * min(sd, IQR/1.34) * n^(-1/5). A zero bandwidth
    (constant sample) is an error.
    """
    x = np.asarray(sample, dtype=float)
    if weights is None:
        w = np.ones(x.shape)
    else:
        w = np.asarray(weights, dtype=float)
        if np.any(w < 0) or not np.sum(w) > 0:
            raise ValidationError("weights must be non-negative with a positive sum")
    if isinstance(bandwidth, str):
        if x.size < 2:
            raise ValidationError("silverman bandwidth needs a sample of at least 2")
        sd, iqr = _weighted_sd_iqr(x, w)
        h = 0.9 * min(sd, iqr / 1.34) * x.size ** (-0.2)
        if not h > 0:
            raise ValidationError("silverman bandwidth is zero (sample has no spread)")
    else:
        h = float(bandwidth)
        if not h > 0:
            raise ValidationError("bandwidth must be > 0")
    z = (point - x) / h
    kern = np.exp(-0.5 * z**2) / np.sqrt(2.0 * np.pi)
    return float(np.sum(w * kern) / (np.sum(w) * h))


def weighted_quantile(y: np.ndarray, tau: float, weights=None) -> float:
    """Left-continuous sample quantile: smallest y with cumulative weight >= tau.

    Unweighted this is the order statistic at index ceil(tau*n); ties resolve
    toward the lower value.
    """
    y = np.asarray(y, dtype=float)
    order = np.argsort(y, kind="stable")
    ys = y[order]
    if weights is None:
        k = int(np.ceil(tau * y.size)) - 1
        return float(ys[max(k, 0)])
    w = np.asarray(weights, dtype=float)[order]
    cum = np.cumsum(w) / np.sum(w)
    idx = int(np.searchsorted(cum, tau - 1e-12, side="left"))
    return float(ys[min(idx, y.size - 1)])


def rif_quantile(y, spec: QuantileSpec, tau: float, weights=None) -> RifResult:
    """RIF column for one quantile; missing y rows come back missing."""
    if not 0.0 < tau < 1.0:
        raise ValidationError(f"quantile {tau} outside (0, 1)")
    y = np.asarray(y, dtype=float)
    obs = np.isfinite(y)
    yv = y[obs]
    if yv.size < 10:
        raise ValidationError(f"need at least 10 non-missing values, got {yv.size}")
    if weights is None:
        w = np.ones(yv.shape)
    else:
        w = np.asarray(weights, dtype=float)[obs]
        if np.any(w < 0) or not np.sum(w) > 0:
            raise ValidationError("weights must be non-negative with a positive sum")

    q = weighted_quantile(yv, tau, w)
    f = kde_at(yv, q, spec.bandwidth, w)
    below = yv <= q
    tau_star = float(np.sum(w * below) / np.sum(w))
    vals = q + (tau_star - below.astype(float)) / f
    rif = np.full(y.shape, np.nan)
    rif[obs] = vals
    sigma2_if = float(np.sum(w * (vals - q) ** 2) / np.sum(w))
    return RifResult(tau=tau, q_hat=q, f_hat=f, rif=rif, sigma2_if=sigma2_if, tau_attained=tau_star)


RIF_COLUMN = "__rif__"
WEIGHT_COLUMN = "__rif_weight__"


def uqr_fit(
    ds: panel.PanelDataset,
    dependent: str,
    regressors,
    spec: QuantileSpec,
    fe_dims: tuple[str, ...] = ("entity", "year"),
) -> dict[float, FitResult]:
    """Per-quantile OLS of the RIF on the regressors with FE absorbed (HC1 SEs)."""
    regressors = tuple(regressors)
    cat_dims = [d for d in fe_dims if d not in ("entity", "year")]
    mask = estim.complete_case_mask(ds, [dependent, *regressors, *cat_dims])
    if not mask.any():
        raise ValidationError("no complete cases for the quantile regression")
    y = np.where(mask, ds.column(dependent), np.nan)

    out: dict[float, FitResult] = {}
    for tau in spec.taus:
        rr = rif_quantile(y, spec, tau)
        ds_t = ds.with_column(RIF_COLUMN, rr.rif)
        model = ModelSpec(
            dependent=RIF_COLUMN,
            regressors=regressors,
            intercept=not fe_dims,
            fe_dims=tuple(fe_dims),
        )
        fit = estim.ols_fit(ds_t, model, VcovSpec("hc_robust"))
        fit.notes["model"] = "uqr"
        fit.notes["tau"] = tau
        fit.notes["q_hat"] = rr.q_hat
        fit.notes["f_hat"] = rr.f_hat
        fit.notes["sigma2_if"] = rr.sigma2_if
        out[tau] = fit
    return out


def propensity_ipw(ds: panel.PanelDataset, spec: TreatmentSpec) -> tuple[np.ndarray, np.ndarray]:
    """Probit propensity scores (clipped) and Hajek-normalized IPW weights.

    Weights are T/p for the treated and (1-T)/(1-p) for controls, each group
    normalized to sum to one. Rows outside the propensity complete cases come
    back missing in both columns.
    """
    t_col = ds.column(spec.treatment)
    mask = estim.complete_case_mask(ds, [spec.treatment, *spec.propensity_regressors])
    T = t_col[mask]
    if not np.all(np.isin(T, (0.0, 1.0))):
        raise ValidationError(f"treatment column {spec.treatment!r} must be binary 0/1")
    if not (T == 1.0).any():
        raise ValidationError("treated group is empty")
    if not (T == 0.0).any():
        raise ValidationError("control group is empty")

    fe = ("year",) if spec.propensity_year_dummies and len(ds.periods) > 1 else ()
    fit = heckman.probit_fit(ds, spec.treatment, list(spec.propensity_regressors), fe)
    index = estim.linear_index(fit, ds)
    p = np.where(np.isfinite(index), ndtr(index), np.nan)
    p = np.clip(p, spec.clip[0], spec.clip[1])
    p[~np.isfinite(index)] = np.nan

    w = np.full(ds.n_rows, np.nan)
    ok = mask & np.isfinite(p)
    treated = ok & (t_col == 1.0)
    control = ok & (t_col == 0.0)
    w[treated] = 1.0 / p[treated]
    w[control] = 1.0 / (1.0 - p[control])
    w[treated] /= np.sum(w[treated])
    w[control] /= np.sum(w[control])
    return p, w


def rif_treatment_fit(
    ds: panel.PanelDataset,
    dependent: str,
    spec: TreatmentSpec,
    qspec: QuantileSpec,
) -> dict[float, FitResult]:
    """Distributional treatment effects from group-specific reweighted RIFs.

    For each tau the treated and control RIFs are built from their own group's
    (IPW-reweighted) distribution, combined as T*RIF1 + (1-T)*RIF0, and
    regressed on the treatment indicator plus controls with FE absorbed.
    """
    used = [dependent, spec.treatment, *spec.controls]
    if spec.weighting == "ipw":
        used += list(spec.propensity_regressors)
    mask = estim.complete_case_mask(ds, used)
    t_col = ds.column(spec.treatment)
    T = t_col[mask]
    if not np.all(np.isin(T, (0.0, 1.0))):
        raise ValidationError(f"treatment column {spec.treatment!r} must be binary 0/1")
    n1, n0 = int((T == 1.0).sum()), int((T == 0.0).sum())
    if n1 < 30:
        raise ValidationError(f"treated group has {n1} complete cases, need at least 30")
    if n0 < 30:
        raise ValidationError(f"control group has {n0} complete cases, need at least 30")

    y = ds.column(dependent)
    treated_rows = mask & (t_col == 1.0)
    control_rows = mask & (t_col == 0.0)
    if spec.weighting == "ipw":
        _, w_all = propensity_ipw(ds, spec)
        w_all = np.where(mask, w_all, np.nan)
        if np.any(~np.isfinite(w_all[mask])):
            raise ValidationError("propensity weights are missing on the estimation sample")
        # renormalize within groups over the estimation sample
        w_all[treated_rows] /= np.sum(w_all[treated_rows])
        w_all[control_rows] /= np.sum(w_all[control_rows])
    else:
        w_all = np.where(mask, 1.0, np.nan)

    fe_dims = (("entity",) if spec.entity_fe else ()) + (("year",) if spec.year_fe else ())
    out: dict[float, FitResult] = {}
    for tau in qspec.taus:
        combined = np.full(ds.n_rows, np.nan)
        qs = {}
        for label, rows in (("treated", treated_rows), ("control", control_rows)):
            y_g = np.where(rows, y, np.nan)
            rr = rif_quantile(y_g, qspec, tau, weights=np.where(rows, w_all, np.nan))
            combined[rows] = rr.rif[rows]
            qs[label] = rr
        ds_t = ds.with_column(RIF_COLUMN, combined)
        if spec.weighting == "ipw":
            ds_t = ds_t.with_column(WEIGHT_COLUMN, w_all)
        model = ModelSpec(
            dependent=RIF_COLUMN,
            regressors=(spec.treatment, *spec.controls),
            intercept=not fe_dims,
            fe_dims=fe_dims,
            weights=WEIGHT_COLUMN if spec.weighting == "ipw" else None,
        )
        fit = estim.ols_fit(ds_t, model, VcovSpec("hc_robust"))
        fit.notes["model"] = "rif_treatment"
        fit.notes["tau"] = tau
        fit.notes["weighting"] = spec.weighting
        fit.notes["q_treated"] = qs["treated"].q_hat
        fit.notes["q_control"] = qs["control"].q_hat
        out[tau] = fit
    return out
