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

Regressing the RIF on covariates (with FE absorbed exactly, as residuals from
the least-squares fit on the FE: estim.fe_residuals) gives the unconditional
quantile partial effect. For treatment effects, each observation's RIF comes
from its own group's reweighted distribution and the combined RIF is regressed
on the treatment indicator.

All taus of one model are fitted together: the sample is sorted once, which
gives every tau's quantile and one Silverman bandwidth (rif_quantiles), and
the RIF columns of all taus share one FE projection and one factored design
(one estim.ols_core call on the n x len(taus) RIF matrix).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from . import estim, heckman, panel
from .estim import FitResult
from .exceptions import ValidationError

DEFAULT_TAUS = tuple(round(0.1 * i, 1) for i in range(1, 10))


@dataclass(frozen=True)
class QuantileSpec:
    """Quantile grid; the density at each quantile takes Silverman's bandwidth (rif_quantiles)."""

    taus: tuple[float, ...] = DEFAULT_TAUS

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

    def __post_init__(self):
        object.__setattr__(self, "propensity_regressors", tuple(self.propensity_regressors))
        object.__setattr__(self, "controls", tuple(self.controls))
        if len(self.clip) != 2 or not (0.0 < self.clip[0] < 0.5 and 0.5 < self.clip[1] < 1.0):
            raise ValidationError("clip bounds must be a pair in (0, 0.5) and (0.5, 1)")
        if self.weighting not in ("none", "ipw"):
            raise ValidationError(f"unknown weighting {self.weighting!r}")


def _cdf(x: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x sorted ascending (stable, so ties keep their order) and the normalised
    cumulative weight at each sorted value."""
    order = np.argsort(x, kind="stable")
    ws = w[order]
    return x[order], np.cumsum(ws) / np.sum(ws)


def _quantile(cdf: tuple[np.ndarray, np.ndarray], tau: float) -> float:
    """Smallest sorted value whose cumulative weight reaches tau."""
    xs, cum = cdf
    idx = int(np.searchsorted(cum, tau - 1e-12, side="left"))
    return float(xs[min(idx, xs.size - 1)])


def _bandwidth(x: np.ndarray, w: np.ndarray, cdf=None) -> float:
    """Kernel bandwidth by Silverman's rule h = 0.9 * min(sd, IQR/1.34) *
    n^(-1/5), with the weighted sd and IQR, the IQR read from ``cdf`` (x's
    _cdf, sorted here when not given). A zero IQR leaves sd in its place, as
    R's bw.nrd0 does."""
    if x.size < 2:
        raise ValidationError("silverman bandwidth needs a sample of at least 2")
    cdf = cdf if cdf is not None else _cdf(x, w)
    wsum = float(np.sum(w))
    mean = float(np.sum(w * x)) / wsum
    sd = float(np.sqrt(np.sum(w * (x - mean) ** 2) / wsum))
    iqr = _quantile(cdf, 0.75) - _quantile(cdf, 0.25)
    h = 0.9 * (min(sd, iqr / 1.34) or sd) * x.size ** (-0.2)
    if not h > 0:
        raise ValidationError("silverman bandwidth is zero (sample has no spread)")
    return h


def _kde(x: np.ndarray, w: np.ndarray, point: float, h: float) -> float:
    z = (point - x) / h
    kern = np.exp(-0.5 * z**2) / np.sqrt(2.0 * np.pi)
    return float(np.sum(w * kern) / (np.sum(w) * h))


def _checked_weights(weights) -> np.ndarray:
    w = np.asarray(weights, dtype=float)
    if np.any(w < 0) or not np.sum(w) > 0:
        raise ValidationError("weights must be non-negative with a positive sum")
    return w


def weighted_quantile(y: np.ndarray, tau: float, weights=None) -> float:
    """Left-continuous sample quantile: smallest y with cumulative weight >= tau.

    Unweighted this is the order statistic at index ceil(tau*n), with tau*n
    taken exactly; ties resolve toward the lower value. No code in the
    package calls it (rif_quantiles reads every tau from one sort); the rif
    tests and acceptance criterion 7 use it as the oracle of the reweighted
    quantiles.
    """
    y = np.asarray(y, dtype=float)
    w = np.ones(y.shape) if weights is None else np.asarray(weights, dtype=float)
    return _quantile(_cdf(y, w), tau)


def rif_quantiles(y, taus, weights=None) -> list[RifResult]:
    """RIF columns for several quantiles of one sample, one RifResult per tau;
    missing y rows come back missing.

    y is sorted once: every tau's quantile and the Silverman bandwidth (one
    for all taus) are read from that sort. The attained CDF, the density at
    the quantile and the RIF are per tau.
    """
    taus = tuple(taus)
    for tau in taus:
        if not 0.0 < tau < 1.0:
            raise ValidationError(f"quantile {tau} outside (0, 1)")
    y = np.asarray(y, dtype=float)
    obs = np.isfinite(y)
    yv = y[obs]
    if yv.size < 10:
        raise ValidationError(f"need at least 10 non-missing values, got {yv.size}")
    w = np.ones(yv.shape) if weights is None else _checked_weights(np.asarray(weights, dtype=float)[obs])

    cdf = _cdf(yv, w)
    h = _bandwidth(yv, w, cdf)
    wsum = np.sum(w)
    out = []
    for tau in taus:
        q = _quantile(cdf, tau)
        f = _kde(yv, w, q, h)
        below = yv <= q
        tau_star = float(np.sum(w * below) / wsum)
        vals = q + (tau_star - below.astype(float)) / f
        rif = np.full(y.shape, np.nan)
        rif[obs] = vals
        sigma2_if = float(np.sum(w * (vals - q) ** 2) / wsum)
        out.append(RifResult(tau=tau, q_hat=q, f_hat=f, rif=rif, sigma2_if=sigma2_if, tau_attained=tau_star))
    return out


def rif_quantile(y, spec: QuantileSpec, tau: float, weights=None) -> RifResult:
    """RIF column for one quantile; missing y rows come back missing. ``spec``
    is not read: Silverman's rule is the only bandwidth.

    No code in the package calls it (the fits take all taus from one
    rif_quantiles call); the rif tests use it as the one-tau oracle of
    rif_quantiles, uqr_fit and rif_treatment_fit, and acceptance criterion 5
    checks the RIF identities on it."""
    return rif_quantiles(y, (tau,), weights)[0]


def uqr_fit(
    ds: panel.PanelDataset,
    dependent: str,
    regressors,
    spec: QuantileSpec,
    fe_dims: tuple[str, ...] = ("entity", "year"),
) -> dict[float, FitResult]:
    """Per-quantile OLS of the RIF on the regressors with FE absorbed (HC1 SEs).

    All taus share one complete-case sample: the dependent is sorted once
    (rif_quantiles), and the n x len(taus) RIF matrix is fitted by one
    ols_core call, which projects the FE out of it and the design in one
    fe_residuals call and factors the design once.
    """
    regressors = tuple(regressors)
    fe_dims = tuple(fe_dims)
    mask = estim.complete_case_mask(ds, [dependent, *regressors], fe_dims)
    if not mask.any():
        raise ValidationError("no complete cases for the quantile regression")
    rifs = rif_quantiles(ds.column(dependent)[mask], spec.taus)
    fits = _fit_rifs(ds, mask, np.column_stack([rr.rif for rr in rifs]), regressors, fe_dims)
    for rr, fit in zip(rifs, fits):
        fit.notes["tau"] = rr.tau
        fit.notes["q_hat"] = rr.q_hat
        fit.notes["f_hat"] = rr.f_hat
    return dict(zip(spec.taus, fits))


def _fit_rifs(ds, mask, rifs: np.ndarray, regressors, fe_dims, w=None) -> list[FitResult]:
    """HC1 OLS of each column of ``rifs`` (masked rows x taus) on the
    regressors with fe_dims absorbed, in one ols_core call, each fit's
    se_method "robust"; the intercept is reported only without FE. ``w`` are
    analytic weights on the masked rows (the IPW treatment fits)."""
    X, names, _ = estim.design_matrix(ds, mask, regressors, (), not fe_dims)
    if not names:
        raise ValidationError("need at least one regressor or an intercept")
    cores = estim.ols_core(
        X,
        rifs,
        names,
        w=w,
        fe=[estim.fe_codes(ds, dim, mask)[0] for dim in fe_dims],
        robust=True,
    )
    return [estim.ols_result(core, names, ds.n_rows, "robust", fe_dims) for core in cores]


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

    fe = ("year",) if len(ds.periods) > 1 else ()
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
    regressed on the treatment indicator plus controls with FE absorbed (HC1
    SEs). Each group is sorted once for all taus (rif_quantiles), and the
    combined n x len(taus) RIF matrix is fitted by one ols_core call: one FE
    projection, one factored design.
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
    combined = np.full((ds.n_rows, len(qspec.taus)), np.nan)
    for rows in (treated_rows, control_rows):
        rifs = rif_quantiles(y[rows], qspec.taus, weights=w_all[rows])
        combined[rows] = np.column_stack([rr.rif for rr in rifs])
    w = w_all[mask] if spec.weighting == "ipw" else None
    fits = _fit_rifs(ds, mask, combined[mask], (spec.treatment, *spec.controls), fe_dims, w)
    for tau, fit in zip(qspec.taus, fits):
        fit.notes["tau"] = tau
        fit.notes["weighting"] = spec.weighting
    return dict(zip(qspec.taus, fits))
