"""Selection-corrected R&D intensity: probit disclosure model, inverse Mills
ratio, two-step estimation, and level predictions for all rows.

Step 1 fits a probit for the disclosure indicator on the exclusion
restrictions plus the outcome controls. Step 2 regresses the outcome on the
controls and the inverse Mills ratio over the disclosing rows only. The
correction coefficient lambda, the implied error correlation rho, and the
outcome error scale sigma follow the classical two-step decomposition

    sigma^2 = mean(e^2) + lambda^2 * mean(IMR * (IMR + index)),
    rho     = clamp(lambda / sigma, -1, 1),

with sigma redefined as |lambda| whenever rho is clamped so that
lambda = rho * sigma always holds.

Year and category effects enter both steps as indicator columns. Entity
effects are refused: a probit with entity effects is inconsistent at a fixed
number of periods (the incidental-parameters problem; Greene 2004), and so
is the inverse Mills ratio built from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from scipy.special import log_ndtr

from . import estim, panel
from .estim import INTERCEPT, FitResult, MleResult, VcovSpec
from .exceptions import CollinearityError, ConvergenceError, ValidationError

IMR_NAME = "IMR"

_LOG_SQRT_2PI = 0.5 * np.log(2.0 * np.pi)


@dataclass(frozen=True)
class HeckmanSpec:
    """Two-step selection model description."""

    outcome: str
    selection: str
    outcome_regressors: tuple[str, ...]
    exclusion_restrictions: tuple[str, ...]
    fe_dims: tuple[str, ...] = ()
    vcov: VcovSpec = field(default_factory=VcovSpec)

    def __post_init__(self):
        object.__setattr__(self, "outcome_regressors", tuple(self.outcome_regressors))
        object.__setattr__(self, "exclusion_restrictions", tuple(self.exclusion_restrictions))
        object.__setattr__(self, "fe_dims", tuple(self.fe_dims))
        shared = set(self.exclusion_restrictions) & set(self.outcome_regressors)
        if shared:
            raise ValidationError(
                f"exclusion restrictions {sorted(shared)} also appear among the outcome "
                "regressors; they must enter the selection equation only"
            )
        if self.outcome in self.outcome_regressors:
            raise ValidationError(f"dependent {self.outcome!r} appears among the regressors")
        _refuse_entity_effects(self.fe_dims)


def _refuse_entity_effects(fe_dims) -> None:
    if "entity" in fe_dims:
        raise ValidationError(
            "entity fixed effects are not supported: a probit with entity effects is "
            "inconsistent at a fixed number of periods (the incidental-parameters "
            "problem), and so is the inverse Mills ratio built from it"
        )


@dataclass
class HeckmanFit:
    """Both steps plus the selection-correction diagnostics."""

    probit: FitResult
    outcome: FitResult
    lambda_: float
    rho: float
    sigma: float
    imr_vif: float
    step2_vif: dict[str, float]

    def __post_init__(self):
        if not -1.0 <= self.rho <= 1.0:
            raise ValidationError("rho must lie in [-1, 1]")
        if not self.sigma > 0:
            raise ValidationError("sigma must be positive")


def inverse_mills(index):
    """phi(z)/Phi(z), computed in log space so both tails stay accurate."""
    arr = np.asarray(index, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValidationError("inverse_mills requires finite input")
    log_pdf = -0.5 * arr**2 - _LOG_SQRT_2PI
    out = np.exp(log_pdf - log_ndtr(arr))
    if np.isscalar(index) or arr.ndim == 0:
        return float(out)
    return out


def _probit_parts(theta: np.ndarray, y: np.ndarray, X: np.ndarray, layout: estim.EntityLayout):
    z = estim.design_index(X, theta, layout)
    log_cdf = log_ndtr(z)
    log_sf = log_ndtr(-z)
    ll = float(np.sum(np.where(y > 0.5, log_cdf, log_sf)))
    log_pdf = -0.5 * z**2 - _LOG_SQRT_2PI
    m = np.where(y > 0.5, np.exp(log_pdf - log_cdf), -np.exp(log_pdf - log_sf))
    grad = estim.design_gradient(X, m, layout)
    hess = estim.design_hessian(X, -(m * (m + z)), layout)
    return ll, grad, hess


def probit_mle(
    y: np.ndarray, X: np.ndarray, layout: estim.EntityLayout, tol: float = 1e-8, max_iter: int = 200
) -> MleResult:
    """Probit maximum likelihood on raw arrays (no dataset plumbing); the
    parameters span X and the entity effects of the estim.EntityLayout, and
    the covariance only the parameters at its ``dense_pos``.

    Perfectly separated samples have no finite maximizer; the flat plateau the
    solver lands on is detected and reported as non-convergence.
    """
    res = estim.mle_fit(
        lambda t: _probit_parts(t, y, X, layout), np.zeros(layout.n_params), tol=tol, max_iter=max_iter
    )
    z = estim.design_index(X, res.params, layout)
    p = np.exp(log_ndtr(z))
    separated = np.all(np.where(y > 0.5, p > 1.0 - 1e-6, p < 1e-6))
    if separated and np.max(np.abs(res.params)) > 5.0:
        raise ConvergenceError(
            "probit did not converge: the sample is perfectly separated and the "
            "coefficients diverge"
        )
    return res


def probit_fit(ds: panel.PanelDataset, dependent: str, regressors, fe_dims=()) -> FitResult:
    """Probit with year and category FE dims as indicators (first category
    dropped). Entity effects are refused, with HeckmanSpec's reason.
    """
    _refuse_entity_effects(fe_dims)
    regressors = list(regressors)
    cat_cols = [d for d in fe_dims if d != "year"]
    mask = estim.complete_case_mask(ds, [dependent, *regressors, *cat_cols])
    n = int(mask.sum())
    if n == 0:
        raise ValidationError("no complete cases for the probit")
    y = ds.column(dependent)[mask]
    if not np.all(np.isin(y, (0.0, 1.0))):
        raise ValidationError(f"probit dependent {dependent!r} must be binary 0/1")

    X, names, mapping, layout = estim.newton_design(ds, mask, regressors, fe_dims, intercept=True)
    if n < layout.n_params + 1:
        raise ValidationError(f"only {n} complete cases for {layout.n_params} probit parameters")
    estim.screen_rank(X, names, layout, intercept=True)

    res = probit_mle(y, X, layout)
    return FitResult(
        coefficients=dict(zip(names, res.params[layout.dense_pos])),
        vcov=res.vcov,
        n_obs=n,
        loglik=res.loglik,
        n_dropped=ds.n_rows - n,
        notes={"fe_dummies": mapping, "newton_iterations": res.iterations, "grad_norm": res.grad_norm},
    )


def heckman_two_step(ds: panel.PanelDataset, spec: HeckmanSpec) -> HeckmanFit:
    """Probit on the full sample, then selection-corrected OLS on disclosing rows."""
    # the step-2 design names the correction term IMR; a data column of that
    # name would be ambiguous
    if ds.has_column(IMR_NAME):
        raise ValidationError(f"column {IMR_NAME!r} already exists")
    sel = ds.column(spec.selection)
    sel_regs = [*spec.exclusion_restrictions, *spec.outcome_regressors]
    cat_cols = [d for d in spec.fe_dims if d != "year"]
    model_cols = [spec.outcome, *sel_regs, *cat_cols]
    has_data = np.zeros(ds.n_rows, dtype=bool)
    for name in model_cols:
        has_data |= np.isfinite(ds.column(name))
    if np.any(~np.isfinite(sel) & has_data):
        raise ValidationError(
            f"selection column {spec.selection!r} must be observed on every row with model data"
        )
    observed = np.isfinite(sel)
    if not np.all(np.isin(sel[observed], (0.0, 1.0))):
        raise ValidationError(f"selection column {spec.selection!r} must be binary 0/1")
    if not np.any(sel[observed] == 1.0):
        raise ValidationError("no selected rows: selection column is all zero")
    outcome = ds.column(spec.outcome)
    bad = observed & (sel == 1.0) & ~np.isfinite(outcome)

    if bad.any():
        raise ValidationError(
            f"outcome {spec.outcome!r} is missing on {int(bad.sum())} selected rows"
        )

    probit = probit_fit(ds, spec.selection, sel_regs, spec.fe_dims)
    index = estim.linear_index(probit, ds)
    mask = estim.complete_case_mask(ds, [spec.outcome, *spec.outcome_regressors, *cat_cols])
    mask &= (sel == 1.0) & np.isfinite(index)
    index = index[mask]
    imr = inverse_mills(index)
    X, names, mapping = estim.design_matrix(ds, mask, spec.outcome_regressors, spec.fe_dims, intercept=False)
    X = np.column_stack([X, imr, np.ones(X.shape[0])])
    names += [IMR_NAME, INTERCEPT]
    try:
        core = estim.ols_core(X, outcome[mask], names)
    except CollinearityError as exc:
        raise CollinearityError(
            f"{exc}; the selection correction is collinear with the outcome regressors - "
            "consider adding exclusion restrictions to the selection equation"
        ) from None
    outcome_fit = estim.ols_result(core, names, ds.n_rows, VcovSpec(), ())
    outcome_fit.notes["fe_dummies"] = mapping

    lam = outcome_fit.coefficients[IMR_NAME]
    delta_bar = float(np.mean(imr * (imr + index)))
    sigma2 = float(np.mean(core.resid**2)) + lam**2 * delta_bar
    sigma = float(np.sqrt(sigma2))
    rho_raw = lam / sigma if sigma > 0 else np.inf
    if abs(rho_raw) > 1.0:
        rho = float(np.sign(rho_raw))
        sigma = abs(lam)
    else:
        rho = float(rho_raw)

    step2_vif = estim.vif_matrix(X[:, :-1], names[:-1])
    imr_vif = step2_vif[IMR_NAME]

    analytic = replace(spec, vcov=VcovSpec())
    estim.apply_vcov(
        outcome_fit, lambda dsb: heckman_two_step(dsb, analytic).outcome, ds, spec.vcov, "heckman_two_step"
    )
    slopes = [r for r in spec.outcome_regressors]
    if slopes:
        outcome_fit.wald_chi2 = estim.wald_chi2(outcome_fit, slopes)

    return HeckmanFit(
        probit=probit,
        outcome=outcome_fit,
        lambda_=float(lam),
        rho=rho,
        sigma=sigma,
        imr_vif=float(imr_vif),
        step2_vif=step2_vif,
    )


def predict_linear_index(fit: HeckmanFit, ds: panel.PanelDataset) -> np.ndarray:
    """Step-2 prediction X'beta for every row, excluding the IMR correction term.

    Rows missing any outcome regressor yield missing predictions; disclosure
    status does not matter, so non-disclosing rows are predicted too.
    """
    for name in fit.outcome.coefficients:
        if name in (INTERCEPT, IMR_NAME) or name in fit.outcome.notes.get("fe_dummies", {}):
            continue
        if not ds.has_column(name):
            raise ValidationError(f"regressor {name!r} absent from the dataset")
    return estim.linear_index(fit.outcome, ds, exclude=(IMR_NAME,))
