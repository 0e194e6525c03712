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
lambda = rho * sigma always holds. The outcome fit's notes hold lambda, rho,
sigma, the step-2 VIFs and, after a clamp, lambda / sigma before it
(`rho_clamped`).

Year and category effects enter both steps as indicator columns. Entity
effects are refused: a probit with entity effects is inconsistent at a fixed
number of periods (the incidental-parameters problem; Greene 2004), and so
is the inverse Mills ratio built from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


def _outcome_note(key: str) -> property:
    """A read-only attribute over the outcome fit's note ``key``."""
    return property(lambda fit: fit.outcome.notes[key])


@dataclass
class HeckmanFit:
    """Both steps; the selection-correction diagnostics are read from the
    outcome fit's notes, where they are stored once."""

    probit: FitResult
    outcome: FitResult
    lambda_ = _outcome_note("lambda")
    rho = _outcome_note("rho")
    sigma = _outcome_note("sigma")
    step2_vif = _outcome_note("step2_vif")

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


def probit_mle(y: np.ndarray, X: np.ndarray, layout: estim.EntityLayout) -> MleResult:
    """Probit maximum likelihood on raw arrays (no dataset plumbing); the
    parameters are X's columns, then the entity effects of the
    estim.EntityLayout, and the covariance spans X's columns only.

    Perfectly separated samples have no finite maximizer; the flat plateau the
    solver lands on is detected and reported as non-convergence.
    """
    res = estim.mle_fit(lambda t: _probit_parts(t, y, X, layout), np.zeros(layout.n_dense + layout.n_entity))
    z = estim.design_index(X, res.params, layout)
    p = np.exp(log_ndtr(z))
    separated = np.all(np.where(y > 0.5, p > 1.0 - 1e-6, p < 1e-6))
    if separated and np.max(np.abs(res.params)) > 5.0:
        raise ConvergenceError(
            "probit did not converge: the sample is perfectly separated and the "
            "coefficients diverge"
        )
    return res


def _probit(ds: panel.PanelDataset, rows: np.ndarray, dependent: str, regressors, fe_dims):
    """The probit on row indices of its complete rows, after the size and
    rank checks: (MleResult, X, names, fe_dummies, layout)."""
    n = len(rows)
    if n == 0:
        raise ValidationError("no complete cases for the probit")
    X, names, mapping, layout = estim.newton_design(ds, rows, regressors, fe_dims, intercept=True)
    k = layout.n_dense + layout.n_entity
    if n < k + 1:
        raise ValidationError(f"only {n} complete cases for {k} probit parameters")
    estim.screen_rank(X, names, layout, intercept=True)
    return probit_mle(ds.column(dependent)[rows], X, layout), X, names, mapping, layout


def probit_fit(ds: panel.PanelDataset, dependent: str, regressors, fe_dims=()) -> FitResult:
    """Probit with year and category FE dims as indicators (first category
    dropped). Entity effects are refused, with HeckmanSpec's reason.
    """
    _refuse_entity_effects(fe_dims)
    regressors = list(regressors)
    cat_cols = [d for d in fe_dims if d != "year"]
    mask = estim.complete_case_mask(ds, [dependent, *regressors, *cat_cols])
    if not np.all(np.isin(ds.column(dependent)[mask], (0.0, 1.0))):
        raise ValidationError(f"probit dependent {dependent!r} must be binary 0/1")
    res, _, names, mapping, layout = _probit(ds, np.flatnonzero(mask), dependent, regressors, fe_dims)
    n = int(mask.sum())
    return FitResult(
        coefficients=dict(zip(names, res.params[: layout.n_dense])),
        vcov=res.vcov,
        n_obs=n,
        loglik=res.loglik,
        n_dropped=ds.n_rows - n,
        notes={"fe_dummies": mapping, "newton_iterations": res.iterations, "grad_norm": res.grad_norm},
    )


def heckman_two_step(ds: panel.PanelDataset, spec: HeckmanSpec) -> HeckmanFit:
    """Probit on the full sample, then selection-corrected OLS on disclosing rows.

    A bootstrap replicate (estim.apply_vcov) solves both steps on the drawn
    entities' rows of ``ds`` (estim.draw_rows). With no entity codes in
    either step, it gives bit for bit the coefficients of step 2 on
    panel.take_entities' dataset of the draw. The checks on cell values (a
    binary selection observed wherever there are model data, an outcome on
    every selected row) run once, here, since a draw only repeats cells; a
    draw must still have a selected row. The VIFs and the Wald test are
    the point fit's alone.
    """
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
    selected = (sel == 1.0).reshape(len(ds.entities), len(ds.periods)).any(axis=1)
    if not selected.any():
        raise ValidationError("no selected rows: selection column is all zero")
    outcome = ds.column(spec.outcome)
    bad = observed & (sel == 1.0) & ~np.isfinite(outcome)

    if bad.any():
        raise ValidationError(
            f"outcome {spec.outcome!r} is missing on {int(bad.sum())} selected rows"
        )

    probit = probit_fit(ds, spec.selection, sel_regs, spec.fe_dims)
    probit_mask = estim.complete_case_mask(ds, [spec.selection, *sel_regs, *cat_cols])
    outcome_mask = estim.complete_case_mask(ds, [spec.outcome, *spec.outcome_regressors, *cat_cols]) & (sel == 1.0)

    def step2(rows: np.ndarray, params=None):
        """Step 2's (X, y, names, fe_dummies, imr, index) on the probit's row
        indices ``rows``, with the probit at ``params`` (its MLE there when
        None)."""
        if params is None:
            res, X1, *_ = _probit(ds, rows, spec.selection, sel_regs, spec.fe_dims)
            params = res.params
        else:
            X1 = estim.newton_design(ds, rows, sel_regs, spec.fe_dims, intercept=True)[0]
        index = np.zeros(len(X1))
        for j in range(X1.shape[1]):  # estim.linear_index's order of additions
            index = index + params[j] * X1[:, j]
        keep = outcome_mask[rows] & np.isfinite(index)
        rows, index = rows[keep], index[keep]
        imr = inverse_mills(index)
        X, names, mapping = estim.design_matrix(ds, rows, spec.outcome_regressors, spec.fe_dims, intercept=False)
        X = np.column_stack([X, imr, np.ones(X.shape[0])])
        return X, outcome[rows], [*names, IMR_NAME, INTERCEPT], mapping, imr, index

    X, y, names, mapping, imr, index = step2(np.flatnonzero(probit_mask), probit.coef_vector())
    core = _least_squares(estim.ols_core, X, y, names)
    outcome_fit = estim.ols_result(core, names, ds.n_rows, "analytic", ())
    outcome_fit.notes["fe_dummies"] = mapping

    lam = outcome_fit.coefficients[IMR_NAME]
    delta_bar = float(np.mean(imr * (imr + index)))
    sigma2 = float(np.mean(core.resid**2)) + lam**2 * delta_bar
    sigma = float(np.sqrt(sigma2))
    rho_raw = lam / sigma if sigma > 0 else np.inf
    if abs(rho_raw) > 1.0:
        outcome_fit.notes["rho_clamped"] = float(rho_raw)
        rho = float(np.sign(rho_raw))
        sigma = abs(lam)
    else:
        rho = float(rho_raw)

    step2_vif = estim.vif_matrix(X[:, :-1], names[:-1])

    def refit(picks: np.ndarray) -> dict[str, float]:
        if not selected[picks].any():
            raise ValidationError("no selected rows: selection column is all zero")
        X, y, names, *_ = step2(estim.draw_rows(ds, picks, probit_mask))
        return dict(zip(names, _least_squares(estim.ols_solve, X, y, names)[0][0]))

    estim.apply_vcov(outcome_fit, refit, ds, spec.vcov)
    if spec.outcome_regressors:
        outcome_fit.wald_chi2 = estim.wald_chi2(outcome_fit, spec.outcome_regressors)
    outcome_fit.notes.update({"lambda": float(lam), "rho": rho, "sigma": sigma, "step2_vif": step2_vif})

    return HeckmanFit(probit=probit, outcome=outcome_fit)


def _least_squares(solve, X, y, names):
    """Step 2's least squares by ``solve`` (estim.ols_core or estim.ols_solve),
    a collinear design named with the likely cause."""
    try:
        return solve(X, y, names)
    except CollinearityError as exc:
        raise CollinearityError(
            f"{exc}; the selection correction is collinear with the outcome regressors - "
            "consider adding exclusion restrictions to the selection equation"
        ) from None


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
