"""Two-way fixed-effects productivity regressions and the Mundlak test.

The dependent variable is the one-period lead of log value added per employee,
built with a lead derive rule so the shift never crosses entity boundaries.
The Mundlak test augments a feasible-GLS random-effects model with entity
means of the time-varying regressors and tests the mean block jointly.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import estim, panel
from .estim import INTERCEPT, FitResult, ModelSpec, VcovSpec
from .exceptions import ValidationError


@dataclass(frozen=True)
class ProdSpec:
    """Productivity equation: one patent intensity (classical) or two (extended)."""

    dependent: str
    patent_intensities: tuple[str, ...]
    controls: tuple[str, ...]
    entity_fe: bool = True
    year_fe: bool = True
    vcov: VcovSpec = field(default_factory=VcovSpec)

    def __post_init__(self):
        object.__setattr__(self, "patent_intensities", tuple(self.patent_intensities))
        object.__setattr__(self, "controls", tuple(self.controls))
        if len(self.patent_intensities) not in (1, 2):
            raise ValidationError(
                "classical form takes exactly one patent intensity, extended exactly two"
            )

    @property
    def regressors(self) -> tuple[str, ...]:
        return (*self.patent_intensities, *self.controls)


def fe_ols(ds: panel.PanelDataset, spec: ProdSpec) -> FitResult:
    """Two-way within estimator with the all-slopes Wald test attached."""
    dims = (("entity",) if spec.entity_fe else ()) + (("year",) if spec.year_fe else ())
    model = ModelSpec(
        dependent=spec.dependent,
        regressors=spec.regressors,
        intercept=not dims,
        fe_dims=dims,
    )
    fit = estim.ols_fit(ds, model, spec.vcov)
    fit.wald_chi2 = estim.wald_chi2(fit, list(spec.regressors))
    return fit


def mundlak_test(ds: panel.PanelDataset, spec: ProdSpec):
    """Random-effects GLS augmented with entity means of time-varying regressors.

    Returns (chi2, df, p, mean_coefficients). Time-invariant regressors are
    excluded from the mean set with a warning; a negative estimated variance
    component is clamped to zero with a warning.
    """
    regressors = list(spec.regressors)
    mask = estim.complete_case_mask(ds, [spec.dependent, *regressors])
    n = int(mask.sum())
    if n == 0:
        raise ValidationError("no complete cases for the Mundlak test")
    ent, entities = estim.fe_codes(ds, "entity", mask)
    n_ent = len(entities)

    y = ds.column(spec.dependent)[mask]
    year_dims = ("year",) if spec.year_fe else ()
    design, names, _ = estim.design_matrix(ds, mask, regressors, year_dims, intercept=False)
    X = design[:, : len(regressors)]

    counts = np.bincount(ent, minlength=n_ent).astype(float)
    means_X = np.vstack([np.bincount(ent, weights=X[:, j], minlength=n_ent) / counts
                         for j in range(X.shape[1])]).T

    time_varying: list[int] = []
    for j, name in enumerate(regressors):
        within = X[:, j] - means_X[ent, j]
        if np.max(np.abs(within)) <= 1e-10 * (1.0 + np.max(np.abs(X[:, j]))):
            warnings.warn(
                f"regressor {name!r} is constant within every entity; "
                "its entity mean duplicates it and is excluded from the Mundlak mean set",
                stacklevel=2,
            )
        else:
            time_varying.append(j)
    if len(time_varying) < 2:
        raise ValidationError("Mundlak test needs at least two time-varying regressors")

    mean_names = [f"mean_{regressors[j]}" for j in time_varying]
    Z = np.column_stack([design, means_X[ent][:, time_varying]])
    names += mean_names

    # variance components from the within / between decomposition
    within_y = y - np.bincount(ent, weights=y, minlength=n_ent)[ent] / counts[ent]
    Zbar = np.vstack([np.bincount(ent, weights=Z[:, j], minlength=n_ent) / counts
                      for j in range(Z.shape[1])]).T
    within_Z = Z - Zbar[ent]
    keep_w = [j for j in range(within_Z.shape[1]) if np.max(np.abs(within_Z[:, j])) > 1e-12]
    bw, *_ = np.linalg.lstsq(within_Z[:, keep_w], within_y, rcond=None)
    rss_w = float(np.sum((within_y - within_Z[:, keep_w] @ bw) ** 2))
    dof_w = max(n - n_ent - len(keep_w), 1)
    sigma2_e = rss_w / dof_w

    ybar = np.bincount(ent, weights=y, minlength=n_ent) / counts
    Xbar = means_X
    Bmat = np.column_stack([Xbar, np.ones(n_ent)])
    bb, *_ = np.linalg.lstsq(Bmat, ybar, rcond=None)
    rss_b = float(np.sum((ybar - Bmat @ bb) ** 2))
    dof_b = max(n_ent - Bmat.shape[1], 1)
    t_harm = n_ent / float(np.sum(1.0 / counts))
    sigma2_u = rss_b / dof_b - sigma2_e / t_harm
    if sigma2_u < 0:
        warnings.warn(
            f"estimated entity variance component was negative ({sigma2_u:.3e}); clamped to 0",
            stacklevel=2,
        )
        sigma2_u = 0.0

    theta_i = 1.0 - np.sqrt(sigma2_e / (sigma2_e + counts * sigma2_u))
    th = theta_i[ent]
    y_t = y - th * ybar[ent]
    Z_t = Z - th[:, None] * Zbar[ent]
    const_t = 1.0 - th
    G = np.column_stack([Z_t, const_t])
    all_names = [*names, INTERCEPT]

    coef, *_ = np.linalg.lstsq(G, y_t, rcond=None)
    resid = y_t - G @ coef
    dof = max(n - G.shape[1], 1)
    sigma2 = float(np.sum(resid**2)) / dof
    GtG_inv = np.linalg.inv(G.T @ G)
    V = sigma2 * GtG_inv

    fit = FitResult(
        coefficients=dict(zip(all_names, coef)),
        vcov=V,
        n_obs=n,
        se_method="analytic",
        n_dropped=ds.n_rows - n,
    )
    chi2, df, p = estim.wald_chi2(fit, mean_names)
    mean_coefficients = {nm: fit.coefficients[nm] for nm in mean_names}
    return chi2, df, p, mean_coefficients
