"""Two-way fixed-effects productivity regressions and the Mundlak test.

The dependent variable is the one-period lead of log value added per employee,
built with a lead derive rule so the shift never crosses entity boundaries.
The Mundlak test augments a feasible-GLS random-effects model with entity
means of the time-varying regressors and tests the mean block jointly. Both
estimators are least squares on estim.ols_core: the within fit absorbs its
fixed effects there, and the Mundlak test's within, between and GLS fits are
three ols_core calls.
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
    """Two-way within estimator, entity and year effects absorbed, with the
    all-slopes Wald test attached (estim.attach_wald)."""
    model = ModelSpec(dependent=spec.dependent, regressors=spec.regressors, fe_dims=("entity", "year"))
    fit = estim.ols_fit(ds, model, spec.vcov)
    estim.attach_wald(fit, spec.regressors)
    return fit


def mundlak_test(ds: panel.PanelDataset, spec: ProdSpec):
    """Random-effects GLS augmented with entity means of time-varying regressors.

    Three least-squares fits (estim.ols_core): the within fit (entity and
    year effects absorbed through ``fe``) and the between fit on entity
    means give the variance components; the fit on the quasi-demeaned data
    is the GLS fit whose mean block is tested jointly. Each needs a residual
    degree of freedom: the between fit one more entity than it has columns.
    The entity means are per-entity sums (estim.EntityLayout.level_sums).

    Returns (chi2, df, p, mean_coefficients). Time-invariant regressors are
    excluded from the mean set with a warning; a negative estimated variance
    component is clamped to zero with a warning. A regressor whose entity
    means do not vary across entities leaves the between fit rank deficient,
    a CollinearityError naming its mean.
    """
    regressors = list(spec.regressors)
    mask = estim.complete_case_mask(ds, [spec.dependent, *regressors])
    n = int(mask.sum())
    if n == 0:
        raise ValidationError("no complete cases for the Mundlak test")
    ent = estim.fe_codes(ds, "entity", mask)[0]
    design, names, _ = estim.design_matrix(ds, mask, regressors, ("year",), intercept=False)
    X = design[:, : len(regressors)]

    counts = np.bincount(ent)
    data = np.column_stack([ds.column(spec.dependent)[mask], design])
    means = estim.EntityLayout.from_codes(ent, len(counts), data.shape[1]).level_sums(data) / counts[:, None]
    ybar, Xbar = means[:, 0], means[:, 1 : 1 + len(regressors)]

    time_varying: list[int] = []
    for j, name in enumerate(regressors):
        dev = X[:, j] - Xbar[ent, j]
        if np.max(np.abs(dev)) <= 1e-10 * (1.0 + np.max(np.abs(X[:, j]))):
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

    # variance components from the within / between decomposition
    fe = [ent, estim.fe_codes(ds, "year", mask)[0]]
    within = estim.ols_core(X[:, time_varying], data[:, 0], [regressors[j] for j in time_varying], fe=fe)
    sigma2_e = float(within.resid @ within.resid) / (n - len(time_varying) - within.absorbed_df)
    n_ent = len(counts)
    between_X = np.column_stack([Xbar, np.ones(n_ent)])
    between = estim.ols_core(between_X, ybar, [*(f"mean_{r}" for r in regressors), INTERCEPT])
    rss_b = float(between.resid @ between.resid)
    t_harm = n_ent / float(np.sum(1.0 / counts))
    sigma2_u = rss_b / (n_ent - between_X.shape[1]) - sigma2_e / t_harm
    if sigma2_u < 0:
        warnings.warn(
            f"estimated entity variance component was negative ({sigma2_u:.3e}); clamped to 0",
            stacklevel=2,
        )
        sigma2_u = 0.0

    # GLS: y and the design quasi-demeaned by theta_i; the entity means and the
    # intercept are constant within entity, so they are scaled by 1 - theta_i
    theta = 1.0 - np.sqrt(sigma2_e / (sigma2_e + counts * sigma2_u))[ent]
    quasi = data - theta[:, None] * means[ent]
    G = np.column_stack([quasi[:, 1:], (1.0 - theta)[:, None] * between_X[:, [*time_varying, -1]][ent]])
    all_names = [*names, *mean_names, INTERCEPT]
    gls = estim.ols_core(G, quasi[:, 0], all_names)
    fit = estim.ols_result(gls, all_names, ds.n_rows, "analytic", ())
    chi2, df, p = estim.wald_chi2(fit, mean_names)
    mean_coefficients = {nm: fit.coefficients[nm] for nm in mean_names}
    return chi2, df, p, mean_coefficients
