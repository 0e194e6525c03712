"""Conditional quantile regression as an exact linear program.

The check loss rho_tau(u) = u * (tau - 1{u < 0}) is minimized exactly by the
primal LP of Koenker & Bassett (1978), solved with HiGHS through
scipy.optimize.linprog. The optimum is not unique (a flat interval) when an
observation with zero residual has its dual at tau or tau - 1. Standard errors
come from the entity-cluster bootstrap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from . import estim, panel
from .estim import FitResult, VcovSpec
from .exceptions import ConvergenceError, ValidationError

# an LP dual within this distance of tau or tau - 1 counts as at its bound
# (HiGHS's default dual feasibility tolerance)
DUAL_TOL = 1e-7


@dataclass(frozen=True)
class CqrSpec:
    dependent: str
    regressors: tuple[str, ...] = ()
    tau: float = 0.5
    intercept: bool = True
    fe_dims: tuple[str, ...] = ()
    vcov: VcovSpec | None = None

    def __post_init__(self):
        object.__setattr__(self, "regressors", tuple(self.regressors))
        object.__setattr__(self, "fe_dims", tuple(self.fe_dims))
        if not 0.0 < self.tau < 1.0:
            raise ValidationError(f"quantile {self.tau} outside (0, 1)")


def check_loss(u: np.ndarray, tau: float) -> float:
    """Exact asymmetric check loss."""
    u = np.asarray(u, dtype=float)
    return float(np.sum(u * (tau - (u < 0))))


def _lp_solve(y: np.ndarray, X: np.ndarray, tau: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact check-loss minimizer: the primal LP of Koenker & Bassett (1978).

    min tau*1'u+ + (1-tau)*1'u-  s.t.  X b + u+ - u- = y,  b free, u+- >= 0.
    Returns b and the equality duals, which lie in [tau - 1, tau].
    """
    n, p = X.shape
    eye = sparse.identity(n, format="csc")
    A = sparse.hstack([sparse.csc_matrix(X), eye, -eye], format="csc")
    c = np.concatenate([np.zeros(p), np.full(n, tau), np.full(n, 1.0 - tau)])
    bounds = [(None, None)] * p + [(0.0, None)] * (2 * n)
    res = linprog(c, A_eq=A, b_eq=y, bounds=bounds, method="highs")
    if res.status != 0:
        raise ConvergenceError(f"quantile LP not solved: {res.message}")
    return res.x[:p], res.eqlin.marginals


def cqr_fit(ds: panel.PanelDataset, spec: CqrSpec) -> FitResult:
    """Check-loss minimizing fit at spec.tau with FE via indicator columns."""
    if not spec.regressors and not spec.intercept:
        raise ValidationError("need at least one regressor or an intercept")
    cat_dims = [d for d in spec.fe_dims if d not in ("entity", "year")]
    mask = estim.complete_case_mask(ds, [spec.dependent, *spec.regressors, *cat_dims])
    n = int(mask.sum())
    if n == 0:
        raise ValidationError("no complete cases for the quantile regression")

    y = ds.column(spec.dependent)[mask]
    X, names, mapping = estim.design_matrix(ds, mask, spec.regressors, spec.fe_dims, spec.intercept)
    if n <= X.shape[1]:
        raise ValidationError(f"only {n} complete cases for {X.shape[1]} parameters")

    # rank screen before solving so deficiency is reported on the design
    estim.assert_full_rank(X, names)
    # solve on a scale-normalized response so the solver's absolute
    # tolerances are relative to the data and the fit is equivariant to
    # scaling y
    y_scale = float(np.mean(np.abs(y - np.median(y))))
    if not y_scale > 0:
        y_scale = max(float(np.max(np.abs(y))), 1.0) if n else 1.0
    beta, duals = _lp_solve(y / y_scale, X, spec.tau)
    beta = beta * y_scale
    resid = y - X @ beta
    loss = check_loss(resid, spec.tau)

    # a zero-residual observation whose dual sits at a bound can leave the
    # basis at no cost, so the optimum is a flat interval
    scale = float(np.max(np.abs(y))) if n else 1.0
    zero = np.abs(resid) <= 1e-9 * (1.0 + scale)
    at_bound = np.minimum(np.abs(duals - spec.tau), np.abs(duals - spec.tau + 1.0)) <= DUAL_TOL
    flat = bool(np.any(zero & at_bound))

    # entity dummies are nuisance parameters whose labels change under
    # resampling; report only the stable coefficients
    reported = [nm for nm in names if not nm.startswith("entity=")]
    coef_full = dict(zip(names, beta))
    notes = {
        "model": "cqr",
        "tau": spec.tau,
        "check_loss": loss,
        "flat_optimum": flat,
        "fe_dims": spec.fe_dims,
        "fe_dummies": {nm: mapping[nm] for nm in mapping if not nm.startswith("entity=")},
    }

    if spec.vcov is not None and spec.vcov.kind == "cluster_bootstrap":
        spec_plain = CqrSpec(spec.dependent, spec.regressors, spec.tau, spec.intercept, spec.fe_dims, None)

        def refit(dsb: panel.PanelDataset) -> np.ndarray:
            fb = cqr_fit(dsb, spec_plain)
            return np.array([fb.coefficients[name] for name in reported])

        boot = estim.bootstrap_vcov(refit, ds, spec.vcov)
        V, tag = boot.vcov, spec.vcov.tag()
        notes["bootstrap_failures"] = boot.n_failed
    else:
        V, tag = np.zeros((len(reported), len(reported))), "none"

    return FitResult(
        coefficients={nm: coef_full[nm] for nm in reported},
        vcov=V,
        n_obs=n,
        se_method=tag,
        n_dropped=ds.n_rows - n,
        notes=notes,
    )
