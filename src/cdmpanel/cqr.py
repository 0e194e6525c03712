"""Conditional quantile regression as an exact linear program.

The check loss rho_tau(u) = u * (tau - 1{u < 0}) is minimized exactly through
the dual of the Koenker & Bassett (1978) LP, max y'd s.t. X'd = 0 with d in
[tau - 1, tau] (Koenker 2005, sec. 6.2), solved with HiGHS through
scipy.optimize.linprog: its basis is p x p where the primal's is n x n. The
coefficients are the duals of X'd = 0. Entity effects stay integer codes
(estim.newton_design): their rows of X' are built from the codes as a sparse
block, and the rank screen runs on the other columns after projecting the
entity indicators out. The optimum is not unique (a flat interval) when an
observation with zero residual has its d at tau or tau - 1. Standard errors
come from the entity-cluster bootstrap.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from . import estim, panel
from .estim import FitResult, VcovSpec
from .exceptions import ConvergenceError, ValidationError

# d (res.x, the dual LP's own variable) within this distance of tau or
# tau - 1 counts as at its bound (HiGHS's default primal feasibility tolerance)
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


def _lp_solve(y: np.ndarray, Xt: sparse.csr_matrix, tau: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact check-loss minimizer through the dual LP of Koenker & Bassett (1978).

    max y'd  s.t.  X'd = 0,  tau - 1 <= d <= tau, with Xt = X' (p x n).
    Returns b, the duals of X'd = 0, and d, the duals of the primal
    min sum rho_tau(y - X b).
    """
    # presolve costs more time than it saves on this LP
    res = linprog(
        -y, A_eq=Xt, b_eq=np.zeros(Xt.shape[0]), bounds=(tau - 1.0, tau), method="highs",
        options={"presolve": False},
    )
    if res.status != 0:
        raise ConvergenceError(f"quantile LP not solved: {res.message}")
    return -res.eqlin.marginals, res.x


def _lp_matrix(X: np.ndarray, layout: estim.EntityLayout | None) -> sparse.csr_matrix:
    """X' of the full design as CSR, rows in parameter order: the rows of the
    dense X, and the layout's entity indicators but the baseline's."""
    if layout is None:
        return sparse.csr_matrix(X.T)
    stacked = sparse.vstack([sparse.csr_matrix(X.T), layout.indicator[1:]], format="csr")
    return stacked[np.argsort(np.concatenate((layout.dense_pos, layout.entity_pos)))]


def cqr_fit(ds: panel.PanelDataset, spec: CqrSpec) -> FitResult:
    """Check-loss minimizing fit at spec.tau with FE as indicator rows of the LP."""
    if not spec.regressors and not spec.intercept:
        raise ValidationError("need at least one regressor or an intercept")
    cat_dims = [d for d in spec.fe_dims if d not in ("entity", "year")]
    mask = estim.complete_case_mask(ds, [spec.dependent, *spec.regressors, *cat_dims])
    n = int(mask.sum())
    if n == 0:
        raise ValidationError("no complete cases for the quantile regression")

    y = ds.column(spec.dependent)[mask]
    X, names, mapping, layout = estim.newton_design(ds, mask, spec.regressors, spec.fe_dims, spec.intercept)
    if n <= len(names):
        raise ValidationError(f"only {n} complete cases for {len(names)} parameters")

    # rank screen before solving so deficiency is reported on the design
    estim.screen_rank(X, names, layout, spec.intercept)
    # solve on a scale-normalized response so the solver's absolute
    # tolerances are relative to the data and the fit is equivariant to
    # scaling y
    y_scale = float(np.mean(np.abs(y - np.median(y))))
    if not y_scale > 0:
        y_scale = max(float(np.max(np.abs(y))), 1.0) if n else 1.0
    beta, duals = _lp_solve(y / y_scale, _lp_matrix(X, layout), spec.tau)
    beta = beta * y_scale
    resid = y - estim.design_index(X, beta, layout)
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
    fit = FitResult(
        coefficients={nm: coef_full[nm] for nm in reported},
        vcov=np.zeros((len(reported), len(reported))),
        n_obs=n,
        se_method="none",
        n_dropped=ds.n_rows - n,
        notes={
            "model": "cqr",
            "tau": spec.tau,
            "check_loss": loss,
            "flat_optimum": flat,
            "fe_dims": spec.fe_dims,
            "fe_dummies": {nm: mapping[nm] for nm in mapping if not nm.startswith("entity=")},
        },
    )
    plain = replace(spec, vcov=None)
    return estim.apply_vcov(fit, lambda dsb: cqr_fit(dsb, plain), ds, spec.vcov, "cqr_fit")
