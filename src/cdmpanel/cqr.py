"""Conditional quantile regression as an exact linear program.

The check loss rho_tau(u) = u * (tau - 1{u < 0}) is minimized exactly through
the dual of the Koenker & Bassett (1978) LP, max y'd s.t. X'd = 0 with d in
[tau - 1, tau] (Koenker 2005, sec. 6.2). It is solved in two steps, both on
the design as newton_design builds it (the dense columns and the entity codes,
no dummy block; a design without entity effects gets an empty entity block),
through the Newton fits' primitives: the constraint products are
estim.design_gradient and estim.design_index, and the normal matrix X'QX is
estim.design_hessian's BlockHessian for the weights -q.

- a Frisch-Newton interior point (Portnoy & Koenker 1997; quantreg's lp_fnm):
  Mehrotra predictor-corrector steps on the bounded dual, each of which
  Cholesky factors the Schur complement of the normal matrix's diagonal
  entity block (BlockHessian.schur) over the non-entity parameters;
- an exact vertex: p rows of small residual (one anchor per non-baseline
  entity, then m rows whose differences to their anchor are independent) give
  the coefficients by one m x m solve and the duals d by its transpose. The
  vertex is optimal when its basic d lie in [tau - 1, tau]. If they do not,
  the LP is handed whole to HiGHS (Huangfu & Hall 2018) through
  scipy.optimize.linprog, with the entity indicators as a sparse block: the
  coefficients are minus its equality marginals, and d, which then sits at
  HiGHS's vertex, is its solution.

The optimum is not unique (a flat interval) when an observation with zero
residual has its d (the vertex's, or HiGHS's after the fallback) at tau or
tau - 1. Rank is screened on the other columns after projecting the entity
indicators out. Standard errors come from the entity-cluster bootstrap.
Entity effects are incidental (Koenker 2004): neither they nor the level
``_cons``, one of them, are reported.

Bootstrap replicates often sit on such flat optima, in the year-effect
directions: the point fit notes ``flat_optimum`` and counts its flat
replicates in ``flat_replicates``. In one round of the acceptance
configuration (120 x 6 panel, 15 replicates per model) the count is 5 for the
classical model and 3 for the extended one, and neither point fit is flat;
with the interior point stopped at a gap of 1e-4 in place of IPM_GAP, 2 of
the flat replicates end on another certified vertex with the same check loss
(within 2e-16 relative) and slopes (within 3e-15), but one year effect 1.3%
or 0.6% apart. So the year effects' bootstrap SEs depend on the solver's
path; the slopes' do not.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np
from scipy.linalg import lapack

from . import estim, panel
from .estim import FitResult, VcovSpec, design_gradient, design_hessian, design_index
from .exceptions import ConvergenceError, ValidationError

# a basic d within this distance of [tau - 1, tau] certifies the vertex (else
# HiGHS solves the LP), and a d within it of tau or tau - 1 counts as at its
# bound
DUAL_TOL = 1e-7
# interior point: fraction of the way to the boundary a step may go, the
# duality gap, relative to 1 + |objective|, at which the vertex step takes
# over, and an iteration cap (the vertex step, or HiGHS when its vertex is not
# certified, finishes the solve from wherever the interior point stops)
IPM_STEP = 0.99995
IPM_GAP = 1e-8
IPM_MAX_ITER = 60


@dataclass(frozen=True)
class CqrSpec:
    dependent: str
    regressors: tuple[str, ...] = ()
    tau: float = 0.5
    intercept: bool = True
    fe_dims: tuple[str, ...] = ()
    vcov: VcovSpec = field(default_factory=VcovSpec)

    def __post_init__(self):
        object.__setattr__(self, "regressors", tuple(self.regressors))
        object.__setattr__(self, "fe_dims", tuple(self.fe_dims))
        if not 0.0 < self.tau < 1.0:
            raise ValidationError(f"quantile {self.tau} outside (0, 1)")


def check_loss(u: np.ndarray, tau: float) -> float:
    """Exact asymmetric check loss."""
    u = np.asarray(u, dtype=float)
    return float(np.sum(u * (tau - (u < 0))))


def _normal(X: np.ndarray, layout: estim.EntityLayout, q: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """Solver of the normal equations Z'QZ v = g of the full design Z (X and
    the entity codes) for positive row weights q. -Z'QZ is design_hessian's
    BlockHessian for h = -q; its Schur complement is Cholesky factored (LAPACK
    dpotrf) once for any number of solves."""
    H = design_hessian(X, -q, layout)
    Cd, S = H.schur()
    chol, info = lapack.dpotrf(S)
    if info != 0:
        raise np.linalg.LinAlgError("normal matrix of the quantile LP is not positive definite")
    return lambda g: H.solve(g, Cd, lambda r: lapack.dpotrs(chol, r)[0])


def _step_lengths(x, s, z, w, dx, dz, dw) -> tuple[float, float]:
    """Primal and dual step lengths: IPM_STEP of the way to the boundary of
    x, s = 1 - x >= 0 and of z, w >= 0, at most 1."""
    fp = (np.where(dx < 0, x, s) / np.abs(dx)).min()
    fd = min(np.where(dz < 0, -z / dz, np.inf).min(), np.where(dw < 0, -w / dw, np.inf).min())
    return min(IPM_STEP * float(fp), 1.0), min(IPM_STEP * float(fd), 1.0)


def _interior_point(
    X: np.ndarray, layout: estim.EntityLayout, y: np.ndarray, tau: float
) -> tuple[np.ndarray, np.ndarray, int]:
    """Frisch-Newton interior point for min c'x s.t. Ax = (1 - tau) A1,
    0 <= x <= 1 with c = -y and A = Z', so that d = x - (1 - tau) (Koenker &
    Ng 2005).

    Returns the dual multipliers lam (the coefficients are -lam), d and the
    iteration count. Stops at the gap tolerance, or early when the normal
    matrix can no longer be factored or a step is not finite: the vertex step
    that follows needs only a good guess of the basis.
    """
    n = len(y)
    c = -y
    x = np.full(n, 1.0 - tau)
    s = 1.0 - x
    b = design_gradient(X, x, layout)
    lam = _normal(X, layout, np.ones(n))(design_gradient(X, c, layout))  # least squares start
    # dual slacks with z - w = c - A'lam, both kept off zero so that rows
    # the least-squares fit leaves at a (round-off) zero residual do not
    # start with an unbounded weight
    r = c - design_index(X, lam, layout)
    z = np.maximum(r, 0.0) + 1e-3
    w = z - r
    it = 0
    while it < IPM_MAX_ITER:
        obj = c @ x
        if obj - lam @ b + w.sum() <= IPM_GAP * (1.0 + abs(obj)):
            break
        try:
            # affine (predictor) step
            q = 1.0 / (z / x + w / s)
            r = z - w
            normal = _normal(X, layout, q)
            dlam = normal(design_gradient(X, q * r, layout))
            dx = q * (design_index(X, dlam, layout) - r)
            dz = -z * (dx / x + 1.0)
            dw = -w * (1.0 - dx / s)
            fp, fd = _step_lengths(x, s, z, w, dx, dz, dw)
            if min(fp, fd) < 1.0:
                # Mehrotra corrector with the centring parameter from the
                # affine step's complementarity
                mu = z @ x + w @ s
                g = (z + fd * dz) @ (x + fp * dx) + (w + fd * dw) @ (s - fp * dx)
                mu = mu * (g / mu) ** 3 / (2 * n)
                dxdz = dx * dz
                dsdw = -dx * dw
                xinv = 1.0 / x
                sinv = 1.0 / s
                xi = mu * (xinv - sinv)
                dlam = normal(design_gradient(X, q * (r + dxdz - dsdw - xi), layout))
                dx = q * (design_index(X, dlam, layout) + xi - r - dxdz + dsdw)
                dz = mu * xinv - z - xinv * z * dx - dxdz
                dw = mu * sinv - w + sinv * w * dx - dsdw
                fp, fd = _step_lengths(x, s, z, w, dx, dz, dw)
        except np.linalg.LinAlgError:
            break
        if not (np.isfinite(fp) and np.isfinite(fd) and np.all(np.isfinite(dlam)) and np.all(np.isfinite(dx))):
            break
        x = x + fp * dx
        s = s - fp * dx
        lam = lam + fd * dlam
        z = z + fd * dz
        w = w + fd * dw
        it += 1
    return lam, x - (1.0 - tau), it


def _differenced(layout: estim.EntityLayout, v: np.ndarray, anchors: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """v at ``rows`` minus v at their entity's anchor (baseline rows as they are)."""
    anchor = np.concatenate(([-1], anchors))[layout.codes[rows]]
    out = v[rows]
    out[anchor >= 0] -= v[anchor[anchor >= 0]]
    return out


def _excess(d: np.ndarray, tau: float) -> float:
    """How far d reaches outside [tau - 1, tau] at most (0 inside)."""
    return float(max(np.max(d - tau), np.max(tau - 1.0 - d), 0.0))


def _basic_duals(X: np.ndarray, layout: estim.EntityLayout, lu, anchors, rows, d: np.ndarray) -> np.ndarray:
    """d with its basic entries solved from A d = 0 given the others:
    M'd_rows = -t_X + X[anchors]'t_E for t = A d over the rows off the basis,
    then each anchor's d closes its entity's sum."""
    d = d.copy()
    d[anchors] = 0.0
    d[rows] = 0.0
    t = design_gradient(X, d, layout)
    m = X.shape[1]
    d[rows] = lapack.dgetrs(*lu, X[anchors].T @ t[m:] - t[:m], trans=1)[0]
    d[anchors] = -layout.entity_sums(d)
    return d


def _vertex(
    X: np.ndarray, layout: estim.EntityLayout, y, tau, anchors, rows, d_ipm
) -> tuple[np.ndarray, np.ndarray]:
    """Solve the basis (anchors, rows) (one basic row per non-baseline entity,
    by code, and the m other basic rows, each differenced to its entity's
    anchor unless in the baseline entity) for the parameters b exactly, then
    for the duals d of every row; returns b and d.

    Off the basis, d is at the bound the sign of its residual gives; a row
    with zero residual off the basis takes the interior point's d, clipped,
    and the basic d solve A d = 0. Such rows (ties, repeated entities) carry
    the interior point's error, and the basic d take all of it up; if that
    puts one outside its bounds, the error is spread over every zero-residual
    row instead (the projection onto A d = 0 weighted by each row's
    (d - tau + 1)(tau - d), then clipped), and the basic d are solved again.
    """
    M = _differenced(layout, X, anchors, rows)
    lu = lapack.dgetrf(M)[:2]
    if not np.all(np.isfinite(lu[0])) or np.min(np.abs(np.diag(lu[0]))) <= 1e-12 * np.max(np.abs(M)):
        raise ConvergenceError("quantile LP basis is singular")
    beta = lapack.dgetrs(*lu, _differenced(layout, y, anchors, rows))[0]
    b = np.concatenate((beta, y[anchors] - X[anchors] @ beta))
    r = y - design_index(X, b, layout)
    basic = np.concatenate((anchors, rows))
    r[basic] = 0.0
    zero = np.abs(r) <= 1e-9 * (1.0 + np.max(np.abs(y)))
    r[zero] = 0.0
    d = np.where(r > 0, tau, tau - 1.0)
    d[zero] = np.clip(d_ipm[zero], tau - 1.0, tau)
    spreads = 3 if np.count_nonzero(zero) > len(basic) else 0
    d = _basic_duals(X, layout, lu, anchors, rows, d)
    while spreads and _excess(d[basic], tau) > 0.0:
        spreads -= 1
        p = np.clip(d, tau - 1.0, tau)
        weight = np.where(zero, np.maximum((p - tau + 1.0) * (tau - p), 1e-12), 0.0)
        try:
            p -= weight * design_index(X, _normal(X, layout, weight)(design_gradient(X, p, layout)), layout)
        except np.linalg.LinAlgError:
            break
        p = _basic_duals(X, layout, lu, anchors, rows, np.clip(p, tau - 1.0, tau))
        if not _excess(p[basic], tau) < _excess(d[basic], tau):
            break
        d = p
    return b, d


def _initial_basis(X: np.ndarray, layout: estim.EntityLayout, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Anchors by smallest |r| per entity, then m rows by smallest |r| whose
    differenced rows are independent, chosen greedily by Gram-Schmidt (over
    the first 4m + 16 candidates, and over all of them if those fall short).
    A row equal to its anchor (the copy of an entity drawn twice) can never
    be chosen, so it is left out of the candidates, which it would crowd."""
    absr = np.abs(r)
    order = np.lexsort((absr, layout.codes))
    # the first row of each non-baseline entity in that order
    anchors = order[1:][np.diff(layout.codes[order]) != 0]
    rest = np.ones(len(r), dtype=bool)
    rest[anchors] = False
    cand = np.flatnonzero(rest)
    cand = cand[np.argsort(absr[cand], kind="stable")]
    differenced = _differenced(layout, X, anchors, cand)
    cand = cand[np.any(differenced != 0.0, axis=1)]
    m = X.shape[1]
    for size in (4 * m + 16, len(cand)):
        V = _differenced(layout, X, anchors, cand[:size])
        floor = 1e-16 * np.einsum("ij,ij->i", V, V)
        chosen = []
        while len(chosen) < m:
            ok = np.flatnonzero(np.einsum("ij,ij->i", V, V) > floor)
            if not ok.size:
                break
            chosen.append(ok[0])
            u = V[ok[0]] / np.linalg.norm(V[ok[0]])
            V -= np.outer(V @ u, u)
        if len(chosen) == m:
            return anchors, cand[chosen]
    raise ConvergenceError("quantile LP: no independent basis among the rows")


def _highs(X: np.ndarray, layout: estim.EntityLayout, y: np.ndarray, tau: float) -> tuple[np.ndarray, np.ndarray]:
    """The LP max y'd s.t. Z'd = 0, d in [tau - 1, tau] by HiGHS, Z being X
    and the entity indicators as a sparse block; returns the parameters (minus
    the equality marginals) and d."""
    # imported here: scipy.optimize adds a tenth of a second to the package import
    from scipy import optimize, sparse

    ent = np.flatnonzero(layout.codes)
    E = sparse.csr_matrix((np.ones(len(ent)), (layout.codes[ent] - 1, ent)), shape=(layout.n_entity, len(y)))
    A = sparse.vstack((sparse.csr_matrix(X.T), E), format="csr")
    res = optimize.linprog(-y, A_eq=A, b_eq=np.zeros(A.shape[0]), bounds=(tau - 1.0, tau), method="highs")
    if res.status != 0:
        raise ConvergenceError(f"quantile LP: HiGHS stopped without an optimum: {res.message}")
    return -res.eqlin.marginals, res.x


class _LpSolution(NamedTuple):
    b: np.ndarray  # parameters: X's columns, then the entity effects
    d: np.ndarray  # duals of the rows, in [tau - 1, tau]
    iterations: int
    fallback: bool  # the vertex was not certified, and HiGHS solved the LP


# the solve divides by weights and slacks that reach zero at the optimum;
# the interior point stops at a step that is not finite, and the vertex
# step keeps a spread of the duals only where it improves them
_QUIET = np.errstate(divide="ignore", invalid="ignore", over="ignore")


@_QUIET
def _quantile_lp(y: np.ndarray, X: np.ndarray, layout: estim.EntityLayout, tau: float) -> _LpSolution:
    """Exact check-loss minimizer on a newton_design design: the interior
    point, then the vertex its residuals point to, which its duals certify;
    if they do not, HiGHS solves the LP.

    The columns of X are solved at unit largest magnitude, so that the
    independence test of the basis rows and the factorisations do not depend
    on the units of the regressors.
    """
    scale = np.max(np.abs(X), axis=0)
    scale[scale == 0.0] = 1.0
    X = X / scale
    lam, d_ipm, iterations = _interior_point(X, layout, y, tau)
    anchors, rows = _initial_basis(X, layout, y + design_index(X, lam, layout))
    b, d = _vertex(X, layout, y, tau, anchors, rows, d_ipm)
    fallback = _excess(d[np.concatenate((anchors, rows))], tau) > DUAL_TOL
    if fallback:
        b, d = _highs(X, layout, y, tau)
    b[: X.shape[1]] /= scale
    return _LpSolution(b, d, iterations, fallback)


def _flat(y: np.ndarray, resid: np.ndarray, duals: np.ndarray, tau: float) -> bool:
    """Whether the optimum is a flat interval: a zero-residual observation
    whose dual sits at a bound can leave the basis at no cost."""
    zero = np.abs(resid) <= 1e-9 * (1.0 + float(np.max(np.abs(y))))
    at_bound = np.minimum(np.abs(duals - tau), np.abs(duals - tau + 1.0)) <= DUAL_TOL
    return bool(np.any(zero & at_bound))


def cqr_fit(ds: panel.PanelDataset, spec: CqrSpec) -> FitResult:
    """Check-loss minimizing fit at spec.tau with entity effects as codes.
    As in estim.ols_fit, neither they nor ``_cons`` are reported beside them,
    and a model with nothing else is refused, as is one with them but
    without the intercept: the first entity's level would be held at 0.

    A bootstrap replicate (estim.apply_vcov) solves the LP on the drawn
    entities' complete rows of ``ds`` (estim.draw_rows), its response scale
    taken per draw. The check loss is the point fit's alone.
    ``notes["flat_optimum"]`` says whether the point fit's optimum is flat,
    and ``notes["flat_replicates"]`` counts the replicates whose solve
    returned a flat optimum. ``notes["lp_iterations"]`` counts the point
    fit's interior-point iterations, and ``notes["lp_fallback"]`` says
    whether its vertex was left uncertified, so that HiGHS solved its LP."""
    if not spec.regressors and not spec.intercept:
        raise ValidationError("need at least one regressor or an intercept")
    entity = "entity" in spec.fe_dims
    if entity and not spec.intercept:
        raise ValidationError(
            "entity effects need the intercept: without it the first entity's level is held "
            "at 0, so the fit depends on which entity comes first (in a bootstrap replicate, "
            "the first of those drawn)"
        )
    cat_dims = [d for d in spec.fe_dims if d not in ("entity", "year")]
    mask = estim.complete_case_mask(ds, [spec.dependent, *spec.regressors, *cat_dims])

    def solve(rows: np.ndarray):
        """The LP on row indices of its complete cases: (names, number of
        coefficients reported, the parameters, the _LpSolution, the
        residuals, whether the optimum is flat, fe_dummies)."""
        n = len(rows)
        if n == 0:
            raise ValidationError("no complete cases for the quantile regression")
        y = ds.column(spec.dependent)[rows]
        X, names, mapping, layout = estim.newton_design(ds, rows, spec.regressors, spec.fe_dims, spec.intercept)
        reported = len(names) - int(entity)  # _cons, last, is an entity level
        if entity and not reported:
            raise ValidationError("no identifiable regressors beside the entity effects")
        k = layout.n_dense + layout.n_entity
        if n <= k:
            raise ValidationError(f"only {n} complete cases for {k} parameters")

        # rank screen before solving so deficiency is reported on the design
        estim.screen_rank(X, names, layout, spec.intercept)
        # solve on a scale-normalized response so the solver's absolute
        # tolerances are relative to the data and the fit is equivariant to
        # scaling y
        y_scale = float(np.mean(np.abs(y - np.median(y))))
        if not y_scale > 0:
            y_scale = max(float(np.max(np.abs(y))), 1.0)
        sol = _quantile_lp(y / y_scale, X, layout, spec.tau)
        beta = sol.b * y_scale
        resid = y - design_index(X, beta, layout)
        return names, reported, beta, sol, resid, _flat(y, resid, sol.d, spec.tau), mapping

    names, reported, beta, sol, resid, flat, mapping = solve(np.flatnonzero(mask))
    n = len(resid)
    loss = check_loss(resid, spec.tau)

    # entity effects (and _cons, the baseline's level) change under
    # resampling; report only the stable coefficients
    fit = FitResult(
        coefficients=dict(zip(names[:reported], beta[:reported])),
        vcov=np.zeros((reported, reported)),
        n_obs=n,
        se_method="none",
        n_dropped=ds.n_rows - n,
        notes={
            "tau": spec.tau,
            "check_loss": loss,
            "flat_optimum": flat,
            "flat_replicates": 0,
            "fe_dims": spec.fe_dims,
            "fe_dummies": mapping,
            "lp_iterations": sol.iterations,
            "lp_fallback": sol.fallback,
        },
    )

    def refit(picks: np.ndarray) -> dict[str, float]:
        names, reported, beta, _, _, flat, _ = solve(estim.draw_rows(ds, picks, mask))
        fit.notes["flat_replicates"] += flat
        return dict(zip(names[:reported], beta[:reported]))

    return estim.apply_vcov(fit, refit, ds, spec.vcov)
