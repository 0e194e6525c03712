"""Shared estimation machinery.

Complete-case handling, one integer-coded fixed-effect encoding (fe_codes) and
one design builder (design_matrix) used by every estimator, an array-level OLS
core with FE absorption by demeaning and analytic/HC1 covariances, a
line-searched Newton maximizer for likelihoods that takes entity effects as
integer codes (newton_design) and eliminates their diagonal Hessian block by a
Schur complement (BlockHessian), the entity-cluster bootstrap and
apply_vcov, through which every estimator gets its covariance (refusing a
kind it cannot give), variance inflation factors, and Wald tests. Every
downstream estimator builds on these.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np
import scipy.linalg
import scipy.special

from . import panel
from .exceptions import CollinearityError, ConvergenceError, ValidationError

INTERCEPT = "_cons"

# what a refit may raise on a degenerate resample; anything else is a bug and
# propagates out of bootstrap_vcov and monte_carlo
ESTIMATION_ERRORS = (ValidationError, ConvergenceError, CollinearityError, np.linalg.LinAlgError)


@dataclass(frozen=True)
class VcovSpec:
    """How standard errors are computed: analytic, HC1 robust, or cluster bootstrap."""

    kind: str = "analytic"
    replications: int = 0
    seed: int | None = None

    def __post_init__(self):
        if self.kind not in ("analytic", "hc_robust", "cluster_bootstrap"):
            raise ValidationError(f"unknown vcov kind {self.kind!r}")
        if self.kind == "cluster_bootstrap":
            if self.replications < 1:
                raise ValidationError("cluster_bootstrap needs replications >= 1")
            if self.seed is None:
                raise ValidationError("cluster_bootstrap needs a seed")

    def tag(self) -> str:
        if self.kind == "cluster_bootstrap":
            return f"cluster_bootstrap(B={self.replications}, seed={self.seed})"
        return {"analytic": "analytic", "hc_robust": "robust"}[self.kind]


@dataclass(frozen=True)
class ModelSpec:
    """Declarative regression description consumed by ols_fit."""

    dependent: str
    regressors: tuple[str, ...]
    intercept: bool = True
    fe_dims: tuple[str, ...] = ()
    weights: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "regressors", tuple(self.regressors))
        object.__setattr__(self, "fe_dims", tuple(self.fe_dims))
        if self.dependent in self.regressors:
            raise ValidationError(f"dependent {self.dependent!r} appears among the regressors")
        if not self.regressors and not self.intercept:
            raise ValidationError("need at least one regressor or an intercept")


@dataclass
class FitResult:
    """Coefficients plus covariance and diagnostics for one fitted model."""

    coefficients: dict[str, float]
    vcov: np.ndarray
    n_obs: int
    loglik: float | None = None
    wald_chi2: tuple[float, int, float] | None = None
    fit: dict | None = None
    se_method: str = "analytic"
    n_dropped: int = 0
    notes: dict = field(default_factory=dict)

    def __post_init__(self):
        self.coefficients = {name: float(v) for name, v in self.coefficients.items()}
        k = len(self.coefficients)
        self.vcov = np.asarray(self.vcov, dtype=float)
        if self.vcov.shape != (k, k):
            raise ValidationError(f"vcov shape {self.vcov.shape} does not match {k} coefficients")
        if k and np.max(np.abs(self.vcov - self.vcov.T)) > 1e-10 * (1 + np.max(np.abs(self.vcov))):
            raise ValidationError("vcov is not symmetric")
        self.vcov = (self.vcov + self.vcov.T) / 2.0
        if k and np.min(np.diag(self.vcov)) < -1e-12:
            raise ValidationError("vcov has a negative diagonal entry")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self.coefficients)

    def coef_vector(self) -> np.ndarray:
        return np.array(list(self.coefficients.values()))

    def se(self, name: str) -> float:
        i = self.names.index(name)
        return float(np.sqrt(max(self.vcov[i, i], 0.0)))

    def tstat(self, name: str) -> float:
        s = self.se(name)
        return self.coefficients[name] / s if s > 0 else np.inf

    def pvalue(self, name: str) -> float:
        s = self.se(name)
        if s <= 0:
            return 0.0 if self.coefficients[name] != 0 else 1.0
        z = abs(self.coefficients[name]) / s
        return float(2.0 * scipy.special.ndtr(-z))


class BootstrapResult(NamedTuple):
    vcov: np.ndarray
    n_failed: int
    n_used: int


class MleResult(NamedTuple):
    params: np.ndarray
    vcov: np.ndarray
    loglik: float
    iterations: int
    grad_norm: float


def fe_codes(ds: panel.PanelDataset, dim: str, mask: np.ndarray) -> tuple[np.ndarray, list]:
    """Integer codes 0..L-1 of one FE dim on the masked rows, and the level each
    code stands for: entity labels in dataset order, int years or float
    categories ascending."""
    if dim == "entity":
        present, codes = np.unique(ds.entity_index()[mask], return_inverse=True)
        levels = [ds.entities[i] for i in present]
    elif dim == "year":
        present, codes = np.unique(ds.year_index()[mask], return_inverse=True)
        levels = [int(ds.periods[i]) for i in present]
    else:
        present, codes = np.unique(ds.column(dim)[mask], return_inverse=True)
        levels = [float(v) for v in present]
    return codes, levels


def complete_case_mask(ds: panel.PanelDataset, names) -> np.ndarray:
    mask = np.ones(ds.n_rows, dtype=bool)
    for name in names:
        mask &= np.isfinite(ds.column(name))
    return mask


def design_matrix(ds: panel.PanelDataset, mask: np.ndarray, regressors, fe_dims, intercept: bool):
    """C-contiguous float64 design on the masked rows: the regressor columns,
    then first-level-dropped indicators for each FE dim, then the intercept.

    Returns (X, names, fe_dummies) where fe_dummies[name] = (dim, level) so that
    predictions can place new rows in the right category.
    """
    names = list(regressors)
    blocks = [fe_codes(ds, dim, mask) for dim in fe_dims]
    n = int(mask.sum())
    X = np.zeros((n, len(names) + sum(len(levels[1:]) for _, levels in blocks) + int(intercept)))
    for j, name in enumerate(names):
        X[:, j] = ds.column(name)[mask]
    fe_dummies: dict[str, tuple[str, object]] = {}
    for dim, (codes, levels) in zip(fe_dims, blocks):
        hit = np.flatnonzero(codes)
        X[hit, len(names) + codes[hit] - 1] = 1.0
        for level in levels[1:]:
            names.append(f"{dim}={level}")
            fe_dummies[names[-1]] = (dim, level)
    if intercept:
        X[:, -1] = 1.0
        names.append(INTERCEPT)
    return X, names, fe_dummies


class EntityLayout(NamedTuple):
    """Entity fixed effects of a Newton fit kept as integer codes, not as
    dummy columns: ``codes`` (from fe_codes; code 0 is the dropped baseline)
    place each row in its entity, and the parameter vector is ordered as
    design_matrix orders it, with the E-1 entity effects at ``entity_pos`` and
    the columns of the dense design X at ``dense_pos``."""

    codes: np.ndarray
    n_levels: int
    dense_pos: np.ndarray
    entity_pos: np.ndarray

    @property
    def n_params(self) -> int:
        return len(self.dense_pos) + len(self.entity_pos)

    def entity_sums(self, v: np.ndarray) -> np.ndarray:
        """Per-entity sums of v (a vector or the columns of a matrix), baseline left out."""
        if v.ndim == 1:
            return np.bincount(self.codes, weights=v, minlength=self.n_levels)[1:]
        return np.column_stack([self.entity_sums(col) for col in v.T])


class BlockHessian(NamedTuple):
    """Hessian whose entity block is diagonal: ``A`` over the parameters at
    ``dense_pos``, ``C`` the (E-1) x len(dense_pos) cross block and ``d`` the
    entity diagonal over the parameters at ``entity_pos``."""

    A: np.ndarray
    C: np.ndarray
    d: np.ndarray
    dense_pos: np.ndarray
    entity_pos: np.ndarray


def newton_design(ds: panel.PanelDataset, mask: np.ndarray, regressors, fe_dims, intercept: bool):
    """design_matrix for a Newton fit or the CQR LP, with the entity dummies left out of X.

    Returns (X, names, fe_dummies, layout): names and fe_dummies are exactly
    design_matrix's; layout is an EntityLayout when "entity" is among fe_dims
    and None otherwise, in which case X is design_matrix's X.
    """
    if "entity" not in fe_dims:
        return (*design_matrix(ds, mask, regressors, fe_dims, intercept), None)
    X, dense_names, dense_map = design_matrix(
        ds, mask, regressors, [d for d in fe_dims if d != "entity"], intercept
    )
    codes, levels = fe_codes(ds, "entity", mask)
    before = set(fe_dims[: list(fe_dims).index("entity")])
    at = len(regressors) + sum(dim in before for dim, _ in dense_map.values())
    entity_names = [f"entity={level}" for level in levels[1:]]
    names = dense_names[:at] + entity_names + dense_names[at:]
    dummies = {**dense_map, **{nm: ("entity", level) for nm, level in zip(entity_names, levels[1:])}}
    fe_dummies = {nm: dummies[nm] for nm in names if nm in dummies}
    n_entity = len(entity_names)
    entity_pos = np.arange(at, at + n_entity)
    dense_pos = np.concatenate((np.arange(at), np.arange(at + n_entity, len(names))))
    return X, names, fe_dummies, EntityLayout(codes, len(levels), dense_pos, entity_pos)


def design_index(X: np.ndarray, params: np.ndarray, layout: EntityLayout | None) -> np.ndarray:
    """Linear index of a Newton design: X @ params, plus the entity effects."""
    if layout is None:
        return X @ params
    effects = np.concatenate(([0.0], params[layout.entity_pos]))
    return X @ params[layout.dense_pos] + effects[layout.codes]


def design_gradient(X: np.ndarray, r: np.ndarray, layout: EntityLayout | None) -> np.ndarray:
    """Gradient sum_i r_i z_i over a Newton design's parameters, r_i = dl_i/d index_i."""
    if layout is None:
        return X.T @ r
    g = np.empty(layout.n_params)
    g[layout.dense_pos] = X.T @ r
    g[layout.entity_pos] = layout.entity_sums(r)
    return g


def design_hessian(X: np.ndarray, h: np.ndarray, layout: EntityLayout | None, cross=None, own=None):
    """Hessian sum_i h_i z_i z_i' over a Newton design's parameters, h_i =
    d2l_i/d index_i^2; a dense ndarray without a layout, a BlockHessian with one.

    With ``cross`` (per-row d2l_i/d index_i ds) and ``own`` (d2l/ds2) it spans
    one more parameter s, placed last in the parameter vector.
    """
    Xh = X * h[:, None]
    A = Xh.T @ X
    if cross is not None:
        m = X.shape[1]
        Ae = np.empty((m + 1, m + 1))
        Ae[:m, :m] = A
        Ae[:m, m] = Ae[m, :m] = X.T @ cross
        Ae[m, m] = own
        A = Ae
    if layout is None:
        return A
    C = layout.entity_sums(Xh)
    dense_pos = layout.dense_pos
    if cross is not None:
        C = np.column_stack((C, layout.entity_sums(cross)))
        dense_pos = np.append(dense_pos, layout.n_params)
    return BlockHessian(A, C, layout.entity_sums(h), dense_pos, layout.entity_pos)


def _checked_qr(X: np.ndarray, names, scale: float | None = None):
    """Pivoted QR that raises CollinearityError naming a dependent column.

    A pivot counts as zero at or below max(n, p) * eps * scale; scale
    defaults to the largest pivot.
    """
    n, p = X.shape
    if p == 0:
        raise ValidationError("empty design matrix")
    q, r, piv = scipy.linalg.qr(X, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r))
    if scale is None:
        scale = diag[0] if diag.size else 0.0
    tol = max(n, p) * np.finfo(float).eps * scale
    rank = int(np.sum(diag > tol))
    if rank < p:
        culprit = names[piv[rank]]
        raise CollinearityError(
            f"design matrix is rank deficient: column {culprit!r} is linearly dependent on the others"
        )
    return q, r, piv


def assert_full_rank(X: np.ndarray, names, scale: float | None = None) -> None:
    """Raise CollinearityError naming a dependent column if X is rank deficient
    (pivots judged against scale, by default the largest pivot)."""
    _checked_qr(X, names, scale)


def _solve_ls(X: np.ndarray, y: np.ndarray, names) -> np.ndarray:
    """Least squares with rank check; names a dependent column on deficiency."""
    p = X.shape[1]
    q, r, piv = _checked_qr(X, names)
    beta_p = scipy.linalg.solve_triangular(r[:p, :], q.T[:p] @ y)
    beta = np.empty(p)
    beta[piv] = beta_p
    return beta


class OlsCore(NamedTuple):
    beta: np.ndarray
    resid: np.ndarray
    vcov: np.ndarray
    r2: float
    adj_r2: float
    loglik: float | None
    absorbed_df: int


def ols_core(
    X: np.ndarray,
    y: np.ndarray,
    names,
    w: np.ndarray | None = None,
    fe=(),
    robust: bool = False,
) -> OlsCore:
    """Least squares on arrays: sample checks, rank-checked solve, analytic or
    HC1 covariance, r2 and the Gaussian loglik.

    ``fe`` holds one integer code array per FE dim (see fe_codes), absorbed by
    demeaning y and X; r2 is then the within-R2. r2 is centred only when
    ``names`` holds the intercept. ``w`` are analytic weights.
    """
    n = X.shape[0]
    k = X.shape[1] - (INTERCEPT in names)
    if n == 0:
        raise ValidationError("no complete cases for the requested model")
    if n < k + 1:
        raise ValidationError(f"only {n} complete cases for {k} regressors")
    if w is not None and (np.any(w < 0) or not np.sum(w) > 0):
        raise ValidationError("weights must be non-negative with a positive sum")
    absorbed_df = 0
    if fe:
        absorbed_df = sum(int(codes.max()) for codes in fe) + 1  # + grand mean
        demeaned = panel.alternating_demean(np.column_stack([y, X]), list(fe), weights=w)
        y, X = demeaned[:, 0], np.ascontiguousarray(demeaned[:, 1:])

    if w is not None:
        sw = np.sqrt(w)
        Xw, yw = X * sw[:, None], y * sw
    else:
        Xw, yw = X, y
    beta = _solve_ls(Xw, yw, names)
    resid = y - X @ beta

    ww = w if w is not None else np.ones(n)
    rss = float(np.sum(ww * resid**2))
    ybar = np.average(y, weights=ww) if INTERCEPT in names else 0.0
    tss = float(np.sum(ww * (y - ybar) ** 2))
    r2 = 1.0 - rss / tss if tss > 0 else 1.0
    dof = max(n - X.shape[1] - absorbed_df, 1)
    adj_r2 = 1.0 - (1.0 - r2) * (n - 1) / dof

    XtX_inv = np.linalg.inv(Xw.T @ Xw)
    if robust:
        score = X * (ww * resid)[:, None]
        V = XtX_inv @ (score.T @ score) @ XtX_inv
        V *= n / dof
    else:
        V = rss / dof * XtX_inv

    sigma2_mle = rss / n
    loglik = float(-0.5 * n * (np.log(2.0 * np.pi * sigma2_mle) + 1.0)) if sigma2_mle > 0 else None
    return OlsCore(beta, resid, V, r2, adj_r2, loglik, absorbed_df)


def ols_fit(ds: panel.PanelDataset, spec: ModelSpec, vcov: VcovSpec | None = None) -> FitResult:
    """OLS on complete cases, absorbing fixed effects by demeaning.

    The intercept is reported only when no fixed effects are absorbed. r2 is
    the within-R2 when FE dims are present.
    """
    vcov = vcov or VcovSpec()
    cat_dims = [d for d in spec.fe_dims if d not in ("entity", "year")]
    weights = [spec.weights] if spec.weights else []
    mask = complete_case_mask(ds, [spec.dependent, *spec.regressors, *cat_dims, *weights])
    X, names, _ = design_matrix(ds, mask, spec.regressors, (), spec.intercept and not spec.fe_dims)
    core = ols_core(
        X,
        ds.column(spec.dependent)[mask],
        names,
        w=ds.column(spec.weights)[mask] if spec.weights else None,
        fe=[fe_codes(ds, dim, mask)[0] for dim in spec.fe_dims],
        robust=vcov.kind == "hc_robust",
    )
    fit = FitResult(
        coefficients=dict(zip(names, core.beta)),
        vcov=core.vcov,
        n_obs=X.shape[0],
        loglik=core.loglik,
        fit={"r2": core.r2, "adj_r2": core.adj_r2},
        se_method=vcov.tag(),
        n_dropped=ds.n_rows - X.shape[0],
        notes={"absorbed_df": core.absorbed_df, "fe_dims": tuple(spec.fe_dims)},
    )
    return apply_vcov(fit, lambda dsb: ols_fit(dsb, spec), ds, vcov, "ols_fit")


def mle_fit(
    objective: Callable[[np.ndarray], tuple[float, np.ndarray, np.ndarray]],
    start,
    tol: float = 1e-8,
    max_iter: int = 200,
    max_halvings: int = 50,
) -> MleResult:
    """Maximize a likelihood by Newton steps with step-halving line search.

    ``objective(theta)`` returns (loglik, gradient, Hessian); the Hessian is a
    dense ndarray or, for designs with entity effects, a BlockHessian whose
    entity block is eliminated by a Schur complement. Converged when the
    gradient max-norm drops below ``tol``; the covariance is the inverse of the
    negative Hessian at the optimum.
    """
    theta = np.array(start, dtype=float)
    f, g, H = objective(theta)
    if not np.isfinite(f):
        raise ValidationError("objective is not finite at the starting point")

    iterations = 0
    for _ in range(max_iter):
        gnorm = float(np.max(np.abs(g))) if g.size else 0.0
        if gnorm < tol:
            return MleResult(theta, _hessian_vcov(H), f, iterations, gnorm)
        step = _newton_direction(g, H)
        scale = 1.0
        accepted = False
        for _h in range(max_halvings + 1):
            cand = theta + scale * step
            fc, gc, Hc = objective(cand)
            if np.isfinite(fc) and fc >= f - 1e-12 * (1.0 + abs(f)):
                theta, f, g, H = cand, fc, gc, Hc
                accepted = True
                break
            scale *= 0.5
        if not accepted:
            raise ConvergenceError(
                "line search failed: objective stayed non-finite or decreasing "
                f"after {max_halvings} halvings (gradient max-norm {float(np.max(np.abs(g))):.3e})"
            )
        iterations += 1
    gnorm = float(np.max(np.abs(g)))
    raise ConvergenceError(
        f"no convergence in {max_iter} iterations; final gradient max-norm {gnorm:.3e}"
    )


def _newton_direction(g: np.ndarray, H) -> np.ndarray:
    try:
        if isinstance(H, BlockHessian):
            # eliminate the diagonal entity block: solve the Schur complement
            # S = A - C' diag(1/d) C for the dense step, back-substitute the rest
            ge = g[H.entity_pos]
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                Cd = H.C / H.d[:, None]
                sd = np.linalg.solve(Cd.T @ H.C - H.A, g[H.dense_pos] - Cd.T @ ge)
                step = np.empty_like(g)
                step[H.dense_pos] = sd
                step[H.entity_pos] = -(ge + H.C @ sd) / H.d
        else:
            step = np.linalg.solve(-H, g)
        if np.all(np.isfinite(step)) and float(step @ g) > 0:
            return step
    except np.linalg.LinAlgError:
        pass
    # fall back to (scaled) steepest ascent when the Hessian is unusable
    diag = np.concatenate((np.diag(H.A), H.d)) if isinstance(H, BlockHessian) else np.diag(H)
    denom = float(np.max(np.abs(diag))) if diag.size else 1.0
    return g / max(denom, 1.0)


def _block_inverse(H: BlockHessian) -> np.ndarray:
    """(-H)^-1 assembled from the blocks: with S = A - C' diag(1/d) C,
    V_dd = (-S)^-1, V_ed = -diag(1/d) C V_dd, V_ee = diag(-1/d) + (C/d) V_dd (C/d)'."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        Cd = H.C / H.d[:, None]
        Vdd = np.linalg.inv(Cd.T @ H.C - H.A)
        Ved = -Cd @ Vdd
        Vee = -Ved @ Cd.T
        Vee[np.diag_indices_from(Vee)] -= 1.0 / H.d
    V = np.empty((len(H.dense_pos) + len(H.entity_pos),) * 2)
    V[np.ix_(H.dense_pos, H.dense_pos)] = Vdd
    V[np.ix_(H.entity_pos, H.dense_pos)] = Ved
    V[np.ix_(H.dense_pos, H.entity_pos)] = Ved.T
    V[np.ix_(H.entity_pos, H.entity_pos)] = Vee
    return V


def _hessian_vcov(H) -> np.ndarray:
    try:
        V = _block_inverse(H) if isinstance(H, BlockHessian) else np.linalg.inv(-H)
    except np.linalg.LinAlgError:
        raise ConvergenceError(
            "Hessian is singular at the optimum (possible perfect separation "
            "or non-identified parameters)"
        ) from None
    if not np.all(np.isfinite(V)) or (V.size and np.min(np.diag(V)) <= 0):
        raise ConvergenceError(
            "Hessian is singular or indefinite at the optimum (possible perfect "
            "separation or non-identified parameters)"
        )
    return (V + V.T) / 2.0


def bootstrap_vcov(
    refit: Callable[[panel.PanelDataset], np.ndarray],
    ds: panel.PanelDataset,
    vcov: VcovSpec,
) -> BootstrapResult:
    """Cluster bootstrap covariance of the coefficients returned by ``refit``.

    Entities are resampled with replacement; replication r draws from an RNG
    stream keyed by (seed, r), so results do not depend on execution order. Replications whose refit raises one of ESTIMATION_ERRORS
    are dropped and counted; more than 10% failures is an error. Any other
    exception propagates.
    """
    if vcov.kind != "cluster_bootstrap":
        raise ValidationError("bootstrap_vcov requires a cluster_bootstrap VcovSpec")
    B = vcov.replications
    n_entities = len(ds.entities)
    if not n_entities:
        raise ValidationError("no clusters to resample")

    draws = []
    n_failed = 0
    for r in range(B):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=vcov.seed, spawn_key=(r,)))
        picks = rng.integers(0, n_entities, size=n_entities)
        try:
            dsb = panel.take_entities(ds, picks)
            draws.append(np.asarray(refit(dsb), dtype=float))
        except ESTIMATION_ERRORS:
            n_failed += 1
    if not draws:
        raise ConvergenceError(f"all {B} bootstrap replications failed")
    if n_failed > 0.10 * B:
        raise ConvergenceError(f"{n_failed} of {B} bootstrap replications failed (> 10%)")
    mat = np.vstack(draws)
    if mat.shape[0] < 2:
        V = np.zeros((mat.shape[1], mat.shape[1]))
    else:
        V = np.atleast_2d(np.cov(mat, rowvar=False, ddof=1))
    return BootstrapResult((V + V.T) / 2.0, n_failed, mat.shape[0])


def apply_vcov(
    fit: FitResult,
    refit: Callable[[panel.PanelDataset], FitResult],
    ds: panel.PanelDataset,
    vcov: VcovSpec | None,
    estimator: str,
) -> FitResult:
    """Give a point fit the covariance ``vcov`` asks for; every estimator's
    covariance is settled here.

    ``fit`` carries the estimator's own covariance, which an analytic spec
    (or None) keeps. An hc_robust spec is refused unless ``fit`` already
    carries it (se_method "robust"). A cluster_bootstrap spec replaces it, in
    place, by bootstrap_vcov over ``refit``, the estimator's point fit on one
    resample, and sets the spec's tag and ``notes["bootstrap_failures"]``.
    """
    kind = vcov.kind if vcov is not None else "analytic"
    if kind == "hc_robust" and fit.se_method != "robust":
        raise ValidationError(f"{estimator} cannot give an {kind!r} covariance")
    if kind != "cluster_bootstrap":
        return fit
    names = fit.names

    def draw(dsb: panel.PanelDataset) -> np.ndarray:
        coefficients = refit(dsb).coefficients
        return np.array([coefficients[name] for name in names])

    boot = bootstrap_vcov(draw, ds, vcov)
    fit.vcov = boot.vcov
    fit.se_method = vcov.tag()
    fit.notes["bootstrap_failures"] = boot.n_failed
    return fit


def linear_index(
    fit: FitResult,
    ds: panel.PanelDataset,
    exclude: tuple[str, ...] = (),
) -> np.ndarray:
    """Apply a fit's coefficients to dataset rows, returning the linear predictor.

    Indicator-column coefficients are placed through the (dim, level) mapping
    recorded in ``fit.notes['fe_dummies']``; unseen categories count as the
    dropped baseline. Rows missing any required input come back NaN.
    """
    dummies: dict[str, tuple[str, object]] = fit.notes.get("fe_dummies", {})
    out = np.zeros(ds.n_rows)
    missing = np.zeros(ds.n_rows, dtype=bool)
    years = ds.row_years()
    ent_idx = ds.entity_index()
    ent_pos = {label: i for i, label in enumerate(ds.entities)}
    for name, coef in fit.coefficients.items():
        if name in exclude:
            continue
        if name == INTERCEPT:
            out += coef
        elif name in dummies:
            dim, level = dummies[name]
            if dim == "year":
                match = years == level
            elif dim == "entity":
                match = ent_idx == ent_pos.get(level, -1)
            else:
                vals = ds.column(dim)
                missing |= ~np.isfinite(vals)
                match = vals == level
            out += coef * match.astype(float)
        else:
            vals = ds.column(name)
            missing |= ~np.isfinite(vals)
            out = out + coef * np.where(np.isfinite(vals), vals, 0.0)
    out[missing] = np.nan
    return out


def vif(ds: panel.PanelDataset, regressors) -> dict[str, float]:
    """Variance inflation factors 1/(1-R2_j) from auxiliary regressions."""
    regressors = list(regressors)
    if len(regressors) < 2:
        raise ValidationError("vif needs at least two regressors")
    mask = complete_case_mask(ds, regressors)
    n = int(mask.sum())
    if n < len(regressors) + 1:
        raise ValidationError("not enough complete cases for vif")
    X = np.column_stack([ds.column(name)[mask] for name in regressors])
    return vif_matrix(X, regressors)


def vif_matrix(X: np.ndarray, names) -> dict[str, float]:
    n = X.shape[0]
    out: dict[str, float] = {}
    ones = np.ones((n, 1))
    for j, name in enumerate(names):
        yj = X[:, j]
        others = np.hstack([np.delete(X, j, axis=1), ones])
        coef, *_ = np.linalg.lstsq(others, yj, rcond=None)
        resid = yj - others @ coef
        tss = float(np.sum((yj - yj.mean()) ** 2))
        if tss <= 0:
            raise CollinearityError(f"regressor {name!r} is constant")
        r2 = 1.0 - float(np.sum(resid**2)) / tss
        if r2 >= 1.0 - 1e-12:
            raise CollinearityError(f"regressor {name!r} is perfectly collinear with the others")
        out[name] = 1.0 / (1.0 - r2)
    return out


def wald_chi2(fit: FitResult, restricted) -> tuple[float, int, float]:
    """Wald test that the named coefficients are jointly zero."""
    restricted = list(restricted)
    if not restricted:
        raise ValidationError("empty restriction set")
    names = fit.names
    for name in restricted:
        if name not in names:
            raise ValidationError(f"coefficient {name!r} not in the fit")
    idx = [names.index(name) for name in restricted]
    beta = fit.coef_vector()[idx]
    V = fit.vcov[np.ix_(idx, idx)]
    try:
        sol = np.linalg.solve(V, beta)
    except np.linalg.LinAlgError:
        raise ValidationError("restricted vcov block is singular") from None
    if not np.all(np.isfinite(sol)):
        raise ValidationError("restricted vcov block is singular")
    stat = float(beta @ sol)
    df = len(restricted)
    p = float(scipy.special.chdtrc(df, stat))
    return stat, df, p
