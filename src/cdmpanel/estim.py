"""Shared estimation machinery.

Complete-case handling, one integer-coded fixed-effect encoding (fe_codes),
the dense design builder of the linear fits (design_matrix) and its variant
that keeps entity effects as integer codes (newton_design with an
EntityLayout, used by every likelihood fit and the CQR LP), and one way to
absorb fixed effects: the diagonal entity block of a Hessian or normal matrix
is eliminated by a Schur complement (BlockHessian). On top of these sit an
array-level OLS core whose FE are absorbed exactly by that elimination
(fe_residuals, the weighted least-squares residuals on the FE; one projection
and one factorisation for several dependent columns) with analytic/HC1
covariances, the one least-squares solver of the linear fits (ols_fit,
Heckman step 2, the RIF regressions and the Mundlak test's three fits), a
line-searched Newton maximizer for likelihoods on newton_design designs, one
rank screen for those designs (screen_rank), the entity-cluster
bootstrap and apply_vcov, through which every estimator gets its covariance
(refusing a kind it cannot give), variance inflation factors, and Wald tests.
Every downstream estimator builds on these.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np
import scipy.linalg
import scipy.sparse
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
            if self.replications < 2:
                raise ValidationError("cluster_bootstrap needs replications >= 2")
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
    draws: np.ndarray  # one row per replicate used


class MleResult(NamedTuple):
    """One mle_fit optimum. ``vcov`` is the inverse of the negative Hessian
    there over the parameters at the BlockHessian's ``dense_pos``, in that
    order (the entity effects get no covariance)."""

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
        if len(present) == len(ds.entities):
            levels = list(ds.entities)
        else:
            levels = np.array(ds.entities, dtype=object)[present].tolist()
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
        _set_indicators(X, codes, len(names))
        for level in levels[1:]:
            names.append(f"{dim}={level}")
            fe_dummies[names[-1]] = (dim, level)
    if intercept:
        X[:, -1] = 1.0
        names.append(INTERCEPT)
    return X, names, fe_dummies


def _set_indicators(X: np.ndarray, codes: np.ndarray, at: int) -> None:
    """Set the first-level-dropped indicators of ``codes`` into the columns of X from ``at`` on."""
    hit = np.flatnonzero(codes)
    X[hit, at + codes[hit] - 1] = 1.0


class EntityLayout(NamedTuple):
    """Entity fixed effects of a Newton fit or the CQR LP kept as integer
    codes, not as dummy columns: ``codes`` (from fe_codes; code 0 is the
    dropped baseline) place each row in its entity, and the parameter vector
    is ordered as design_matrix orders it, with the E-1 entity effects at
    ``entity_pos`` and the columns of the dense design X at ``dense_pos``.
    ``indicator`` is the E x n 0/1 matrix of the codes (CSC, one entry per
    row), so per-entity sums of several columns are one sparse product, added
    in row order as np.bincount adds them. Rows need not be grouped by
    entity."""

    codes: np.ndarray
    dense_pos: np.ndarray
    entity_pos: np.ndarray
    indicator: scipy.sparse.csc_matrix

    @classmethod
    def from_codes(cls, codes: np.ndarray, n_levels: int, n_dense: int, at: int) -> "EntityLayout":
        """Layout of entity codes 0..n_levels-1 whose n_levels - 1 effects sit
        at position ``at`` among the n_dense columns of X. One level gives an
        empty entity block: X alone, as a design without entity effects is
        laid out."""
        n_entity = n_levels - 1
        entity_pos = np.arange(at, at + n_entity)
        dense_pos = np.concatenate((np.arange(at), np.arange(at + n_entity, n_dense + n_entity)))
        n = len(codes)
        indicator = scipy.sparse.csc_matrix((np.ones(n), codes, np.arange(n + 1)), shape=(n_levels, n))
        return cls(codes, dense_pos, entity_pos, indicator)

    @property
    def n_params(self) -> int:
        return len(self.dense_pos) + len(self.entity_pos)

    def entity_sums(self, v: np.ndarray) -> np.ndarray:
        """Per-entity sums of v (a vector or the columns of a matrix), baseline
        left out; with an empty entity block, an empty array and no product."""
        if not len(self.entity_pos):
            return np.zeros((0, *v.shape[1:]))
        return (self.indicator @ v)[1:]


class BlockHessian(NamedTuple):
    """Hessian whose entity block is diagonal: ``A`` over the parameters at
    ``dense_pos``, ``C`` the (E-1) x len(dense_pos) cross block and ``d`` the
    entity diagonal over the parameters at ``entity_pos``."""

    A: np.ndarray
    C: np.ndarray
    d: np.ndarray
    dense_pos: np.ndarray
    entity_pos: np.ndarray

    def schur(self) -> tuple[np.ndarray, np.ndarray]:
        """The entity block of -H eliminated: Cd = diag(1/d) C and the Schur
        complement of -H, S = C' diag(1/d) C - A. The Newton step, the
        covariance, the CQR LP's normal equations and the FE projection of
        the linear fits each factor S their own way."""
        Cd = self.C / self.d[:, None]
        return Cd, Cd.T @ self.C - self.A

    def solve(self, g: np.ndarray, Cd: np.ndarray, solve_schur: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
        """(-H)^-1 g, given schur()'s Cd and a solver of S x = r: the dense
        part x solves S x = g_dense - Cd' g_entity, and the entity part is
        -(g_entity + C x) / d."""
        ge = g[self.entity_pos]
        x = solve_schur(g[self.dense_pos] - Cd.T @ ge)
        out = np.empty(len(self.dense_pos) + len(self.entity_pos))
        out[self.dense_pos] = x
        out[self.entity_pos] = -(ge + self.C @ x) / self.d
        return out


def newton_design(ds: panel.PanelDataset, mask: np.ndarray, regressors, fe_dims, intercept: bool):
    """design_matrix for a Newton fit or the CQR LP, with the entity dummies left out of X.

    Returns (X, names, fe_dummies, layout): names and fe_dummies are
    design_matrix's for the FE dims other than "entity", so they describe X's
    columns only, and layout is the EntityLayout of the entity effects, which
    sit in the parameter vector where design_matrix puts the entity dummies.
    Without "entity" among fe_dims it has one level (an empty entity block),
    and X is design_matrix's X.
    """
    X, names, fe_dummies = design_matrix(ds, mask, regressors, [d for d in fe_dims if d != "entity"], intercept)
    if "entity" not in fe_dims:
        return X, names, fe_dummies, EntityLayout.from_codes(np.zeros(len(X), dtype=np.intp), 1, X.shape[1], 0)
    codes, levels = fe_codes(ds, "entity", mask)
    before = set(fe_dims[: list(fe_dims).index("entity")])
    at = len(regressors) + sum(dim in before for dim, _ in fe_dummies.values())
    return X, names, fe_dummies, EntityLayout.from_codes(codes, len(levels), X.shape[1], at)


def design_index(X: np.ndarray, params: np.ndarray, layout: EntityLayout) -> np.ndarray:
    """Linear index of a Newton design: X @ params, plus the entity effects."""
    effects = np.concatenate(([0.0], params[layout.entity_pos]))
    return X @ params[layout.dense_pos] + effects[layout.codes]


def design_gradient(X: np.ndarray, r: np.ndarray, layout: EntityLayout) -> np.ndarray:
    """Gradient sum_i r_i z_i over a Newton design's parameters, r_i = dl_i/d index_i."""
    g = np.empty(layout.n_params)
    g[layout.dense_pos] = X.T @ r
    g[layout.entity_pos] = layout.entity_sums(r)
    return g


def design_hessian(X: np.ndarray, h: np.ndarray, layout: EntityLayout, cross=None, own=None) -> BlockHessian:
    """Hessian sum_i h_i z_i z_i' over a Newton design's parameters, h_i =
    d2l_i/d index_i^2, as a BlockHessian.

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


def screen_rank(X: np.ndarray, names, layout: EntityLayout, intercept: bool) -> None:
    """Raise CollinearityError naming a dependent column of the full design of
    newton_design (X, whose columns ``names`` names, and its entity layout),
    before any fit on it.

    The entity indicators (with the intercept, all E of them; without, the
    E - 1 non-baseline ones; E = 1 without entity effects) have full column
    rank, so the design has full rank iff the other non-intercept columns do
    after the entity means are removed from their rows. Each projected column is divided by its
    norm before projection and its pivots are judged against 1, so a column
    that is entity-constant up to round-off is named whatever its scale or
    that of the other columns.
    """
    m = X.shape[1] - int(intercept)  # the intercept is the last dense column
    if m == 0:
        return
    Z = X[:, :m]
    means = (layout.indicator @ Z) / np.bincount(layout.codes)[:, None]
    if not intercept:
        means[0] = 0.0
    norms = np.linalg.norm(Z, axis=0)
    norms[norms == 0] = 1.0
    _checked_qr((Z - means[layout.codes]) / norms, names[:m], scale=1.0)


def fe_residuals(M: np.ndarray, fe, w: np.ndarray | None = None) -> tuple[np.ndarray, int]:
    """Residuals of the columns of M from their weighted least-squares fit on
    the fixed effects ``fe`` (one code array per FE dim, see fe_codes), and
    the number of FE parameters absorbed, E - 1 + rank(S).

    The dim with the most levels (E of them) enters as the codes of an
    EntityLayout, the others as first-level-dropped indicators plus a
    constant, so one design_hessian and one factorisation of its Schur
    complement S serve every column. S is singular when the levels fall into
    unconnected groups (say, two sets of entities observed in disjoint
    years); its pseudo-inverse then still gives the least-squares fit. A
    level of the largest dim whose weights sum to 0 keeps effect 0. Each
    column is solved on its own, so its residuals do not depend on the other
    columns.
    """
    w = np.ones(M.shape[0]) if w is None else w
    big = int(np.argmax([codes.max() for codes in fe]))
    others = [codes for i, codes in enumerate(fe) if i != big]
    at = np.cumsum([0] + [int(codes.max()) for codes in others])
    D = np.zeros((M.shape[0], at[-1] + 1))
    for codes, start in zip(others, at):
        _set_indicators(D, codes, start)
    D[:, -1] = 1.0
    layout = EntityLayout.from_codes(fe[big], int(fe[big].max()) + 1, D.shape[1], 0)
    H = design_hessian(D, -w, layout)
    H = H._replace(d=np.where(H.d < 0, H.d, -1.0))  # an entity of zero weight: C row 0, effect 0
    Cd, S = H.schur()
    # S sums over the n rows, so eigenvalues within n eps of its largest are
    # rounding: the directions of unconnected groups
    s, U = np.linalg.eigh(S)
    keep = s > len(M) * np.finfo(float).eps * s[-1]
    pinv = (U[:, keep] / s[keep]) @ U[:, keep].T
    out = np.empty_like(M)
    for j in range(M.shape[1]):
        params = H.solve(design_gradient(D, w * M[:, j], layout), Cd, lambda r: pinv @ r)
        out[:, j] = M[:, j] - design_index(D, params, layout)
    return out, len(layout.entity_pos) + int(keep.sum())


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
) -> OlsCore | list[OlsCore]:
    """Least squares on arrays: sample checks, rank-checked solve, analytic or
    HC1 covariance, r2 and the Gaussian loglik.

    ``fe`` holds one integer code array per FE dim (see fe_codes), absorbed
    exactly by replacing y and X with their residuals on the FE
    (fe_residuals); r2 is then the within-R2 and ``absorbed_df`` the number of
    FE parameters identified. r2 is centred only when ``names`` holds the
    intercept. ``w`` are analytic weights.

    ``y`` of shape (n, m) holds m dependent columns that share the design, FE
    and weights: [y, X] go through one fe_residuals call, X is factored once,
    and a list of one OlsCore per column comes back. Each column is projected
    and solved as a 1-D ``y`` is, so its OlsCore is bit-identical to the one
    the column gets alone.
    """
    n = X.shape[0]
    k = X.shape[1] - (INTERCEPT in names)
    if n == 0:
        raise ValidationError("no complete cases for the requested model")
    if n < k + 1:
        raise ValidationError(f"only {n} complete cases for {k} regressors")
    if w is not None and (np.any(w < 0) or not np.sum(w) > 0):
        raise ValidationError("weights must be non-negative with a positive sum")
    Y = y[:, None] if y.ndim == 1 else y
    m = Y.shape[1]
    absorbed_df = 0
    if fe:
        within, absorbed_df = fe_residuals(np.column_stack([Y, X]), fe, w)
        Y, X = within[:, :m], np.ascontiguousarray(within[:, m:])

    sw = np.sqrt(w) if w is not None else None
    Xw = X * sw[:, None] if w is not None else X
    p = X.shape[1]
    q, r, piv = _checked_qr(Xw, names)
    XtX_inv = np.linalg.inv(Xw.T @ Xw)
    ww = w if w is not None else np.ones(n)
    dof = max(n - p - absorbed_df, 1)

    cores = []
    for j in range(m):
        yj = Y[:, j]
        yw = yj * sw if w is not None else yj
        beta = np.empty(p)
        beta[piv] = scipy.linalg.solve_triangular(r[:p, :], q.T[:p] @ yw)
        resid = yj - X @ beta

        rss = float(np.sum(ww * resid**2))
        ybar = np.average(yj, weights=ww) if INTERCEPT in names else 0.0
        tss = float(np.sum(ww * (yj - ybar) ** 2))
        r2 = 1.0 - rss / tss if tss > 0 else 1.0
        adj_r2 = 1.0 - (1.0 - r2) * (n - 1) / dof

        if robust:
            score = X * (ww * resid)[:, None]
            V = XtX_inv @ (score.T @ score) @ XtX_inv
            V *= n / dof
        else:
            V = rss / dof * XtX_inv

        sigma2_mle = rss / n
        loglik = float(-0.5 * n * (np.log(2.0 * np.pi * sigma2_mle) + 1.0)) if sigma2_mle > 0 else None
        cores.append(OlsCore(beta, resid, V, r2, adj_r2, loglik, absorbed_df))
    return cores[0] if y.ndim == 1 else cores


def ols_result(core: OlsCore, names, n_rows: int, vcov: VcovSpec, fe_dims) -> FitResult:
    """FitResult of one ols_core fit on ``n_rows`` dataset rows, before apply_vcov."""
    n_obs = core.resid.shape[0]
    return FitResult(
        coefficients=dict(zip(names, core.beta)),
        vcov=core.vcov,
        n_obs=n_obs,
        loglik=core.loglik,
        fit={"r2": core.r2, "adj_r2": core.adj_r2},
        se_method=vcov.tag(),
        n_dropped=n_rows - n_obs,
        notes={"absorbed_df": core.absorbed_df, "fe_dims": tuple(fe_dims)},
    )


def ols_fit(ds: panel.PanelDataset, spec: ModelSpec, vcov: VcovSpec | None = None) -> FitResult:
    """OLS on complete cases, absorbing fixed effects exactly (fe_residuals).

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
    fit = ols_result(core, names, ds.n_rows, vcov, spec.fe_dims)
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
    BlockHessian, whose entity block (empty without entity effects) is
    eliminated by a Schur complement. Converged when the gradient max-norm
    drops below ``tol``; the covariance is the dense block of the inverse of
    the negative Hessian at the optimum (see _hessian_vcov).
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


def _newton_direction(g: np.ndarray, H: BlockHessian) -> np.ndarray:
    try:
        # eliminate the diagonal entity block: solve the Schur complement for
        # the dense step, back-substitute the rest
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            Cd, S = H.schur()
            step = H.solve(g, Cd, lambda r: np.linalg.solve(S, r))
        if np.all(np.isfinite(step)) and float(step @ g) > 0:
            return step
    except np.linalg.LinAlgError:
        pass
    # fall back to (scaled) steepest ascent when the Hessian is unusable
    diag = np.concatenate((np.diag(H.A), H.d))
    denom = float(np.max(np.abs(diag))) if diag.size else 1.0
    return g / max(denom, 1.0)


def _hessian_vcov(H: BlockHessian) -> np.ndarray:
    """The block of (-H)^-1 at the optimum over the parameters at
    ``dense_pos``, in that order, symmetrised: V_dd = S^-1 for the Schur
    complement S of -H (BlockHessian.schur). ConvergenceError unless it is
    finite with a positive diagonal. The entity rows of the inverse are not
    built, but their diagonal, diag(V_ee) = -1/d + rowsum((C/d) V_dd * (C/d)),
    is checked in O(E k^2).
    """
    try:
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            Cd, S = H.schur()
            V = np.linalg.inv(S)
            diag = np.concatenate((np.diag(V), np.sum((Cd @ V) * Cd, axis=1) - 1.0 / H.d))
    except np.linalg.LinAlgError:
        raise ConvergenceError(
            "Hessian is singular at the optimum (possible perfect separation "
            "or non-identified parameters)"
        ) from None
    if not (np.all(np.isfinite(V)) and np.all(np.isfinite(diag))) or (diag.size and np.min(diag) <= 0):
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
    stream keyed by (seed, r), so results do not depend on execution order.
    Replications whose refit raises one of ESTIMATION_ERRORS are dropped and
    counted; more than 10% failures is an error. Any other exception
    propagates.
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
    return BootstrapResult(_draw_cov(mat), n_failed, mat.shape[0], mat)


def _draw_cov(draws: np.ndarray) -> np.ndarray:
    """The symmetrised sample covariance of bootstrap draws, one row each."""
    V = np.atleast_2d(np.cov(draws, rowvar=False, ddof=1))
    return (V + V.T) / 2.0


def apply_vcov(
    fit: FitResult | list[FitResult],
    refit: Callable[[panel.PanelDataset], FitResult | list[FitResult]],
    ds: panel.PanelDataset,
    vcov: VcovSpec | None,
    estimator: str,
) -> FitResult | list[FitResult]:
    """Give a point fit the covariance ``vcov`` asks for; every estimator's
    covariance is settled here.

    ``fit`` carries the estimator's own covariance, which an analytic spec
    (or None) keeps. An hc_robust spec is refused unless ``fit`` already
    carries it (se_method "robust"). A cluster_bootstrap spec replaces it, in
    place, by bootstrap_vcov over ``refit``, the estimator's point fit on one
    resample, and sets the spec's tag and ``notes["bootstrap_failures"]``.

    ``fit`` may also be a list of fits that one ``refit`` returns together, in
    the same order (the families of a count model, counts.count_fits). One
    bootstrap then draws all their coefficients, and each fit's covariance is
    that of its own columns of the draws; a replicate whose refit fails is
    dropped for every fit.
    """
    kind = vcov.kind if vcov is not None else "analytic"
    fits, refits = (fit, refit) if isinstance(fit, list) else ([fit], lambda dsb: [refit(dsb)])
    if kind == "hc_robust" and any(f.se_method != "robust" for f in fits):
        raise ValidationError(f"{estimator} cannot give an {kind!r} covariance")
    if kind != "cluster_bootstrap":
        return fit
    names = [f.names for f in fits]

    def draw(dsb: panel.PanelDataset) -> np.ndarray:
        return np.array([r.coefficients[nm] for r, nms in zip(refits(dsb), names) for nm in nms])

    boot = bootstrap_vcov(draw, ds, vcov)
    stop = 0
    for f, nms in zip(fits, names):
        start, stop = stop, stop + len(nms)
        f.vcov = _draw_cov(boot.draws[:, start:stop])
        f.se_method = vcov.tag()
        f.notes["bootstrap_failures"] = boot.n_failed
    return fit


def linear_index(
    fit: FitResult,
    ds: panel.PanelDataset,
    exclude: tuple[str, ...] = (),
) -> np.ndarray:
    """Apply a fit's coefficients to dataset rows, returning the linear predictor.

    Indicator-column coefficients (year or category dims; no fit reports
    entity dummies) are placed through the (dim, level) mapping recorded in
    ``fit.notes['fe_dummies']``; unseen categories count as the dropped
    baseline. Entity effects, kept out of the coefficients in
    ``fit.notes['entity_effects']`` ({label: absolute effect on the index,
    the level included}, as the FE Poisson and NB2 report them), are added by
    entity in one gather; an unseen entity gets effect 0. Rows missing any
    required input come back NaN.
    """
    dummies: dict[str, tuple[str, object]] = fit.notes.get("fe_dummies", {})
    effects: dict[str, float] = fit.notes.get("entity_effects", {})
    out = np.array([effects.get(label, 0.0) for label in ds.entities])[ds.entity_index()]
    missing = np.zeros(ds.n_rows, dtype=bool)
    years = ds.row_years()
    for name, coef in fit.coefficients.items():
        if name in exclude:
            continue
        if name == INTERCEPT:
            out += coef
        elif name in dummies:
            dim, level = dummies[name]
            if dim == "year":
                match = years == level
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
