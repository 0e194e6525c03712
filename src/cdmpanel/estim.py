"""Shared estimation machinery, which does each numerical job one way.

Complete-case handling, the rows of one fit as dataset row indices (the
point fit's complete cases, or a bootstrap replicate's: draw_rows, the drawn
entities' row blocks, with no new dataset; an entity drawn twice is one
entity whose rows come twice, which gives the estimating equations of an
entity frequency weight), one integer-coded fixed-effect encoding (fe_codes,
sample_codes), the dense design builder of the linear fits (design_matrix)
and its variant that keeps entity effects as integer codes (newton_design
with an EntityLayout, whose per-entity sums are each one np.bincount; used by
every likelihood fit and the CQR LP), and one way to absorb fixed effects:
the diagonal entity block of a Hessian or normal matrix is eliminated by a
Schur complement (BlockHessian). One pivoted QR (_pivoted_qr) gives a
least-squares fit its coefficients, rank check and covariance bread, and the
rank screen of newton_design designs (screen_rank) and the variance
inflation factors their rank checks. On top of these sit the one
least-squares solver of the linear fits (ols_core, with the analytic
covariance or HC1, and ols_solve, its coefficients alone, for the bootstrap
replicates; FE absorbed exactly by the Schur elimination, fe_residuals; a
fit without a residual degree of freedom refused), a line-searched Newton
maximizer for likelihoods, the entity-cluster bootstrap on one replicate
stream rule (replicate_rng) and apply_vcov, through which every estimator
gets its covariance (VcovSpec), and Wald tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np
import scipy.special
from scipy.linalg import lapack

from . import panel
from .exceptions import CollinearityError, ConvergenceError, ValidationError

INTERCEPT = "_cons"
MAX_ITER = 200  # Newton iterations of one mle_fit
TOL = 1e-8  # mle_fit converges when the gradient max-norm drops below this
MAX_HALVINGS = 50  # line-search step halvings per Newton iteration
LM_SHIFTS = 20  # Levenberg-Marquardt shifts tried where a Newton step does not ascend

# what a refit may raise on a degenerate resample; anything else is a bug and
# propagates out of bootstrap_vcov and monte_carlo
ESTIMATION_ERRORS = (ValidationError, ConvergenceError, CollinearityError, np.linalg.LinAlgError)


@dataclass(frozen=True)
class VcovSpec:
    """How standard errors are computed: the estimator's own (analytic) or cluster bootstrap."""

    kind: str = "analytic"
    replications: int = 0
    seed: int | None = None

    def __post_init__(self):
        if self.kind not in ("analytic", "cluster_bootstrap"):
            raise ValidationError(f"unknown vcov kind {self.kind!r}")
        if self.kind == "cluster_bootstrap":
            if self.replications < 2:
                raise ValidationError("cluster_bootstrap needs replications >= 2")
            if self.seed is None:
                raise ValidationError("cluster_bootstrap needs a seed")

    def tag(self) -> str:
        if self.kind == "cluster_bootstrap":
            return f"cluster_bootstrap(B={self.replications}, seed={self.seed})"
        return "analytic"


@dataclass(frozen=True)
class ModelSpec:
    """Declarative regression description consumed by ols_fit."""

    dependent: str
    regressors: tuple[str, ...]
    fe_dims: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "regressors", tuple(self.regressors))
        object.__setattr__(self, "fe_dims", tuple(self.fe_dims))
        if self.dependent in self.regressors:
            raise ValidationError(f"dependent {self.dependent!r} appears among the regressors")


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
    """One mle_fit optimum. ``params`` are X's columns, then the entity
    effects (see EntityLayout); ``vcov`` is the block of the inverse of the
    negative Hessian there over the dense parameters, those before the entity
    effects (which get no covariance)."""

    params: np.ndarray
    vcov: np.ndarray
    loglik: float
    iterations: int
    grad_norm: float


def draw_rows(ds: panel.PanelDataset, picks: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """The rows on which ``mask`` holds of the entities at positions
    ``picks``, entity-major in draw order (as panel.take_entities lays the
    draw out): an entity drawn twice has its rows twice."""
    n_periods = len(ds.periods)
    rows = (picks[:, None] * n_periods + np.arange(n_periods)).ravel()
    return rows[mask[rows]]


def _row_indices(rows) -> np.ndarray:
    """The dataset rows of a fit: a mask over the dataset's rows, or their indices."""
    rows = np.asarray(rows)
    return np.flatnonzero(rows) if rows.dtype == bool else rows


def sample_codes(ds: panel.PanelDataset, rows: np.ndarray, dim: str) -> tuple[np.ndarray, np.ndarray]:
    """Integer codes 0..L-1 of one FE dim on the row indices ``rows``, and
    what each code stands for: the entity's or the year's position in the
    dataset, or the category value, ascending. Rows that come twice (an
    entity drawn twice) share their codes."""
    if dim in ("entity", "year"):
        n_periods = max(len(ds.periods), 1)
        key = rows // n_periods if dim == "entity" else rows % n_periods
        present = np.bincount(key) > 0
        return (np.cumsum(present) - 1)[key], np.flatnonzero(present)
    present, codes = np.unique(ds.column(dim)[rows], return_inverse=True)
    return codes, present


def fe_codes(ds: panel.PanelDataset, dim: str, rows) -> tuple[np.ndarray, list]:
    """Integer codes 0..L-1 of one FE dim on the rows (a mask over the
    dataset's rows, or their indices), and the level each code stands for:
    entity labels in dataset order, int years or float categories
    ascending."""
    codes, present = sample_codes(ds, _row_indices(rows), dim)
    if dim == "entity":
        levels = [ds.entities[i] for i in present]
    elif dim == "year":
        levels = [int(ds.periods[i]) for i in present]
    else:
        levels = [float(v) for v in present]
    return codes, levels


def complete_case_mask(ds: panel.PanelDataset, names) -> np.ndarray:
    mask = np.ones(ds.n_rows, dtype=bool)
    for name in names:
        mask &= np.isfinite(ds.column(name))
    return mask


def design_matrix(ds: panel.PanelDataset, rows, regressors, fe_dims, intercept: bool):
    """C-contiguous float64 design on the rows (a mask over the dataset's
    rows, or their indices): the regressor columns, then first-level-dropped
    indicators for each FE dim, then the intercept.

    Returns (X, names, fe_dummies) where fe_dummies[name] = (dim, level) so that
    predictions can place new rows in the right category.
    """
    rows = _row_indices(rows)
    names = list(regressors)
    blocks = [fe_codes(ds, dim, rows) for dim in fe_dims]
    X = np.zeros((len(rows), len(names) + sum(len(levels[1:]) for _, levels in blocks) + int(intercept)))
    for j, name in enumerate(names):
        X[:, j] = ds.column(name)[rows]
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
    dropped baseline) place each row in its entity. The parameter vector is
    X's ``n_dense`` columns, then the E-1 entity effects; a fit with one more
    dense parameter (NB2's log alpha) puts it between them. ``n_levels`` is
    E, and ``cells`` numbers each cell of an n x n_dense matrix by (entity,
    column), so the per-entity sums of X's columns are one np.bincount, as
    those of a vector are. Rows need not be grouped by entity."""

    codes: np.ndarray
    n_dense: int
    n_levels: int
    cells: np.ndarray

    @classmethod
    def from_codes(cls, codes: np.ndarray, n_levels: int, n_dense: int) -> "EntityLayout":
        """Layout of entity codes 0..n_levels-1 beside the n_dense columns of
        X. One level gives an empty entity block: X alone, as a design without
        entity effects is laid out."""
        return cls(codes, n_dense, n_levels, (codes[:, None] * n_dense + np.arange(n_dense)).ravel())

    @property
    def n_entity(self) -> int:
        """The number of entity effects, E - 1."""
        return self.n_levels - 1

    def level_sums(self, v: np.ndarray) -> np.ndarray:
        """Per-level sums of v, a vector or an n x n_dense matrix, the
        baseline's first: one np.bincount, which adds each sum in row order."""
        if v.ndim == 1:
            return np.bincount(self.codes, weights=v, minlength=self.n_levels)
        sums = np.bincount(self.cells, weights=v.ravel(), minlength=self.n_levels * self.n_dense)
        return sums.reshape(self.n_levels, self.n_dense)

    def entity_sums(self, v: np.ndarray) -> np.ndarray:
        """level_sums without the baseline; with an empty entity block, an
        empty array and no sum."""
        if not self.n_entity:
            return np.zeros((0, *v.shape[1:]))
        return self.level_sums(v)[1:]


class BlockHessian(NamedTuple):
    """Hessian over the dense parameters, then the entity effects, whose
    entity block is diagonal: ``A`` over the dense parameters, ``C`` the
    (E-1) x len(A) cross block and ``d`` the entity diagonal."""

    A: np.ndarray
    C: np.ndarray
    d: np.ndarray

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
        ge = g[len(self.A):]
        x = solve_schur(g[: len(self.A)] - Cd.T @ ge)
        return np.concatenate((x, -(ge + self.C @ x) / self.d))


def newton_design(ds: panel.PanelDataset, rows, regressors, fe_dims, intercept: bool):
    """design_matrix for a Newton fit or the CQR LP, with the entity dummies left out of X.

    Returns (X, names, fe_dummies, layout): names and fe_dummies are
    design_matrix's for the FE dims other than "entity", so they describe X's
    columns only, and layout is the EntityLayout of the entity effects (one
    per entity of the rows, sample_codes), which follow X's columns in the
    parameter vector. Without "entity" among fe_dims it has one level (an
    empty entity block), and X is design_matrix's X.
    """
    rows = _row_indices(rows)
    X, names, fe_dummies = design_matrix(ds, rows, regressors, [d for d in fe_dims if d != "entity"], intercept)
    if "entity" not in fe_dims:
        return X, names, fe_dummies, EntityLayout.from_codes(np.zeros(len(X), dtype=np.intp), 1, X.shape[1])
    codes, present = sample_codes(ds, rows, "entity")
    return X, names, fe_dummies, EntityLayout.from_codes(codes, len(present), X.shape[1])


def design_index(X: np.ndarray, params: np.ndarray, layout: EntityLayout) -> np.ndarray:
    """Linear index of a Newton design: X @ params[:X's columns], plus the
    entity effects, the last E-1 parameters (so that a dense parameter after
    X's columns, NB2's log alpha, is passed over)."""
    effects = np.concatenate(([0.0], params[len(params) - layout.n_entity:]))
    return X @ params[: X.shape[1]] + effects[layout.codes]


def design_gradient(X: np.ndarray, r: np.ndarray, layout: EntityLayout) -> np.ndarray:
    """Gradient sum_i r_i z_i over a Newton design's parameters, r_i = dl_i/d index_i."""
    return np.concatenate((X.T @ r, layout.entity_sums(r)))


def design_hessian(X: np.ndarray, h: np.ndarray, layout: EntityLayout, cross=None, own=None) -> BlockHessian:
    """Hessian sum_i h_i z_i z_i' over a Newton design's parameters, h_i =
    d2l_i/d index_i^2, as a BlockHessian.

    With ``cross`` (per-row d2l_i/d index_i ds) and ``own`` (d2l/ds2) it spans
    one more parameter s, the last dense one, between X's columns and the
    entity effects.
    """
    Xh = X * h[:, None]
    A = Xh.T @ X
    C = layout.entity_sums(Xh)
    if cross is not None:
        m = X.shape[1]
        Ae = np.empty((m + 1, m + 1))
        Ae[:m, :m] = A
        Ae[:m, m] = Ae[m, :m] = X.T @ cross
        Ae[m, m] = own
        A = Ae
        C = np.column_stack((C, layout.entity_sums(cross)))
    return BlockHessian(A, C, layout.entity_sums(h))


def _pivoted_qr(A: np.ndarray, names, scale: float | None = None):
    """The pivoted QR A[:, piv] = QR of an n x p matrix, by LAPACK's dgeqp3
    after its workspace query (as scipy.linalg's pivoted QR calls it), and
    (A'A)^-1 = P R^-1 R^-T P' from R's inverse (dtrtri). Returns (qr, tau,
    piv, inv): dgeqp3's Householder form (R is its upper triangle) and
    reflector scales, the pivots and that inverse. Raises CollinearityError
    naming the column at the first pivot that counts as zero, at or below
    max(n, p) * eps * scale, where scale defaults to the largest pivot."""
    lwork = int(lapack.dgeqp3(A, lwork=-1)[3][0])
    qr, jpvt, tau, *_ = lapack.dgeqp3(A, lwork=lwork)
    piv, diag = jpvt - 1, np.abs(np.diagonal(qr))
    if scale is None:
        scale = diag[0] if diag.size else 0.0
    rank = int(np.sum(diag > max(A.shape) * np.finfo(float).eps * scale))
    if rank < len(piv):
        raise CollinearityError(
            f"design matrix is rank deficient: column {names[piv[rank]]!r} is linearly dependent on the others"
        )
    Rinv = np.triu(lapack.dtrtri(qr[: len(piv)])[0])
    inv = np.empty(Rinv.shape)
    inv[np.ix_(piv, piv)] = Rinv @ Rinv.T
    return qr, tau, piv, inv


def screen_rank(X: np.ndarray, names, layout: EntityLayout, intercept: bool) -> None:
    """Raise CollinearityError naming a dependent column of the full design of
    newton_design (X, whose columns ``names`` names, and its entity layout),
    before any fit on it.

    The entity indicators (with the intercept, all E of them; without, the
    E - 1 non-baseline ones; E = 1 without entity effects) have full column
    rank, so the design has full rank iff the other non-intercept columns do
    after the entity means (EntityLayout.level_sums) are removed from their
    rows. Each projected column is divided by its norm before projection and
    its pivots are judged against 1 (_pivoted_qr at scale 1), so a column
    that is entity-constant up to round-off is named whatever its scale or
    that of the other columns.
    """
    m = X.shape[1] - int(intercept)  # the intercept is the last dense column
    if m == 0:
        return
    Z = X[:, :m]
    means = layout.level_sums(X)[:, :m] / np.bincount(layout.codes)[:, None]
    if not intercept:
        means[0] = 0.0
    norms = np.linalg.norm(Z, axis=0)
    norms[norms == 0] = 1.0
    _pivoted_qr((Z - means[layout.codes]) / norms, names[:m], 1.0)


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
    layout = EntityLayout.from_codes(fe[big], int(fe[big].max()) + 1, D.shape[1])
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
    return out, layout.n_entity + int(keep.sum())


class OlsCore(NamedTuple):
    beta: np.ndarray
    resid: np.ndarray
    vcov: np.ndarray
    r2: float
    adj_r2: float
    loglik: float | None
    absorbed_df: int


def ols_solve(X: np.ndarray, y: np.ndarray, names, w: np.ndarray | None = None, fe=()):
    """ols_core's sample checks, FE projection and one pivoted QR of the
    weighted design X~ (_pivoted_qr, its rank rule relative to the largest
    pivot), without the covariance and fit statistics (a bootstrap replicate
    needs only the coefficients). Each coefficient vector is solved from R
    as scipy.linalg's triangular solver solves it (dtrtrs on R'), and the
    bread (X~'X~)^-1 = P R^-1 R^-T P' comes from the same R.

    Returns (betas, X, Y, absorbed_df, bread): one coefficient vector per
    column of ``y`` (a 1-D ``y`` is one column), the design and the (n, m)
    dependent columns after the FE projection, the number of FE parameters
    absorbed, and (X~'X~)^-1.
    """
    n, p = X.shape
    if n == 0:
        raise ValidationError("no complete cases for the requested model")
    if p == 0:
        raise ValidationError("empty design matrix")
    if w is not None and (np.any(w < 0) or not np.sum(w) > 0):
        raise ValidationError("weights must be non-negative with a positive sum")
    Y = y[:, None] if y.ndim == 1 else y
    m = Y.shape[1]
    absorbed_df = 0
    if fe:
        within, absorbed_df = fe_residuals(np.column_stack([Y, X]), fe, w)
        Y, X = within[:, :m], np.ascontiguousarray(within[:, m:])
    # a case for each column of X (the intercept too) and each absorbed FE
    # parameter, and one more: at least one residual degree of freedom (none
    # would leave SEs of round-off)
    if n <= p + absorbed_df:
        absorbed = f" and {absorbed_df} absorbed fixed effects" if absorbed_df else ""
        raise ValidationError(f"only {n} complete cases for {p} regressors{absorbed}")

    sw = np.sqrt(w) if w is not None else None
    qr, tau, piv, bread = _pivoted_qr(X * sw[:, None] if w is not None else X, names)
    q = lapack.dorgqr(qr, tau, lwork=int(lapack.dorgqr(qr, tau, lwork=-1)[1][0]))[0]
    betas = []
    for j in range(m):
        yw = Y[:, j] * sw if w is not None else Y[:, j]
        beta = np.empty(p)
        beta[piv] = lapack.dtrtrs(qr[:p].T, q.T @ yw, lower=1, trans=1)[0]
        betas.append(beta)
    return betas, X, Y, absorbed_df, bread


def ols_core(
    X: np.ndarray,
    y: np.ndarray,
    names,
    w: np.ndarray | None = None,
    fe=(),
    robust: bool = False,
) -> OlsCore | list[OlsCore]:
    """Least squares on arrays: sample checks, rank-checked solve (ols_solve),
    analytic or HC1 covariance, r2 and the Gaussian loglik.

    ``fe`` holds one integer code array per FE dim (see fe_codes), absorbed
    exactly by replacing y and X with their residuals on the FE
    (fe_residuals); r2 is then the within-R2 and ``absorbed_df`` the number of
    FE parameters identified. r2 is centred only when ``names`` holds the
    intercept. ``w`` are analytic weights. Both covariances take their bread
    (X~'X~)^-1 from ols_solve's QR: s^2 times it, or HC1's sandwich around
    the scores.

    ``y`` of shape (n, m) holds m dependent columns that share the design, FE
    and weights: [y, X] go through one fe_residuals call, X is factored once,
    and a list of one OlsCore per column comes back. Each column is projected
    and solved as a 1-D ``y`` is, so its OlsCore is bit-identical to the one
    the column gets alone.
    """
    betas, X, Y, absorbed_df, bread = ols_solve(X, y, names, w, fe)
    n, p = X.shape
    ww = w if w is not None else np.ones(n)
    dof = n - p - absorbed_df  # at least 1 (ols_solve)

    cores = []
    for j, beta in enumerate(betas):
        yj = Y[:, j]
        resid = yj - X @ beta

        rss = float(np.sum(ww * resid**2))
        ybar = np.average(yj, weights=ww) if INTERCEPT in names else 0.0
        tss = float(np.sum(ww * (yj - ybar) ** 2))
        r2 = 1.0 - rss / tss if tss > 0 else 1.0
        adj_r2 = 1.0 - (1.0 - r2) * (n - 1) / dof

        if robust:
            score = X * (ww * resid)[:, None]
            V = bread @ (score.T @ score) @ bread
            V *= n / dof
        else:
            V = rss / dof * bread

        sigma2_mle = rss / n
        loglik = float(-0.5 * n * (np.log(2.0 * np.pi * sigma2_mle) + 1.0)) if sigma2_mle > 0 else None
        cores.append(OlsCore(beta, resid, V, r2, adj_r2, loglik, absorbed_df))
    return cores[0] if y.ndim == 1 else cores


def ols_result(core: OlsCore, names, n_rows: int, se_method: str, fe_dims) -> FitResult:
    """FitResult of one ols_core fit on ``n_rows`` dataset rows, before
    apply_vcov; ``se_method`` names core's covariance ("analytic", or
    "robust" for HC1)."""
    n_obs = core.resid.shape[0]
    return FitResult(
        coefficients=dict(zip(names, core.beta)),
        vcov=core.vcov,
        n_obs=n_obs,
        loglik=core.loglik,
        fit={"r2": core.r2, "adj_r2": core.adj_r2},
        se_method=se_method,
        n_dropped=n_rows - n_obs,
        notes={"absorbed_df": core.absorbed_df, "fe_dims": tuple(fe_dims)},
    )


def ols_fit(ds: panel.PanelDataset, spec: ModelSpec, vcov: VcovSpec = VcovSpec()) -> FitResult:
    """OLS on complete cases, absorbing fixed effects exactly (fe_residuals).

    The intercept is reported only when no fixed effects are absorbed. r2 is
    the within-R2 when FE dims are present. A bootstrap replicate (apply_vcov)
    takes the drawn entities' complete rows (draw_rows) and solves them by
    ols_solve.
    """
    cat_dims = [d for d in spec.fe_dims if d not in ("entity", "year")]
    mask = complete_case_mask(ds, [spec.dependent, *spec.regressors, *cat_dims])

    def arrays(rows: np.ndarray):
        X, names, _ = design_matrix(ds, rows, spec.regressors, (), not spec.fe_dims)
        y = ds.column(spec.dependent)[rows]
        return X, y, names, [sample_codes(ds, rows, dim)[0] for dim in spec.fe_dims]

    X, y, names, fe = arrays(np.flatnonzero(mask))
    fit = ols_result(ols_core(X, y, names, fe=fe), names, ds.n_rows, "analytic", spec.fe_dims)

    def refit(picks: np.ndarray) -> dict[str, float]:
        X, y, names, fe = arrays(draw_rows(ds, picks, mask))
        return dict(zip(names, ols_solve(X, y, names, fe=fe)[0][0]))

    return apply_vcov(fit, refit, ds, vcov)


def mle_fit(objective: Callable[[np.ndarray], tuple[float, np.ndarray, np.ndarray]], start) -> MleResult:
    """Maximize a likelihood by Newton steps with step-halving line search.

    ``objective(theta)`` returns (loglik, gradient, Hessian); the Hessian is a
    BlockHessian, whose entity block (empty without entity effects) is
    eliminated by a Schur complement, shifted where the Newton step does not
    ascend (_newton_direction). Converged when the gradient max-norm drops
    below TOL within MAX_ITER iterations; the covariance is the dense block
    of the inverse of the negative Hessian at the optimum (see
    _hessian_vcov).
    """
    theta = np.array(start, dtype=float)
    f, g, H = objective(theta)
    if not np.isfinite(f):
        raise ValidationError("objective is not finite at the starting point")

    for iterations in range(MAX_ITER):
        gnorm = float(np.max(np.abs(g))) if g.size else 0.0
        if gnorm < TOL:
            return MleResult(theta, _hessian_vcov(H), f, iterations, gnorm)
        step = _newton_direction(g, H)
        for h in range(MAX_HALVINGS + 1):
            cand = theta + 0.5**h * step
            fc, gc, Hc = objective(cand)
            if np.isfinite(fc) and fc >= f - 1e-12 * (1.0 + abs(f)):
                theta, f, g, H = cand, fc, gc, Hc
                break
        else:
            raise ConvergenceError(
                "line search failed: objective stayed non-finite or decreasing "
                f"after {MAX_HALVINGS} halvings (gradient max-norm {float(np.max(np.abs(g))):.3e})"
            )
    gnorm = float(np.max(np.abs(g)))
    raise ConvergenceError(
        f"no convergence in {MAX_ITER} iterations; final gradient max-norm {gnorm:.3e}"
    )


def _newton_direction(g: np.ndarray, H: BlockHessian) -> np.ndarray:
    """(-H)^-1 g, the Newton step, or where that is not a finite ascent
    direction the first that is of the Levenberg-Marquardt steps (Marquardt
    1963), with the Schur complement S shifted by lam = 1e-8 max(max|diag S|,
    1) 10^k, k < LM_SHIFTS; their large-lam limit is steepest ascent in the
    dense parameters. ConvergenceError if S is not finite or none ascends."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        Cd, S = H.schur()  # the entity block eliminated; its step is back-substituted
        for k in range(-1, LM_SHIFTS):  # k = -1: the unshifted Newton step
            if k == 0 and not np.all(np.isfinite(S)):
                raise ConvergenceError("Hessian is not finite: its Schur complement has a non-finite entry")
            lam = 1e-8 * float(np.max(np.abs(np.diag(S)), initial=1.0)) * 10.0**k
            try:
                step = H.solve(g, Cd, lambda r: np.linalg.solve(S + lam * np.eye(len(S)) if k >= 0 else S, r))
            except np.linalg.LinAlgError:
                continue
            if np.all(np.isfinite(step)) and float(step @ g) > 0:
                return step
    raise ConvergenceError(f"no ascent direction: no Levenberg-Marquardt shift up to {lam:.3e} gives one")


def _hessian_vcov(H: BlockHessian) -> np.ndarray:
    """The block of (-H)^-1 at the optimum over the dense parameters, X's
    columns (and NB2's log alpha), symmetrised: V_dd = S^-1 for the Schur
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


def replicate_rng(seed: int, r: int) -> np.random.Generator:
    """The random stream of replicate r, keyed by (seed, r), so that a
    replicate's draws do not depend on execution order: a bootstrap
    replicate's resample (bootstrap_vcov) or a Monte Carlo replication's
    panel seed (synthdgp.monte_carlo)."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(r,)))


def bootstrap_vcov(
    refit: Callable[[np.ndarray], np.ndarray],
    ds: panel.PanelDataset,
    vcov: VcovSpec,
) -> BootstrapResult:
    """Cluster bootstrap covariance of the coefficients returned by ``refit``.

    Entities are resampled with replacement; replication r draws from an RNG
    stream keyed by (seed, r), so results do not depend on execution order.
    ``refit`` gets each draw as the positions of the drawn entities in
    ``ds``, in draw order (draw_rows gives their rows). Replications whose
    refit raises one of ESTIMATION_ERRORS are dropped and counted; more than
    10% failures is an error. Any other exception propagates.
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
        picks = replicate_rng(vcov.seed, r).integers(0, n_entities, size=n_entities)
        try:
            draws.append(np.asarray(refit(picks), dtype=float))
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
    refit: Callable[[np.ndarray], dict[str, float] | list[dict[str, float]]],
    ds: panel.PanelDataset,
    vcov: VcovSpec,
) -> FitResult | list[FitResult]:
    """Give a point fit the covariance ``vcov`` asks for; every estimator's
    covariance is settled here.

    ``fit`` carries the estimator's own covariance, which an analytic spec
    keeps. A cluster_bootstrap spec replaces it, in place, by bootstrap_vcov
    over ``refit``, and sets the spec's tag and ``notes["bootstrap_failures"]``.

    ``refit`` takes the drawn entities' positions (see bootstrap_vcov) and
    returns the estimator's coefficients, name -> value, on the draw. Each
    estimator solves the drawn entities' rows of its own dataset (draw_rows),
    without the point fit's diagnostics. An entity drawn twice is one entity
    whose rows come twice: its copies share one effect, which gives the
    estimating equations of an entity frequency weight. So the coefficients
    equal, to round-off, those of the point fit on panel.take_entities'
    dataset of the draw, where each copy is an entity of its own. A
    replicate that lacks a coefficient of ``fit`` (a year or category with no
    row in the draw) fails, as one whose refit raises does.

    ``fit`` may also be a list of fits whose coefficients one ``refit``
    returns together, as a list in the same order (the families of a count
    model, counts.count_fits). One bootstrap then draws all their
    coefficients, and each fit's covariance is that of its own columns of the
    draws; a replicate that fails is dropped for every fit.
    """
    if vcov.kind != "cluster_bootstrap":
        return fit
    fits, refits = (fit, refit) if isinstance(fit, list) else ([fit], lambda picks: [refit(picks)])
    names = [f.names for f in fits]

    def draw(picks: np.ndarray) -> np.ndarray:
        coefficients = refits(picks)
        missing = [nm for c, nms in zip(coefficients, names) for nm in nms if nm not in c]
        if missing:
            raise ValidationError(f"the resample gives no coefficient {missing[0]!r}")
        return np.array([c[nm] for c, nms in zip(coefficients, names) for nm in nms])

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
    """Variance inflation factors 1/(1-R2_j) of X's columns, from one pivoted
    QR (_pivoted_qr) of the centred columns divided by their norms, A:
    VIF_j = [(A'A)^-1]_jj. A column that the QR's rank rule at scale 1 finds
    dependent is refused as screen_rank's are; the first column with a VIF
    of 1e12 or more is named as perfectly collinear with the others: that is
    r2_j >= 1 - 1e-12."""
    names = list(names)
    constant = np.all(X == X[:1], axis=0)
    if constant.any():
        raise CollinearityError(f"regressor {names[int(np.argmax(constant))]!r} is constant")
    Xc = X - X.mean(axis=0)
    out = np.diagonal(_pivoted_qr(Xc / np.linalg.norm(Xc, axis=0), names, 1.0)[3])
    collinear = ~(out < 1e12)
    if collinear.any():
        raise CollinearityError(
            f"regressor {names[int(np.argmax(collinear))]!r} is perfectly collinear with the others"
        )
    return dict(zip(names, out.tolist()))


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
