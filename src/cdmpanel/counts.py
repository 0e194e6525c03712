"""Count models for patent outcomes plus the prediction-calibration scheme.

Two families on one path. Both take the same sample (complete cases with
validated counts, less, with entity FE, the entities whose count total is zero,
since their effects have no finite MLE, or that have too few rows) and fit the
same dummy-variable Poisson MLE, started at its exact profile for zero slopes:
each entity's log mean count. Entity effects (always in ``poisson_fe``,
optional in ``nb2``) are estimated as parameters (first kept entity the
baseline) but never built as dummy columns: their Hessian block is diagonal and
is eliminated by a Schur complement in each Newton step (estim.newton_design,
estim.BlockHessian). They are not coefficients; each fit reports them in
``notes["entity_effects"]`` ({label: effect on the linear index}), from which
estim.linear_index reads them. One tail builds either family's FitResult, its
covariance and the Wald test on its slopes.

* ``poisson_fe`` - the fixed-effects Poisson. The dummy-variable Poisson MLE
  gives the slopes of the conditional likelihood, which conditions on each
  entity's count total, and the same slope covariance, since profiling out
  the entity effects leaves the conditional loglik plus a constant (Hausman,
  Hall & Griliches 1984); the conditional loglik is reported.
* ``nb2`` - negative binomial with Var(y|x) = mu + alpha*mu^2, alpha >= 0,
  which nests that Poisson fit at alpha = 0, estimated by profile likelihood
  in alpha (as MASS ``glm.nb``): the Poisson fit is the optimum when the
  alpha-score there is not positive; otherwise a bounded root search on the
  profile score in alpha, with Newton in beta at each alpha, and the
  covariance from the joint (beta, log alpha) Hessian at the optimum.

Calibration rescales raw exponential-index predictions so each entity's mean
prediction matches its realized mean, then adds a small epsilon so logs of
zero-activity entities stay defined. The rescaling absorbs the entity effects,
so they only set a level that it takes out again.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np
from scipy.optimize import brentq
from scipy.special import chdtrc, gammaln

from . import estim, panel
from .estim import FitResult, VcovSpec
from .exceptions import ConvergenceError, ValidationError

ALPHA_BOUND = 1e6
INTEGER_TOL = 1e-6


@dataclass(frozen=True)
class CountSpec:
    """Count regression description (dependent already rolled and rounded)."""

    dependent: str
    regressors: tuple[str, ...]
    family: str
    entity_fe: bool = True
    year_fe: bool = True
    vcov: VcovSpec = field(default_factory=VcovSpec)

    def __post_init__(self):
        object.__setattr__(self, "regressors", tuple(self.regressors))
        if self.family not in ("poisson_fe", "nb2"):
            raise ValidationError(f"unknown count family {self.family!r}")
        if self.family == "poisson_fe" and not self.entity_fe:
            raise ValidationError("poisson_fe requires entity fixed effects")


@dataclass(frozen=True)
class CalibrationRule:
    """How raw count predictions are scaled to each entity's realized mean."""

    firm_mean_source: str
    epsilon: float = 0.001

    def __post_init__(self):
        if not self.epsilon > 0:
            raise ValidationError("epsilon must be > 0")


def _validated_counts(y: np.ndarray, context: str) -> np.ndarray:
    if np.any(y < -INTEGER_TOL):
        raise ValidationError(f"{context}: counts must be non-negative")
    rounded = np.round(y)
    gap = np.abs(y - rounded)
    if np.any(gap > INTEGER_TOL):
        i = int(np.argmax(gap))
        raise ValidationError(
            f"{context}: count {y[i]!r} is not within {INTEGER_TOL} of an integer"
        )
    return rounded


def _count_sample(ds: panel.PanelDataset, spec: CountSpec, min_rows: int):
    """The rows a count fit uses: complete cases with validated counts and,
    with entity FE, without the entities whose count total is zero or that
    have fewer than ``min_rows`` rows. Returns (row mask, y on those rows,
    number of entities dropped)."""
    mask = estim.complete_case_mask(ds, [spec.dependent, *spec.regressors])
    if not mask.any():
        raise ValidationError("no complete cases for the count model")
    y = _validated_counts(ds.column(spec.dependent)[mask], spec.dependent)
    if not spec.entity_fe:
        return mask, y, 0
    codes, _ = estim.fe_codes(ds, "entity", mask)
    dropped = (np.bincount(codes) < min_rows) | (np.bincount(codes, weights=y) <= 0)
    if dropped.all():
        raise ValidationError("every entity has an all-zero count total; nothing to estimate")
    keep = ~dropped[codes]
    mask[np.flatnonzero(mask)[~keep]] = False
    return mask, y[keep], int(dropped.sum())


def _poisson_mle(y, X, names, layout) -> estim.MleResult:
    """The Poisson MLE on a newton_design design (intercept last), after
    screen_rank. It starts at the exact profile for zero slopes: each
    entity's log mean count, the baseline's at ``_cons`` and the others'
    relative to it; without entity effects ``_cons`` at the log mean count,
    or at 0 when every count is 0."""
    estim.screen_rank(X, names, layout, intercept=True)
    means = np.bincount(layout.codes, weights=y) / np.bincount(layout.codes)
    log_means = np.log(means, out=np.zeros_like(means), where=means > 0)
    start = np.zeros(layout.n_params)
    start[layout.dense_pos[-1]] = log_means[0]
    start[layout.entity_pos] = log_means[1:] - log_means[0]
    lgy1 = gammaln(y + 1.0)
    return estim.mle_fit(lambda b: _poisson_parts(b, y, X, lgy1, layout), start)


def _poisson_parts(beta, y, X, lgy1, layout):
    with np.errstate(over="ignore", invalid="ignore"):
        eta = estim.design_index(X, beta, layout)
        mu = np.exp(eta)
        ll = float(np.sum(y * eta - mu - lgy1))
        if not np.isfinite(ll):
            return -np.inf, np.zeros(len(beta)), np.eye(len(beta))
        grad = estim.design_gradient(X, y - mu, layout)
        hess = estim.design_hessian(X, -mu, layout)
    return ll, grad, hess


def _count_result(ds, spec: CountSpec, refit, coefficients, vcov, loglik, n_obs: int, dims, mapping, notes):
    """A count fit's FitResult: the notes both families share (fe_dims and
    fe_dummies) ahead of the family's ``notes``, the covariance settled by
    estim.apply_vcov over the analytic ``refit(dsb, spec)``, and the Wald test
    that the regressors among the coefficients are jointly zero."""
    base = FitResult(
        coefficients=coefficients,
        vcov=vcov,
        n_obs=n_obs,
        loglik=loglik,
        n_dropped=ds.n_rows - n_obs,
        notes={"fe_dims": dims, "fe_dummies": mapping, **notes},
    )
    analytic = replace(spec, vcov=VcovSpec())
    # each family's fit function is named after it: poisson_fe_fit, nb2_fit
    estim.apply_vcov(base, lambda dsb: refit(dsb, analytic), ds, spec.vcov, f"{spec.family}_fit")
    slopes = [nm for nm in spec.regressors if nm in coefficients]
    if slopes:
        base.wald_chi2 = estim.wald_chi2(base, slopes)
    return base


# ---------------------------------------------------------------------------
# fixed-effects Poisson


def poisson_fe_fit(ds: panel.PanelDataset, spec: CountSpec) -> FitResult:
    """Fixed-effects Poisson: the dummy-variable Poisson MLE, entity effects as
    codes (estim.newton_design); entities with an all-zero total or a single
    complete row drop out.

    Its slopes and their covariance are those of the conditional likelihood
    (Hausman, Hall & Griliches 1984), and ``loglik`` is the conditional one,
    the unconditional loglik plus sum_i [lgamma(T_i+1) - T_i log T_i + T_i]
    over the entity totals T_i. Regressors constant within every entity are
    absorbed by the entity effects and listed in ``notes["absorbed_columns"]``.
    Neither the intercept nor the entity effects are reported as
    coefficients; ``notes["entity_effects"]`` holds each kept entity's
    log T_i - log sum_t exp(x_it'b).
    """
    if spec.family != "poisson_fe":
        raise ValidationError("poisson_fe_fit requires family 'poisson_fe'")
    mask, y, n_entities_dropped = _count_sample(ds, spec, min_rows=2)
    codes, levels = estim.fe_codes(ds, "entity", mask)
    starts = np.flatnonzero(np.diff(codes, prepend=-1))  # rows are entity-major

    slopes: list[str] = []
    absorbed: list[str] = []
    for name in spec.regressors:
        x = ds.column(name)[mask]
        spans = np.maximum.reduceat(x, starts) - np.minimum.reduceat(x, starts)
        if np.all(spans <= 1e-12 * (1.0 + np.max(np.abs(x)))):
            absorbed.append(name)
        else:
            slopes.append(name)
    year_dims = ("year",) if spec.year_fe else ()
    dims = ("entity", *year_dims)
    X, names, mapping, layout = estim.newton_design(ds, mask, slopes, dims, intercept=True)
    reported = layout.dense_pos[:-1]  # slopes and year effects: all but entity effects and _cons
    if not reported.size:
        raise ValidationError("no identifiable regressors remain after absorbing entity-constant columns")
    res = _poisson_mle(y, X, names, layout)

    beta = res.params[reported]
    totals = np.bincount(codes, weights=y)
    loglik = res.loglik + float(np.sum(gammaln(totals + 1.0) - totals * np.log(totals) + totals))
    denom = np.bincount(codes, weights=np.exp(X[:, :-1] @ beta))
    notes = {
        "absorbed_columns": tuple(absorbed),
        "dropped_entities": n_entities_dropped,
        "newton_iterations": res.iterations,
        "grad_norm": res.grad_norm,
        "entity_effects": dict(zip(levels, (np.log(totals) - np.log(denom)).tolist())),
    }
    coefficients = dict(zip(names[:-1], beta))
    return _count_result(
        ds, spec, poisson_fe_fit, coefficients, res.vcov[:-1, :-1], loglik, len(y), dims, mapping, notes
    )


# ---------------------------------------------------------------------------
# NB2


def _nb2_tables(theta: float, ymax: int):
    j = np.arange(ymax, dtype=float)
    r = j / theta
    pref_ln = np.concatenate(([0.0], np.cumsum(np.log(theta) + np.log1p(r))))
    pref_g = np.concatenate(([0.0], np.cumsum(r / (1.0 + r))))
    pref_h = np.concatenate(([0.0], np.cumsum(r / (1.0 + r) ** 2)))
    return pref_ln, pref_g, pref_h


def _nb2_parts(params, y, X, lgy1, fix_log_alpha, layout):
    """Loglik, gradient, Hessian for NB2 over (beta, log alpha); beta spans X
    and the entity effects of the estim.EntityLayout.

    Uses exact finite-sum identities for the Gamma-function differences so the
    alpha -> 0 (Poisson) limit stays numerically stable. Probes beyond the
    alpha bound, or where exp(log alpha) underflows, report -inf so the line
    search retreats.
    """
    k = layout.n_params
    if fix_log_alpha is None:
        beta, s = params[:k], params[k]
    else:
        beta, s = params, fix_log_alpha
    a = float(np.exp(s))
    if a == 0.0 or s > np.log(ALPHA_BOUND):
        dim = k + (1 if fix_log_alpha is None else 0)
        return -np.inf, np.zeros(dim), np.eye(dim)
    theta = 1.0 / a
    yi = y.astype(int)
    pref_ln, pref_g, pref_h = _nb2_tables(theta, int(y.max()) if len(y) else 0)

    with np.errstate(over="ignore", invalid="ignore"):
        eta = estim.design_index(X, beta, layout)
        mu = np.exp(eta)
        u = a * mu
        one_pu = 1.0 + u
        ll_terms = pref_ln[yi] - lgy1 + y * (s + eta) - (y + theta) * np.log1p(u)
        ll = float(np.sum(ll_terms))
        if not np.isfinite(ll):
            dim = k + (1 if fix_log_alpha is None else 0)
            return -np.inf, np.zeros(dim), np.eye(dim)

        d_eta = (y - mu) / one_pu
        grad_b = estim.design_gradient(X, d_eta, layout)
        h_eta = -mu * (1.0 + a * y) / one_pu**2

        if fix_log_alpha is not None:
            return ll, grad_b, estim.design_hessian(X, h_eta, layout)

        hu = np.log1p(u) - u / one_pu
        d_s = pref_g[yi] + hu / a - y * u / one_pu
        grad = np.concatenate((grad_b, [float(np.sum(d_s))]))

        cross = -u * (y - mu) / one_pu**2
        d_ss = pref_h[yi] - hu / a + (mu - y) * u / one_pu**2
        hess = estim.design_hessian(X, h_eta, layout, cross, float(np.sum(d_ss)))
    return ll, grad, hess


def _nb2_profile_mle(y, X, layout, beta, alpha0: float, score0: float):
    """NB2 optimum over (beta, alpha > 0) when the alpha-score at alpha = 0 is
    score0 > 0, so the profile loglik rises from the Poisson boundary.

    By the envelope theorem the derivative of the profile loglik in alpha is
    the partial alpha-score at beta(alpha). Its root is bracketed by moving up
    from alpha0 in factors of 10 and found by Brent's method; each inner Newton
    in beta starts from the previous inner solution, the first from ``beta``.
    Returns the joint (beta, log alpha) MleResult started at that root, whose
    covariance is the inverse of the joint Hessian there, and the Newton
    iterations of every fit.
    """
    lgy1 = gammaln(y + 1.0)
    iterations = 0

    def profile_score(alpha: float) -> float:
        nonlocal beta, iterations
        if alpha == 0.0:
            return score0
        s = float(np.log(alpha))
        res = estim.mle_fit(lambda b: _nb2_parts(b, y, X, lgy1, s, layout=layout), beta)
        beta, iterations = res.params, iterations + res.iterations
        return _nb2_parts(np.append(beta, s), y, X, lgy1, None, layout=layout)[1][-1] / alpha

    lo, hi = 0.0, alpha0
    while profile_score(hi) > 0.0:
        if hi == ALPHA_BOUND:
            raise ConvergenceError(
                f"overdispersion alpha exceeded the bound {ALPHA_BOUND:g} "
                "(severe overdispersion or misfit)"
            )
        lo, hi = hi, min(10.0 * hi, ALPHA_BOUND)
    alpha = brentq(profile_score, lo, hi)
    res = estim.mle_fit(
        lambda p: _nb2_parts(p, y, X, lgy1, None, layout=layout), np.append(beta, np.log(alpha))
    )
    return res, iterations + res.iterations


def nb2_fit(ds: panel.PanelDataset, spec: CountSpec, fix_alpha: float | None = None) -> FitResult:
    """NB2 maximum likelihood over beta and alpha >= 0.

    With entity FE, entities whose count total is zero are dropped first
    (``notes["dropped_entities"]``) and the entity effects are parameters
    without dummy columns, as in poisson_fe_fit: ``notes["entity_effects"]``
    holds them, the baseline entity 0.0. Year effects enter as indicator
    columns.

    Alpha is estimated by profile likelihood and written to ``notes["alpha"]``.
    The Poisson fit (alpha = 0) is the optimum when the alpha-score there,
    (1/2) sum((y - mu)^2 - y), is not positive: alpha is then 0 and
    ``notes["alpha_se"]`` is None. Otherwise the profile loglik is maximised
    over alpha in (0, ALPHA_BOUND] and the covariance comes from the joint
    (beta, log alpha) Hessian at the optimum.
    Either way ``notes["lr_alpha0"]`` holds the one-sided LR test of alpha =
    0, (statistic, p) with p from the chi-bar-squared mixture 1/2 chi2(0) +
    1/2 chi2(1) (Gutierrez, Carter & Drukker 2001).

    ``fix_alpha=0`` holds alpha at 0: the (dummy-variable) Poisson model,
    without ``notes["lr_alpha0"]``. Any ``fix_alpha`` other than None or 0 is
    refused.
    """
    if spec.family not in ("nb2",):
        raise ValidationError("nb2_fit requires family 'nb2'")
    if fix_alpha not in (None, 0):
        raise ValidationError(f"fix_alpha must be None (alpha estimated) or 0 (Poisson), got {fix_alpha!r}")
    mask, y, n_entities_dropped = _count_sample(ds, spec, min_rows=1)
    n = len(y)

    dims = (("entity",) if spec.entity_fe else ()) + (("year",) if spec.year_fe else ())
    X, names, mapping, layout = estim.newton_design(ds, mask, spec.regressors, dims, intercept=True)
    if n < layout.n_params + 2:
        raise ValidationError(f"only {n} complete cases for {layout.n_params} parameters")
    res = _poisson_mle(y, X, names, layout)

    notes: dict = {"alpha_se": None}
    params_b, vcov_b, alpha_hat, iterations = res.params, res.vcov, 0.0, res.iterations
    if fix_alpha is None:
        mu = np.exp(estim.design_index(X, res.params, layout))
        score0 = 0.5 * float(np.sum((y - mu) ** 2 - y))
        poisson_loglik = res.loglik
        if score0 > 0.0:
            ybar = float(np.mean(y))
            alpha0 = min(max((float(np.var(y)) - ybar) / ybar**2 if ybar > 0 else 0.5, 0.01), 10.0)
            res, more = _nb2_profile_mle(y, X, layout, res.params, alpha0, score0)
            params_b, vcov_b = res.params[:-1], res.vcov[:-1, :-1]
            alpha_hat = float(np.exp(res.params[-1]))
            notes["alpha_se"] = float(alpha_hat * np.sqrt(res.vcov[-1, -1]))
            iterations += more
        lr = max(2.0 * (res.loglik - poisson_loglik), 0.0)
        notes["lr_alpha0"] = (lr, 0.5 * float(chdtrc(1, lr)) if lr > 0 else 1.0)

    notes.update(alpha=alpha_hat, dropped_entities=n_entities_dropped, newton_iterations=iterations,
                 grad_norm=res.grad_norm)
    if spec.entity_fe:
        levels = estim.fe_codes(ds, "entity", mask)[1]
        notes["entity_effects"] = dict(zip(levels, [0.0, *params_b[layout.entity_pos]]))
    # with entity FE, mle_fit's covariance already spans only the reported
    # parameters (estim.MleResult)
    coefficients = dict(zip(names, params_b[layout.dense_pos]))
    refit = partial(nb2_fit, fix_alpha=fix_alpha)
    return _count_result(ds, spec, refit, coefficients, vcov_b, res.loglik, n, dims, mapping, notes)


# ---------------------------------------------------------------------------
# calibration


def calibrate_predictions(fit: FitResult, ds: panel.PanelDataset, rule: CalibrationRule) -> np.ndarray:
    """Entity-calibrated count predictions: raw predictions exp(linear_index),
    scaled so each entity's mean over its finite predictions matches its mean
    over its finite realized values, plus epsilon everywhere.

    Works on the dataset's dense grid reshaped to (entities, periods), so the
    per-entity means are row reductions. Entities with zero realized mean get
    all-zero (then epsilon) predictions, entities with no finite realized
    value NaN. ValidationError names the first entity, in dataset order, with
    a non-zero realized mean but no finite raw prediction or a zero raw mean.
    """
    if not ds.has_column(rule.firm_mean_source):
        raise ValidationError(f"realized-count column {rule.firm_mean_source!r} missing")
    shape = (len(ds.entities), len(ds.periods))
    with np.errstate(over="ignore"):
        raw = np.exp(estim.linear_index(fit, ds)).reshape(shape)

    n_real, real_mean = _finite_row_means(ds.column(rule.firm_mean_source).reshape(shape))
    n_raw, raw_mean = _finite_row_means(raw)
    zero = (n_real > 0) & (real_mean == 0.0)
    scaled = (n_real > 0) & ~zero
    bad = scaled & ((n_raw == 0) | (raw_mean == 0.0))
    if bad.any():
        name = ds.entities[int(np.argmax(bad))]
        raise ValidationError(
            f"cannot scale entity {name!r}: zero mean raw prediction but positive realized mean"
        )
    scale = np.full(shape[0], np.nan)
    scale[zero] = 0.0
    scale[scaled] = real_mean[scaled] / raw_mean[scaled]
    with np.errstate(invalid="ignore"):  # inf * 0 in cells that stay NaN
        out = np.where(np.isfinite(raw), raw * scale[:, None], np.nan)
    return out.ravel() + rule.epsilon


def _finite_row_means(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row of v, the count and the mean of its finite entries (NaN for none)."""
    finite = np.isfinite(v)
    count = finite.sum(axis=1)
    with np.errstate(invalid="ignore"):
        return count, np.where(finite, v, 0.0).sum(axis=1) / count


def patent_intensity(predicted: np.ndarray, employees: np.ndarray, epsilon: float = 0.001) -> np.ndarray:
    """Log patent intensity: log(prediction/employees), except rows whose
    pre-epsilon prediction was zero take log(epsilon) without the division."""
    if not epsilon > 0:
        raise ValidationError("epsilon must be > 0")
    predicted = np.asarray(predicted, dtype=float)
    employees = np.asarray(employees, dtype=float)
    out = np.full(predicted.shape, np.nan)
    finite = np.isfinite(predicted)
    zeroish = finite & (np.abs(predicted - epsilon) <= 1e-12)
    out[zeroish] = np.log(epsilon)
    pos = finite & ~zeroish
    bad = pos & np.isfinite(employees) & (employees <= 0)
    if bad.any():
        i = int(np.argmax(bad))
        raise ValidationError(
            f"employees must be positive where predictions are positive (got {employees[i]!r})"
        )
    use = pos & np.isfinite(employees)
    out[use] = np.log(predicted[use] / employees[use])
    return out
