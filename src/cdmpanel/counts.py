"""Count models for patent outcomes plus the prediction-calibration scheme.

One fit per count model (count_fits): its families share one sample
(complete cases with validated counts, less, with entity FE, the entities
whose count total is zero, since their effects have no finite MLE, or that
have a single distinct complete row), one design of all its regressors and one
dummy-variable Poisson MLE, started at its exact profile for zero slopes:
each entity's log mean count. Each family runs its own tail on that MLE, and
one bootstrap settles every family's covariance. Entity effects (always in
``poisson_fe``, optional in ``nb2``) are nuisance parameters, never dummy
columns: their diagonal Hessian block is eliminated by a Schur complement in
each Newton step (estim.newton_design, estim.BlockHessian). One rule holds
in both families: the level ``_cons`` is one of them, so the coefficients are
the slopes and year effects, and ``notes["entity_effects"]`` ({label:
absolute effect on the linear index}) holds the levels for
estim.linear_index; an entity-constant regressor is named by
CollinearityError, and a model of entity effects alone is refused.

* ``poisson_fe`` (poisson_fe_fit) - the fixed-effects Poisson: that MLE gives
  the slopes and slope covariance of the conditional likelihood (Hausman,
  Hall & Griliches 1984), whose loglik is reported.
* ``nb2`` (nb2_fit) - negative binomial with Var(y|x) = mu + alpha*mu^2,
  alpha >= 0, which nests that Poisson fit at alpha = 0: the optimum stays
  there unless the alpha-score is positive, and is otherwise reached by one
  joint Newton in (beta, log alpha) started from it and its moment alpha.

Calibration rescales raw exponential-index predictions so each entity's mean
prediction matches its realized mean, then adds a small epsilon so logs of
zero-activity entities stay defined. The rescaling absorbs the entity effects,
so they only set a level that it takes out again.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np
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


def _count_sample(ds: panel.PanelDataset, spec: CountSpec, counts: np.ndarray, rows: np.ndarray):
    """The rows a count fit uses of ``rows``, row indices of its complete
    cases: with entity FE, less the entities whose count total is zero or
    that have a single distinct complete row, which its own effect fits
    exactly (an entity drawn twice has its rows twice). ``counts`` are the
    validated counts of every dataset row. Returns (those rows, y on them,
    number of entities dropped)."""
    if not len(rows):
        raise ValidationError("no complete cases for the count model")
    y = counts[rows]
    if not spec.entity_fe:
        return rows, y, 0
    codes, _ = estim.sample_codes(ds, rows, "entity")
    single = np.bincount(codes[np.unique(rows, return_index=True)[1]]) < 2
    zero = np.bincount(codes, weights=y) <= 0
    dropped = single | zero
    if dropped.all():
        cause = ("an all-zero count total" if zero.all() else "a single complete row" if single.all()
                 else "an all-zero count total or a single complete row")
        raise ValidationError(f"every entity has {cause}; nothing to estimate")
    keep = ~dropped[codes]
    return rows[keep], y[keep], int(dropped.sum())


def _poisson_mle(y, X, names, layout) -> estim.MleResult:
    """The Poisson MLE on a newton_design design (intercept last among X's
    columns), after screen_rank. It starts at the exact profile for zero
    slopes: each entity's log mean count, the baseline's at ``_cons`` and the
    others' relative to it; without entity effects ``_cons`` at the log mean
    count, or at 0 when every count is 0."""
    estim.screen_rank(X, names, layout, intercept=True)
    means = np.bincount(layout.codes, weights=y) / np.bincount(layout.codes)
    log_means = np.log(means, out=np.zeros_like(means), where=means > 0)
    start = np.concatenate((np.zeros(layout.n_dense - 1), log_means[:1], log_means[1:] - log_means[0]))
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


# ---------------------------------------------------------------------------
# one fit for every family of a count model


class _Optimum(NamedTuple):
    """One family's optimum, reached from a count model's Poisson MLE: the
    MleResult there (over [beta_X, log alpha, entity effects] for an NB2
    with alpha > 0), the parameters beta (X's columns, then the entity
    effects), their covariance, alpha and the Newton iterations of every fit
    on the way."""

    res: estim.MleResult
    params: np.ndarray
    vcov: np.ndarray
    alpha: float
    iterations: int


def count_fits(ds: panel.PanelDataset, specs, fix_alpha: float | None = None) -> list[FitResult]:
    """One FitResult per spec, in order; the specs may differ only in
    ``family``, and ``fix_alpha`` is nb2_fit's. One estim.apply_vcov settles
    every family's covariance: a bootstrap replicate is the point solve of
    every family on the draw's rows (its sample drops made per draw), so one
    that fails in one family is dropped for all. The counts are checked
    once, here, since a draw only repeats cells. The point fit then gets
    each family's notes and the Wald test that its regressors are jointly
    zero."""
    specs = tuple(specs)
    if not specs:
        raise ValidationError("count_fits needs at least one CountSpec")
    spec = specs[0]
    # nb2 accepts every value of the other fields
    if any(replace(s, family="nb2") != replace(spec, family="nb2") for s in specs):
        raise ValidationError("the CountSpecs of one count model may differ only in family")
    if fix_alpha not in (None, 0):
        raise ValidationError(f"fix_alpha must be None (alpha estimated) or 0 (Poisson), got {fix_alpha!r}")
    families = [s.family for s in specs]
    mask = estim.complete_case_mask(ds, [spec.dependent, *spec.regressors])
    counts = np.full(ds.n_rows, np.nan)
    counts[mask] = _validated_counts(ds.column(spec.dependent)[mask], spec.dependent)
    dims = (("entity",) if spec.entity_fe else ()) + (("year",) if spec.year_fe else ())

    def solve(rows: np.ndarray):
        """The model on row indices of its complete cases: (names, layout, the
        _Optimum of each family, the Poisson MLE, the rows it uses, y,
        entities dropped, X, fe_dummies)."""
        rows, y, n_dropped = _count_sample(ds, spec, counts, rows)
        X, names, mapping, layout = estim.newton_design(ds, rows, spec.regressors, dims, intercept=True)
        n = len(y)
        if spec.entity_fe and layout.n_dense == 1:  # nothing but _cons, one of the entity levels
            raise ValidationError("no identifiable regressors beside the entity effects")
        k = layout.n_dense + layout.n_entity
        if "nb2" in families and n < k + 2:  # NB2 also fits log alpha
            raise ValidationError(f"only {n} complete cases for {k + 1} parameters")
        if n < k:
            raise ValidationError(f"only {n} complete cases for {k} parameters")
        res = _poisson_mle(y, X, names, layout)
        optima = [_Optimum(res, res.params, res.vcov, 0.0, res.iterations) if family == "poisson_fe"
                  else _nb2_optimum(res, y, X, layout, fix_alpha) for family in families]
        return names, layout, optima, res, rows, y, n_dropped, X, mapping

    def coefficients(names, layout, opt: _Optimum) -> dict[str, float]:
        out = dict(zip(names, opt.params[: layout.n_dense]))
        if spec.entity_fe:  # _cons is in the entity effects (intercept last)
            del out[estim.INTERCEPT]
        return out

    names, layout, optima, res, rows, y, n_entities_dropped, X, mapping = solve(np.flatnonzero(mask))
    levels = estim.fe_codes(ds, "entity", rows)[1] if spec.entity_fe else None
    n = len(y)
    fits = []
    for family, opt in zip(families, optima):
        loglik, notes = (_poisson_fe_tail(opt, y, X, layout, levels) if family == "poisson_fe"
                         else _nb2_tail(res, opt, layout, levels, fix_alpha))
        fits.append(FitResult(
            coefficients=coefficients(names, layout, opt),
            vcov=opt.vcov[:-1, :-1] if spec.entity_fe else opt.vcov, n_obs=n, loglik=loglik,
            n_dropped=ds.n_rows - n,
            notes={"fe_dims": dims, "fe_dummies": mapping, "dropped_entities": n_entities_dropped, **notes},
        ))

    def refit(rows: np.ndarray) -> list[dict[str, float]]:
        names, layout, optima, *_ = solve(rows)
        return [coefficients(names, layout, opt) for opt in optima]

    estim.apply_vcov(fits, refit, ds, mask, spec.vcov)
    if spec.regressors:
        for fit in fits:
            estim.attach_wald(fit, spec.regressors)
    return fits


# ---------------------------------------------------------------------------
# fixed-effects Poisson


def poisson_fe_fit(ds: panel.PanelDataset, spec: CountSpec) -> FitResult:
    """Fixed-effects Poisson, a one-family count_fits. Its slopes and their
    covariance are those of the conditional likelihood (Hausman, Hall &
    Griliches 1984), and ``loglik`` is the conditional one, the unconditional
    loglik plus sum_i [lgamma(T_i+1) - T_i log T_i + T_i] over the entity
    totals T_i. The coefficients are the slopes and year effects; the entity
    effects, the level included, are not, and ``notes["entity_effects"]``
    holds each kept entity's log T_i - log sum_t exp(x_it'b). A regressor
    constant within every entity raises CollinearityError naming it.
    """
    if spec.family != "poisson_fe":
        raise ValidationError("poisson_fe_fit requires family 'poisson_fe'")
    return count_fits(ds, [spec])[0]


def _poisson_fe_tail(opt: _Optimum, y, X, layout, levels):
    """The FE Poisson's loglik and notes in count_fits, at its _Optimum, the Poisson MLE."""
    res = opt.res
    beta = res.params[: layout.n_dense - 1]  # slopes and year effects: all but _cons and entity effects
    totals = np.bincount(layout.codes, weights=y)
    loglik = res.loglik + float(np.sum(gammaln(totals + 1.0) - totals * np.log(totals) + totals))
    denom = np.bincount(layout.codes, weights=np.exp(X[:, :-1] @ beta))
    notes = {"newton_iterations": res.iterations, "grad_norm": res.grad_norm,
             "entity_effects": dict(zip(levels, (np.log(totals) - np.log(denom)).tolist()))}
    return loglik, notes


# ---------------------------------------------------------------------------
# NB2


def _nb2_tables(theta: float, ymax: int):
    j = np.arange(ymax, dtype=float)
    r = j / theta
    pref_ln = np.concatenate(([0.0], np.cumsum(np.log(theta) + np.log1p(r))))
    pref_g = np.concatenate(([0.0], np.cumsum(r / (1.0 + r))))
    pref_h = np.concatenate(([0.0], np.cumsum(r / (1.0 + r) ** 2)))
    return pref_ln, pref_g, pref_h


def _nb2_parts(params, y, X, lgy1, layout):
    """Loglik, gradient, Hessian for NB2 over X's columns, log alpha, then
    the entity effects of the estim.EntityLayout: log alpha is the last dense
    parameter.

    Uses exact finite-sum identities for the Gamma-function differences so the
    alpha -> 0 (Poisson) limit stays numerically stable. Probes beyond the
    alpha bound, or where exp(log alpha) underflows, report -inf so the line
    search retreats; the bound is checked first, since exp overflows far past it.
    """
    m = layout.n_dense
    s = params[m]
    a = float(np.exp(s)) if s <= np.log(ALPHA_BOUND) else np.inf
    if a in (0.0, np.inf):
        return -np.inf, np.zeros(len(params)), np.eye(len(params))
    theta = 1.0 / a
    yi = y.astype(int)
    pref_ln, pref_g, pref_h = _nb2_tables(theta, int(y.max()) if len(y) else 0)

    with np.errstate(over="ignore", invalid="ignore"):
        eta = estim.design_index(X, params, layout)
        mu = np.exp(eta)
        u = a * mu
        one_pu = 1.0 + u
        ll_terms = pref_ln[yi] - lgy1 + y * (s + eta) - (y + theta) * np.log1p(u)
        ll = float(np.sum(ll_terms))
        if not np.isfinite(ll):
            return -np.inf, np.zeros(len(params)), np.eye(len(params))

        d_eta = (y - mu) / one_pu
        h_eta = -mu * (1.0 + a * y) / one_pu**2

        hu = np.log1p(u) - u / one_pu
        d_s = pref_g[yi] + hu / a - y * u / one_pu
        grad = np.insert(estim.design_gradient(X, d_eta, layout), m, float(np.sum(d_s)))

        cross = -u * (y - mu) / one_pu**2
        d_ss = pref_h[yi] - hu / a + (mu - y) * u / one_pu**2
        hess = estim.design_hessian(X, h_eta, layout, cross, float(np.sum(d_ss)))
    return ll, grad, hess


def nb2_fit(ds: panel.PanelDataset, spec: CountSpec, fix_alpha: float | None = None) -> FitResult:
    """NB2 maximum likelihood over beta and alpha >= 0; a one-family count_fits.
    Year effects enter as indicator columns. With entity FE the coefficients
    and their covariance are the FE Poisson's: slopes and year effects, no
    ``_cons``; ``notes["entity_effects"]`` holds each kept entity's absolute
    effect on the linear index, the level included.

    Alpha is written to ``notes["alpha"]``. The Poisson fit (alpha = 0) is
    the optimum when the alpha-score there, (1/2) sum((y - mu)^2 - y), is not
    positive: alpha is then 0 and ``notes["alpha_se"]`` is None. Otherwise
    one joint Newton in (beta, log alpha), started at the Poisson MLE and the
    moment estimate of alpha there, sum((y - mu)^2 - y) / sum(mu^2) (Cameron
    & Trivedi 1990) capped at ALPHA_BOUND, finds the optimum in (0,
    ALPHA_BOUND], and the covariance comes from the joint Hessian there;
    ConvergenceError names the bound when that Newton fails.
    Either way ``notes["lr_alpha0"]`` holds the one-sided LR test of alpha =
    0, (statistic, p) with p from the chi-bar-squared mixture 1/2 chi2(0) +
    1/2 chi2(1) (Gutierrez, Carter & Drukker 2001).

    ``fix_alpha=0`` holds alpha at 0: the (dummy-variable) Poisson model,
    without ``notes["lr_alpha0"]``. Any ``fix_alpha`` other than None or 0 is
    refused.

    With entity FE, alpha has the incidental-parameters bias of a fixed
    number of periods (Neyman & Scott 1948). In synthdgp.monte_carlo's
    ``nb2`` estimator (150 entities, alpha 0.8, 12 replications, seed 7) the
    mean alpha is 0.466 at 6 periods and 0.701 at 20, with 95% coverage 0.0
    and 0.33; the slope's coverage is 0.95 at 200 entities and 6 periods (20
    replications).
    """
    if spec.family != "nb2":
        raise ValidationError("nb2_fit requires family 'nb2'")
    return count_fits(ds, [spec], fix_alpha)[0]


def _nb2_optimum(res, y, X, layout, fix_alpha) -> _Optimum:
    """NB2's optimum from the Poisson MLE ``res``, the fit at alpha = 0."""
    if fix_alpha is None:
        mu = np.exp(estim.design_index(X, res.params, layout))
        score0 = 0.5 * float(np.sum((y - mu) ** 2 - y))
        if score0 > 0.0:
            alpha0 = min(2.0 * score0 / float(np.sum(mu**2)), ALPHA_BOUND)  # the moment estimate
            lgy1 = gammaln(y + 1.0)
            try:
                opt = estim.mle_fit(lambda p: _nb2_parts(p, y, X, lgy1, layout),
                                    np.insert(res.params, layout.n_dense, np.log(alpha0)))
            except ConvergenceError as exc:
                raise ConvergenceError(
                    f"no NB2 optimum with overdispersion alpha within the bound {ALPHA_BOUND:g} "
                    f"(severe overdispersion or misfit): {exc}"
                ) from exc
            return _Optimum(opt, np.delete(opt.params, layout.n_dense), opt.vcov[:-1, :-1],
                            float(np.exp(opt.params[layout.n_dense])), res.iterations + opt.iterations)
    return _Optimum(res, res.params, res.vcov, 0.0, res.iterations)


def _nb2_tail(res, opt: _Optimum, layout, levels, fix_alpha):
    """NB2's loglik and notes in count_fits at its _Optimum ``opt``, reached
    from the Poisson MLE ``res``; ``levels`` is None without entity FE."""
    notes: dict = {"alpha_se": None}
    if opt.res is not res:
        notes["alpha_se"] = float(opt.alpha * np.sqrt(opt.res.vcov[-1, -1]))
    if fix_alpha is None:
        lr = max(2.0 * (opt.res.loglik - res.loglik), 0.0)
        notes["lr_alpha0"] = (lr, 0.5 * float(chdtrc(1, lr)) if lr > 0 else 1.0)
    notes.update(alpha=opt.alpha, newton_iterations=opt.iterations, grad_norm=opt.res.grad_norm)
    if levels is not None:  # absolute: the baseline's level _cons plus each relative effect
        effects = opt.params[layout.n_dense - 1] + np.concatenate(([0.0], opt.params[layout.n_dense:]))
        notes["entity_effects"] = dict(zip(levels, effects.tolist()))
    return opt.res.loglik, notes


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
