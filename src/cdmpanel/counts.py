"""Count models for patent outcomes plus the prediction-calibration scheme.

Two families:

* ``poisson_fe`` - the exact conditional fixed-effects Poisson, which removes
  entity effects by conditioning on each entity's count total. All-zero
  entities carry no information and are dropped.
* ``nb2`` - negative binomial with Var(y|x) = mu + alpha*mu^2, alpha >= 0,
  estimated by profile likelihood in alpha (as MASS ``glm.nb``): the Poisson
  fit (alpha = 0) first, which is the optimum when the alpha-score there is
  not positive; otherwise a bounded root search on the profile score in
  alpha, with Newton in beta at each alpha, and the covariance from the joint
  (beta, log alpha) Hessian at the optimum. Entity effects are estimated as
  parameters (first kept entity the baseline) but never built as dummy
  columns: their Hessian block is diagonal and is eliminated by a Schur
  complement in each step (estim.newton_design, estim.BlockHessian). As in
  the conditional model, all-zero entities are dropped first (Hausman, Hall
  & Griliches 1984): their effects have no finite MLE.

Calibration rescales raw exponential-index predictions so each entity's mean
prediction matches its realized mean, then adds a small epsilon so logs of
zero-activity entities stay defined.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

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


@dataclass
class CountFit:
    base: FitResult
    family: str
    alpha: float | None = None
    n_dropped_entities: int = 0
    entity_effects: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if self.alpha is not None and self.alpha < 0:
            raise ValidationError("alpha must be non-negative")


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


def _drop_entities(ds: panel.PanelDataset, mask: np.ndarray, y: np.ndarray, min_rows: int):
    """Drop the entities whose count total is zero or that have fewer than
    ``min_rows`` rows: clears their rows in ``mask`` (in place) and returns
    (y on the kept rows, number of entities dropped)."""
    codes, _ = estim.fe_codes(ds, "entity", mask)
    dropped = (np.bincount(codes) < min_rows) | (np.bincount(codes, weights=y) <= 0)
    if dropped.all():
        raise ValidationError("every entity has an all-zero count total; nothing to estimate")
    keep = ~dropped[codes]
    mask[np.flatnonzero(mask)[~keep]] = False
    return y[keep], int(dropped.sum())


# ---------------------------------------------------------------------------
# conditional fixed-effects Poisson


def _segments(entity_idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start offsets and segment ids for entity-major sorted rows."""
    change = np.flatnonzero(np.diff(entity_idx)) + 1
    starts = np.concatenate(([0], change))
    seg_of_row = np.repeat(np.arange(len(starts)), np.diff(np.concatenate((starts, [len(entity_idx)]))))
    return starts, seg_of_row


def _conditional_poisson_parts(beta, y, X, starts, seg_of_row, totals, const):
    eta = X @ beta
    with np.errstate(over="ignore", invalid="ignore"):
        seg_max = np.maximum.reduceat(eta, starts)
        expz = np.exp(eta - seg_max[seg_of_row])
        seg_sum = np.add.reduceat(expz, starts)
        p = expz / seg_sum[seg_of_row]
        lse = seg_max + np.log(seg_sum)
        ll = float(y @ eta - totals @ lse + const)
        if not np.isfinite(ll):
            return -np.inf, np.zeros(X.shape[1]), np.eye(X.shape[1])
        w = totals[seg_of_row] * p
        M = np.empty((len(starts), X.shape[1]))
        for j in range(X.shape[1]):
            M[:, j] = np.add.reduceat(p * X[:, j], starts)
        grad = X.T @ y - M.T @ totals
        hess = -((X * w[:, None]).T @ X - (M * totals[:, None]).T @ M)
    return ll, grad, hess


def poisson_fe_fit(ds: panel.PanelDataset, spec: CountSpec) -> CountFit:
    """Conditional (fixed-effects) Poisson; entities with all-zero totals drop out."""
    if spec.family != "poisson_fe":
        raise ValidationError("poisson_fe_fit requires family 'poisson_fe'")
    mask = estim.complete_case_mask(ds, [spec.dependent, *spec.regressors])
    if not mask.any():
        raise ValidationError("no complete cases for the count model")
    y = _validated_counts(ds.column(spec.dependent)[mask], spec.dependent)
    y, n_entities_dropped = _drop_entities(ds, mask, y, min_rows=2)
    codes, levels = estim.fe_codes(ds, "entity", mask)
    starts, seg_of_row = _segments(codes)

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
    X, names, mapping = estim.design_matrix(ds, mask, slopes, year_dims, intercept=False)
    if not names:
        raise ValidationError("no identifiable regressors remain after absorbing entity-constant columns")

    totals = np.add.reduceat(y, starts)
    const = float(np.sum(gammaln(totals + 1)) - np.sum(gammaln(y + 1)))

    res = estim.mle_fit(
        lambda b: _conditional_poisson_parts(b, y, X, starts, seg_of_row, totals, const),
        np.zeros(X.shape[1]),
    )

    base = FitResult(
        coefficients=dict(zip(names, res.params)),
        vcov=res.vcov,
        n_obs=int(mask.sum()),
        loglik=res.loglik,
        n_dropped=ds.n_rows - int(mask.sum()),
        notes={
            "model": "poisson_fe",
            "fe_dims": ("entity", *year_dims),
            "fe_dummies": mapping,
            "absorbed_columns": tuple(absorbed),
            "dropped_entities": n_entities_dropped,
            "newton_iterations": res.iterations,
            "grad_norm": res.grad_norm,
        },
    )
    analytic = replace(spec, vcov=VcovSpec())
    estim.apply_vcov(base, lambda dsb: poisson_fe_fit(dsb, analytic).base, ds, spec.vcov, "poisson_fe_fit")
    if slopes:
        base.wald_chi2 = estim.wald_chi2(base, slopes)
        base.notes["wald_restrictions"] = tuple(slopes)

    eta = X @ res.params
    seg_max = np.maximum.reduceat(eta, starts)
    seg_sum = np.add.reduceat(np.exp(eta - seg_max[seg_of_row]), starts)
    denom = np.exp(seg_max) * seg_sum
    effects = {level: float(t / d) for level, t, d in zip(levels, totals, denom)}
    return CountFit(
        base=base,
        family="poisson_fe",
        alpha=None,
        n_dropped_entities=n_entities_dropped,
        entity_effects=effects,
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


def _nb2_parts(params, y, X, lgy1, fix_log_alpha, layout=None):
    """Loglik, gradient, Hessian for NB2 over (beta, log alpha); beta spans X
    and, with an estim.EntityLayout, the entity effects.

    Uses exact finite-sum identities for the Gamma-function differences so the
    alpha -> 0 (Poisson) limit stays numerically stable. Probes beyond the
    alpha bound, or where exp(log alpha) underflows, report -inf so the line
    search retreats.
    """
    k = X.shape[1] if layout is None else layout.n_params
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


def _nb2_profile_mle(y, X, lgy1, layout, beta, alpha0: float, score0: float):
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


def nb2_fit(ds: panel.PanelDataset, spec: CountSpec, fix_alpha: float | None = None) -> CountFit:
    """NB2 maximum likelihood over beta and alpha >= 0.

    With entity FE, entities whose count total is zero are dropped first
    (``CountFit.n_dropped_entities``). Year effects enter as indicator
    columns. Entity effects are estimated as parameters, first kept entity
    the baseline, without dummy columns: each Newton step eliminates their
    diagonal Hessian block by a Schur complement.

    Alpha is estimated by profile likelihood. The Poisson fit (alpha = 0) is
    the optimum when the alpha-score there, (1/2) sum((y - mu)^2 - y), is not
    positive: alpha is then 0 and ``notes["alpha_se"]`` is None. Otherwise the
    profile loglik is maximised over alpha in (0, ALPHA_BOUND] and the
    covariance comes from the joint (beta, log alpha) Hessian at the optimum.
    Either way ``notes["lr_alpha0"]`` holds the one-sided LR test of alpha =
    0, (statistic, p) with p from the chi-bar-squared mixture 1/2 chi2(0) +
    1/2 chi2(1) (Gutierrez, Carter & Drukker 2001).

    ``fix_alpha`` holds alpha at the given value; ``fix_alpha=0`` is the
    (dummy-variable) Poisson model.
    """
    if spec.family not in ("nb2",):
        raise ValidationError("nb2_fit requires family 'nb2'")
    if fix_alpha is not None and fix_alpha < 0:
        raise ValidationError("fix_alpha must be >= 0")
    mask = estim.complete_case_mask(ds, [spec.dependent, *spec.regressors])
    if not mask.any():
        raise ValidationError("no complete cases for the count model")
    y = _validated_counts(ds.column(spec.dependent)[mask], spec.dependent)
    n_entities_dropped = 0
    if spec.entity_fe:
        y, n_entities_dropped = _drop_entities(ds, mask, y, min_rows=1)
    n = int(mask.sum())

    dims = (("entity",) if spec.entity_fe else ()) + (("year",) if spec.year_fe else ())
    X, names, mapping, layout = estim.newton_design(ds, mask, spec.regressors, dims, intercept=True)
    if n < len(names) + 2:
        raise ValidationError(f"only {n} complete cases for {len(names)} parameters")
    lgy1 = gammaln(y + 1.0)

    ybar = float(np.mean(y))
    start_b = np.zeros(len(names))
    start_b[-1] = np.log(ybar) if ybar > 0 else 0.0

    notes: dict = {"alpha_se": None}
    if fix_alpha is not None and fix_alpha > 0:
        s_fix = float(np.log(fix_alpha))
        res = estim.mle_fit(lambda b: _nb2_parts(b, y, X, lgy1, s_fix, layout=layout), start_b)
        params_b, vcov_b, alpha_hat, iterations = res.params, res.vcov, fix_alpha, res.iterations
    else:
        res = estim.mle_fit(lambda b: _poisson_parts(b, y, X, lgy1, layout), start_b)
        params_b, vcov_b, alpha_hat, iterations = res.params, res.vcov, 0.0, res.iterations
        if fix_alpha is None:
            mu = np.exp(estim.design_index(X, res.params, layout))
            score0 = 0.5 * float(np.sum((y - mu) ** 2 - y))
            poisson_loglik = res.loglik
            if score0 > 0.0:
                alpha0 = min(max((float(np.var(y)) - ybar) / ybar**2 if ybar > 0 else 0.5, 0.01), 10.0)
                res, more = _nb2_profile_mle(y, X, lgy1, layout, res.params, alpha0, score0)
                params_b, vcov_b = res.params[:-1], res.vcov[:-1, :-1]
                alpha_hat = float(np.exp(res.params[-1]))
                notes["alpha_se"] = float(alpha_hat * np.sqrt(res.vcov[-1, -1]))
                iterations += more
            lr = max(2.0 * (res.loglik - poisson_loglik), 0.0)
            notes["lr_alpha0"] = (lr, 0.5 * float(chdtrc(1, lr)) if lr > 0 else 1.0)

    coef = dict(zip(names, params_b))
    entity_effects = {}
    keep_names = [nm for nm in names if not nm.startswith("entity=")]
    if spec.entity_fe:
        entity_effects[estim.fe_codes(ds, "entity", mask)[1][0]] = 1.0
        for nm, (dim, level) in mapping.items():
            if dim == "entity":
                entity_effects[level] = float(np.exp(coef[nm]))
    keep_ix = [names.index(nm) for nm in keep_names]

    base = FitResult(
        coefficients={nm: coef[nm] for nm in keep_names},
        vcov=vcov_b[np.ix_(keep_ix, keep_ix)],
        n_obs=n,
        loglik=res.loglik,
        n_dropped=ds.n_rows - n,
        notes={
            "model": "nb2",
            "fe_dims": dims,
            "fe_dummies": {nm: mapping[nm] for nm in mapping if not nm.startswith("entity=")},
            **notes,
            "dropped_entities": n_entities_dropped,
            "newton_iterations": iterations,
            "grad_norm": res.grad_norm,
        },
    )
    analytic = replace(spec, vcov=VcovSpec())
    estim.apply_vcov(base, lambda dsb: nb2_fit(dsb, analytic, fix_alpha).base, ds, spec.vcov, "nb2_fit")
    slope_names = [nm for nm in spec.regressors]
    if slope_names:
        base.wald_chi2 = estim.wald_chi2(base, slope_names)
        base.notes["wald_restrictions"] = tuple(slope_names)
    return CountFit(
        base=base,
        family="nb2",
        alpha=alpha_hat,
        n_dropped_entities=n_entities_dropped,
        entity_effects=entity_effects,
    )


def _poisson_parts(beta, y, X, lgy1, layout=None):
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
# calibration


def calibrate_predictions(fit: CountFit, ds: panel.PanelDataset, rule: CalibrationRule) -> np.ndarray:
    """Entity-calibrated count predictions: raw exp-index predictions, scaled so
    each entity's mean matches its realized mean, plus epsilon everywhere.

    Entities with zero realized mean get all-zero (then epsilon) predictions.
    """
    if not ds.has_column(rule.firm_mean_source):
        raise ValidationError(f"realized-count column {rule.firm_mean_source!r} missing")
    index = estim.linear_index(fit.base, ds)
    with np.errstate(over="ignore"):
        raw = np.exp(index)
    ent_idx = ds.entity_index()
    for i, name in enumerate(ds.entities):
        eff = fit.entity_effects.get(name, 1.0)
        if eff != 1.0:
            raw[ent_idx == i] = raw[ent_idx == i] * eff

    realized = ds.column(rule.firm_mean_source)
    out = np.full(ds.n_rows, np.nan)
    for i, name in enumerate(ds.entities):
        rows = ent_idx == i
        real = realized[rows]
        real = real[np.isfinite(real)]
        if real.size == 0:
            continue
        real_mean = float(np.mean(real))
        raw_e = raw[rows]
        finite = np.isfinite(raw_e)
        if real_mean == 0.0:
            vals = np.where(finite, 0.0, np.nan)
        else:
            if not finite.any() or float(np.mean(raw_e[finite])) == 0.0:
                raise ValidationError(
                    f"cannot scale entity {name!r}: zero mean raw prediction but positive realized mean"
                )
            scale = real_mean / float(np.mean(raw_e[finite]))
            vals = np.where(finite, raw_e * scale, np.nan)
        out[rows] = vals
    return out + rule.epsilon


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
