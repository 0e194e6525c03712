"""Count models for patent outcomes plus the prediction-calibration scheme.

Two families:

* ``poisson_fe`` - the exact conditional fixed-effects Poisson, which removes
  entity effects by conditioning on each entity's count total. All-zero
  entities carry no information and are dropped.
* ``nb2`` - negative binomial with Var(y|x) = mu + alpha*mu^2, estimated
  jointly over (beta, log alpha) by Newton steps. Entity effects are
  estimated as parameters (first entity the baseline) but never built as
  dummy columns: their Hessian block is diagonal and is eliminated by a Schur
  complement in each step (estim.newton_design, estim.BlockHessian).

Calibration rescales raw exponential-index predictions so each entity's mean
prediction matches its realized mean, then adds a small epsilon so logs of
zero-activity entities stay defined.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln

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

    codes, _ = estim.fe_codes(ds, "entity", mask)
    starts, seg_of_row = _segments(codes)
    sizes = np.diff(np.append(starts, len(y)))
    dropped = (sizes < 2) | (np.add.reduceat(y, starts) <= 0)
    n_entities_dropped = int(dropped.sum())
    if dropped.all():
        raise ValidationError("every entity has an all-zero count total; nothing to estimate")
    keep = ~dropped[seg_of_row]
    mask[np.flatnonzero(mask)[~keep]] = False
    y = y[keep]
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

    notes = {
        "model": "poisson_fe",
        "fe_dims": ("entity", *year_dims),
        "fe_dummies": mapping,
        "absorbed_columns": tuple(absorbed),
        "dropped_entities": n_entities_dropped,
        "newton_iterations": res.iterations,
        "grad_norm": res.grad_norm,
    }
    if spec.vcov.kind == "cluster_bootstrap":
        def refit(dsb: panel.PanelDataset) -> np.ndarray:
            fb = poisson_fe_fit(dsb, CountSpec(spec.dependent, spec.regressors, spec.family,
                                               spec.entity_fe, spec.year_fe, VcovSpec("analytic")))
            return np.array([fb.base.coefficients[name] for name in names])

        boot = estim.bootstrap_vcov(refit, ds, spec.vcov)
        V, tag = boot.vcov, spec.vcov.tag()
        notes["bootstrap_failures"] = boot.n_failed
    else:
        V, tag = res.vcov, "analytic"

    base = FitResult(
        coefficients=dict(zip(names, res.params)),
        vcov=V,
        n_obs=int(mask.sum()),
        loglik=res.loglik,
        se_method=tag,
        n_dropped=ds.n_rows - int(mask.sum()),
        notes=notes,
    )
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


def _nb2_parts(params, y, X, lgy1, fix_log_alpha, probe_log=None, layout=None):
    """Loglik, gradient, Hessian for NB2 over (beta, log alpha); beta spans X
    and, with an estim.EntityLayout, the entity effects.

    Uses exact finite-sum identities for the Gamma-function differences so the
    alpha -> 0 (Poisson) limit stays numerically stable. Probes beyond the
    alpha bound report -inf so the line search retreats; the caller decides
    whether the bound was genuinely hit.
    """
    k = X.shape[1] if layout is None else layout.n_params
    if fix_log_alpha is None:
        beta, s = params[:k], params[k]
    else:
        beta, s = params, fix_log_alpha
    if s > np.log(ALPHA_BOUND):
        if probe_log is not None:
            probe_log["alpha_bound_hit"] = True
        dim = k + (1 if fix_log_alpha is None else 0)
        return -np.inf, np.zeros(dim), np.eye(dim)
    a = float(np.exp(s))
    if a == 0.0:
        # exp(s) underflowed: theta = 1/a does not exist, so retreat as above
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


def nb2_fit(ds: panel.PanelDataset, spec: CountSpec, fix_alpha: float | None = None) -> CountFit:
    """NB2 maximum likelihood over (beta, log alpha).

    Year effects enter as indicator columns. Entity effects are estimated as
    parameters, first entity the baseline, without dummy columns: each Newton
    step eliminates their diagonal Hessian block by a Schur complement.
    ``fix_alpha=0`` collapses to the (dummy-variable) Poisson model.
    """
    if spec.family not in ("nb2",):
        raise ValidationError("nb2_fit requires family 'nb2'")
    mask = estim.complete_case_mask(ds, [spec.dependent, *spec.regressors])
    if not mask.any():
        raise ValidationError("no complete cases for the count model")
    y = _validated_counts(ds.column(spec.dependent)[mask], spec.dependent)
    n = int(mask.sum())

    dims = (("entity",) if spec.entity_fe else ()) + (("year",) if spec.year_fe else ())
    X, names, mapping, layout = estim.newton_design(ds, mask, spec.regressors, dims, intercept=True)
    if n < len(names) + 2:
        raise ValidationError(f"only {n} complete cases for {len(names)} parameters")
    lgy1 = gammaln(y + 1.0)

    ybar = float(np.mean(y))
    start_b = np.zeros(len(names))
    start_b[-1] = np.log(ybar) if ybar > 0 else 0.0

    if fix_alpha is not None:
        if fix_alpha < 0:
            raise ValidationError("fix_alpha must be >= 0")
        if fix_alpha == 0.0:
            res = estim.mle_fit(lambda b: _poisson_parts(b, y, X, lgy1, layout), start_b)
            alpha_hat = 0.0
        else:
            s_fix = float(np.log(fix_alpha))
            res = estim.mle_fit(lambda b: _nb2_parts(b, y, X, lgy1, s_fix, layout=layout), start_b)
            alpha_hat = fix_alpha
        params_b, vcov_b = res.params, res.vcov
        alpha_se = None
    else:
        v = float(np.var(y))
        alpha0 = min(max((v - ybar) / ybar**2 if ybar > 0 else 0.5, 0.01), 10.0)
        start = np.concatenate((start_b, [np.log(alpha0)]))
        probe_log: dict = {}
        try:
            res = estim.mle_fit(lambda p: _nb2_parts(p, y, X, lgy1, None, probe_log, layout), start)
            params_b = res.params[:-1]
            vcov_b = res.vcov[:-1, :-1]
            alpha_hat = float(np.exp(res.params[-1]))
            alpha_se = float(alpha_hat * np.sqrt(res.vcov[-1, -1]))
            if alpha_hat > 0.999 * ALPHA_BOUND:
                raise ConvergenceError(
                    f"overdispersion alpha exceeded the bound {ALPHA_BOUND:g} "
                    "(severe overdispersion or misfit)"
                )
        except ConvergenceError:
            # alpha heading for the Poisson boundary flattens the Hessian in
            # log-alpha; accept alpha = 0 when the overdispersion score there
            # is non-positive, otherwise the failure is genuine
            res = estim.mle_fit(lambda b: _poisson_parts(b, y, X, lgy1, layout), start_b)
            mu = np.exp(estim.design_index(X, res.params, layout))
            score_alpha = 0.5 * float(np.sum((y - mu) ** 2 - y))
            if score_alpha > 1e-6 * n:
                if probe_log.get("alpha_bound_hit"):
                    raise ConvergenceError(
                        f"overdispersion alpha exceeded the bound {ALPHA_BOUND:g} "
                        "(severe overdispersion or misfit)"
                    ) from None
                raise
            params_b, vcov_b = res.params, res.vcov
            alpha_hat = 0.0
            alpha_se = None

    coef = dict(zip(names, params_b))
    entity_effects = {}
    keep_names = [nm for nm in names if not nm.startswith("entity=")]
    if spec.entity_fe:
        entity_effects[estim.fe_codes(ds, "entity", mask)[1][0]] = 1.0
        for nm, (dim, level) in mapping.items():
            if dim == "entity":
                entity_effects[level] = float(np.exp(coef[nm]))
    keep_ix = [names.index(nm) for nm in keep_names]

    notes = {
        "model": "nb2",
        "fe_dims": dims,
        "fe_dummies": {nm: mapping[nm] for nm in mapping if not nm.startswith("entity=")},
        "alpha_se": alpha_se,
        "newton_iterations": res.iterations,
        "grad_norm": res.grad_norm,
    }
    if spec.vcov.kind == "cluster_bootstrap":
        def refit(dsb: panel.PanelDataset) -> np.ndarray:
            fb = nb2_fit(dsb, CountSpec(spec.dependent, spec.regressors, spec.family,
                                        spec.entity_fe, spec.year_fe, VcovSpec("analytic")),
                         fix_alpha=fix_alpha)
            return np.array([fb.base.coefficients[name] for name in keep_names])

        boot = estim.bootstrap_vcov(refit, ds, spec.vcov)
        V, tag = boot.vcov, spec.vcov.tag()
        notes["bootstrap_failures"] = boot.n_failed
    else:
        V, tag = vcov_b[np.ix_(keep_ix, keep_ix)], "analytic"

    base = FitResult(
        coefficients={nm: coef[nm] for nm in keep_names},
        vcov=V,
        n_obs=n,
        loglik=res.loglik,
        se_method=tag,
        n_dropped=ds.n_rows - n,
        notes=notes,
    )
    slope_names = [nm for nm in spec.regressors]
    if slope_names:
        base.wald_chi2 = estim.wald_chi2(base, slope_names)
        base.notes["wald_restrictions"] = tuple(slope_names)
    return CountFit(
        base=base,
        family="nb2",
        alpha=alpha_hat,
        n_dropped_entities=0,
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
