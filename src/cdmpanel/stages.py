"""The CDM chain's stages as functions that fit models and write nothing.

Each takes the dataset so far, what the config parse built for the stage and
`vcov_for(salt)`, the covariance spec of a fit whose bootstrap seed carries
that per-stage salt. It returns the dataset with the stage's generated columns
added and a `StageFit` per fitted model, in results-document order. Calling
the functions of STAGE_ORDER in turn runs the chain in memory.
"""

from __future__ import annotations

import dataclasses

from . import counts as _counts, cqr as _cqr, heckman as _heckman, productivity as _productivity, rif
from .estim import FitResult

STAGE_ORDER = ("heckman", "counts", "productivity", "uqr", "treatment", "cqr")


@dataclasses.dataclass(frozen=True)
class StageFit:
    """One fitted model of a stage and where it is shown."""

    model: str  # its name in the results document and the manifest
    fit: FitResult
    column: str  # its table column label
    title: str  # its table's title; "{subsample}" stands for the subsample's name
    plot: tuple[str, ...] = ()  # regressors whose estimates across tau get plot data

    @property
    def tau(self) -> float | None:
        """The quantile a uqr, treatment or cqr fit notes; None for the other fits."""
        return self.fit.notes.get("tau")


def heckman(ds, parsed, vcov_for):
    spec, predict_as = parsed
    fit = _heckman.heckman_two_step(ds, dataclasses.replace(spec, vcov=vcov_for(1)))
    title = "R&D equation (Heckman two-step), subsample {subsample}"
    fits = [StageFit("step2", fit.outcome, "R&D investment", f"{title}: step 2"),
            StageFit("step1_probit", fit.probit, "R&D dummy (probit)", f"{title}: step 1")]
    return ds.with_column(predict_as, _heckman.predict_linear_index(fit, ds)), fits


def counts(ds, parsed, vcov_for):
    employees, models = parsed
    out = []
    for label, specs, predict_family, rule, predict_as, intensity_as in models:
        specs = [dataclasses.replace(spec, vcov=vcov_for(2)) for spec in specs]
        fits = _counts.count_fits(ds, specs)
        out += [StageFit(f"{label}_{spec.family}", fit, f"{label} {spec.family}",
                         "Patent equation (count models), subsample {subsample}") for spec, fit in zip(specs, fits)]
        pred = _counts.calibrate_predictions(dict(zip([s.family for s in specs], fits))[predict_family], ds, rule)
        ds = ds.with_column(predict_as, pred)
        ds = ds.with_column(intensity_as, _counts.patent_intensity(pred, ds.column(employees), rule.epsilon))
    return ds, out


def productivity(ds, parsed, vcov_for):
    specs, mundlak = parsed
    out = []
    for label, spec in specs:
        spec = dataclasses.replace(spec, vcov=vcov_for(3))
        fit = _productivity.fe_ols(ds, spec)
        if mundlak:
            fit.notes["mundlak"] = _productivity.mundlak_test(ds, spec)
        out.append(StageFit(label, fit, label, "Productivity equation (two-way FE), subsample {subsample}"))
    return ds, out


def uqr(ds, parsed, vcov_for):
    dependent, models, qspec = parsed
    out = []
    for label, regressors in models.items():
        fits = rif.uqr_fit(ds, dependent, regressors, qspec)
        out += [StageFit(label, fits[tau], f"Q{int(round(tau * 100))}", f"UQR ({label}), subsample {{subsample}}",
                         tuple(regressors)) for tau in qspec.taus]
    return ds, out


def treatment(ds, parsed, vcov_for):
    dependent, qspec, specs = parsed
    out = []
    for spec in specs:
        fits = rif.rif_treatment_fit(ds, dependent, spec, qspec)
        title = "RIF treatment effects with IPW" if spec.weighting == "ipw" else "RIF treatment effects without weights"
        out += [StageFit(f"rif_treat_{spec.weighting}", fits[tau], f"Q{int(round(tau * 100))}",
                         title + ", subsample {subsample}", (spec.treatment,)) for tau in qspec.taus]
    return ds, out


def cqr(ds, parsed, vcov_for):
    tau, specs = parsed
    title = f"Bootstrap robust CQR (tau={tau:g}), subsample {{subsample}}"
    return ds, [StageFit(label, _cqr.cqr_fit(ds, dataclasses.replace(spec, vcov=vcov_for(4))), label, title)
                for label, spec in specs]
