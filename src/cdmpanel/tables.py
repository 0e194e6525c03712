"""Rendering of fitted models into journal-style text tables, line-oriented
results documents, and plot-data files."""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .estim import INTERCEPT, FitResult
from .exceptions import ValidationError
from .heckman import IMR_NAME

STAR_STYLES = {
    "uqr": ((0.001, "***"), (0.01, "**"), (0.05, "*"), (0.1, "+")),
    "table1": ((0.001, "***"), (0.01, "**"), (0.05, "*")),
}


def star_marker(p: float, thresholds) -> str:
    for cut, mark in sorted(thresholds):
        if p < cut:
            return mark
    return ""


def star_legend(thresholds) -> str:
    parts = [f"{mark} p<{cut:g}" for cut, mark in sorted(thresholds, reverse=True)]
    return ", ".join(parts)


@dataclass
class TableColumn:
    label: str
    fit: FitResult


def _fmt(x: float, digits: int = 4) -> str:
    return f"{x:.{digits}g}"


def _is_dummy(name: str, fit: FitResult) -> bool:
    return name in fit.notes.get("fe_dummies", {})


def _coef_rows(columns: list[TableColumn]) -> list[str]:
    """Every column's coefficient names, first seen first, the intercept last."""
    rows = dict.fromkeys(name for col in columns for name in col.fit.coefficients if not _is_dummy(name, col.fit))
    return sorted(rows, key=lambda name: name == INTERCEPT)


def _fe_flags(fit: FitResult) -> dict[str, str]:
    dims = {*fit.notes.get("fe_dims", ()), *(dim for dim, _level in fit.notes.get("fe_dummies", {}).values())}
    return {
        "Individual FE": "Y" if "entity" in dims else "N",
        "Time FE": "Y" if "year" in dims else "N",
    }


def _diag_rows(fit: FitResult) -> dict[str, str]:
    out: dict[str, str] = {}
    out.update(_fe_flags(fit))
    if fit.wald_chi2 is not None:
        stat, _df, p = fit.wald_chi2
        out["Wald chi2"] = f"{_fmt(stat)} [{p:.3f}]"
    if fit.fit is not None:
        out["adj. R-sq"] = _fmt(fit.fit["adj_r2"], 3)
    if fit.loglik is not None:
        out["Log likelihood"] = f"{fit.loglik:.1f}"
    if "alpha" in fit.notes:
        out["alpha"] = _fmt(fit.notes["alpha"])
    if fit.notes.get("dropped_entities"):
        out["entities dropped"] = str(fit.notes["dropped_entities"])
    out["N"] = f"{fit.n_obs:,}"
    return out


def render_table(
    title: str,
    columns: list[TableColumn],
    thresholds=STAR_STYLES["uqr"],
    paren: str = "se",
) -> str:
    """One coefficient table: estimates with stars, SE (or t) beneath in
    parentheses, FE/diagnostic footer rows, and the threshold legend."""
    if paren not in ("se", "t"):
        raise ValidationError(f"unknown paren style {paren!r}")
    coef_names = _coef_rows(columns)
    diag_maps = [_diag_rows(c.fit) for c in columns]
    diag_keys = list(dict.fromkeys(key for dm in diag_maps for key in dm))

    header = ["", *[c.label for c in columns]]
    body: list[list[str]] = []
    for name in coef_names:
        top = [name]
        bottom = [""]
        for col in columns:
            fit = col.fit
            if name in fit.coefficients:
                est = fit.coefficients[name]
                p = fit.pvalue(name)
                top.append(f"{_fmt(est)}{star_marker(p, thresholds)}")
                if paren == "se":
                    bottom.append(f"({_fmt(fit.se(name), 3)})")
                else:
                    bottom.append(f"({fit.tstat(name):.3f})")
            else:
                top.append("")
                bottom.append("")
        body.append(top)
        body.append(bottom)
    for key in diag_keys:
        body.append([key, *[dm.get(key, "") for dm in diag_maps]])

    widths = [max(len(row[j]) for row in [header, *body]) for j in range(len(header))]
    lines = [title]
    lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip())
    lines.append("-" * (sum(widths) + 2 * (len(widths) - 1)))
    for row in body:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    lines.append("")
    lines.append("Standard errors in parenthesis" if paren == "se" else "t statistics in parenthesis")
    lines.append(star_legend(thresholds))
    return "\n".join(lines) + "\n"


def selection_lines(fit: FitResult) -> list[str]:
    """A Heckman step-2 fit's selection-correction lines, from its notes; none for any other fit."""
    if "lambda" not in fit.notes:
        return []
    notes = fit.notes
    vif = float(np.mean(list(notes["step2_vif"].values())))
    return [f"/mills lambda = {notes['lambda']:.4g} (se {fit.se(IMR_NAME):.3g})", f"rho = {notes['rho']:.4g}",
            f"sigma = {notes['sigma']:.4g}", f"mean step-2 VIF = {vif:.3g}"]


# ---------------------------------------------------------------------------
# results documents


def _token(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value).replace(" ", "_")


def result_lines(stage: str, subsample: str, model: str, fit: FitResult, thresholds, tau=None) -> list[str]:
    """Machine-readable key=value records for one fitted model."""
    prefix = f"stage={_token(stage)} subsample={_token(subsample)} model={_token(model)}"
    if tau is not None:
        prefix += f" tau={_token(float(tau))}"
    lines = []
    for name, est in fit.coefficients.items():
        if _is_dummy(name, fit):
            continue
        p = fit.pvalue(name)
        lines.append(
            f"{prefix} record=coef name={_token(name)} est={_token(float(est))} "
            f"se={_token(fit.se(name))} p={_token(p)} stars={star_marker(p, thresholds) or '.'}"
        )
    flags = _fe_flags(fit)
    diags: dict[str, object] = {
        "n_obs": fit.n_obs,
        "n_dropped": fit.n_dropped,
        "se_method": fit.se_method,
        "individual_fe": flags["Individual FE"],
        "time_fe": flags["Time FE"],
    }
    if fit.fit is not None:
        diags.update(r2=float(fit.fit["r2"]), adj_r2=float(fit.fit["adj_r2"]))
    if fit.loglik is not None:
        diags["loglik"] = float(fit.loglik)
    if fit.wald_chi2 is not None:
        stat, df, p = fit.wald_chi2
        diags.update(wald_chi2=float(stat), wald_df=df, wald_p=float(p))
    for key in ("tau", "q_hat", "f_hat", "alpha", "lambda", "rho", "rho_clamped", "sigma", "check_loss", "weighting"):
        if key in fit.notes and fit.notes[key] is not None:
            diags[key] = fit.notes[key]
    for key, val in diags.items():
        lines.append(f"{prefix} record=diag name={_token(key)} value={_token(val)}")
    if "mundlak" in fit.notes:
        chi2, df, p, means = fit.notes["mundlak"]
        lines.append(f"{prefix} record=mundlak chi2={chi2!r} df={df} p={p!r} "
                     + " ".join(f"mean:{k}={v!r}" for k, v in means.items()))
    return lines


def plot_data_lines(tau_fits: dict[float, FitResult], regressor: str) -> list[str]:
    """CSV rows (tau, estimate, ci_low, ci_high) for one regressor."""
    lines = ["tau,estimate,ci_low,ci_high"]
    for tau in sorted(tau_fits):
        fit = tau_fits[tau]
        est = float(fit.coefficients[regressor])
        se = float(fit.se(regressor))
        lines.append(f"{tau},{est!r},{est - 1.96 * se!r},{est + 1.96 * se!r}")
    return lines


def atomic_write(path, text: str) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)
