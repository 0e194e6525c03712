"""Rendering of fitted models into journal-style text tables, line-oriented
results documents, and plot-data files."""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .estim import INTERCEPT, FitResult
from .exceptions import ValidationError

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
    extra: dict[str, str] = field(default_factory=dict)


def _fmt(x: float, digits: int = 4) -> str:
    return f"{x:.{digits}g}"


def _is_dummy(name: str, fit: FitResult) -> bool:
    return name in fit.notes.get("fe_dummies", {})


def _coef_rows(columns: list[TableColumn]) -> list[str]:
    rows: list[str] = []
    for col in columns:
        for name in col.fit.coefficients:
            if _is_dummy(name, col.fit) or name in rows:
                continue
            rows.append(name)
    if INTERCEPT in rows:
        rows.remove(INTERCEPT)
        rows.append(INTERCEPT)
    return rows


def _fe_flags(fit: FitResult) -> dict[str, str]:
    dims = set(fit.notes.get("fe_dims", ()))
    for dim, _level in fit.notes.get("fe_dummies", {}).values():
        dims.add(dim)
    return {
        "Individual FE": "Y" if "entity" in dims else "N",
        "Time FE": "Y" if "year" in dims else "N",
    }


def _diag_rows(col: TableColumn) -> dict[str, str]:
    fit = col.fit
    out: dict[str, str] = {}
    out.update(_fe_flags(fit))
    if fit.wald_chi2 is not None:
        stat, _df, p = fit.wald_chi2
        out["Wald chi2"] = f"{_fmt(stat)} [{p:.3f}]"
    if fit.fit is not None:
        out["adj. R-sq"] = _fmt(fit.fit["adj_r2"], 3)
    if fit.loglik is not None:
        out["Log likelihood"] = f"{fit.loglik:.1f}"
    out.update(col.extra)
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
    diag_maps = [_diag_rows(c) for c in columns]
    diag_keys: list[str] = []
    for dm in diag_maps:
        for key in dm:
            if key not in diag_keys:
                diag_keys.append(key)

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
        diags["r2"] = float(fit.fit["r2"])
        diags["adj_r2"] = float(fit.fit["adj_r2"])
    if fit.loglik is not None:
        diags["loglik"] = float(fit.loglik)
    if fit.wald_chi2 is not None:
        stat, df, p = fit.wald_chi2
        diags["wald_chi2"] = float(stat)
        diags["wald_df"] = df
        diags["wald_p"] = float(p)
    for key in ("tau", "q_hat", "f_hat", "alpha", "lambda", "rho", "sigma", "check_loss", "weighting"):
        if key in fit.notes and fit.notes[key] is not None:
            diags[key] = fit.notes[key]
    for key, val in diags.items():
        lines.append(f"{prefix} record=diag name={_token(key)} value={_token(val)}")
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


# ---------------------------------------------------------------------------
# re-rendering tables from results documents


def _parse_records(lines):
    models: dict[tuple, dict] = {}
    for line in lines:
        line = line.strip()
        if not line:
            continue
        pairs = dict(tok.split("=", 1) for tok in line.split(" ") if "=" in tok)
        if "record" not in pairs:
            continue
        key = (
            pairs.get("stage", ""),
            pairs.get("subsample", ""),
            pairs.get("model", ""),
            pairs.get("tau"),
        )
        entry = models.setdefault(key, {"coefs": {}, "diags": {}})
        if pairs["record"] == "coef":
            entry["coefs"][pairs["name"]] = (
                float(pairs["est"]), float(pairs["se"]), float(pairs["p"])
            )
        elif pairs["record"] == "diag":
            entry["diags"][pairs["name"]] = pairs["value"]
    return models


def emit_tables(results, style: dict | None = None) -> str:
    """Rebuild text tables from results-document lines.

    ``results`` is an iterable of document lines (or a whole document split on
    newlines upstream). ``style`` takes ``stars`` (threshold convention name)
    and ``paren`` ("se" or "t"); anything else is an unknown style key.
    """
    style = dict(style or {})
    stars_name = style.pop("stars", "uqr")
    paren = style.pop("paren", "se")
    if style:
        raise ValidationError(f"unknown style key {sorted(style)[0]!r}")
    if stars_name not in STAR_STYLES:
        raise ValidationError(f"unknown star style {stars_name!r}")
    thresholds = STAR_STYLES[stars_name]

    models = _parse_records(results)
    groups: dict[tuple, list[tuple]] = {}
    for key in models:
        groups.setdefault((key[0], key[1]), []).append(key)

    blocks = []
    for (stage, subsample), keys in groups.items():
        columns = []
        for key in keys:
            entry = models[key]
            coef = {name: est for name, (est, _se, _p) in entry["coefs"].items()}
            ses = np.array([entry["coefs"][name][1] for name in coef])
            fit = FitResult(
                coefficients=coef,
                vcov=np.diag(ses**2),
                n_obs=int(entry["diags"].get("n_obs", 0)),
            )
            extra = {}
            diags = entry["diags"]
            extra["Individual FE"] = diags.get("individual_fe", "N")
            extra["Time FE"] = diags.get("time_fe", "N")
            if "wald_chi2" in diags:
                extra["Wald chi2"] = f"{float(diags['wald_chi2']):.4g} [{float(diags['wald_p']):.3f}]"
            if "adj_r2" in diags:
                extra["adj. R-sq"] = f"{float(diags['adj_r2']):.3g}"
            if "loglik" in diags:
                extra["Log likelihood"] = f"{float(diags['loglik']):.1f}"
            if "alpha" in diags:
                extra["alpha"] = f"{float(diags['alpha']):.4g}"
            label = key[2] if key[3] is None else f"{key[2]} Q{int(round(float(key[3]) * 100))}"
            columns.append(TableColumn(label, fit, extra))
        blocks.append(render_table(f"{stage}, subsample {subsample}", columns, thresholds, paren))
    return "\n\n".join(blocks)
