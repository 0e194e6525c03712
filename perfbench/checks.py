"""Output checks, made apart from the program.

They read what the program wrote (results documents, plot-data files, Monte
Carlo reports) with their own parsers, and compare it with the input CSV, the
configs, and values recomputed here (``math``; Student's t from scipy for the
estimate windows). Each check returns a list of problems; an empty list means
the output passed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import re

from scipy import stats

from workloads import HECKMAN_TRUTH, SECTOR_COL

# The "uqr" star style as the README documents it: + p<0.1, * p<0.05,
# ** p<0.01, *** p<0.001.
STARS = ((0.001, "***"), (0.01, "**"), (0.05, "*"), (0.1, "+"))
# A p-value below this is compared by absolute difference: both sides are
# denormal or zero there, and erfc and the program's normal tail differ in
# the last bits.
P_FLOOR = 1e-250
# Estimates must lie within the window that a normal estimate leaves with
# probability 2 * P(Z > 5), about 5.7e-7: with about ten such checks per run
# and a hundred runs per comparison of two commits, correct output is flagged
# in fewer than one comparison in a thousand. With an exact SE the window is
# 5 SE. An SE estimated from m draws (bootstrap replicates, Monte Carlo
# replications) is itself noisy, so the same tail is taken from Student's t
# with m - 1 degrees of freedom: 8.61 SE for 15 replicates, 5.97 for 40.
TAIL = 2.0 * stats.norm.sf(5.0)


def se_window(draws: int | None) -> float:
    """Half-width, in SEs, of the window for an SE from ``draws`` draws (None: exact)."""
    return 5.0 if draws is None else float(stats.t.isf(TAIL / 2.0, draws - 1))


def parse_line(line: str) -> dict[str, str]:
    return dict(tok.split("=", 1) for tok in line.split(" ") if "=" in tok)


def read_records(results_dir: str) -> list[dict[str, str]]:
    records = []
    for fname in sorted(os.listdir(results_dir)):
        with open(os.path.join(results_dir, fname), encoding="utf-8") as fh:
            records.extend(parse_line(line) for line in fh.read().splitlines() if line.strip())
    return records


def expected_stars(p: float) -> str:
    for cut, mark in STARS:
        if p < cut:
            return mark
    return "."


def _where(rec: dict[str, str]) -> str:
    keys = ("stage", "subsample", "model", "tau", "name")
    return " ".join(f"{k}={rec[k]}" for k in keys if k in rec)


def check_coefficients(records) -> list[str]:
    """Every SE finite and > 0; every p-value and star recomputed from est/se."""
    problems = []
    for rec in records:
        if rec.get("record") != "coef":
            continue
        est, se, p = float(rec["est"]), float(rec["se"]), float(rec["p"])
        shown = f"se={rec['se']} p={rec['p']} stars={rec['stars']}"
        if not (math.isfinite(se) and se > 0):
            problems.append(f"{_where(rec)}: SE is not finite and > 0, yet reported {shown}")
            continue
        p_ref = math.erfc(abs(est) / se / math.sqrt(2.0))
        if not math.isclose(p, p_ref, rel_tol=1e-9, abs_tol=P_FLOOR):
            problems.append(f"{_where(rec)}: p={rec['p']} but erfc gives {p_ref!r}")
        if rec["stars"] != expected_stars(p_ref):
            problems.append(f"{_where(rec)}: stars={rec['stars']} but p={p_ref!r} gives {expected_stars(p_ref)}")
    return problems


def check_plotdata(plot_dir: str, records) -> list[str]:
    """Every plot-data row is est and est -/+ 1.96 se of its results record."""
    coefs = {
        (r["stage"], r["subsample"], r["model"], float(r["tau"]), r["name"]): (float(r["est"]), float(r["se"]))
        for r in records if r.get("record") == "coef" and "tau" in r
    }
    problems = []
    for fname in sorted(os.listdir(plot_dir)):
        stage, subsample, model, regressor = fname[: -len(".csv")].split("__")
        with open(os.path.join(plot_dir, fname), encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        if not rows:
            problems.append(f"{fname}: no rows")
        for row in rows:
            key = (stage, subsample, model, float(row["tau"]), regressor)
            if key not in coefs:
                problems.append(f"{fname}: tau={row['tau']} has no results record")
                continue
            est, se = coefs[key]
            got = (float(row["estimate"]), float(row["ci_low"]), float(row["ci_high"]))
            want = (est, est - 1.96 * se, est + 1.96 * se)
            if not all(math.isclose(g, w, rel_tol=1e-12, abs_tol=1e-12) for g, w in zip(got, want)):
                problems.append(f"{fname}: tau={row['tau']} row {got} != est -/+ 1.96 se {want}")
    return problems


def selected_rows(csv_path: str, sector_col: str, subsamples: dict[str, float]) -> dict[str, int]:
    """Rows with D == 1 in the input CSV, for `full` and each sector subsample."""
    out = {"full": 0, **{name: 0 for name in subsamples}}
    with open(csv_path, encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            if row["D"] == "" or float(row["D"]) != 1.0:
                continue
            out["full"] += 1
            for name, value in subsamples.items():
                if float(row[sector_col]) == value:
                    out[name] += 1
    return out


def check_heckman(records, n_selected: dict[str, int], truth: dict[str, float]) -> list[str]:
    """Step-2 n_obs equals the D == 1 rows; X1 and IMR within the SE window of the DGP."""
    problems = []
    for subsample, n_want in n_selected.items():
        step2 = [r for r in records
                 if r.get("stage") == "heckman" and r.get("subsample") == subsample and r.get("model") == "step2"]
        diags = {r["name"]: r["value"] for r in step2 if r["record"] == "diag"}
        if diags.get("n_obs") != str(n_want):
            problems.append(f"heckman step2 {subsample}: n_obs {diags.get('n_obs')} != {n_want} rows with D == 1")
        boot = re.match(r"cluster_bootstrap\(B=(\d+)", diags.get("se_method", ""))
        window = se_window(int(boot.group(1)) if boot else None)
        coefs = {r["name"]: r for r in step2 if r["record"] == "coef"}
        for name, value in truth.items():
            if name not in coefs:
                problems.append(f"heckman step2 {subsample}: no coefficient {name}")
                continue
            est, se = float(coefs[name]["est"]), float(coefs[name]["se"])
            if not abs(est - value) <= window * se:
                problems.append(f"heckman step2 {subsample}: {name}={est!r} is more than "
                                f"{window:.3g} SE ({se!r}) from the DGP's {value!r}")
    return problems


def check_sector_sums(records, subsamples) -> list[str]:
    """Each model's n_obs on the sector subsamples adds up to its n_obs on `full`."""
    n_obs: dict[tuple, dict[str, int]] = {}
    for r in records:
        if r.get("record") == "diag" and r["name"] == "n_obs":
            key = (r["stage"], r["model"], r.get("tau"))
            n_obs.setdefault(key, {})[r["subsample"]] = int(r["value"])
    problems = []
    for key, by_sub in sorted(n_obs.items(), key=str):
        parts = [by_sub.get(name) for name in subsamples]
        if "full" not in by_sub or None in parts:
            problems.append(f"{key}: n_obs missing on some subsample: {by_sub}")
        elif sum(parts) != by_sub["full"]:
            problems.append(f"{key}: sector n_obs {parts} do not add up to full's {by_sub['full']}")
    return problems


def mc_truth(config: dict) -> dict[str, float]:
    """True values of each estimator's tracked parameters, from the config."""
    d = config["dgp"]
    est = config["estimator"]
    if est == "heckman":
        return {"X1": d["rd"]["slope_x"], "IMR": d["selection"]["rho_sel"] * d["rd"]["noise_sd"]}
    if est == "poisson_fe":
        return {"RDINT_star": d["counts"]["slope_rdint"]}
    if est == "nb2":
        return {"RDINT_star": d["counts"]["slope_rdint"], "alpha": d["counts"]["alpha"]}
    if est == "fe_ols":
        p = d["productivity"]
        return {"lnPATINT_true": p["beta_patent"], "lnCAPINT": p["beta_capint"], "lnEMP": p["beta_emp"]}
    raise ValueError(f"no truth for estimator {est!r}")


def check_monte_carlo(config_path: str, outdir: str) -> list[str]:
    """The report's `true` values equal the config; |bias| within the mc_se window."""
    with open(config_path, encoding="utf-8") as fh:
        config = json.load(fh)
    truth = mc_truth(config)
    path = os.path.join(outdir, "results", f"monte_carlo__{config['estimator']}.txt")
    with open(path, encoding="utf-8") as fh:
        rows = [parse_line(line) for line in fh.read().splitlines() if line.strip()]
    problems = []
    got = {r["parameter"]: r for r in rows}
    if sorted(got) != sorted(truth):
        problems.append(f"{path}: parameters {sorted(got)} != {sorted(truth)}")
    for name, value in truth.items():
        r = got.get(name)
        if r is None:
            continue
        if int(r["reps"]) != config["reps"]:
            problems.append(f"{path}: reps={r['reps']} != {config['reps']}")
        if float(r["true"]) != float(value):
            problems.append(f"{path}: {name} true={r['true']} != config {value!r}")
        bias, mc_se = float(r["bias"]), float(r["mc_se"])
        window = se_window(int(r["reps"]) - int(r["failed"]))
        if not abs(bias) <= window * mc_se:
            problems.append(f"{path}: {name} |bias| {abs(bias)!r} > {window:.3g} mc_se ({mc_se!r})")
    return problems


def check_pipeline(inputs, outdir: str) -> list[str]:
    records = read_records(os.path.join(outdir, "results"))
    problems = check_coefficients(records)
    problems += check_plotdata(os.path.join(outdir, "plotdata"), records)
    n_selected = selected_rows(inputs.csv_path, SECTOR_COL, inputs.subsamples)
    problems += check_heckman(records, n_selected, HECKMAN_TRUTH)
    if inputs.subsamples:
        problems += check_sector_sums(records, inputs.subsamples)
    return problems


def digest(root: str) -> dict[str, str]:
    """sha256 of every file under ``root`` (manifests, results, tables, plot data)."""
    out = {}
    for dirpath, _dirs, files in os.walk(root):
        for fname in files:
            path = os.path.join(dirpath, fname)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = hashlib.sha256(fh.read()).hexdigest()
    return out
