"""Pipeline orchestrator.

Reads a JSON configuration, runs the requested stages per subsample in
dependency order (ingest -> derive -> heckman -> counts -> productivity ->
uqr -> treatment -> cqr), and writes results documents, rendered tables,
plot-data files, and a run manifest. Also exposes `simulate` and
`monte_carlo` modes backed by the synthetic DGP.

Every artifact is written atomically and contains no timestamps, so a rerun
with the same config and seed is bit-identical.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import hashlib
import json
import os
import sys

import numpy as np
import scipy

from . import __version__, counts, cqr, heckman, panel, productivity, rif, synthdgp, tables
from .estim import VcovSpec
from .exceptions import ConvergenceError, ValidationError
from .predicates import predicate_columns

STAGE_ORDER = ("heckman", "counts", "productivity", "uqr", "treatment", "cqr")


class PipelineStageError(RuntimeError):
    def __init__(self, stage: str, subsample: str, cause: Exception):
        super().__init__(f"stage {stage!r} failed on subsample {subsample!r}: {cause}")
        self.stage = stage
        self.subsample = subsample


def _req(cfg: dict, key: str, context: str):
    if key not in cfg:
        raise ValidationError(f"{context}: missing required key {key!r}")
    return cfg[key]


def _derive_rule(entry: dict) -> panel.DeriveRule:
    kind = _req(entry, "kind", "derive rule")
    target = _req(entry, "target", "derive rule")

    def req(key: str):
        return _req(entry, key, f"derive of {target!r}")

    if kind in ("lag", "lead"):
        return panel.DeriveRule(kind=kind, target=target, source=(req("source"),), k=int(req("k")))
    if kind == "rolling_mean":
        return panel.DeriveRule(kind=kind, target=target, source=(req("source"),), window=int(req("window")))
    if kind == "log":
        return panel.DeriveRule.log(req("source"), target)
    if kind == "log_shift":
        return panel.DeriveRule.log_shift(req("source"), float(req("shift")), target)
    if kind == "ratio":
        return panel.DeriveRule.ratio(req("numerator"), req("denominator"), target)
    if kind == "indicator":
        return panel.DeriveRule.indicator(req("predicate"), target)
    if kind == "round":
        return panel.DeriveRule.round_to_int(req("source"), target)
    raise ValidationError(f"unknown derive kind {kind!r}")


def _csv_header(path: str, entity_col: str, year_col: str) -> list[str]:
    import csv as _csv

    with open(path, "r", newline="", encoding="utf-8") as fh:
        header = next(_csv.reader(fh))
    for col in (entity_col, year_col):
        if col not in header:
            raise ValidationError(f"input {path}: column {col!r} not in header")
    return [h for h in header if h not in (entity_col, year_col)]


def preflight_validate(config: dict, stage_subset) -> None:
    """Resolve every referenced variable before any estimation begins."""
    inp = _req(config, "input", "config")
    resolved = set(_csv_header(_req(inp, "path", "input"), inp.get("entity_col", "entity"),
                               inp.get("year_col", "year")))

    def need(name: str, where: str):
        if name not in resolved:
            raise ValidationError(f"{where} references unresolved variable {name!r}")

    for entry in config.get("derives", []):
        rule = _derive_rule(entry)
        for src in rule.source:
            need(src, f"derive of {rule.target!r}")
        if rule.kind == "indicator":
            for name in predicate_columns(rule.predicate):
                need(name, f"derive of {rule.target!r}")
        if rule.target in resolved:
            raise ValidationError(f"derive target {rule.target!r} collides with an existing column")
        resolved.add(rule.target)

    for name, pred in config.get("subsamples", {}).items():
        for col in predicate_columns(pred):
            need(col, f"subsample {name!r}")

    stages = config.get("stages", {})
    run = [s for s in STAGE_ORDER if s in stages and (stage_subset is None or s in stage_subset)]
    for stage in run:
        sc = stages[stage]
        where = f"{stage} stage"
        if stage == "heckman":
            for name in (_req(sc, "outcome", where), _req(sc, "selection", where),
                         *sc.get("outcome_regressors", []), *sc.get("exclusion_restrictions", []),
                         *[d for d in sc.get("fe", []) if d not in ("entity", "year")]):
                need(name, where)
            resolved.add(sc.get("predict_as", "RDINT_hat"))
        elif stage == "counts":
            for model in sc.get("models", []):
                dependent = _req(model, "dependent", "counts model")
                label = f"counts model {model.get('name', dependent)!r}"
                for name in (dependent, model.get("raw", dependent), *model.get("regressors", [])):
                    need(name, label)
                need(sc.get("employees", "EMP"), where)
                resolved.add(_req(model, "predict_as", label))
                resolved.add(_req(model, "intensity_as", label))
        elif stage == "productivity":
            for name in (_req(sc, "dependent", where), *sc.get("controls", []),
                         *sc.get("classical", []), *sc.get("extended", [])):
                need(name, where)
        elif stage in ("uqr", "cqr"):
            for name in (_req(sc, "dependent", where),
                         *[r for regs in sc.get("models", {}).values() for r in regs]):
                need(name, where)
        elif stage == "treatment":
            for name in (_req(sc, "dependent", where), _req(sc, "treatment", where),
                         *sc.get("propensity_regressors", []), *sc.get("controls", [])):
                need(name, where)


def _boot_vcov(config: dict, seed_salt: int) -> VcovSpec:
    boot = config.get("bootstrap", {})
    b = int(boot.get("replications", 0))
    if b < 1:
        return VcovSpec("analytic")
    seed = int(boot.get("seed", 0)) + seed_salt
    return VcovSpec("cluster_bootstrap", replications=b, seed=seed)


def _thresholds(config: dict):
    style = config.get("star_style", "uqr")
    if style not in tables.STAR_STYLES:
        raise ValidationError(f"unknown star style {style!r}")
    return tables.STAR_STYLES[style]


class _StageRunner:
    """Runs the stage sequence for one subsample and collects artifacts."""

    def __init__(self, config: dict, ds: panel.PanelDataset, subsample: str, outdir: str, seed_salt: int):
        self.config = config
        self.ds = ds
        self.subsample = subsample
        self.outdir = outdir
        self.seed_salt = seed_salt
        self.thresholds = _thresholds(config)
        self.doc_lines: dict[str, list[str]] = {}
        self.table_texts: dict[str, list[str]] = {}
        self.manifest: list[dict] = []
        self.artifacts: list[str] = []

    def _emit(self, stage: str, model: str, fit, tau=None):
        self.doc_lines.setdefault(stage, []).extend(
            tables.result_lines(stage, self.subsample, model, fit, self.thresholds, tau=tau)
        )
        self.manifest.append(
            {"stage": stage, "subsample": self.subsample, "model": model,
             **({"tau": tau} if tau is not None else {}), "n": fit.n_obs}
        )

    def _write_stage(self, stage: str):
        base = f"{stage}__{self.subsample}"
        lines = self.doc_lines.get(stage, [])
        if lines:
            path = os.path.join(self.outdir, "results", f"{base}.txt")
            tables.atomic_write(path, "\n".join(lines) + "\n")
            self.artifacts.append(path)
        texts = self.table_texts.get(stage, [])
        if texts:
            path = os.path.join(self.outdir, "tables", f"{base}.txt")
            tables.atomic_write(path, "\n\n".join(texts))
            self.artifacts.append(path)

    def _write_plotdata(self, stage: str, model: str, tau_fits, regressors):
        for reg in regressors:
            safe = reg.replace("/", "_")
            path = os.path.join(
                self.outdir, "plotdata", f"{stage}__{self.subsample}__{model}__{safe}.csv"
            )
            tables.atomic_write(path, "\n".join(tables.plot_data_lines(tau_fits, reg)) + "\n")
            self.artifacts.append(path)

    # --- stages ----------------------------------------------------------

    def stage_heckman(self, sc: dict):
        spec = heckman.HeckmanSpec(
            outcome=sc["outcome"],
            selection=sc["selection"],
            outcome_regressors=tuple(sc.get("outcome_regressors", [])),
            exclusion_restrictions=tuple(sc.get("exclusion_restrictions", [])),
            fe_dims=tuple(sc.get("fe", [])),
            vcov=_boot_vcov(self.config, self.seed_salt + 1),
        )
        fit = heckman.heckman_two_step(self.ds, spec)
        fit.outcome.notes["lambda"] = fit.lambda_
        fit.outcome.notes["rho"] = fit.rho
        fit.outcome.notes["sigma"] = fit.sigma
        self._emit("heckman", "step2", fit.outcome)
        self._emit("heckman", "step1_probit", fit.probit)
        mills = [
            f"/mills lambda = {fit.lambda_:.4g} (se {fit.outcome.se(heckman.IMR_NAME):.3g})",
            f"rho = {fit.rho:.4g}",
            f"sigma = {fit.sigma:.4g}",
            f"mean step-2 VIF = {float(np.mean(list(fit.step2_vif.values()))):.3g}",
        ]
        table = tables.render_table(
            f"R&D equation (Heckman two-step), subsample {self.subsample}: step 2",
            [tables.TableColumn("R&D investment", fit.outcome)],
            self.thresholds,
        )
        table += "\n" + tables.render_table(
            f"R&D equation (Heckman two-step), subsample {self.subsample}: step 1",
            [tables.TableColumn("R&D dummy (probit)", fit.probit)],
            self.thresholds,
        )
        table += "\n" + "\n".join(mills) + "\n"
        self.table_texts.setdefault("heckman", []).append(table)

        predict_as = sc.get("predict_as", "RDINT_hat")
        pred = heckman.predict_linear_index(fit, self.ds)
        self.ds = self.ds.with_column(predict_as, pred, note="heckman-predicted")
        self._write_stage("heckman")

    def stage_counts(self, sc: dict):
        epsilon = float(sc.get("epsilon", 0.001))
        employees = sc.get("employees", "EMP")
        cols = []
        for model in sc.get("models", []):
            label = model.get("name", model["dependent"])
            families = model.get("families", ["poisson_fe", "nb2"])
            fits = {}
            for family in families:
                spec = counts.CountSpec(
                    dependent=model["dependent"],
                    regressors=tuple(model.get("regressors", [])),
                    family=family,
                    entity_fe=bool(model.get("entity_fe", True)),
                    year_fe=bool(model.get("year_fe", True)),
                    vcov=_boot_vcov(self.config, self.seed_salt + 2),
                )
                fit = counts.poisson_fe_fit(self.ds, spec) if family == "poisson_fe" else counts.nb2_fit(self.ds, spec)
                if fit.alpha is not None:
                    fit.base.notes["alpha"] = fit.alpha
                fits[family] = fit
                self._emit("counts", f"{label}_{family}", fit.base)
                extra = {}
                if fit.alpha is not None:
                    extra["alpha"] = f"{fit.alpha:.4g}"
                if fit.n_dropped_entities:
                    extra["entities dropped"] = str(fit.n_dropped_entities)
                cols.append(tables.TableColumn(f"{label} {family}", fit.base, extra))

            predict_family = model.get("predict_family", families[-1])
            rule = counts.CalibrationRule(
                firm_mean_source=model.get("raw", model["dependent"]),
                epsilon=epsilon,
            )
            pred = counts.calibrate_predictions(fits[predict_family], self.ds, rule)
            self.ds = self.ds.with_column(model["predict_as"], pred, note=f"calibrated {predict_family} prediction")
            intensity = counts.patent_intensity(pred, self.ds.column(employees), epsilon)
            self.ds = self.ds.with_column(model["intensity_as"], intensity, note="log predicted patent intensity")
        if cols:
            self.table_texts.setdefault("counts", []).append(
                tables.render_table(
                    f"Patent equation (count models), subsample {self.subsample}",
                    cols,
                    self.thresholds,
                )
            )
        self._write_stage("counts")

    def stage_productivity(self, sc: dict):
        controls = tuple(sc.get("controls", []))
        cols = []
        for label, intensities in (("classical", sc.get("classical")), ("extended", sc.get("extended"))):
            if not intensities:
                continue
            spec = productivity.ProdSpec(
                dependent=sc["dependent"],
                patent_intensities=tuple(intensities),
                controls=controls,
                vcov=_boot_vcov(self.config, self.seed_salt + 3),
            )
            fit = productivity.fe_ols(self.ds, spec)
            self._emit("productivity", label, fit)
            cols.append(tables.TableColumn(label, fit))
            if sc.get("mundlak", True):
                chi2, df, p, means = productivity.mundlak_test(self.ds, spec)
                self.doc_lines.setdefault("productivity", []).append(
                    f"stage=productivity subsample={self.subsample} model={label} record=mundlak "
                    f"chi2={chi2!r} df={df} p={p!r} "
                    + " ".join(f"mean:{k}={v!r}" for k, v in means.items())
                )
        if cols:
            self.table_texts.setdefault("productivity", []).append(
                tables.render_table(
                    f"Productivity equation (two-way FE), subsample {self.subsample}",
                    cols,
                    self.thresholds,
                )
            )
        self._write_stage("productivity")

    def stage_uqr(self, sc: dict):
        qspec = rif.QuantileSpec(taus=tuple(sc.get("taus", rif.DEFAULT_TAUS)))
        for label, regressors in sc.get("models", {}).items():
            fits = rif.uqr_fit(self.ds, sc["dependent"], tuple(regressors), qspec)
            cols = []
            for tau in qspec.taus:
                self._emit("uqr", label, fits[tau], tau=tau)
                cols.append(tables.TableColumn(f"Q{int(round(tau * 100))}", fits[tau]))
            self.table_texts.setdefault("uqr", []).append(
                tables.render_table(
                    f"UQR ({label}), subsample {self.subsample}",
                    cols,
                    self.thresholds,
                    paren="t",
                )
            )
            self._write_plotdata("uqr", label, fits, list(regressors))
        self._write_stage("uqr")

    def stage_treatment(self, sc: dict):
        qspec = rif.QuantileSpec(taus=tuple(sc.get("taus", rif.DEFAULT_TAUS)))
        for variant in sc.get("variants", ["ipw", "none"]):
            spec = rif.TreatmentSpec(
                treatment=sc["treatment"],
                propensity_regressors=tuple(sc.get("propensity_regressors", [])),
                controls=tuple(sc.get("controls", [])),
                clip=tuple(sc.get("clip", (0.01, 0.99))),
                weighting=variant,
            )
            fits = rif.rif_treatment_fit(self.ds, sc["dependent"], spec, qspec)
            cols = []
            for tau in qspec.taus:
                self._emit("treatment", f"rif_treat_{variant}", fits[tau], tau=tau)
                cols.append(tables.TableColumn(f"Q{int(round(tau * 100))}", fits[tau]))
            title = "RIF treatment effects with IPW" if variant == "ipw" else "RIF treatment effects without weights"
            self.table_texts.setdefault("treatment", []).append(
                tables.render_table(
                    f"{title}, subsample {self.subsample}",
                    cols,
                    self.thresholds,
                    paren="t",
                )
            )
            self._write_plotdata("treatment", f"rif_treat_{variant}", fits, [sc["treatment"]])
        self._write_stage("treatment")

    def stage_cqr(self, sc: dict):
        tau = float(sc.get("tau", 0.5))
        cols = []
        for label, regressors in sc.get("models", {}).items():
            spec = cqr.CqrSpec(
                dependent=sc["dependent"],
                regressors=tuple(regressors),
                tau=tau,
                fe_dims=("entity", "year"),
                vcov=_boot_vcov(self.config, self.seed_salt + 4),
            )
            fit = cqr.cqr_fit(self.ds, spec)
            self._emit("cqr", label, fit, tau=tau)
            cols.append(tables.TableColumn(label, fit))
        if cols:
            self.table_texts.setdefault("cqr", []).append(
                tables.render_table(
                    f"Bootstrap robust CQR (tau={tau:g}), subsample {self.subsample}",
                    cols,
                    self.thresholds,
                    paren="t",
                )
            )
        self._write_stage("cqr")

    def run(self, stage_subset) -> tuple[list[dict], list[str]]:
        stages = self.config.get("stages", {})
        for stage in STAGE_ORDER:
            if stage not in stages or (stage_subset is not None and stage not in stage_subset):
                continue
            try:
                getattr(self, f"stage_{stage}")(stages[stage])
            except Exception as exc:
                raise PipelineStageError(stage, self.subsample, exc) from exc
        return self.manifest, self.artifacts


def run_pipeline(config_path: str, stages=None, seed=None, jobs: int = 1, output_dir=None) -> dict:
    """Execute a pipeline config; returns the manifest dictionary."""
    with open(config_path, "r", encoding="utf-8") as fh:
        raw = fh.read()
    config = json.loads(raw)
    mode = config.get("mode", "pipeline")
    if seed is not None:
        config.setdefault("bootstrap", {})["seed"] = int(seed)
        config["seed"] = int(seed)
    if output_dir is not None:
        config["output_dir"] = output_dir
    outdir = config.get("output_dir", "cdmpanel_out")
    for sub in ("results", "tables", "plotdata"):
        os.makedirs(os.path.join(outdir, sub), exist_ok=True)

    if mode == "simulate":
        return _run_simulate(config, outdir, raw)
    if mode == "monte_carlo":
        return _run_monte_carlo(config, outdir, raw)
    if mode != "pipeline":
        raise ValidationError(f"unknown mode {mode!r}")

    stage_subset = set(stages) if stages else None
    preflight_validate(config, stage_subset)

    inp = config["input"]
    ds = panel.load_csv(inp["path"], inp.get("entity_col", "entity"), inp.get("year_col", "year"))
    for entry in config.get("derives", []):
        ds = panel.derive(ds, _derive_rule(entry))

    subsamples: dict[str, str | None] = {"full": None}
    subsamples.update(config.get("subsamples", {}))

    def run_one(item):
        idx, (name, pred) = item
        ds_sub = ds if pred is None else panel.filter_rows(ds, pred)
        runner = _StageRunner(config, ds_sub, name, outdir, seed_salt=1000 * idx)
        return runner.run(stage_subset)

    items = list(enumerate(subsamples.items()))
    if jobs > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(run_one, items))
    else:
        results = [run_one(item) for item in items]

    manifest_rows = [row for rows, _ in results for row in rows]
    artifacts = sorted(path for _, paths in results for path in paths)
    manifest = {
        "config_sha256": hashlib.sha256(raw.encode("utf-8")).hexdigest(),
        "seed": config.get("bootstrap", {}).get("seed"),
        "versions": {
            "cdmpanel": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": ".".join(map(str, sys.version_info[:3])),
        },
        "stages": manifest_rows,
        "artifacts": [os.path.relpath(p, outdir) for p in artifacts],
    }
    path = os.path.join(outdir, "manifest.json")
    tables.atomic_write(path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest


def _dgp_from_config(config: dict) -> synthdgp.DgpConfig:
    dgp = dict(config.get("dgp", {}))
    nested = {}
    for key, cls in (
        ("selection", synthdgp.SelectionConfig),
        ("rd", synthdgp.RdConfig),
        ("counts", synthdgp.CountConfig),
        ("productivity", synthdgp.ProductivityConfig),
        ("treatment", synthdgp.TreatmentConfig),
    ):
        if key in dgp:
            nested[key] = cls(**dgp.pop(key))
    return synthdgp.DgpConfig(**dgp, **nested)


def _run_simulate(config: dict, outdir: str, raw: str) -> dict:
    import dataclasses

    cfg = _dgp_from_config(config)
    if config.get("seed") is not None:
        cfg = dataclasses.replace(cfg, seed=int(config["seed"]))
    ds = synthdgp.generate_panel(cfg)
    path = config.get("write_csv", os.path.join(outdir, "panel.csv"))
    ds.to_csv(path)
    truths = {k: v for k, v in ds.metadata.items() if k.startswith("true:")}
    tpath = os.path.join(outdir, "true_parameters.json")
    tables.atomic_write(tpath, json.dumps(truths, indent=2, sort_keys=True) + "\n")
    return {"mode": "simulate", "csv": path, "true_parameters": tpath, "rows": ds.n_rows}


def _run_monte_carlo(config: dict, outdir: str, raw: str) -> dict:
    cfg = _dgp_from_config(config)
    report = synthdgp.monte_carlo(
        cfg,
        _req(config, "estimator", "monte_carlo"),
        int(_req(config, "reps", "monte_carlo")),
        int(config.get("seed", cfg.seed)),
    )
    lines = []
    head = f"estimator={report.estimator} reps={report.reps} failed={report.n_failed}"
    for name, stats in report.parameters.items():
        vals = " ".join(f"{k}={v!r}" for k, v in stats.items())
        lines.append(f"{head} parameter={name} {vals}")
    path = os.path.join(outdir, "results", f"monte_carlo__{report.estimator}.txt")
    tables.atomic_write(path, "\n".join(lines) + "\n")
    return {"mode": "monte_carlo", "estimator": report.estimator, "document": path,
            "parameters": report.parameters, "n_failed": report.n_failed}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cdmpanel",
        description="Run the staged panel estimation pipeline described by a JSON config.",
    )
    parser.add_argument("config", help="path to the JSON configuration")
    parser.add_argument("--stages", help="comma-separated subset of stages to run")
    parser.add_argument("--seed", type=int, help="override the bootstrap/simulation seed")
    parser.add_argument("--jobs", type=int, default=1, help="parallel subsample jobs")
    parser.add_argument("--output-dir", help="override the configured output directory")
    args = parser.parse_args(argv)

    stages = args.stages.split(",") if args.stages else None
    if stages:
        unknown = [s for s in stages if s not in STAGE_ORDER]
        if unknown:
            parser.error(f"unknown stage(s): {', '.join(unknown)}")
    try:
        run_pipeline(args.config, stages=stages, seed=args.seed, jobs=args.jobs,
                     output_dir=args.output_dir)
    except (ValidationError, ConvergenceError, PipelineStageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
