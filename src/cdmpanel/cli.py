"""Pipeline orchestrator: parse -> stage functions -> render.

Reads a JSON configuration and runs the requested stages per subsample in
dependency order (ingest -> derive -> heckman -> counts -> productivity ->
uqr -> treatment -> cqr). Also exposes `simulate` and `monte_carlo` modes
backed by the synthetic DGP.

The config is read once, before any data are loaded. That one parse takes
each key either as required or with its single default, builds every stage's
specs, and checks each column a stage reads against the input header, the
derive targets and the outputs of the stages before it. A key that nothing
takes is an error that names the key and where it sits.

The stage functions (`stages`) only consume what the parse built: each fits
its models and returns them with the dataset its generated columns extend.
As each returns, the runner renders its fits into a results document,
tables, plot-data files and manifest rows, and writes them. Every artifact
is written atomically and contains no timestamps, so a rerun with the same
config and seed is bit-identical.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import dataclasses
import functools
import hashlib
import json
import os
import sys

import numpy as np
import scipy

from . import __version__, counts, cqr, heckman, panel, productivity, rif, stages, synthdgp, tables
from .estim import VcovSpec, fe_columns
from .exceptions import ConvergenceError, ValidationError
from .predicates import predicate_columns
from .stages import STAGE_ORDER

_REQUIRED = object()


class PipelineStageError(RuntimeError):
    def __init__(self, stage: str, subsample: str, cause: Exception):
        super().__init__(f"stage {stage!r} failed on subsample {subsample!r}: {cause}")
        self.stage = stage
        self.subsample = subsample


class _Keys:
    """One JSON object of the config. Each key is taken once, either required
    or with its single default; `close` refuses a key that nothing took."""

    def __init__(self, obj, where: str):
        if not isinstance(obj, dict):
            raise ValidationError(f"{where}: expected a JSON object, got {obj!r}")
        self.obj = obj
        self.where = where
        self.taken: set[str] = set()

    def get(self, key: str, default=_REQUIRED):
        self.taken.add(key)
        if key not in self.obj and default is _REQUIRED:
            raise ValidationError(f"{self.where}: missing required key {key!r}")
        return self.obj.get(key, default)

    def choice(self, key: str, options, default):
        value = self.get(key, default)
        if not isinstance(value, str) or value not in options:
            raise ValidationError(f"{self.where}: key {key!r} must be one of {list(options)}, got {value!r}")
        return value

    def number(self, key: str, cast: type, default=_REQUIRED):
        """The value cast to int or float; an absent key gives `default` as it is."""
        if key not in self.obj:
            return self.get(key, default)
        value = self.get(key)
        try:
            out = cast(value)
            # int() would truncate 1.5 and accept True
            if isinstance(value, bool) or out != float(value):
                raise ValueError(value)
        except (TypeError, ValueError, OverflowError):
            what = "an integer" if cast is int else "a number"
            raise ValidationError(f"{self.where}: key {key!r} must be {what}, got {value!r}") from None
        return out

    def list_of(self, key: str, kind: type, default=()) -> tuple:
        """A list of names (kind str) or of numbers (kind float), as a tuple."""
        value = self.get(key, default)
        types = (int, float) if kind is float else kind
        if not isinstance(value, (list, tuple)) or any(isinstance(v, bool) or not isinstance(v, types) for v in value):
            what = "numbers" if kind is float else "names"
            raise ValidationError(f"{self.where}: key {key!r} must be a list of {what}, got {value!r}")
        return tuple(value)

    def build(self, cls, **kwargs):
        """A spec from parsed values; the spec's own checks name this object."""
        try:
            return cls(**kwargs)
        except ValidationError as exc:
            raise ValidationError(f"{self.where}: {exc}") from None

    def close(self) -> None:
        for key in self.obj:
            if key not in self.taken:
                raise ValidationError(f"{self.where}: unknown key {key!r}")


class _Columns:
    """The columns a stage may read: the input's, the derive targets, and what
    the stages before it wrote. With `names` None nothing is checked or
    recorded, for a stage that is parsed but does not run."""

    def __init__(self, names: set[str] | None):
        self.names = names

    def need(self, where: str, *names: str) -> None:
        for name in names:
            if self.names is not None and name not in self.names:
                raise ValidationError(f"{where} references unresolved variable {name!r}")

    def add(self, name: str) -> None:
        if self.names is not None:
            self.names.add(name)


def _derive_rule(entry, cols: _Columns) -> panel.DeriveRule:
    """One derive rule, whose sources must resolve and whose target must be new."""
    keys = _Keys(entry, "derive rule")
    kind = keys.get("kind")
    target = keys.get("target")
    keys.where = f"derive of {target!r}"
    if kind in ("lag", "lead"):
        rule = panel.DeriveRule(kind=kind, target=target, source=(keys.get("source"),), k=keys.number("k", int))
    elif kind == "rolling_mean":
        rule = panel.DeriveRule(kind=kind, target=target, source=(keys.get("source"),),
                                window=keys.number("window", int))
    elif kind == "log":
        rule = panel.DeriveRule.log(keys.get("source"), target)
    elif kind == "log_shift":
        rule = panel.DeriveRule.log_shift(keys.get("source"), keys.number("shift", float), target)
    elif kind == "ratio":
        rule = panel.DeriveRule.ratio(keys.get("numerator"), keys.get("denominator"), target)
    elif kind == "indicator":
        rule = panel.DeriveRule.indicator(keys.get("predicate"), target)
    elif kind == "round":
        rule = panel.DeriveRule.round_to_int(keys.get("source"), target)
    else:
        raise ValidationError(f"unknown derive kind {kind!r}")
    keys.close()
    predicate = predicate_columns(rule.predicate) if kind == "indicator" else ()
    cols.need(keys.where, *rule.source, *sorted(predicate))
    if target in cols.names:
        raise ValidationError(f"derive target {target!r} collides with an existing column")
    cols.add(target)
    return rule


# --- stage parsers: each takes its stage's keys once and returns what stages.<name> takes


def _parse_heckman(sc: _Keys, cols: _Columns):
    """-> (HeckmanSpec, predict_as)"""
    spec = sc.build(
        heckman.HeckmanSpec,
        outcome=sc.get("outcome"),
        selection=sc.get("selection"),
        outcome_regressors=sc.list_of("outcome_regressors", str),
        exclusion_restrictions=sc.list_of("exclusion_restrictions", str),
        fe_dims=sc.list_of("fe", str),
    )
    cols.need(sc.where, spec.outcome, spec.selection, *spec.outcome_regressors, *spec.exclusion_restrictions,
              *fe_columns(spec.fe_dims))
    predict_as = sc.get("predict_as", "RDINT_hat")
    cols.add(predict_as)
    return spec, predict_as


def _parse_counts(sc: _Keys, cols: _Columns):
    """-> (employees column, per model (label, CountSpec per family, predict_family,
    CalibrationRule, predict_as, intensity_as))"""
    employees = sc.get("employees", "EMP")
    epsilon = sc.number("epsilon", float, 0.001)
    models = []
    for entry in sc.get("models", []):
        m = _Keys(entry, "counts model")
        dependent = m.get("dependent")
        label = m.get("name", dependent)
        m.where = f"counts model {label!r}"
        families = m.list_of("families", str, ("poisson_fe", "nb2"))
        regressors = m.list_of("regressors", str)
        entity_fe = bool(m.get("entity_fe", True))
        year_fe = bool(m.get("year_fe", True))
        specs = tuple(m.build(counts.CountSpec, dependent=dependent, regressors=regressors, family=family,
                              entity_fe=entity_fe, year_fe=year_fe) for family in families)
        predict_family = m.choice("predict_family", families, families[-1] if families else None)
        rule = m.build(counts.CalibrationRule, firm_mean_source=m.get("raw", dependent), epsilon=epsilon)
        cols.need(m.where, dependent, rule.firm_mean_source, *regressors)
        cols.need(sc.where, employees)
        predict_as = m.get("predict_as")
        intensity_as = m.get("intensity_as")
        m.close()
        # a later model may read an earlier one's outputs
        cols.add(predict_as)
        cols.add(intensity_as)
        models.append((label, specs, predict_family, rule, predict_as, intensity_as))
    return employees, tuple(models)


def _parse_productivity(sc: _Keys, cols: _Columns):
    """-> ((label, ProdSpec) per form given, whether to run the Mundlak test)"""
    dependent = sc.get("dependent")
    controls = sc.list_of("controls", str)
    forms = {label: sc.list_of(label, str) for label in ("classical", "extended")}
    cols.need(sc.where, dependent, *controls, *forms["classical"], *forms["extended"])
    specs = tuple((label, sc.build(productivity.ProdSpec, dependent=dependent, patent_intensities=intensities,
                                   controls=controls))
                  for label, intensities in forms.items() if intensities)
    return specs, bool(sc.get("mundlak", True))


def _dependent_and_models(sc: _Keys, cols: _Columns):
    """A stage's dependent and its `models` object (label -> regressors)."""
    dependent = sc.get("dependent")
    keys = _Keys(sc.get("models", {}), f"{sc.where} models")
    models = {label: keys.list_of(label, str) for label in keys.obj}
    cols.need(sc.where, dependent, *[r for regressors in models.values() for r in regressors])
    return dependent, models


def _parse_uqr(sc: _Keys, cols: _Columns):
    """-> (dependent, {label: regressors}, QuantileSpec)"""
    qspec = sc.build(rif.QuantileSpec, taus=sc.list_of("taus", float, rif.DEFAULT_TAUS))
    return (*_dependent_and_models(sc, cols), qspec)


def _parse_treatment(sc: _Keys, cols: _Columns):
    """-> (dependent, QuantileSpec, TreatmentSpec per weighting variant)"""
    dependent = sc.get("dependent")
    qspec = sc.build(rif.QuantileSpec, taus=sc.list_of("taus", float, rif.DEFAULT_TAUS))
    treatment = sc.get("treatment")
    propensity = sc.list_of("propensity_regressors", str)
    controls = sc.list_of("controls", str)
    clip = sc.list_of("clip", float, (0.01, 0.99))
    cols.need(sc.where, dependent, treatment, *propensity, *controls)
    specs = tuple(sc.build(rif.TreatmentSpec, treatment=treatment, propensity_regressors=propensity,
                           controls=controls, clip=clip, weighting=variant)
                  for variant in sc.list_of("variants", str, ("ipw", "none")))
    return dependent, qspec, specs


def _parse_cqr(sc: _Keys, cols: _Columns):
    """-> (tau, (label, CqrSpec) per model)"""
    tau = sc.number("tau", float, 0.5)
    dependent, models = _dependent_and_models(sc, cols)
    return tau, tuple((label, sc.build(cqr.CqrSpec, dependent=dependent, regressors=regressors, tau=tau,
                                       fe_dims=("entity", "year")))
                      for label, regressors in models.items())


_STAGE_PARSERS = {"heckman": _parse_heckman, "counts": _parse_counts, "productivity": _parse_productivity,
                  "uqr": _parse_uqr, "treatment": _parse_treatment, "cqr": _parse_cqr}


@dataclasses.dataclass(frozen=True)
class _Pipeline:
    """A pipeline config as parsed, before any data are loaded."""

    source: tuple[str, str, str]  # input path, entity column, year column
    derives: tuple[panel.DeriveRule, ...]
    subsamples: dict[str, str | None]  # name -> row predicate; "full" first
    stages: dict[str, tuple]  # each stage that runs, in STAGE_ORDER -> what stages.<name> takes
    thresholds: tuple
    replications: int
    seed: int | None  # bootstrap seed; replicate seeds add a per-subsample, per-stage salt


def _parse_pipeline(top: _Keys, stage_subset, seed) -> _Pipeline:
    inp = _Keys(top.get("input"), "input")
    source = (inp.get("path"), inp.get("entity_col", "entity"), inp.get("year_col", "year"))
    inp.close()
    with open(source[0], "r", newline="", encoding="utf-8") as fh:
        header = panel.read_header(csv.reader(fh), *source)
    cols = _Columns(set(header) - set(source[1:]))

    derives = tuple(_derive_rule(entry, cols) for entry in top.get("derives", []))
    subsamples = _Keys(top.get("subsamples", {}), "subsamples").obj
    for name, pred in subsamples.items():
        cols.need(f"subsample {name!r}", *sorted(predicate_columns(pred)))

    style = top.choice("star_style", tables.STAR_STYLES, "uqr")
    boot = _Keys(top.get("bootstrap", {}), "bootstrap")
    replications = boot.number("replications", int, 0)
    if replications == 1 or replications < 0:
        raise ValidationError(f"{boot.where}: key 'replications' must be 0 (analytic) or at least 2, got {replications}")
    boot_seed = boot.number("seed", int, None)
    boot.close()

    stage_keys = _Keys(top.get("stages", {}), "stages")
    to_run = {}
    for name in STAGE_ORDER:
        if name not in stage_keys.obj:
            continue
        runs = stage_subset is None or name in stage_subset
        sc = _Keys(stage_keys.get(name), f"{name} stage")
        parsed = _STAGE_PARSERS[name](sc, cols if runs else _Columns(None))
        sc.close()
        if runs:
            to_run[name] = parsed
    stage_keys.close()
    return _Pipeline(source, derives, {"full": None, **subsamples}, to_run, tables.STAR_STYLES[style],
                    replications, boot_seed if seed is None else int(seed))


class _StageRunner:
    """Runs the parsed stages for one subsample, writing each stage's outputs
    as soon as it returns."""

    def __init__(self, plan: _Pipeline, ds: panel.PanelDataset, subsample: str, outdir: str, seed_salt: int):
        self.plan = plan
        self.ds = ds
        self.subsample = subsample
        self.outdir = outdir
        self.seed_salt = seed_salt
        self.manifest: list[dict] = []
        self.artifacts: list[str] = []

    def _vcov(self, stage_salt: int) -> VcovSpec:
        if self.plan.replications < 1:
            return VcovSpec("analytic")
        seed = (self.plan.seed or 0) + self.seed_salt + stage_salt
        return VcovSpec("cluster_bootstrap", replications=self.plan.replications, seed=seed)

    def _stage(self, stage: str, parsed) -> None:
        """Fit one stage on the dataset so far, then render and write its fits:
        result lines, manifest rows, one table per title and plot data."""
        self.ds, fits = getattr(stages, stage)(self.ds, parsed, self._vcov)
        name = f"{stage}__{self.subsample}"
        lines, groups, plots = [], {}, {}
        for f in fits:
            lines += tables.result_lines(stage, self.subsample, f.model, f.fit, self.plan.thresholds, tau=f.tau)
            self.manifest.append({"stage": stage, "subsample": self.subsample, "model": f.model,
                                  **({"tau": f.tau} if f.tau is not None else {}), "n": f.fit.n_obs})
            # quantile fits' tables show t statistics
            title = f.title.replace("{subsample}", self.subsample)
            groups.setdefault((title, "se" if f.tau is None else "t"), []).append(tables.TableColumn(f.column, f.fit))
            for reg in f.plot:
                plots.setdefault(f"{name}__{f.model}__{reg.replace('/', '_')}.csv", (reg, {}))[1][f.tau] = f.fit
        texts = [tables.render_table(title, cols, self.plan.thresholds, paren=paren)
                 for (title, paren), cols in groups.items()]
        # a Heckman stage's tables sit one blank line apart, its selection lines under them
        footer = [line for f in fits for line in tables.selection_lines(f.fit)]
        docs = {"results": "\n".join(lines) + "\n" if lines else "",
                "tables": "\n".join(texts + footer) + "\n" if footer else "\n\n".join(texts)}
        files = {os.path.join(self.outdir, sub, f"{name}.txt"): text for sub, text in docs.items() if text}
        for path, (reg, tau_fits) in plots.items():
            files[os.path.join(self.outdir, "plotdata", path)] = "\n".join(tables.plot_data_lines(tau_fits, reg)) + "\n"
        for path, text in files.items():
            tables.atomic_write(path, text)
            self.artifacts.append(path)

    # one attribute per stage, spanning its fit and its writes, so that each
    # stage can be wrapped and timed on its own
    stage_heckman = functools.partialmethod(_stage, "heckman")
    stage_counts = functools.partialmethod(_stage, "counts")
    stage_productivity = functools.partialmethod(_stage, "productivity")
    stage_uqr = functools.partialmethod(_stage, "uqr")
    stage_treatment = functools.partialmethod(_stage, "treatment")
    stage_cqr = functools.partialmethod(_stage, "cqr")

    def run(self) -> tuple[list[dict], list[str]]:
        for stage, parsed in self.plan.stages.items():
            try:
                getattr(self, f"stage_{stage}")(parsed)
            except Exception as exc:
                raise PipelineStageError(stage, self.subsample, exc) from exc
        return self.manifest, self.artifacts


def run_pipeline(config_path: str, stages=None, seed=None, jobs: int = 1, output_dir=None) -> dict:
    """Execute a pipeline config; returns the manifest dictionary."""
    with open(config_path, "r", encoding="utf-8") as fh:
        raw = fh.read()
    try:
        config = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config {config_path}: not valid JSON: {exc}") from None
    top = _Keys(config, "config")
    mode = top.choice("mode", ("pipeline", "simulate", "monte_carlo"), "pipeline")
    outdir = top.get("output_dir", "cdmpanel_out")
    if output_dir is not None:
        outdir = output_dir
    if mode == "pipeline":
        run = functools.partial(_run_plan, _parse_pipeline(top, set(stages) if stages else None, seed), raw, jobs)
    elif mode == "simulate":
        run = functools.partial(_run_simulate, _dgp(top, seed))
    else:
        run = functools.partial(_run_monte_carlo, _dgp(top, seed), top.get("estimator"), top.number("reps", int))
    top.close()
    for sub in ("results", "tables", "plotdata"):
        os.makedirs(os.path.join(outdir, sub), exist_ok=True)
    return run(outdir)


def _run_plan(plan: _Pipeline, raw: str, jobs: int, outdir: str) -> dict:
    ds = panel.load_csv(*plan.source)
    for rule in plan.derives:
        ds = panel.derive(ds, rule)

    def run_one(item):
        idx, (name, pred) = item
        ds_sub = ds if pred is None else panel.filter_rows(ds, pred)
        return _StageRunner(plan, ds_sub, name, outdir, seed_salt=1000 * idx).run()

    items = list(enumerate(plan.subsamples.items()))
    if jobs > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(run_one, items))
    else:
        results = [run_one(item) for item in items]

    manifest_rows = [row for rows, _ in results for row in rows]
    artifacts = sorted(path for _, paths in results for path in paths)
    manifest = {
        "config_sha256": hashlib.sha256(raw.encode("utf-8")).hexdigest(),
        "seed": plan.seed,
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


_DGP_PARTS = {"selection": synthdgp.SelectionConfig, "rd": synthdgp.RdConfig, "counts": synthdgp.CountConfig,
              "productivity": synthdgp.ProductivityConfig, "treatment": synthdgp.TreatmentConfig}


def _dgp_fields(cls, keys: _Keys, **values):
    """A synthdgp config dataclass; each value is cast like its field's default."""
    for f in dataclasses.fields(cls):
        if f.name in keys.obj and f.name not in values:
            values[f.name] = keys.get(f.name) if isinstance(f.default, str) else keys.number(f.name, type(f.default))
    keys.close()
    return cls(**values)


def _dgp(top: _Keys, seed) -> synthdgp.DgpConfig:
    """The `dgp` object, with the config's `seed`, or `seed` if given, in place of its own."""
    keys = _Keys(top.get("dgp", {}), "dgp")
    parts = {name: _dgp_fields(cls, _Keys(keys.get(name), f"dgp {name}"))
             for name, cls in _DGP_PARTS.items() if name in keys.obj}
    cfg = _dgp_fields(synthdgp.DgpConfig, keys, **parts)
    config_seed = top.number("seed", int, None)
    seed = config_seed if seed is None else int(seed)
    return cfg if seed is None else dataclasses.replace(cfg, seed=seed)


def _run_simulate(cfg: synthdgp.DgpConfig, outdir: str) -> dict:
    ds = synthdgp.generate_panel(cfg)
    path = os.path.join(outdir, "panel.csv")
    ds.to_csv(path)
    tpath = os.path.join(outdir, "true_parameters.json")
    tables.atomic_write(tpath, json.dumps(synthdgp.true_parameters(cfg), indent=2, sort_keys=True) + "\n")
    return {"mode": "simulate", "csv": path, "true_parameters": tpath, "rows": ds.n_rows}


def _run_monte_carlo(cfg: synthdgp.DgpConfig, estimator: str, reps: int, outdir: str) -> dict:
    report = synthdgp.monte_carlo(cfg, estimator, reps, cfg.seed)
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
    except (ValidationError, ConvergenceError, PipelineStageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
