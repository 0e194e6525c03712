"""Inputs of the benchmark workloads.

Each input builder in ``WORKLOADS`` takes a directory and the workload seed,
writes the workload's synthetic CSV and JSON configs there, and returns the
operations of one round. Only monte_carlo_500x8 uses the seed (PANEL_SEED says
why the pipelines do not). The program receives only these files: every
operation is one ``cdmpanel.cli.run_pipeline`` call on one config.
"""

from __future__ import annotations

import copy
import json
import os
from dataclasses import dataclass, field

import numpy as np

from cdmpanel import synthdgp

# The benchmark's own copy of the acceptance pipeline config
# (tests/test_acceptance.py::_pipeline_config); the input path is filled in
# per run.
ACCEPTANCE_CONFIG = {
    "mode": "pipeline",
    "input": {"path": None, "entity_col": "entity", "year_col": "year"},
    "derives": [
        {"kind": "rolling_mean", "source": "PAT", "window": 3, "target": "PAT_rm3"},
        {"kind": "round", "source": "PAT_rm3", "target": "PAT_dep"},
        {"kind": "rolling_mean", "source": "ECO", "window": 3, "target": "ECO_rm3"},
        {"kind": "round", "source": "ECO_rm3", "target": "ECO_dep"},
        {"kind": "rolling_mean", "source": "NECO", "window": 3, "target": "NECO_rm3"},
        {"kind": "round", "source": "NECO_rm3", "target": "NECO_dep"},
        {"kind": "lead", "source": "lnVA_pe", "k": 1, "target": "lnVA_lead"},
        {"kind": "indicator", "predicate": "ECO_rm3 > 0", "target": "HAS_ECO"},
    ],
    "bootstrap": {"replications": 15, "seed": 424242},
    "star_style": "uqr",
    "stages": {
        "heckman": {
            "outcome": "RDINT", "selection": "D",
            "outcome_regressors": ["X1", "lnEMP", "lnCAPINT"],
            "exclusion_restrictions": ["Z"],
            "fe": ["year"],
            "predict_as": "RDINT_hat",
        },
        "counts": {
            "epsilon": 0.001,
            "employees": "EMP",
            "models": [
                {"name": "PAT", "dependent": "PAT_dep", "raw": "PAT_rm3",
                 "families": ["poisson_fe", "nb2"], "regressors": ["RDINT_hat", "lnEMP"],
                 "predict_family": "poisson_fe",
                 "predict_as": "PAT_hat", "intensity_as": "lnPATINT_hat"},
                {"name": "ECO", "dependent": "ECO_dep", "raw": "ECO_rm3",
                 "families": ["poisson_fe", "nb2"], "regressors": ["RDINT_hat", "lnEMP"],
                 "predict_family": "poisson_fe",
                 "predict_as": "ECO_hat", "intensity_as": "lnECOINT_hat"},
                {"name": "NECO", "dependent": "NECO_dep", "raw": "NECO_rm3",
                 "families": ["poisson_fe", "nb2"], "regressors": ["RDINT_hat", "lnEMP"],
                 "predict_family": "poisson_fe",
                 "predict_as": "NECO_hat", "intensity_as": "lnNECOINT_hat"},
            ],
        },
        "productivity": {
            "dependent": "lnVA_lead",
            "controls": ["lnEMP", "lnCAPINT"],
            "classical": ["lnPATINT_hat"],
            "extended": ["lnNECOINT_hat", "lnECOINT_hat"],
            "mundlak": True,
        },
        "uqr": {
            "dependent": "lnVA_lead",
            "taus": [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9],
            "models": {
                "classical": ["lnPATINT_hat", "lnEMP", "lnCAPINT"],
                "extended": ["lnNECOINT_hat", "lnECOINT_hat", "lnEMP", "lnCAPINT"],
            },
        },
        "treatment": {
            "dependent": "lnVA_lead",
            "treatment": "HAS_ECO",
            "propensity_regressors": ["lnEMP", "lnCAPINT"],
            "controls": ["lnNECOINT_hat", "lnEMP", "lnCAPINT"],
            "variants": ["ipw", "none"],
        },
        "cqr": {
            "dependent": "lnVA_lead",
            "tau": 0.5,
            "models": {
                "classical": ["lnPATINT_hat", "lnEMP", "lnCAPINT"],
                "extended": ["lnNECOINT_hat", "lnECOINT_hat", "lnEMP", "lnCAPINT"],
            },
        },
    },
}

SECTOR_COL = "SECTOR"
# sector 1 is the paper's heavy-polluting group, sector 0 the rest
SECTOR_SUBSAMPLES = {"polluting": 1.0, "other": 0.0}

# The default DgpConfig's parameters, written out so that the checks can
# compare estimates with the values the data were drawn from.
DGP_PARAMS = {
    "selection": {"intercept": 0.4, "slope_x": 0.5, "exclusion_coef": 1.0, "rho_sel": -0.5},
    "rd": {"intercept": 1.0, "slope_x": 0.5, "noise_sd": 1.0},
    "counts": {"intercept": -0.3, "slope_rdint": 0.5, "entity_sd": 0.3, "alpha": 0.0},
    "productivity": {"beta_patent": 0.4, "beta_capint": 0.15, "beta_emp": 0.05},
}
# Heckman step 2 estimates the outcome slope and rho * sigma on the IMR.
HECKMAN_TRUTH = {
    "X1": DGP_PARAMS["rd"]["slope_x"],
    "IMR": DGP_PARAMS["selection"]["rho_sel"] * DGP_PARAMS["rd"]["noise_sd"],
}

# The pipelines' inputs do not depend on the workload seed: their panel is
# drawn with the DGP seed of tests/test_acceptance.py::test_criterion_11_end_to_end
# and the sector split is fixed. Their cost depends on the panel more than a
# code change may move it: over five seeds the 120 x 6 CQR solver needed
# 17 915 to 22 795 linear solves, and at 500 x 8 a full-sample NB2 fit that
# falls back to Poisson at the alpha = 0 boundary on some panels took a round
# from 7.6 s to 9.2 s. And a seeded split made the counts stage fail on 1 of
# 61 splits (see README, "Operations and failures").
PANEL_SEED = 11011

MC_REPS = 40
MC_ESTIMATORS = ("heckman", "poisson_fe", "nb2", "fe_ols")
# `nb2` stalls on about 1 panel in 8 of the default DGP, so whether more than
# 10% of its replications fail depends on the panels drawn (see README,
# "Operations and failures"). On seed 1, 5 of 40 fail and the call raises every
# time; it runs on that seed so that the failure does not depend on the
# workload seed.
MC_FIXED_SEEDS = {"nb2": 1}


@dataclass
class Op:
    """One run_pipeline call."""

    label: str
    config_path: str


@dataclass
class Inputs:
    ops: list[Op]
    csv_path: str | None = None
    # subsample name -> value of SECTOR_COL it keeps
    subsamples: dict[str, float] = field(default_factory=dict)


def _write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_panel(path: str, n_entities: int, n_periods: int, sectors: bool) -> None:
    cfg = synthdgp.DgpConfig(
        n_entities=n_entities,
        n_periods=n_periods,
        seed=PANEL_SEED,
        selection=synthdgp.SelectionConfig(**DGP_PARAMS["selection"]),
        rd=synthdgp.RdConfig(**DGP_PARAMS["rd"]),
        counts=synthdgp.CountConfig(**DGP_PARAMS["counts"]),
        productivity=synthdgp.ProductivityConfig(**DGP_PARAMS["productivity"]),
    )
    ds = synthdgp.generate_panel(cfg)
    if sectors:
        # entity-constant sector: the first half of the (i.i.d.) entities is polluting
        per_entity = (np.arange(n_entities) < n_entities // 2).astype(float)
        ds = ds.with_column(SECTOR_COL, np.repeat(per_entity, n_periods))
    ds.to_csv(path)


def pipeline_inputs(indir: str, n_entities: int, n_periods: int, sectors: bool) -> Inputs:
    os.makedirs(indir, exist_ok=True)
    csv_path = os.path.join(indir, "panel.csv")
    _write_panel(csv_path, n_entities, n_periods, sectors)
    config = copy.deepcopy(ACCEPTANCE_CONFIG)
    config["input"]["path"] = csv_path
    subsamples = {}
    if sectors:
        config["bootstrap"]["replications"] = 0
        # without a bootstrap cqr reports a zero covariance (see README)
        del config["stages"]["cqr"]
        subsamples = dict(SECTOR_SUBSAMPLES)
        config["subsamples"] = {sub: f"{SECTOR_COL} == {int(v)}" for sub, v in subsamples.items()}
    cfg_path = os.path.join(indir, "config.json")
    _write_json(cfg_path, config)
    return Inputs([Op("pipeline", cfg_path)], csv_path, subsamples)


def _monte_carlo_inputs(indir: str, seed: int) -> Inputs:
    os.makedirs(indir, exist_ok=True)
    ops = []
    for est in MC_ESTIMATORS:
        config = {
            "mode": "monte_carlo",
            "dgp": {"n_entities": 500, "n_periods": 8, **copy.deepcopy(DGP_PARAMS)},
            "estimator": est,
            "reps": MC_REPS,
            "seed": MC_FIXED_SEEDS.get(est, seed),
        }
        path = os.path.join(indir, f"mc_{est}.json")
        _write_json(path, config)
        ops.append(Op(f"mc_{est}", path))
    return Inputs(ops)


# workload name -> input builder taking (directory, seed)
WORKLOADS = {
    "pipeline_120x6_boot": lambda indir, seed: pipeline_inputs(indir, 120, 6, sectors=False),
    "pipeline_500x8_sectors": lambda indir, seed: pipeline_inputs(indir, 500, 8, sectors=True),
    "monte_carlo_500x8": _monte_carlo_inputs,
}

