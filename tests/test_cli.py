import json
import os
import subprocess
import sys

import numpy as np
import pytest

from cdmpanel import DgpConfig, PanelDataset, ValidationError, generate_panel
from cdmpanel import cli, tables
from cdmpanel.estim import FitResult


def write_config(tmp_path, panel_name="panel.csv", **overrides):
    cfg = {
        "mode": "pipeline",
        "input": {"path": str(tmp_path / panel_name), "entity_col": "entity", "year_col": "year"},
        "derives": [
            {"kind": "rolling_mean", "source": "PAT", "window": 3, "target": "PAT_rm3"},
            {"kind": "round", "source": "PAT_rm3", "target": "PAT_dep"},
            {"kind": "lead", "source": "lnVA_pe", "k": 1, "target": "lnVA_lead"},
        ],
        "bootstrap": {"replications": 8, "seed": 99},
        "output_dir": str(tmp_path / "out"),
        "stages": {
            "heckman": {
                "outcome": "RDINT",
                "selection": "D",
                "outcome_regressors": ["X1"],
                "exclusion_restrictions": ["Z"],
                "predict_as": "RDINT_hat",
            },
            "counts": {
                "employees": "EMP",
                "models": [
                    {
                        "name": "PAT",
                        "dependent": "PAT_dep",
                        "raw": "PAT_rm3",
                        "families": ["poisson_fe"],
                        "regressors": ["RDINT_hat", "lnEMP"],
                        "year_fe": False,
                        "predict_as": "PAT_hat",
                        "intensity_as": "lnPATINT_hat",
                    }
                ],
            },
            "productivity": {
                "dependent": "lnVA_lead",
                "controls": ["lnEMP", "lnCAPINT"],
                "classical": ["lnPATINT_hat"],
                "mundlak": True,
            },
            "uqr": {
                "dependent": "lnVA_lead",
                "taus": [0.25, 0.5, 0.75],
                "models": {"classical": ["lnPATINT_hat", "lnEMP", "lnCAPINT"]},
            },
            "cqr": {
                "dependent": "lnVA_lead",
                "tau": 0.5,
                "models": {"classical": ["lnPATINT_hat", "lnEMP", "lnCAPINT"]},
            },
        },
    }
    for key, value in overrides.items():
        cfg[key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path, cfg


@pytest.fixture()
def small_run(tmp_path):
    ds = generate_panel(DgpConfig(n_entities=50, n_periods=5, seed=17))
    ds.to_csv(tmp_path / "panel.csv")
    return tmp_path


class TestPreflight:
    def test_underived_variable_caught_before_fitting(self, small_run):
        path, cfg = write_config(small_run)
        cfg["stages"]["productivity"]["classical"] = ["lnPATINT_not_there"]
        path.write_text(json.dumps(cfg))
        with pytest.raises(ValidationError, match="lnPATINT_not_there"):
            cli.run_pipeline(str(path))
        assert not os.path.exists(small_run / "out" / "results" / "heckman__full.txt")

    def test_stage_subset_missing_dependency_caught(self, small_run):
        path, _ = write_config(small_run)
        with pytest.raises(ValidationError, match="RDINT_hat"):
            cli.run_pipeline(str(path), stages=["counts"])

    def test_heckman_entity_effects_refused_before_fitting(self, small_run):
        path, cfg = write_config(small_run)
        cfg["stages"]["heckman"]["fe"] = ["entity", "year"]
        path.write_text(json.dumps(cfg))
        with pytest.raises(ValidationError, match="heckman stage: entity fixed effects"):
            cli.run_pipeline(str(path))
        assert not os.path.exists(small_run / "out" / "results" / "heckman__full.txt")

    @pytest.mark.parametrize("entry", [
        {"subsamples": {"large": "abs(X1) > 1"}},
        {"derives": [{"kind": "indicator", "predicate": "abs(X1) > 1", "target": "large"}]},
    ], ids=["subsample", "derive"])
    def test_predicate_construct_refused_at_parse(self, small_run, entry):
        # a call's function name is not an unresolved variable: the call
        # itself is refused
        path, _ = write_config(small_run, **entry)
        with pytest.raises(ValidationError, match="construct Call not allowed"):
            cli.run_pipeline(str(path))
        assert not os.path.exists(small_run / "out" / "results" / "heckman__full.txt")

    def test_derive_collision_caught(self, small_run):
        path, cfg = write_config(small_run)
        cfg["derives"].append({"kind": "round", "source": "PAT", "target": "PAT_dep"})
        path.write_text(json.dumps(cfg))
        with pytest.raises(ValidationError, match="PAT_dep"):
            cli.run_pipeline(str(path))


class TestPipelineRun:
    def test_artifacts_and_manifest(self, small_run):
        path, cfg = write_config(small_run)
        manifest = cli.run_pipeline(str(path))
        out = small_run / "out"
        for stage in ("heckman", "counts", "productivity", "uqr", "cqr"):
            assert (out / "results" / f"{stage}__full.txt").exists()
            assert (out / "tables" / f"{stage}__full.txt").exists()
        assert (out / "manifest.json").exists()
        assert manifest["versions"]["cdmpanel"]
        assert any(row["stage"] == "uqr" for row in manifest["stages"])

    def test_results_documents_parse_as_key_value(self, small_run):
        path, _ = write_config(small_run)
        cli.run_pipeline(str(path))
        doc = (small_run / "out" / "results" / "productivity__full.txt").read_text()
        for line in doc.strip().splitlines():
            pairs = dict(tok.split("=", 1) for tok in line.split(" "))
            assert pairs["stage"] == "productivity"
            assert "subsample" in pairs and "record" in pairs or "record=mundlak" in line

    def test_manifest_n_matches_document_n(self, small_run):
        path, _ = write_config(small_run)
        manifest = cli.run_pipeline(str(path))
        doc = (small_run / "out" / "results" / "productivity__full.txt").read_text()
        doc_n = None
        for line in doc.splitlines():
            if "record=diag" in line and "name=n_obs" in line:
                doc_n = int(line.rsplit("value=", 1)[1])
        rows = [r for r in manifest["stages"] if r["stage"] == "productivity"]
        assert rows and rows[0]["n"] == doc_n

    def test_rerun_bit_identical(self, small_run):
        path, _ = write_config(small_run)
        cli.run_pipeline(str(path), output_dir=str(small_run / "o1"))
        cli.run_pipeline(str(path), output_dir=str(small_run / "o2"))
        for sub in ("results", "tables", "plotdata"):
            d1, d2 = small_run / "o1" / sub, small_run / "o2" / sub
            for name in sorted(os.listdir(d1)):
                assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_parallel_jobs_match_sequential(self, small_run):
        path, cfg = write_config(small_run, subsamples={"x_positive": "X1 > 0"})
        path.write_text(json.dumps(cfg))
        cli.run_pipeline(str(path), jobs=1, output_dir=str(small_run / "seq"))
        cli.run_pipeline(str(path), jobs=2, output_dir=str(small_run / "par"))
        for sub in ("results", "tables", "plotdata"):
            d1, d2 = small_run / "seq" / sub, small_run / "par" / sub
            for name in sorted(os.listdir(d1)):
                assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_counts_table_shows_nb2_entities_dropped(self, tmp_path):
        ds = generate_panel(DgpConfig(n_entities=50, n_periods=5, seed=17))
        zero = np.isin(ds.entity_index(), [0, 1])
        columns = {**ds.columns, "PAT": np.where(zero, 0.0, ds.column("PAT"))}
        PanelDataset(ds.entities, ds.periods, columns).to_csv(tmp_path / "panel.csv")
        path, cfg = write_config(tmp_path)
        cfg["stages"]["counts"]["models"][0]["families"] = ["poisson_fe", "nb2"]
        path.write_text(json.dumps(cfg))
        cli.run_pipeline(str(path), stages=["heckman", "counts"])
        table = (tmp_path / "out" / "tables" / "counts__full.txt").read_text()
        rows = [line.split() for line in table.splitlines() if line.startswith("entities dropped")]
        assert rows == [["entities", "dropped", "2", "2"]]

    def test_subsample_runs_independently(self, small_run):
        path, cfg = write_config(small_run, subsamples={"x_positive": "X1 > 0"})
        path.write_text(json.dumps(cfg))
        cli.run_pipeline(str(path))
        out = small_run / "out"
        assert (out / "results" / "heckman__x_positive.txt").exists()
        full = (out / "results" / "productivity__full.txt").read_text()
        sub = (out / "results" / "productivity__x_positive.txt").read_text()
        assert full != sub

    def test_cli_main_and_stage_validation(self, small_run, capsys):
        path, _ = write_config(small_run)
        assert cli.main([str(path), "--stages", "heckman", "--output-dir", str(small_run / "m1")]) == 0
        with pytest.raises(SystemExit):
            cli.main([str(path), "--stages", "bogus"])

    def test_stage_failure_names_stage_and_keeps_outputs(self, small_run):
        path, cfg = write_config(small_run)
        # sabotage the counts stage with a non-integer dependent
        cfg["stages"]["counts"]["models"][0]["dependent"] = "PAT_rm3"
        path.write_text(json.dumps(cfg))
        with pytest.raises(cli.PipelineStageError, match="counts"):
            cli.run_pipeline(str(path))
        assert (small_run / "out" / "results" / "heckman__full.txt").exists()


class TestSimulateAndMonteCarlo:
    def test_simulate_mode_writes_panel(self, tmp_path):
        cfg = {
            "mode": "simulate",
            "dgp": {"n_entities": 30, "n_periods": 4, "seed": 5},
            "output_dir": str(tmp_path / "sim"),
        }
        path = tmp_path / "sim.json"
        path.write_text(json.dumps(cfg))
        result = cli.run_pipeline(str(path))
        assert os.path.exists(result["csv"])
        assert os.path.exists(result["true_parameters"])
        assert result["rows"] == 120

    def test_monte_carlo_mode_writes_report(self, tmp_path):
        cfg = {
            "mode": "monte_carlo",
            "dgp": {"n_entities": 60, "n_periods": 4, "seed": 5},
            "estimator": "naive_ols",
            "reps": 5,
            "seed": 9,
            "output_dir": str(tmp_path / "mc"),
        }
        path = tmp_path / "mc.json"
        path.write_text(json.dumps(cfg))
        result = cli.run_pipeline(str(path))
        assert os.path.exists(result["document"])
        assert "X1" in result["parameters"]


class TestTables:
    def fit(self, est, se, extra_notes=None):
        return FitResult(
            coefficients={"x": est, "_cons": 1.0},
            vcov=np.diag([se**2, 0.01]),
            n_obs=1234,
            fit={"r2": 0.5, "adj_r2": 0.4},
            notes=extra_notes or {},
        )

    def test_significant_coefficient_rendering(self):
        text = tables.render_table(
            "demo", [tables.TableColumn("m1", self.fit(0.419, 0.035))]
        )
        assert "0.419***" in text
        assert "(0.035)" in text
        assert "N" in text and "1,234" in text

    def test_marginal_p_gets_plus_marker(self):
        # choose se so the two-sided p sits between 0.05 and 0.1
        est, se = 0.419, 0.419 / 1.75
        text = tables.render_table("demo", [tables.TableColumn("m1", self.fit(est, se))])
        assert "0.419+" in text

    def test_insignificant_no_marker(self):
        est, se = 0.419, 0.7
        text = tables.render_table("demo", [tables.TableColumn("m1", self.fit(est, se))])
        assert "0.419+" not in text and "0.419*" not in text
        assert "0.419" in text

    def test_table1_style_has_no_plus(self):
        text = tables.render_table(
            "demo",
            [tables.TableColumn("m1", self.fit(0.419, 0.035))],
            thresholds=tables.STAR_STYLES["table1"],
        )
        assert "+ p<0.1" not in text
        assert "* p<0.05" in text

    def test_legend_lists_thresholds(self):
        text = tables.render_table("demo", [tables.TableColumn("m1", self.fit(1.0, 1.0))])
        assert "+ p<0.1, * p<0.05, ** p<0.01, *** p<0.001" in text

    def test_unknown_paren_style_errors(self):
        with pytest.raises(ValidationError):
            tables.render_table("demo", [tables.TableColumn("m", self.fit(1, 1))], paren="zz")

    def test_fe_footer_rows(self):
        fit = self.fit(0.5, 0.1, extra_notes={"fe_dims": ("entity", "year")})
        text = tables.render_table("demo", [tables.TableColumn("m", fit)])
        assert "Individual FE" in text and "Time FE" in text

    def test_count_footer_rows_come_from_notes(self):
        counted = self.fit(0.5, 0.1, extra_notes={"alpha": 0.25, "dropped_entities": 3})
        rows = [line.split() for line in tables.render_table("demo", [tables.TableColumn("m", counted)]).splitlines()]
        assert ["alpha", "0.25"] in rows and ["entities", "dropped", "3"] in rows
        text = tables.render_table("demo", [tables.TableColumn("m", self.fit(0.5, 0.1))])
        assert "alpha" not in text and "entities dropped" not in text


class TestMissingKeys:
    def test_heckman_without_outcome(self, small_run, capsys):
        path, cfg = write_config(small_run)
        del cfg["stages"]["heckman"]["outcome"]
        path.write_text(json.dumps(cfg))
        assert cli.main([str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "missing required key 'outcome'" in err
        assert not os.path.exists(small_run / "out" / "results" / "heckman__full.txt")

    def test_counts_model_without_predict_as(self, small_run, capsys):
        path, cfg = write_config(small_run)
        del cfg["stages"]["counts"]["models"][0]["predict_as"]
        path.write_text(json.dumps(cfg))
        assert cli.main([str(path)]) == 1
        assert "counts model 'PAT': missing required key 'predict_as'" in capsys.readouterr().err

    def test_derive_without_source(self, small_run, capsys):
        path, cfg = write_config(small_run)
        del cfg["derives"][0]["source"]
        path.write_text(json.dumps(cfg))
        assert cli.main([str(path)]) == 1
        assert "derive of 'PAT_rm3': missing required key 'source'" in capsys.readouterr().err


def monte_carlo_config(tmp_path, **overrides):
    cfg = {
        "mode": "monte_carlo",
        "dgp": {"n_entities": 60, "n_periods": 4, "seed": 5, "rd": {"slope_x": 0.5}},
        "estimator": "naive_ols",
        "reps": 5,
        "seed": 9,
        "output_dir": str(tmp_path / "out"),
        **overrides,
    }
    path = tmp_path / "mc.json"
    path.write_text(json.dumps(cfg))
    return path, cfg


class TestUnknownKeys:
    @pytest.mark.parametrize("where, at, key", [
        ("config", (), "seeed"),
        ("input", ("input",), "entity"),
        ("bootstrap", ("bootstrap",), "bootstrp"),
        ("stages", ("stages",), "heckmann"),
        ("heckman stage", ("stages", "heckman"), "exclusion_restriction"),
        ("counts stage", ("stages", "counts"), "epsilon_"),
        ("counts model 'PAT'", ("stages", "counts", "models", 0), "predict_familly"),
        ("productivity stage", ("stages", "productivity"), "mundlack"),
        ("uqr stage", ("stages", "uqr"), "tau"),
        ("cqr stage", ("stages", "cqr"), "taus"),
        ("derive of 'PAT_rm3'", ("derives", 0), "k"),
        ("dgp", ("dgp",), "n_entity"),
        ("dgp rd", ("dgp", "rd"), "slope"),
    ])
    def test_unknown_key_is_refused(self, small_run, capsys, where, at, key):
        if at[:1] == ("dgp",):
            path, cfg = monte_carlo_config(small_run)
        else:
            path, cfg = write_config(small_run)
        obj = cfg
        for step in at:
            obj = obj[step]
        obj[key] = 1
        path.write_text(json.dumps(cfg))
        assert cli.main([str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{where}: unknown key {key!r}" in err
        assert list((small_run / "out").glob("results/*")) == []


class TestMalformedInput:
    @pytest.mark.parametrize("index, key, value, message", [
        (2, "k", "one", "derive of 'lnVA_lead': key 'k' must be an integer, got 'one'"),
        (2, "k", 1.5, "derive of 'lnVA_lead': key 'k' must be an integer, got 1.5"),
        (0, "window", [3], "derive of 'PAT_rm3': key 'window' must be an integer, got [3]"),
    ])
    def test_non_integer_derive_key(self, small_run, capsys, index, key, value, message):
        path, cfg = write_config(small_run)
        cfg["derives"][index][key] = value
        path.write_text(json.dumps(cfg))
        assert cli.main([str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    def test_non_numeric_shift(self, small_run, capsys):
        path, cfg = write_config(small_run)
        cfg["derives"].append({"kind": "log_shift", "source": "PAT", "shift": "one", "target": "lnPAT1"})
        path.write_text(json.dumps(cfg))
        assert cli.main([str(path)]) == 1
        assert "derive of 'lnPAT1': key 'shift' must be a number, got 'one'" in capsys.readouterr().err

    @pytest.mark.parametrize("stage, key, value, message", [
        ("uqr", "taus", [0.5, 1.5], "uqr stage: quantile 1.5 outside (0, 1)"),
        ("uqr", "taus", "0.5", "uqr stage: key 'taus' must be a list of numbers, got '0.5'"),
        ("treatment", "clip", [0.2, 0.4], "treatment stage: clip bounds must be a pair"),
        ("treatment", "clip", [0.1, 0.5, 0.9], "treatment stage: clip bounds must be a pair"),
    ])
    def test_bad_spec_value_caught_before_fitting(self, small_run, capsys, stage, key, value, message):
        path, cfg = write_config(small_run)
        cfg["stages"]["treatment"] = {"dependent": "lnVA_lead", "treatment": "TREAT", "controls": ["lnEMP"]}
        cfg["stages"][stage][key] = value
        path.write_text(json.dumps(cfg))
        assert cli.main([str(path)]) == 1
        assert message in capsys.readouterr().err
        assert not os.path.exists(small_run / "out" / "results" / "heckman__full.txt")

    def test_predict_family_must_be_fitted(self, small_run, capsys):
        path, cfg = write_config(small_run)
        cfg["stages"]["counts"]["models"][0]["predict_family"] = "nb2"
        path.write_text(json.dumps(cfg))
        assert cli.main([str(path)]) == 1
        err = capsys.readouterr().err
        assert "counts model 'PAT': key 'predict_family' must be one of ['poisson_fe'], got 'nb2'" in err

    @pytest.mark.parametrize("content, message", [
        ("", "file is empty, no header row"),
        (None, "No such file or directory"),
    ])
    def test_unreadable_input_file(self, small_run, capsys, content, message):
        path, cfg = write_config(small_run, panel_name="other.csv")
        if content is not None:
            (small_run / "other.csv").write_text(content)
        assert cli.main([str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    def test_monte_carlo_non_integer_reps(self, tmp_path, capsys):
        path, _ = monte_carlo_config(tmp_path, reps="five")
        assert cli.main([str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "config: key 'reps' must be an integer, got 'five'" in err

    @pytest.mark.parametrize("replications", [1, -5])
    def test_bootstrap_replications_zero_or_at_least_two(self, small_run, capsys, replications):
        path, cfg = write_config(small_run)
        cfg["bootstrap"]["replications"] = replications
        path.write_text(json.dumps(cfg))
        assert cli.main([str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert f"bootstrap: key 'replications' must be 0 (analytic) or at least 2, got {replications}" in err
        assert list((small_run / "out").glob("results/*")) == []

    def test_config_not_json(self, small_run, capsys):
        path, cfg = write_config(small_run)
        path.write_text(json.dumps(cfg)[:-1])
        assert cli.main([str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: config {path}: not valid JSON")


def test_import_leaves_out_scipy_optimize():
    # a fresh interpreter, since this one may have imported it for the tests
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    code = "import sys, cdmpanel, cdmpanel.cli; print('scipy.optimize' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
