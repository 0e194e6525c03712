"""Spans around the public functions of cdmpanel's modules, from outside.

``Tracer.install`` replaces module attributes with wrappers, so calls made
through ``module.function`` or a module's own globals are recorded; nothing in
the program changes. A span is (name, layer, start, end, parent, phase, ok).
Spans stay in memory until ``write_jsonl``.
"""

from __future__ import annotations

import collections
import functools
import importlib
import inspect
import json
import time

LAYERS = ("cli", "panel", "estim", "heckman", "counts", "productivity", "rif", "cqr", "tables", "synthdgp")
STAGES = ("heckman", "counts", "productivity", "uqr", "treatment", "cqr")

NAME, LAYER, START, END, PARENT, PHASE, OK = range(7)


def _layer_of(fn) -> str:
    module = getattr(fn, "__module__", "") or ""
    tail = module.rsplit(".", 1)[-1]
    return tail if tail in LAYERS else "other"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: collections.Counter = collections.Counter()
        self.phase = "setup"
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # --- recording -------------------------------------------------------

    def _wrap(self, name: str, layer: str, fn, before=None, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            idx = len(self.spans)
            rec = [name, layer, time.perf_counter(), None, self._stack[-1] if self._stack else -1,
                   self.phase, True]
            self.spans.append(rec)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[OK] = False
                raise
            finally:
                rec[END] = time.perf_counter()
                self._stack.pop()
            if after is not None:
                after(result)
            return result

        return wrapper

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    # --- layer-specific counters ------------------------------------------

    def _mle_before(self, args, kwargs):
        """Route the objective through a span of the module that defined it."""
        def traced(objective):
            layer = _layer_of(objective)
            return self._wrap(f"{layer}.objective", layer, objective)

        if "objective" in kwargs:
            return args, {**kwargs, "objective": traced(kwargs["objective"])}
        return (traced(args[0]), *args[1:]), kwargs

    def _mle_after(self, res) -> None:
        self.counts["estim.mle.iterations"] += int(res.iterations)

    def _bootstrap_after(self, res) -> None:
        self.counts["estim.bootstrap.replicates"] += int(res.n_used + res.n_failed)
        self.counts["estim.bootstrap.failed"] += int(res.n_failed)
        self.counts["estim.bootstrap.used"] += int(res.n_used)

    def _write_before(self, args, kwargs):
        text = kwargs["text"] if "text" in kwargs else args[1]
        self.counts["tables.bytes_written"] += len(text.encode("utf-8"))
        return args, kwargs

    # --- install / uninstall ----------------------------------------------

    def install(self) -> None:
        hooks = {
            ("estim", "mle_fit"): (self._mle_before, self._mle_after),
            ("estim", "bootstrap_vcov"): (None, self._bootstrap_after),
            ("tables", "atomic_write"): (self._write_before, None),
        }
        for layer in LAYERS:
            module = importlib.import_module(f"cdmpanel.{layer}")
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                    continue
                before, after = hooks.get((layer, attr), (None, None))
                self._patch(module, attr, self._wrap(f"{layer}.{attr}", layer, obj, before, after))
        # per-stage spans come from the orchestrator's stage methods
        runner = getattr(importlib.import_module("cdmpanel.cli"), "_StageRunner", None)
        for stage in STAGES:
            method = getattr(runner, f"stage_{stage}", None)
            if method is not None:
                self._patch(runner, f"stage_{stage}", self._wrap(f"stage.{stage}", "cli", method))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # --- output -------------------------------------------------------------

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, rec in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": rec[NAME], "layer": rec[LAYER], "start": rec[START],
                    "end": rec[END], "parent": rec[PARENT], "phase": rec[PHASE], "ok": rec[OK],
                }) + "\n")


def metric_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "bytes" if name == "tables.bytes_written" else "count"


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    out = [rec[END] - rec[START] for rec in spans]
    for rec in spans:
        if rec[PARENT] >= 0:
            out[rec[PARENT]] -= rec[END] - rec[START]
    return out


def layer_metrics(tracer: Tracer, round_wall: float, untraced_median: float) -> tuple[dict, float]:
    """Per-layer metrics of a traced run, and the traced round's unaccounted share.

    Self times and counts cover every span of the run (the traced set-up pass
    and the traced round). The unaccounted share compares the round's self times
    plus its time outside any span with the round's wall time.
    """
    spans = tracer.spans
    own = self_times(spans)
    m: dict[str, float] = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for rec, s in zip(spans, own):
        if rec[LAYER] in LAYERS:
            m[f"{rec[LAYER]}.self_s"] += s

    def calls(name: str) -> int:
        return sum(1 for rec in spans if rec[NAME] == name)

    def span_time(name: str) -> float:
        return sum(rec[END] - rec[START] for rec in spans if rec[NAME] == name)

    for stage in STAGES:
        m[f"stage.{stage}_s"] = span_time(f"stage.{stage}")
    m["estim.bootstrap.self_s"] = sum(s for rec, s in zip(spans, own) if rec[NAME] == "estim.bootstrap_vcov")

    mle = [rec for rec in spans if rec[NAME] == "estim.mle_fit"]
    n_failed = sum(1 for rec in mle if not rec[OK])
    m["estim.mle.calls"] = len(mle)
    m["estim.mle.failed"] = n_failed
    m["estim.mle.converged_ratio"] = (len(mle) - n_failed) / len(mle) if mle else 0.0
    m["estim.mle.iterations"] = tracer.counts["estim.mle.iterations"]
    m["estim.mle.evals"] = sum(1 for rec in spans if rec[NAME].endswith(".objective"))
    reps = tracer.counts["estim.bootstrap.replicates"]
    m["estim.bootstrap.replicates"] = reps
    m["estim.bootstrap.failed"] = tracer.counts["estim.bootstrap.failed"]
    m["estim.bootstrap.used_ratio"] = tracer.counts["estim.bootstrap.used"] / reps if reps else 0.0
    m["panel.take_entities.calls"] = calls("panel.take_entities")
    m["cqr.fits"] = calls("cqr.cqr_fit")
    m["counts.nb2.fits"] = calls("counts.nb2_fit")
    m["counts.poisson_fe.fits"] = calls("counts.poisson_fe_fit")
    m["estim.ols.fits"] = calls("estim.ols_fit")
    m["heckman.fits"] = calls("heckman.heckman_two_step") + calls("heckman.probit_fit")
    m["synthdgp.panels"] = calls("synthdgp.generate_panel")
    m["tables.bytes_written"] = tracer.counts["tables.bytes_written"]
    m["trace.overhead_s"] = round_wall - untraced_median

    round_idx = [i for i, rec in enumerate(spans) if rec[PHASE] == "round"]
    roots = sum(spans[i][END] - spans[i][START] for i in round_idx if spans[i][PARENT] < 0)
    accounted = sum(own[i] for i in round_idx) + (round_wall - roots)
    unaccounted = abs(accounted - round_wall) / round_wall
    return m, unaccounted
