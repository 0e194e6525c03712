"""Long-format firm-year panel store and derived-variable rules.

A :class:`PanelDataset` holds a dense entity-by-year grid: every entity carries
one row per year of the dataset's contiguous period range, with NaN marking
missing cells. Datasets are immutable; every operation returns a new dataset.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .exceptions import ConvergenceError, ValidationError
from .predicates import evaluate_predicate, predicate_columns

MISSING_TOKENS = ("", ".")


@dataclass(frozen=True)
class PanelDataset:
    """Columnar firm-year panel on a dense (entity, year) grid.

    Rows are ordered entity-major with years ascending, so row ``i`` belongs to
    entity ``entities[i // len(periods)]`` and year ``periods[i % len(periods)]``.
    Column arrays are float64 with NaN for missing and are marked read-only.
    ``metadata`` maps column names to provenance notes; dataset-level notes use
    double-underscore keys (``__source__``, ``__filter__``, ...).
    """

    entities: tuple[str, ...]
    periods: tuple[int, ...]
    columns: dict[str, np.ndarray]
    metadata: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        n = self.n_rows
        for name, arr in self.columns.items():
            if not name:
                raise ValidationError("column names must be non-empty")
            if arr.shape != (n,):
                raise ValidationError(f"column {name!r} has length {arr.shape}, expected {n}")
            arr.setflags(write=False)

    @property
    def n_rows(self) -> int:
        return len(self.entities) * len(self.periods)

    @property
    def column_names(self) -> tuple[str, ...]:
        return tuple(self.columns)

    def entity_index(self) -> np.ndarray:
        return np.repeat(np.arange(len(self.entities)), len(self.periods))

    def year_index(self) -> np.ndarray:
        return np.tile(np.arange(len(self.periods)), len(self.entities))

    def row_years(self) -> np.ndarray:
        return np.tile(np.asarray(self.periods, dtype=int), len(self.entities))

    def column(self, name: str) -> np.ndarray:
        if name not in self.columns:
            raise ValidationError(f"unknown column {name!r}")
        return self.columns[name]

    def has_column(self, name: str) -> bool:
        return name in self.columns

    def with_column(self, name: str, values, note: str | None = None) -> "PanelDataset":
        """Return a new dataset with one added column; collisions are errors."""
        if name in self.columns:
            raise ValidationError(f"column {name!r} already exists")
        return self._replace_columns({name: np.asarray(values, dtype=float)}, note_for=name, note=note)

    def with_replaced(self, updates: dict[str, np.ndarray], note: str | None = None) -> "PanelDataset":
        for name in updates:
            if name not in self.columns:
                raise ValidationError(f"unknown column {name!r}")
        return self._replace_columns(
            {k: np.asarray(v, dtype=float) for k, v in updates.items()},
            note_for=None,
            note=note,
        )

    def _replace_columns(self, updates, note_for, note) -> "PanelDataset":
        cols = dict(self.columns)
        for name, arr in updates.items():
            if arr.shape != (self.n_rows,):
                raise ValidationError(f"column {name!r} has wrong length")
            cols[name] = arr.copy()
        meta = dict(self.metadata)
        if note is not None:
            if note_for is not None:
                meta[note_for] = note
            else:
                for name in updates:
                    meta[name] = note
        return PanelDataset(self.entities, self.periods, cols, meta)

    def to_csv(self, path, entity_col: str = "entity", year_col: str = "year") -> None:
        """Write the dataset back out in the load dialect (empty cell = missing)."""
        names = list(self.columns)
        ent_idx = self.entity_index()
        years = self.row_years()
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow([entity_col, year_col, *names])
            for i in range(self.n_rows):
                row = [self.entities[ent_idx[i]], str(years[i])]
                for name in names:
                    v = self.columns[name][i]
                    row.append("" if math.isnan(v) else repr(float(v)))
                writer.writerow(row)


@dataclass(frozen=True)
class DeriveRule:
    """One derived-variable rule: lag/lead/rolling mean/log/ratio/indicator/round."""

    kind: str
    target: str
    source: tuple[str, ...] = ()
    k: int = 0
    window: int = 0
    shift: float = 0.0
    predicate: str = ""

    _KINDS = ("lag", "lead", "rolling_mean", "log", "log_shift", "ratio", "indicator", "round")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValidationError(f"unknown derive kind {self.kind!r}")
        if not self.target:
            raise ValidationError("derive target must be non-empty")
        if self.kind in ("lag", "lead") and self.k < 1:
            raise ValidationError(f"{self.kind}: k must be >= 1")
        if self.kind == "rolling_mean" and self.window < 1:
            raise ValidationError("rolling_mean: window must be >= 1")
        if self.kind == "log_shift" and not self.shift > 0:
            raise ValidationError("log_shift: shift must be > 0")
        if self.kind == "ratio" and len(self.source) != 2:
            raise ValidationError("ratio needs (numerator, denominator) sources")
        if self.kind == "indicator" and not self.predicate:
            raise ValidationError("indicator needs a predicate")

    @classmethod
    def lag(cls, source: str, k: int, target: str) -> "DeriveRule":
        return cls(kind="lag", target=target, source=(source,), k=k)

    @classmethod
    def lead(cls, source: str, k: int, target: str) -> "DeriveRule":
        return cls(kind="lead", target=target, source=(source,), k=k)

    @classmethod
    def rolling_mean(cls, source: str, window: int, target: str) -> "DeriveRule":
        return cls(kind="rolling_mean", target=target, source=(source,), window=window)

    @classmethod
    def log(cls, source: str, target: str) -> "DeriveRule":
        return cls(kind="log", target=target, source=(source,))

    @classmethod
    def log_shift(cls, source: str, shift: float, target: str) -> "DeriveRule":
        return cls(kind="log_shift", target=target, source=(source,), shift=shift)

    @classmethod
    def ratio(cls, numerator: str, denominator: str, target: str) -> "DeriveRule":
        return cls(kind="ratio", target=target, source=(numerator, denominator))

    @classmethod
    def indicator(cls, predicate: str, target: str) -> "DeriveRule":
        return cls(kind="indicator", target=target, predicate=predicate)

    @classmethod
    def round_to_int(cls, source: str, target: str) -> "DeriveRule":
        return cls(kind="round", target=target, source=(source,))

    def describe(self) -> str:
        if self.kind in ("lag", "lead"):
            return f"{self.kind}({self.k}) of {self.source[0]}"
        if self.kind == "rolling_mean":
            return f"rolling_mean({self.window}) of {self.source[0]}"
        if self.kind == "ratio":
            return f"ratio {self.source[0]} / {self.source[1]}"
        if self.kind == "indicator":
            return f"indicator({self.predicate})"
        if self.kind == "log_shift":
            return f"log({self.source[0]} + {self.shift})"
        return f"{self.kind} of {self.source[0]}"


def from_long(entity_values, year_values, columns: dict[str, list], metadata=None) -> PanelDataset:
    """Build a dataset from long-format rows, densifying to the full grid.

    Duplicate (entity, year) keys are rejected. The period range is the
    contiguous span [min year, max year]; cells for keys absent from the input
    are missing.
    """
    entity_values = [str(e) for e in entity_values]
    year_values = [int(y) for y in year_values]
    if len(entity_values) != len(year_values):
        raise ValidationError("entity and year sequences differ in length")
    n_in = len(entity_values)
    for name, vals in columns.items():
        if len(vals) != n_in:
            raise ValidationError(f"column {name!r} has {len(vals)} values, expected {n_in}")
    if n_in == 0:
        return PanelDataset((), (), {name: np.empty(0) for name in columns}, dict(metadata or {}))

    entities: list[str] = []
    ent_pos: dict[str, int] = {}
    for e in entity_values:
        if e not in ent_pos:
            ent_pos[e] = len(entities)
            entities.append(e)
    y_min, y_max = min(year_values), max(year_values)
    periods = tuple(range(y_min, y_max + 1))
    n_periods = len(periods)

    seen: set[tuple[str, int]] = set()
    rows = np.empty(n_in, dtype=int)
    for i, (e, y) in enumerate(zip(entity_values, year_values)):
        key = (e, y)
        if key in seen:
            raise ValidationError(f"duplicate (entity, year) key ({e}, {y})")
        seen.add(key)
        rows[i] = ent_pos[e] * n_periods + (y - y_min)

    n_rows = len(entities) * n_periods
    cols: dict[str, np.ndarray] = {}
    for name, vals in columns.items():
        arr = np.full(n_rows, np.nan)
        arr[rows] = np.asarray(vals, dtype=float)
        cols[name] = arr
    return PanelDataset(tuple(entities), periods, cols, dict(metadata or {}))


def load_csv(path, entity_col: str, year_col: str) -> PanelDataset:
    """Load a comma-separated panel file; empty cells and "." are missing."""
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValidationError(f"{path}: file is empty, no header row") from None
        if entity_col not in header:
            raise ValidationError(f"{path}: entity column {entity_col!r} not in header")
        if year_col not in header:
            raise ValidationError(f"{path}: year column {year_col!r} not in header")
        e_ix = header.index(entity_col)
        y_ix = header.index(year_col)
        var_names = [h for i, h in enumerate(header) if i not in (e_ix, y_ix)]
        var_ix = [i for i in range(len(header)) if i not in (e_ix, y_ix)]
        if len(set(var_names)) != len(var_names):
            raise ValidationError(f"{path}: duplicate column names in header")

        ents: list[str] = []
        years: list[int] = []
        values: list[list[float]] = [[] for _ in var_names]
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ValidationError(f"{path}:{lineno}: expected {len(header)} cells, got {len(row)}")
            raw_year = row[y_ix].strip()
            try:
                year = int(raw_year)
            except ValueError:
                raise ValidationError(f"{path}:{lineno}: non-integer year {raw_year!r}") from None
            ents.append(row[e_ix])
            years.append(year)
            for j, i in enumerate(var_ix):
                cell = row[i].strip()
                if cell in MISSING_TOKENS:
                    values[j].append(math.nan)
                else:
                    try:
                        values[j].append(float(cell))
                    except ValueError:
                        raise ValidationError(
                            f"{path}:{lineno}: cannot parse {cell!r} in column {var_names[j]!r}"
                        ) from None

    meta = {"__source__": str(path), "__source_rows__": str(len(ents))}
    return from_long(ents, years, dict(zip(var_names, values)), metadata=meta)


def derive(ds: PanelDataset, rule: DeriveRule) -> PanelDataset:
    """Add one derived column; the input dataset is left unmodified."""
    if rule.target in ds.columns:
        raise ValidationError(f"derive target {rule.target!r} collides with an existing column")
    for src in rule.source:
        if src not in ds.columns:
            raise ValidationError(f"derive source {src!r} is not a column")

    E, P = len(ds.entities), len(ds.periods)

    if rule.kind in ("lag", "lead"):
        vals = ds.column(rule.source[0]).reshape(E, P)
        out = np.full((E, P), np.nan)
        if rule.k < P:
            if rule.kind == "lag":
                out[:, rule.k:] = vals[:, : P - rule.k]
            else:
                out[:, : P - rule.k] = vals[:, rule.k:]
        result = out.ravel()
    elif rule.kind == "rolling_mean":
        vals = ds.column(rule.source[0]).reshape(E, P)
        ok = np.isfinite(vals)
        filled = np.where(ok, vals, 0.0)
        num = np.zeros((E, P))
        den = np.zeros((E, P))
        for j in range(rule.window):
            if j >= P:
                break
            num[:, j:] += filled[:, : P - j]
            den[:, j:] += ok[:, : P - j]
        with np.errstate(invalid="ignore"):
            result = np.where(den > 0, num / np.where(den > 0, den, 1), np.nan).ravel()
    elif rule.kind in ("log", "log_shift"):
        shift = rule.shift if rule.kind == "log_shift" else 0.0
        vals = ds.column(rule.source[0])
        shifted = vals + shift
        bad = np.isfinite(shifted) & (shifted <= 0)
        if bad.any():
            i = int(np.argmax(bad))
            ent = ds.entities[i // P]
            year = ds.periods[i % P]
            raise ValidationError(
                f"log of non-positive value {shifted[i]!r} for {rule.source[0]!r} at ({ent}, {year})"
            )
        with np.errstate(invalid="ignore"):
            result = np.where(np.isfinite(shifted), np.log(np.where(shifted > 0, shifted, 1.0)), np.nan)
    elif rule.kind == "ratio":
        num = ds.column(rule.source[0])
        den = ds.column(rule.source[1])
        with np.errstate(invalid="ignore", divide="ignore"):
            result = num / den
        result = np.where(np.isfinite(result), result, np.nan)
    elif rule.kind == "round":
        vals = ds.column(rule.source[0])
        result = np.where(np.isfinite(vals), np.round(vals), np.nan)
    else:  # indicator
        refs = predicate_columns(rule.predicate)
        missing_refs = refs - set(ds.columns)
        if missing_refs:
            raise ValidationError(f"indicator predicate references unknown column {sorted(missing_refs)[0]!r}")
        mask = evaluate_predicate(rule.predicate, ds.columns, ds.n_rows)
        any_missing = np.zeros(ds.n_rows, dtype=bool)
        for name in refs:
            any_missing |= ~np.isfinite(ds.column(name))
        result = np.where(any_missing, np.nan, mask.astype(float))

    out_ds = ds.with_column(rule.target, result, note=rule.describe())
    return out_ds


def filter_rows(ds: PanelDataset, predicate: str) -> PanelDataset:
    """Keep rows matching the predicate; entity/period sets shrink to those present."""
    refs = predicate_columns(predicate)
    missing = refs - set(ds.columns)
    if missing:
        raise ValidationError(f"filter predicate references unknown column {sorted(missing)[0]!r}")
    keep = evaluate_predicate(predicate, ds.columns, ds.n_rows)

    meta = dict(ds.metadata)
    meta["__filter__"] = predicate
    if not keep.any():
        warnings.warn(f"filter {predicate!r} matched no rows", stacklevel=2)
        meta["__filter_empty__"] = "true"
        return PanelDataset((), (), {name: np.empty(0) for name in ds.columns}, meta)

    E, P = len(ds.entities), len(ds.periods)
    ent_idx = ds.entity_index()[keep]
    yr_idx = ds.year_index()[keep]
    kept_entities = np.unique(ent_idx)
    y_lo, y_hi = int(yr_idx.min()), int(yr_idx.max())
    new_periods = ds.periods[y_lo : y_hi + 1]
    nP = len(new_periods)

    ent_map = {int(old): new for new, old in enumerate(kept_entities)}
    new_rows = np.array([ent_map[int(e)] * nP + (int(y) - y_lo) for e, y in zip(ent_idx, yr_idx)])
    n_rows = len(kept_entities) * nP
    cols: dict[str, np.ndarray] = {}
    for name, arr in ds.columns.items():
        out = np.full(n_rows, np.nan)
        out[new_rows] = arr[keep]
        cols[name] = out
    entities = tuple(ds.entities[int(i)] for i in kept_entities)
    return PanelDataset(entities, new_periods, cols, meta)


def take_entities(ds: PanelDataset, positions) -> PanelDataset:
    """Dataset made of the given entity blocks, in order (used by cluster bootstrap).

    ``positions`` may repeat; repeated draws get distinct labels so downstream
    grouping treats them as separate clusters.
    """
    P = len(ds.periods)
    positions = np.asarray(positions, dtype=int)
    labels = [f"{ds.entities[p]}#{r}" for r, p in enumerate(positions)]
    row_blocks = (positions[:, None] * P + np.arange(P)).ravel()
    cols = {name: arr[row_blocks] for name, arr in ds.columns.items()}
    return PanelDataset(tuple(labels), ds.periods, cols, dict(ds.metadata))


def alternating_demean(
    matrix: np.ndarray,
    labels: list[np.ndarray],
    weights: np.ndarray | None = None,
    tol: float = 1e-10,
    max_sweeps: int = 1000,
) -> np.ndarray:
    """Remove (weighted) group means for each label factor from the columns of ``matrix``.

    One factor is a single exact pass; several factors alternate projections
    until the largest absolute adjustment falls below ``tol``.
    """
    M = np.array(matrix, dtype=float)
    if M.ndim == 1:
        M = M[:, None]
    if weights is None:
        w = np.ones(M.shape[0])
    else:
        w = np.asarray(weights, dtype=float)
    sizes = [int(lab.max()) + 1 if len(lab) else 0 for lab in labels]

    def sweep(target: np.ndarray) -> float:
        biggest = 0.0
        for lab, size in zip(labels, sizes):
            wsum = np.bincount(lab, weights=w, minlength=size)
            wsum = np.where(wsum > 0, wsum, 1.0)
            for j in range(target.shape[1]):
                gsum = np.bincount(lab, weights=w * target[:, j], minlength=size)
                means = gsum / wsum
                adj = means[lab]
                target[:, j] -= adj
                if adj.size:
                    biggest = max(biggest, float(np.max(np.abs(adj))))
        return biggest

    if len(labels) <= 1:
        sweep(M)
        return M
    for _ in range(max_sweeps):
        change = sweep(M)
        if change < tol:
            return M
    raise ConvergenceError(
        f"alternating demeaning did not converge in {max_sweeps} sweeps; "
        f"final max adjustment {change:.3e}"
    )


def within_demean(
    ds: PanelDataset,
    columns,
    dims,
    tol: float = 1e-10,
    max_sweeps: int = 1000,
) -> PanelDataset:
    """Demean the named columns within entity and/or year groups.

    Only rows that are non-missing in all named columns participate; other rows
    come back missing in the demeaned columns.
    """
    columns = list(columns)
    dims = list(dims)
    if not dims:
        raise ValidationError("within_demean needs at least one dimension")
    for d in dims:
        if d not in ("entity", "year"):
            raise ValidationError(f"unknown demean dimension {d!r}")
    data = np.column_stack([ds.column(c) for c in columns])
    mask = np.all(np.isfinite(data), axis=1)
    labels = []
    for d in dims:
        idx = ds.entity_index() if d == "entity" else ds.year_index()
        labels.append(idx[mask])
    demeaned = alternating_demean(data[mask], labels, tol=tol, max_sweeps=max_sweeps)
    updates = {}
    for j, name in enumerate(columns):
        out = np.full(ds.n_rows, np.nan)
        out[mask] = demeaned[:, j]
        updates[name] = out
    return ds.with_replaced(updates, note=f"within-demeaned over {','.join(dims)}")
