"""Long-format firm-year panel store and derived-variable rules.

A :class:`PanelDataset` holds a dense entity-by-year grid: every entity carries
one row per year of the dataset's contiguous period range, with NaN marking
missing cells. Datasets are immutable; every operation returns a new dataset.
Demeaning within entity and year groups (fe_residuals) sits in estim, with
the fixed-effects machinery it uses.
"""

from __future__ import annotations

import csv
import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .exceptions import ValidationError
from .predicates import evaluate_predicate, predicate_columns

MISSING_TOKENS = ("", ".")
# rows load_csv parses at a time: large enough that the per-block numpy calls
# cost little, small enough that the block's cells stay a small share of memory
CSV_BLOCK_ROWS = 512


@dataclass(frozen=True)
class PanelDataset:
    """Columnar firm-year panel on a dense (entity, year) grid.

    Rows are ordered entity-major with years ascending, so row ``i`` belongs to
    entity ``entities[i // len(periods)]`` and year ``periods[i % len(periods)]``.
    Column arrays are float64 with NaN for missing and are marked read-only.
    A dataset is its grid and its columns, with no provenance recorded: a
    synthetic panel's true parameters come from its config
    (synthdgp.true_parameters).
    """

    entities: tuple[str, ...]
    periods: tuple[int, ...]
    columns: dict[str, np.ndarray]

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

    def with_column(self, name: str, values) -> "PanelDataset":
        """Return a new dataset with one added column; collisions are errors."""
        if name in self.columns:
            raise ValidationError(f"column {name!r} already exists")
        return self._replace_columns({name: np.asarray(values, dtype=float)})

    def with_replaced(self, updates: dict[str, np.ndarray]) -> "PanelDataset":
        """The dataset with existing columns replaced by ``updates``. No code
        in the package calls it; the cqr, counts, productivity and vcov tests
        build their edge cases with it (a constant or tied outcome, holes in
        a regressor, a year without one) from a generated panel."""
        for name in updates:
            if name not in self.columns:
                raise ValidationError(f"unknown column {name!r}")
        return self._replace_columns({k: np.asarray(v, dtype=float) for k, v in updates.items()})

    def _replace_columns(self, updates) -> "PanelDataset":
        cols = dict(self.columns)
        for name, arr in updates.items():
            if arr.shape != (self.n_rows,):
                raise ValidationError(f"column {name!r} has wrong length")
            cols[name] = arr.copy()
        return PanelDataset(self.entities, self.periods, cols)

    def to_csv(self, path) -> None:
        """Write the dataset back out in the load dialect, its keys in columns
        "entity" and "year" (empty cell = missing)."""
        names = list(self.columns)
        ent_idx = self.entity_index()
        years = self.row_years()
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["entity", "year", *names])
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


def from_long(entity_values, year_values, columns: dict[str, list]) -> PanelDataset:
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
        return PanelDataset((), (), {name: np.empty(0) for name in columns})

    labels, first, ent_code = np.unique(entity_values, return_index=True, return_inverse=True)
    order = np.argsort(first)  # entities in order of first appearance
    rank = np.argsort(order)
    entities = [str(e) for e in labels[order]]
    years = np.array(year_values)
    y_min, y_max = int(years.min()), int(years.max())
    periods = tuple(range(y_min, y_max + 1))
    n_periods = len(periods)

    rows = rank[ent_code] * n_periods + (years - y_min)
    by_row = np.argsort(rows, kind="stable")
    repeats = by_row[1:][rows[by_row[1:]] == rows[by_row[:-1]]]
    if repeats.size:
        i = int(repeats.min())  # the first row whose key appeared before
        raise ValidationError(f"duplicate (entity, year) key ({entity_values[i]}, {year_values[i]})")

    n_rows = len(entities) * n_periods
    cols: dict[str, np.ndarray] = {}
    for name, vals in columns.items():
        arr = np.full(n_rows, np.nan)
        arr[rows] = np.asarray(vals, dtype=float)
        cols[name] = arr
    return PanelDataset(tuple(entities), periods, cols)


def read_header(reader, path, entity_col: str, year_col: str) -> list[str]:
    """The header row of a panel CSV file, from a `csv.reader` over it: it must
    hold the entity and year columns and no name twice."""
    try:
        header = next(reader)
    except StopIteration:
        raise ValidationError(f"{path}: file is empty, no header row") from None
    if entity_col not in header:
        raise ValidationError(f"{path}: entity column {entity_col!r} not in header")
    if year_col not in header:
        raise ValidationError(f"{path}: year column {year_col!r} not in header")
    if len(set(header)) != len(header):
        raise ValidationError(f"{path}: duplicate column names in header")
    return header


def load_csv(path, entity_col: str, year_col: str) -> PanelDataset:
    """Load a comma-separated panel file; empty cells and "." are missing.

    Rows are parsed in blocks of CSV_BLOCK_ROWS, column by column: each numeric
    column of a block is one ``np.array(cells, dtype=float)``, which applies
    Python's ``float`` to every cell, so the values are those of a
    cell-by-cell parse. A block with a short or long row, a non-integer year
    or a cell that does not parse is parsed again cell by cell, so an error
    names the first bad line and cell as ``{path}:{lineno}: ...``.
    """
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = read_header(reader, path, entity_col, year_col)
        e_ix = header.index(entity_col)
        y_ix = header.index(year_col)
        var_ix = [i for i in range(len(header)) if i not in (e_ix, y_ix)]

        ents: list[str] = []
        years: list[int] = []
        blocks: list[list[np.ndarray]] = []
        rows = ((lineno, row) for lineno, row in enumerate(reader, start=2) if row)
        while block := list(itertools.islice(rows, CSV_BLOCK_ROWS)):
            block_years, arrays = _parse_block(block, path, header, y_ix, var_ix)
            ents += [row[e_ix] for _, row in block]
            years += block_years
            blocks.append(arrays)

    columns = {
        header[i]: np.concatenate([np.empty(0), *(arrays[j] for arrays in blocks)])
        for j, i in enumerate(var_ix)
    }
    return from_long(ents, years, columns)


def _parse_block(block, path, header, y_ix, var_ix) -> tuple[list[int], list[np.ndarray]]:
    """Years and one array per column at var_ix of one block of non-blank
    (lineno, row) pairs: column by column, or, if that fails, cell by cell, so
    that the error is the one for the first bad cell."""
    try:
        if any(len(row) != len(header) for _, row in block):
            raise ValueError("ragged row")
        cols = list(zip(*(row for _, row in block)))
        return list(map(int, cols[y_ix])), [np.array(_missing_as_nan(cols[i]), dtype=float) for i in var_ix]
    except ValueError:
        return _parse_cells(block, path, header, y_ix, var_ix)


def _missing_as_nan(cells):
    """The cells with the unpadded missing tokens as NaN; a padded one is left
    for float to refuse, which sends its block to the cell-by-cell parse."""
    if any(token in cells for token in MISSING_TOKENS):
        return [math.nan if cell in MISSING_TOKENS else cell for cell in cells]
    return cells


def _parse_cells(block, path, header, y_ix, var_ix):
    """Years and one array per column at var_ix of one block, cell by cell."""
    years: list[int] = []
    values: list[list[float]] = [[] for _ in var_ix]
    for lineno, row in block:
        if len(row) != len(header):
            raise ValidationError(f"{path}:{lineno}: expected {len(header)} cells, got {len(row)}")
        raw_year = row[y_ix].strip()
        try:
            years.append(int(raw_year))
        except ValueError:
            raise ValidationError(f"{path}:{lineno}: non-integer year {raw_year!r}") from None
        for j, i in enumerate(var_ix):
            cell = row[i].strip()
            if cell in MISSING_TOKENS:
                values[j].append(math.nan)
            else:
                try:
                    values[j].append(float(cell))
                except ValueError:
                    raise ValidationError(
                        f"{path}:{lineno}: cannot parse {cell!r} in column {header[i]!r}"
                    ) from None
    return years, [np.array(v, dtype=float) for v in values]


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
        mask = evaluate_predicate(rule.predicate, ds.columns, ds.n_rows)
        any_missing = np.zeros(ds.n_rows, dtype=bool)
        for name in predicate_columns(rule.predicate):
            any_missing |= ~np.isfinite(ds.column(name))
        result = np.where(any_missing, np.nan, mask.astype(float))

    return ds.with_column(rule.target, result)


def filter_rows(ds: PanelDataset, predicate: str) -> PanelDataset:
    """Keep rows matching the predicate; entity/period sets shrink to those present."""
    keep = evaluate_predicate(predicate, ds.columns, ds.n_rows)

    if not keep.any():
        warnings.warn(f"filter {predicate!r} matched no rows", stacklevel=2)
        return PanelDataset((), (), {name: np.empty(0) for name in ds.columns})

    E, P = len(ds.entities), len(ds.periods)
    ent_idx = ds.entity_index()[keep]
    yr_idx = ds.year_index()[keep]
    kept_entities = np.unique(ent_idx)
    y_lo, y_hi = int(yr_idx.min()), int(yr_idx.max())
    new_periods = ds.periods[y_lo : y_hi + 1]
    nP = len(new_periods)

    new_rows = np.searchsorted(kept_entities, ent_idx) * nP + (yr_idx - y_lo)
    n_rows = len(kept_entities) * nP
    cols: dict[str, np.ndarray] = {}
    for name, arr in ds.columns.items():
        out = np.full(n_rows, np.nan)
        out[new_rows] = arr[keep]
        cols[name] = out
    entities = tuple(ds.entities[int(i)] for i in kept_entities)
    return PanelDataset(entities, new_periods, cols)


def take_entities(ds: PanelDataset, positions) -> PanelDataset:
    """Dataset made of the given entity blocks, in order: the dataset of one
    cluster-bootstrap draw. The estimators solve a draw's rows of their own
    dataset instead (estim.apply_vcov), where an entity drawn twice is one
    entity whose rows come twice; tests compare them with refits of this.

    ``positions`` may repeat; repeated draws get distinct labels so downstream
    grouping treats them as separate clusters.
    """
    P = len(ds.periods)
    positions = np.asarray(positions, dtype=int)
    labels = [f"{ds.entities[p]}#{r}" for r, p in enumerate(positions)]
    row_blocks = (positions[:, None] * P + np.arange(P)).ravel()
    cols = {name: arr[row_blocks] for name, arr in ds.columns.items()}
    return PanelDataset(tuple(labels), ds.periods, cols)
