import csv
import math

import numpy as np
import pytest

from cdmpanel import DeriveRule, ValidationError, derive, filter_rows, from_long, load_csv
from cdmpanel.estim import fe_codes, fe_residuals
from cdmpanel.predicates import evaluate_predicate


def make_panel():
    return from_long(
        ["A", "A", "A", "B", "B", "B"],
        [2010, 2011, 2012, 2010, 2011, 2012],
        {
            "x": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
            "y": [2.0, 4.0, 6.0, 8.0, 10.0, 12.0],
            "SOE": [1.0, 1.0, 1.0, 0.0, 0.0, 0.0],
        },
    )


class TestLoadCsv:
    def test_two_rows_three_columns(self, tmp_path):
        p = tmp_path / "small.csv"
        p.write_text("firm,yr,a,b,c\nF1,2010,1,2,3\nF1,2011,4,5,6\n")
        ds = load_csv(p, "firm", "yr")
        assert ds.n_rows == 2
        assert ds.column_names == ("a", "b", "c")
        assert ds.entities == ("F1",)
        assert ds.periods == (2010, 2011)

    def test_empty_cell_is_missing(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("firm,yr,LEV,x\nF1,2010,,7\nF1,2011,.,8\n")
        ds = load_csv(p, "firm", "yr")
        assert np.isnan(ds.column("LEV")).all()
        assert ds.column("x").tolist() == [7.0, 8.0]

    def test_duplicate_key_rejected(self, tmp_path):
        p = tmp_path / "dup.csv"
        p.write_text("firm,yr,x\nA,2012,1\nA,2012,2\n")
        with pytest.raises(ValidationError, match=r"\(A, 2012\)"):
            load_csv(p, "firm", "yr")

    def test_non_integer_year_names_line(self, tmp_path):
        p = tmp_path / "yr.csv"
        p.write_text("firm,yr,x\nA,2010,1\nA,20xx,2\n")
        with pytest.raises(ValidationError, match=":3"):
            load_csv(p, "firm", "yr")

    def test_round_trip_identical(self, tmp_path):
        rng = np.random.default_rng(42)
        vals = rng.normal(size=12)
        vals[[2, 7]] = np.nan
        ds = from_long(
            ["A"] * 4 + ["B"] * 4 + ["C"] * 4,
            [2010, 2011, 2012, 2013] * 3,
            {"v": vals, "w": rng.uniform(size=12) * 1e6},
        )
        path = tmp_path / "rt.csv"
        ds.to_csv(path)
        back = load_csv(path, "entity", "year")
        assert back.entities == ds.entities
        assert back.periods == ds.periods
        for name in ds.column_names:
            a, b = ds.column(name), back.column(name)
            assert ((a == b) | (np.isnan(a) & np.isnan(b))).all()


def parse_cells(path):
    """Reference parse of a dense entity-major file, one cell at a time: the
    stripped cell is missing when it is "" or ".", else float(cell)."""
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh) if row]
    header = rows[0]
    return {
        name: np.array([math.nan if r[j].strip() in ("", ".") else float(r[j].strip()) for r in rows[1:]])
        for j, name in enumerate(header) if name not in ("firm", "yr")
    }


class TestLoadCsvBlocks:
    """Files longer than one parse block (CSV_BLOCK_ROWS rows)."""

    N_ENT, N_T = 280, 5

    def lines(self):
        rng = np.random.default_rng(12)
        cells = [".", "", "nan", "1e400", "-1e400", "1_000", "  2.5  ", "-0.0", "7"]
        out = ["firm,yr,a,b,c"]
        for e in range(self.N_ENT):
            for t in range(self.N_T):
                a = repr(float(rng.normal()))
                b = cells[rng.integers(len(cells))] if rng.random() < 0.3 else f" {rng.uniform(0, 1e6)!r}"
                c = "" if rng.random() < 0.4 else repr(float(rng.integers(0, 9)))
                out.append(f"F{e:03d},{2001 + t},{a},{b},{c}")
        out[700] = out[700].rsplit(",", 2)[0] + ", . ,"  # padded missing tokens, in one block only
        return out

    def write(self, path, lines):
        # blank lines in several blocks
        for at in (1, 300, 900, 1201):
            lines.insert(at, "")
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_bit_equal_to_cell_by_cell(self, tmp_path, monkeypatch):
        from cdmpanel import panel

        cell_by_cell = panel._parse_cells
        slow = []

        def counted(block, *args):
            slow.append(block)
            return cell_by_cell(block, *args)

        monkeypatch.setattr(panel, "_parse_cells", counted)
        assert self.N_ENT * self.N_T > 2 * panel.CSV_BLOCK_ROWS
        path = self.write(tmp_path / "long.csv", self.lines())
        ds = load_csv(path, "firm", "yr")
        # missing tokens stay on the column-wise path; only the block with the
        # padded ones is parsed cell by cell
        assert len(slow) == 1
        assert ds.entities == tuple(f"F{e:03d}" for e in range(self.N_ENT))
        assert ds.periods == tuple(range(2001, 2001 + self.N_T))
        want = parse_cells(path)
        assert ds.column_names == tuple(want)
        for name, arr in want.items():
            assert np.array_equal(ds.column(name).view(np.uint64), arr.view(np.uint64)), name
        b = ds.column("b")
        assert np.isnan(b).sum() > 100 and np.isinf(b).any() and 1000.0 in b

    @pytest.mark.parametrize("lineno, bad, message", [
        (1103, "F999,2001,1.0,x1,2", "cannot parse 'x1' in column 'b'"),
        (1103, "F999,2001,1.0,2", "expected 5 cells, got 4"),
        (1103, "F999,2001.0,1.0,2,3", "non-integer year '2001.0'"),
        (1103, "F999, 20 01 ,1,2,3", "non-integer year '20 01'"),
        (1103, "F999,2001,1.0, . 5,3", "cannot parse '. 5' in column 'b'"),
    ])
    def test_error_names_the_line(self, tmp_path, lineno, bad, message):
        lines = self.lines()
        lines[lineno - 1] = bad
        path = tmp_path / "bad.csv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValidationError) as exc:
            load_csv(path, "firm", "yr")
        assert str(exc.value) == f"{path}:{lineno}: {message}"

    def test_first_error_in_the_block_wins(self, tmp_path):
        lines = self.lines()
        lines[1099] = "F999,2001,1.0,2,3,4"  # line 1100: ragged
        lines[1049] = "F999,2001,1.0,2,zz"  # line 1050: bad cell, earlier in the same block
        path = tmp_path / "bad.csv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValidationError) as exc:
            load_csv(path, "firm", "yr")
        assert str(exc.value) == f"{path}:1050: cannot parse 'zz' in column 'c'"


class TestDerive:
    def test_lag_shifts_within_entity(self):
        ds = from_long(["A", "A"], [2010, 2011], {"v": [3.0, 5.0]})
        out = derive(ds, DeriveRule.lag("v", 1, "v_l1"))
        got = out.column("v_l1")
        assert np.isnan(got[0]) and got[1] == 3.0

    def test_lag_does_not_cross_entities(self):
        ds = make_panel()
        out = derive(ds, DeriveRule.lag("x", 1, "x_l1"))
        got = out.column("x_l1")
        assert np.isnan(got[3])
        assert got[4] == 4.0

    def test_lead_within_entity(self):
        ds = make_panel()
        out = derive(ds, DeriveRule.lead("x", 1, "x_f1"))
        got = out.column("x_f1")
        assert got[0] == 2.0 and np.isnan(got[2])
        assert got[3] == 5.0 and np.isnan(got[5])

    def test_rolling_mean_partial_windows(self):
        ds = from_long(["A"] * 3, [2010, 2011, 2012], {"v": [0.0, 3.0, 6.0]})
        out = derive(ds, DeriveRule.rolling_mean("v", 3, "v_rm"))
        assert out.column("v_rm").tolist() == [0.0, 1.5, 3.0]

    def test_rolling_mean_skips_missing(self):
        ds = from_long(["A"] * 3, [2010, 2011, 2012], {"v": [np.nan, 3.0, 9.0]})
        out = derive(ds, DeriveRule.rolling_mean("v", 3, "v_rm"))
        got = out.column("v_rm")
        assert np.isnan(got[0]) and got[1] == 3.0 and got[2] == 6.0

    def test_rolling_mean_window_one_is_identity(self):
        ds = make_panel()
        out = derive(ds, DeriveRule.rolling_mean("x", 1, "x_rm1"))
        assert np.array_equal(out.column("x_rm1"), ds.column("x"))

    def test_log_of_one_is_zero(self):
        ds = from_long(["A"], [2010], {"v": [1.0]})
        out = derive(ds, DeriveRule.log("v", "lv"))
        assert out.column("lv")[0] == 0.0

    def test_log_non_positive_names_entity_year_value(self):
        ds = from_long(["A", "B"], [2010, 2010], {"v": [1.0, -2.0]})
        with pytest.raises(ValidationError, match=r"-2.0.*\(B, 2010\)"):
            derive(ds, DeriveRule.log("v", "lv"))

    def test_log_shift(self):
        ds = from_long(["A"], [2010], {"v": [0.0]})
        out = derive(ds, DeriveRule.log_shift("v", 0.001, "lv"))
        assert out.column("lv")[0] == pytest.approx(np.log(0.001))

    def test_ratio_and_missing_propagation(self):
        ds = from_long(["A", "A"], [2010, 2011], {"n": [6.0, np.nan], "d": [2.0, 5.0]})
        out = derive(ds, DeriveRule.ratio("n", "d", "r"))
        got = out.column("r")
        assert got[0] == 3.0 and np.isnan(got[1])

    def test_round(self):
        ds = from_long(["A", "A"], [2010, 2011], {"v": [2.4, 2.6]})
        out = derive(ds, DeriveRule.round_to_int("v", "vr"))
        assert out.column("vr").tolist() == [2.0, 3.0]

    def test_indicator_missing_inputs_stay_missing(self):
        ds = from_long(["A", "A"], [2010, 2011], {"v": [2.0, np.nan]})
        out = derive(ds, DeriveRule.indicator("v > 1", "flag"))
        got = out.column("flag")
        assert got[0] == 1.0 and np.isnan(got[1])

    def test_unknown_source_errors(self):
        ds = make_panel()
        with pytest.raises(ValidationError, match="nope"):
            derive(ds, DeriveRule.log("nope", "t"))

    def test_derive_is_pure_and_collision_errors(self):
        ds = make_panel()
        rule = DeriveRule.lag("x", 1, "x_l1")
        out = derive(ds, rule)
        assert "x_l1" not in ds.column_names
        with pytest.raises(ValidationError, match="x_l1"):
            derive(out, rule)

    def test_parameter_validation(self):
        with pytest.raises(ValidationError):
            DeriveRule.lag("x", 0, "t")
        with pytest.raises(ValidationError):
            DeriveRule.rolling_mean("x", 0, "t")
        with pytest.raises(ValidationError):
            DeriveRule.log_shift("x", 0.0, "t")


class TestFilterRows:
    def test_predicate_keeps_matching_rows(self):
        ds = make_panel()
        out = filter_rows(ds, "SOE == 1")
        assert out.entities == ("A",)
        assert np.isfinite(out.column("x")).sum() == 3

    def test_always_true_is_identity(self):
        ds = make_panel()
        out = filter_rows(ds, "x > -100")
        assert out.entities == ds.entities
        for name in ds.column_names:
            assert np.array_equal(out.column(name), ds.column(name))

    def test_always_false_empty_with_warning(self):
        ds = make_panel()
        with pytest.warns(UserWarning, match="matched no rows"):
            out = filter_rows(ds, "x > 100")
        assert out.n_rows == 0

    def test_missing_column_errors(self):
        ds = make_panel()
        with pytest.raises(ValidationError, match="ZZZ"):
            filter_rows(ds, "ZZZ == 1")


class TestPredicates:
    # v has a missing cell, w a zero divisor
    COLUMNS = {"v": np.array([-2.0, -0.5, 0.0, 1.5, 3.0, np.nan]), "w": np.array([1.0, 0.0, 1.0, 0.0, 2.0, 1.0])}

    @pytest.mark.parametrize("text, expected", [
        ("v > 0 and w == 1", lambda v, w: (v > 0) & (w == 1)),
        ("v < 0 or w == 2 or w == 0", lambda v, w: (v < 0) | (w == 2) | (w == 0)),
        ("not v > 0", lambda v, w: ~(v > 0)),
        ("-v >= 0.5", lambda v, w: -v >= 0.5),
        ("v + w > 1", lambda v, w: v + w > 1),
        ("v - w < -1", lambda v, w: v - w < -1),
        ("v * w != 0", lambda v, w: v * w != 0),
        ("v / w > 1", lambda v, w: v / w > 1),
        ("(v > 0) & (w == 0)", lambda v, w: (v > 0) & (w == 0)),
        ("(v > 0) | (w == 0)", lambda v, w: (v > 0) | (w == 0)),
        ("-1 < v <= 1.5", lambda v, w: (-1 < v) & (v <= 1.5)),
    ])
    def test_indicator_matches_numpy(self, text, expected):
        ds = from_long(["A"] * 6, list(range(2010, 2016)), self.COLUMNS)
        got = derive(ds, DeriveRule.indicator(text, "flag")).column("flag")
        with np.errstate(divide="ignore"):
            want = expected(*self.COLUMNS.values()).astype(float)
        want[-1] = np.nan  # v is missing there, whatever the predicate says
        assert np.array_equal(got, want, equal_nan=True)

    @pytest.mark.parametrize("text, refused", [
        ("v ** 2 > 1", "operator Pow not allowed"),
        ("abs(v) > 1", "construct Call not allowed"),
        ("~v > 1", "operator Invert not allowed"),
        ("v in w", "operator In not allowed"),
        ("v == 'a'", "literal 'a' not allowed"),
        ("u > 1", "references unknown column 'u'"),
    ])
    def test_refused_constructs(self, text, refused):
        with pytest.raises(ValidationError, match=refused):
            evaluate_predicate(text, self.COLUMNS, 6)

    @pytest.mark.parametrize("apply", [
        lambda ds, text: derive(ds, DeriveRule.indicator(text, "flag")),
        lambda ds, text: filter_rows(ds, text),
    ], ids=["derive", "filter_rows"])
    def test_construct_refused_before_its_names_are_looked_up(self, apply):
        # a call's function name is not a column: the call itself is refused
        ds = from_long(["A"] * 6, list(range(2010, 2016)), self.COLUMNS)
        with pytest.raises(ValidationError, match="construct Call not allowed"):
            apply(ds, "abs(v) > 1")


def within_demeaned(ds, column, dims):
    """The column demeaned within the dims' groups by estim.fe_residuals on
    its non-missing rows; missing rows stay missing."""
    v = ds.column(column)
    mask = np.isfinite(v)
    out = np.full(v.shape, np.nan)
    out[mask] = fe_residuals(v[mask][:, None], [fe_codes(ds, d, mask)[0] for d in dims])[0][:, 0]
    return out


class TestWithinDemean:
    def test_single_entity_mean_subtraction(self):
        ds = from_long(["A"] * 3, [2010, 2011, 2012], {"v": [1.0, 2.0, 3.0]})
        assert within_demeaned(ds, "v", ["entity"]).tolist() == [-1.0, 0.0, 1.0]

    def test_idempotent_on_demeaned_data(self):
        rng = np.random.default_rng(1)
        ds = from_long(
            np.repeat([f"E{i}" for i in range(6)], 4),
            list(range(2010, 2014)) * 6,
            {"v": rng.normal(size=24)},
        )
        once = within_demeaned(ds, "v", ["entity", "year"])
        twice = within_demeaned(ds.with_column("w", once), "w", ["entity", "year"])
        assert np.nanmax(np.abs(once - twice)) < 1e-12

    def test_balanced_two_by_two_matches_dummy_regression(self):
        # oracle: residual from OLS on entity and year indicator columns
        vals = np.array([1.0, 4.0, 2.0, 9.0])
        ds = from_long(["A", "A", "B", "B"], [2010, 2011, 2010, 2011], {"v": vals})
        out = within_demeaned(ds, "v", ["entity", "year"])
        D = np.column_stack([
            np.ones(4),
            np.array([1.0, 1.0, 0.0, 0.0]),
            np.array([1.0, 0.0, 1.0, 0.0]),
        ])
        coef, *_ = np.linalg.lstsq(D, vals, rcond=None)
        resid = vals - D @ coef
        assert np.max(np.abs(out - resid)) < 1e-10

    def test_group_means_vanish_on_unbalanced_panel(self):
        rng = np.random.default_rng(7)
        ents, yrs, vals = [], [], []
        for i in range(12):
            for t in range(2010, 2010 + int(rng.integers(2, 7))):
                ents.append(f"E{i}")
                yrs.append(t)
                vals.append(rng.normal() * 5 + i)
        ds = from_long(ents, yrs, {"v": vals})
        v = within_demeaned(ds, "v", ["entity", "year"])
        mask = np.isfinite(v)
        for idx in (ds.entity_index(), ds.year_index()):
            for g in np.unique(idx[mask]):
                assert abs(v[mask][idx[mask] == g].mean()) < 1e-8

    def test_missing_rows_do_not_participate(self):
        ds = from_long(["A"] * 3, [2010, 2011, 2012], {"v": [1.0, np.nan, 3.0]})
        got = within_demeaned(ds, "v", ["entity"])
        assert got[0] == -1.0 and np.isnan(got[1]) and got[2] == 1.0
