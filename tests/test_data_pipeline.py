import csv
import datetime
import io
import json
import math
import pathlib
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cinestat.cli import main
from cinestat.data_pipeline import (
    CHUNK_ROWS,
    ClassLabel,
    SchemaError,
    build_design_matrix,
    feature_rows,
    load_movies,
    make_binner,
    split_by_year,
)

HEADER = (
    "title,year,date_published,duration,avg_vote,votes,genres,"
    "top1000_voters_rating,budget,reviews_from_users,reviews_from_critics,metascore"
)


def write_csv(tmp_path, rows, header=HEADER):
    path = tmp_path / "movies.csv"
    path.write_text("\n".join([header] + rows) + "\n")
    return str(path)


def make_row(title="A", year=2000, date="2000-05-01", duration=100, avg_vote=6.5,
             votes=1000, genres="Drama", top=6.0, budget=1e6, ru=10, rc=5, meta=70):
    return f"{title},{year},{date},{duration},{avg_vote},{votes},\"{genres}\",{top},{budget},{ru},{rc},{meta}"


class TestLoadMovies:
    def test_clean_input(self, tmp_path):
        path = write_csv(tmp_path, [make_row(title=f"M{i}") for i in range(3)])
        result = load_movies(path)
        assert len(result.records) == 3
        assert result.dropped == 0

    def test_missing_metascore_kept_absent(self, tmp_path):
        path = write_csv(tmp_path, [make_row(meta="N/A")])
        result = load_movies(path)
        assert np.isnan(result.records.columns["metascore"][0])
        assert result.dropped == 0

    def test_negative_duration_dropped(self, tmp_path):
        path = write_csv(tmp_path, [make_row(), make_row(title="B", duration=-5)])
        result = load_movies(path)
        assert len(result.records) == 1
        assert result.dropped == 1

    def test_year_date_mismatch_dropped(self, tmp_path):
        path = write_csv(tmp_path, [make_row(year=2001, date="2000-05-01")])
        with pytest.raises(ValueError):
            load_movies(path)  # the only row violates the invariant

    def test_missing_mandatory_column(self, tmp_path):
        path = write_csv(tmp_path, ["A,2000"], header="title,year")
        with pytest.raises(SchemaError):
            load_movies(path)

    def test_missing_file(self):
        with pytest.raises(OSError):
            load_movies("/nonexistent/file.csv")

    def test_schema_remapping(self, tmp_path):
        header = HEADER.replace("title", "movie_name")
        path = write_csv(tmp_path, [make_row()], header=header)
        result = load_movies(path, {"title": "movie_name"})
        assert result.records.title[0] == "A"

    def test_multi_genre_parsing(self, tmp_path):
        path = write_csv(tmp_path, [make_row(genres="Action, Drama")])
        table = load_movies(path).records
        assert {g for g, carried in zip(table.vocabulary, table.genre_matrix[0]) if carried} == {"Action", "Drama"}

    def test_overflowing_number_dropped(self, tmp_path, capsys):
        rows = [make_row(), make_row(title="B", duration="1e999"), make_row(title="C", votes="1e999"),
                make_row(title="D", meta="1e999"), make_row(title="E", meta="-1e999")]
        path = write_csv(tmp_path, rows)
        result = load_movies(path)
        assert result.records.title.tolist() == ["A"]
        assert result.dropped == 4
        assert main(["ingest", "--input", path]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert (summary["rows"], summary["dropped"]) == (1, 4)

    def test_row_short_of_the_date_dropped(self, tmp_path, capsys):
        path = write_csv(tmp_path, [make_row(), "B,2000"])
        result = load_movies(path)
        assert len(result.records) == 1
        assert result.dropped == 1
        assert main(["ingest", "--input", path]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert (summary["rows"], summary["dropped"]) == (1, 1)

    def test_byte_order_mark_skipped(self, tmp_path, fixture_csv):
        # spreadsheet exports often start a UTF-8 file with the bytes EF BB BF
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf" + pathlib.Path(fixture_csv).read_bytes())
        assert _table_bytes(load_movies(str(path))) == _table_bytes(load_movies(fixture_csv))
        assert main(["ingest", "--input", str(path)]) == 0


class TestBinarizeMultilabel:
    """The loaded table's genre encoding: one row per movie, one column per
    genre of the sorted vocabulary."""

    def test_encoding_rule(self, tmp_path):
        path = write_csv(
            tmp_path,
            [make_row(genres="Action, Drama"), make_row(title="B", genres="Comedy")],
        )
        table = load_movies(path).records
        assert table.vocabulary == ["Action", "Comedy", "Drama"]
        np.testing.assert_array_equal(table.genre_matrix, [[1, 0, 1], [0, 1, 0]])

    def test_single_record_single_genre(self, tmp_path):
        path = write_csv(tmp_path, [make_row(genres="Drama")])
        table = load_movies(path).records
        assert table.vocabulary == ["Drama"]
        np.testing.assert_array_equal(table.genre_matrix, [[1]])

    def test_identical_genre_sets_identical_rows(self, tmp_path):
        path = write_csv(
            tmp_path,
            [make_row(genres="Action, Drama"), make_row(title="B", genres="Drama, Action")],
        )
        matrix = load_movies(path).records.genre_matrix
        np.testing.assert_array_equal(matrix[0], matrix[1])

    def test_roundtrip_reconstructs_genres(self, tmp_path):
        genres = ["Action", "Action, Drama", "Comedy, Drama, War"]
        rows = [make_row(title=f"M{i}", genres=g) for i, g in enumerate(genres)]
        table = load_movies(write_csv(tmp_path, rows)).records
        vocab, matrix = table.vocabulary, table.genre_matrix
        for field, row in zip(genres, matrix):
            decoded = {vocab[j] for j in range(len(vocab)) if row[j] == 1}
            assert decoded == set(field.split(", "))

    def test_empty_list_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            load_movies(write_csv(tmp_path, []))


class TestBinning:
    # the default cutoffs: [0,40) flop, [40,60) neutral, [60,100] hit
    binner = staticmethod(make_binner(40, 60))

    @pytest.mark.parametrize(
        "score,label",
        [(30, ClassLabel.FLOP), (0, ClassLabel.FLOP), (39, ClassLabel.FLOP),
         (40, ClassLabel.NEUTRAL), (59, ClassLabel.NEUTRAL),
         (60, ClassLabel.HIT), (75, ClassLabel.HIT), (100, ClassLabel.HIT)],
    )
    def test_bin_metascore(self, score, label):
        assert self.binner(score) == label

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            self.binner(101)
        with pytest.raises(ValueError):
            self.binner(-1)

    def test_array_of_scores(self):
        labels = self.binner(np.array([0.0, 39.0, 40.0, 59.0, 60.0, 100.0]))
        assert labels.dtype.kind == "i"
        assert labels.tolist() == [0, 0, 1, 1, 2, 2]
        with pytest.raises(ValueError):
            self.binner(np.array([50.0, np.nan]))

    @pytest.mark.parametrize("score,expected", [(60, True), (59, False), (0, False)])
    def test_binarize_success(self, score, expected):
        assert (self.binner(score) == ClassLabel.HIT) == expected

    @given(st.integers(0, 100), st.integers(0, 100))
    def test_bin_monotone(self, s1, s2):
        if s1 <= s2:
            assert self.binner(s1) <= self.binner(s2)

    @given(st.integers(0, 100))
    def test_binary_is_coarsening_of_ternary(self, s):
        assert (s >= 60) == (self.binner(s) == ClassLabel.HIT)

    def test_custom_binner(self):
        binner = make_binner(30, 70)
        assert binner(30) == ClassLabel.NEUTRAL
        assert binner(69) == ClassLabel.NEUTRAL
        assert binner(70) == ClassLabel.HIT


class TestSplitByYear:
    def _records(self, tmp_path, years):
        rows = [
            make_row(title=f"M{i}", year=y, date=f"{y}-06-01") for i, y in enumerate(years)
        ]
        return load_movies(write_csv(tmp_path, rows)).records

    def test_split_rules(self, tmp_path):
        records = self._records(tmp_path, [1989, 1990, 2015, 2016, 2019])
        split = split_by_year(records)
        assert split.train.columns["year"].tolist() == [1990, 2015]
        assert split.validation.columns["year"].tolist() == [2016, 2019]
        assert split.excluded == 1

    def test_partition_is_complete(self, tmp_path):
        records = self._records(tmp_path, [1991, 1999, 2003, 2016, 2018, 1985])
        split = split_by_year(records)
        at_least_1990 = int(np.sum(records.columns["year"] >= 1990))
        assert len(split.train) + len(split.validation) == at_least_1990
        # titles are unique, so they identify the rows
        assert not (set(split.train.title) & set(split.validation.title))


class TestBuildDesignMatrix:
    def test_complete_case_dropping(self, tmp_path):
        rows = [make_row(), make_row(title="B"), make_row(title="C", budget="")]
        records = load_movies(write_csv(tmp_path, rows)).records
        dm = build_design_matrix(records, ["budget", "duration"], "metascore")
        assert dm.n == 2
        assert dm.values.flags.c_contiguous and dm.target.flags.c_contiguous

    def test_genre_columns_are_binary(self, tmp_path):
        rows = [make_row(genres="Action, Drama"), make_row(title="B", genres="Comedy")]
        records = load_movies(write_csv(tmp_path, rows)).records
        dm = build_design_matrix(records, ["Action", "Comedy", "Drama"], "metascore")
        assert set(np.unique(dm.values)) <= {0.0, 1.0}

    def test_all_targets_missing(self, tmp_path):
        records = load_movies(write_csv(tmp_path, [make_row(meta="N/A")])).records
        with pytest.raises(ValueError):
            build_design_matrix(records, ["duration"], "metascore")

    def test_unknown_feature(self, tmp_path):
        records = load_movies(write_csv(tmp_path, [make_row()])).records
        with pytest.raises(KeyError):
            build_design_matrix(records, ["not_a_column"], "metascore")

    def test_genre_outside_the_partition_is_unknown(self, tmp_path):
        # the vocabulary spans the whole file, but a name must be carried by
        # a row of the partition passed in
        rows = [make_row(year=2000, date="2000-05-01", genres="Drama"),
                make_row(title="B", year=2018, date="2018-05-01", genres="Drama, War")]
        split = split_by_year(load_movies(write_csv(tmp_path, rows)).records)
        assert build_design_matrix(split.validation, ["War"], "metascore").n == 1
        with pytest.raises(KeyError):
            build_design_matrix(split.train, ["War"], "metascore")

    def test_no_non_finite_values(self, tmp_path):
        rows = [make_row(title=f"M{i}", meta=50 + i) for i in range(5)]
        records = load_movies(write_csv(tmp_path, rows)).records
        dm = build_design_matrix(
            records, ["duration", "avg_vote", "votes", "Drama"], "metascore"
        )
        assert np.all(np.isfinite(dm.values))
        assert np.all(np.isfinite(dm.target))


class TestFeatureRows:
    def test_missing_numeric_leaves_record_out(self, tmp_path):
        rows = [make_row(), make_row(title="B", budget=""), make_row(title="C", duration=90)]
        records = load_movies(write_csv(tmp_path, rows)).records
        X, kept = feature_rows(records, ["budget", "duration", "Drama"])
        assert kept == [0, 2]
        np.testing.assert_array_equal(X, [[1e6, 100.0, 1.0], [1e6, 90.0, 1.0]])

    def test_infinite_numeric_leaves_record_out(self, tmp_path):
        # "1e999" parses as inf: a complete case has every feature finite,
        # in training rows as in every row a model labels
        rows = [make_row(), make_row(title="B", budget="1e999"), make_row(title="C", budget="-1e999")]
        records = load_movies(write_csv(tmp_path, rows)).records
        assert np.isinf(records.columns["budget"][1:]).all()
        X, kept = feature_rows(records, ["budget", "duration"])
        assert kept == [0]
        assert build_design_matrix(records, ["budget", "duration"], "metascore").n == 1

    def test_unseen_genre_reads_zero(self, tmp_path):
        records = load_movies(write_csv(tmp_path, [make_row(genres="Drama")])).records
        X, kept = feature_rows(records, ["NoSuchGenre", "Drama"])
        assert kept == [0]
        np.testing.assert_array_equal(X, [[0.0, 1.0]])
        with pytest.raises(KeyError):
            build_design_matrix(records, ["NoSuchGenre"], "metascore")

    def test_no_complete_rows(self, tmp_path):
        records = load_movies(write_csv(tmp_path, [make_row(budget="")])).records
        X, kept = feature_rows(records, ["budget", "duration"])
        assert X.shape == (0, 2) and kept == []


# --------------------------------------------------------------------------
# Reference parse rules: a per-row copy of the loader as it was before the
# columnar ingest, kept to pin every field and drop rule of load_movies.

_REF_MISSING = {"", "na", "n/a", "nan", "null", "none", "-"}
_REF_OPTIONAL = (
    "top1000_voters_rating", "budget", "reviews_from_users", "reviews_from_critics", "metascore",
)


def _ref_parse_optional_float(raw):
    if raw is None or raw.strip().lower() in _REF_MISSING:
        return None
    cleaned = re.sub(r"[^0-9eE.+-]", "", raw.strip())
    try:
        return float(cleaned)
    except ValueError:
        return None


def _ref_parse_date(raw):
    raw = raw.strip()
    try:
        return datetime.date.fromisoformat(raw)
    except ValueError:
        pass
    m = re.fullmatch(r"(\d{4})(?:-(\d{1,2}))?", raw)
    if m:
        return datetime.date(int(m.group(1)), int(m.group(2) or 1), 1)
    raise ValueError(f"unparseable date: {raw!r}")


def _ref_parse_row(row, schema):
    def get(fld):
        return row.get(schema.get(fld, fld))

    try:
        date = _ref_parse_date(get("date_published"))
        year = int(get("year"))
        duration = int(float(get("duration")))
        avg_vote = float(get("avg_vote"))
        votes = int(float(get("votes")))
        genres = frozenset(p.strip() for p in re.split(r"[|,;]", get("genres")) if p.strip())
    except (TypeError, ValueError):
        return None

    if duration <= 0 or votes < 0 or not 0.0 <= avg_vote <= 10.0:
        return None
    if not genres or date.year != year:
        return None

    optional = {fld: _ref_parse_optional_float(get(fld)) for fld in _REF_OPTIONAL}
    metascore = optional.pop("metascore")
    if metascore is not None:
        metascore = int(round(metascore))
        if not 0 <= metascore <= 100:
            return None
    top1000 = optional.pop("top1000_voters_rating")
    if top1000 is not None and not 0.0 <= top1000 <= 10.0:
        return None
    return dict(
        title=(get("title") or "").strip(), year=year, date_published=date, duration=duration,
        avg_vote=avg_vote, votes=votes, genres=genres, top1000_voters_rating=top1000,
        metascore=metascore, **optional,
    )


def _ref_load(path, schema):
    with open(path, newline="", encoding="utf-8") as fh:
        sample = fh.read(4096)
        fh.seek(0)
        try:
            dialect = csv.Sniffer().sniff(sample, delimiters=",;\t")
        except csv.Error:
            dialect = csv.excel
        rows, dropped = [], 0
        for row in csv.DictReader(fh, dialect=dialect):
            rec = _ref_parse_row(row, schema)
            if rec is None:
                dropped += 1
            else:
                rows.append(rec)
    return rows, dropped


def _loaded_rows(result):
    """The loaded table's rows as field dicts, a missing optional value as None."""
    table = result.records
    rows = []
    for i in range(len(table)):
        row = {name: None if np.isnan(col[i]) else float(col[i]) for name, col in table.columns.items()}
        row.update(
            title=table.title[i],
            date_published=table.date_published[i],
            genres=frozenset(g for g, carried in zip(table.vocabulary, table.genre_matrix[i]) if carried),
        )
        date = row["date_published"]
        assert table.month[i] == date.year * 12 + date.month - 1
        rows.append(row)
    return rows


def _table_bytes(result):
    """Everything a LoadResult holds, every array as its bytes."""
    table = result.records
    return dict(
        dropped=result.dropped, title=table.title.tolist(), date_published=table.date_published.tolist(),
        month=table.month.tobytes(), vocabulary=table.vocabulary, genre_matrix=table.genre_matrix.tobytes(),
        columns={name: column.tobytes() for name, column in table.columns.items()},
    )


def _row(**fields):
    values = dict(title="A", year="2000", date_published="2000-05-01", duration="100",
                  avg_vote="6.5", votes="1000", genres="Drama", top1000_voters_rating="6.0",
                  budget="1000000", reviews_from_users="10", reviews_from_critics="5", metascore="70")
    values.update(fields)
    return values


def _csv_text(rows, header=HEADER.split(","), delimiter=","):
    """Rows (field dicts in header order, or raw lists) written as CSV."""
    out = io.StringIO()
    writer = csv.writer(out, delimiter=delimiter, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(list(row.values()) if isinstance(row, dict) else row)
    return out.getvalue()


_FIELDS = HEADER.split(",")
_EDGE_VALUES = ["$1,234.5", "1_000", "inf", "١٢٣", "12abc3", "1.2.3", "+5", "N/A", "-", "", " 42 "]
_GOOD = [_row(title=f"G{i}") for i in range(3)]

PARSE_CASES = {
    # every edge value in every numeric field, except the integer fields'
    # infinities (the overflow test covers those)
    "numeric_edges": _csv_text(_GOOD + [
        _row(title=f"{fld}={v}", **{fld: v})
        for fld in ("duration", "avg_vote", "votes", "top1000_voters_rating", "budget",
                    "reviews_from_users", "reviews_from_critics", "metascore")
        for v in _EDGE_VALUES
        if not (v == "inf" and fld in ("duration", "votes"))
    ]),
    "year_edges": _csv_text(_GOOD + [_row(title=f"y{v}", year=v) for v in _EDGE_VALUES + ["2_000"]]),
    "metascore_rounding": _csv_text(_GOOD + [
        _row(title=f"m{v}", metascore=v) for v in ("99.5", "100.4", "100.6", "0.5", "-0.4", "-0.6", "1e2")
    ]),
    "top1000_range": _csv_text(_GOOD + [_row(title=f"t{v}", top1000_voters_rating=v) for v in ("10.1", "10", "0", "-0.1")]),
    "dates": _csv_text(_GOOD + [
        _row(title="bare", year="1999", date_published="1999"),
        _row(title="ym", year="1999", date_published="1999-7"),
        _row(title="ym2", year="1999", date_published="1999-12"),
        _row(title="bad_month", year="1999", date_published="1999-13"),
        _row(title="mismatch", year="2001", date_published="2000-05-01"),
        _row(title="garbage", date_published="May 2000"),
        _row(title="spaced", date_published=" 2000-05-01 "),
    ]),
    "genres": _csv_text(_GOOD + [
        _row(title="empty", genres=""),
        _row(title="separators", genres=",;|"),
        _row(title="mixed", genres="A|B; C,,"),
        _row(title="spaced", genres=" Action ,Drama "),
    ]),
    "ragged_rows": _csv_text(_GOOD + [
        list(_row(title="short").values())[:9],
        [*_row(title="extra").values(), "surplus", "fields"],
        [],
        _row(title="after_blank"),
    ]),
    "duplicated_header": _csv_text(
        [[*_row(title=f"D{i}").values(), str(40 + i)] for i in range(3)], header=_FIELDS + ["metascore"],
    ),
    "semicolon": _csv_text(_GOOD + [_row(title="s", budget="1,5")], delimiter=";"),
    "tab": _csv_text(_GOOD + [_row(title="t", genres="A, B")], delimiter="\t"),
    # truncating -0.5 and rounding -0.4 give +0.0, as int() and round() do
    "signed_zero": _csv_text(_GOOD + [_row(title="v", votes="-0.5"), _row(title="m", metascore="-0.4")]),
    # a later chunk holds cells for the full optional-number rule, a
    # dropped row, a blank line and a short row
    "chunks": _csv_text(
        [_row(title=f"C{i}", votes=str(i), budget=f"{i}.5") for i in range(CHUNK_ROWS + 10)] + [
            _row(title="inf_budget", budget="inf"),
            _row(title="arabic_reviews", reviews_from_users="١٢٣"),
            _row(title="dropped", duration="0"),
            [],
            list(_row(title="short").values())[:9],
        ] + [_row(title=f"D{i}") for i in range(10)]
    ),
    # the only cell outside plain [0-9eE.+-] is a padded number
    "spaced_optional": _csv_text(_GOOD + [_row(title="s", reviews_from_critics=" 42 ")]),
    "schema_remap": _csv_text(
        _GOOD + [_row(title="r", metascore="N/A")],
        header=[{"title": "movie_name", "metascore": "critic_score"}.get(h, h) for h in _FIELDS],
    ),
}
PARSE_SCHEMAS = {"schema_remap": {"title": "movie_name", "metascore": "critic_score"}}


class TestParseRules:
    @pytest.mark.parametrize("case", sorted(PARSE_CASES))
    def test_load_matches_reference(self, tmp_path, case):
        path = tmp_path / f"{case}.csv"
        path.write_text(PARSE_CASES[case], encoding="utf-8")
        schema = PARSE_SCHEMAS.get(case, {})
        expected_rows, expected_dropped = _ref_load(path, schema)
        result = load_movies(str(path), schema)
        assert result.dropped == expected_dropped
        assert _loaded_rows(result) == expected_rows
        # == lets -0.0 pass for 0.0; the bytes do not
        for name, column in result.records.columns.items():
            expected = np.array([math.nan if row[name] is None else float(row[name]) for row in expected_rows])
            assert column.tobytes() == expected.tobytes(), name

    def test_cases_exercise_drops_and_missing_values(self, tmp_path):
        path = tmp_path / "edges.csv"
        path.write_text(PARSE_CASES["numeric_edges"], encoding="utf-8")
        rows, dropped = _ref_load(path, {})
        assert dropped > 0
        assert any(r["budget"] is None for r in rows) and any(r["metascore"] is None for r in rows)
        assert {r["budget"] for r in rows} >= {1234.5, 1000.0, 123.0, 5.0, 42.0}
