import numpy as np
import pytest
from hypothesis import given, strategies as st

from cinestat.data_pipeline import (
    ClassLabel,
    SchemaError,
    binarize_multilabel,
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
        assert result.records[0].metascore is None
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
        assert result.records[0].title == "A"

    def test_multi_genre_parsing(self, tmp_path):
        path = write_csv(tmp_path, [make_row(genres="Action, Drama")])
        assert load_movies(path).records[0].genres == frozenset({"Action", "Drama"})


class TestBinarizeMultilabel:
    def test_encoding_rule(self, tmp_path):
        path = write_csv(
            tmp_path,
            [make_row(genres="Action, Drama"), make_row(title="B", genres="Comedy")],
        )
        records = load_movies(path).records
        vocab, matrix = binarize_multilabel(records)
        assert vocab == ["Action", "Comedy", "Drama"]
        np.testing.assert_array_equal(matrix, [[1, 0, 1], [0, 1, 0]])

    def test_single_record_single_genre(self, tmp_path):
        path = write_csv(tmp_path, [make_row(genres="Drama")])
        vocab, matrix = binarize_multilabel(load_movies(path).records)
        assert vocab == ["Drama"]
        np.testing.assert_array_equal(matrix, [[1]])

    def test_identical_genre_sets_identical_rows(self, tmp_path):
        path = write_csv(
            tmp_path,
            [make_row(genres="Action, Drama"), make_row(title="B", genres="Drama, Action")],
        )
        _, matrix = binarize_multilabel(load_movies(path).records)
        np.testing.assert_array_equal(matrix[0], matrix[1])

    def test_roundtrip_reconstructs_genres(self, tmp_path):
        rows = [make_row(title=f"M{i}", genres=g) for i, g in enumerate(
            ["Action", "Action, Drama", "Comedy, Drama, War"])]
        records = load_movies(write_csv(tmp_path, rows)).records
        vocab, matrix = binarize_multilabel(records)
        for rec, row in zip(records, matrix):
            decoded = {vocab[j] for j in range(len(vocab)) if row[j] == 1}
            assert decoded == set(rec.genres)

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            binarize_multilabel([])


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
        assert self.binner(score) is label

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            self.binner(101)
        with pytest.raises(ValueError):
            self.binner(-1)

    @pytest.mark.parametrize("score,expected", [(60, True), (59, False), (0, False)])
    def test_binarize_success(self, score, expected):
        assert (self.binner(score) is ClassLabel.HIT) is expected

    @given(st.integers(0, 100), st.integers(0, 100))
    def test_bin_monotone(self, s1, s2):
        if s1 <= s2:
            assert self.binner(s1) <= self.binner(s2)

    @given(st.integers(0, 100))
    def test_binary_is_coarsening_of_ternary(self, s):
        assert (s >= 60) == (self.binner(s) is ClassLabel.HIT)

    def test_custom_binner(self):
        binner = make_binner(30, 70)
        assert binner(30) is ClassLabel.NEUTRAL
        assert binner(69) is ClassLabel.NEUTRAL
        assert binner(70) is ClassLabel.HIT


class TestSplitByYear:
    def _records(self, tmp_path, years):
        rows = [
            make_row(title=f"M{i}", year=y, date=f"{y}-06-01") for i, y in enumerate(years)
        ]
        return load_movies(write_csv(tmp_path, rows)).records

    def test_split_rules(self, tmp_path):
        records = self._records(tmp_path, [1989, 1990, 2015, 2016, 2019])
        split = split_by_year(records)
        assert [r.year for r in split.train] == [1990, 2015]
        assert [r.year for r in split.validation] == [2016, 2019]
        assert split.excluded == 1

    def test_partition_is_complete(self, tmp_path):
        records = self._records(tmp_path, [1991, 1999, 2003, 2016, 2018, 1985])
        split = split_by_year(records)
        at_least_1990 = [r for r in records if r.year >= 1990]
        assert len(split.train) + len(split.validation) == len(at_least_1990)
        assert not (set(id(r) for r in split.train) & set(id(r) for r in split.validation))


class TestBuildDesignMatrix:
    def test_complete_case_dropping(self, tmp_path):
        rows = [make_row(), make_row(title="B"), make_row(title="C", budget="")]
        records = load_movies(write_csv(tmp_path, rows)).records
        dm = build_design_matrix(records, ["budget", "duration"], "metascore")
        assert dm.n == 2

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
