"""Load, clean, encode, bin, and split the movie dataset into model-ready matrices."""

from __future__ import annotations

import csv
import datetime
import enum
import itertools
import math
import re
from array import array
from dataclasses import dataclass

import numpy as np

# Numeric record fields usable directly as design-matrix columns.
NUMERIC_FIELDS = (
    "year",
    "duration",
    "avg_vote",
    "votes",
    "top1000_voters_rating",
    "budget",
    "reviews_from_users",
    "reviews_from_critics",
    "metascore",
)

MANDATORY_COLUMNS = ("title", "year", "date_published", "duration", "avg_vote", "votes", "genres")
OPTIONAL_COLUMNS = (
    "top1000_voters_rating",
    "budget",
    "reviews_from_users",
    "reviews_from_critics",
    "metascore",
)

TRAIN_YEAR_START = 1990
TRAIN_YEAR_END = 2015


class ClassLabel(enum.IntEnum):
    """Ternary success label, totally ordered Flop < Neutral < Hit."""

    FLOP = 0
    NEUTRAL = 1
    HIT = 2


# The report's letter for each class label, indexed by the label.
LABEL_LETTERS = "FNH"


@dataclass
class MovieTable:
    """Parsed movie rows as typed columns, in file order.

    ``columns`` holds every NUMERIC_FIELDS column as a float array, with NaN
    for a missing optional value.  ``month`` is the publication month as
    ``year * 12 + month - 1``.  ``genre_matrix[i, j]`` says whether row ``i``
    carries genre ``vocabulary[j]``; the vocabulary is the sorted union of the
    loaded rows' genres, and a row subset keeps it whole.
    """

    title: np.ndarray  # str objects
    date_published: np.ndarray  # datetime.date objects
    month: np.ndarray
    columns: dict[str, np.ndarray]
    vocabulary: list[str]
    genre_matrix: np.ndarray

    def __len__(self) -> int:
        return len(self.title)

    def take(self, index) -> MovieTable:
        """The rows a boolean mask or a sequence of row indices selects."""
        return MovieTable(
            self.title[index],
            self.date_published[index],
            self.month[index],
            {name: column[index] for name, column in self.columns.items()},
            self.vocabulary,
            self.genre_matrix[index],
        )

    def scored(self) -> MovieTable:
        """The rows that carry a metascore."""
        return self.take(~np.isnan(self.columns["metascore"]))


@dataclass
class DesignMatrix:
    """Numeric feature matrix with named columns plus an aligned target."""

    column_names: list[str]
    values: np.ndarray
    target: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        self.target = np.asarray(self.target, dtype=float)
        if self.values.ndim != 2 or self.values.shape[1] != len(self.column_names):
            raise ValueError("column count must equal name count")
        if self.values.shape[0] != self.target.shape[0]:
            raise ValueError("row count must equal target length")
        if not (np.all(np.isfinite(self.values)) and np.all(np.isfinite(self.target))):
            raise ValueError("design matrix contains non-finite values")

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def p(self) -> int:
        return self.values.shape[1]


@dataclass
class LoadResult:
    records: MovieTable
    dropped: int


@dataclass
class YearSplit:
    train: MovieTable
    validation: MovieTable
    excluded: int


class SchemaError(ValueError):
    pass


_MISSING = {"", "na", "n/a", "nan", "null", "none", "-"}
_NUMBER_CHARS = "0123456789eE.+-"
_NOT_NUMBER = re.compile(r"[^0-9eE.+-]")
_YEAR_MONTH = re.compile(r"(\d{4})(?:-(\d{1,2}))?")
_GENRE_SEPARATOR = re.compile(r"[|,;]")


def _parse_optional_float(raw: str) -> float:
    """The value of an optional numeric field; NaN when missing."""
    raw = raw.strip()
    if raw.lower() in _MISSING:
        return math.nan
    if raw.lstrip(_NUMBER_CHARS):
        # budgets may carry currency symbols / thousands separators; every
        # character outside [0-9eE.+-] goes, so text "inf" and non-ASCII
        # digits read as missing
        raw = _NOT_NUMBER.sub("", raw)
    try:
        return float(raw)
    except ValueError:
        return math.nan


def _parse_date(raw: str) -> tuple[datetime.date, int] | None:
    """The date and its month index, or None when blank or unparseable."""
    raw = raw.strip()
    try:
        date = datetime.date.fromisoformat(raw)
    except ValueError:
        # tolerate year-month and bare-year dates seen in scraped data
        m = _YEAR_MONTH.fullmatch(raw)
        if not m:
            return None
        try:
            date = datetime.date(int(m.group(1)), int(m.group(2) or 1), 1)
        except ValueError:
            return None
    return date, date.year * 12 + date.month - 1


# The fields in the order _read_rows reads them.
_ROW_FIELDS = MANDATORY_COLUMNS + OPTIONAL_COLUMNS

# Data rows parsed per chunk.  Each chunk is transposed once and parsed a
# column at a time: a few hundred rows amortise each column pass and keep
# the chunk's strings small (the traced peak of a 6,000-row load grows by
# 0.3 MiB at 512 rows and 3.9 MiB at 4,096 over a row at a time; sizes from
# 128 to 4,096 ran equally fast within noise).
CHUNK_ROWS = 512


def load_movies(path, schema: dict[str, str] | None = None) -> LoadResult:
    """Read a delimited movie file into a MovieTable in one streaming pass.

    ``schema`` maps record field names to CSV header names; identity mapping
    by default.  A leading UTF-8 byte-order mark is skipped.  A repeated
    header name reads its last column and blank lines are skipped, as with
    ``csv.DictReader``; a short row reads its missing fields as blank, which
    every field rule reads as it would an absent field.  Rows whose
    mandatory fields fail to parse (a duration, vote count or metascore that
    overflows to infinity among them), or that violate a record invariant,
    are dropped and counted.
    """
    schema = schema or {}
    with open(path, newline="", encoding="utf-8-sig") as fh:
        sample = fh.read(4096)
        fh.seek(0)
        try:
            dialect = csv.Sniffer().sniff(sample, delimiters=",;\t")
        except csv.Error:
            dialect = csv.excel
        reader = csv.reader(fh, dialect=dialect)
        header = next(reader, None)
        if header is None:
            raise SchemaError("file has no header row")
        position = {name: j for j, name in enumerate(header)}
        for fld in MANDATORY_COLUMNS:
            if schema.get(fld, fld) not in position:
                raise SchemaError(f"header lacks mandatory column {schema.get(fld, fld)!r}")
        return _read_rows(reader, len(header), [position.get(schema.get(fld, fld)) for fld in _ROW_FIELDS])


def _number_column(parse, cells) -> np.ndarray:
    """``float(parse(cell))`` for every cell, NaN where it raises."""
    try:
        return np.fromiter(map(parse, cells), float, len(cells))
    except (ValueError, OverflowError):
        value = {}
        for cell in set(cells):
            try:
                value[cell] = float(parse(cell))
            except (ValueError, OverflowError):
                value[cell] = math.nan
        return np.fromiter(map(value.__getitem__, cells), float, len(cells))


def _optional_column(cells) -> np.ndarray:
    """``_parse_optional_float`` of every cell.  Where every cell is blank or
    plain ASCII [0-9eE.+-], the rule reduces to ``float`` with a blank as
    NaN (bare ``float`` reads "inf", "-nan" and non-ASCII digits otherwise);
    elsewhere, and where such a cell still raises, as "-" does, every
    distinct cell goes through the rule once."""
    if not _NOT_NUMBER.search("".join(cells)):
        try:
            return np.fromiter((float(c) if c else math.nan for c in cells), float, len(cells))
        except ValueError:
            pass
    value = {cell: _parse_optional_float(cell) for cell in set(cells)}
    return np.fromiter(map(value.__getitem__, cells), float, len(cells))


def _read_rows(reader, width: int, positions: list[int | None]) -> LoadResult:
    """Parse the data rows into a MovieTable; ``positions`` gives each
    _ROW_FIELDS column's index in a row, None for an optional column the
    header lacks.

    Rows are read CHUNK_ROWS at a time and each chunk is parsed a column at
    a time, then the drop rules run as masks over the chunk.  Date and genre
    fields repeat, so each distinct one is parsed once for the whole file.
    """
    j_title, j_year, j_date, j_duration, j_avg_vote, j_votes, j_genres = positions[:7]
    optional = positions[7:]
    date_of: dict[str, datetime.date | None] = {}
    month_of: dict[str, float] = {}  # NaN for a date that does not parse
    genres_seen: dict[str, int] = {}  # genre field -> index into genre_sets, -1 if empty
    genre_sets: list[frozenset[str]] = []

    titles, dates, months, row_genre_sets = [], [], array("q"), array("q")
    numbers = array("d")  # NUMERIC_FIELDS values, one row after another
    dropped = 0
    while chunk := list(itertools.islice(reader, CHUNK_ROWS)):
        rows = [row if len(row) >= width else row + [""] * (width - len(row)) for row in chunk if row]
        if not rows:
            continue
        cells = list(zip(*rows))
        n = len(rows)

        raw_dates = cells[j_date]
        for raw in set(raw_dates).difference(month_of):
            dated = _parse_date(raw)
            date_of[raw], month_of[raw] = dated or (None, math.nan)
        raw_genres = cells[j_genres]
        for raw in set(raw_genres).difference(genres_seen):
            genres = frozenset(p.strip() for p in _GENRE_SEPARATOR.split(raw) if p.strip())
            genres_seen[raw] = len(genre_sets) if genres else -1
            if genres:
                genre_sets.append(genres)
        month = np.fromiter(map(month_of.__getitem__, raw_dates), float, n)
        genre_set = np.fromiter(map(genres_seen.__getitem__, raw_genres), np.int64, n)

        year = _number_column(int, cells[j_year])
        # duration and votes are whole numbers, so an infinite one does not
        # parse.  + 0.0 gives the +0.0 that float(int(-0.5)) and
        # float(round(-0.4)) give where truncating or rounding gives -0.0.
        duration = np.trunc(_number_column(float, cells[j_duration])) + 0.0
        avg_vote = _number_column(float, cells[j_avg_vote])
        votes = np.trunc(_number_column(float, cells[j_votes])) + 0.0
        top1000, budget, users, critics, metascore = [
            np.full(n, math.nan) if j is None else _optional_column(cells[j]) for j in optional
        ]
        metascore = np.round(metascore) + 0.0
        keep = (
            (0 < duration) & (duration < math.inf) & (0 <= votes) & (votes < math.inf)
            & (0.0 <= avg_vote) & (avg_vote <= 10.0)
            & (month // 12 == year)  # the date's year; NaN when either fails
            & (genre_set >= 0)
            & (np.isnan(metascore) | ((0 <= metascore) & (metascore <= 100)))
            & (np.isnan(top1000) | ((0.0 <= top1000) & (top1000 <= 10.0)))
        )
        kept = keep.tolist()
        dropped += n - sum(kept)
        titles.extend(title.strip() for title in itertools.compress(cells[j_title], kept))
        dates.extend(map(date_of.__getitem__, itertools.compress(raw_dates, kept)))
        months.frombytes(month[keep].astype(np.int64).tobytes())
        row_genre_sets.frombytes(genre_set[keep].tobytes())
        values = np.column_stack((year, duration, avg_vote, votes, top1000, budget, users, critics, metascore))
        numbers.frombytes(values[keep].tobytes())

    if not titles:
        raise ValueError("zero parseable rows")
    numbers = np.frombuffer(numbers, dtype=float).reshape(len(titles), len(NUMERIC_FIELDS))
    row_genre_sets = np.frombuffer(row_genre_sets, dtype=np.int64)
    used = np.flatnonzero(np.bincount(row_genre_sets, minlength=len(genre_sets)))
    vocabulary = sorted(set().union(*(genre_sets[k] for k in used)))
    column = {g: j for j, g in enumerate(vocabulary)}
    set_matrix = np.zeros((len(genre_sets), len(vocabulary)), dtype=bool)
    for k in used:
        set_matrix[k, [column[g] for g in genre_sets[k]]] = True
    table = MovieTable(
        title=np.array(titles, dtype=object),
        date_published=np.array(dates, dtype=object),
        month=np.frombuffer(months, dtype=np.int64).copy(),
        columns={name: numbers[:, k].copy() for k, name in enumerate(NUMERIC_FIELDS)},
        vocabulary=vocabulary,
        genre_matrix=set_matrix[row_genre_sets],
    )
    return LoadResult(table, dropped)


def make_binner(flop_upper: int, neutral_upper: int):
    """Ternary binner with configurable cutoffs, boundaries in the upper bin.

    The binner maps a score, or an array of scores, to ClassLabel ints.
    """
    if not 0 < flop_upper < neutral_upper <= 100:
        raise ValueError("thresholds must satisfy 0 < flop < neutral <= 100")
    cutoffs = [flop_upper, neutral_upper]

    def binner(scores) -> np.ndarray:
        scores = np.asarray(scores, dtype=float)
        outside = ~((0 <= scores) & (scores <= 100))  # NaN included
        if outside.any():
            raise ValueError(f"metascore {scores[outside].flat[0]} out of [0, 100]")
        return np.searchsorted(cutoffs, scores, side="right")

    return binner


def split_by_year(table: MovieTable) -> YearSplit:
    """Train on 1990-2015 inclusive, validate on later years, exclude pre-1990."""
    year = table.columns["year"]
    train = table.take((TRAIN_YEAR_START <= year) & (year <= TRAIN_YEAR_END))
    validation = table.take(year > TRAIN_YEAR_END)
    return YearSplit(train, validation, len(table) - len(train) - len(validation))


def feature_rows(table: MovieTable, feature_names: list[str]) -> tuple[np.ndarray, list[int]]:
    """Complete-case rows of the named features, in the given column order,
    and the index of the table row behind each.

    A missing or infinite numeric value leaves its row out, so a complete
    case has every feature finite.  Any other name reads as genre
    membership (1.0 or 0.0), so a genre that no row carries gives a column
    of zeros.
    """
    genre_column = {g: j for j, g in enumerate(table.vocabulary)}
    X = np.zeros((len(table), len(feature_names)))
    for k, name in enumerate(feature_names):
        if name in NUMERIC_FIELDS:
            X[:, k] = table.columns[name]
        elif name in genre_column:
            X[:, k] = table.genre_matrix[:, genre_column[name]]
    complete = np.isfinite(X).all(axis=1)
    return X[complete], np.flatnonzero(complete).tolist()


def build_design_matrix(
    table: MovieTable,
    feature_names: list[str],
    target_name: str,
) -> DesignMatrix:
    """Complete-case feature/target assembly in the given column order.

    Feature names may be numeric fields or genre names (0/1 membership
    indicators); a genre that no row of ``table`` carries is a KeyError.
    """
    if not len(table):
        raise ValueError("no records")
    carried = {g for g, any_row in zip(table.vocabulary, table.genre_matrix.any(axis=0)) if any_row}
    for name in list(feature_names) + [target_name]:
        if name not in NUMERIC_FIELDS and name not in carried:
            raise KeyError(f"unknown feature name {name!r}")

    values, kept = feature_rows(table, list(feature_names) + [target_name])
    if not kept:
        raise ValueError("zero surviving rows after complete-case filtering")
    # contiguous copies: strided views can take other BLAS kernels, which sum
    # in another order
    return DesignMatrix(list(feature_names), values[:, :-1].copy(), values[:, -1].copy())
