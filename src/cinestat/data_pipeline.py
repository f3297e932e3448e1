"""Load, clean, encode, bin, and split the movie dataset into model-ready matrices."""

from __future__ import annotations

import csv
import datetime
import enum
import re
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

    @property
    def short(self) -> str:
        return {ClassLabel.FLOP: "F", ClassLabel.NEUTRAL: "N", ClassLabel.HIT: "H"}[self]


@dataclass(frozen=True)
class MovieRecord:
    title: str
    year: int
    date_published: datetime.date
    duration: int
    avg_vote: float
    votes: int
    genres: frozenset[str]
    top1000_voters_rating: float | None = None
    budget: float | None = None
    reviews_from_users: float | None = None
    reviews_from_critics: float | None = None
    metascore: int | None = None


@dataclass
class DesignMatrix:
    """Numeric feature matrix with named columns plus an aligned target."""

    column_names: list[str]
    values: np.ndarray
    target: np.ndarray
    target_name: str

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
    records: list[MovieRecord]
    dropped: int


@dataclass
class YearSplit:
    train: list[MovieRecord]
    validation: list[MovieRecord]
    excluded: int


class SchemaError(ValueError):
    pass


_MISSING = {"", "na", "n/a", "nan", "null", "none", "-"}


def _parse_optional_float(raw: str | None) -> float | None:
    if raw is None or raw.strip().lower() in _MISSING:
        return None
    # budgets may carry currency symbols / thousands separators
    cleaned = re.sub(r"[^0-9eE.+-]", "", raw.strip())
    try:
        return float(cleaned)
    except ValueError:
        return None


def _parse_date(raw: str) -> datetime.date:
    raw = raw.strip()
    try:
        return datetime.date.fromisoformat(raw)
    except ValueError:
        pass
    # tolerate year-month and bare-year dates seen in scraped data
    m = re.fullmatch(r"(\d{4})(?:-(\d{1,2}))?", raw)
    if m:
        return datetime.date(int(m.group(1)), int(m.group(2) or 1), 1)
    raise ValueError(f"unparseable date: {raw!r}")


def _parse_genres(raw: str) -> frozenset[str]:
    parts = re.split(r"[|,;]", raw)
    return frozenset(p.strip() for p in parts if p.strip())


def load_movies(path, schema: dict[str, str] | None = None) -> LoadResult:
    """Read a delimited movie file into records.

    ``schema`` maps record field names to CSV header names; identity mapping
    by default.  Rows whose mandatory fields fail to parse, or that violate a
    record invariant, are dropped and counted.
    """
    schema = schema or {}
    with open(path, newline="", encoding="utf-8") as fh:
        sample = fh.read(4096)
        fh.seek(0)
        try:
            dialect = csv.Sniffer().sniff(sample, delimiters=",;\t")
        except csv.Error:
            dialect = csv.excel
        reader = csv.DictReader(fh, dialect=dialect)
        if reader.fieldnames is None:
            raise SchemaError("file has no header row")
        header = set(reader.fieldnames)
        for fld in MANDATORY_COLUMNS:
            if schema.get(fld, fld) not in header:
                raise SchemaError(f"header lacks mandatory column {schema.get(fld, fld)!r}")

        records: list[MovieRecord] = []
        dropped = 0
        for row in reader:
            rec = _parse_row(row, schema)
            if rec is None:
                dropped += 1
            else:
                records.append(rec)

    if not records:
        raise ValueError("zero parseable rows")
    return LoadResult(records, dropped)


def _parse_row(row: dict[str, str], schema: dict[str, str]) -> MovieRecord | None:
    def get(fld):
        return row.get(schema.get(fld, fld))

    try:
        date = _parse_date(get("date_published"))
        year = int(get("year"))
        duration = int(float(get("duration")))
        avg_vote = float(get("avg_vote"))
        votes = int(float(get("votes")))
        genres = _parse_genres(get("genres"))
    except (TypeError, ValueError):
        return None

    if duration <= 0 or votes < 0 or not 0.0 <= avg_vote <= 10.0:
        return None
    if not genres or date.year != year:
        return None

    optional = {fld: _parse_optional_float(get(fld)) for fld in OPTIONAL_COLUMNS}
    metascore = optional.pop("metascore")
    if metascore is not None:
        metascore = int(round(metascore))
        if not 0 <= metascore <= 100:
            return None
    top1000 = optional.pop("top1000_voters_rating")
    if top1000 is not None and not 0.0 <= top1000 <= 10.0:
        return None

    return MovieRecord(
        title=(get("title") or "").strip(),
        year=year,
        date_published=date,
        duration=duration,
        avg_vote=avg_vote,
        votes=votes,
        genres=genres,
        top1000_voters_rating=top1000,
        metascore=metascore,
        **optional,
    )


def binarize_multilabel(records: list[MovieRecord]) -> tuple[list[str], np.ndarray]:
    """One row per record, one 0/1 column per genre in the sorted union vocabulary."""
    if not records:
        raise ValueError("empty record list")
    vocabulary = sorted(set().union(*(rec.genres for rec in records)))
    index = {g: j for j, g in enumerate(vocabulary)}
    matrix = np.zeros((len(records), len(vocabulary)))
    for i, rec in enumerate(records):
        for g in rec.genres:
            matrix[i, index[g]] = 1.0
    return vocabulary, matrix


def make_binner(flop_upper: int, neutral_upper: int):
    """Ternary binner with configurable cutoffs, boundaries in the upper bin."""
    if not 0 < flop_upper < neutral_upper <= 100:
        raise ValueError("thresholds must satisfy 0 < flop < neutral <= 100")

    def binner(score: int) -> ClassLabel:
        if not 0 <= score <= 100:
            raise ValueError(f"metascore {score} out of [0, 100]")
        if score < flop_upper:
            return ClassLabel.FLOP
        if score < neutral_upper:
            return ClassLabel.NEUTRAL
        return ClassLabel.HIT

    return binner


def split_by_year(records: list[MovieRecord]) -> YearSplit:
    """Train on 1990-2015 inclusive, validate on later years, exclude pre-1990."""
    train = [r for r in records if TRAIN_YEAR_START <= r.year <= TRAIN_YEAR_END]
    validation = [r for r in records if r.year > TRAIN_YEAR_END]
    excluded = len(records) - len(train) - len(validation)
    return YearSplit(train, validation, excluded)


def feature_rows(records: list[MovieRecord], feature_names: list[str]) -> tuple[np.ndarray, list[int]]:
    """Complete-case rows of the named features, in the given column order,
    and the index of the record behind each row.

    A missing numeric field leaves its record out.  Any other name reads as
    genre membership (1.0 or 0.0), so a genre that no record carries gives a
    column of zeros.
    """
    rows, kept = [], []
    for i, rec in enumerate(records):
        row = [getattr(rec, n) if n in NUMERIC_FIELDS else float(n in rec.genres) for n in feature_names]
        if None not in row:
            rows.append(row)
            kept.append(i)
    return np.array(rows, dtype=float).reshape(len(rows), len(feature_names)), kept


def build_design_matrix(
    records: list[MovieRecord],
    feature_names: list[str],
    target_name: str,
) -> DesignMatrix:
    """Complete-case feature/target assembly in the given column order.

    Feature names may be numeric record fields or genre names (binarized
    to 0/1 membership indicators); a genre absent from every record is a
    KeyError.
    """
    if not records:
        raise ValueError("no records")
    genre_vocab = set().union(*(rec.genres for rec in records))
    for name in list(feature_names) + [target_name]:
        if name not in NUMERIC_FIELDS and name not in genre_vocab:
            raise KeyError(f"unknown feature name {name!r}")

    values, kept = feature_rows(records, list(feature_names) + [target_name])
    if not kept:
        raise ValueError("zero surviving rows after complete-case filtering")
    # contiguous copies: strided views can take other BLAS kernels, which sum
    # in another order
    return DesignMatrix(list(feature_names), values[:, :-1].copy(), values[:, -1].copy(), target_name)
