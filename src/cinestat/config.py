"""Run configuration for the benchmark harness, loaded from JSON."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .data_pipeline import NUMERIC_FIELDS

ALL_MODELS = ("slr", "mlr", "logistic", "ridge", "lasso", "kmeans", "svm", "ann")

_MLR = ["budget", "reviews_from_users", "reviews_from_critics", "top1000_voters_rating", "Action",
        "Animation", "Crime", "Drama", "Family", "Fantasy", "Horror", "Music", "Musical",
        "Mystery", "Sport", "Thriller"]
_LOGISTIC = ["top1000_voters_rating", "Action", "Crime", "Drama", "Fantasy", "Mystery", "Romance",
             "Sport", "Thriller", "War"]
# The default attribute lists (the comparison tables' feature sets) of each field that maps
# models to lists.  Its keys are the models that read the field; a config may name no other.
DEFAULT_FEATURES = {
    "features": {
        "mlr": _MLR, "ridge": _MLR, "lasso": _MLR,
        "logistic": _LOGISTIC, "kmeans": _LOGISTIC, "svm": _LOGISTIC,
        "ann": ["duration", "avg_vote", "Action", "Adventure", "Animation", "Biography", "Comedy",
                "Crime", "Drama", "Family", "Fantasy", "Horror", "Mystery", "Thriller"],
    },
    "features_2020": {
        "mlr": ["duration", "Action", "Animation", "Biography", "Drama", "Horror"],
        "logistic": ["avg_vote", "Action", "Crime", "Fantasy", "Mystery"],
        "svm": ["avg_vote", "Action", "Crime", "Drama", "Fantasy", "Mystery", "Thriller"],
    },
}
SLR_CANDIDATES = ["duration", "avg_vote", "votes", "budget", "reviews_from_users",
                  "reviews_from_critics", "top1000_voters_rating"]

# The keys of sarimax_grid: (p, d, q)(P, D, Q), each a list of orders to try.
SARIMAX_ORDERS = "pdqPDQ"


class ConfigError(ValueError):
    pass


# The JSON kinds.  Each rule below is a pair: what a value must be, and the
# test of a value.  A bool is not a number in any of them.
def _is_number(v, kinds) -> bool:
    return isinstance(v, kinds) and not isinstance(v, bool)


def _strings(v, allowed) -> bool:
    """A list of strings, each one of ``allowed`` unless that is None."""
    return isinstance(v, (list, tuple)) and all(
        isinstance(x, str) and (allowed is None or x in allowed) for x in v)


def _integer(least: int):
    return f"an integer >= {least}", lambda v: _is_number(v, int) and v >= least


def _string_map(what: str, allowed):
    return what, lambda v: isinstance(v, dict) and _strings([*v, *v.values()], allowed)


# A model's attribute list: the target is never among its own regressors.
_FEATURE_LIST = (
    "a non-empty list of distinct strings other than metascore",
    lambda v: _strings(v, None) and 0 < len(set(v)) == len(v) and "metascore" not in v,
)


def _feature_lists(name: str):
    models = DEFAULT_FEATURES[name]
    what = f"a JSON object from {'/'.join(models)} to attribute lists, each {_FEATURE_LIST[0]}"
    return what, lambda v: isinstance(v, dict) and _strings(list(v), models) and all(
        _FEATURE_LIST[1](x) for x in v.values())


_PENALTY = "a finite number > 0", lambda v: _is_number(v, (int, float)) and 0 < v < math.inf
_PATH = "a non-empty path string", lambda v: isinstance(v, str) and v != ""

# One rule per RunConfig field.
SCHEMA = {
    "dataset": _PATH,
    "output_dir": _PATH,
    "column_map": _string_map("a JSON object of strings to strings", None),
    "models": (f"a list of distinct names from {list(ALL_MODELS)}",
               lambda v: _strings(v, ALL_MODELS) and len(set(v)) == len(v)),
    "features": _feature_lists("features"),
    "features_2020": _feature_lists("features_2020"),
    "slr_candidates": _FEATURE_LIST,
    "bin_thresholds": (
        "two numbers [flop, neutral] with 0 < flop < neutral <= 100",
        lambda v: isinstance(v, (list, tuple)) and len(v) == 2
        and all(_is_number(x, (int, float)) for x in v) and 0 < v[0] < v[1] <= 100,
    ),
    "seed": _integer(0),
    "ridge_lambda": _PENALTY,
    "lasso_lambda": _PENALTY,
    "svm_C": _PENALTY,
    "svm_epochs": _integer(1),
    "kmeans_restarts": _integer(1),
    "sarimax_grid": (
        f"a JSON object from {list(SARIMAX_ORDERS)} to non-empty lists of distinct integers >= 0",
        lambda v: isinstance(v, dict) and set(v) == set(SARIMAX_ORDERS) and all(
            isinstance(o, (list, tuple)) and all(_is_number(x, int) and x >= 0 for x in o)
            and 0 < len(set(o)) == len(o) for o in v.values()),
    ),
    "sarimax_exog": (
        "a list of numeric fields or movie_count, each named once",
        lambda v: _strings(v, (*NUMERIC_FIELDS, "movie_count")) and len(set(v)) == len(v),
    ),
    "sarimax_max_evaluations": _integer(1),
    "forecast_horizon": _integer(0),
    "mlp_max_epochs": _integer(1),
    "per_movie_rows": _integer(1),
    "test_2020": ("null or a non-empty path string", lambda v: v is None or _PATH[1](v)),
    "test_2020_substitutions": _string_map("a JSON object pairing numeric fields", NUMERIC_FIELDS),
}


def check_value(name: str, value, rule) -> None:
    """Raise ConfigError, naming ``name``, unless ``value`` passes ``rule``."""
    what, ok = rule
    if not ok(value):
        raise ConfigError(f"{name} must be {what}, got {value!r}")


@dataclass
class RunConfig:
    dataset: str
    output_dir: str = "out"
    column_map: dict[str, str] = field(default_factory=dict)
    models: list[str] = field(default_factory=lambda: list(ALL_MODELS))
    features: dict[str, list[str]] = field(default_factory=dict)
    features_2020: dict[str, list[str]] = field(default_factory=dict)
    slr_candidates: list[str] = field(default_factory=lambda: list(SLR_CANDIDATES))
    bin_thresholds: tuple[int, int] = (40, 60)
    seed: int = 0
    ridge_lambda: float = 1150.0
    lasso_lambda: float = 0.145
    svm_C: float = 1.0
    svm_epochs: int = 50
    kmeans_restarts: int = 10
    sarimax_grid: dict[str, list[int]] = field(default_factory=lambda: {k: [0, 1] for k in SARIMAX_ORDERS})
    sarimax_exog: list[str] = field(default_factory=lambda: ["duration", "movie_count"])
    sarimax_max_evaluations: int = 300
    forecast_horizon: int = 24
    mlp_max_epochs: int = 500
    per_movie_rows: int = 10
    # optional second CSV of held-out movies with the flagged column rename
    # (a coefficient trained on one column is reused on another)
    test_2020: str | None = None
    test_2020_substitutions: dict[str, str] = field(
        default_factory=lambda: {"top1000_voters_rating": "avg_vote"}
    )

    def __post_init__(self):
        for name, rule in SCHEMA.items():
            check_value(name, getattr(self, name), rule)
        for name, defaults in DEFAULT_FEATURES.items():
            setattr(self, name, {m: list(f) for m, f in defaults.items()} | getattr(self, name))

    @classmethod
    def from_file(cls, path: str) -> "RunConfig":
        try:
            with open(path, encoding="utf-8") as fh:
                raw = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        return cls.from_dict(raw)

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        # a missing dataset, an unknown key or a non-object config is a TypeError
        try:
            return cls(**raw)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc
