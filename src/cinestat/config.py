"""Run configuration for the benchmark harness, loaded from JSON."""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field

from .data_pipeline import NUMERIC_FIELDS, make_binner

# Default per-model attribute lists (the comparison tables' feature sets).
MLR_FEATURES = [
    "budget", "reviews_from_users", "reviews_from_critics", "top1000_voters_rating",
    "Action", "Animation", "Crime", "Drama", "Family", "Fantasy", "Horror",
    "Music", "Musical", "Mystery", "Sport", "Thriller",
]
LOGISTIC_FEATURES = [
    "top1000_voters_rating", "Action", "Crime", "Drama", "Fantasy", "Mystery",
    "Romance", "Sport", "Thriller", "War",
]
SVM_FEATURES = list(LOGISTIC_FEATURES)
ANN_FEATURES = [
    "duration", "avg_vote", "Action", "Adventure", "Animation", "Biography",
    "Comedy", "Crime", "Drama", "Family", "Fantasy", "Horror", "Mystery", "Thriller",
]
SLR_CANDIDATES = [
    "duration", "avg_vote", "votes", "budget", "reviews_from_users",
    "reviews_from_critics", "top1000_voters_rating",
]

MLR_FEATURES_2020 = ["duration", "Action", "Animation", "Biography", "Drama", "Horror"]
LOGISTIC_FEATURES_2020 = ["avg_vote", "Action", "Crime", "Fantasy", "Mystery"]
SVM_FEATURES_2020 = ["avg_vote", "Action", "Crime", "Drama", "Fantasy", "Mystery", "Thriller"]

ALL_MODELS = ("slr", "mlr", "logistic", "ridge", "lasso", "kmeans", "svm", "ann")

# Integer fields with the least value each may take: the seed and the
# horizon may be 0; the fields that count rows, restarts, epochs or
# evaluations must be >= 1.
INTEGER_FIELDS = {
    "seed": 0, "forecast_horizon": 0, "per_movie_rows": 1, "kmeans_restarts": 1,
    "svm_epochs": 1, "mlp_max_epochs": 1, "sarimax_max_evaluations": 1,
}

# The keys of sarimax_grid: (p, d, q)(P, D, Q), each a list of orders to try.
SARIMAX_ORDERS = "pdqPDQ"


class ConfigError(ValueError):
    pass


def check_string_map(value, what: str) -> None:
    """Reject a name map that is not a dict from str to str."""
    if not isinstance(value, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in value.items()
    ):
        raise ConfigError(f"{what} must be a JSON object of strings to strings, got {value!r}")


def _is_string_list(value) -> bool:
    return isinstance(value, (list, tuple)) and all(isinstance(x, str) for x in value)


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
    sarimax_grid: dict[str, list[int]] = field(
        default_factory=lambda: {k: [0, 1] for k in SARIMAX_ORDERS}
    )
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
        self.bin_thresholds = tuple(self.bin_thresholds)
        try:
            flop_upper, neutral_upper = self.bin_thresholds
            make_binner(flop_upper, neutral_upper)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bin thresholds {list(self.bin_thresholds)}: {exc}") from exc
        for name, least in INTEGER_FIELDS.items():
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < least:
                raise ConfigError(f"{name} must be an integer >= {least}, got {value!r}")
        check_string_map(self.column_map, "column_map")
        check_string_map(self.test_2020_substitutions, "test_2020_substitutions")
        for name in ("models", "slr_candidates", "sarimax_exog"):
            if not _is_string_list(getattr(self, name)):
                raise ConfigError(f"{name} must be a list of strings, got {getattr(self, name)!r}")
        for name in ("features", "features_2020"):
            value = getattr(self, name)
            if not isinstance(value, dict) or not all(_is_string_list(v) for v in value.values()):
                raise ConfigError(f"{name} must be a JSON object of lists of strings, got {value!r}")
        non_numeric = {
            target: source for target, source in self.test_2020_substitutions.items()
            if target not in NUMERIC_FIELDS or source not in NUMERIC_FIELDS
        }
        if non_numeric:
            raise ConfigError(f"test_2020_substitutions must pair numeric fields: {non_numeric}")
        grid = self.sarimax_grid
        if not isinstance(grid, dict) or sorted(grid) != sorted(SARIMAX_ORDERS):
            raise ConfigError(f"sarimax_grid must have the keys {list(SARIMAX_ORDERS)}, got {grid!r}")
        for key, orders in grid.items():
            if not isinstance(orders, (list, tuple)) or not orders or not all(
                isinstance(o, int) and not isinstance(o, bool) and o >= 0 for o in orders
            ):
                raise ConfigError(f"sarimax_grid[{key!r}] must list integers >= 0, got {orders!r}")
            if len(set(orders)) != len(orders):
                raise ConfigError(f"sarimax_grid[{key!r}] repeats an order: {orders!r}")
        bad_exog = [x for x in self.sarimax_exog if x not in NUMERIC_FIELDS and x != "movie_count"]
        if bad_exog:
            raise ConfigError(f"sarimax_exog must name numeric fields or movie_count: {bad_exog}")
        if len(set(self.sarimax_exog)) != len(self.sarimax_exog):
            raise ConfigError(f"sarimax_exog repeats a name: {self.sarimax_exog}")
        unknown = set(self.models) - set(ALL_MODELS)
        if unknown:
            raise ConfigError(f"unknown models: {sorted(unknown)}")
        defaults = {
            "mlr": MLR_FEATURES, "logistic": LOGISTIC_FEATURES, "svm": SVM_FEATURES,
            "kmeans": SVM_FEATURES, "ann": ANN_FEATURES, "ridge": MLR_FEATURES,
            "lasso": MLR_FEATURES,
        }
        for name, feats in defaults.items():
            self.features.setdefault(name, list(feats))
        defaults_2020 = {
            "mlr": MLR_FEATURES_2020, "logistic": LOGISTIC_FEATURES_2020,
            "svm": SVM_FEATURES_2020,
        }
        for name, feats in defaults_2020.items():
            self.features_2020.setdefault(name, list(feats))

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
        raw = copy.deepcopy(raw)
        if "dataset" not in raw:
            raise ConfigError("config must name a dataset")
        allowed = set(cls.__dataclass_fields__)
        unknown = set(raw) - allowed
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        try:
            return cls(**raw)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc
