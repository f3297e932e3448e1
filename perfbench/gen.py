"""Seeded movie-table generator for the benchmark's generated workloads.

The per-row distributions are those of ``scripts/make_fixture.py`` (whose
vocabulary and genre effects are imported from that script); only the row
count, the seed and the span of release years are parameters here.  Release
years are uniform over the span, so every month of a long span is populated.
"""

from __future__ import annotations

import csv
import hashlib
import importlib.util
import math
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent


def _fixture_module():
    path = REPO_ROOT / "scripts" / "make_fixture.py"
    spec = importlib.util.spec_from_file_location("make_fixture", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def generate_rows(n_rows: int, seed: int, years: tuple[int, int]) -> list[dict]:
    """``n_rows`` movie rows drawn from ``seed``; release years lie in the
    closed interval ``years``."""
    fx = _fixture_module()
    first, last = years
    if n_rows < 1 or first > last:
        raise ValueError("need n_rows >= 1 and an ordered year span")
    rng = np.random.default_rng(seed)
    n_adj, n_noun = len(fx.ADJECTIVES), len(fx.NOUNS)
    rows = []
    for i in range(n_rows):
        year = int(rng.integers(first, last + 1))
        month = int(rng.integers(1, 13))
        days = fx.DAYS_IN_MONTH[month - 1]
        if month == 2 and year % 4 == 0 and (year % 100 != 0 or year % 400 == 0):
            days = 29
        day = int(rng.integers(1, days + 1))

        n_genres = int(rng.integers(1, 4))
        picked = set(rng.choice(fx.GENRES, size=n_genres, replace=False).tolist())
        if i < len(fx.GENRES):
            picked.add(fx.GENRES[i])  # full vocabulary coverage

        quality = float(rng.normal())
        seasonal = 3.0 * math.sin(2.0 * math.pi * month / 12.0)
        effect = sum(fx.GENRE_EFFECT.get(g, 0.0) for g in picked)
        metascore = 55.0 + 18.0 * quality + seasonal + effect + float(rng.normal(0, 6))
        metascore = int(min(max(round(metascore), 0), 100))

        top1000 = min(max(5.5 + 1.1 * quality + float(rng.normal(0, 0.3)), 0.0), 10.0)
        avg_vote = min(max(5.7 + 0.9 * quality + float(rng.normal(0, 0.6)), 1.0), 10.0)
        duration = int(min(max(rng.normal(105, 15), 60), 190))
        votes = int(np.exp(rng.normal(9.0, 1.2)))
        budget = round(float(np.exp(rng.normal(16.0, 1.0))), 2)
        reviews_users = int(max(rng.normal(120 + 40 * quality, 40), 1))
        reviews_critics = int(max(rng.normal(60 + 25 * quality, 20), 1))

        row = {
            "title": f"{fx.ADJECTIVES[i % n_adj]} {fx.NOUNS[(i * 7) % n_noun]} {i + 1}",
            "year": year,
            "date_published": f"{year:04d}-{month:02d}-{day:02d}",
            "duration": duration,
            "avg_vote": round(avg_vote, 1),
            "votes": votes,
            "genres": ", ".join(sorted(picked)),
            "top1000_voters_rating": round(top1000, 1),
            "budget": budget,
            "reviews_from_users": reviews_users,
            "reviews_from_critics": reviews_critics,
            "metascore": metascore,
        }
        if rng.random() < 0.08:
            row["metascore"] = "N/A"
        if rng.random() < 0.15:
            row["budget"] = ""
        if rng.random() < 0.05:
            row["top1000_voters_rating"] = "N/A"
        if rng.random() < 0.05:
            row["reviews_from_users"] = ""
        rows.append(row)
    return rows


def write_table(path: Path, n_rows: int, seed: int, years: tuple[int, int]) -> dict:
    """Write the generated table as CSV; returns its row count and sha256."""
    rows = generate_rows(n_rows, seed, years)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    return {"path": str(path), "rows": len(rows), "sha256": sha256_file(path)}


def sha256_file(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()
