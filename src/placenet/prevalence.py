"""Region-level prevalence statistics for social-place pages.

A page contributes fractionally to each of its categories (1 divided by
its category count), so per-region mass is conserved exactly. Rates are
pages per 1000 residents; regions are binned into rank-based deciles per
category for mapping, and medians are reported across demographic bins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, NamedTuple

import numpy as np

from placenet.tables import number, read_csv, write_csv

BIN_KEYS = ("rucc", "income_decile", "education_decile", "foreign_born_decile")


@dataclass(frozen=True)
class PlaceRecord:
    page_id: str
    region_id: str
    categories: tuple[str, ...]


@dataclass(frozen=True)
class RegionInfo:
    population: int
    rucc: int
    income: float
    education: float
    foreign_born_share: float

    def __post_init__(self):
        if self.population <= 0:
            raise ValueError("population must be > 0")
        if not 1 <= self.rucc <= 9:
            raise ValueError(f"RUCC code must be in 1..9, got {self.rucc}")


@dataclass(frozen=True)
class PrevalenceEntry:
    weighted_count: float
    per_1000: float
    decile: int


def fractional_counts(
    records: list[PlaceRecord],
) -> dict[tuple[str, str], Fraction]:
    """Weighted page counts per (region, category).

    A page with c categories adds 1/c to each of them, so its total
    contribution is exactly 1; counts are exact rationals so the overall
    mass equals the number of records with no rounding.

    Raises:
        ValueError: naming the page id, for a record without categories.
    """
    counts: dict[tuple[str, str], Fraction] = {}
    for rec in records:
        if not rec.categories:
            raise ValueError(f"record {rec.page_id!r} rejected: empty category set")
        share = Fraction(1, len(rec.categories))
        for cat in rec.categories:
            key = (rec.region_id, cat)
            counts[key] = counts.get(key, Fraction(0)) + share
    return counts


def decile_assign(values: Mapping[str, float]) -> dict[str, int]:
    """Rank-based decile (1..10) per region.

    Regions are sorted ascending by value (ties by region id); the region
    at 1-based rank i of n gets decile ceil(10*i/n). Rank-based buckets
    mean equal values can straddle deciles; the assignment is total and
    invariant under strictly monotone transforms of the values.
    """
    if not values:
        raise ValueError("decile_assign requires at least one region")
    ordered = sorted(values, key=lambda r: (values[r], r))
    n = len(ordered)
    return {r: -(-10 * (i + 1) // n) for i, r in enumerate(ordered)}


def per_capita(
    counts: Mapping[tuple[str, str], Fraction | float],
    regions: Mapping[str, RegionInfo],
) -> dict[tuple[str, str], PrevalenceEntry]:
    """Per-1000-resident rates with per-category decile assignment.

    Every region of the region table appears for every counted category,
    at 0 when it has no pages.

    Raises:
        KeyError: naming the region id, if a counted region is missing
            from the region table.
    """
    for region, _ in counts:
        if region not in regions:
            raise KeyError(f"region {region!r} missing from region table")
    categories = sorted({cat for _, cat in counts})
    table: dict[tuple[str, str], PrevalenceEntry] = {}
    for cat in categories:
        masses = {region: Fraction(counts.get((region, cat), 0)) for region in regions}
        rates = {region: float(1000 * mass / regions[region].population)
                 for region, mass in masses.items()}
        deciles = decile_assign(rates)
        for region, mass in masses.items():
            table[(region, cat)] = PrevalenceEntry(
                weighted_count=float(mass), per_1000=rates[region], decile=deciles[region]
            )
    return table


def _lower_median(values: list[float]) -> float:
    ordered = sorted(values)
    return ordered[(len(ordered) - 1) // 2]


def bin_medians(
    table: Mapping[tuple[str, str], PrevalenceEntry],
    regions: Mapping[str, RegionInfo],
    bin_key: str,
) -> dict[int, dict[str, float]]:
    """Median per-1000 rate per (demographic bin, category).

    ``rucc`` bins use the raw 1..9 codes; income, education and
    foreign-born bins are rank-based deciles of the respective region
    value. Medians use the lower-of-two-middles convention for even-sized
    bins.
    """
    if bin_key not in BIN_KEYS:
        raise ValueError(f"bin_key must be one of {BIN_KEYS}")
    if bin_key == "rucc":
        bin_of = {r: info.rucc for r, info in regions.items()}
    else:
        attr = {
            "income_decile": "income",
            "education_decile": "education",
            "foreign_born_decile": "foreign_born_share",
        }[bin_key]
        bin_of = decile_assign({r: getattr(info, attr) for r, info in regions.items()})
    categories = sorted({cat for _, cat in table})
    out: dict[int, dict[str, float]] = {}
    for bucket in sorted(set(bin_of.values())):
        members = [r for r in regions if bin_of[r] == bucket]
        out[bucket] = {
            cat: _lower_median([table[(r, cat)].per_1000 for r in members])
            for cat in categories
        }
    return out


class LogPearsonResult(NamedTuple):
    r: float
    n_pairs: int
    n_dropped: int


def log_pearson(
    x: Mapping[str, float], y: Mapping[str, float]
) -> LogPearsonResult:
    """Pearson correlation of log counts over regions present in both maps.

    Pairs where either value is <= 0 are dropped (log undefined); the drop
    count is reported so data loss stays visible.

    Raises:
        ValueError: fewer than 2 retained pairs, or zero variance on
            either side.
    """
    common = sorted(set(x) & set(y))
    kept = [r for r in common if x[r] > 0 and y[r] > 0]
    dropped = len(common) - len(kept)
    if len(kept) < 2:
        raise ValueError(f"log_pearson needs >= 2 positive pairs, got {len(kept)}")
    lx = np.log([x[r] for r in kept])
    ly = np.log([y[r] for r in kept])
    dx = lx - lx.mean()
    dy = ly - ly.mean()
    sxx = float((dx * dx).sum())
    syy = float((dy * dy).sum())
    if sxx == 0.0 or syy == 0.0:
        raise ValueError("log_pearson: zero variance after log transform")
    r = float((dx * dy).sum() / math.sqrt(sxx * syy))
    return LogPearsonResult(min(1.0, max(-1.0, r)), len(kept), dropped)


# ---------------------------------------------------------------------------
# CSV interfaces


def load_places_csv(path: str) -> list[PlaceRecord]:
    """Columns: page_id, region_id, categories (semicolon-joined)."""

    def record(page_id: str, region_id: str, categories: str) -> PlaceRecord:
        cats = tuple(sorted({c.strip() for c in categories.split(";") if c.strip()}))
        if not cats:
            raise ValueError(f"record {page_id!r} rejected: empty category set")
        return PlaceRecord(page_id, region_id, cats)

    return read_csv(path, ["page_id", "region_id", "categories"], record)[1]


def load_regions_csv(path: str) -> dict[str, RegionInfo]:
    """Columns: region_id, population, rucc, income, education, foreign_born_share."""

    def region(region_id, population, rucc, income, education, share):
        return region_id, RegionInfo(
            population=number(population, int),
            rucc=number(rucc, int),
            income=number(income),
            education=number(education),
            foreign_born_share=number(share),
        )

    columns = ["region_id", "population", "rucc", "income", "education", "foreign_born_share"]
    return dict(read_csv(path, columns, region)[1])


def load_external_counts_csv(path: str) -> dict[str, dict[str, float]]:
    """Columns: region_id, category, count. Returns category -> region -> count."""
    out: dict[str, dict[str, float]] = {}
    _, rows = read_csv(path, ["region_id", "category", "count"],
                       lambda region_id, category, count: (region_id, category, number(count)))
    for region_id, category, count in rows:
        out.setdefault(category, {})[region_id] = count
    return out


def write_prevalence_csv(
    path: str, table: Mapping[tuple[str, str], PrevalenceEntry]
) -> None:
    write_csv(path, ["region_id", "category", "weighted_count", "per_1000", "decile"], (
        [region, cat, repr(e.weighted_count), repr(e.per_1000), e.decile]
        for (region, cat), e in sorted(table.items())
    ))


def write_bin_medians_csv(
    path: str, medians_by_key: Mapping[str, Mapping[int, Mapping[str, float]]]
) -> None:
    write_csv(path, ["bin_key", "bin", "category", "median_per_1000"], (
        [key, bucket, cat, repr(medians[cat])]
        for key in sorted(medians_by_key)
        for bucket, medians in sorted(medians_by_key[key].items())
        for cat in sorted(medians)
    ))


def write_correlation_csv(
    path: str, results: Mapping[str, LogPearsonResult]
) -> None:
    write_csv(path, ["category", "r", "n_pairs", "n_dropped"], (
        [cat, repr(res.r), res.n_pairs, res.n_dropped] for cat, res in sorted(results.items())
    ))
