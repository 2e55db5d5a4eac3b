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
from functools import cache
from typing import Mapping, NamedTuple

import numpy as np

from placenet.tables import number, read_csv, unique, write_csv

BIN_KEYS = ("rucc", "income_decile", "education_decile", "foreign_born_decile")

Tally = dict[tuple[str, tuple[str, ...]], int]  # pages per (region, categories)


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


class PrevalenceEntry(NamedTuple):
    weighted_count: float
    per_1000: float
    decile: int


def fractional_counts(pages: Tally) -> dict[tuple[str, str], Fraction]:
    """Weighted page counts per (region, category), in first-seen order,
    from a page tally whose keys hold non-empty sets of distinct categories.

    A page with c categories adds 1/c to each of them, so its total
    contribution is exactly 1; counts are exact rationals so the overall
    mass equals the number of pages with no rounding. The sums are taken
    in integers: with L the lcm of every category count, n pages of c
    categories add n * L/c to the numerator of each of their cells, whose
    count is that numerator over L.
    """
    lcm = math.lcm(*{len(cats) for _, cats in pages})
    numerators: dict[tuple[str, str], int] = {}
    for (region, cats), n in pages.items():
        share = n * (lcm // len(cats))
        for cat in cats:
            key = (region, cat)
            numerators[key] = numerators.get(key, 0) + share
    return {key: Fraction(num, lcm) for key, num in numerators.items()}


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
        ValueError: naming the region id, if a counted region is missing
            from the region table.
    """
    for region, _ in counts:
        if region not in regions:
            raise ValueError(f"region {region!r} missing from region table")
    categories = sorted({cat for _, cat in counts})
    populations = [(region, info.population) for region, info in regions.items()]
    table: dict[tuple[str, str], PrevalenceEntry] = {}
    for cat in categories:
        cells = [(region, population, *counts.get((region, cat), 0).as_integer_ratio())
                 for region, population in populations]
        # Int true division is correctly rounded, so each float equals
        # float() of the exact Fraction, without building it.
        rates = {region: 1000 * num / (den * population)
                 for region, population, num, den in cells}
        deciles = decile_assign(rates)
        for region, _, num, den in cells:
            table[(region, cat)] = PrevalenceEntry(num / den, rates[region], deciles[region])
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


def load_places_csv(path: str, regions: Mapping[str, RegionInfo], regions_path: str) -> Tally:
    """Page tally of a table of columns page_id (unique), region_id (one of
    ``regions``, read from ``regions_path``) and categories (labels joined
    by semicolons, blanks stripped; each distinct cell is parsed once)."""
    seen: set[str] = set()
    tally: Tally = {}
    labels = cache(lambda cell: tuple(sorted(set(filter(None, map(str.strip, cell.split(";")))))))

    def row(page_id: str, region_id: str, cell: str) -> None:
        key = region_id, labels(cell)
        if not key[1]:
            raise ValueError(f"record {page_id!r} rejected: empty category set")
        unique(seen, page_id, "page_id")
        if region_id not in regions:
            raise ValueError(f"page {page_id!r} has region {region_id!r}, "
                             f"which {regions_path} does not list")
        tally[key] = tally.get(key, 0) + 1

    read_csv(path, ["page_id", "region_id", "categories"], row)
    return tally


def load_regions_csv(path: str) -> dict[str, RegionInfo]:
    """Columns: region_id, population, rucc, income, education, foreign_born_share."""
    seen: set[str] = set()

    def region(region_id, population, rucc, income, education, share):
        return unique(seen, region_id, "region_id"), RegionInfo(
            population=number(population, int),
            rucc=number(rucc, int),
            income=number(income),
            education=number(education),
            foreign_born_share=number(share),
        )

    columns = ["region_id", "population", "rucc", "income", "education", "foreign_born_share"]
    rows = read_csv(path, columns, region)[1]
    if not rows:
        raise ValueError(f"{path}: the region table has no rows")
    return dict(rows)


def load_external_counts_csv(
    path: str, regions: Mapping[str, RegionInfo], regions_path: str
) -> dict[str, dict[str, float]]:
    """Columns: region_id (one of ``regions``, read from ``regions_path``),
    category, count. Returns category -> region -> count."""
    out: dict[str, dict[str, float]] = {}

    def row(region_id: str, category: str, count: str) -> None:
        if region_id not in regions:
            raise ValueError(f"category {category!r} has a count for region {region_id!r}, "
                             f"which {regions_path} does not list")
        by_region = out.setdefault(category, {})
        if region_id in by_region:
            raise ValueError(f"duplicate region_id and category {(region_id, category)!r}")
        by_region[region_id] = number(count)

    read_csv(path, ["region_id", "category", "count"], row)
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
