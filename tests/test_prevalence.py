"""Fractional counting, rates, deciles, bin medians and log correlation."""

import csv
import io
import math
import random
import re
from fractions import Fraction

import pytest

import brute
from brute import Page
from placenet.prevalence import (
    RegionInfo,
    bin_medians,
    decile_assign,
    fractional_counts,
    load_external_counts_csv,
    load_places_csv,
    load_regions_csv,
    log_pearson,
    per_capita,
)
from placenet.seeding import derive_rng


def region(population=1000, rucc=1, income=50000.0, education=0.3, foreign=0.1):
    return RegionInfo(population, rucc, income, education, foreign)


def listed(*region_ids):
    return {r: region() for r in region_ids}


def counts_of(records):
    """``fractional_counts`` of the page tally of ``records``."""
    return fractional_counts(brute.page_tally_reference(records))


# ---------------------------------------------------------------------------
# fractional counts


def test_two_categories_split_half_each():
    counts = counts_of([Page("p", "r", ("bar", "cafe"))])
    assert counts[("r", "bar")] == Fraction(1, 2)
    assert counts[("r", "cafe")] == Fraction(1, 2)
    assert float(counts[("r", "bar")]) == 0.5


def test_single_category_full_weight():
    counts = counts_of([Page("p", "r", ("park",))])
    assert counts[("r", "park")] == 1


def test_mass_conservation_exact():
    rng = derive_rng(71)
    cats = ["a", "b", "c", "d", "e"]
    records = []
    for i in range(3000):
        k = int(rng.integers(1, 4))
        picks = sorted(rng.choice(len(cats), size=k, replace=False))
        records.append(
            Page(f"p{i}", f"r{int(rng.integers(0, 7))}",
                 tuple(cats[j] for j in picks))
        )
    counts = counts_of(records)
    assert sum(counts.values()) == Fraction(len(records))


def test_empty_category_set_rejected_with_id(tmp_path):
    path = tmp_path / "places.csv"
    path.write_text("page_id,region_id,categories\np99,r, ; ;\n")
    with pytest.raises(ValueError, match="p99"):
        load_places_csv(str(path), listed("r"), "regions.csv")


def random_records(seed, n_pages, n_regions, max_categories=12):
    rng = random.Random(seed)
    cats = [f"c{j:02d}" for j in range(15)]
    return [Page(f"p{i}", f"r{rng.randrange(n_regions):03d}",
                 tuple(sorted(rng.sample(cats, rng.randint(1, max_categories)))))
            for i in range(n_pages)]


@pytest.mark.parametrize("seed, n_pages, n_regions, max_categories", [
    (1, 3000, 80, 12), (2, 500, 200, 12), (3, 40, 3, 7), (4, 1, 1, 1),
])
def test_counts_match_per_record_fraction_sums(seed, n_pages, n_regions, max_categories):
    records = random_records(seed, n_pages, n_regions, max_categories)
    counts = counts_of(records)
    reference = brute.fractional_counts_reference(records)
    assert counts == reference
    assert list(counts) == list(reference)  # first-seen order
    assert all(type(v) is Fraction for v in counts.values())


# A comma and a double quote make the writer quote the cell.
MESSY_LABELS = ["bar", "cafe", "pub, inn", "park", 'the "zoo"', "gym", "arts"]


def messy_places(seed, n_pages, n_regions):
    r"""The bytes of a places table and its pages. Each cell holds the page's
    labels padded with blanks, some of them twice, among empty ``;;``
    segments, in random order; rows are quoted minimally or fully, some
    are followed by a blank line, and lines end in ``\r\n`` or ``\n``."""
    rng = random.Random(seed)
    buf = io.StringIO(newline="")
    eol = rng.choice(["\r\n", "\n"])
    csv.writer(buf, lineterminator=eol).writerow(["page_id", "region_id", "categories"])
    pages = []
    for i in range(n_pages):
        labels = rng.sample(MESSY_LABELS, rng.randint(1, 4))
        parts = labels + rng.sample(labels, rng.randint(0, len(labels))) + [""] * rng.randint(0, 2)
        rng.shuffle(parts)
        cell = ";".join(" " * rng.randint(0, 2) + part + " " * rng.randint(0, 2) for part in parts)
        page = Page(f"p{i}", f"r{rng.randrange(n_regions)}", tuple(sorted(set(labels))))
        quoting = rng.choice([csv.QUOTE_MINIMAL, csv.QUOTE_ALL])
        csv.writer(buf, lineterminator=eol, quoting=quoting).writerow([*page[:2], cell])
        buf.write(eol * (rng.random() < 0.1))
        pages.append(page)
    return buf.getvalue().encode(), pages


@pytest.mark.parametrize("seed, n_pages, n_regions", [(1, 3000, 40), (2, 500, 3), (3, 1, 1)])
def test_places_tally_matches_per_page_oracle(tmp_path, seed, n_pages, n_regions):
    text, pages = messy_places(seed, n_pages, n_regions)
    assert b'"' in text or n_pages == 1
    path = tmp_path / "places.csv"
    path.write_bytes(text)
    tally = load_places_csv(str(path), listed(*(f"r{i}" for i in range(n_regions))), "x")
    assert list(tally.items()) == list(brute.page_tally_reference(pages).items())
    counts = fractional_counts(tally)
    assert list(counts.items()) == list(brute.fractional_counts_reference(pages).items())


# ---------------------------------------------------------------------------
# per-capita table


def test_per_capita_arithmetic():
    counts = counts_of(
        [Page(f"p{i}", "r1", ("bar",)) for i in range(5)]
    )
    regions = {"r1": region(population=10_000)}
    table = per_capita(counts, regions)
    assert table[("r1", "bar")].per_1000 == 0.5


def test_per_capita_includes_zero_regions():
    counts = counts_of([Page("p", "r1", ("bar",))])
    regions = {"r1": region(), "r2": region(population=500)}
    table = per_capita(counts, regions)
    assert table[("r2", "bar")].weighted_count == 0.0
    assert table[("r2", "bar")].per_1000 == 0.0


def test_per_capita_one_page_per_thousand():
    counts = counts_of([Page("p", "r", ("bar",))])
    table = per_capita(counts, {"r": region(population=1000)})
    assert table[("r", "bar")].per_1000 == 1.0


def test_per_capita_missing_region_error_names_it():
    counts = counts_of([Page("p", "ghost", ("bar",))])
    with pytest.raises(ValueError, match="ghost"):
        per_capita(counts, {"r": region()})


def random_populations(seed, n_regions):
    rng = random.Random(seed)
    return {f"r{i:03d}": rng.choice([1, 7, 1000, 10**6 + rng.randrange(1000),
                                     999_999_937, 10**9 + rng.randrange(10**6)])
            for i in range(n_regions)}


@pytest.mark.parametrize("kind", ["fraction", "float", "mixed"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_per_capita_matches_exact_reference(seed, kind):
    # 150 regions for pages in 120 of them, so some regions have no pages
    counts = counts_of(random_records(seed, 2000, 120))
    rng = random.Random(seed)
    if kind == "float":
        counts = {key: float(mass) for key, mass in counts.items()}
    elif kind == "mixed":
        counts = {key: rng.choice([mass, float(mass), rng.uniform(0, 50), rng.randrange(9)])
                  for key, mass in counts.items()}
    populations = random_populations(seed, 150)
    regions = {r: region(population=pop) for r, pop in populations.items()}
    table = per_capita(counts, regions)
    got = {key: (repr(e.weighted_count), repr(e.per_1000), e.decile)
           for key, e in table.items()}
    want = {key: (repr(count), repr(rate), decile) for key, (count, rate, decile)
            in brute.per_capita_reference(counts, populations).items()}
    assert got == want


# ---------------------------------------------------------------------------
# deciles


def test_deciles_ten_distinct_regions():
    values = {f"r{i}": float(i) for i in range(10)}
    deciles = decile_assign(values)
    assert [deciles[f"r{i}"] for i in range(10)] == list(range(1, 11))


def test_decile_single_region_is_ten():
    assert decile_assign({"only": 3.0}) == {"only": 10}


def test_decile_ties_resolved_by_region_id():
    values = {"b": 1.0, "a": 1.0, "c": 1.0}
    deciles = decile_assign(values)
    assert deciles["a"] < deciles["b"] < deciles["c"]


def test_decile_monotone_transform_invariance():
    rng = derive_rng(72)
    values = {f"r{i}": float(v) for i, v in enumerate(rng.uniform(0, 10, size=37))}
    base = decile_assign(values)
    warped = decile_assign({r: math.exp(0.5 * v) - 3 for r, v in values.items()})
    assert base == warped


# ---------------------------------------------------------------------------
# bin medians


def test_bin_median_single_region_bins():
    regions = {
        "r1": region(rucc=1),
        "r2": region(rucc=2),
    }
    counts = counts_of([
        Page("p1", "r1", ("bar",)),
        Page("p2", "r2", ("bar",)),
        Page("p3", "r2", ("bar",)),
    ])
    table = per_capita(counts, regions)
    med = bin_medians(table, regions, "rucc")
    assert med[1]["bar"] == 1.0
    assert med[2]["bar"] == 2.0


def test_bin_median_odd_and_even_conventions():
    regions = {f"r{i}": region(rucc=1) for i in range(4)}
    counts = {}
    for i, v in enumerate([1, 2, 3, 4]):
        counts[(f"r{i}", "x")] = Fraction(v)
    table = per_capita(counts, regions)
    med = bin_medians(table, regions, "rucc")
    assert med[1]["x"] == 2.0  # lower of the two middles

    regions3 = {f"s{i}": region(rucc=2) for i in range(3)}
    counts3 = {(f"s{i}", "x"): Fraction(v) for i, v in enumerate([1, 2, 3])}
    med3 = bin_medians(per_capita(counts3, regions3), regions3, "rucc")
    assert med3[2]["x"] == 2.0


def test_bin_medians_demographic_deciles():
    regions = {f"r{i}": region(income=1000.0 * (i + 1)) for i in range(10)}
    counts = {(f"r{i}", "y"): Fraction(i + 1) for i in range(10)}
    table = per_capita(counts, regions)
    med = bin_medians(table, regions, "income_decile")
    assert set(med) == set(range(1, 11))
    assert med[1]["y"] == 1.0
    assert med[10]["y"] == 10.0


def test_bin_medians_permutation_invariance():
    rng = derive_rng(73)
    names = [f"r{i}" for i in range(12)]
    regions = {r: region(rucc=int(rng.integers(1, 10))) for r in names}
    counts = {(r, "z"): Fraction(int(rng.integers(0, 50)), 7) for r in names}
    table = per_capita(counts, regions)
    base = bin_medians(table, regions, "rucc")
    shuffled = dict(reversed(list(regions.items())))
    again = bin_medians(table, shuffled, "rucc")
    assert base == again


def test_bin_key_validation():
    with pytest.raises(ValueError):
        bin_medians({}, {}, "nonsense")


# ---------------------------------------------------------------------------
# log correlation


def test_log_pearson_exact_scaling():
    x = {f"r{i}": float(i + 1) for i in range(20)}
    y = {r: 3.0 * v for r, v in x.items()}
    result = log_pearson(x, y)
    assert result.r == pytest.approx(1.0, abs=1e-12)
    assert result.n_pairs == 20
    assert result.n_dropped == 0


def test_log_pearson_drops_nonpositive_and_reports():
    x = {"a": 1.0, "b": 2.0, "c": 0.0, "d": 4.0}
    y = {"a": 2.0, "b": 4.0, "c": 5.0, "d": -1.0}
    result = log_pearson(x, y)
    assert result.n_pairs == 2
    assert result.n_dropped == 2


def test_log_pearson_synthetic_noise():
    rng = derive_rng(74)
    x = {f"r{i}": float(v) for i, v in enumerate(rng.uniform(1, 500, size=60))}
    y = {r: v * math.exp(float(rng.normal(0, 0.1))) for r, v in x.items()}
    result = log_pearson(x, y)
    assert result.r >= 0.95
    oracle = brute.pearson(
        [math.log(x[r]) for r in sorted(x)], [math.log(y[r]) for r in sorted(y)]
    )
    assert result.r == pytest.approx(oracle, abs=1e-12)


def test_log_pearson_errors():
    with pytest.raises(ValueError):
        log_pearson({"a": 1.0}, {"a": 2.0})
    with pytest.raises(ValueError):
        log_pearson({"a": 2.0, "b": 2.0}, {"a": 3.0, "b": 5.0})


# ---------------------------------------------------------------------------
# validation and loaders


def test_region_info_validation():
    with pytest.raises(ValueError):
        RegionInfo(0, 1, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        RegionInfo(10, 12, 1.0, 1.0, 1.0)


def test_places_csv_loader(tmp_path):
    path = tmp_path / "places.csv"
    path.write_text(
        "page_id,region_id,categories\n"
        "p1,r1,bar;cafe\n"
        "p2,r2,park\n"
    )
    pages = load_places_csv(str(path), listed("r1", "r2"), "regions.csv")
    assert pages == {("r1", ("bar", "cafe")): 1, ("r2", ("park",)): 1}

    bad = tmp_path / "bad.csv"
    bad.write_text("page_id,region_id,categories\npX,r1,;\n")
    with pytest.raises(ValueError, match="pX"):
        load_places_csv(str(bad), listed("r1"), "regions.csv")


def test_regions_csv_loader(tmp_path):
    path = tmp_path / "regions.csv"
    path.write_text(
        "region_id,population,rucc,income,education,foreign_born_share\n"
        "r1,1000,3,50000,0.25,0.08\n"
    )
    regions = load_regions_csv(str(path))
    assert regions["r1"].rucc == 3

    bad = tmp_path / "bad.csv"
    bad.write_text(
        "region_id,population,rucc,income,education,foreign_born_share\n"
        "r1,1000,99,50000,0.25,0.08\n"
    )
    with pytest.raises(ValueError, match="line 2"):
        load_regions_csv(str(bad))


def test_regions_csv_rejects_repeated_region(tmp_path):
    # without the check, the second row would replace the first
    path = tmp_path / "regions.csv"
    path.write_text(
        "region_id,population,rucc,income,education,foreign_born_share\n"
        "r1,100,3,50000,0.25,0.08\n"
        "r1,5,3,50000,0.25,0.08\n"
    )
    with pytest.raises(ValueError, match=re.escape(f"{path}: line 3: duplicate region_id 'r1'")):
        load_regions_csv(str(path))


def test_places_csv_rejects_repeated_page_id(tmp_path):
    # without the check, fractional_counts would give the page a mass of 2
    path = tmp_path / "places.csv"
    path.write_text("page_id,region_id,categories\np1,r1,park\np1,r1,park\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}: line 3: duplicate page_id 'p1'")):
        load_places_csv(str(path), listed("r1"), "regions.csv")


def test_external_count_in_unlisted_region_names_line_region_and_region_table(tmp_path):
    path = tmp_path / "external.csv"
    path.write_text("region_id,category,count\nr1,park,3\n\nZZ,park,100\n")
    with pytest.raises(ValueError, match=re.escape(
            f"{path}: line 4: category 'park' has a count for region 'ZZ', "
            "which regions.csv does not list")):
        load_external_counts_csv(str(path), listed("r1"), "regions.csv")


def test_external_counts_csv_rejects_repeated_region_and_category(tmp_path):
    path = tmp_path / "external.csv"
    path.write_text("region_id,category,count\nr1,park,3\nr2,park,4\nr1,bar,1\nr1,park,5\n")
    with pytest.raises(ValueError, match=re.escape(
            f"{path}: line 5: duplicate region_id and category ('r1', 'park')")):
        load_external_counts_csv(str(path), listed("r1", "r2"), "regions.csv")
