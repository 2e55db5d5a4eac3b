"""Deterministic synthetic graph generators.

Archetypes mirror the structural motifs seen in follower networks: uniform
random baselines, a densely-knit core with loose periphery ("regulars"),
scatters of independent dyads/triads (small groups of existing friends),
and several dense cores knit by sparse bridges. Node-id prefixes encode
block membership so tests can assert ground truth without side channels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from placenet.graph import Graph
from placenet.seeding import derive_rng


def _check_prob(name: str, p: float) -> float:
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"{name} must be a probability in [0, 1], got {p}")
    return p


def _check_count(name: str, n: int) -> int:
    n = int(n)
    if n < 0:
        raise ValueError(f"{name} must be >= 0, got {n}")
    return n


def _ids(prefix: str, n: int) -> list[str]:
    width = max(1, len(str(max(n - 1, 0))))
    return [f"{prefix}{i:0{width}d}" for i in range(n)]


def _sample(left: list[str], right: list[str], pairs, p: float, rng) -> list[tuple[str, str]]:
    """Keep each candidate ``(left[i], right[j])`` of the index arrays
    ``pairs = (i, j)`` with probability p, one draw per candidate in order."""
    i, j = pairs
    hit = rng.random(len(i)) < p
    return [(left[a], right[b]) for a, b in zip(i[hit].tolist(), j[hit].tolist())]


def _across(n_a: int, n_b: int):
    """Every index pair (i, j) of two blocks in row-major order."""
    return np.indices((n_a, n_b)).reshape(2, -1)


def gen_er(n: int, p: float, seed: int = 0) -> Graph:
    """Erdos-Renyi G(n, p); isolated nodes are kept."""
    n = _check_count("n", n)
    p = _check_prob("p", p)
    rng = derive_rng(seed, 0xE6)
    ids = _ids("v", n)
    return Graph(_sample(ids, ids, np.triu_indices(n, 1), p, rng), nodes=ids)


def gen_core_periphery(
    n_core: int,
    n_periphery: int,
    p_cc: float,
    p_cp: float,
    p_pp: float,
    seed: int = 0,
) -> Graph:
    """Two-block model: core ids prefixed "c", periphery ids prefixed "p".

    Edge probabilities apply within the core (p_cc), across blocks (p_cp)
    and within the periphery (p_pp). Ordering p_cc >= p_cp >= p_pp is the
    intended regime but is not enforced.
    """
    n_core = _check_count("n_core", n_core)
    n_periphery = _check_count("n_periphery", n_periphery)
    p_cc = _check_prob("p_cc", p_cc)
    p_cp = _check_prob("p_cp", p_cp)
    p_pp = _check_prob("p_pp", p_pp)
    rng = derive_rng(seed, 0xC0)
    core = _ids("c", n_core)
    peri = _ids("p", n_periphery)
    edges = _sample(core, core, np.triu_indices(n_core, 1), p_cc, rng)
    edges += _sample(core, peri, _across(n_core, n_periphery), p_cp, rng)
    edges += _sample(peri, peri, np.triu_indices(n_periphery, 1), p_pp, rng)
    return Graph(edges, nodes=core + peri)


def gen_dyad_triad_scatter(
    n_components: int, dyad_fraction: float, seed: int = 0
) -> Graph:
    """Disjoint components, each a dyad with probability dyad_fraction, else a triangle."""
    n_components = _check_count("n_components", n_components)
    dyad_fraction = _check_prob("dyad_fraction", dyad_fraction)
    rng = derive_rng(seed, 0xD7)
    width = max(1, len(str(max(n_components - 1, 0))))
    edges: list[tuple[str, str]] = []
    draws = rng.random(n_components)
    for ci in range(n_components):
        a, b, c = (f"g{ci:0{width}d}{tag}" for tag in "abc")
        if draws[ci] < dyad_fraction:
            edges.append((a, b))
        else:
            edges += [(a, b), (b, c), (a, c)]
    return Graph(edges)


def gen_multi_core_community(
    n_cores: int, core_size: int, p_in: float, p_out: float, seed: int = 0
) -> Graph:
    """Several dense blocks ("k<i>...") joined by sparse inter-block edges."""
    n_cores = _check_count("n_cores", n_cores)
    core_size = _check_count("core_size", core_size)
    p_in = _check_prob("p_in", p_in)
    p_out = _check_prob("p_out", p_out)
    rng = derive_rng(seed, 0x3C)
    blocks = [_ids(f"k{b}n", core_size) for b in range(n_cores)]
    edges: list[tuple[str, str]] = []
    for block in blocks:
        edges += _sample(block, block, np.triu_indices(core_size, 1), p_in, rng)
    for i in range(n_cores):
        for j in range(i + 1, n_cores):
            edges += _sample(blocks[i], blocks[j], _across(core_size, core_size), p_out, rng)
    nodes = [u for block in blocks for u in block]
    return Graph(edges, nodes=nodes)


_KIND_PARAMS: dict[str, tuple[tuple[str, type], ...]] = {
    "erdos_renyi": (("n", int), ("p", float)),
    "core_periphery": (
        ("n_core", int),
        ("n_periphery", int),
        ("p_cc", float),
        ("p_cp", float),
        ("p_pp", float),
    ),
    "dyad_triad_scatter": (("n_components", int), ("dyad_fraction", float)),
    "multi_core_community": (
        ("n_cores", int),
        ("core_size", int),
        ("p_in", float),
        ("p_out", float),
    ),
}

_KIND_FUNCS = {
    "erdos_renyi": gen_er,
    "core_periphery": gen_core_periphery,
    "dyad_triad_scatter": gen_dyad_triad_scatter,
    "multi_core_community": gen_multi_core_community,
}


@dataclass(frozen=True)
class ArchetypeSpec:
    """A generator kind plus its numeric parameters and seed."""

    kind: str
    params: tuple[tuple[str, float | int], ...]
    seed: int

    @classmethod
    def from_items(cls, items: Mapping[str, str], seed: int) -> "ArchetypeSpec":
        """Build from key=value strings (one plain-text config section).

        Expected keys: ``kind`` plus the kind's parameters; unknown keys
        raise so typos cannot silently change a run.
        """
        if "kind" not in items:
            raise ValueError("archetype section is missing 'kind'")
        kind = items["kind"]
        if kind not in _KIND_PARAMS:
            raise ValueError(
                f"unknown archetype kind {kind!r}; expected one of "
                f"{sorted(_KIND_PARAMS)}"
            )
        wanted = _KIND_PARAMS[kind]
        params: list[tuple[str, float | int]] = []
        for name, typ in wanted:
            if name not in items:
                raise ValueError(f"archetype {kind!r} is missing parameter {name!r}")
            try:
                params.append((name, typ(items[name])))
            except ValueError:
                raise ValueError(
                    f"archetype {kind!r}: parameter {name!r} must be {typ.__name__}"
                )
        known = {"kind"} | {name for name, _ in wanted}
        extras = set(items) - known
        if extras:
            raise ValueError(f"archetype {kind!r}: unknown parameters {sorted(extras)}")
        return cls(kind=kind, params=tuple(params), seed=seed)

    def build(self) -> Graph:
        kwargs = dict(self.params)
        return _KIND_FUNCS[self.kind](seed=self.seed, **kwargs)
