"""Deterministic synthetic graph generators.

Archetypes mirror the structural motifs seen in follower networks: uniform
random baselines, a densely-knit core with loose periphery ("regulars"),
scatters of independent dyads/triads (small groups of existing friends),
and several dense cores knit by sparse bridges. Node-id prefixes encode
block membership so tests can assert ground truth without side channels.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Mapping, get_type_hints

import numpy as np

from placenet.graph import Graph, _from_indices
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


# candidates per Generator.random call; chunked draws equal one draw bit for bit
_CHUNK = 1 << 20


def _block_model(blocks: list[list[str]], pairs, rng) -> Graph:
    """Stochastic block model over the id lists ``blocks``.

    Each ``(a, b, p)`` in ``pairs`` keeps each candidate ``(i, j)`` of blocks
    a and b with probability p, one draw per candidate in row-major order;
    within a block (a == b), row i holds the columns i+1 .. n-1. Draws come
    ``_CHUNK`` at a time and the kept candidates stay index arrays, so
    memory is O(chunk + n + m).
    """
    offsets = np.cumsum([0] + [len(block) for block in blocks])
    us, vs = [np.empty(0, np.intp)], [np.empty(0, np.intp)]
    for a, b, p in pairs:
        left, right, within = blocks[a], blocks[b], a == b
        lengths = np.arange(len(left) - 1, -1, -1) if within else np.full(len(left), len(right))
        starts = np.cumsum(lengths) - lengths
        total = int(lengths.sum())
        for lo in range(0, total, _CHUNK):
            hits = np.flatnonzero(rng.random(min(_CHUNK, total - lo)) < p) + lo
            rows = np.searchsorted(starts, hits, side="right") - 1
            cols = hits - starts[rows] + (rows + 1 if within else 0)
            us.append(rows + offsets[a])
            vs.append(cols + offsets[b])
    ids = [w for block in blocks for w in block]
    return _from_indices(ids, np.concatenate(us), np.concatenate(vs))


def gen_er(n: int, p: float, seed: int = 0) -> Graph:
    """Erdos-Renyi G(n, p); isolated nodes are kept."""
    n = _check_count("n", n)
    p = _check_prob("p", p)
    rng = derive_rng(seed, 0xE6)
    return _block_model([_ids("v", n)], [(0, 0, p)], rng)


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
    blocks = [_ids("c", n_core), _ids("p", n_periphery)]
    return _block_model(blocks, [(0, 0, p_cc), (0, 1, p_cp), (1, 1, p_pp)], rng)


def gen_dyad_triad_scatter(
    n_components: int, dyad_fraction: float, seed: int = 0
) -> Graph:
    """Disjoint components, each a dyad with probability dyad_fraction, else a triangle."""
    n_components = _check_count("n_components", n_components)
    dyad_fraction = _check_prob("dyad_fraction", dyad_fraction)
    rng = derive_rng(seed, 0xD7)
    triad = rng.random(n_components) >= dyad_fraction
    sizes = 2 + triad
    ids = [f"{name}{tag}" for name, size in zip(_ids("g", n_components), sizes.tolist())
           for tag in "abc"[:size]]
    a = np.cumsum(sizes) - sizes  # index of each component's node "a"; "b", "c" follow
    t = a[triad]
    # a-b in every component, b-c and a-c in the triangles
    u = np.concatenate([a, t + 1, t])
    v = np.concatenate([a + 1, t + 2, t + 2])
    return _from_indices(ids, u, v)


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
    pairs = [(b, b, p_in) for b in range(n_cores)]
    pairs += [(i, j, p_out) for i in range(n_cores) for j in range(i + 1, n_cores)]
    return _block_model(blocks, pairs, rng)


_KIND_FUNCS = {
    "erdos_renyi": gen_er,
    "core_periphery": gen_core_periphery,
    "dyad_triad_scatter": gen_dyad_triad_scatter,
    "multi_core_community": gen_multi_core_community,
}

# each generator's parameters but the seed, with their types, in signature order
_KIND_PARAMS = {
    kind: {name: typ for name, typ in get_type_hints(func).items()
           if name not in ("seed", "return")}
    for kind, func in _KIND_FUNCS.items()
}


def archetype(items: Mapping[str, str]) -> Callable[..., Graph]:
    """The generator of one plain-text config section, its parameters bound.

    Expected keys: ``kind`` plus the kind's parameters, each a count
    (``int``, >= 0) or a probability (``float``, in [0, 1]); unknown keys
    raise so typos cannot silently change a run. Call the result with
    ``seed=`` to build a graph.
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
    params: dict[str, float | int] = {}
    for name, typ in wanted.items():
        if name not in items:
            raise ValueError(f"archetype {kind!r} is missing parameter {name!r}")
        try:
            value = typ(items[name])
        except ValueError:
            raise ValueError(
                f"archetype {kind!r}: parameter {name!r} must be {typ.__name__}"
            )
        params[name] = (_check_count if typ is int else _check_prob)(name, value)
    extras = set(items) - {"kind", *wanted}
    if extras:
        raise ValueError(f"archetype {kind!r}: unknown parameters {sorted(extras)}")
    return partial(_KIND_FUNCS[kind], **params)
