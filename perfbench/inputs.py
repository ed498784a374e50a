"""Seeded inputs for every workload.

The seed decides everything the program is handed: the order programs
are compiled in each round, the random MLDGs, the initial array contents
and the serve request order.  The same seed gives the same inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, List, Sequence, Tuple

from perfbench.core import GALLERY_KEYS

#: Iteration space of the execute workload's timed kernel calls.
EXEC_SIZE = 128
#: Iteration space of the interpreter oracle runs (fused vs original).
ORACLE_SIZE = 12

#: compile-scale: three graphs per node count, stratified over 16..39 nodes.
#: The seed changes each graph's structure and so its cost; 72 graphs keep
#: the seed-to-seed quartile spread of the typical cost near 2-5% (48 gave
#: up to 12%).
SCALE_NODES = tuple(n for n in range(16, 40) for _ in range(3))


def gallery_sources() -> List[Tuple[str, str]]:
    """``(key, DSL source)`` of the eight gallery programs."""
    from repro.gallery.common import iir2d_code
    from repro.gallery.extended import extended_kernels
    from repro.gallery.paper import figure2_code

    out = [("fig2", figure2_code()), ("iir2d", iir2d_code())]
    out += [(k.key, k.code) for k in extended_kernels()]
    keys = tuple(key for key, _ in out)
    if keys != GALLERY_KEYS:
        raise RuntimeError(f"gallery changed: {keys} != {GALLERY_KEYS}")
    return out


def round_order(seed: int, rnd: int, keys: Sequence[Any]) -> List[Any]:
    """The order one round visits ``keys`` in (a seeded permutation)."""
    order = list(keys)
    random.Random(seed * 1_000_003 + rnd).shuffle(order)
    return order


@dataclass(frozen=True)
class GraphSpec:
    """One random MLDG of the compile-scale workload."""

    nodes: int
    edge_prob: float
    back_edge_prob: float
    graph_seed: int
    index: int

    @property
    def key(self) -> str:
        return f"g{self.index:02d}-n{self.nodes}"


def scale_specs(seed: int) -> List[GraphSpec]:
    """One graph per :data:`SCALE_NODES` entry; sizes and densities are
    stratified, so every seed draws the same spread of sizes and densities
    and the seed only changes each graph's structure."""
    rng = random.Random(seed)
    count = len(SCALE_NODES)
    specs = []
    for i, nodes in enumerate(SCALE_NODES):
        specs.append(
            GraphSpec(
                nodes=nodes,
                edge_prob=round(0.15 + 0.12 * ((i * 7) % count) / max(count - 1, 1), 4),
                back_edge_prob=round(
                    0.03 + 0.05 * ((i * 11) % count) / max(count - 1, 1), 4
                ),
                graph_seed=rng.randrange(2**31),
                index=i,
            )
        )
    return specs


def build_graph(spec: GraphSpec) -> Any:
    from repro.graph.random_gen import random_legal_mldg

    return random_legal_mldg(
        spec.nodes,
        edge_prob=spec.edge_prob,
        back_edge_prob=spec.back_edge_prob,
        self_loop_prob=0.05,
        seed=spec.graph_seed,
    )


def array_seed(seed: int, key: str) -> int:
    """Initial-data seed for one program's array store."""
    return random.Random(f"{seed}:{key}").randrange(2**31)
