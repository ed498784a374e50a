"""Invariant verification for retimings.

The paper's correctness arguments rest on three checkable facts; this module
makes each one a predicate so tests, the fusion driver and the CLI can verify
every produced retiming rather than trust the algorithm:

1. **cycle-weight invariance** (Section 2.3): ``delta_Lr(c) == delta_L(c)``
   for every cycle ``c``;
2. **fusion legality** (Theorem 3.1): every retimed edge has
   ``delta_Lr(e) >= (0, ..., 0)``;
3. **DOALL-ness after fusion** (Property 4.1): the fused innermost loop is
   DOALL iff no retimed dependence vector has the form ``(0, k)``, ``k != 0``.

All three are decided exactly, edge by edge, in O(E * n); no cycle is
enumerated.  Fact 1 is checked in its per-edge form: the retimed graph has
the original's nodes and edges, and each edge carries exactly
``{d + r(u) - r(v) : d in D_L(u, v)}``.  Summed around any cycle the shifts
telescope away, so this implies every cycle weight is unchanged.
:func:`verify_retiming` builds the retimed graph once, runs all three
checks on it and returns it, so a caller keeping that graph holds exactly
the certified edges.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.graph.mldg import MLDG
from repro.retiming.retiming import Retiming
from repro.vectors import lex_nonnegative

__all__ = [
    "cycle_weights_preserved",
    "edges_all_nonnegative",
    "is_doall_after_fusion",
    "RetimingVerification",
    "verify_retiming",
]


def cycle_weights_preserved(g: MLDG, r: Retiming, gr: MLDG) -> bool:
    """Exact check that ``gr`` is ``g`` retimed by ``r`` (Section 2.3).

    True iff ``gr`` has ``g``'s dimension, node sequence and edge keys, and
    every edge ``u -> v`` carries exactly ``{d + r(u) - r(v) : d in
    D_L(u, v)}``.  By telescoping this implies ``delta_Lr(c) == delta_L(c)``
    for every cycle ``c``.
    """
    if gr.dim != g.dim or gr.nodes != g.nodes or gr.num_edges != g.num_edges:
        return False
    # equal edge counts plus a non-empty match for every edge of g makes
    # the two key sets identical
    for e in g.edges():
        shift = r[e.src] - r[e.dst]
        if gr.D(e.src, e.dst) != frozenset(d + shift for d in e.vectors):
            return False
    return True


def edges_all_nonnegative(g: MLDG) -> bool:
    """Theorem 3.1's hypothesis on an (already retimed) graph."""
    return all(lex_nonnegative(e.delta) for e in g.edges())


def is_doall_after_fusion(g: MLDG) -> bool:
    """Property 4.1 on an (already retimed) graph.

    The fused innermost loop is DOALL iff no dependence vector ``d`` has
    ``d[0] == 0`` with some non-zero later coordinate -- equivalently, every
    vector either is outermost-loop-carried or is exactly zero.
    """
    for d in g.all_vectors():
        if d[0] == 0 and not d.is_zero():
            return False
    return True


@dataclass
class RetimingVerification:
    """Full verification outcome from :func:`verify_retiming`.

    ``retimed`` is the retimed graph all three checks ran on.
    """

    cycles_preserved: bool
    fusion_legal: bool
    doall: bool
    retimed: MLDG
    problems: List[str] = field(default_factory=list)

    @property
    def ok_for_legal_fusion(self) -> bool:
        return self.cycles_preserved and self.fusion_legal

    @property
    def ok_for_parallel_fusion(self) -> bool:
        return self.ok_for_legal_fusion and self.doall


def verify_retiming(
    g: MLDG, r: Retiming, *, cycle_limit: int | None = None
) -> RetimingVerification:
    """Run all three invariant checks and collect readable diagnostics.

    The retimed graph is built once and returned as
    :attr:`RetimingVerification.retimed`.  ``cycle_limit`` is accepted and
    ignored: the certificate is exact and enumerates no cycles, so there
    is nothing to cap.
    """
    gr = r.apply(g)
    problems: List[str] = []

    cycles_ok = cycle_weights_preserved(g, r, gr)
    if not cycles_ok:
        problems.append("cycle weights changed under retiming")

    edges = list(gr.edges())
    legal = True
    for e in edges:
        if not lex_nonnegative(e.delta):
            legal = False
            problems.append(f"retimed edge {e.src}->{e.dst} has delta {e.delta} < 0")

    doall = True
    for e in edges:
        for d in e.vectors:
            if d[0] == 0 and not d.is_zero():
                doall = False
                problems.append(
                    f"retimed vector {d} on {e.src}->{e.dst} serialises the "
                    "fused innermost loop"
                )

    return RetimingVerification(
        cycles_preserved=cycles_ok, fusion_legal=legal, doall=doall, retimed=gr,
        problems=problems,
    )
