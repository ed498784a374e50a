"""Legality predicates for MLDGs and for loop fusion.

Three related notions, carefully separated because the paper's own examples
distinguish them:

**Legal MLDG.**  Every dependence cycle has weight lexicographically
``>= (0,...,0)`` -- exactly the feasibility condition of the LLOFRA
difference-constraint system (Theorem 2.3), decided in polynomial time by
one Bellman-Ford run.  This is the notion the paper's algorithms actually
require, and the one its own examples satisfy.

**Deadlock freedom.**  The strictly stronger ``> (0,...,0)`` bound of
Theorem 4.4: a cycle of weight *exactly* zero means a chain of statement
instances that each require the other to execute first, so no schedule at
all exists.  Notably, the paper's own Figure 14 contains such a cycle
(``B -> C -> D -> E -> B`` sums to ``(0,0)``) and is nonetheless used as a
legal input to Algorithm 5 -- the paper's per-cycle reasoning (Lemma 2.1's
proof) only asks each cycle to *contain* an outermost-carried dependence
vector, which Figure 14's ``E -> B`` edge provides via its non-minimal
vector ``(1,1)``.  We therefore keep deadlock freedom out of
:func:`check_legal` (so the paper's examples all pass) and expose it as
:func:`is_deadlock_free`; code generation refuses to emit a fused body for
deadlocked graphs.  Deciding it is polynomial: a zero-weight cycle forces
every one of its edges to ``(0,...,0)`` after the LLOFRA retiming, so an
acyclicity check on the zero-weight retimed subgraph suffices.

**Sequence executability.**  The *stronger* property that the original
loop-sequence program (Figure 1) runs correctly as written: every dependence
vector has a non-negative first coordinate, and same-outer-iteration
dependencies flow strictly forward through the textual loop order.  Graphs
extracted from real programs always satisfy this; the paper's Figure 14 does
*not* (its edge ``D -> C`` carries ``(0,-2)``), yet the paper treats it as a
legal 2LDG -- evidence that "legal" means schedulable, not
sequence-executable.

**Legal fusion** (Theorem 3.1): fusing the loop bodies preserves all
dependencies iff every edge satisfies :math:`\\delta_L(e) \\ge (0,\\ldots,0)`
lexicographically (with zero-weight edges ordered topologically inside the
fused body; always possible for a legal MLDG).

Lemma 2.1 note
--------------
Lemma 2.1 states every cycle of a legal 2LDG has weight ``>= (1, -1)``.
Figure 14's cycle ``C -> D -> C`` has weight ``(0, 1) < (1, -1)``, so the
lemma as stated is narrower than the paper's own usage; the load-bearing
bound is strict positivity.  :func:`lemma_2_1_holds` decides the literal
``(1,-1)`` bound exactly for completeness, with a polynomial
minimum-cycle-weight pass rather than cycle enumeration.

Sign-convention note
--------------------
The paper's Section 3.1 prose lists the per-vector cases with the second
coordinate's inequality direction inverted relative to Theorem 3.1, the
worked examples, and Figures 4/8 (which explicitly call ``(0,-2)`` and
``(0,-3)`` fusion-preventing).  We follow Theorem 3.1 and the examples: a
vector ``d`` with ``d[0] == 0`` is *fusion-preventing* exactly when its
remaining coordinates are lexicographically negative (the consumer iteration
of the fused loop would precede the producer iteration).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Mapping, Optional, Tuple

import networkx as nx

from repro.constraints import InfeasibleSystemError, VectorConstraintSystem
from repro.graph.edges import DependenceEdge
from repro.graph.mldg import MLDG
from repro.resilience.budget import Budget
from repro.vectors import IVec, lex_nonnegative

__all__ = [
    "VectorClass",
    "classify_vector",
    "LegalityFinding",
    "LegalityReport",
    "LLOFRAOutcome",
    "llofra_system",
    "llofra_outcome",
    "check_legal",
    "is_legal",
    "is_deadlock_free",
    "zero_weight_cycle",
    "is_sequence_executable",
    "is_fusion_legal",
    "fusion_preventing_edges",
    "fusion_preventing_vectors",
    "lemma_2_1_holds",
]


class VectorClass:
    """Names for the Section 3.1 case analysis of one dependence vector."""

    OUTER_CARRIED = "outer-carried"  # d[0] > 0: always fusion-safe
    FORWARD = "forward-or-independent"  # d[0] == 0, rest >= 0: fusion-safe
    FUSION_PREVENTING = "fusion-preventing"  # d[0] == 0, rest < 0
    ILLEGAL = "illegal"  # d[0] < 0: backwards in the outermost loop


def classify_vector(d: IVec) -> str:
    """Classify one loop dependence vector per Section 3.1 (see module note)."""
    if d[0] < 0:
        return VectorClass.ILLEGAL
    if d[0] > 0:
        return VectorClass.OUTER_CARRIED
    rest = tuple(d)[1:]
    if rest >= tuple([0] * len(rest)):
        return VectorClass.FORWARD
    return VectorClass.FUSION_PREVENTING


@dataclass(frozen=True)
class LegalityFinding:
    """One structured legality violation.

    ``kind`` names the violated condition; ``cycle`` carries the
    negative-cycle certificate (node names) when the violation is a cycle,
    ``edge``/``vector`` the offending edge and dependence vector when it is
    edge-local.  ``message`` is the human-readable form (identical to the
    string in :attr:`LegalityReport.violations`).
    """

    kind: str  # "negative-cycle" | "negative-outer-distance"
    #        | "doall-self-dependence" | "backward-same-iteration"
    message: str
    cycle: Optional[Tuple[str, ...]] = None
    edge: Optional[Tuple[str, str]] = None
    vector: Optional[IVec] = None

    def __str__(self) -> str:
        return self.message


@dataclass
class LegalityReport:
    """Outcome of a legality check with human-readable violations.

    ``violations`` is the legacy string form; ``findings`` carries the same
    violations as structured :class:`LegalityFinding` records, in the same
    order.
    """

    legal: bool
    violations: List[str] = field(default_factory=list)
    findings: List[LegalityFinding] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.legal


@dataclass(frozen=True)
class LLOFRAOutcome:
    """The decided LLOFRA system of one graph (Theorem 2.3).

    Exactly one field is set: ``solution`` (node -> retiming vector, the
    shortest-path distances from ``v_0``; shared, so never mutate it) when
    the system is feasible, ``cycle`` (the negative-cycle certificate) when
    it is not.
    """

    solution: Optional[Mapping[str, IVec]] = None
    cycle: Optional[Tuple[str, ...]] = None


def llofra_system(g: MLDG) -> VectorConstraintSystem:
    """The LLOFRA difference-constraint system ``r(v) - r(u) <= delta_L(e)``."""
    system = VectorConstraintSystem(g.nodes, dim=g.dim)
    for e in g.edges():
        system.add_leq(e.src, e.dst, e.delta)
    return system


def llofra_outcome(g: MLDG, *, budget: Optional[Budget] = None) -> LLOFRAOutcome:
    """Decide the LLOFRA system of ``g`` with one exact Bellman-Ford solve.

    The outcome is kept on the graph and every later call returns it
    until a mutator changes the graph.  The graph is read and written
    only when :func:`repro.perf.memo.memoization_applicable` holds for
    ``budget``: a work-limiting budget, an active fault injector or
    ``REPRO_FUSE_MEMO=0`` solves every time.  A solve that runs out of
    ``budget`` raises :class:`~repro.resilience.budget.BudgetExceededError`
    and leaves nothing behind.
    """
    from repro.perf.memo import memoization_applicable

    keep = memoization_applicable(budget)
    if keep and g._llofra is not None:
        return g._llofra
    try:
        solution = llofra_system(g).solve(budget=budget)
    except InfeasibleSystemError as exc:
        outcome = LLOFRAOutcome(cycle=tuple(map(str, exc.cycle)))
    else:
        outcome = LLOFRAOutcome(solution=solution)
    if keep:
        g._llofra = outcome
    return outcome


def check_legal(g: MLDG) -> LegalityReport:
    """Legality: every dependence cycle has weight ``>= (0,...,0)``.

    Decided in polynomial time, without cycle enumeration: the condition is
    exactly the feasibility of the LLOFRA difference-constraint system
    (Theorem 2.3), read from :func:`llofra_outcome`.  On failure the report
    carries the negative-cycle certificate.
    """
    cycle = llofra_outcome(g).cycle
    findings: List[LegalityFinding] = []
    if cycle is not None:
        findings.append(
            LegalityFinding(
                kind="negative-cycle",
                message="dependence cycle with lexicographically negative weight: "
                + " -> ".join(cycle),
                cycle=cycle,
            )
        )
    return LegalityReport(
        legal=not findings,
        violations=[f.message for f in findings],
        findings=findings,
    )


def is_legal(g: MLDG) -> bool:
    """Boolean form of :func:`check_legal`."""
    return check_legal(g).legal


def zero_weight_cycle(g: MLDG) -> Optional[List[str]]:
    """A zero-weight dependence cycle if one exists, else ``None``.

    Requires a legal graph (raises ``ValueError`` otherwise).  Zero-weight
    cycles are instance-level deadlocks; see the module docstring for why
    the paper's Figure 14 nonetheless contains one.
    """
    outcome = llofra_outcome(g)
    if outcome.solution is None:
        raise ValueError(
            f"graph is not legal (negative cycle {list(outcome.cycle or ())}); "
            "zero_weight_cycle is only meaningful on legal MLDGs"
        )
    retimed = g.retimed(outcome.solution)
    zero = IVec.zero(g.dim)
    zero_graph = nx.DiGraph()
    zero_graph.add_nodes_from(g.nodes)
    for e in retimed.edges():
        if e.delta == zero:
            zero_graph.add_edge(e.src, e.dst)
    cycle = next(iter(nx.simple_cycles(zero_graph)), None)
    return list(cycle) if cycle is not None else None


def is_deadlock_free(g: MLDG) -> bool:
    """Theorem 4.4's strict hypothesis: every cycle ``> (0,...,0)``."""
    return zero_weight_cycle(g) is None


def is_sequence_executable(g: MLDG) -> LegalityReport:
    """The stronger check: the Figure-1 loop sequence runs correctly as written.

    Requires, for every dependence vector ``d`` on every edge ``u -> v``:

    1. ``d[0] >= 0`` -- no dependence on a future outermost iteration;
    2. if ``d[0] == 0`` then ``u`` strictly precedes ``v`` in program order
       (self-dependencies must be outermost-loop-carried: the innermost
       loops are DOALL).
    """
    findings: List[LegalityFinding] = []
    for e in g.edges():
        for d in e.vectors:
            if d[0] < 0:
                findings.append(
                    LegalityFinding(
                        kind="negative-outer-distance",
                        message=f"{e.src}->{e.dst} vector {d}: negative outermost distance",
                        edge=e.key,
                        vector=d,
                    )
                )
            elif d[0] == 0:
                if e.src == e.dst:
                    findings.append(
                        LegalityFinding(
                            kind="doall-self-dependence",
                            message=f"{e.src}->{e.dst} vector {d}: self-dependence must be "
                            "outermost-loop-carried (DOALL body)",
                            edge=e.key,
                            vector=d,
                        )
                    )
                elif g.program_index(e.src) >= g.program_index(e.dst):
                    findings.append(
                        LegalityFinding(
                            kind="backward-same-iteration",
                            message=f"{e.src}->{e.dst} vector {d}: same-iteration dependence "
                            "flows backwards in program order",
                            edge=e.key,
                            vector=d,
                        )
                    )
    return LegalityReport(
        legal=not findings,
        violations=[f.message for f in findings],
        findings=findings,
    )


def fusion_preventing_vectors(g: MLDG) -> Iterator[Tuple[DependenceEdge, IVec]]:
    """Yield ``(edge, vector)`` pairs whose vector is fusion-preventing."""
    for e in g.edges():
        for d in e.vectors:
            if classify_vector(d) == VectorClass.FUSION_PREVENTING:
                yield e, d


def fusion_preventing_edges(g: MLDG) -> List[DependenceEdge]:
    """Edges carrying at least one fusion-preventing dependence vector."""
    out: List[DependenceEdge] = []
    seen = set()
    for e, _d in fusion_preventing_vectors(g):
        if e.key not in seen:
            seen.add(e.key)
            out.append(e)
    return out


def is_fusion_legal(g: MLDG) -> bool:
    """Theorem 3.1: direct fusion is legal iff every edge has
    :math:`\\delta_L(e) \\ge (0, \\ldots, 0)` lexicographically.

    Because :math:`\\delta_L` is the lexicographic minimum of the edge's
    vector set, this is equivalent to every individual vector being
    non-negative.
    """
    return all(lex_nonnegative(e.delta) for e in g.edges())


def lemma_2_1_holds(g: MLDG) -> bool:
    """Decide Lemma 2.1's literal bound exactly, in O(V^3).

    The lemma claims every cycle of a legal 2LDG has weight
    :math:`\\delta_L(c) \\ge (1, -1)`.  Figures 2 and 8 satisfy it; Figure 14
    does not (see the module docstring) -- only the strictly-positive bound
    actually used by the theorems holds there.

    A Floyd-Warshall pass over :math:`\\delta_L` in lexicographic order (an
    ordered group, so shortest-walk reasoning carries over) computes, for
    every node, the minimum weight of a closed walk of length >= 1 through
    it.  Without a negative cycle that minimum is the minimum simple-cycle
    weight, because a closed walk splits into simple cycles of weight
    ``>= 0``.  With a negative cycle the pass finds a negative closed walk
    through one of its nodes; both that walk and the cycle lie below the
    bound, so the answer is ``False`` either way.
    """
    bound = tuple([1] + [-1] * (g.dim - 1))
    index = {name: i for i, name in enumerate(g.nodes)}
    n = len(index)
    dist: List[List[Optional[Tuple[int, ...]]]] = [[None] * n for _ in range(n)]
    for e in g.edges():
        dist[index[e.src]][index[e.dst]] = tuple(e.delta)
    for k in range(n):
        row_k = dist[k]
        for i in range(n):
            d_ik = dist[i][k]
            if d_ik is None:
                continue
            row_i = dist[i]
            for j in range(n):
                d_kj = row_k[j]
                if d_kj is None:
                    continue
                w = tuple(a + b for a, b in zip(d_ik, d_kj))
                d_ij = row_i[j]
                if d_ij is None or w < d_ij:
                    row_i[j] = w
    return all(dist[i][i] is None or dist[i][i] >= bound for i in range(n))
