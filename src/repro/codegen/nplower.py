"""Whole-array numpy lowering of fused programs.

The third execution backend: where :mod:`repro.codegen.pycompile` still
runs Python bytecode per fused *row*, this module lowers the fused body to
a staged sequence of whole-array numpy operations -- the fused DOALL loop
is exactly a vectorizable parfor, and the schedules the paper proves tell
us precisely how far each statement can be vectorized.

The lowering plans over the *statement-level* dependence graph of the
fused body (finer than the loop-level MLDG: one node per statement, one
edge per read of a written array, labelled with the fused-coordinate
dependence vector ``delta = (w + r(producer)) - (r_off + r(consumer))``).
Legality of the fusion (Theorem 3.1 plus the model validator's
well-ordered-reads rule) guarantees every ``delta >= (0, 0)``
lexicographically, which makes any flow-respecting stage order
bit-identical to the serial interpreter: arrays are single-assignment, so
a read either sees the unique written value (producer ordered first) or
an untouched halo/initial cell -- the same value the interpreter saw.

Stages are the strongly connected components of that graph, scheduled in
condensation topological order (ties broken by fused body order).  Each
stage lowers to the strongest form its internal dependences admit:

* **whole-array** -- a singleton SCC with no self-dependence becomes one
  numpy expression over the full original iteration rectangle.  Operating
  in *original* coordinates makes boundary peeling unnecessary: the
  retimed prologue/epilogue rows are exactly the rows where other nodes
  are out of bounds, and those belong to other stages.  Its rows are
  independent, so the expression is emitted as a row-band body that a
  band runner may split -- the ``parallel`` backend's chunked DOALL axis.
* **slab** -- a recurrence SCC whose cross-row slack allows it becomes a
  blocked row sweep: per step, every member statement executes ``U``
  whole rows as one 2-D slice operation.  A statement-level *skew*
  (retiming of rows within the group -- the paper's own trick, one level
  down) tightens forward edges to zero so the backward edges keep all the
  slack, maximizing the slab height ``U`` = min over backward/self edges
  of ``delta_i + k(producer) - k(consumer)``.
* **wavefront** -- a non-DOALL SCC with a Lemma-4.3 schedule
  ``s = (s0, 1)`` becomes per-wavefront array ops: column slices when
  ``s0 == 0``, gather/compute/scatter over ``np.arange`` index vectors
  otherwise.  Every internal edge is checked ``s . delta >= 1`` before
  the form is used -- the schedule is re-verified, not trusted.
* **scalar** -- anything else (e.g. serial legal-only fusions with
  same-row backward dependences and no usable schedule) falls back to the
  compiled backend's scalar loop, restricted to the group's statements.
  The backend is therefore *total*: every legal fused program lowers.

Lowering decisions are observable: ``exec.numpy.lowered`` counts
statements emitted as array ops, ``exec.numpy.fallback`` counts scalar
statements, and wavefront loops open per-wavefront ``detail`` spans.
Generated kernels share the pycompile source-keyed cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import networkx as nx

from repro import obs
from repro.codegen.fused import FusedProgram
from repro.codegen.pycompile import (
    CompiledKernel,
    _bind_arrays,
    _Emitter,
    _expr_src,
    _finalize,
    _off,
    _origins_of,
    _scalar_stmt,
    _var,
)
from repro.codegen.interp import ArrayStore
from repro.loopir.ast_nodes import ArrayRef, Assignment
from repro.vectors import IVec

__all__ = [
    "FlatStatement",
    "LoweredStage",
    "LoweringPlan",
    "plan_lowering",
    "compile_numpy",
    "run_inline",
]


@dataclass(frozen=True)
class FlatStatement:
    """One statement of the fused body, flattened with its node context."""

    index: int  # position in the flattened fused body
    label: str  # fused node (original loop) label
    shift: IVec  # r(label): the node's retiming shift
    stmt: Assignment  # original (unshifted) statement


@dataclass(frozen=True)
class GroupEdge:
    """A statement-level dependence, producer -> consumer."""

    producer: int
    consumer: int
    delta: IVec  # fused-coordinate dependence vector, >= (0,0) lex

    @property
    def rows(self) -> int:
        return self.delta[0]


@dataclass
class LoweredStage:
    """One stage of the staged execution plan."""

    kind: str  # "whole-array" | "slab" | "wavefront" | "scalar"
    members: Tuple[int, ...]  # flattened indices, execution order
    slab: int = 1  # slab height U (kind == "slab")
    skew: Tuple[int, ...] = ()  # per-member row skew k (kind == "slab")

    def describe(self) -> str:
        extra = f" U={self.slab} k={list(self.skew)}" if self.kind == "slab" else ""
        return f"{self.kind}[{','.join(str(i) for i in self.members)}]{extra}"


@dataclass
class LoweringPlan:
    """The staged lowering of one fused program."""

    stages: List[LoweredStage]
    flat: List[FlatStatement]
    schedule: Optional[IVec] = None
    edges: List[GroupEdge] = field(default_factory=list)

    def count(self, kind: str) -> int:
        return sum(len(s.members) for s in self.stages if s.kind == kind)

    @property
    def lowered_statements(self) -> int:
        """Statements emitted as numpy array operations."""
        return sum(
            len(s.members) for s in self.stages if s.kind != "scalar"
        )

    @property
    def fallback_statements(self) -> int:
        """Statements that fell back to the scalar loop."""
        return self.count("scalar")

    def summary(self) -> Dict[str, object]:
        return {
            "stages": len(self.stages),
            "wholeArray": self.count("whole-array"),
            "slab": self.count("slab"),
            "wavefront": self.count("wavefront"),
            "scalar": self.count("scalar"),
            "slabHeights": [s.slab for s in self.stages if s.kind == "slab"],
        }

    def describe(self) -> str:
        return " ; ".join(s.describe() for s in self.stages)


# ------------------------------------------------------------------ #
# planning
# ------------------------------------------------------------------ #


def _flatten(fp: FusedProgram) -> List[FlatStatement]:
    flat: List[FlatStatement] = []
    for node in fp.body:
        for stmt in node.statements:
            flat.append(FlatStatement(len(flat), node.label, node.shift, stmt))
    return flat


def _statement_edges(flat: Sequence[FlatStatement]) -> List[GroupEdge]:
    """Producer -> consumer edges with fused-coordinate deltas.

    ``delta = (target_offset + shift_p) - (read_offset + shift_c)``: the
    fused-iteration distance from the consuming instance back to the
    producing one.  Legal fusion guarantees ``delta >= 0`` lex for every
    edge (loop-level vectors via Theorem 3.1, intra-node ones via the
    validator's LF104 well-ordered-reads rule).
    """
    writer_of: Dict[str, FlatStatement] = {}
    for fs in flat:
        writer_of[fs.stmt.target.array] = fs
    edges: List[GroupEdge] = []
    for consumer in flat:
        for ref in consumer.stmt.reads():
            producer = writer_of.get(ref.array)
            if producer is None:
                continue  # external input: constant under any order
            delta = (producer.stmt.target.offset + producer.shift) - (
                ref.offset + consumer.shift
            )
            zero = IVec.zero(len(delta))
            if delta < zero:  # pragma: no cover - guarded by apply_fusion
                raise ValueError(
                    f"statement dependence {producer.stmt.target.array}->"
                    f"{consumer.stmt.target.array} has negative delta {delta}; "
                    "the fusion is illegal"
                )
            edges.append(GroupEdge(producer.index, consumer.index, delta))
    return edges


def _classify_group(
    members: List[int],
    internal: List[GroupEdge],
    schedule: Optional[IVec],
) -> LoweredStage:
    """Pick the strongest lowering a recurrence group admits."""
    pos = {idx: k for k, idx in enumerate(members)}

    # -- slab: blocked row sweep with statement-level skew ------------- #
    # Tighten forward edges (k_c = min over forward in-edges of
    # k_p + delta_i) so every unit of cross-row slack lands on the
    # backward edges, whose minimum skewed weight is the slab height U.
    min_rows: Dict[Tuple[int, int], int] = {}
    for e in internal:
        key = (e.producer, e.consumer)
        min_rows[key] = min(min_rows.get(key, e.rows), e.rows)
    skew = {idx: 0 for idx in members}
    for idx in members:  # members are in body (topological-forward) order
        bounds = [
            skew[p] + rows
            for (p, c), rows in min_rows.items()
            if c == idx and pos[p] < pos[c]
        ]
        if bounds:
            skew[idx] = min(bounds)

    def slab_height(k: Dict[int, int]) -> Optional[int]:
        """min weight over backward/self edges, or None when unbounded."""
        weights = [
            rows + k[p] - k[c]
            for (p, c), rows in min_rows.items()
            if pos[p] >= pos[c]
        ]
        return min(weights) if weights else None

    zero_skew = {idx: 0 for idx in members}
    u_skew = slab_height(skew)
    u_zero = slab_height(zero_skew)
    best: Optional[Tuple[Dict[int, int], int]] = None
    for k, u in ((skew, u_skew), (zero_skew, u_zero)):
        if u is not None and u >= 1 and (best is None or u > best[1]):
            best = (k, u)
    if u_skew is None:  # pragma: no cover - an SCC always closes a cycle
        best = (zero_skew, 1)
    if best is not None:
        k, u = best
        return LoweredStage(
            kind="slab",
            members=tuple(members),
            slab=u,
            skew=tuple(k[idx] for idx in members),
        )

    # -- wavefront: Lemma-4.3 schedule, re-verified per edge ----------- #
    if schedule is not None and len(schedule) == 2 and schedule[1] == 1 \
            and schedule[0] >= 0:
        s0, s1 = schedule[0], schedule[1]
        ok = True
        for e in internal:
            if s0 * e.delta[0] + s1 * e.delta[1] >= 1:
                continue
            if e.delta == IVec.zero(len(e.delta)) and pos[e.producer] < pos[e.consumer]:
                continue  # same-iteration flow: statement order covers it
            ok = False
            break
        if ok:
            return LoweredStage(kind="wavefront", members=tuple(members))

    # -- scalar fallback ---------------------------------------------- #
    return LoweredStage(kind="scalar", members=tuple(members))


def plan_lowering(
    fp: FusedProgram, *, schedule: Optional[IVec] = None
) -> LoweringPlan:
    """Build the staged execution plan for a fused program.

    ``schedule`` is the fusion's Lemma-4.3 vector (when one exists); it is
    only used -- after per-edge re-verification -- for recurrence groups
    that cannot be lowered as row slabs.
    """
    flat = _flatten(fp)
    edges = _statement_edges(flat)

    g = nx.DiGraph()
    g.add_nodes_from(fs.index for fs in flat)
    for e in edges:
        g.add_edge(e.producer, e.consumer)
    cond = nx.condensation(g)
    order = nx.lexicographical_topological_sort(
        cond, key=lambda scc: min(cond.nodes[scc]["members"])
    )

    stages: List[LoweredStage] = []
    for scc in order:
        members = sorted(cond.nodes[scc]["members"])
        internal = [
            e for e in edges if e.producer in members and e.consumer in members
        ]
        if len(members) == 1 and not internal:
            stages.append(LoweredStage(kind="whole-array", members=tuple(members)))
        else:
            stages.append(_classify_group(members, internal, schedule))
    return LoweringPlan(stages=stages, flat=flat, schedule=schedule, edges=edges)


# ------------------------------------------------------------------ #
# emission helpers
# ------------------------------------------------------------------ #


def _slab_ref(ref: ArrayRef, origins: Dict[str, tuple]) -> str:
    """A 2-D slice over original rows ``[_a, _b]`` and the full row."""
    o0, o1 = origins[ref.array]
    c0, c1 = ref.offset[0] - o0, ref.offset[1] - o1
    return (
        f"{_var(ref.array)}[{_off('_a', c0)}:{_off('_b', c0 + 1)}, "
        f"{c1}:{_off('m', c1 + 1)}]"
    )


def _column_ref(ref: ArrayRef, shift: IVec, origins: Dict[str, tuple]) -> str:
    """A column slice at fused column ``_t`` (schedule ``(0, 1)``)."""
    o0, o1 = origins[ref.array]
    c0 = ref.offset[0] - o0
    c1 = shift[1] + ref.offset[1] - o1
    return (
        f"{_var(ref.array)}[{c0}:{_off('n', c0 + 1)}, {_off('_t', c1)}]"
    )


def _gather_ref(ref: ArrayRef, shift: IVec, origins: Dict[str, tuple]) -> str:
    """A fancy-indexed gather over the wavefront index vectors."""
    o0, o1 = origins[ref.array]
    c0 = shift[0] + ref.offset[0] - o0
    c1 = shift[1] + ref.offset[1] - o1
    return f"{_var(ref.array)}[{_off('_iv', c0)}, {_off('_jv', c1)}]"


def _assign(em: _Emitter, stmt: Assignment, ref_fn) -> None:
    em.emit(f"{ref_fn(stmt.target)} = "
            f"{_expr_src(stmt.expr, ref_fn)}")


# ------------------------------------------------------------------ #
# stage emission
# ------------------------------------------------------------------ #


def _emit_whole_array(
    em: _Emitter, fs: FlatStatement, origins: Dict[str, tuple]
) -> None:
    """A row-band body over original rows ``[_a, _b]``, run by ``bands``.

    The stage has no self-dependence, so its rows are independent: the
    band runner may execute ``[0, n]`` as one band or split it.
    """
    em.emit(f"# stage: whole-array {fs.label}/{fs.stmt.target.array}")
    em.emit(f"def _band{fs.index}(_a, _b):")
    em.indent += 1
    _assign(em, fs.stmt, lambda r: _slab_ref(r, origins))
    em.indent -= 1
    em.emit(f"bands(_band{fs.index}, n)")


def _emit_slab(
    em: _Emitter,
    stage: LoweredStage,
    flat: Sequence[FlatStatement],
    origins: Dict[str, tuple],
) -> None:
    """Blocked row sweep: per step, each member runs ``U`` rows at once.

    Statement ``s`` (shift ``sh``, skew ``k``) executes its original rows
    ``[_t + k + sh0, _t + U - 1 + k + sh0]`` clamped to ``[0, n]`` at step
    ``_t`` -- the clamping *is* the prologue/epilogue handling.
    """
    members = [flat[i] for i in stage.members]
    u = stage.slab
    # step range: statement s covers steps [lo_s - k_s, hi_s - k_s] where
    # its fused rows are [lo_s, hi_s] = [-sh0, n - sh0]
    starts = [
        -fs.shift[0] - k for fs, k in zip(members, stage.skew)
    ]
    t_lo = min(starts)
    t_hi_off = max(-fs.shift[0] - k for fs, k in zip(members, stage.skew))
    em.emit(
        f"# stage: slab U={u} "
        f"{{{', '.join(fs.stmt.target.array for fs in members)}}}"
    )
    em.emit(f"for _t in range({t_lo}, n + ({t_hi_off}) + 1, {u}):")
    em.indent += 1
    for fs, k in zip(members, stage.skew):
        base = k + fs.shift[0]
        em.emit(f"_a = max(0, {_off('_t', base)})")
        em.emit(f"_b = min(n, {_off('_t', base + u - 1)})")
        em.emit("if _a <= _b:")
        em.indent += 1
        _assign(em, fs.stmt, lambda r: _slab_ref(r, origins))
        em.indent -= 1
    em.indent -= 1


def _emit_wavefront(
    em: _Emitter,
    stage: LoweredStage,
    flat: Sequence[FlatStatement],
    schedule: IVec,
    origins: Dict[str, tuple],
) -> None:
    """Per-wavefront array ops along ``s . (i, j) = t`` (fused coords)."""
    members = [flat[i] for i in stage.members]
    s0 = schedule[0]
    names = ", ".join(fs.stmt.target.array for fs in members)
    em.emit(f"# stage: wavefront s={tuple(schedule)} {{{names}}}")
    if s0 == 0:
        # wavefronts are fused columns: contiguous column slices
        lo_t = min(-fs.shift[1] for fs in members)
        hi_off = max(-fs.shift[1] for fs in members)
        em.emit(f"for _t in range({lo_t}, m + ({hi_off}) + 1):")
        em.indent += 1
        em.emit('with _obs.trace_span("exec.numpy.wavefront", detail=True, t=_t):')
        em.indent += 1
        for fs in members:
            sh1 = fs.shift[1]
            em.emit(f"if {-sh1} <= _t <= m - ({sh1}):")
            em.indent += 1
            _assign(em, fs.stmt, lambda r, _fs=fs: _column_ref(r, _fs.shift, origins))
            em.indent -= 1
        em.indent -= 2
        return
    # general (s0 >= 1, s1 == 1): gather/compute/scatter per statement
    t_los = [s0 * (-fs.shift[0]) - fs.shift[1] for fs in members]
    t_lo = min(t_los)
    t_hi_off = max(-s0 * fs.shift[0] - fs.shift[1] for fs in members)
    em.emit(f"for _t in range({t_lo}, {s0} * n + m + ({t_hi_off}) + 1):")
    em.indent += 1
    em.emit('with _obs.trace_span("exec.numpy.wavefront", detail=True, t=_t):')
    em.indent += 1
    for fs in members:
        sh0, sh1 = fs.shift[0], fs.shift[1]
        # fused i range on this wavefront: i in [-sh0, n - sh0] and
        # j = _t - s0*i in [-sh1, m - sh1]
        em.emit(
            f"_ilo = max({-sh0}, -(({_off('m', -sh1)} - _t) // {s0}))"
        )
        em.emit(f"_ihi = min(n - ({sh0}), (_t + ({sh1})) // {s0})")
        em.emit("if _ilo <= _ihi:")
        em.indent += 1
        em.emit("_iv = _np.arange(_ilo, _ihi + 1)")
        em.emit(f"_jv = _t - {s0} * _iv")
        _assign(em, fs.stmt, lambda r, _fs=fs: _gather_ref(r, _fs.shift, origins))
        em.indent -= 1
    em.indent -= 2


def _emit_scalar(
    em: _Emitter,
    stage: LoweredStage,
    flat: Sequence[FlatStatement],
    origins: Dict[str, tuple],
) -> None:
    """The compiled backend's scalar loop, restricted to the group."""
    members = [flat[i] for i in stage.members]
    names = ", ".join(fs.stmt.target.array for fs in members)
    em.emit(f"# stage: scalar fallback {{{names}}}")
    lo_i = min(-fs.shift[0] for fs in members)
    hi_i_off = max(-fs.shift[0] for fs in members)
    lo_j = min(-fs.shift[1] for fs in members)
    hi_j_off = max(-fs.shift[1] for fs in members)
    em.emit(f"for _fi in range({lo_i}, n + ({hi_i_off}) + 1):")
    em.indent += 1
    em.emit(f"for _fj in range({lo_j}, m + ({hi_j_off}) + 1):")
    em.indent += 1
    for fs in members:
        s0, s1 = fs.shift[0], fs.shift[1]
        em.emit(f"if 0 <= _fi + ({s0}) <= n and 0 <= _fj + ({s1}) <= m:")
        em.indent += 1
        em.emit(_scalar_stmt(fs.stmt, f"_fi+({s0})", f"_fj+({s1})", origins))
        em.indent -= 1
    em.indent -= 2


# ------------------------------------------------------------------ #
# entry point
# ------------------------------------------------------------------ #


def run_inline(fn: Callable[[int, int], None], n: int) -> None:
    """The default band runner: one band over every row."""
    fn(0, n)


def compile_numpy(
    fp: FusedProgram, *, schedule: Optional[IVec] = None
) -> CompiledKernel:
    """Compile a fused program to a staged whole-array numpy kernel.

    Returns a cached ``kernel(store, n, m, bands=run_inline)`` callable
    (the pycompile source-keyed cache; identical source means identical
    behaviour).  ``bands(fn, n)`` runs each whole-array stage's row-band
    body ``fn(a, b)`` over rows ``[0, n]``, as one band or split; slab,
    wavefront and scalar stages always run inline.  The kernel carries
    ``.source`` and ``.plan`` (the :meth:`LoweringPlan.summary` dict) for
    inspection.  The result is bit-identical to the serial interpreter for
    every legal fusion -- see the module docstring for why, and the test
    suite for proof.
    """
    reg = obs.default_registry()
    with obs.trace_span("codegen.lower_numpy"):
        plan = plan_lowering(fp, schedule=schedule)
        probe = ArrayStore.for_program(fp.original, 1, 1)
        origins = _origins_of(probe)

        em = _Emitter()
        em.emit("import numpy as _np")
        em.emit("from repro import obs as _obs")
        em.emit("from repro.codegen.nplower import run_inline as _run_inline")
        em.emit("")
        em.emit("def kernel(store, n, m, bands=_run_inline):")
        em.indent += 1
        em.emit('_obs.counter("exec.numpy.runs").inc()')
        _bind_arrays(em, fp.original.all_arrays())
        for stage in plan.stages:
            if stage.kind == "whole-array":
                _emit_whole_array(em, plan.flat[stage.members[0]], origins)
            elif stage.kind == "slab":
                _emit_slab(em, stage, plan.flat, origins)
            elif stage.kind == "wavefront":
                assert plan.schedule is not None
                _emit_wavefront(em, stage, plan.flat, plan.schedule, origins)
            else:
                _emit_scalar(em, stage, plan.flat, origins)
        em.indent -= 1

    reg.counter("exec.numpy.lowered").inc(plan.lowered_statements)
    if plan.fallback_statements:
        reg.counter("exec.numpy.fallback").inc(plan.fallback_statements)
    kernel = _finalize(em, origins)
    kernel.plan = plan.summary()  # type: ignore[attr-defined]
    return kernel
