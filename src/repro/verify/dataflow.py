"""Dimension-agnostic dataflow execution of MLDGs.

The loop-IR execution path (parse -> codegen -> interpret) is inherently
two-level; this module verifies fusions *in any dimension* by executing the
MLDG itself as a dataflow program:

    value(u, x) = input(u, x) + scale_u * sum over predecessors w and
                  vectors d in D_L(w, u) of value(w, x - d)

with ``input(u, x)`` a deterministic pseudo-random function of ``(u, x)``
(a keyed blake2b hash of ``(seed, u, x)``, computed once per semantics
object, so every execution order sees identical inputs without
materialising arrays), halo reads (``x - d`` outside the iteration box)
drawing from the same input function, and ``scale_u = 1 / (indegree + 1)``
keeping values bounded.  Because each instance's value is a pure function
of its dependencies, **any** dependence-respecting execution order produces
bit-identical values.

Two evaluators are provided:

* :func:`reference_values` -- demand-driven memoised evaluation with an
  explicit stack (order independent by construction; rejects deadlocked
  graphs, whose instance dependencies are circular, with
  :class:`ExecutionDeadlock`);
* :func:`execute_retimed` -- an *operational* evaluation in a concrete
  schedule of the retimed fused space: lexicographic (serial), rows with
  randomised inner order (DOALL claim), or wavefronts by a schedule vector
  (hyperplane claim).  Reads that the order has not produced yet raise
  :class:`OrderViolation` -- executing an invalid schedule fails loudly
  instead of silently reading stale values.

Together they give end-to-end verification for the n-D generalisations
(``repro.fusion.multidim``) that the 2-D codegen pipeline gives the paper's
algorithms.  One check costs ``O(box * E)``: every in-box instance is
evaluated once by each evaluator, reading each of its dependence vectors.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from functools import cached_property
from operator import sub
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.graph.mldg import MLDG
from repro.retiming import Retiming
from repro.vectors import IVec

__all__ = [
    "OrderViolation",
    "ExecutionDeadlock",
    "DataflowSemantics",
    "reference_values",
    "execute_retimed",
    "verify_retimed_execution",
]

_Instance = Tuple[str, Tuple[int, ...]]


class OrderViolation(Exception):
    """The requested execution order read a value before producing it."""


class ExecutionDeadlock(ValueError):
    """No execution order exists: the instances depend on each other in a
    circle (a zero-weight dependence cycle), in the original graph or in
    the retimed fused body."""


class DataflowSemantics:
    """The value semantics of one MLDG over an iteration box.

    ``bounds`` gives the inclusive upper bound per dimension (lower bounds
    are 0), e.g. ``(n, m)`` for the 2-D model.
    """

    def __init__(self, g: MLDG, bounds: Sequence[int], *, seed: int = 0) -> None:
        if len(bounds) != g.dim:
            raise ValueError(f"bounds {bounds} do not match dimension {g.dim}")
        self.g = g
        self.bounds = tuple(int(b) for b in bounds)
        self.seed = seed
        # (predecessor, offset) pairs in a fixed order, offsets as plain ints
        self._preds: Dict[str, List[Tuple[str, Tuple[int, ...]]]] = {
            node: sorted(
                (
                    (w, tuple(d))
                    for w in set(g.predecessors(node))
                    for d in g.D(w, node)
                ),
                key=lambda wd: (g.program_index(wd[0]), wd[1]),
            )
            for node in g.nodes
        }
        self._scale: Dict[str, float] = {
            node: 1.0 / (len(self._preds[node]) + 1) for node in g.nodes
        }
        self._inputs: Dict[_Instance, float] = {}

    @cached_property
    def _box(self) -> FrozenSet[Tuple[int, ...]]:
        return frozenset(self.iteration_box())

    def input_value(self, node: str, x: Tuple[int, ...]) -> float:
        """Deterministic pseudo-random input in [-1, 1), identical across
        orders and processes; hashed once per ``(node, x)``."""
        key = (node, x)
        value = self._inputs.get(key)
        if value is None:
            text = f"{self.seed}:{node}:" + ",".join(map(str, x))
            digest = hashlib.blake2b(text.encode(), digest_size=8).digest()
            # top 53 bits -> [0, 2) exactly, then shift to [-1, 1)
            value = (int.from_bytes(digest, "big") >> 11) * 2.0**-52 - 1.0
            self._inputs[key] = value
        return value

    def iteration_box(self) -> Iterable[Tuple[int, ...]]:
        return itertools.product(*(range(b + 1) for b in self.bounds))

    def combine(
        self, node: str, x: Tuple[int, ...], values: Mapping[_Instance, float]
    ) -> float:
        """One instance's value, reading in-box predecessors from ``values``.

        A read of an in-box instance that ``values`` lacks raises
        ``KeyError`` carrying that instance.
        """
        total = self.input_value(node, x)
        scale = self._scale[node]
        box = self._box
        for w, d in self._preds[node]:
            xp = tuple(map(sub, x, d))
            if xp in box:
                total += scale * values[(w, xp)]
            else:
                total += scale * self.input_value(w, xp)
        return total


def reference_values(
    sem: DataflowSemantics, *, max_instances: int = 2_000_000
) -> Dict[_Instance, float]:
    """Demand-driven evaluation of every in-box instance (order-free).

    Raises :class:`ExecutionDeadlock` on instance-level dependence cycles
    (deadlocked graphs) and ``ValueError`` on boxes larger than
    ``max_instances``.
    """
    g = sem.g
    count = g.num_nodes
    for b in sem.bounds:
        count *= b + 1
    if count > max_instances:
        raise ValueError(f"iteration box too large ({count} instances)")

    values: Dict[_Instance, float] = {}
    in_progress: set = set()
    preds, box, combine = sem._preds, sem._box, sem.combine

    # Visiting instances in the original program's order (outermost
    # coordinate, then node, then the rest) finds a legal graph's
    # dependencies already computed, so the stack below rarely grows.
    rest = list(itertools.product(*(range(b + 1) for b in sem.bounds[1:])))
    roots = (
        (node, (i, *tail))
        for i in range(sem.bounds[0] + 1)
        for node in g.nodes
        for tail in rest
    )
    for root in roots:
        stack = [root]
        while stack:
            key = stack[-1]
            if key in values:
                stack.pop()
                continue
            try:
                values[key] = combine(*key, values)
            except KeyError:
                # push the missing in-box dependencies; meeting one that is
                # already waiting below closes a cycle
                in_progress.add(key)
                u, x = key
                for w, d in preds[u]:
                    xp = tuple(map(sub, x, d))
                    dep = (w, xp)
                    if xp in box and dep not in values:
                        if dep in in_progress:
                            raise ExecutionDeadlock(
                                f"instance-level dependence cycle through "
                                f"{w}{xp}: graph is deadlocked (zero-weight cycle)"
                            )
                        stack.append(dep)
            else:
                in_progress.discard(key)
                stack.pop()
    return values


def _body_order(
    g: MLDG, retiming: Retiming, retimed: Optional[MLDG] = None
) -> List[str]:
    from repro.codegen.fused import DeadlockError, _zero_dependence_order

    gr = retimed if retimed is not None else retiming.apply(g)
    try:
        return _zero_dependence_order(gr, list(g.nodes))
    except DeadlockError as exc:
        raise ExecutionDeadlock(f"no fused body order exists: {exc}") from exc


def execute_retimed(
    sem: DataflowSemantics,
    retiming: Retiming,
    *,
    mode: str = "serial",
    schedule: Optional[IVec] = None,
    order_seed: int = 7,
    retimed: Optional[MLDG] = None,
) -> Dict[_Instance, float]:
    """Operationally execute the retimed fused space in a concrete order.

    Modes: ``"serial"`` (fused coordinates lexicographic), ``"doall"``
    (outermost fused coordinate ascending, remaining coordinates randomly
    permuted per row -- valid iff the fusion is DOALL across the inner
    dimensions), ``"hyperplane"`` (levels ``t = s . x`` ascending, cells
    randomly permuted within a level).  ``retimed`` is ``retiming.apply(sem.g)``
    when the caller already holds it (the retiming certificate builds it),
    which spares the fused-body order a second apply.
    """
    g = sem.g
    order = _body_order(g, retiming, retimed)
    rng = random.Random(order_seed)

    # fused cell c executes node u's original instance c + r(u); the fused
    # range per dimension spans every original instance of every node
    los = []
    his = []
    for k in range(g.dim):
        shifts = [retiming[node][k] for node in g.nodes]
        los.append(min(-s for s in shifts))
        his.append(sem.bounds[k] - min(shifts))

    def cells() -> List[Tuple[int, ...]]:
        return list(itertools.product(*(range(lo, hi + 1) for lo, hi in zip(los, his))))

    if mode == "serial":
        ordered = cells()
    elif mode == "doall":
        ordered = []
        inner = list(itertools.product(*(range(lo, hi + 1) for lo, hi in zip(los[1:], his[1:]))))
        for i in range(los[0], his[0] + 1):
            perm = inner[:]
            rng.shuffle(perm)
            ordered.extend((i, *rest) for rest in perm)
    elif mode == "hyperplane":
        if schedule is None:
            raise ValueError("hyperplane mode needs a schedule vector")
        levels: Dict[int, List[Tuple[int, ...]]] = {}
        for c in cells():
            levels.setdefault(sum(s * ci for s, ci in zip(schedule, c)), []).append(c)
        ordered = []
        for t in sorted(levels):
            batch = levels[t]
            rng.shuffle(batch)
            ordered.extend(batch)
    else:
        raise ValueError(f"unknown mode {mode!r}")

    # the in-box instances each fused cell runs, in fused-body order
    work: Dict[Tuple[int, ...], List[_Instance]] = {}
    for node in order:
        shift = tuple(retiming[node])
        for x in sem.iteration_box():
            work.setdefault(tuple(map(sub, x, shift)), []).append((node, x))

    values: Dict[_Instance, float] = {}
    combine = sem.combine
    try:
        for cell in ordered:
            for key in work.get(cell, ()):
                values[key] = combine(*key, values)
    except KeyError as exc:
        w, xp = exc.args[0]
        raise OrderViolation(
            f"read of {w}{xp} before it was produced (invalid schedule)"
        ) from None
    return values


def verify_retimed_execution(
    g: MLDG,
    retiming: Retiming,
    bounds: Sequence[int],
    *,
    mode: str = "serial",
    schedule: Optional[IVec] = None,
    seed: int = 0,
    order_seed: int = 7,
    retimed: Optional[MLDG] = None,
) -> bool:
    """True iff the operational execution matches the order-free reference
    bit-for-bit (and completes without :class:`OrderViolation`).

    ``retimed``, when given, must be ``retiming.apply(g)``; see
    :func:`execute_retimed`."""
    sem = DataflowSemantics(g, bounds, seed=seed)
    reference = reference_values(sem)
    actual = execute_retimed(
        sem,
        retiming,
        mode=mode,
        schedule=schedule,
        order_seed=order_seed,
        retimed=retimed,
    )
    return reference == actual
