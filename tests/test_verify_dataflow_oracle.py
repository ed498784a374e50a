"""Differential test of the dataflow execution gate against its first
implementation.

``repro.verify.dataflow`` draws its inputs from a memoised blake2b hash and
evaluates the reference with an explicit stack.  The oracle below keeps
the original evaluator: every input re-seeds a ``random.Random`` and the
reference recurses.  Values differ between the two (the input function
changed), so they are compared by *verdict* only -- the operational run
matches the reference, reads a value before producing it
(:class:`OrderViolation`), or no order exists at all (deadlock) -- on
random 2-D and 3-D graphs, on the retimings the fusion algorithms
produce, and on those retimings corrupted by the resilience fault
injectors.
"""

import itertools
import random
import sys

from hypothesis import given, settings, strategies as st

from repro.codegen.fused import DeadlockError, _zero_dependence_order
from repro.fusion import fuse, legal_fusion_retiming, multidim_hyperplane_fusion
from repro.fusion.errors import FusionError
from repro.gallery import figure2_mldg, figure14_mldg
from repro.graph import random_legal_mldg
from repro.resilience.faults import RetimingDrop, RetimingPerturb, ScheduleOffByOne
from repro.vectors import IVec
from repro.verify import (
    DataflowSemantics,
    ExecutionDeadlock,
    OrderViolation,
    execute_retimed,
    reference_values,
)

MODES = ("serial", "doall", "hyperplane")
INJECTORS = (None, RetimingPerturb(), RetimingDrop(), ScheduleOffByOne())


# -- the oracle: the evaluator as first written ------------------------- #


class _OracleSemantics:
    def __init__(self, g, bounds, seed=0):
        self.g, self.bounds, self.seed = g, tuple(bounds), seed
        self.preds = {
            node: sorted(
                ((w, d) for w in set(g.predecessors(node)) for d in g.D(w, node)),
                key=lambda wd: (g.program_index(wd[0]), tuple(wd[1])),
            )
            for node in g.nodes
        }
        self.scale = {node: 1.0 / (len(self.preds[node]) + 1) for node in g.nodes}

    def in_box(self, x):
        return all(0 <= c <= b for c, b in zip(x, self.bounds))

    def input_value(self, node, x):
        key = f"{self.seed}:{node}:" + ",".join(map(str, x))
        return random.Random(key).uniform(-1.0, 1.0)

    def combine(self, node, x, fetch):
        total = self.input_value(node, x)
        for w, d in self.preds[node]:
            xp = tuple(c - dc for c, dc in zip(x, d))
            read = fetch(w, xp) if self.in_box(xp) else self.input_value(w, xp)
            total += self.scale[node] * read
        return total


def _oracle_reference(sem):
    values, in_progress = {}, set()

    def eval_instance(node, x):
        key = (node, x)
        if key in values:
            return values[key]
        if key in in_progress:
            raise ValueError(f"deadlock through {node}{x}")
        in_progress.add(key)
        values[key] = sem.combine(node, x, eval_instance)
        in_progress.discard(key)
        return values[key]

    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, 20_000))
    try:
        for node in sem.g.nodes:
            for x in itertools.product(*(range(b + 1) for b in sem.bounds)):
                eval_instance(node, x)
    finally:
        sys.setrecursionlimit(old_limit)
    return values


def _oracle_execute(sem, retiming, *, mode, schedule, order_seed):
    g = sem.g
    try:
        order = _zero_dependence_order(retiming.apply(g), list(g.nodes))
    except DeadlockError as exc:
        raise ValueError(f"no fused body order exists: {exc}") from exc
    rng = random.Random(order_seed)
    los = [min(-retiming[u][k] for u in g.nodes) for k in range(g.dim)]
    his = [sem.bounds[k] - min(retiming[u][k] for u in g.nodes) for k in range(g.dim)]
    spans = [range(lo, hi + 1) for lo, hi in zip(los, his)]
    if mode == "serial":
        ordered = list(itertools.product(*spans))
    elif mode == "doall":
        ordered, inner = [], list(itertools.product(*spans[1:]))
        for i in spans[0]:
            perm = inner[:]
            rng.shuffle(perm)
            ordered.extend((i, *rest) for rest in perm)
    else:
        levels = {}
        for c in itertools.product(*spans):
            levels.setdefault(sum(s * ci for s, ci in zip(schedule, c)), []).append(c)
        ordered = []
        for t in sorted(levels):
            rng.shuffle(levels[t])
            ordered.extend(levels[t])

    values = {}

    def fetch(w, xp):
        if (w, xp) not in values:
            raise OrderViolation(f"read of {w}{xp} before it was produced")
        return values[(w, xp)]

    for cell in ordered:
        for node in order:
            x = tuple(c + rc for c, rc in zip(cell, retiming[node]))
            if sem.in_box(x):
                values[(node, x)] = sem.combine(node, x, fetch)
    return values


# -- verdicts ------------------------------------------------------------ #


def _oracle_verdict(g, r, box, mode, schedule, order_seed):
    sem = _OracleSemantics(g, box)
    try:
        ref = _oracle_reference(sem)
        act = _oracle_execute(sem, r, mode=mode, schedule=schedule, order_seed=order_seed)
    except OrderViolation:
        return "order-violation"
    except ValueError as exc:
        assert "deadlock" in str(exc) or "no fused body order" in str(exc), exc
        return "deadlock"
    return "match" if ref == act else "mismatch"


def _verdict(g, r, box, mode, schedule, order_seed):
    sem = DataflowSemantics(g, box)
    try:
        ref = reference_values(sem)
        act = execute_retimed(sem, r, mode=mode, schedule=schedule, order_seed=order_seed)
    except OrderViolation:
        return "order-violation"
    except ExecutionDeadlock:
        return "deadlock"
    return "match" if ref == act else "mismatch"


def _solve(g, algorithm):
    """The retiming and schedule one fusion algorithm produces for ``g``."""
    row = IVec(1, *([0] * (g.dim - 1)))
    if algorithm == "fuse":
        try:
            res = fuse(g)
        except (FusionError, ValueError):  # Algorithm 4 is 2-D only
            pass
        else:
            return res.retiming, res.schedule if res.schedule is not None else row
    try:
        return multidim_hyperplane_fusion(g)
    except FusionError:
        return legal_fusion_retiming(g), row


def _assert_same_verdict(g, r, s, mode, order_seed):
    box = (4,) * g.dim
    expected = _oracle_verdict(g, r, box, mode, s, order_seed)
    got = _verdict(g, r, box, mode, s, order_seed)
    assert got == expected, (mode, r, s)
    assert got != "mismatch"
    return got


@given(
    dim=st.sampled_from((2, 3)),
    nodes=st.integers(min_value=1, max_value=6),
    graph_seed=st.integers(min_value=0, max_value=10**6),
    algorithm=st.sampled_from(("fuse", "legal")),
    injector=st.sampled_from(INJECTORS),
    fault_seed=st.integers(min_value=0, max_value=10**6),
    mode=st.sampled_from(MODES),
    order_seed=st.integers(min_value=0, max_value=50),
)
@settings(max_examples=120, deadline=None)
def test_verdicts_match_the_oracle(
    dim, nodes, graph_seed, algorithm, injector, fault_seed, mode, order_seed
):
    g = random_legal_mldg(nodes, dim=dim, seed=graph_seed)
    r, s = _solve(g, algorithm)
    if injector is not None:
        rng = random.Random(fault_seed)
        if injector.point == "schedule":
            s = injector.corrupt(s, rng)
        else:
            r = injector.corrupt(r, rng)
    _assert_same_verdict(g, r, s, mode, order_seed)


def test_every_verdict_is_exercised():
    """The paper's graphs and their corruptions reach all three verdicts."""
    seen = set()
    for g in (figure2_mldg(), figure14_mldg()):
        for algorithm in ("fuse", "legal"):
            r, s = _solve(g, algorithm)
            corrupted = RetimingPerturb().corrupt(r, random.Random(1))
            for retiming in (r, corrupted):
                for mode in MODES:
                    seen.add(_assert_same_verdict(g, retiming, s, mode, 7))
    assert seen == {"match", "order-violation", "deadlock"}
