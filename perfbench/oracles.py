"""Correctness oracles that do not come from the code under test.

* Retimings are checked by recomputing every retimed dependence vector
  ``d + r(u) - r(v)`` with plain integer tuples, then checking Theorem 3.1
  (every retimed vector is lexicographically >= 0), Property 4.1 when the
  result claims DOALL (a non-zero vector must advance the outer loop) and
  strictness of the schedule vector when it claims a hyperplane.
  ``repro.retiming.verify`` is never called.
* Compiled programs are executed once at a small size and compared cell
  for cell with the interpreter run of the original, unfused program.
* Warm (cache-served) results must equal the cold result, and serve
  responses must equal the in-process compile of the same source.

Every function returns a list of problems; empty means correct.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, List, Mapping, Optional, Tuple

Vec = Tuple[int, ...]


def vec(v: Any) -> Vec:
    return tuple(int(x) for x in v)


def shifts_of(retiming: Any) -> Dict[str, Vec]:
    """A retiming as ``{node: int tuple}``."""
    return {str(k): vec(v) for k, v in retiming.as_dict().items()}


def retimed_vectors(g: Any, shifts: Mapping[str, Vec]) -> List[Tuple[str, str, Vec]]:
    """``(src, dst, d + r(src) - r(dst))`` for every dependence vector of ``g``."""
    zero = (0,) * g.dim
    out = []
    for e in g.edges():
        ru = shifts.get(e.src, zero)
        rv = shifts.get(e.dst, zero)
        for d in sorted(vec(x) for x in e.vectors):
            out.append((e.src, e.dst, tuple(a + b - c for a, b, c in zip(d, ru, rv))))
    return out


def retiming_problems(
    g: Any,
    shifts: Mapping[str, Vec],
    claim: str,
    *,
    schedule: Optional[Vec] = None,
    retimed: Any = None,
) -> List[str]:
    """Check a retiming of ``g`` against the claim made for it.

    ``claim`` is ``"doall"``, ``"hyperplane"`` or anything else (legal
    fusion only).  When the result carries its own retimed graph
    (``retimed``), it must hold exactly the vectors recomputed here.
    """
    problems: List[str] = []
    nodes = set(g.nodes)
    stray = sorted(set(shifts) - nodes)
    if stray:
        problems.append(f"retiming names unknown nodes {stray}")
    zero = (0,) * g.dim
    mine = retimed_vectors(g, shifts)
    for src, dst, w in mine:
        if w < zero:
            problems.append(f"Theorem 3.1: {src}->{dst} retimed to {w} < 0")
        elif w == zero:
            continue
        elif claim == "doall" and w[0] < 1:
            problems.append(f"Property 4.1: {src}->{dst} retimed to {w} serialises the row")
        elif claim == "hyperplane":
            if schedule is None:
                problems.append("hyperplane claimed without a schedule vector")
            elif sum(a * b for a, b in zip(schedule, w)) <= 0:
                problems.append(f"schedule {schedule} not strict for {src}->{dst} {w}")
    if retimed is not None:
        theirs = sorted(
            (e.src, e.dst, vec(d)) for e in retimed.edges() for d in e.vectors
        )
        if theirs != sorted(mine):
            problems.append("result's retimed graph differs from d + r(u) - r(v)")
    return problems


def fusion_problems(g: Any, result: Any) -> List[str]:
    """Check a :class:`FusionResult` computed for graph ``g``."""
    schedule = vec(result.schedule) if result.schedule is not None else None
    return retiming_problems(
        g,
        shifts_of(result.retiming),
        result.parallelism.value,
        schedule=schedule,
        retimed=result.retimed,
    )


def resilient_problems(g: Any, result: Any) -> List[str]:
    """Check a ladder result: rungs that carry a retiming must honour it."""
    if result.retiming is None:
        return []
    schedule = vec(result.schedule) if result.schedule is not None else None
    return retiming_problems(
        g, shifts_of(result.retiming), result.parallelism.value, schedule=schedule
    )


def fusion_fingerprint(result: Any) -> Hashable:
    """Everything a strict fusion decides (cold and warm must agree)."""
    return (
        result.strategy.value,
        result.parallelism.value,
        tuple(sorted(shifts_of(result.retiming).items())),
        vec(result.schedule) if result.schedule is not None else None,
        vec(result.hyperplane) if result.hyperplane is not None else None,
    )


def resilient_fingerprint(result: Any) -> Hashable:
    return (
        result.rung.label,
        tuple(sorted(shifts_of(result.retiming).items()))
        if result.retiming is not None
        else None,
        vec(result.schedule) if result.schedule is not None else None,
    )


def store_problems(expected: Any, got: Any, what: str = "output") -> List[str]:
    """Bit-identity of two array stores (same arrays, shapes and cells)."""
    import numpy as np

    a, b = expected.arrays(), got.arrays()
    if set(a) != set(b):
        return [f"{what}: arrays {sorted(b)} != {sorted(a)}"]
    problems = []
    for name in sorted(a):
        if a[name].shape != b[name].shape:
            problems.append(f"{what}: array {name} shape {b[name].shape} != {a[name].shape}")
        elif not np.array_equal(a[name], b[name]):
            bad = int(np.count_nonzero(a[name] != b[name]))
            problems.append(f"{what}: array {name} differs in {bad} cell(s)")
    return problems


def artifact_problems(artifact: Any, reference: Any, base: Any, n: int) -> List[str]:
    """Run a compiled artifact at ``n x n`` and compare with ``reference``
    (the interpreter run of the original program from the same ``base``)."""
    from repro.codegen import FusedProgram, run_fused, run_original
    from repro.loopir import LoopNest

    if artifact is None:
        return []
    if isinstance(artifact, FusedProgram):
        got = run_fused(artifact, n, n, store=base.copy(), mode="serial")
    elif isinstance(artifact, LoopNest):
        got = run_original(artifact, n, n, store=base.copy())
    else:
        return [f"unexpected artifact type {type(artifact).__name__}"]
    return store_problems(reference, got, "fused program")


def serve_reference(out: Any, resilient: bool) -> Dict[str, Any]:
    """The fields a serve response must carry for one in-process compile."""
    from repro.codegen import emit_fused_program
    from repro.loopir.printer import format_program

    if resilient:
        return {
            "rung": out.rung.label,
            "parallelism": out.resilient.parallelism.value,
            "emitted": out.emitted_code(),
        }
    return {
        "strategy": out.fusion.strategy.value,
        "parallelism": out.fusion.parallelism.value,
        "retiming": {k: list(v) for k, v in shifts_of(out.fusion.retiming).items()},
        "emitted": emit_fused_program(out.fused)
        if out.fused is not None
        else format_program(out.nest),
    }


def serve_problems(resp: Mapping[str, Any], expected: Mapping[str, Any]) -> List[str]:
    if resp.get("status") != "ok":
        return [f"status {resp.get('status')!r} code {resp.get('code')!r}"]
    return [
        f"field {name!r} differs from the in-process compile"
        for name in sorted(expected)
        if resp.get(name) != expected[name]
    ]


def equal_problems(cold: Hashable, warm: Hashable, what: str) -> List[str]:
    return [] if cold == warm else [f"{what} result differs from the cold result"]
