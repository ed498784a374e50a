"""Schedule vectors and DOALL hyperplanes (Section 2.3 and Lemma 4.3).

A *schedule vector* ``s`` is the normal of a family of equitemporal
hyperplanes; it is *strict* for a dependence set when ``s . d > 0`` for
every non-zero dependence vector ``d``.  Two constructions matter here:

* the **row schedule** ``s = (1, 0)``: strict exactly when the fused
  innermost loop is DOALL (Property 4.1);
* Lemma 4.3's wavefront schedule for a retimed graph whose dependence
  vectors are all ``>= (0, 0)``:

  - if every non-zero vector has first coordinate 0 (hence positive second
    coordinate), ``s = (0, 1)``;
  - otherwise ``s = (max(floor(-d[1] / d[0])) + 1, 1)`` over vectors with
    ``d[0] > 0``, which guarantees ``s[0] * d[0] + d[1] > 0`` for those and
    ``d[1] > 0`` handles the rest.

  The DOALL hyperplane is ``h = (s[1], -s[0])``, perpendicular to ``s``.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

from repro.vectors import IVec, is_strict_schedule_vector

__all__ = [
    "ROW_SCHEDULE",
    "schedule_vector_for",
    "hyperplane_for_schedule",
    "doall_hyperplane",
]

#: The schedule of a row-by-row DOALL execution of a 2-D nest (Property
#: 4.1).  In ``n`` dimensions the row schedule is ``IVec.unit(n, 0)``.
ROW_SCHEDULE = IVec(1, 0)


def schedule_vector_for(dependence_vectors: Iterable[IVec]) -> IVec:
    """Lemma 4.3's strict schedule vector for a set of vectors ``>= (0,0)``.

    Raises ``ValueError`` if any vector is lexicographically negative (the
    caller must retime with LLOFRA first) or not two-dimensional.
    """
    vecs: List[IVec] = [d for d in dependence_vectors if not d.is_zero()]
    for d in vecs:
        if d.dim != 2:
            raise ValueError("Lemma 4.3 schedule construction is two-dimensional")
        if tuple(d) < (0, 0):
            raise ValueError(
                f"dependence vector {d} is lexicographically negative; retime first"
            )
    if not vecs:
        # no non-zero dependencies at all: any schedule works; pick the row one
        return ROW_SCHEDULE

    max_d = max(vecs)
    if max_d[0] == 0:
        # every non-zero vector is (0, k) with k > 0
        s = IVec(0, 1)
    else:
        carried = [d for d in vecs if d[0] > 0]
        s0 = max((-d[1]) // d[0] for d in carried) + 1
        s = IVec(s0, 1)
    if not is_strict_schedule_vector(s, vecs):
        raise AssertionError(
            f"Lemma 4.3 construction produced a non-strict schedule {s} for {vecs}"
        )
    return s


def hyperplane_for_schedule(s: IVec) -> IVec:
    """The hyperplane direction perpendicular to a 2-D schedule vector.

    Lemma 4.3 picks ``h = (s[1], -s[0])``; iterations with equal ``s . (i,j)``
    lie on a common line in direction ``h`` and can run in parallel.
    """
    if s.dim != 2:
        raise ValueError("hyperplane construction is two-dimensional")
    return IVec(s[1], -s[0])


def doall_hyperplane(dependence_vectors: Iterable[IVec]) -> Tuple[IVec, IVec]:
    """Convenience: ``(s, h)`` per Lemma 4.3 for an already-retimed vector set."""
    s = schedule_vector_for(dependence_vectors)
    return s, hyperplane_for_schedule(s)
