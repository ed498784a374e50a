"""End-to-end semantic verification of fusion transformations.

* :func:`~repro.verify.equivalence.check_equivalence` -- run the original
  loop sequence and the fused/retimed program on identical random inputs
  and compare every array bit-for-bit;
* :func:`~repro.verify.equivalence.verify_fusion_result` -- one-call
  verification of a :class:`repro.fusion.FusionResult` against a source
  program, exercising the execution mode the result claims (DOALL rows or
  hyperplane wavefronts, with randomised intra-phase order);
* :func:`~repro.verify.doall.runtime_doall_violations` -- instance-level
  dependence scan proving (or refuting) that rows of the fused loop are
  independent, without relying on the graph-level argument.
"""

from repro.verify.equivalence import (
    EquivalenceReport,
    check_equivalence,
    verify_fusion_result,
)
from repro.verify.doall import runtime_doall_violations
from repro.verify.dataflow import (
    DataflowSemantics,
    ExecutionDeadlock,
    OrderViolation,
    execute_retimed,
    reference_values,
    verify_retimed_execution,
)

__all__ = [
    "check_equivalence",
    "verify_fusion_result",
    "EquivalenceReport",
    "runtime_doall_violations",
    "DataflowSemantics",
    "OrderViolation",
    "ExecutionDeadlock",
    "reference_values",
    "execute_retimed",
    "verify_retimed_execution",
]
