"""EXPLAIN: render a physical plan as an indented operator tree.

``render`` produces the static plan; after :meth:`PhysicalPlan.execute`
has run (or via ``Database.explain(sql, analyze=True)``) each line also
carries the operator's observed output cardinality — per-operator
execution statistics in the style of ``EXPLAIN ANALYZE``::

    Project(t0.login, t2.descriptor_name)  [rows=7]
     └─ HashJoin(t2.role_id = t1.role_id)  [rows=7]
         ├─ HashJoin(t0.role_id = t1.role_id)  [rows=9]
         │   ├─ FullScan(participant AS t0)  [rows=9]
         │   └─ FullScan(role AS t1)  [rows=3]
         └─ IndexScan(role_descriptor AS t2, role_id = 1)  [rows=4]

The full format is documented in ``docs/explain.md``.
"""

from __future__ import annotations

from typing import List

from repro.sql.plan.physical import PhysicalOp


def _estimate(value: float) -> str:
    """Compact estimate rendering: integral values drop the fraction."""
    if float(value).is_integer():
        return "%d" % int(value)
    return "%.1f" % value


def render(root: PhysicalOp, analyze: bool = False,
           timing: bool = False) -> str:
    """Render the operator tree rooted at ``root``.

    ``timing`` adds a ``time=`` column with each operator's wall-clock
    milliseconds, available when the plan executed under an active
    trace (``Database.explain(sql, analyze=True, timing=True)`` opens
    one).  It is off by default so EXPLAIN output stays byte-identical
    to the untraced engine's.
    """
    lines: List[str] = []

    def emit(op: PhysicalOp, prefix: str, child_prefix: str) -> None:
        body = op.describe()
        bits = []
        if analyze and op.rows_out is not None:
            bits.append("rows=%d" % op.rows_out)
        if analyze and timing and op.elapsed_seconds is not None:
            bits.append("time=%.3fms" % (op.elapsed_seconds * 1000.0))
        if op.est_rows is not None:
            bits.append("est_rows=%s" % _estimate(op.est_rows))
        if op.est_cost is not None:
            bits.append("cost=%s" % _estimate(op.est_cost))
        if bits:
            body += "  [%s]" % ", ".join(bits)
        lines.append(prefix + body)
        children = op.children
        for index, child in enumerate(children):
            last = index == len(children) - 1
            connector = " └─ " if last else " ├─ "
            extension = "    " if last else " │  "
            emit(child, child_prefix + connector, child_prefix + extension)

    emit(root, "", "")
    return "\n".join(lines)
