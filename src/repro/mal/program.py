"""Linear MAL-style program representation.

A compiled query is a straight-line list of :class:`Instruction` values in
SSA form: each instruction writes exactly one fresh variable.  This mirrors
MonetDB's MAL plans and is what makes the second optimization level of the
paper (common sub-expression elimination) a dictionary lookup during code
generation, and the parallel "mitosis" of pipeline fragments a
per-instruction property.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["Instruction", "MALProgram"]


@dataclass
class Instruction:
    """One MAL instruction: ``X_var := op(args...)``.

    ``parallelizable`` marks instructions the morsel executor may run per
    morsel inside a pipeline fragment (paper Figure 2: operators are either
    "blocking" or "parallelizable").
    """

    var: int
    op: str
    args: tuple
    parallelizable: bool = False

    #: argument positions holding literal ints (not variable references)
    _LITERAL_INT_ARGS = {"bind": {1}, "head": {1, 2}, "topn": {3, 4}}

    def render(self) -> str:
        """Human-readable MAL-ish spelling (used by EXPLAIN and tests)."""
        literal_positions = self._LITERAL_INT_ARGS.get(self.op, set())
        parts = []
        for index, arg in enumerate(self.args):
            if isinstance(arg, bool):
                parts.append(str(arg))
            elif isinstance(arg, int) and index not in literal_positions:
                parts.append(f"X_{arg}")
            elif isinstance(arg, tuple) and arg and all(
                isinstance(a, int) and not isinstance(a, bool) for a in arg
            ):
                parts.append("[" + ", ".join(f"X_{a}" for a in arg) + "]")
            else:
                text = str(arg)
                parts.append(text if len(text) <= 40 else text[:37] + "...")
        tag = " {parallel}" if self.parallelizable else ""
        return f"X_{self.var} := {self.op}({', '.join(parts)}){tag}"


@dataclass
class MALProgram:
    """A compiled query: instructions plus the result description."""

    instructions: list = field(default_factory=list)
    nvars: int = 0
    column_names: list = field(default_factory=list)

    def render(self) -> str:
        """Full program listing (the EXPLAIN output)."""
        return "\n".join(instr.render() for instr in self.instructions)

    @property
    def result_instruction(self) -> Instruction:
        return self.instructions[-1]
