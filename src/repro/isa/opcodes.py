"""Operation classes and their execution resources.

The trace-driven simulator does not interpret instruction semantics; it
only needs to know, for each dynamic instruction, which functional unit
executes it, for how long, and whether it touches memory or redirects
fetch.  ``OpClass`` captures exactly that.
"""

from __future__ import annotations

import enum
from typing import Dict, Tuple

from ..common.config import FunctionalUnitConfig


class OpClass(enum.Enum):
    """Broad operation classes of the modelled ISA."""

    INT_ALU = "int_alu"
    INT_MUL = "int_mul"
    INT_DIV = "int_div"
    FP_ALU = "fp_alu"
    FP_MUL = "fp_mul"
    FP_DIV = "fp_div"
    LOAD = "load"
    FP_LOAD = "fp_load"
    STORE = "store"
    FP_STORE = "fp_store"
    BRANCH = "branch"
    NOP = "nop"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"OpClass.{self.name}"


#: Operation classes that read memory.
LOAD_CLASSES = frozenset({OpClass.LOAD, OpClass.FP_LOAD})
#: Operation classes that write memory.
STORE_CLASSES = frozenset({OpClass.STORE, OpClass.FP_STORE})
#: Operation classes handled by the memory pipeline.
MEMORY_CLASSES = LOAD_CLASSES | STORE_CLASSES
#: Operation classes handled by the floating-point issue queue.
FP_CLASSES = frozenset(
    {OpClass.FP_ALU, OpClass.FP_MUL, OpClass.FP_DIV, OpClass.FP_LOAD, OpClass.FP_STORE}
)


def is_load(op: OpClass) -> bool:
    """True for integer and floating-point loads."""
    return op in LOAD_CLASSES


def is_store(op: OpClass) -> bool:
    """True for integer and floating-point stores."""
    return op in STORE_CLASSES


def is_memory(op: OpClass) -> bool:
    """True for any memory operation."""
    return op in MEMORY_CLASSES


def is_branch(op: OpClass) -> bool:
    """True for control-transfer instructions."""
    return op is OpClass.BRANCH


def is_fp(op: OpClass) -> bool:
    """True if the instruction is steered to the floating-point queue."""
    return op in FP_CLASSES


#: ``(is_load, is_store, is_memory, is_branch)`` of every operation class:
#: ``Instruction`` reads its four classification flags with one lookup
#: here instead of four predicate calls.
OP_FLAGS: Dict[OpClass, Tuple[bool, bool, bool, bool]] = {
    op: (is_load(op), is_store(op), is_memory(op), is_branch(op)) for op in OpClass
}


class FUType(enum.Enum):
    """The functional-unit pools of Table 1."""

    INT_ALU = "int_alu"
    INT_MULDIV = "int_muldiv"
    FP = "fp"
    MEM_PORT = "mem_port"
    NONE = "none"


#: Which functional-unit pool executes each operation class.
FU_FOR_OP: Dict[OpClass, FUType] = {
    OpClass.INT_ALU: FUType.INT_ALU,
    OpClass.INT_MUL: FUType.INT_MULDIV,
    OpClass.INT_DIV: FUType.INT_MULDIV,
    OpClass.FP_ALU: FUType.FP,
    OpClass.FP_MUL: FUType.FP,
    OpClass.FP_DIV: FUType.FP,
    OpClass.LOAD: FUType.MEM_PORT,
    OpClass.FP_LOAD: FUType.MEM_PORT,
    OpClass.STORE: FUType.MEM_PORT,
    OpClass.FP_STORE: FUType.MEM_PORT,
    OpClass.BRANCH: FUType.INT_ALU,
    OpClass.NOP: FUType.NONE,
}


def execution_latency(op: OpClass, fu: FunctionalUnitConfig) -> int:
    """Pipeline latency of ``op`` on the configured functional units.

    Loads and stores return the address-generation latency only; the
    cache/memory access time is added by the memory hierarchy model.
    """
    if op is OpClass.INT_ALU or op is OpClass.BRANCH:
        return fu.int_alu_latency
    if op is OpClass.INT_MUL:
        return fu.int_mul_latency
    if op is OpClass.INT_DIV:
        return fu.int_div_latency
    if op is OpClass.FP_ALU or op is OpClass.FP_MUL:
        return fu.fp_latency
    if op is OpClass.FP_DIV:
        return fu.fp_div_latency
    if op in MEMORY_CLASSES:
        return fu.agen_latency
    return 1


def is_pipelined(op: OpClass) -> bool:
    """Whether the functional unit accepts a new instruction every cycle.

    Only the integer and floating point dividers are unpipelined
    (replay interval equals latency, per Table 1).
    """
    return op not in (OpClass.INT_DIV, OpClass.FP_DIV)
