"""Feeding IR instructions through the stack tracker.

Shared by the compressor, the decompressor, and the component-analysis
harness, which is what guarantees all three compute identical
approximate stack states.
"""

from __future__ import annotations

from ..classfile.opcodes import OPCODES
from ..ir.model import IRInstruction
from .stack_state import StackTracker

#: mnemonic -> opcode value.
OPCODES_BY_NAME = {spec.mnemonic: opcode
                   for opcode, spec in OPCODES.items()}


def apply_instruction_state(tracker: StackTracker,
                            instruction: IRInstruction,
                            offset: int, metrics=None) -> None:
    """Update ``tracker`` across one (original, expanded) instruction,
    counting the step in ``metrics`` when one is given."""
    if metrics is not None:
        metrics.count("stack_state.applied")
        if not tracker.known:
            metrics.count("stack_state.unknown")
    spec = OPCODES[instruction.opcode]
    mnemonic = spec.mnemonic
    kwargs = {}
    if instruction.const is not None:
        kwargs["const_kind"] = instruction.const.kind
    if instruction.field_ref is not None:
        kwargs["field_descriptor"] = instruction.field_ref.type.descriptor
    if instruction.method_ref is not None:
        kwargs["method_descriptor"] = instruction.method_ref.descriptor
        kwargs["is_static_call"] = (mnemonic == "invokestatic")
    if mnemonic in ("new", "checkcast", "instanceof", "anewarray",
                    "multianewarray"):
        if instruction.type_ref is not None:
            kwargs["class_descriptor"] = instruction.type_ref.descriptor
        else:
            kwargs["class_descriptor"] = \
                f"L{instruction.class_ref.internal_name};"
        if mnemonic == "multianewarray":
            kwargs["dims"] = instruction.dims
    if instruction.atype is not None:
        kwargs["atype"] = instruction.atype
    if instruction.target is not None:
        kwargs["branch_target"] = instruction.target
    if spec.is_switch:
        kwargs["switch"] = True
    if instruction.local is not None:
        kwargs["local"] = instruction.local
    tracker.apply(mnemonic, offset, **kwargs)
