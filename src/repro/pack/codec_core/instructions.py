"""Bytecode codec: exception handlers, instructions, method bodies.

One definition per construct, executed by all three drivers.  The
genuinely directional pieces — stack-state collapse vs. expand,
pseudo-LDC substitution, offset-relative branch deltas — live inside
these shared functions as explicit ``decoding`` branches, so each wire
field still appears exactly once.

Operand routing comes from the mode-independent layout table
(:data:`repro.bytecode_codec.operands.OPERAND_CHANNELS`); the channel
→ stream mapping here is the wire-format half of that contract.
"""

from __future__ import annotations

from ...bytecode_codec.apply import OPCODES_BY_NAME, \
    apply_instruction_state
from ...bytecode_codec.operands import OPERAND_CHANNELS
from ...bytecode_codec.stack_state import StackTracker
from ...classfile.opcodes import OPCODES
from ...ir import model as ir
from ...observe import recorder as observe
from .. import wire
from .constructs import CLASS_REF, CONST, FIELD_REF, METHOD_REF, TYPE_REF
from .layout import ir_instruction_size
from .spec import DECODE, NO_CONTEXT, Node, delta

BRANCH = delta(wire.CODE_BRANCHES)


class _HandlerNode(Node):
    """An exception-table entry; the covered range is stored as
    (start, length)."""

    __slots__ = ()

    def run(self, drv, value):
        decoding = value is DECODE
        start = drv.uint(wire.CODE_EXC,
                         DECODE if decoding else value.start_pc)
        length = drv.uint(
            wire.CODE_EXC,
            DECODE if decoding else value.end_pc - value.start_pc)
        handler_pc = drv.uint(wire.CODE_EXC,
                              DECODE if decoding else value.handler_pc)
        catch = None
        has_catch = drv.u8(
            wire.CODE_EXC,
            DECODE if decoding else (0 if value.catch_type is None else 1))
        if has_catch:
            catch = CLASS_REF.run(
                drv, DECODE if decoding else value.catch_type)
        if decoding:
            return ir.IRExceptionHandler(start, start + length,
                                         handler_pc, catch)
        return value


HANDLER = _HandlerNode()


def _switch(drv, ins, spec, offset, decoding):
    """tableswitch / lookupswitch: default and targets as branch
    deltas, low/count/matches on the int stream."""
    ins.switch_default = BRANCH.run_from(
        drv, offset, DECODE if decoding else ins.switch_default)
    if spec.mnemonic == "tableswitch":
        low = drv.sint(wire.CODE_INTS,
                       DECODE if decoding else ins.switch_low)
        count = drv.uint(wire.CODE_INTS,
                         DECODE if decoding else len(ins.switch_pairs))
        ins.switch_low = low
        ins.switch_pairs = [
            (low + i if decoding else ins.switch_pairs[i][0],
             BRANCH.run_from(
                 drv, offset,
                 DECODE if decoding else ins.switch_pairs[i][1]))
            for i in range(count)]
    else:
        count = drv.uint(wire.CODE_INTS,
                         DECODE if decoding else len(ins.switch_pairs))
        pairs = []
        for i in range(count):
            match = drv.sint(
                wire.CODE_INTS,
                DECODE if decoding else ins.switch_pairs[i][0])
            target = BRANCH.run_from(
                drv, offset,
                DECODE if decoding else ins.switch_pairs[i][1])
            pairs.append((match, target))
        ins.switch_pairs = pairs
    return ins


def instruction(drv, tracker: StackTracker, offset: int,
                use_state: bool, value):
    """One instruction: the (pseudo/collapsed) opcode byte, then its
    operands routed to their streams."""
    decoding = value is DECODE
    if decoding:
        opcode_byte = drv.u8(wire.CODE_OPCODES, DECODE)
        pseudo = wire.PSEUDO_LDC_REVERSE.get(opcode_byte)
        if pseudo is not None:
            const_kind, wide_const = pseudo
            const = CONST.run_as(drv, DECODE, const_kind)
            if const_kind in ("long", "double"):
                opcode = wire.LDC2_W_OPCODE
            elif wide_const:
                opcode = wire.LDC_W_OPCODE
            else:
                opcode = wire.LDC_OPCODE
            return ir.IRInstruction(opcode, const=const,
                                    wide_const=wide_const)
        spec = OPCODES.get(opcode_byte)
        if spec is None:
            drv.fail(f"bad opcode byte {opcode_byte:#x}")
        mnemonic = tracker.expand(spec.mnemonic) if use_state \
            else spec.mnemonic
        ins = ir.IRInstruction(OPCODES_BY_NAME[mnemonic])
        spec = OPCODES[ins.opcode]
    else:
        ins = value
        spec = OPCODES[ins.opcode]
        mnemonic = spec.mnemonic
        drv.bump("bytecode.instructions")
        if ins.const is not None:
            drv.u8(wire.CODE_OPCODES,
                   wire.PSEUDO_LDC[(ins.const.kind, ins.wide_const)])
            drv.bump("bytecode.pseudo_ldc")
        else:
            emitted = tracker.collapse(mnemonic) if use_state \
                else mnemonic
            drv.u8(wire.CODE_OPCODES, OPCODES_BY_NAME[emitted])
            if emitted != mnemonic:
                drv.bump("bytecode.collapsed")
    if spec.is_switch:
        return _switch(drv, ins, spec, offset, decoding)
    for kind in spec.operands:
        attr, channel = OPERAND_CHANNELS[kind]
        if channel == "derived":
            continue  # regenerated from the descriptor
        if channel == "reg":
            setattr(ins, attr, drv.uint(
                wire.CODE_REGS,
                DECODE if decoding else getattr(ins, attr)))
        elif channel == "int":
            setattr(ins, attr, drv.sint(
                wire.CODE_INTS,
                DECODE if decoding else getattr(ins, attr)))
        elif channel == "uint":
            setattr(ins, attr, drv.uint(
                wire.CODE_INTS,
                DECODE if decoding else getattr(ins, attr)))
        elif channel == "branch":
            ins.target = BRANCH.run_from(
                drv, offset, DECODE if decoding else ins.target)
        elif channel == "const":
            if decoding:
                # Valid archives never carry a raw LDC opcode — the
                # encoder always substitutes a pseudo-opcode.
                drv.fail(f"unhandled operand kind {kind}")
            CONST.run_as(drv, ins.const, None)
        elif channel == "field":
            ins.field_ref = FIELD_REF.run_as(
                drv, DECODE if decoding else ins.field_ref,
                wire.FIELD_KINDS[ins.opcode], NO_CONTEXT)
        elif channel == "method":
            context = tracker.top_categories() if use_state \
                else NO_CONTEXT
            ins.method_ref = METHOD_REF.run_as(
                drv, DECODE if decoding else ins.method_ref,
                wire.INVOKE_KINDS[ins.opcode], context)
        elif channel == "class":
            is_type = drv.u8(
                wire.SHAPE,
                DECODE if decoding
                else (1 if ins.type_ref is not None else 0))
            if is_type:
                ins.type_ref = TYPE_REF.run(
                    drv, DECODE if decoding else ins.type_ref)
            else:
                ins.class_ref = CLASS_REF.run(
                    drv, DECODE if decoding else ins.class_ref)
        else:  # pragma: no cover - exhaustive over channels
            drv.fail(f"unhandled operand kind {kind}")
    return ins


def code_body(drv, value):
    """A Code attribute: frame sizes and counts on META, handlers,
    then the instruction walk with shared offset/stack-state
    bookkeeping."""
    decoding = value is DECODE
    max_stack = drv.uint(wire.META,
                         DECODE if decoding else value.max_stack)
    max_locals = drv.uint(wire.META,
                          DECODE if decoding else value.max_locals)
    n_instructions = drv.uint(
        wire.META, DECODE if decoding else len(value.instructions))
    n_handlers = drv.uint(wire.META,
                          DECODE if decoding else len(value.handlers))
    handlers = [HANDLER.run(drv,
                            DECODE if decoding else value.handlers[i])
                for i in range(n_handlers)]
    tracker = StackTracker()
    use_state = drv.options.stack_state
    # Stack-state work is reported by the encode and decode passes; the
    # count pass tracks the same instructions and reports nothing.
    metrics = None if drv.counting else observe.current().metrics
    instructions = []
    offset = 0
    for i in range(n_instructions):
        if use_state:
            tracker.at_instruction(offset)
        ins = instruction(drv, tracker, offset, use_state,
                          DECODE if decoding else value.instructions[i])
        if use_state:
            apply_instruction_state(tracker, ins, offset, metrics)
        offset += ir_instruction_size(ins, offset)
        instructions.append(ins)
    if decoding:
        return ir.IRCode(max_stack, max_locals, instructions, handlers)
    return value
