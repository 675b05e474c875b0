"""Compiled codec backend: the spec, specialized into closures.

The interpreted drivers (:mod:`repro.pack.codec_core.driver`) execute
the combinator tree in :mod:`~repro.pack.codec_core.spec` node by
node: every wire field costs a ``Node.run`` dispatch, a
``port.stream(name)`` lookup, and a driver method call.  That is the
reference implementation — obviously correct, trivially lockstep —
but it is also the hot path for every byte of every archive.

This module walks each registered :class:`WireSpec` once (at registry
time, via :func:`warm`) and emits *specialized* encode/decode/count
closures:

* per-opcode **plan table** — operand routing, canonical sizes, and
  stack-effect closures resolved ahead of time instead of per
  instruction;
* **direct buffer writes** — varints appended to stream bytearrays
  through inlined fast paths, no driver or stream-lookup layers;
* **whole-stream varint prescan** on decode — every varint-only
  stream is decoded in one pass up front
  (:func:`~repro.coding.varint.decode_uvarints`), so per-value reads
  become list indexing;
* **zero-copy fixed-width decode** — ``struct.Struct.unpack_from``
  straight off the stream buffer;
* a **list-based MTF core** that replaces the indexable skiplist for
  the compiled backend (front-biased reference locality makes a plain
  list faster than the skiplist's node machinery at archive scale).

Byte-identity with the interpreted drivers is the contract: both
backends must produce and consume exactly the same streams (the
lockstep suite in ``tests/test_codec_backend.py`` enforces this across
the scheme matrix and the golden fixtures).  The one permitted
divergence is instrumentation detail: the compiled MTF core has no
skiplist, so ``skiplist.*`` metrics are only emitted by the
interpreted backend.
"""

from __future__ import annotations

import dataclasses
import struct
from typing import Any, Dict, Hashable, List, Optional, Tuple

from ...bytecode_codec.apply import OPCODES_BY_NAME
from ...bytecode_codec.operands import OPERAND_CHANNELS
from ...bytecode_codec.stack_state import (
    ARITH_FAMILIES,
    ALOAD_FAMILY,
    ASTORE_FAMILY,
    SECOND,
    SHIFT_FAMILIES,
    StackTracker,
    _MEMBER_TO_FAMILY,
    _Unknown,
    _push_type,
    value_category,
)
from ...classfile import mutf8
from ...classfile.opcodes import (
    ATYPE_DESCRIPTORS,
    OPCODES,
    OperandKind as K,
)
from ...coding.varint import decode_uvarints, write_uvarint
from ...errors import PackError, UnpackError
from ...ir import model as ir
from ...mtf.queue import NEW, NEW_TRANSIENT, MtfError
from ...observe import recorder as observe
from ...refs.base import PairCoder
from ...refs.schemes import MtfDecoder, MtfEncoder
from .. import wire
from . import archive as archive_mod
from .spec import NO_CONTEXT

__all__ = [
    "CompiledCodec",
    "FastMtfDecoder",
    "FastMtfEncoder",
    "compiled_codec",
    "make_fast_mtf_coder",
    "warm",
]


# ---------------------------------------------------------------------
# Fast MTF core: plain-list move-to-front queues
# ---------------------------------------------------------------------


class _FastMtfCore:
    """Drop-in replacement for :class:`repro.mtf.queue.MtfCoder` backed
    by plain Python lists.

    The skiplist gives O(log n) moves, but reference locality keeps
    MTF positions near the front, where a list's ``index``/``insert``
    (single C-level scans) beat the skiplist's per-node Python work.
    State transitions replicate ``MtfCoder`` exactly — same index
    space, same lazy context seeding, same metrics — so the wire bytes
    are identical.  (Seeds only affect skiplist node heights, so a
    list core has no use for them.)
    """

    __slots__ = ("transients", "_shift", "_queues", "_registry",
                 "_known", "_metrics")

    def __init__(self, transients: bool = False):
        self.transients = transients
        self._shift = 1 if transients else 0
        self._queues: Dict[Hashable, List[Hashable]] = {}
        #: registration order of every non-transient key.
        self._registry: List[Hashable] = []
        self._known: Dict[Hashable, Any] = {}
        self._metrics = observe.current().metrics

    def _queue(self, context: Hashable) -> List[Hashable]:
        queue = self._queues.get(context)
        if queue is None:
            if self._metrics is not None:
                self._metrics.count("mtf.contexts")
                self._metrics.observe("mtf.context_seed_size",
                                      len(self._registry))
            # Seed so the front is the most recently registered object
            # (same state the queue would have had all along).
            queue = self._registry[::-1]
            self._queues[context] = queue
        return queue

    def _register(self, key: Hashable, value: Any) -> None:
        self._registry.append(key)
        self._known[key] = value
        for queue in self._queues.values():
            queue.insert(0, key)

    def knows(self, key: Hashable) -> bool:
        return key in self._known

    def encode(self, context: Hashable, key: Hashable,
               transient: bool = False,
               value: Any = None) -> Tuple[int, bool]:
        queue = self._queue(context)
        if key in self._known:
            position = queue.index(key)
            if position:
                del queue[position]
                queue.insert(0, key)
            return position + 1 + self._shift, False
        if self.transients and transient:
            return NEW_TRANSIENT, True
        self._register(key, value if value is not None else key)
        return NEW, True

    def decode_is_new(self, index: int) -> bool:
        if self.transients:
            return index in (NEW, NEW_TRANSIENT)
        return index == NEW

    def decode_known(self, context: Hashable, index: int) -> Any:
        position = index - 1 - self._shift
        queue = self._queue(context)
        if not 0 <= position < len(queue):
            raise MtfError(
                f"MTF index {index} out of range for queue of size "
                f"{len(queue)}")
        key = queue[position]
        if position:
            del queue[position]
            queue.insert(0, key)
        return self._known[key]

    def decode_new(self, index: int, key: Hashable, value: Any) -> None:
        if self.transients and index == NEW_TRANSIENT:
            return
        self._register(key, value)


class FastMtfEncoder(MtfEncoder):
    """The Section 5 MTF encoder over the list-backed core."""

    def __init__(self, use_context: bool, transients: bool, seed: int = 0):
        super().__init__(use_context=use_context, transients=transients,
                         seed=seed)
        self._coder = _FastMtfCore(transients=transients)


class FastMtfDecoder(MtfDecoder):
    """The matching decoder half over the list-backed core."""

    def __init__(self, use_context: bool, transients: bool, seed: int = 0):
        super().__init__(use_context=use_context, transients=transients,
                         seed=seed)
        self._coder = _FastMtfCore(transients=transients)


def make_fast_mtf_coder(use_context: bool, transients: bool,
                        seed: int = 0) -> PairCoder:
    """A dual-mode MTF coder on the list core (wire-identical to the
    skiplist coder; ``preload`` keeps working through ``_coder``)."""
    return PairCoder(
        FastMtfEncoder(use_context=use_context, transients=transients,
                       seed=seed),
        FastMtfDecoder(use_context=use_context, transients=transients,
                       seed=seed))


# ---------------------------------------------------------------------
# Per-opcode plan table
# ---------------------------------------------------------------------

# Operand routing codes (resolved from OPERAND_CHANNELS at build time).
_OP_REG = 0
_OP_INT = 1
_OP_ATYPE = 2
_OP_DIMS = 3
_OP_BRANCH = 4
_OP_CONST = 5
_OP_FIELD = 6
_OP_METHOD = 7
_OP_CLASS = 8

# Control-flow classes for the stack tracker.
_FLOW_NORMAL = 0   # run the effect; maybe save a forward branch
_FLOW_GOTO = 2     # save the forward branch, then state unknown
_FLOW_KILL = 3     # state unknown (switch/return/athrow/ret/jsr)

_LDC_PUSH = {"int": "I", "float": "F", "long": "J", "double": "D",
             "string": "Ljava/lang/String;"}
_LOAD_PUSH = {"i": "I", "l": "J", "f": "F", "d": "D", "a": "A"}
_ALOAD_ELEM = {"iaload": "I", "laload": "J", "faload": "F",
               "daload": "D", "baload": "I", "caload": "I",
               "saload": "I"}
_CONV_PUSH = {"i": "I", "l": "J", "f": "F", "d": "D", "b": "B",
              "c": "C", "s": "S"}


def _pop(stack: List[str]) -> str:
    """`StackTracker._pop_value` for effect closures: pop one value,
    skipping a wide value's second-half slot."""
    if not stack:
        raise _Unknown("underflow")
    top = stack.pop()
    if top == SECOND:
        if not stack:
            raise _Unknown("underflow")
        return stack.pop()
    return top


def _pop_slot(stack: List[str]) -> str:
    if not stack:
        raise _Unknown("underflow")
    return stack.pop()


def _class_descriptor(ins) -> str:
    if ins.type_ref is not None:
        return ins.type_ref.descriptor
    return f"L{ins.class_ref.internal_name};"


def _effect_for(mnemonic: str):
    """A closure ``effect(stack, ins)`` replicating one case of
    ``StackTracker._apply_effect`` (same cascade, same errors), or
    ``None`` when the effect is unmodelable (state becomes unknown)."""
    m = mnemonic
    if m in ("nop", "iinc"):
        return lambda stack, ins: None
    if m == "aconst_null":
        return lambda stack, ins: stack.append("N")
    if m.startswith("iconst") or m in ("bipush", "sipush"):
        return lambda stack, ins: stack.append("I")
    if m.startswith("lconst"):
        return lambda stack, ins: _push_type(stack, "J")
    if m.startswith("fconst"):
        return lambda stack, ins: stack.append("F")
    if m.startswith("dconst"):
        return lambda stack, ins: _push_type(stack, "D")
    if m in ("ldc", "ldc_w", "ldc2_w"):
        return lambda stack, ins: _push_type(stack,
                                             _LDC_PUSH[ins.const.kind])
    if m[1:] in ("load", "load_0", "load_1", "load_2", "load_3") and \
            m[0] in "ilfda":
        pushed = _LOAD_PUSH[m[0]]
        return lambda stack, ins: _push_type(stack, pushed)
    if m == "aaload":
        def _aaload(stack, ins):
            _pop(stack)
            array_type = _pop(stack)
            if array_type.startswith("["):
                _push_type(stack, array_type[1:])
            else:
                stack.append("A")
        return _aaload
    if m in ALOAD_FAMILY.values():
        element = _ALOAD_ELEM[m]

        def _xaload(stack, ins):
            _pop(stack)
            _pop(stack)
            _push_type(stack, element)
        return _xaload
    if m[1:] in ("store", "store_0", "store_1", "store_2",
                 "store_3") and m[0] in "ilfda":
        return lambda stack, ins: _pop(stack)
    if m in ASTORE_FAMILY.values():
        def _xastore(stack, ins):
            _pop(stack)
            _pop(stack)
            _pop(stack)
        return _xastore
    if m == "pop":
        return lambda stack, ins: _pop_slot(stack)
    if m == "pop2":
        def _pop2(stack, ins):
            _pop_slot(stack)
            _pop_slot(stack)
        return _pop2
    if m == "dup":
        return lambda stack, ins: stack.append(stack[-1])
    if m == "dup_x1":
        return lambda stack, ins: stack.insert(len(stack) - 2, stack[-1])
    if m == "dup_x2":
        return lambda stack, ins: stack.insert(len(stack) - 3, stack[-1])
    if m == "dup2":
        return lambda stack, ins: stack.extend(stack[-2:])
    if m == "dup2_x1":
        def _dup2_x1(stack, ins):
            tail = stack[-2:]
            stack[len(stack) - 3:len(stack) - 3] = tail
        return _dup2_x1
    if m == "dup2_x2":
        def _dup2_x2(stack, ins):
            tail = stack[-2:]
            stack[len(stack) - 4:len(stack) - 4] = tail
        return _dup2_x2
    if m == "swap":
        def _swap(stack, ins):
            stack[-1], stack[-2] = stack[-2], stack[-1]
        return _swap
    entry = _MEMBER_TO_FAMILY.get(m)
    if entry is not None and entry[0] in ARITH_FAMILIES:
        if m.endswith("neg"):
            def _neg(stack, ins):
                value = _pop(stack)
                _push_type(stack, value_category(value))
            return _neg

        def _binary(stack, ins):
            _pop(stack)
            left = _pop(stack)
            _push_type(stack, value_category(left))
        return _binary
    if entry is not None and entry[0] in SHIFT_FAMILIES:
        def _shift(stack, ins):
            _pop(stack)  # shift amount
            value = _pop(stack)
            _push_type(stack, value_category(value))
        return _shift
    if m[0] in "ilfd" and "2" in m and len(m) == 3:
        pushed = _CONV_PUSH[m[2]]

        def _convert(stack, ins):
            _pop(stack)
            _push_type(stack, pushed)
        return _convert
    if m in ("lcmp", "fcmpl", "fcmpg", "dcmpl", "dcmpg"):
        def _compare(stack, ins):
            _pop(stack)
            _pop(stack)
            stack.append("I")
        return _compare
    if m in ("ifeq", "ifne", "iflt", "ifge", "ifgt", "ifle",
             "ifnull", "ifnonnull"):
        return lambda stack, ins: _pop(stack)
    if m.startswith(("if_icmp", "if_acmp")):
        def _if2(stack, ins):
            _pop(stack)
            _pop(stack)
        return _if2
    if m == "getstatic":
        return lambda stack, ins: _push_type(
            stack, ins.field_ref.type.descriptor)
    if m == "getfield":
        def _getfield(stack, ins):
            _pop(stack)
            _push_type(stack, ins.field_ref.type.descriptor)
        return _getfield
    if m == "putstatic":
        return lambda stack, ins: _pop(stack)
    if m == "putfield":
        def _putfield(stack, ins):
            _pop(stack)
            _pop(stack)
        return _putfield
    if m in ("invokevirtual", "invokespecial", "invokestatic",
             "invokeinterface"):
        is_static_call = m == "invokestatic"

        def _invoke(stack, ins):
            method_ref = ins.method_ref
            for _ in method_ref.arg_types:
                _pop(stack)
            if not is_static_call:
                _pop(stack)
            _push_type(stack, method_ref.return_type.descriptor)
        return _invoke
    if m == "new":
        return lambda stack, ins: _push_type(stack, _class_descriptor(ins))
    if m == "newarray":
        def _newarray(stack, ins):
            _pop(stack)
            stack.append("[" + ATYPE_DESCRIPTORS[ins.atype])
        return _newarray
    if m == "anewarray":
        def _anewarray(stack, ins):
            _pop(stack)
            stack.append("[" + _class_descriptor(ins))
        return _anewarray
    if m == "multianewarray":
        def _multi(stack, ins):
            for _ in range(ins.dims):
                _pop(stack)
            _push_type(stack, _class_descriptor(ins))
        return _multi
    if m == "arraylength":
        def _arraylength(stack, ins):
            _pop(stack)
            stack.append("I")
        return _arraylength
    if m == "checkcast":
        def _checkcast(stack, ins):
            _pop(stack)
            _push_type(stack, _class_descriptor(ins))
        return _checkcast
    if m == "instanceof":
        def _instanceof(stack, ins):
            _pop(stack)
            stack.append("I")
        return _instanceof
    if m in ("monitorenter", "monitorexit"):
        return lambda stack, ins: _pop(stack)
    return None  # unmodelable (e.g. the bare `wide` prefix)


class _Plan:
    """Everything the compiled passes need about one opcode."""

    __slots__ = ("opcode", "mnemonic", "ops", "is_switch", "is_table",
                 "in_family", "is_canonical", "size", "wide_size",
                 "has_local", "is_iinc", "flow", "effect", "field_kind",
                 "invoke_kind", "const_op_kind", "template")

    def __init__(self, spec):
        m = spec.mnemonic
        self.opcode = spec.opcode
        # Prebuilt instance ``__dict__`` for decode: one C-level dict
        # copy replaces the 15-field dataclass ``__init__`` call.
        self.template = {field.name: field.default
                         for field in dataclasses.fields(
                             ir.IRInstruction)}
        self.template["opcode"] = spec.opcode
        self.mnemonic = m
        self.is_switch = bool(spec.is_switch)
        self.is_table = m == "tableswitch"
        entry = _MEMBER_TO_FAMILY.get(m)
        self.in_family = entry is not None
        self.is_canonical = entry is not None and entry[0] == m
        self.field_kind = wire.FIELD_KINDS.get(spec.opcode)
        self.invoke_kind = wire.INVOKE_KINDS.get(spec.opcode)
        self.const_op_kind = None
        self.has_local = (not self.is_switch and
                          K.LOCAL in spec.operands)
        self.is_iinc = m == "iinc"
        if self.is_switch:
            self.flow = _FLOW_KILL
        elif m in ("goto", "goto_w"):
            self.flow = _FLOW_GOTO
        elif m in ("ireturn", "lreturn", "freturn", "dreturn",
                   "areturn", "return", "athrow", "ret", "jsr",
                   "jsr_w"):
            self.flow = _FLOW_KILL
        else:
            self.flow = _FLOW_NORMAL
        self.effect = _effect_for(m) if self.flow == _FLOW_NORMAL \
            else None
        ops = []
        size = 1
        wide_size = 2
        if not self.is_switch:
            for kind in spec.operands:
                attr, channel = OPERAND_CHANNELS[kind]
                if channel == "reg":
                    ops.append(_OP_REG)
                elif channel == "int":
                    ops.append(_OP_INT)
                elif channel == "uint":
                    ops.append(_OP_ATYPE if attr == "atype"
                               else _OP_DIMS)
                elif channel == "branch":
                    ops.append(_OP_BRANCH)
                elif channel == "const":
                    ops.append(_OP_CONST)
                    self.const_op_kind = kind
                elif channel == "field":
                    ops.append(_OP_FIELD)
                elif channel == "method":
                    ops.append(_OP_METHOD)
                elif channel == "class":
                    ops.append(_OP_CLASS)
                # channel == "derived": nothing on the wire
                if kind == K.LOCAL or kind == K.IINC_DELTA:
                    size += 1
                    wide_size += 2
                elif kind in (K.SBYTE, K.ATYPE, K.DIMS, K.COUNT,
                              K.ZERO, K.CP_LDC):
                    size += 1
                    wide_size += 1
                elif kind in (K.SSHORT, K.BRANCH2, K.CP_LDC_W,
                              K.CP_LDC2_W, K.CP_FIELD, K.CP_METHOD,
                              K.CP_IMETHOD, K.CP_CLASS):
                    size += 2
                    wide_size += 2
                elif kind == K.BRANCH4:
                    size += 4
                    wide_size += 4
        self.ops = tuple(ops)
        self.size = size
        self.wide_size = wide_size


_PLANS: Dict[int, _Plan] = {opcode: _Plan(spec)
                            for opcode, spec in OPCODES.items()}
_PLANS_BY_NAME: Dict[str, _Plan] = {plan.mnemonic: plan
                                    for plan in _PLANS.values()}

#: One decode dispatch table: opcode byte -> _Plan, or the
#: ``(const_kind, wide_const)`` pseudo-LDC tuple.  Pseudo bytes win on
#: any overlap, exactly like the interpreted decoder's
#: check-pseudo-first ordering.
_DECODE_DISPATCH: Dict[int, object] = dict(_PLANS)
_DECODE_DISPATCH.update(wire.PSEUDO_LDC_REVERSE)


def _apply_state(tracker: StackTracker, plan: _Plan, ins,
                 offset: int) -> None:
    """`StackTracker.apply` specialized through the plan table."""
    flow = plan.flow
    if flow == _FLOW_NORMAL:
        stack = tracker.stack
        if stack is None:
            return
        effect = plan.effect
        if effect is None:
            tracker.stack = None
            return
        try:
            effect(stack, ins)
        except _Unknown:
            tracker.stack = None
            return
        target = ins.target
        if target is not None and target > offset and \
                tracker.pending is None:
            tracker.pending = (target, list(stack))
    elif flow == _FLOW_GOTO:
        target = ins.target
        if target is not None and target > offset and \
                tracker.pending is None and tracker.stack is not None:
            tracker.pending = (target, list(tracker.stack))
        tracker.stack = None
    else:
        tracker.stack = None


def _instruction_advance(plan: _Plan, ins, offset: int) -> int:
    """``offset`` after ``ins`` (inlined ``ir_instruction_size``)."""
    if plan.is_switch:
        padding = (4 - (offset + 1) % 4) % 4
        if ins.switch_low is not None:
            return offset + 1 + padding + 12 + 4 * len(ins.switch_pairs)
        return offset + 1 + padding + 8 + 8 * len(ins.switch_pairs)
    if plan.has_local and (
            (ins.local is not None and ins.local > 0xFF) or
            (plan.is_iinc and ins.immediate is not None and
             not -128 <= ins.immediate <= 127)):
        return offset + plan.wide_size
    return offset + plan.size


# ---------------------------------------------------------------------
# Compiled count pass
# ---------------------------------------------------------------------


def _count_classes(classes, options, seen=None):
    """Reference-frequency census over a class sequence, specialized.

    Mirrors the interpreted walk's visit order and first-visit gating
    exactly (so ``seen`` carry-over from preloads behaves the same),
    but skips every wire concern: no streams, no varints, no text, and
    no stack tracking — reference counts never depend on stack state.
    """
    counts: Dict[str, Dict[Tuple[str, Hashable], int]] = {
        space: {} for space in wire.SPACES}
    if seen is None:
        seen = {space: set() for space in wire.SPACES}

    c_package = counts["package"]
    c_simple = counts["simple"]
    c_class = counts["class"]
    c_mname = counts["methodname"]
    c_fname = counts["fieldname"]
    c_method = counts["method"]
    c_field = counts["field"]
    c_string = counts["string"]
    s_package = seen["package"]
    s_simple = seen["simple"]
    s_class = seen["class"]
    s_mname = seen["methodname"]
    s_fname = seen["fieldname"]
    s_method = seen["method"]
    s_field = seen["field"]
    s_string = seen["string"]

    def cnt_class(value):
        slot = ("class", value)
        c_class[slot] = c_class.get(slot, 0) + 1
        if value in s_class:
            return
        s_class.add(value)
        pkg = value.package
        slot = ("package", pkg)
        c_package[slot] = c_package.get(slot, 0) + 1
        if pkg not in s_package:
            s_package.add(pkg)
        simple = value.simple
        slot = ("simple", simple)
        c_simple[slot] = c_simple.get(slot, 0) + 1
        if simple not in s_simple:
            s_simple.add(simple)

    def cnt_type(value):
        base = value.base
        if isinstance(base, ir.ClassRef):
            cnt_class(base)

    def cnt_method(kind, value):
        slot = (kind, value)
        c_method[slot] = c_method.get(slot, 0) + 1
        if value in s_method:
            return
        s_method.add(value)
        cnt_class(value.owner)
        name = value.name
        slot = ("methodname", name)
        c_mname[slot] = c_mname.get(slot, 0) + 1
        if name not in s_mname:
            s_mname.add(name)
        cnt_type(value.return_type)
        for arg in value.arg_types:
            cnt_type(arg)

    def cnt_field(kind, value):
        slot = (kind, value)
        c_field[slot] = c_field.get(slot, 0) + 1
        if value in s_field:
            return
        s_field.add(value)
        cnt_class(value.owner)
        name = value.name
        slot = ("fieldname", name)
        c_fname[slot] = c_fname.get(slot, 0) + 1
        if name not in s_fname:
            s_fname.add(name)
        cnt_type(value.type)

    def cnt_const(const):
        if const.kind == "string":
            value = const.value
            slot = ("string", value)
            c_string[slot] = c_string.get(slot, 0) + 1
            if value not in s_string:
                s_string.add(value)

    plans = _PLANS

    for class_def in classes:
        cnt_class(class_def.this_class)
        if class_def.access_flags & ir.FLAG_HAS_SUPER:
            cnt_class(class_def.super_class)
        for interface in class_def.interfaces:
            cnt_class(interface)
        for field_def in class_def.fields:
            cnt_field("field.def", field_def.ref)
            if field_def.access_flags & ir.FLAG_HAS_CONSTANT:
                cnt_const(field_def.constant)
        for method_def in class_def.methods:
            cnt_method("method.def", method_def.ref)
            if method_def.access_flags & ir.FLAG_HAS_EXCEPTIONS:
                for exception in method_def.exceptions:
                    cnt_class(exception)
            if not method_def.access_flags & ir.FLAG_HAS_CODE:
                continue
            code = method_def.code
            for handler in code.handlers:
                if handler.catch_type is not None:
                    cnt_class(handler.catch_type)
            for ins in code.instructions:
                const = ins.const
                if const is not None:
                    cnt_const(const)
                    continue
                plan = plans[ins.opcode]
                field_kind = plan.field_kind
                if field_kind is not None:
                    cnt_field(field_kind, ins.field_ref)
                    continue
                invoke_kind = plan.invoke_kind
                if invoke_kind is not None:
                    cnt_method(invoke_kind, ins.method_ref)
                elif _OP_CLASS in plan.ops:
                    if ins.type_ref is not None:
                        cnt_type(ins.type_ref)
                    else:
                        cnt_class(ins.class_ref)
    return counts


# ---------------------------------------------------------------------
# Compiled encode pass
# ---------------------------------------------------------------------

_U32 = struct.Struct(">I")
_U64 = struct.Struct(">Q")


def _encode_classes(classes, options, coders, streams, metrics=None):
    """Write a class sequence to ``streams``, specialized: the
    interpreted :func:`~repro.pack.codec_core.archive.class_sequence`
    walk, with no class count on the wire.

    Byte-identity depends on two invariants beyond value equality:
    streams must be *created* in the interpreted walk's order (stream
    creation order is the container's frame order), and every coder
    call must happen at the same walk position (reference-coder state
    is order-sensitive).  Both follow from mirroring the interpreted
    traversal statement by statement; only the per-value plumbing is
    inlined away.  Coders and streams belong to the caller, so two
    calls on the same pair write exactly what one call over the
    concatenated sequence writes.
    """
    use_state = options.stack_state
    mx = observe.current().metrics

    stream = streams.stream
    bufs: Dict[str, bytearray] = {}

    def buf(name):
        b = bufs.get(name)
        if b is None:
            b = stream(name).buf
            bufs[name] = b
        return b

    ref_writers: Dict[str, Any] = {}

    def ref_writer(space):
        writer = ref_writers.get(space)
        if writer is None:
            writer = stream(wire.SPACES[space])
            ref_writers[space] = writer
        return writer

    def w_uv(b, value):
        if 0 <= value < 0x80:
            b.append(value)
        else:
            write_uvarint(b, value)

    def w_sv(b, value):
        zigzagged = value + value if value >= 0 else -value - value - 1
        if zigzagged < 0x80:
            b.append(zigzagged)
        else:
            write_uvarint(b, zigzagged)

    def enc_text(len_name, chars_name, value):
        if value.isascii() and "\0" not in value:
            encoded = value.encode("ascii")
        else:
            encoded = mutf8.encode(value)
        w_uv(buf(len_name), len(encoded))
        buf(chars_name).extend(encoded)

    co_package = coders["package"]
    co_simple = coders["simple"]
    co_class = coders["class"]
    co_mname = coders["methodname"]
    co_fname = coders["fieldname"]
    co_method = coders["method"]
    co_field = coders["field"]
    co_string = coders["string"]

    def enc_package(value):
        if co_package.encode(ref_writer("package"),
                             ("package", NO_CONTEXT), value):
            enc_text(wire.STR_PKG_LEN, wire.STR_PKG_CHARS, value.name)

    def enc_simple(value):
        if co_simple.encode(ref_writer("simple"),
                            ("simple", NO_CONTEXT), value):
            enc_text(wire.STR_CLS_LEN, wire.STR_CLS_CHARS, value.name)

    def enc_class(value):
        if co_class.encode(ref_writer("class"),
                           ("class", NO_CONTEXT), value):
            enc_package(value.package)
            enc_simple(value.simple)

    def enc_mname(value):
        if co_mname.encode(ref_writer("methodname"),
                           ("methodname", NO_CONTEXT), value):
            enc_text(wire.STR_MNAME_LEN, wire.STR_MNAME_CHARS,
                     value.name)

    def enc_fname(value):
        if co_fname.encode(ref_writer("fieldname"),
                           ("fieldname", NO_CONTEXT), value):
            enc_text(wire.STR_FNAME_LEN, wire.STR_FNAME_CHARS,
                     value.name)

    def enc_type(value):
        shape = buf(wire.SHAPE)
        w_uv(shape, value.dims)
        base = value.base
        if isinstance(base, ir.ClassRef):
            shape.append(0)
            enc_class(base)
        else:
            shape.append(ir.PRIMITIVE_CODES[base])

    def enc_method(kind, context, value):
        if co_method.encode(ref_writer("method"), (kind, context),
                            value):
            enc_class(value.owner)
            enc_mname(value.name)
            enc_type(value.return_type)
            arg_types = value.arg_types
            w_uv(buf(wire.SHAPE), len(arg_types))
            for arg in arg_types:
                enc_type(arg)

    def enc_field(kind, value):
        if co_field.encode(ref_writer("field"), (kind, NO_CONTEXT),
                           value):
            enc_class(value.owner)
            enc_fname(value.name)
            enc_type(value.type)

    def enc_string(value):
        if co_string.encode(ref_writer("string"),
                            ("string", NO_CONTEXT), value):
            enc_text(wire.STR_CONST_LEN, wire.STR_CONST_CHARS, value)

    def enc_const(const):
        kind = const.kind
        if kind == "int":
            w_sv(buf(wire.CONST_INT), const.value)
        elif kind == "long":
            w_sv(buf(wire.CONST_LONG), const.value)
        elif kind == "float":
            buf(wire.CONST_FLOAT).extend(_U32.pack(const.value))
        elif kind == "double":
            buf(wire.CONST_DOUBLE).extend(_U64.pack(const.value))
        elif kind == "string":
            enc_string(const.value)
        else:
            raise PackError(f"unknown constant kind {kind}")

    def enc_handler(handler):
        exc = buf(wire.CODE_EXC)
        w_uv(exc, handler.start_pc)
        w_uv(exc, handler.end_pc - handler.start_pc)
        w_uv(exc, handler.handler_pc)
        catch = handler.catch_type
        if catch is None:
            exc.append(0)
        else:
            exc.append(1)
            enc_class(catch)

    plans = _PLANS
    by_name = OPCODES_BY_NAME
    pseudo_table = wire.PSEUDO_LDC
    total_instructions = 0
    pseudo_ldc = 0
    collapsed = 0
    applied = 0
    unknown = 0

    def enc_code(code):
        nonlocal total_instructions, pseudo_ldc, collapsed, applied, \
            unknown
        meta = buf(wire.META)
        w_uv(meta, code.max_stack)
        w_uv(meta, code.max_locals)
        instructions = code.instructions
        w_uv(meta, len(instructions))
        handlers = code.handlers
        w_uv(meta, len(handlers))
        for handler in handlers:
            enc_handler(handler)
        tracker = StackTracker()
        offset = 0
        for ins in instructions:
            if use_state and tracker.pending is not None:
                tracker.at_instruction(offset)
            plan = plans[ins.opcode]
            total_instructions += 1
            opcodes_buf = buf(wire.CODE_OPCODES)
            const = ins.const
            if const is not None:
                opcodes_buf.append(
                    pseudo_table[(const.kind, ins.wide_const)])
                pseudo_ldc += 1
            elif use_state and plan.in_family and \
                    tracker.stack is not None:
                emitted = tracker.collapse(plan.mnemonic)
                if emitted != plan.mnemonic:
                    opcodes_buf.append(by_name[emitted])
                    collapsed += 1
                else:
                    opcodes_buf.append(plan.opcode)
            else:
                opcodes_buf.append(plan.opcode)
            if plan.is_switch:
                branches = buf(wire.CODE_BRANCHES)
                w_sv(branches, ins.switch_default - offset)
                ints = buf(wire.CODE_INTS)
                pairs = ins.switch_pairs
                if plan.is_table:
                    w_sv(ints, ins.switch_low)
                    w_uv(ints, len(pairs))
                    for pair in pairs:
                        w_sv(branches, pair[1] - offset)
                else:
                    w_uv(ints, len(pairs))
                    for pair in pairs:
                        w_sv(ints, pair[0])
                        w_sv(branches, pair[1] - offset)
            else:
                for op in plan.ops:
                    if op == _OP_REG:
                        w_uv(buf(wire.CODE_REGS), ins.local)
                    elif op == _OP_INT:
                        w_sv(buf(wire.CODE_INTS), ins.immediate)
                    elif op == _OP_BRANCH:
                        w_sv(buf(wire.CODE_BRANCHES),
                             ins.target - offset)
                    elif op == _OP_ATYPE:
                        w_uv(buf(wire.CODE_INTS), ins.atype)
                    elif op == _OP_DIMS:
                        w_uv(buf(wire.CODE_INTS), ins.dims)
                    elif op == _OP_CONST:
                        enc_const(ins.const)
                    elif op == _OP_FIELD:
                        enc_field(plan.field_kind, ins.field_ref)
                    elif op == _OP_METHOD:
                        context = tracker.top_categories() \
                            if use_state else NO_CONTEXT
                        enc_method(plan.invoke_kind, context,
                                   ins.method_ref)
                    else:  # _OP_CLASS
                        shape = buf(wire.SHAPE)
                        if ins.type_ref is not None:
                            shape.append(1)
                            enc_type(ins.type_ref)
                        else:
                            shape.append(0)
                            enc_class(ins.class_ref)
            if use_state:
                applied += 1
                if tracker.stack is None:
                    unknown += 1
                _apply_state(tracker, plan, ins, offset)
            offset = _instruction_advance(plan, ins, offset)

    for class_def in classes:
        enc_class(class_def.this_class)
        # META is fetched after the class ref, as the interpreted walk
        # first touches it: a sequence that starts a fresh stream set
        # must create its streams in the same order.
        meta = buf(wire.META)
        flags = class_def.access_flags
        w_uv(meta, flags)
        if flags & ir.FLAG_HAS_SUPER:
            enc_class(class_def.super_class)
        interfaces = class_def.interfaces
        w_uv(meta, len(interfaces))
        for interface in interfaces:
            enc_class(interface)
        fields = class_def.fields
        methods = class_def.methods
        w_uv(meta, len(fields))
        w_uv(meta, len(methods))
        for field_def in fields:
            field_flags = field_def.access_flags
            w_uv(meta, field_flags)
            enc_field("field.def", field_def.ref)
            if field_flags & ir.FLAG_HAS_CONSTANT:
                enc_const(field_def.constant)
        for method_def in methods:
            method_flags = method_def.access_flags
            w_uv(meta, method_flags)
            enc_method("method.def", NO_CONTEXT, method_def.ref)
            if method_flags & ir.FLAG_HAS_EXCEPTIONS:
                exceptions = method_def.exceptions
                w_uv(meta, len(exceptions))
                for exception in exceptions:
                    enc_class(exception)
            if method_flags & ir.FLAG_HAS_CODE:
                enc_code(method_def.code)

    if metrics is not None:
        if total_instructions > 0:
            metrics.count("bytecode.instructions", total_instructions)
        if pseudo_ldc > 0:
            metrics.count("bytecode.pseudo_ldc", pseudo_ldc)
        if collapsed > 0:
            metrics.count("bytecode.collapsed", collapsed)
    if mx is not None:
        if applied > 0:
            mx.count("stack_state.applied", applied)
        if unknown > 0:
            mx.count("stack_state.unknown", unknown)


# ---------------------------------------------------------------------
# Compiled decode pass
# ---------------------------------------------------------------------


def _iter_decode_classes(options, coders, reader, interner, count=None):
    """Yield ``count`` decoded classes one at a time, specialized; with
    ``count=None``, an archive's: its class count comes off META first.

    Varint-only streams are prescanned in one pass each
    (:func:`decode_uvarints`), so the per-value hot path is a list
    index; fixed-width constants unpack straight off the stream buffer.
    Exhaustion surfaces as ``IndexError``/``ValueError`` — the same
    corruption-error family the interpreted cursors raise, wrapped
    identically by the :class:`~repro.pack.decompressor.Decompressor`.

    This is a generator: classes materialize lazily in the paper's
    §11 eager class-loading order (dependencies precede dependents),
    so a consumer that drops each class after use never holds the
    whole archive.  Stack-state metrics are emitted when the final
    class has been yielded.
    """
    use_state = options.stack_state
    mx = observe.current().metrics

    def uv_reader(name):
        values = decode_uvarints(reader.stream(name).data)
        index = 0

        def read():
            nonlocal index
            value = values[index]
            index += 1
            return value
        return read

    meta = uv_reader(wire.META)
    shape = uv_reader(wire.SHAPE)
    regs = uv_reader(wire.CODE_REGS)
    ints = uv_reader(wire.CODE_INTS)
    branches = uv_reader(wire.CODE_BRANCHES)
    exc = uv_reader(wire.CODE_EXC)
    const_int = uv_reader(wire.CONST_INT)
    const_long = uv_reader(wire.CONST_LONG)

    def unzig(value):
        return value >> 1 if not value & 1 else -((value + 1) >> 1)

    def text_reader(len_name, chars_name):
        lens = decode_uvarints(reader.stream(len_name).data)
        index = 0
        data = reader.stream(chars_name).data
        pos = 0

        def read():
            nonlocal index, pos
            length = lens[index]
            index += 1
            end = pos + length
            if end > len(data):
                raise ValueError(f"stream {chars_name!r} exhausted")
            raw = data[pos:end]
            pos = end
            if raw.isascii():
                return raw.decode("ascii")
            return mutf8.decode(raw)
        return read

    pkg_text = text_reader(wire.STR_PKG_LEN, wire.STR_PKG_CHARS)
    cls_text = text_reader(wire.STR_CLS_LEN, wire.STR_CLS_CHARS)
    mname_text = text_reader(wire.STR_MNAME_LEN, wire.STR_MNAME_CHARS)
    fname_text = text_reader(wire.STR_FNAME_LEN, wire.STR_FNAME_CHARS)
    const_text = text_reader(wire.STR_CONST_LEN, wire.STR_CONST_CHARS)

    def fixed_reader(name, unpacker):
        data = reader.stream(name).data
        size = unpacker.size
        unpack_from = unpacker.unpack_from
        pos = 0

        def read():
            nonlocal pos
            if pos + size > len(data):
                raise ValueError(f"stream {name!r} exhausted")
            value = unpack_from(data, pos)[0]
            pos += size
            return value
        return read

    read_f32 = fixed_reader(wire.CONST_FLOAT, _U32)
    read_f64 = fixed_reader(wire.CONST_DOUBLE, _U64)

    def make_ref(space, coder, cursor):
        """``(ref, reg)`` closures for one object space.

        ``ref(kind, context)`` returns ``(token, value)`` — ``value``
        is the resolved object for a back-reference, or None for a new
        object whose contents follow; ``token`` is whatever ``reg``
        needs to register the built object.  Fast MTF decoders get a
        fully inlined path (prescanned index stream, direct queue
        surgery); every other scheme goes through its own
        ``decode``/``register`` protocol untouched.
        """
        decoder = getattr(coder, "decoder", None)
        if isinstance(decoder, FastMtfDecoder):
            core = decoder._coder
            # Contextual pooling only ever fires for ``method.*``
            # kinds, and the method space sees nothing else — so the
            # pool shape is a per-space constant, not a per-call
            # ``startswith`` test.
            contextual = decoder.use_context and space == "method"
            transients = core.transients
            shift = core._shift
            queues = core._queues
            seed_queue = core._queue
            register = core._register
            indexes = decode_uvarints(cursor.data)
            pos = 0

            def ref(kind, context):
                nonlocal pos
                index = indexes[pos]
                pos += 1
                if index == 0 or (transients and index == 1):
                    return index, None
                pool = (kind, context) if contextual else kind
                queue = queues.get(pool)
                if queue is None:
                    queue = seed_queue(pool)
                position = index - 1 - shift
                if not 0 <= position < len(queue):
                    raise MtfError(
                        f"MTF index {index} out of range for queue "
                        f"of size {len(queue)}")
                key = queue[position]
                if position:
                    del queue[position]
                    queue.insert(0, key)
                # Every registration path stores the object as its own
                # key (encode, decode, and preload all register
                # ``(obj, obj)``), so the queue entry *is* the value —
                # no ``known[key]`` hash of a dataclass needed.
                return index, key

            def reg(token, obj):
                if transients and token == 1:
                    return
                register(obj, obj)

            return ref, reg

        def ref(kind, context):
            is_new, value = coder.decode(cursor, (kind, context))
            if is_new:
                return (kind, context), None
            return None, value

        def reg(token, obj):
            coder.register(token, obj)

        return ref, reg

    def space_ref(space):
        return make_ref(space, coders[space],
                        reader.stream(wire.SPACES[space]))

    ref_package, reg_package = space_ref("package")
    ref_simple, reg_simple = space_ref("simple")
    ref_class, reg_class = space_ref("class")
    ref_mname, reg_mname = space_ref("methodname")
    ref_fname, reg_fname = space_ref("fieldname")
    ref_method, reg_method = space_ref("method")
    ref_field, reg_field = space_ref("field")
    ref_string, reg_string = space_ref("string")

    def dec_package():
        token, value = ref_package("package", NO_CONTEXT)
        if value is not None:
            return value
        obj = interner.package(pkg_text())
        reg_package(token, obj)
        return obj

    def dec_simple():
        token, value = ref_simple("simple", NO_CONTEXT)
        if value is not None:
            return value
        obj = interner.simple(cls_text())
        reg_simple(token, obj)
        return obj

    def dec_class():
        token, value = ref_class("class", NO_CONTEXT)
        if value is not None:
            return value
        package = dec_package()
        simple = dec_simple()
        if package.name:
            internal_name = package.name + "/" + simple.name
        else:
            internal_name = simple.name
        obj = interner.class_ref(internal_name)
        reg_class(token, obj)
        return obj

    def dec_mname():
        token, value = ref_mname("methodname", NO_CONTEXT)
        if value is not None:
            return value
        obj = interner.method_name(mname_text())
        reg_mname(token, obj)
        return obj

    def dec_fname():
        token, value = ref_fname("fieldname", NO_CONTEXT)
        if value is not None:
            return value
        obj = interner.field_name(fname_text())
        reg_fname(token, obj)
        return obj

    def dec_type():
        dims = shape()
        tag = shape()
        if tag == 0:
            base = dec_class()
            descriptor = "[" * dims + "L" + base.internal_name + ";"
        else:
            descriptor = "[" * dims + ir.PRIMITIVE_CHARS[tag]
        return interner.type_ref(descriptor)

    def dec_method(kind, context):
        token, value = ref_method(kind, context)
        if value is not None:
            return value
        owner = dec_class()
        name = dec_mname()
        return_type = dec_type()
        arg_types = [dec_type() for _ in range(shape())]
        descriptor = "(" + \
            "".join(a.descriptor for a in arg_types) + ")" + \
            return_type.descriptor
        obj = interner.method_ref(owner.internal_name, name.name,
                                  descriptor)
        reg_method(token, obj)
        return obj

    def dec_field(kind):
        token, value = ref_field(kind, NO_CONTEXT)
        if value is not None:
            return value
        owner = dec_class()
        name = dec_fname()
        field_type = dec_type()
        obj = interner.field_ref(owner.internal_name, name.name,
                                 field_type.descriptor)
        reg_field(token, obj)
        return obj

    def dec_string():
        token, value = ref_string("string", NO_CONTEXT)
        if value is not None:
            return value
        obj = const_text()
        reg_string(token, obj)
        return obj

    def dec_const(kind):
        if kind == "int":
            bits = unzig(const_int())
        elif kind == "long":
            bits = unzig(const_long())
        elif kind == "float":
            bits = read_f32()
        elif kind == "double":
            bits = read_f64()
        elif kind == "string":
            bits = dec_string()
        else:
            raise UnpackError(f"unknown constant kind {kind}")
        return ir.ConstValue(kind, bits)

    def dec_handler():
        start = exc()
        length = exc()
        handler_pc = exc()
        catch = dec_class() if exc() else None
        return ir.IRExceptionHandler(start, start + length,
                                     handler_pc, catch)

    plans = _PLANS
    plans_by_name = _PLANS_BY_NAME
    dispatch = _DECODE_DISPATCH
    instruction_cls = ir.IRInstruction
    new_instruction = object.__new__
    op_data = reader.stream(wire.CODE_OPCODES).data
    op_len = len(op_data)
    op_pos = 0
    #: Plan of the instruction dec_instruction just returned — hands
    #: the already-resolved plan to dec_code without a re-lookup.
    current_plan = None
    applied = 0
    unknown = 0

    def dec_instruction(tracker, offset):
        nonlocal op_pos, current_plan
        if op_pos >= op_len:
            raise ValueError(
                f"stream {wire.CODE_OPCODES!r} exhausted")
        opcode_byte = op_data[op_pos]
        op_pos += 1
        plan = dispatch.get(opcode_byte)
        if type(plan) is tuple:
            const_kind, wide_const = plan
            const = dec_const(const_kind)
            if const_kind in ("long", "double"):
                opcode = wire.LDC2_W_OPCODE
            elif wide_const:
                opcode = wire.LDC_W_OPCODE
            else:
                opcode = wire.LDC_OPCODE
            current_plan = plans[opcode]
            return ir.IRInstruction(opcode, const=const,
                                    wide_const=wide_const)
        if plan is None:
            raise UnpackError(f"bad opcode byte {opcode_byte:#x}")
        if use_state and plan.is_canonical and \
                tracker.stack is not None:
            expanded = tracker.expand(plan.mnemonic)
            if expanded != plan.mnemonic:
                plan = plans_by_name[expanded]
        current_plan = plan
        ins = new_instruction(instruction_cls)
        ins.__dict__ = dict(plan.template)
        if plan.is_switch:
            ins.switch_default = offset + unzig(branches())
            if plan.is_table:
                low = unzig(ints())
                count = ints()
                ins.switch_low = low
                ins.switch_pairs = [
                    (low + i, offset + unzig(branches()))
                    for i in range(count)]
            else:
                count = ints()
                pairs = []
                for _ in range(count):
                    match = unzig(ints())
                    pairs.append((match, offset + unzig(branches())))
                ins.switch_pairs = pairs
            return ins
        for op in plan.ops:
            if op == _OP_REG:
                ins.local = regs()
            elif op == _OP_INT:
                ins.immediate = unzig(ints())
            elif op == _OP_BRANCH:
                ins.target = offset + unzig(branches())
            elif op == _OP_ATYPE:
                ins.atype = ints()
            elif op == _OP_DIMS:
                ins.dims = ints()
            elif op == _OP_CONST:
                raise UnpackError(
                    f"unhandled operand kind {plan.const_op_kind}")
            elif op == _OP_FIELD:
                ins.field_ref = dec_field(plan.field_kind)
            elif op == _OP_METHOD:
                context = tracker.top_categories() if use_state \
                    else NO_CONTEXT
                ins.method_ref = dec_method(plan.invoke_kind, context)
            else:  # _OP_CLASS
                if shape():
                    ins.type_ref = dec_type()
                else:
                    ins.class_ref = dec_class()
        return ins

    def dec_code():
        nonlocal applied, unknown
        max_stack = meta()
        max_locals = meta()
        n_instructions = meta()
        n_handlers = meta()
        handlers = [dec_handler() for _ in range(n_handlers)]
        tracker = StackTracker()
        instructions = []
        offset = 0
        for _ in range(n_instructions):
            if use_state and tracker.pending is not None:
                tracker.at_instruction(offset)
            ins = dec_instruction(tracker, offset)
            plan = current_plan
            if use_state:
                applied += 1
                stack = tracker.stack
                if stack is None:
                    # _apply_state is a no-op on a dead stack (every
                    # flow arm either returns or re-kills it) — skip
                    # the call entirely.
                    unknown += 1
                elif plan.flow == 0:
                    # _FLOW_NORMAL inlined: the ~85% case.
                    effect = plan.effect
                    if effect is None:
                        tracker.stack = None
                    else:
                        try:
                            effect(stack, ins)
                        except _Unknown:
                            tracker.stack = None
                        else:
                            target = ins.target
                            if target is not None and \
                                    target > offset and \
                                    tracker.pending is None:
                                tracker.pending = (target, list(stack))
                else:
                    _apply_state(tracker, plan, ins, offset)
            if plan.is_switch or plan.has_local:
                offset = _instruction_advance(plan, ins, offset)
            else:
                offset += plan.size
            instructions.append(ins)
        return ir.IRCode(max_stack, max_locals, instructions, handlers)

    for _ in range(meta() if count is None else count):
        this_class = dec_class()
        flags = meta()
        super_class = dec_class() if flags & ir.FLAG_HAS_SUPER else None
        interfaces = [dec_class() for _ in range(meta())]
        n_fields = meta()
        n_methods = meta()
        fields = []
        for _ in range(n_fields):
            field_flags = meta()
            field_ref = dec_field("field.def")
            constant = None
            if field_flags & ir.FLAG_HAS_CONSTANT:
                constant = dec_const(wire.constant_kind_for_field(
                    field_ref.type.descriptor))
            fields.append(ir.FieldDefinition(field_flags, field_ref,
                                             constant))
        methods = []
        for _ in range(n_methods):
            method_flags = meta()
            method_ref = dec_method("method.def", NO_CONTEXT)
            exceptions = []
            if method_flags & ir.FLAG_HAS_EXCEPTIONS:
                exceptions = [dec_class() for _ in range(meta())]
            code = dec_code() if method_flags & ir.FLAG_HAS_CODE \
                else None
            methods.append(ir.MethodDefinition(method_flags,
                                               method_ref, code,
                                               exceptions))
        yield ir.ClassDefinition(flags, this_class, super_class,
                                 interfaces, fields, methods)

    if mx is not None and use_state:
        if applied > 0:
            mx.count("stack_state.applied", applied)
        if unknown > 0:
            mx.count("stack_state.unknown", unknown)


# ---------------------------------------------------------------------
# The codec façade and the spec-compilation registry hook
# ---------------------------------------------------------------------


def _encode_archive(archive, options, coders, streams, metrics=None):
    """The archive: its class count on META, then the class sequence."""
    streams.stream(wire.META).uvarint(len(archive.classes))
    _encode_classes(archive.classes, options, coders, streams,
                    metrics=metrics)


class CompiledCodec:
    """Specialized entry points for one
    :class:`~repro.pack.codec_core.registry.WireSpec`.

    The class-sequence entry points (``count_classes``,
    ``encode_classes``, ``iter_decode_classes``) run a bare run of
    classes on coders and streams the caller owns — no class count on
    the wire and no spans, so the caller owns phase accounting.  The
    archive entry points wrap them with the META class count, and
    their spans and top-level metrics match the interpreted entry
    points in :mod:`repro.pack.codec_core` exactly, so traces keep
    their shape regardless of backend.
    """

    __slots__ = ("spec",)

    def __init__(self, spec):
        self.spec = spec

    def count_classes(self, classes, options, seen=None):
        return _count_classes(classes, options, seen)

    def encode_classes(self, classes, options, coders, streams):
        _encode_classes(classes, options, coders, streams)

    def iter_decode_classes(self, count, options, coders, reader,
                            interner):
        """One decoded class at a time (see
        :func:`_iter_decode_classes`; ``count=None`` decodes an
        archive).  Span-free: a span held open across yields would
        corrupt the trace tree."""
        return _iter_decode_classes(options, coders, reader, interner,
                                    count)

    def count_references(self, archive, options, coders=None,
                         seen=None):
        with observe.current().span("count",
                                    classes=len(archive.classes)):
            counts = _count_classes(archive.classes, options, seen)
            if coders is not None:
                for space, coder in coders.items():
                    if coder.needs_frequencies:
                        coder.set_frequencies(counts[space])
        return counts

    def encode_archive(self, archive, options, coders, streams,
                       metrics=None):
        with observe.current().span("encode"):
            _encode_archive(archive, options, coders, streams,
                            metrics=metrics)

    def decode_archive(self, options, coders, reader, interner):
        with observe.current().span("decode"):
            return ir.Archive(list(_iter_decode_classes(
                options, coders, reader, interner)))


_COMPILED: Dict[int, CompiledCodec] = {}


def compiled_codec(spec) -> Optional[CompiledCodec]:
    """The compiled codec for ``spec``, or ``None`` when the spec's
    archive walk is not the one this module specializes (a future spec
    version falls back to the interpreted drivers instead of silently
    producing wrong bytes)."""
    codec = _COMPILED.get(spec.version)
    if codec is not None and codec.spec is spec:
        return codec
    if spec.archive is archive_mod.archive and \
            spec.spaces is wire.SPACES:
        codec = CompiledCodec(spec)
        _COMPILED[spec.version] = codec
        return codec
    return None


def warm(specs) -> None:
    """Compile every eligible spec up front (registry-time hook)."""
    for spec in specs:
        compiled_codec(spec)
