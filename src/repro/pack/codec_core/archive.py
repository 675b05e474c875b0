"""Top-level archive codec: classes, fields, methods.

The paper's class-structure layout (Section 4): per class, the class
reference, flags, supertypes, then member counts *before* member
bodies so the decoder can size its loops; all scalars on the META
stream.
"""

from __future__ import annotations

from ...ir import model as ir
from .. import wire
from .constructs import CLASS_REF, CONST, FIELD_REF, METHOD_REF
from .instructions import code_body
from .spec import DECODE, NO_CONTEXT


def field_definition(drv, value):
    decoding = value is DECODE
    flags = drv.uint(wire.META,
                     DECODE if decoding else value.access_flags)
    ref = FIELD_REF.run_as(drv, DECODE if decoding else value.ref,
                           "field.def", NO_CONTEXT)
    constant = None
    if flags & ir.FLAG_HAS_CONSTANT:
        # The constant's kind is derivable from the field descriptor,
        # so it never travels on the wire.
        kind = wire.constant_kind_for_field(ref.type.descriptor) \
            if decoding else None
        constant = CONST.run_as(
            drv, DECODE if decoding else value.constant, kind)
    if decoding:
        return ir.FieldDefinition(flags, ref, constant)
    return value


def method_definition(drv, value):
    decoding = value is DECODE
    flags = drv.uint(wire.META,
                     DECODE if decoding else value.access_flags)
    ref = METHOD_REF.run_as(drv, DECODE if decoding else value.ref,
                            "method.def", NO_CONTEXT)
    exceptions = []
    if flags & ir.FLAG_HAS_EXCEPTIONS:
        count = drv.uint(
            wire.META, DECODE if decoding else len(value.exceptions))
        exceptions = [
            CLASS_REF.run(drv,
                          DECODE if decoding else value.exceptions[i])
            for i in range(count)]
    code = None
    if flags & ir.FLAG_HAS_CODE:
        code = code_body(drv, DECODE if decoding else value.code)
    if decoding:
        return ir.MethodDefinition(flags, ref, code, exceptions)
    return value


def class_definition(drv, value):
    decoding = value is DECODE
    this_class = CLASS_REF.run(
        drv, DECODE if decoding else value.this_class)
    flags = drv.uint(wire.META,
                     DECODE if decoding else value.access_flags)
    super_class = None
    if flags & ir.FLAG_HAS_SUPER:
        super_class = CLASS_REF.run(
            drv, DECODE if decoding else value.super_class)
    n_interfaces = drv.uint(
        wire.META, DECODE if decoding else len(value.interfaces))
    interfaces = [
        CLASS_REF.run(drv,
                      DECODE if decoding else value.interfaces[i])
        for i in range(n_interfaces)]
    n_fields = drv.uint(wire.META,
                        DECODE if decoding else len(value.fields))
    n_methods = drv.uint(wire.META,
                         DECODE if decoding else len(value.methods))
    fields = [field_definition(drv,
                               DECODE if decoding else value.fields[i])
              for i in range(n_fields)]
    methods = [
        method_definition(drv,
                          DECODE if decoding else value.methods[i])
        for i in range(n_methods)]
    if decoding:
        return ir.ClassDefinition(flags, this_class, super_class,
                                  interfaces, fields, methods)
    return value


def class_sequence(drv, value, count):
    """``count`` classes back to back, with no count on the wire:
    ``value`` is the class list, or ``DECODE``.  The archive's body,
    and on its own the unit :mod:`repro.delta` replays."""
    decoding = value is DECODE
    classes = []
    for i in range(count):
        classes.append(class_definition(
            drv, DECODE if decoding else value[i]))
    return classes


def archive(drv, value):
    """The whole archive: a class count on META, then the class
    sequence."""
    decoding = value is DECODE
    count = drv.uint(wire.META,
                     DECODE if decoding else len(value.classes))
    classes = class_sequence(drv, DECODE if decoding else value.classes,
                             count)
    if decoding:
        return ir.Archive(classes)
    return value
