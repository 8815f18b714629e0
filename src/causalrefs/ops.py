"""Operation registries: generator functions, read-only operations, and
effector payload appliers, keyed for dispatch by the world model, plus the
arguments each operation kind requires."""

from __future__ import annotations

from . import refs, stability

GENERATORS = {
    "create": refs.gen_create,
    "init": refs.gen_init,
    "assign": refs.gen_assign,
    "assign_null": refs.gen_assign_null,
    "delete": refs.gen_delete,
    "announce": stability.gen_announce,
    "register_query": stability.gen_register_query,
}

READS = {
    "invoke": refs.read_invoke,
    "may_delete": stability.read_may_delete,
}

APPLIERS = {
    refs.ObjectCreate: refs.apply_object_create,
    refs.InRefAdd: refs.apply_inref_add,
    refs.InRefRemove: refs.apply_inref_remove,
    refs.OutRefSet: refs.apply_outref_set,
    refs.MarkDeleted: refs.apply_mark_deleted,
    stability.QueryRegister: stability.apply_query_register,
    stability.ClockAnnounce: stability.apply_clock_announce,
}

# For each payload type, whether a payload's effect at a replica depends on
# the order in which it and the payloads of other origins apply there. A
# mark-deleted payload overwrites the record's ``last_refs_at_delete``, and an
# announcement's reports update the replica's detector observers in arrival
# order; every other applier commutes across origins. The explorer's state
# key records the order of the payloads this says True for
# (``explore._order_sensitive``), so every type in APPLIERS is listed here.
ORDER_SENSITIVE = {
    refs.ObjectCreate: lambda p: False,
    refs.InRefAdd: lambda p: False,
    refs.InRefRemove: lambda p: False,
    refs.OutRefSet: lambda p: False,
    refs.MarkDeleted: lambda p: True,
    stability.QueryRegister: lambda p: False,
    stability.ClockAnnounce: lambda p: bool(p.reports),
}

# Arguments each kind reads unconditionally. Optional ones: ``root`` and
# ``attrs`` (create), ``last`` (delete, may_delete; defaults to "auto").
REQUIRED_ARGS = {
    "create": ("key",),
    "init": ("source", "attr", "target"),
    "assign": ("dst", "dst_attr", "src", "src_attr"),
    "assign_null": ("source", "attr"),
    "delete": ("target",),
    "announce": (),
    "register_query": ("target", "last"),
    "invoke": ("source", "attr"),
    "may_delete": ("target",),
}
