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
