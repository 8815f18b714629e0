"""Reference CRDT maintaining referential integrity under causal
consistency, with a deterministic simulator and a randomized/exhaustive
correctness harness."""

from .model import (
    ATOMIC,
    PURE_CAUSAL,
    DuplicateDelivery,
    Event,
    EffectorMessage,
    OpCall,
    PreconditionFailure,
    SimulatorError,
    Stuck,
    World,
)
from .harness import (
    ConfigInvalid,
    InvariantReport,
    NotFailing,
    ReplayMismatch,
    Trace,
    TraceConfig,
    check_invariants,
    random_execution,
    run_campaign,
    shrink,
)
from .explore import BoundExceeded, ExploreReport, exhaustive_explore, explore_catalog
from .stability import may_delete, oracle_stable, stably_subset

__all__ = [
    "ATOMIC",
    "PURE_CAUSAL",
    "BoundExceeded",
    "ConfigInvalid",
    "ExploreReport",
    "DuplicateDelivery",
    "EffectorMessage",
    "Event",
    "InvariantReport",
    "NotFailing",
    "OpCall",
    "PreconditionFailure",
    "ReplayMismatch",
    "SimulatorError",
    "Stuck",
    "Trace",
    "TraceConfig",
    "World",
    "check_invariants",
    "exhaustive_explore",
    "explore_catalog",
    "may_delete",
    "oracle_stable",
    "random_execution",
    "run_campaign",
    "shrink",
    "stably_subset",
]
