"""Sharded shedding: partition → per-shard CRR/BM2 → boundary reconciliation.

Scales the array shedding engines past one process: a graph is split into
node shards (community-aligned or contiguous), each shard's interior
edges are shed by one configured :class:`~repro.core.crr.CRRShedder` or
:class:`~repro.core.bm2.BM2Shedder` through its ``reduce_ids`` id core
over a CSR *view*, and a final reconciliation pass settles boundary
edges against the merged
whole-graph degree tracker.  ``num_shards=1`` is bit-identical to the
whole-graph array engines; multi-shard runs carry the documented ``Δ``
bound in ``reduction.stats["delta_bound"]``.
"""

from repro.shard.partition import PARTITION_METHODS, Shard, ShardPlan, partition_graph
from repro.shard.runner import SHARD_METHODS, ShardedShedder, reconcile_ids

__all__ = [
    "PARTITION_METHODS",
    "SHARD_METHODS",
    "Shard",
    "ShardPlan",
    "ShardedShedder",
    "partition_graph",
    "reconcile_ids",
]
