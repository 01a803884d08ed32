"""Circuit-to-graph data pipeline: features, batching, datasets."""

from .batching import (
    CompiledSchedule,
    LevelGroup,
    LevelSchedule,
    merge,
)
from .dataset import (
    CircuitDataset,
    PreparedBatch,
    ShardedCircuitDataset,
    prepare,
)
from .loader import DataLoader, as_loader, epoch_seed
from .positional import positional_encoding
from .shards import read_shard, write_shard
from .features import (
    AIG_TYPE_NAMES,
    NETLIST_TYPE_NAMES,
    CircuitGraph,
    from_aig,
    from_netlist,
    inference_graph,
)

__all__ = [
    "DataLoader",
    "as_loader",
    "epoch_seed",
    "positional_encoding",
    "CompiledSchedule",
    "LevelGroup",
    "LevelSchedule",
    "merge",
    "CircuitDataset",
    "PreparedBatch",
    "ShardedCircuitDataset",
    "prepare",
    "read_shard",
    "write_shard",
    "AIG_TYPE_NAMES",
    "NETLIST_TYPE_NAMES",
    "CircuitGraph",
    "from_aig",
    "from_netlist",
    "inference_graph",
]
