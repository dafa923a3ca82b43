"""B+tree substrate: layout, host operations, vectorized batch traversal."""

from .layout import (
    HEADER_WORDS,
    OFF_COUNT,
    OFF_KEYS,
    OFF_LEAF,
    OFF_LOCK,
    OFF_NEXT,
    OFF_RF,
    OFF_VERSION,
    NodeLayout,
)
from .traversal import (
    TraversalEvents,
    batch_find_leaf,
    batch_horizontal_find_leaf,
    batch_leaf_lookup,
    leaf_max_keys,
    leaf_rf_values,
)
from .tree import BPlusTree, SplitEvent

__all__ = [
    "BPlusTree",
    "HEADER_WORDS",
    "NodeLayout",
    "OFF_COUNT",
    "OFF_KEYS",
    "OFF_LEAF",
    "OFF_LOCK",
    "OFF_NEXT",
    "OFF_RF",
    "OFF_VERSION",
    "SplitEvent",
    "TraversalEvents",
    "batch_find_leaf",
    "batch_horizontal_find_leaf",
    "batch_leaf_lookup",
    "leaf_max_keys",
    "leaf_rf_values",
]
