"""Software transactional memory (Holey & Zhai-style eager GPU STM)."""

from .device import FREE, DeviceStm, StmRegion, Tx
from .stats import StmStats

__all__ = ["FREE", "DeviceStm", "StmRegion", "StmStats", "Tx"]
