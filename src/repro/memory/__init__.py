"""Simulated GPU global memory: one word-addressable arena."""

from .arena import MemoryArena

__all__ = ["MemoryArena"]
