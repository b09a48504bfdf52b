"""Shared low-level utilities: indexed heap, RNG plumbing."""

from repro.utils.heap import IndexedMinHeap
from repro.utils.rng import resolve_rng

__all__ = ["IndexedMinHeap", "resolve_rng"]
