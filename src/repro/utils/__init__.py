"""Shared low-level utilities: RNG plumbing."""

from repro.utils.rng import resolve_rng

__all__ = ["resolve_rng"]
