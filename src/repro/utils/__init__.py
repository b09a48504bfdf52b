"""Shared low-level utilities: RNG plumbing and the splitmix64 hash."""

from repro.utils.rng import resolve_rng

__all__ = ["resolve_rng"]
