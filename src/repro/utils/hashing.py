"""splitmix64, the one integer hash of the repo.

The consistent-hash ring places its virtual nodes with it, the retry
policy derives its seeded jitter from it, and the span tracker mints
trace and span IDs with it. It imports nothing, so every layer —
``repro.obs`` at the bottom of the stack included — may use it.
"""

from __future__ import annotations

__all__ = ["splitmix64"]

_MASK = (1 << 64) - 1


def splitmix64(x: int) -> int:
    """One splitmix64 finalizer round — a cheap, well-mixed 64-bit hash."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK
    z = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK
    return (z ^ (z >> 31)) & _MASK
