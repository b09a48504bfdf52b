"""Payload-store port: where a cache layer's payload bytes live.

The Importance and Homophily caches own every policy decision and all
metadata; the bytes they decide about sit behind this port. Two stores
ship: :class:`LocalPayloadStore` (an in-process dict — the default, and
what makes a layer a plain monolithic cache) and the shard-tier store of
:mod:`repro.dist.client` (payloads on remote shard servers).

A store may *lose availability* — ``put`` returns ``False``, ``get`` /
``peek`` return ``None`` for a key that was put — and the layers degrade
(dropped admit, miss). It never takes part in a decision.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Protocol, Sequence

__all__ = ["PayloadStore", "LocalPayloadStore"]


class PayloadStore(Protocol):
    """What a cache layer needs from the place its payloads are kept."""

    def get(self, key: int, substitute: bool = False) -> Optional[Any]:
        """Payload of ``key``, or ``None`` if absent or unreachable.

        ``substitute`` only tells stores that keep hit counters which one
        this read belongs to (an exact hit or a homophily substitution).
        """

    def put(self, key: int, value: Any) -> bool:
        """Insert or overwrite (idempotent); ``False`` if it did not land."""

    def delete(self, key: int) -> None:
        """Best-effort, idempotent removal; never raises."""

    def peek(self, key: int) -> Optional[Any]:
        """Like :meth:`get` but moves no hit counter."""

    def export(self, keys: Sequence[int]) -> List[Any]:
        """Payloads of ``keys`` in order; raises unless every one is held."""

    def load(self, entries: Dict[int, Any]) -> None:
        """Replace the contents with exactly ``entries``; raises on failure."""


class LocalPayloadStore(PayloadStore):
    """In-process dict store; every operation succeeds."""

    def __init__(self) -> None:
        self._data: Dict[int, Any] = {}

    def get(self, key: int, substitute: bool = False) -> Optional[Any]:
        return self._data.get(key)

    def put(self, key: int, value: Any) -> bool:
        self._data[key] = value
        return True

    def delete(self, key: int) -> None:
        self._data.pop(key, None)

    def peek(self, key: int) -> Optional[Any]:
        return self._data.get(key)

    def export(self, keys: Sequence[int]) -> List[Any]:
        return [self._data[k] for k in keys]

    def load(self, entries: Dict[int, Any]) -> None:
        self._data = dict(entries)
