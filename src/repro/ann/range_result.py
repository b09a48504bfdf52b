"""The answer type of a batched range query, shared by both backends."""

from __future__ import annotations

from collections.abc import Sequence
from typing import Callable, Tuple

import numpy as np

__all__ = ["RangeResult"]


class RangeResult(Sequence):
    """Neighbour lists of a batch of range queries, in CSR form.

    ``ids[offsets[i]:offsets[i + 1]]`` are query ``i``'s neighbours — every
    one the query returns, already capped, in no promised order. That is all
    the scorer's label counting needs, so it is all that is materialized.

    The result still reads as the sequence of per-query ``(ids, dists)``
    pairs, ascending by distance: ``result[i]`` (or iterating) asks the
    index that answered for row ``i``. A backend that has not computed the
    row's distances yet does it then — and refuses if its vectors have moved.
    """

    __slots__ = ("offsets", "ids", "_row")

    def __init__(
        self,
        offsets: np.ndarray,
        ids: np.ndarray,
        row: Callable[[int], Tuple[np.ndarray, np.ndarray]],
    ) -> None:
        self.offsets = offsets
        self.ids = ids
        self._row = row

    def __len__(self) -> int:
        return self.offsets.shape[0] - 1

    def __getitem__(self, i: int) -> Tuple[np.ndarray, np.ndarray]:
        return self._row(range(len(self))[i])  # negative / out-of-range as a list's
