"""ANN index tests, and the one accessor they share."""

from repro.ann.hnsw import HNSWIndex


def stored_vector(index, item_id):
    """The vector ``index`` holds for ``item_id`` (a view of its arrays)."""
    if isinstance(index, HNSWIndex):
        return index._vectors[index._row_of[int(item_id)]]
    return index._data[index._slot_of[int(item_id)]]
