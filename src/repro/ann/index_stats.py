"""Index memory model (paper Table 2).

Table 2 reports HNSW+PQ index sizes vs raw dataset sizes for six datasets
(ImageNet-1K through LAION-5B), with compression ratios of ~600x-9000x.
Those sizes follow from a simple accounting identity:

    index_bytes ≈ n * (pq_code_bytes + avg_degree * id_bytes + overhead)

This module exposes that accounting explicitly so the benchmark can
regenerate the table rows, and validates it against a real in-memory
:class:`~repro.ann.hnsw.HNSWIndex` built on small data.
"""

from __future__ import annotations

__all__ = ["IndexStorageModel", "DATASET_CATALOG"]


#: Bytes per neighbor link (uint32 ids).
ID_BYTES = 4
#: Per-element bookkeeping bytes (level, offsets).
METADATA_BYTES = 16
#: Bytes per PQ code (``m`` subquantizers, 8 bits each).
PQ_CODE_BYTES = 32
#: HNSW out-degree parameter ``M`` (hnswlib's default); layer 0 stores up
#: to ``2*M`` links.
HNSW_M = 16


class IndexStorageModel:
    """Per-element byte accounting for an HNSW+PQ index.

    Each element stores a :data:`PQ_CODE_BYTES` code and
    :data:`METADATA_BYTES` of bookkeeping; each link costs
    :data:`ID_BYTES`. With ``M =`` :data:`HNSW_M` and ``mL = 1/ln(M)`` the
    expected number of layers per node is ``1/(1 - 1/M)`` ≈ 1 + 1/M, so
    upper layers add ~``M/(M-1)`` links per node.
    """

    def bytes_per_element(self) -> float:
        """Expected index bytes attributable to one element."""
        # Layer 0: up to 2*M links; upper layers: a geometric tail of nodes
        # (fraction ~1/M at each level) each adding up to M links.
        layer0 = 2 * HNSW_M * ID_BYTES
        upper = (1.0 / (HNSW_M - 1)) * HNSW_M * ID_BYTES
        return PQ_CODE_BYTES + layer0 + upper + METADATA_BYTES

    def index_size_bytes(self, n_elements: int) -> float:
        """Total expected index size for ``n_elements``."""
        if n_elements < 0:
            raise ValueError("n_elements must be non-negative")
        return n_elements * self.bytes_per_element()

    def compression_ratio(self, n_elements: int, raw_bytes: float) -> float:
        """Raw-data-to-index size ratio (Table 2's rightmost column)."""
        idx = self.index_size_bytes(n_elements)
        if idx <= 0:
            raise ValueError("index size must be positive")
        return raw_bytes / idx


# Paper Table 2 rows: (name, image count, raw size in bytes, reported index size).
_GB = 1024**3
_TB = 1024**4
_PB = 1024**5
DATASET_CATALOG = [
    ("ImageNet-1K", 1_200_000, 138 * _GB, 134 * 1024**2),
    ("Open Images (V6)", 9_000_000, 600 * _GB, 965 * 1024**2),
    ("ImageNet-21K", 14_000_000, 1.3 * _TB, 1.5 * _GB),
    ("YFCC100M", 100_000_000, 100 * _TB, 11.2 * _GB),
    ("LAION-400M", 400_000_000, 240 * _TB, 44.8 * _GB),
    ("LAION-5B", 5_000_000_000, 2.5 * _PB, 560 * _GB),
]
