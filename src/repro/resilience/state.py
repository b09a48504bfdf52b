"""Nested-state serialization for full-runtime checkpoints.

The one on-disk checkpoint format. The resilient trainer's checkpoint is a
deeply nested dict — model arrays, heap snapshots, RNG bit-generator state,
per-stage clock totals, the ANN index. This module flattens an arbitrary tree
of dicts/lists/scalars/ndarrays into one ``.npz``: arrays are stored under
sequential keys and the remaining structure goes into a JSON header with
placeholders pointing back at them. Round-tripping is exact — dtypes,
shapes, big ints (PCG64 carries 128-bit state words), ``None`` — which the
bit-for-bit recovery tests depend on.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Union

import numpy as np

__all__ = ["CheckpointError", "save_state", "load_state"]

_ARRAY_KEY = "__ndarray__"
_TUPLE_KEY = "__tuple__"


class CheckpointError(RuntimeError):
    """A checkpoint file is unreadable or malformed.

    Raised with a message naming the file and the specific defect
    (truncated archive, missing or undecodable state tree) so operators can
    tell a corrupt checkpoint from a code bug.
    """


def _flatten(obj: Any, arrays: List[np.ndarray]) -> Any:
    """Replace ndarrays with placeholder dicts, collecting them in order."""
    if isinstance(obj, np.ndarray):
        arrays.append(obj)
        return {_ARRAY_KEY: len(arrays) - 1}
    if isinstance(obj, np.generic):  # numpy scalar → python scalar
        return obj.item()
    if isinstance(obj, dict):
        flat = {}
        for k, v in obj.items():
            if not isinstance(k, str):
                raise TypeError(f"state dict keys must be str, got {k!r}")
            if k in (_ARRAY_KEY, _TUPLE_KEY):
                raise ValueError(f"reserved key {k!r} in state dict")
            flat[k] = _flatten(v, arrays)
        return flat
    if isinstance(obj, tuple):
        return {_TUPLE_KEY: [_flatten(v, arrays) for v in obj]}
    if isinstance(obj, list):
        return [_flatten(v, arrays) for v in obj]
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    raise TypeError(f"cannot serialize {type(obj).__name__} in state tree")


def _inflate(obj: Any, arrays: Dict[str, np.ndarray]) -> Any:
    if isinstance(obj, dict):
        if set(obj.keys()) == {_ARRAY_KEY}:
            return arrays[f"a{obj[_ARRAY_KEY]}"]
        if set(obj.keys()) == {_TUPLE_KEY}:
            return tuple(_inflate(v, arrays) for v in obj[_TUPLE_KEY])
        return {k: _inflate(v, arrays) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_inflate(v, arrays) for v in obj]
    return obj


def save_state(path: Union[str, Path], state: dict) -> Path:
    """Write a nested state tree to ``path`` (``.npz``); returns the path."""
    path = Path(path)
    arrays: List[np.ndarray] = []
    tree = _flatten(state, arrays)
    payload = {f"a{i}": a for i, a in enumerate(arrays)}
    payload["__tree__"] = np.frombuffer(
        json.dumps(tree).encode("utf-8"), dtype=np.uint8
    )
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez(path, **payload)
    return path if path.suffix == ".npz" else path.with_suffix(path.suffix + ".npz")


def load_state(path: Union[str, Path]) -> dict:
    """Read a :func:`save_state` archive back into the original tree.

    Raises :class:`CheckpointError` for truncated or non-npz files and
    archives without a state tree.
    """
    path = Path(path)
    try:
        npz = np.load(path)
    except FileNotFoundError:
        raise
    except Exception as exc:
        raise CheckpointError(
            f"state archive {path} is not a readable .npz "
            f"(truncated or corrupt?): {exc}"
        ) from exc
    with npz as data:
        if "__tree__" not in data.files:
            raise CheckpointError(
                f"state archive {path} has no __tree__ entry — "
                "not a save_state() archive"
            )
        try:
            tree = json.loads(bytes(data["__tree__"]).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CheckpointError(
                f"state archive {path} tree is not valid JSON: {exc}"
            ) from exc
        arrays = {k: data[k] for k in data.files if k != "__tree__"}
    return _inflate(tree, arrays)
