"""Corrupt-checkpoint handling: clear errors instead of stack-trace soup."""

import numpy as np
import pytest

from repro.resilience.state import CheckpointError, load_state, save_state
from repro.resilience.trainer import CHECKPOINT_FORMAT, ResilientTrainer


def test_state_archive_garbage_raises(tmp_path):
    bad = tmp_path / "bad.npz"
    bad.write_bytes(b"\x00\x01\x02 nothing useful here")
    with pytest.raises(CheckpointError, match="truncated or corrupt"):
        load_state(bad)


def test_state_archive_missing_tree_raises(tmp_path):
    bad = tmp_path / "noTree.npz"
    np.savez(bad, a0=np.arange(3))
    with pytest.raises(CheckpointError, match="__tree__"):
        load_state(bad)


def test_state_archive_unreadable_tree_raises(tmp_path):
    bad = tmp_path / "badtree.npz"
    np.savez(bad, __tree__=np.frombuffer(b"\xff\xfenot json", dtype=np.uint8))
    with pytest.raises(CheckpointError, match="JSON"):
        load_state(bad)


def test_state_archive_truncated_raises(tmp_path):
    path = save_state(tmp_path / "s.npz", {"x": np.arange(10), "y": 3})
    blob = path.read_bytes()
    bad = tmp_path / "strunc.npz"
    bad.write_bytes(blob[: len(blob) // 3])
    with pytest.raises(CheckpointError):
        load_state(bad)


def test_missing_file_still_raises_file_not_found(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_state(tmp_path / "nope.npz")


def test_restore_refuses_another_checkpoint_format(build_run, tmp_path):
    """An archive another format wrote fails naming the file and both
    formats, instead of loading a state tree this trainer misreads."""
    ckpts = tmp_path / "ckpts"
    trainer, _, _ = build_run(ResilientTrainer, epochs=1, checkpoint_dir=ckpts)
    trainer.run()
    path = trainer.latest_checkpoint()
    state = load_state(path)
    state["format"] = CHECKPOINT_FORMAT - 1
    save_state(path, state)
    resumed, _, _ = build_run(
        ResilientTrainer, epochs=1, checkpoint_dir=ckpts, resume=True
    )
    with pytest.raises(CheckpointError) as err:
        resumed.run()
    assert str(path) in str(err.value)
    assert f"format {CHECKPOINT_FORMAT - 1}" in str(err.value)
    assert f"format {CHECKPOINT_FORMAT}" in str(err.value)
