"""Shard-tier test helpers: a reference for key moves and a bounded drain."""

from unittest import mock

from repro.dist import client as client_module


def ring_moves(old, new, keys):
    """``{key: (old_shard, new_shard)}`` for exactly the keys whose owner
    differs between two rings."""
    moves = {}
    for k in keys:
        src, dst = old.shard_for(k), new.shard_for(k)
        if src != dst:
            moves[int(k)] = (src, dst)
    return moves


def drain(cli, batches):
    """One ``continue_migration`` call that attempts at most ``batches``
    pending batches (the program drains them all)."""
    with mock.patch.object(client_module, "MAX_DRAIN_BATCHES", batches):
        return cli.continue_migration()
