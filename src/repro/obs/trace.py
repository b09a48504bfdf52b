"""Structured trace recorders (the event-sink half of ``repro.obs``).

A *trace* is an append-only journal of structured events — one dict per
event — emitted by the cache hierarchy, the stores, the elastic manager,
the circuit breaker, and the trainer as a run executes. Two sinks:

* :class:`InMemoryRecorder` — keeps events in a list; tests and
  interactive analysis.
* :class:`JsonlRecorder` — streams events to a file as JSON lines; the
  format ``repro report`` and :mod:`repro.obs.report` consume.

Every event carries at least ``kind`` (the event type, e.g. ``"fetch"``)
and ``epoch`` (the trainer's current epoch, ``-1`` outside a run). The
remaining fields are kind-specific; see the README "Observability"
section for the full schema.

Two tiers of event reach a sink. *Cold* events (``batch``, ``epoch``,
``span``, ``breaker``, ``checkpoint``, ...) arrive as flat
dicts through :meth:`TraceRecorder.emit`. The *per-request* kinds in
:data:`ROW_SCHEMA` — the stream whose volume scales with the number of
samples — arrive as positional tuples through
:meth:`TraceRecorder.emit_row`, and :func:`expand_row` is the one place
that turns a tuple back into the flat dict. In-memory sinks expand at
once; the JSONL sink writes consecutive rows that share an
``(epoch, trace, span)`` stamp as one ``kind="rows"`` block line and
:func:`read_jsonl` expands it on the way back in, so every reader sees
the same flat events, in the same order, either way.
"""

from __future__ import annotations

import atexit
import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

__all__ = [
    "TraceRecorder",
    "InMemoryRecorder",
    "JsonlRecorder",
    "SEGMENT_KIND",
    "ROWS_KIND",
    "ROW_SCHEMA",
    "expand_row",
    "read_jsonl",
]

#: Kind of the header event a :class:`JsonlRecorder` writes each time it
#: (re)opens a trace file. A resumed run appends a second header, so
#: ``repro report`` can count segments and stitch the journal.
SEGMENT_KIND = "trace_segment"

#: Kind of the block line a :class:`JsonlRecorder` writes for a run of
#: per-request rows: ``{"kind": "rows", "epoch": e, "trace": t, "span": s,
#: "rows": [[kind, *values], ...]}`` (``trace`` / ``span`` omitted when the
#: rows carry none). It exists only on disk — :func:`read_jsonl` expands
#: it, so no consumer ever sees it.
ROWS_KIND = "rows"

#: The per-request event kinds and their positional layout: ``kind ->
#: (field names in row order, how many leading fields are always
#: present)``. A row is ``(kind, *values)``; a ``None`` in a position past
#: the required prefix means the flat event has no such field (``audit``
#: without a ``reason``), a ``None`` inside it is a real ``null``
#: (``importance_admit``'s ``evicted_key``). Field order is the flat
#: event's key order.
ROW_SCHEMA: Dict[str, Tuple[Tuple[str, ...], int]] = {
    "fetch": (("requested_id", "served_id", "source", "latency_s"), 4),
    "prefetch": (("index", "admitted", "latency_s"), 3),
    "importance_admit": (("key", "score", "admitted", "evicted_key"), 4),
    "evict": (("layer", "key", "reason"), 3),
    "audit": (
        ("action", "key", "layer",
         "score", "threshold", "requested_id", "reason"),
        3,
    ),
}


def _stamped(
    kind: str, epoch: int, trace: Optional[str], span: Optional[str]
) -> Dict[str, Any]:
    """The leading fields of an event or block: ``kind``, ``epoch`` and
    whichever correlation stamps it carries."""
    head: Dict[str, Any] = {"kind": kind, "epoch": epoch}
    if trace is not None:
        head["trace"] = trace
        if span is not None:
            head["span"] = span
    return head


def expand_row(
    epoch: int, trace: Optional[str], span: Optional[str], row: Any
) -> Dict[str, Any]:
    """The flat event a positional ``row`` stands for.

    ``trace`` / ``span`` are the correlation stamps of the request that
    produced the row (``None``: the event carries no such field). Used
    by every sink that keeps flat events and by :func:`read_jsonl`, so
    the writer-side and reader-side expansions cannot drift apart.
    """
    fields, n_required = ROW_SCHEMA[row[0]]
    event = _stamped(row[0], epoch, trace, span)
    for i, name in enumerate(fields, 1):
        value = row[i]
        if value is not None or i <= n_required:
            event[name] = value
    return event


class TraceRecorder:
    """Protocol for trace sinks.

    Subclasses implement :meth:`emit`; a run with no sink has no
    recorder at all (its observer is inactive). :meth:`emit_row` has a
    default that keeps any sink flat and immediate; only a sink with a
    cheaper representation overrides it.
    """

    def emit(self, event: Dict[str, Any]) -> None:
        """Record one structured event (a flat JSON-serializable dict)."""
        raise NotImplementedError

    def emit_row(
        self, epoch: int, trace: Optional[str], span: Optional[str],
        row: Tuple[Any, ...],
    ) -> None:
        """Record one per-request event given as a :data:`ROW_SCHEMA` row.

        Default: expand to the flat event and :meth:`emit` it now.
        """
        self.emit(expand_row(epoch, trace, span, row))

    def close(self) -> None:
        """Flush and release any underlying resources (default: no-op)."""


class InMemoryRecorder(TraceRecorder):
    """Accumulates events in ``self.events`` (a plain list of dicts)."""

    def __init__(self) -> None:
        self.events: List[Dict[str, Any]] = []

    def emit(self, event: Dict[str, Any]) -> None:
        """Append the event to the in-memory list."""
        self.events.append(event)

    def clear(self) -> None:
        """Drop all recorded events."""
        self.events.clear()


def _truncate_partial_tail(path: Path) -> None:
    """Cut a newline-less partial final line off ``path`` in place.

    A crashed writer flushes whole lines, so anything after the last
    ``\\n`` is at most one incomplete line — the same fragment
    :func:`read_jsonl` silently drops. No-op when the file already ends
    cleanly.
    """
    with path.open("rb+") as fh:
        fh.seek(0, 2)
        size = fh.tell()
        if size == 0:
            return
        # Scan backwards chunk by chunk for the last newline; event
        # lines are small, so the first 64 KiB chunk almost always hits.
        end = size
        keep = 0
        while end > 0:
            step = min(end, 65536)
            fh.seek(end - step)
            cut = fh.read(step).rfind(b"\n")
            if cut != -1:
                keep = end - step + cut + 1
                break
            end -= step
        if keep != size:
            fh.truncate(keep)


#: The C one-shot encoder (``json.dump`` to a file object takes the
#: pure-Python ``iterencode`` path, ~9x slower per event).
_encode = json.JSONEncoder(separators=(",", ":")).encode

#: A block closes at this many rows even when nothing else closes it, so
#: a stream with no cold events cannot grow the buffer (or what a crash
#: loses) without bound.
_MAX_BLOCK_ROWS = 512


class JsonlRecorder(TraceRecorder):
    """Streams events to ``path`` as JSON lines.

    A cold event (:meth:`emit`) is one line, written and flushed at
    once. Per-request rows (:meth:`emit_row`) are buffered and written
    as one ``kind="rows"`` block line per run of consecutive rows with
    the same ``(epoch, trace, span)`` stamp — on the training path, one
    block per batch. The open block is closed, in order, by the next
    cold event, by a row with a different stamp (a span opened or
    closed, the epoch advanced), by
    :meth:`close`, or at interpreter exit; a line is one C-encoder call
    and a closed block / cold event is one ``flush``.

    Durability: every cold event reaches the file before :meth:`emit`
    returns, together with all rows emitted before it, so a crashed (or
    preempted) run leaves a readable trace up to its last ``batch`` /
    ``breaker`` / ``checkpoint`` / ... event; a SIGKILL loses at most
    the rows of the one open block. Use as a context manager or call
    :meth:`close` explicitly.

    The file is opened lazily, in **append** mode, and each (re)open
    writes a ``trace_segment`` header line: a checkpoint-restored run
    pointed at the same path extends the pre-preemption journal as a new
    segment instead of truncating it (mode ``"w"`` silently destroyed
    the history a resume exists to preserve). Callers starting a
    genuinely fresh run over an old path should unlink it first — the
    CLI does.

    Everything that reaches the file goes through :meth:`emit`, looked
    up on the instance at call time, so a wrapper installed over it
    brackets all encoding and I/O. ``emitted`` counts lines written.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._fh = None
        self.emitted = 0
        self._stamp: Optional[Tuple[int, Optional[str], Optional[str]]] = None
        self._rows: List[Tuple[Any, ...]] = []

    def emit(self, event: Dict[str, Any]) -> None:
        """Write the open row block, then ``event``; flush once."""
        lines = []
        if self._fh is None:
            lines.append({"kind": SEGMENT_KIND, "resumed": self._open()})
        block = self._take_block()
        if block is not None:
            lines.append(block)
        lines.append(event)
        self._fh.write("".join([_encode(e) + "\n" for e in lines]))
        self._fh.flush()
        self.emitted += len(lines)

    def emit_row(
        self, epoch: int, trace: Optional[str], span: Optional[str],
        row: Tuple[Any, ...],
    ) -> None:
        """Append ``row`` to the open block, closing it first when the
        stamp changed (worst case a block of one row, never a row under
        another request's stamp)."""
        stamp = (epoch, trace, span)
        rows = self._rows
        if stamp != self._stamp or len(rows) >= _MAX_BLOCK_ROWS:
            self._close_block()
            self._stamp = stamp
            rows = self._rows
        rows.append(row)

    def _take_block(self) -> Optional[Dict[str, Any]]:
        """The open block as its line (and a fresh buffer), or ``None``."""
        rows = self._rows
        if not rows:
            return None
        self._rows = []
        block = _stamped(ROWS_KIND, *self._stamp)
        block["rows"] = rows
        return block

    def _close_block(self) -> None:
        block = self._take_block()
        if block is not None:
            self.emit(block)

    def _open(self) -> bool:
        """Open the file for appending; True when it extends a journal."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        resumed = self.path.exists() and self.path.stat().st_size > 0
        if resumed:
            # If the previous segment's writer died mid-write, the
            # file ends in a partial line with no terminator.
            # Appending straight after it would glue the new
            # segment header onto that fragment — turning the
            # tolerable truncated *tail* read_jsonl drops into
            # mid-file corruption it refuses. Drop the fragment
            # (no reader could have used it) before appending.
            _truncate_partial_tail(self.path)
        self._fh = self.path.open("a")
        # An exception that unwinds past the owner still drains the
        # open block (only a kill signal loses it).
        atexit.register(self.close)
        return resumed

    def close(self) -> None:
        """Write the open block and close the file (idempotent)."""
        self._close_block()
        if self._fh is not None:
            self._fh.close()
            self._fh = None
            atexit.unregister(self.close)

    def __enter__(self) -> "JsonlRecorder":
        """Context-manager entry: returns self."""
        return self

    def __exit__(self, *exc) -> None:
        """Context-manager exit: closes the file."""
        self.close()


def read_jsonl(
    path: Union[str, Path], return_truncated: bool = False
) -> Union[List[Dict[str, Any]], Tuple[List[Dict[str, Any]], bool]]:
    """Load a JSONL trace file back into a list of flat event dicts.

    A ``kind="rows"`` block line is expanded through :func:`expand_row`
    into the per-request events it holds, in place and in order, so a
    trace reads the same whether its writer used blocks or (as before
    blocks existed) one line per event. Blank lines are skipped. A
    truncated *final* line — the signature a crashed writer leaves
    mid-``write`` — is silently dropped, keeping
    the docstring promise that crashed-run traces are readable; pass
    ``return_truncated=True`` to get ``(events, truncated)`` so callers
    (``repro report``) can surface that the tail was cut. Unparseable
    lines anywhere *before* the final one still raise
    ``json.JSONDecodeError``: that is corruption, not truncation.
    """
    events: List[Dict[str, Any]] = []
    truncated = False
    pending_error: Union[json.JSONDecodeError, None] = None
    with Path(path).open() as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if pending_error is not None:
                raise pending_error  # bad line followed by more data
            try:
                event = json.loads(line)
            except json.JSONDecodeError as exc:
                pending_error = exc
                continue
            if event.get("kind") == ROWS_KIND:
                stamp = event["epoch"], event.get("trace"), event.get("span")
                events.extend(expand_row(*stamp, row) for row in event["rows"])
            else:
                events.append(event)
    if pending_error is not None:
        truncated = True
    if return_truncated:
        return events, truncated
    return events
