"""Real-process RPC transport: shard servers in real worker processes.

:class:`RealRpcTransport` implements the :class:`~repro.dist.rpc.Transport`
interface with one OS process per shard. Each worker runs a stock
:class:`~repro.dist.server.CacheShardServer` behind a
``multiprocessing.connection`` duplex pipe — the connection layer
length-prefixes and pickles every message, giving the same framing a
hand-rolled socket protocol would, without a second serializer to test.

The failure classification matches :class:`~repro.dist.rpc.SimRpcChannel`
exactly (the Hypothesis parity suite in ``tests/dist`` holds the two
bit-identical), because the retry/breaker/delete-queue machinery above
keys off it:

* dead worker / broken pipe → :class:`~repro.dist.rpc.ShardOutageError`
  — connection refused, the call definitely did not execute;
* no reply within the deadline → :class:`~repro.dist.rpc.RpcTimeoutError`
  — the request was written to a live pipe, so the server may execute it
  anyway; the late reply is discarded by sequence number on the next
  call, mirroring the sim channel's "executes anyway, result lost"
  ambiguous timeout.

Time is modelled exactly as on the sim channel: :meth:`Transport.call`
charges each attempt's modelled latency (or, for a timeout, the deadline)
to the run's :class:`~repro.storage.clock.SimClock`, so a fault-free real
run reads the same clock as a sim run. Wall time only decides whether a
reply missed its deadline — a hung worker can only be detected in wall
time.

Fault *injection* is a simulation feature; real-process chaos is made with
:meth:`RealRpcTransport.kill_shard` (SIGKILL the worker) and
:meth:`RealRpcTransport.restart_shard` (fresh, empty server — cache
payloads are soft state).
"""

from __future__ import annotations

import multiprocessing as mp
import pickle
import time
from typing import Any, List, Optional, Tuple

from repro.dist.rpc import RpcError, RpcTimeoutError, ShardOutageError, Transport
from repro.dist.server import CacheShardServer
from repro.storage.clock import SimClock

__all__ = ["RealRpcTransport", "shard_worker_main"]

#: How long :meth:`RealRpcTransport.close` waits for a worker to exit
#: after the shutdown sentinel before escalating to ``kill()``.
_JOIN_TIMEOUT_S = 2.0

#: Shutdown sentinel (any non-tuple message stops the worker loop).
_SHUTDOWN = None


def shard_worker_main(conn: Any, shard_id: int) -> None:
    """Worker-process entry point: serve one shard until EOF/sentinel.

    Replies are ``(seq, ok, result_or_exc)`` tagged with the request's
    sequence number so the client can discard replies that arrive after
    their call already timed out.
    """
    server = CacheShardServer(shard_id)
    try:
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                break
            if not isinstance(msg, tuple):  # _SHUTDOWN sentinel
                break
            seq, method, args = msg
            try:
                result: Any = getattr(server, method)(*args)
                reply: Tuple[int, bool, Any] = (seq, True, result)
            except BaseException as exc:  # noqa: BLE001 — forwarded to client
                try:
                    pickle.dumps(exc)
                except Exception:
                    exc = RuntimeError(f"{type(exc).__name__}: {exc}")
                reply = (seq, False, exc)
            try:
                conn.send(reply)
            except (BrokenPipeError, OSError):
                break
    finally:
        try:
            conn.close()
        except OSError:
            pass


class _ShardWorker:
    """One shard's process + pipe endpoint + request sequence counter."""

    __slots__ = ("shard_id", "conn", "proc", "seq")

    def __init__(self, shard_id: int, ctx: Any) -> None:
        self.shard_id = int(shard_id)
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        self.conn = parent_conn
        self.proc = ctx.Process(
            target=shard_worker_main,
            args=(child_conn, self.shard_id),
            name=f"repro-shard-{self.shard_id}",
            daemon=True,  # backstop: never outlive the client process
        )
        self.proc.start()
        child_conn.close()  # child's end lives in the child now
        self.seq = 0

    # ------------------------------------------------------------------
    def request(self, method: str, args: Tuple[Any, ...], deadline_s: float) -> Any:
        """One call attempt; raises Outage/Timeout per the module doc."""
        if not self.proc.is_alive():
            raise ShardOutageError(
                self.shard_id, method, "worker process is dead"
            )
        self.seq += 1
        seq = self.seq
        try:
            self.conn.send((seq, method, args))
        except (BrokenPipeError, OSError):
            raise ShardOutageError(
                self.shard_id, method, "connection refused (pipe closed)"
            ) from None
        deadline = time.perf_counter() + deadline_s
        while True:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                raise RpcTimeoutError(
                    self.shard_id, method,
                    f"no reply within deadline {deadline_s * 1e3:.2f}ms",
                )
            try:
                if not self.conn.poll(remaining):
                    continue  # loop re-checks the deadline and raises
                rseq, ok, payload = self.conn.recv()
            except (EOFError, OSError):
                # Worker died mid-call: the request may or may not have
                # executed, but the *connection* is gone for good — every
                # later attempt fails instantly, which is the outage
                # (connection refused) shape, and what the breaker needs.
                raise ShardOutageError(
                    self.shard_id, method, "worker died mid-call"
                ) from None
            if rseq != seq:
                continue  # stale reply from a call that already timed out
            if ok:
                return payload
            raise payload  # server-side exception, re-raised verbatim

    def shutdown(self, kill: bool = False) -> None:
        if self.proc.is_alive():
            if kill:
                self.proc.kill()
            else:
                try:
                    self.conn.send(_SHUTDOWN)
                except (BrokenPipeError, OSError):
                    pass
            self.proc.join(_JOIN_TIMEOUT_S)
            if self.proc.is_alive():
                self.proc.kill()
                self.proc.join(_JOIN_TIMEOUT_S)
        try:
            self.conn.close()
        except OSError:
            pass
        self.proc.close()


class RealRpcTransport(Transport):
    """Shard servers in real worker processes; time is modelled.

    Shards are provisioned with :meth:`add_shard` (the client provisions
    its own), each a worker started from a ``fork`` context where the
    platform has one (fast worker start), else the platform default.

    Parameters
    ----------
    clock:
        As on :class:`~repro.dist.rpc.SimRpcChannel`: each attempt
        charges its modelled latency to ``clock``'s ``"rpc"`` stage, so
        retry backoffs and breaker cool-downs elapse in simulated
        seconds, as they do in sim.
    deadline_s:
        Per-call reply deadline in wall seconds; a reply that misses it
        is a timeout and charges ``deadline_s``. Real IPC has genuine
        latency jitter, so real runs want a *much* looser deadline than
        the simulated 0.01 s default (the CLI uses 1 s).
    """

    name = "real"

    def __init__(
        self, clock: Optional[SimClock] = None, deadline_s: float = 1.0
    ) -> None:
        super().__init__(clock, deadline_s)
        try:
            self._ctx = mp.get_context("fork")
        except ValueError:  # pragma: no cover — non-fork platforms
            self._ctx = mp.get_context()
        self._workers: dict = {}

    # -- shard lifecycle -----------------------------------------------
    def add_shard(self, shard: int) -> None:
        shard = int(shard)
        if shard not in self._workers:
            self._workers[shard] = _ShardWorker(shard, self._ctx)

    def has_shard(self, shard: int) -> bool:
        return int(shard) in self._workers

    @property
    def shard_ids(self) -> List[int]:
        return sorted(self._workers)

    # -- chaos hooks ----------------------------------------------------
    def kill_shard(self, shard: int) -> None:
        """SIGKILL one shard's worker (its id stays provisioned, so
        every later call fails as an outage until :meth:`restart_shard`)."""
        worker = self._workers.get(int(shard))
        if worker is None:
            raise RpcError(int(shard), "kill", "unknown shard")
        if worker.proc.is_alive():
            worker.proc.kill()
            worker.proc.join(_JOIN_TIMEOUT_S)

    def restart_shard(self, shard: int) -> None:
        """Replace one shard's worker with a fresh, *empty* server —
        cache payloads are soft state; the client's write queues and
        degraded-read paths tolerate the loss."""
        shard = int(shard)
        worker = self._workers.get(shard)
        if worker is None:
            raise RpcError(shard, "restart", "unknown shard")
        worker.shutdown(kill=True)
        self._workers[shard] = _ShardWorker(shard, self._ctx)

    # -- data plane -----------------------------------------------------
    def _attempt(
        self, shard: int, method: str, args: Tuple[Any, ...],
        latency_s: float, now: float,
    ) -> Tuple[Any, float]:
        try:
            outcome = self._workers[shard].request(method, args, self.deadline_s)
        except (ShardOutageError, RpcTimeoutError) as exc:
            outcome = exc
        return outcome, latency_s

    def peek(self, shard: int, method: str, *args: Any) -> Any:
        """Control-plane read: same wire, but no stats and a generous
        fixed deadline (audits must not race the configured budget)."""
        worker = self._workers.get(int(shard))
        if worker is None:
            raise RpcError(int(shard), method, "unknown shard")
        return worker.request(method, tuple(args), max(self.deadline_s, 5.0))

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut every worker down (idempotent)."""
        workers, self._workers = self._workers, {}
        for worker in workers.values():
            worker.shutdown()
