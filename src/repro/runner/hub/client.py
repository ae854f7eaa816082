"""Client side of the Sweep Hub protocol: self-healing submissions.

A submission speaks one TCP connection at a time: send a ``submit``
message (the same ``{"id", "task", "params", "module"}`` task documents
workers lease), receive an ``accepted`` acknowledgement, then consume
streamed ``result`` messages until ``sweep-done`` (or ``sweep-failed``).
The stream yields the familiar backend triple ``(index, result, meta)``
-- ``meta is None`` marking a hub-side cache hit -- so
:class:`~repro.runner.distributed.backend.DistributedBackend` plugs it
straight into the runner's aggregation loop, byte-identical to every
other backend, whether the hub is a standing one or its own.

Two liveness mechanisms make the submission survive the hub:

- **Read timeout + heartbeats.**  ``accepted`` advertises the hub's
  heartbeat cadence and the socket keeps a read timeout of a few
  heartbeat intervals, so a hub that hangs *without* closing the
  connection is detected instead of blocking the client forever.
- **Reconnect + idempotent resubmission.**  Any retryable stream loss
  (connection refused, reset, EOF mid-sweep, stalled heartbeats, a
  ``busy`` admission rejection) backs off with a seedable
  :class:`~repro.runner.faults.Backoff` and resubmits the identical task
  list.  The hub dedupes submissions by content-hash identity and
  re-attaches the stream to the live (or journal-adopted) queue,
  replaying completed results; the client drops indices it already
  delivered, so consumers see every result exactly once -- a hub SIGKILL
  mid-sweep costs a pause, not a ``--resume``.

``sweep-failed`` and submission rejection are **fatal**: the hub is
telling us the sweep itself is bad (retries exhausted, malformed tasks),
and retrying would fail identically.
"""

from __future__ import annotations

import socket
import sys
import time
from typing import Any, Callable, Dict, Iterator, Optional, Sequence, Set, Tuple

from repro.runner.backends import CompletedItem, WorkItem
from repro.runner.distributed.broker import BrokerError
from repro.runner.distributed.protocol import (
    PROTOCOL_VERSION,
    close_in_forked_children,
    connect,
    read_message,
    reader_for,
    send_message,
)
from repro.runner.faults import Backoff

__all__ = ["HubSubmission", "query_hub_status"]

#: Read-timeout multiple of the hub's advertised heartbeat interval: a
#: stream with no result *and* no heartbeat for this many intervals is a
#: hung (or dead-without-FIN) hub, not a slow sweep.
HEARTBEAT_TIMEOUT_FACTOR = 4.0


class _HubUnavailable(Exception):
    """A retryable loss of the hub (refused, reset, EOF, stalled, busy)."""

    def __init__(self, detail: str, *, retry_after_s: Optional[float] = None):
        super().__init__(detail)
        self.retry_after_s = retry_after_s


class HubSubmission:
    """One sweep submitted to a standing hub; iterate for its results.

    Parameters
    ----------
    address:
        The hub's ``(host, port)``.
    items:
        Work items ``(index, task, params, module)``; indices are the
        submitting client's own and come back unchanged on each result.
    name / priority / force:
        Submission metadata: ``name`` labels the sweep in ``hub status``,
        ``priority`` ranks it for fair-share dispatch (higher preempts at
        the next lease grant), ``force`` disables the hub-side
        artifact-cache dedupe for this sweep.
    connect_timeout_s:
        Timeout for establishing the connection and the submit handshake;
        once accepted the read timeout follows the hub's heartbeat cadence
        (sweeps legitimately take arbitrarily long, heartbeats must not).
    reconnect_attempts:
        Consecutive failed reconnect attempts tolerated before giving up
        with :class:`BrokerError`.  A successful resubmission resets the
        streak, so a hub that keeps crashing-and-restarting is ridden out
        indefinitely; only a hub that stays *down* exhausts the budget.
        ``0`` restores the historical fail-fast behaviour.
    backoff:
        The reconnect :class:`~repro.runner.faults.Backoff`; pass a seeded
        one for deterministic tests.  Defaults to the worker daemons'
        schedule (0.5s base, 15s cap, 25% jitter).
    quiet:
        Suppress the per-reconnect stderr notices.
    poll:
        Optional zero-argument callable run once the hub accepts the
        submission and then on every stream message (``hub-heartbeat``
        included); an exception it raises ends the iteration.  The
        distributed backend's loopback respawn watch runs here.
    """

    def __init__(
        self,
        address: Tuple[str, int],
        items: Sequence[WorkItem],
        *,
        name: str = "",
        priority: int = 0,
        force: bool = False,
        connect_timeout_s: float = 10.0,
        reconnect_attempts: int = 8,
        backoff: Optional[Backoff] = None,
        quiet: bool = False,
        poll: Optional[Callable[[], None]] = None,
    ) -> None:
        if reconnect_attempts < 0:
            raise ValueError(
                f"reconnect_attempts must be >= 0, got {reconnect_attempts}"
            )
        self.address = address
        self.items = list(items)
        self.name = name
        self.priority = priority
        self.force = force
        self.connect_timeout_s = connect_timeout_s
        self.reconnect_attempts = reconnect_attempts
        self.quiet = quiet
        self.poll = poll
        self._backoff = backoff if backoff is not None else Backoff()
        #: The hub's key for this sweep (set once ``accepted`` arrives).
        self.sweep_id: Optional[str] = None
        #: The hub's per-sweep counters from ``sweep-done``.
        self.stats: Dict[str, Any] = {}
        #: Times the stream was lost and re-established.
        self.reconnects = 0
        #: Whether the last accepted submission re-attached to a live queue.
        self.reattached = False
        #: Indices already yielded (dedupes the hub's replay on re-attach).
        self._delivered: Set[Any] = set()

    # ------------------------------------------------------------------ #
    def __iter__(self) -> Iterator[CompletedItem]:
        self._delivered.clear()
        self._backoff.reset()
        while True:
            try:
                for item in self._attempt():
                    yield item
                return
            except _HubUnavailable as exc:
                if self._backoff.attempts >= self.reconnect_attempts:
                    raise BrokerError(
                        f"hub at {self.address[0]}:{self.address[1]} unavailable "
                        f"after {self._backoff.attempts + 1} attempt(s): {exc} "
                        f"({len(self._delivered)}/{len(self.items)} results "
                        "delivered; artifacts for finished tasks are persisted "
                        "-- re-run, or re-run with --resume, once the hub is "
                        "back)"
                    ) from exc
                delay = self._backoff.next_delay()
                if exc.retry_after_s is not None:
                    delay = max(delay, float(exc.retry_after_s))
                self.reconnects += 1
                if not self.quiet:
                    sys.stderr.write(
                        f"[hub-client] {exc}; retrying in {delay:.1f}s "
                        f"(attempt {self._backoff.attempts})\n"
                    )
                time.sleep(delay)

    # ------------------------------------------------------------------ #
    def _attempt(self) -> Iterator[CompletedItem]:
        """One connect + submit + stream pass.

        Raises :class:`_HubUnavailable` for everything a reconnect can
        heal and :class:`BrokerError` for sweep-fatal conditions.
        """
        try:
            # A loopback worker forked mid-stream must not hold the stream.
            sock = close_in_forked_children(
                connect(self.address, self.connect_timeout_s)
            )
        except OSError as exc:
            raise _HubUnavailable(
                f"cannot reach hub at {self.address[0]}:{self.address[1]}: {exc}"
            ) from exc
        reader = None
        try:
            # The connect timeout also covers the submit handshake; the
            # steady-state read timeout is set from the hub's advertised
            # heartbeat cadence once accepted.
            sock.settimeout(self.connect_timeout_s)
            try:
                send_message(
                    sock,
                    {
                        "type": "submit",
                        "protocol": PROTOCOL_VERSION,
                        "name": self.name,
                        "priority": self.priority,
                        "force": self.force,
                        "tasks": [
                            {
                                "id": index,
                                "task": task,
                                "params": params,
                                "module": module,
                            }
                            for index, task, params, module in self.items
                        ],
                    },
                )
                reader = reader_for(sock)
                ack = read_message(reader)
            except socket.timeout as exc:
                raise _HubUnavailable(
                    f"hub handshake timed out after {self.connect_timeout_s:.1f}s"
                ) from exc
            except (OSError, ValueError) as exc:
                raise _HubUnavailable(f"hub handshake failed: {exc}") from exc
            if ack is None:
                raise _HubUnavailable("hub closed the connection during submit")
            if ack.get("type") == "busy":
                raise _HubUnavailable(
                    str(ack.get("error", "hub at capacity")),
                    retry_after_s=ack.get("retry_after_s"),
                )
            if ack.get("type") != "accepted":
                detail = ack.get("error") or f"unexpected reply {ack.get('type')!r}"
                raise BrokerError(f"hub rejected submission: {detail}")
            self.sweep_id = ack.get("sweep")
            self.reattached = bool(ack.get("reattached", False))
            total = int(ack.get("total", len(self.items)))
            heartbeat_s = float(ack.get("heartbeat_s") or 2.0)
            sock.settimeout(max(1.0, HEARTBEAT_TIMEOUT_FACTOR * heartbeat_s))
            # Handshake-gated reset (same pattern as the worker daemon):
            # each successful resubmission buys a fresh give-up budget, so
            # only a hub that stays down exhausts it.
            self._backoff.reset()
            delivered = len(self._delivered)
            if self.poll is not None:
                self.poll()
            while True:
                try:
                    message = read_message(reader)
                except socket.timeout as exc:
                    raise _HubUnavailable(
                        "hub stream stalled (no result or heartbeat in "
                        f"{HEARTBEAT_TIMEOUT_FACTOR * heartbeat_s:.1f}s)"
                    ) from exc
                except (OSError, ValueError) as exc:
                    raise _HubUnavailable(f"hub stream lost: {exc}") from exc
                if message is None:
                    raise _HubUnavailable(
                        f"hub connection lost mid-sweep ({delivered}/{total} "
                        "results delivered)"
                    )
                if self.poll is not None:
                    self.poll()
                kind = message.get("type")
                if kind == "hub-heartbeat":
                    continue
                if kind == "result":
                    index = message.get("id")
                    if index in self._delivered:
                        continue  # replayed on re-attach; already consumed
                    self._delivered.add(index)
                    delivered += 1
                    meta = message.get("meta")
                    yield (
                        index,
                        message.get("result"),
                        meta if isinstance(meta, dict) else None,
                    )
                elif kind == "sweep-done":
                    stats = message.get("stats")
                    self.stats = stats if isinstance(stats, dict) else {}
                    return
                elif kind == "sweep-failed":
                    raise BrokerError(str(message.get("error", "sweep failed")))
                else:
                    raise BrokerError(f"unexpected hub message type {kind!r}")
        finally:
            # The reader holds the descriptor open past ``sock.close()``;
            # a traceback keeping this frame alive would leak it.
            try:
                if reader is not None:
                    reader.close()
                sock.close()
            except OSError:
                pass


def query_hub_status(address: Tuple[str, int]) -> Dict[str, Any]:
    """One-shot ``status`` request; returns the hub's live snapshot."""
    try:
        sock = connect(address, 10.0)
    except OSError as exc:
        raise BrokerError(
            f"cannot reach hub at {address[0]}:{address[1]}: {exc}"
        ) from exc
    try:
        send_message(sock, {"type": "status", "protocol": PROTOCOL_VERSION})
        reply = read_message(reader_for(sock))
        if reply is None or reply.get("type") != "status":
            detail = (reply or {}).get("error", "connection closed")
            raise BrokerError(f"hub status request failed: {detail}")
        reply.pop("type", None)
        return reply
    finally:
        try:
            sock.close()
        except OSError:
            pass
