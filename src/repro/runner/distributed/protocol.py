"""Wire protocol of the distributed sweep backend.

One message = one JSON object on one ``\\n``-terminated UTF-8 line over a
plain TCP socket.  Line-delimited JSON keeps the protocol trivially
debuggable (``nc HOST PORT`` and type a hello) and reuses the exact
serialization the artifact cache already guarantees for configs and
results -- a task crosses the wire as the same canonical
``{"task": ..., "params": ...}`` document that names its artifact, so the
scenario seam (compiled ``scenario.run`` specs are plain JSON params)
ships for free.

Message flow (worker-initiated, request/response plus streamed results)::

    worker -> broker   {"type": "hello", "worker_id", "host", "pid",
                        "procs", "protocol"}
    broker -> worker   {"type": "welcome", "protocol", "lease_ttl_s"}
    worker -> broker   {"type": "lease", "capacity": k}
    broker -> worker   {"type": "tasks", "lease": id,
                        "tasks": [{"id", "task", "params", "module"}, ...]}
                     | {"type": "empty", "done": bool}
    worker -> broker   {"type": "result", "lease": id, "id": task_id,
                        "result": ..., "meta": {...}}          (streamed)
                     | {"type": "error", "lease": id, "id": task_id,
                        "error": "...", "traceback": "..."}
                     | {"type": "heartbeat", "lease": id}
                     | {"type": "abandon", "lease": id, "ids": [task_id, ...]}

Results and heartbeats are fire-and-forget (TCP ordering is enough); only
``hello`` and ``lease`` have replies.  ``empty`` with ``done=true`` means
the sweep has fully drained -- loopback workers started with
``--exit-when-drained`` terminate, persistent daemons disconnect and poll
for the next sweep.  ``abandon`` is a draining worker's graceful return
of the unstarted remainder of its lease (requeued at the front, uncharged
against the retry budget).

Client flow (Sweep Hub submissions share the same port; the first message
type tells a worker hello apart from a client request)::

    client -> hub      {"type": "submit", "protocol", "name", "priority",
                        "force", "tasks": [{"id", "task", "params",
                        "module"}, ...]}
    hub -> client      {"type": "accepted", "sweep": key, "total": n,
                        "identity": hash, "reattached": bool,
                        "heartbeat_s": s}
                     | {"type": "busy", "error": "...", "retry_after_s": s}
    hub -> client      {"type": "result", "id": client_id, "result": ...,
                        "meta": {...}|null}                    (streamed)
                     | {"type": "hub-heartbeat"}               (idle stream)
    hub -> client      {"type": "sweep-done", "sweep": key, "stats": {...}}
                     | {"type": "sweep-failed", "sweep": key, "error": "..."}

    client -> hub      {"type": "status", "protocol"}
    hub -> client      {"type": "status", ...Broker.snapshot()...}

Every runner socket -- worker, hub client, and each connection a broker
or hub accepts -- sets ``TCP_NODELAY``.  The protocol writes small lines
back to back (a worker's ``result`` then its next ``lease``); with Nagle's
algorithm on, the second line waits for the peer's delayed ACK of the
first, ~40 ms per task on Linux.

A ``meta`` of ``null`` on a streamed result marks a hub-side cache hit
(dedupe against the shared artifact store), mirroring the local backends'
``(index, result, None)`` convention for cached completions.

High-availability additions (all hub-side; plain brokers never send
them): submissions are identified by ``identity`` -- the content hash of
the ordered task list -- and resubmitting an identity the hub already
holds re-attaches the stream to the live queue (``reattached: true``),
replaying completed results instead of duplicating work, which is what
makes client reconnect idempotent.  ``hub-heartbeat`` flows whenever a
``heartbeat_s`` interval passes with no result, so clients keep a read
timeout of a few intervals and detect a hung hub.  ``busy`` is the
admission-control rejection: the hub is at its pending-task capacity and
the client should back off ``retry_after_s`` seconds and resubmit.
"""

from __future__ import annotations

import json
import os
import socket
import weakref
from typing import Any, Dict, Optional, TextIO, Tuple

__all__ = [
    "PROTOCOL_VERSION",
    "send_message",
    "read_message",
    "reader_for",
    "parse_address",
    "format_address",
    "connect",
    "set_nodelay",
    "close_in_forked_children",
]

PROTOCOL_VERSION = 1


def send_message(
    sock: socket.socket, message: Dict[str, Any], *, injector: Optional[Any] = None
) -> None:
    """Write one message as a JSON line.

    ``allow_nan=True`` mirrors the runner's result canonicalization: a task
    result that survives ``_canonical_result`` also survives the wire.

    ``injector`` (a :class:`~repro.runner.faults.FaultInjector`) routes the
    encoded line through the fault-injection hooks: the line may then be
    delayed, duplicated, truncated, or replaced by a dropped connection
    (an ``OSError``), exercising the exact recovery paths a flaky network
    would.  ``None`` -- the production default -- sends directly.
    """
    line = json.dumps(message, separators=(",", ":"), allow_nan=True) + "\n"
    data = line.encode("utf-8")
    if injector is not None:
        injector.send(sock, data)
    else:
        sock.sendall(data)


def reader_for(sock: socket.socket) -> TextIO:
    """A buffered line reader over ``sock`` (pair it with ``read_message``)."""
    return sock.makefile("r", encoding="utf-8", newline="\n")


def read_message(reader: TextIO) -> Optional[Dict[str, Any]]:
    """Read one message; ``None`` on EOF.  Raises ``ValueError`` on garbage."""
    line = reader.readline()
    if not line:
        return None
    message = json.loads(line)
    if not isinstance(message, dict) or "type" not in message:
        raise ValueError(f"malformed protocol message: {line!r}")
    return message


def set_nodelay(sock: socket.socket) -> socket.socket:
    """Send every line as soon as it is written (disable Nagle)."""
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


#: The server side of this process: listeners and the connections they
#: accepted.  A forked child must not keep copies of these.
_PARENT_ONLY_SOCKETS: "weakref.WeakSet[socket.socket]" = weakref.WeakSet()


def close_in_forked_children(sock: socket.socket) -> socket.socket:
    """Have every child this process forks close its copy of ``sock``.

    A forked loopback worker (or pool process) would otherwise hold the
    broker's or the hub's listener and accepted connections: a peer whose
    connection the parent closes would never see EOF, and an orphaned
    child would keep a listening port bound after its parent died.  The
    parent's socket is untouched.
    """
    _PARENT_ONLY_SOCKETS.add(sock)
    return sock


def _close_parent_only_sockets() -> None:
    # ``detach`` + ``os.close`` frees only the child's descriptor, even
    # while a line reader still references the socket, and never shuts the
    # connection down under the parent.  A closed socket detaches to -1.
    for sock in list(_PARENT_ONLY_SOCKETS):
        try:
            os.close(sock.detach())
        except OSError:
            pass


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_close_parent_only_sockets)


def connect(address: Tuple[str, int], timeout: float) -> socket.socket:
    """Open a runner connection to ``address``.

    Raises ``OSError`` when the peer is unreachable -- including the
    loopback self-connect: retrying against a dead broker or hub on an
    ephemeral-range port can land source port == destination port (TCP
    simultaneous open), a socket connected to *itself*.  Left alone it
    would hang the handshake (the caller reads back its own first line)
    and squat the port against the service's restart bind.
    """
    sock = socket.create_connection(address, timeout=timeout)
    try:
        if sock.getsockname() == sock.getpeername():
            raise ConnectionRefusedError(
                f"{format_address(address)} is down (self-connected)"
            )
        return set_nodelay(sock)
    except OSError:
        sock.close()
        raise


def parse_address(text: str) -> Tuple[str, int]:
    """Parse ``HOST:PORT`` (or bare ``:PORT`` for all interfaces)."""
    host, sep, port = text.rpartition(":")
    if not sep or not port.isdigit():
        raise ValueError(f"expected HOST:PORT, got {text!r}")
    return (host or "0.0.0.0", int(port))


def format_address(address: Tuple[str, int]) -> str:
    host, port = address
    return f"{host}:{port}"
