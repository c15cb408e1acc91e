"""The replica process: a peer (:mod:`repro.distributed.peer`) on a socket.

A replica binds ``127.0.0.1:port`` on startup, accepts exactly one
connection — its coordinator, a
:class:`~repro.distributed.fleet.ReplicaFleet` — and runs the one serve
loop over it until the connection ends. Everything it answers, and how,
is :func:`repro.distributed.peer.serve`'s; this module only owns the
listener.
"""

from __future__ import annotations

import os
import socket

from repro.distributed.peer import serve
from repro.distributed.protocol import SocketChannel

#: replicas are serving-tier processes on the coordinator's host; the
#: fleet never listens on an external interface
FLEET_HOST = "127.0.0.1"

#: exit codes, distinguishable in a post-mortem
EXIT_BIND_FAILED = 21
EXIT_NO_COORDINATOR = 22

#: how long a fresh replica waits for its coordinator to connect
ACCEPT_TIMEOUT_SECONDS = 30.0


def replica_main(port: int, replica_id: int) -> None:  # pragma: no cover - subprocess
    """Entry point of one replica process: bind, accept, serve, exit."""
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    try:
        listener.bind((FLEET_HOST, port))
        listener.listen(1)
        listener.settimeout(ACCEPT_TIMEOUT_SECONDS)
    except OSError:
        listener.close()
        os._exit(EXIT_BIND_FAILED)
    try:
        sock, _ = listener.accept()
    except OSError:
        os._exit(EXIT_NO_COORDINATOR)
    finally:
        listener.close()
    channel = SocketChannel(sock)
    try:
        serve(channel, replica_id)
    finally:
        channel.close()
