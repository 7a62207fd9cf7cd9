"""Reference model server for the newline-delimited JSON wire protocol.

Serves any object with generate/train/save/load methods over TCP, one JSON
object per line. Exists so the pipeline can be driven end-to-end against a
real socket without a neural model: `RuleServable`, the in-process servable
of `gateway` re-exported here, wraps the deterministic rule-based baselines
and answers train requests with a pseudo loss equal to the pair count. Real
model servers only need to reproduce the same five commands.

Protocol per connection: requests are read by `gateway.read_message`, the
framing the client applies to replies, and their ids must be strictly
increasing. A line that breaks the framing (over-long, cut off at end of
stream, not a JSON object, no integer id) or an id out of order is answered
with ok=false and the connection dropped. A read or write that fails (the
client reset or went away) ends the connection quietly.
"""

from __future__ import annotations

import json
import socketserver
import threading
from typing import Optional

from . import gateway
from .errors import GatewayError
from .gateway import MAX_LEN, MIN_LEN
from .gateway import RuleServable  # noqa: F401 -- re-exported with the server


class _Handler(socketserver.StreamRequestHandler):
    def _reply(self, payload: dict) -> None:
        self.wfile.write((json.dumps(payload, ensure_ascii=False) + "\n").encode("utf-8"))

    def handle(self) -> None:
        try:
            self._serve()
        except OSError:
            return  # the client reset or dropped the connection: it is over

    def _serve(self) -> None:
        last_id = 0
        servable = self.server.servable
        lock = self.server.model_lock
        while True:
            try:
                req = gateway.read_message(self.rfile)
            except GatewayError as exc:
                self._reply({"id": last_id, "ok": False, "error": str(exc)})
                return
            if req is None:
                return
            rid = req["id"]
            if rid <= last_id:
                error = f"ids must be strictly increasing, got {rid} after {last_id}"
                self._reply({"id": rid, "ok": False, "error": error})
                return
            last_id = rid
            cmd = req.get("cmd")
            try:
                with lock:
                    extra = self._dispatch(servable, cmd, req)
            except Exception as exc:
                self._reply({"id": rid, "ok": False, "error": str(exc)})
                continue
            self._reply({"id": rid, "ok": True, **extra})
            if cmd == "shutdown":
                threading.Thread(target=self.server.shutdown, daemon=True).start()
                return

    def _dispatch(self, servable, cmd: str, req: dict) -> dict:
        if cmd == "generate":
            inputs = req.get("inputs")
            if not isinstance(inputs, list) or not inputs or not all(isinstance(i, str) for i in inputs):
                raise ValueError("'inputs' must be a non-empty list of strings")
            outputs = servable.generate(
                inputs,
                max_len=int(req.get("max_len", MAX_LEN)),
                min_len=int(req.get("min_len", MIN_LEN)),
            )
            return {"outputs": outputs}
        if cmd == "train":
            pairs = req.get("pairs")
            if (
                not isinstance(pairs, list)
                or not pairs
                or not all(
                    isinstance(p, list) and len(p) == 2 and all(isinstance(x, str) for x in p)
                    for p in pairs
                )
            ):
                raise ValueError("'pairs' must be a non-empty list of [source, target]")
            loss = servable.train([tuple(p) for p in pairs])
            return {} if loss is None else {"loss": loss}
        if cmd in ("save", "load"):
            tag = req.get("tag")
            if not isinstance(tag, str) or not tag.strip():
                raise ValueError("'tag' must be a non-empty string")
            getattr(servable, cmd)(tag)
            return {}
        if cmd == "shutdown":
            return {}
        raise ValueError(f"unknown cmd {cmd!r}")


# Seconds between the serving loop's checks for a stop request: stop() waits
# up to this long.
_POLL_INTERVAL = 0.02


class ModelServer:
    """Threaded TCP server; use as a context manager in tests and tools.

    Binds immediately (port 0 picks a free port); `endpoint` gives the
    address a ModelHandle can connect to. `stop` closes the listening socket
    whether or not `start` ran, and a second `stop` does nothing more.
    """

    def __init__(self, servable, host: str = "127.0.0.1", port: int = 0):
        self._server = socketserver.ThreadingTCPServer((host, port), _Handler)
        self._server.daemon_threads = True
        self._server.servable = servable
        self._server.model_lock = threading.Lock()
        self._thread: Optional[threading.Thread] = None

    @property
    def endpoint(self) -> str:
        host, port = self._server.server_address[:2]
        return f"{host}:{port}"

    def start(self) -> "ModelServer":
        self._thread = threading.Thread(
            target=self._server.serve_forever, args=(_POLL_INTERVAL,), daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._thread is not None:
            # shutdown() waits for serve_forever, so only a started server may call it
            self._server.shutdown()
            self._thread.join(timeout=5)
            self._thread = None
        self._server.server_close()

    def __enter__(self) -> "ModelServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
