"""Reference model server for the newline-delimited JSON wire protocol.

Serves any object with generate/train/save/load methods over TCP, one JSON
object per line. Exists so the pipeline can be driven end-to-end against a
real socket without a neural model: `RuleServable`, the in-process servable
of `gateway` re-exported here, wraps the deterministic rule-based baselines
and answers train requests with a pseudo loss equal to the pair count. Real
model servers only need to reproduce the same four commands: generate,
train, save and load. No request stops a server; `ModelServer.stop` does.

Protocol per connection: requests are read by `gateway.read_message` and
replies written by `gateway.write_message`, the framing the client uses the
other way round, and request ids must be strictly increasing. A line that
breaks the framing (over-long, cut off at end of stream, not a JSON object,
NaN or Infinity inside, no integer id) or an id out of order is answered
with ok=false and the connection dropped. An unknown command, a servable's
error, or an answer JSON cannot carry (a NaN loss, say), is answered with
ok=false and the connection kept. A read or write that fails (the client
reset or went away) ends the connection quietly. What a servable answers is
checked by the client's batch calls, not here.
"""

from __future__ import annotations

import socketserver
import threading
from typing import Optional

from . import gateway
from .errors import GatewayError
from .gateway import MAX_LEN, MIN_LEN
from .gateway import RuleServable  # noqa: F401 -- re-exported with the server


class _Handler(socketserver.StreamRequestHandler):
    def _reply(self, payload: dict) -> None:
        try:
            gateway.write_message(self.wfile, payload)
        except (TypeError, ValueError) as exc:
            # refused before a byte went out, so the line can still be an answer
            error = f"the servable's answer is not JSON: {exc}"
            gateway.write_message(self.wfile, {"id": payload["id"], "ok": False, "error": error})

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

    def _dispatch(self, servable, cmd: str, req: dict) -> dict:
        if cmd == "generate":
            inputs = req.get("inputs")
            if not isinstance(inputs, list) or not inputs or not all(isinstance(i, str) for i in inputs):
                raise ValueError("'inputs' must be a non-empty list of strings")
            limits = {"max_len": req.get("max_len", MAX_LEN), "min_len": req.get("min_len", MIN_LEN)}
            # type, not int(): JSON true would pass as 1 and "3" as 3
            if any(type(n) is not int for n in limits.values()):
                raise ValueError(f"decode limits must be integers, got {limits!r}")
            outputs = servable.generate(inputs, **limits)
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
