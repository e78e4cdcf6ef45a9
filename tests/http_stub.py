"""A chat-completions and embeddings endpoint on 127.0.0.1, for tests.

    with Stub() as stub:
        provider = HttpChatProvider("m", stub.url("/v1/chat/completions"))

A POST to a path that ends in ``/embeddings`` gets one vector per input
text; any other POST gets a chat completion with usage.  Both answers are
pure functions of the request, so a rerun gets the same bytes.  Replies
queued on ``stub.script`` are served first, one per request, and
``stub.always``, when set, answers every request after them: that is how
a test scripts an error status, a body that is not JSON, a body without
usage or a reply slower than the client's timeout.  ``stub.received``
holds every request, a GET included, in arrival order.  Standard library
only.
"""

from __future__ import annotations

import hashlib
import json
import socket
import sys
import threading
import time
from dataclasses import dataclass, field
from email.message import Message
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

EMBEDDING_DIM = 8


@dataclass
class Reply:
    """One scripted reply; a ``body`` of None is the stub's own answer."""

    status: int = 200
    body: object = None  # bytes are sent as they are, anything else as JSON
    delay: float = 0.0  # seconds to wait before replying
    headers: dict = field(default_factory=dict)


@dataclass
class Seen:
    path: str
    headers: Message  # looked up without regard to case
    body: object


def chat_answer(payload: dict) -> dict:
    """A completion whose decision and confidence hash the model and prompt."""
    prompt = payload["messages"][0]["content"]
    digest = hashlib.sha256(f"{payload['model']}\0{prompt}".encode("utf-8")).digest()
    text = json.dumps({"decision": "include" if digest[0] % 4 == 0 else "exclude",
                       "confidence": round(digest[1] / 255, 4)})
    return {"model": payload["model"],
            "choices": [{"message": {"role": "assistant", "content": text}}],
            "usage": {"prompt_tokens": len(prompt) // 4, "completion_tokens": len(text) // 4}}


def embedding_vector(text: str) -> list[float]:
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return [round(b / 255 - 0.5, 4) for b in digest[:EMBEDDING_DIM]]


def embeddings_answer(payload: dict) -> dict:
    return {"data": [{"index": i, "embedding": embedding_vector(text)}
                     for i, text in enumerate(payload["input"])]}


def closed_url(path: str) -> str:
    """A loopback url at a port that nothing listens on."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    return f"http://127.0.0.1:{port}{path}"


class _Handler(BaseHTTPRequestHandler):
    def do_POST(self):
        stub = self.server.stub
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        with stub.lock:
            stub.received.append(Seen(self.path, self.headers, body))
            reply = stub.script.pop(0) if stub.script else stub.always or Reply()
        out = reply.body
        if out is None:
            out = (embeddings_answer if self.path.endswith("/embeddings") else chat_answer)(body)
        raw = out if isinstance(out, bytes) else json.dumps(out).encode()
        time.sleep(reply.delay)
        self.send_response(reply.status)
        for name, value in {"Content-Type": "application/json", **reply.headers}.items():
            self.send_header(name, value)
        self.send_header("Content-Length", str(len(raw)))
        self.end_headers()
        self.wfile.write(raw)

    def do_GET(self):
        # Only a client that follows a redirect sends one; it is logged and refused.
        stub = self.server.stub
        with stub.lock:
            stub.received.append(Seen(self.path, self.headers, None))
        self.send_error(405)

    def log_message(self, format, *args):
        pass


class _Server(ThreadingHTTPServer):
    daemon_threads = True

    def handle_error(self, request, client_address):
        # A client that gave up on a slow reply has closed its socket.
        if not isinstance(sys.exc_info()[1], ConnectionError):
            super().handle_error(request, client_address)


class Stub:
    """The endpoint, serving on its own thread between ``__enter__`` and ``__exit__``."""

    def __init__(self):
        self.script: list[Reply] = []
        self.always: Reply | None = None
        self.received: list[Seen] = []
        self.lock = threading.Lock()

    def url(self, path: str) -> str:
        return f"http://127.0.0.1:{self._server.server_address[1]}{path}"

    def __enter__(self) -> "Stub":
        self._server = _Server(("127.0.0.1", 0), _Handler)
        self._server.stub = self
        self._thread = threading.Thread(target=self._server.serve_forever, args=(0.01,))
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._server.shutdown()
        self._server.server_close()
        self._thread.join()
