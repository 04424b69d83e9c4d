#!/usr/bin/env python3
"""Scripted client for fannet_serve -- the CI smoke driver.

Speaks the length-prefixed JSON protocol (docs/serve.md): every frame is a
4-byte big-endian payload length followed by that many bytes of UTF-8 JSON.
Each invocation opens one connection, runs one command, prints the server's
final frame as JSON on stdout, and exits 0 only when every --expect-* check
holds -- so a CI step is a readable sequence of assertions:

    python3 tools/serve_client.py --port "$port" ping
    python3 tools/serve_client.py --port "$port" verify --range 10 \
        --expect-cache-hit false
    python3 tools/serve_client.py --port "$port" verify --range 10 \
        --expect-cache-hit true
    python3 tools/serve_client.py --port "$port" verify --range 40 \
        --engine enumerate --deadline-ms 50 --expect-deadline-expired
    python3 tools/serve_client.py --port "$port" disconnect --range 40
    python3 tools/serve_client.py --port "$port" stats \
        --wait cancelled_disconnect 1
    python3 tools/serve_client.py --port "$port" disconnect \
        --type sensitivity --range 40
    python3 tools/serve_client.py --port "$port" stats \
        --wait cancelled_disconnect 2

The verify command discovers its base point from a `models` request: the
server advertises a canonical `probe` sample (the first P1-correct one), so
the smoke test drives real P2 queries -- including the enumerate-under-
deadline case, which needs a point the engine cannot dismiss instantly --
without shipping the dataset.  Verdict bit-identity is bench_serve's gate;
this driver pins protocol behaviour (result frames, cache_hit flip,
deadline reporting, disconnect cancellation, drain).

Uses only the Python standard library.
"""

import argparse
import json
import socket
import struct
import sys
import time


class ProtocolError(Exception):
    pass


class Client:
    """One connection; send_request/recv_final implement the framing."""

    def __init__(self, port, timeout_s=30.0):
        self.sock = socket.create_connection(("127.0.0.1", port),
                                             timeout=timeout_s)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.next_id = 0

    def close(self):
        self.sock.close()

    def close_abrupt(self):
        """RST instead of FIN: the 'client process died' fault."""
        self.sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                             struct.pack("ii", 1, 0))
        self.sock.close()

    def send_request(self, request):
        self.next_id += 1
        request = dict(request, id=self.next_id)
        payload = json.dumps(request).encode()
        self.sock.sendall(struct.pack(">I", len(payload)) + payload)
        return self.next_id

    def recv_frame(self):
        prefix = self._recv_exact(4)
        (length,) = struct.unpack(">I", prefix)
        if length == 0 or length > (1 << 20):
            raise ProtocolError(f"bad frame length {length}")
        return json.loads(self._recv_exact(length).decode())

    def recv_final(self):
        """Skips progress frames; returns the result/error/pong frame."""
        while True:
            frame = self.recv_frame()
            if frame.get("type") != "progress":
                return frame

    def call(self, request):
        self.send_request(request)
        return self.recv_final()

    def _recv_exact(self, want):
        data = b""
        while len(data) < want:
            chunk = self.sock.recv(want - len(data))
            if not chunk:
                raise ProtocolError("connection closed mid-frame")
            data += chunk
        return data


def fail(message, frame=None):
    if frame is not None:
        print(json.dumps(frame), file=sys.stderr)
    print(f"serve_client: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def expect_type(frame, wanted):
    if frame.get("type") != wanted:
        fail(f"expected a {wanted} frame, got {frame.get('type')!r}", frame)


def first_model(client):
    frame = client.call({"type": "models"})
    expect_type(frame, "result")
    models = frame["body"]["models"]
    if not models:
        fail("server reports an empty model fleet", frame)
    return models[0]


def verify_request(client, args):
    model = first_model(client)
    probe = model.get("probe")
    if probe is None:
        # No P1-correct sample advertised: fall back to the origin.
        probe = {"x": [0] * model["inputs"], "label": 0}
    request = {
        "type": "verify",
        "model": model["name"],
        "x": probe["x"],
        "true_label": probe["label"],
        "box": {"range": args.range},
    }
    if args.engine:
        request["engine"] = args.engine
    if getattr(args, "deadline_ms", 0):
        request["deadline_ms"] = args.deadline_ms
    return request


def cmd_ping(client, args):
    frame = client.call({"type": "ping"})
    expect_type(frame, "pong")
    if frame.get("id") != client.next_id:
        fail(f"pong id {frame.get('id')} != request id {client.next_id}", frame)
    return frame


def cmd_models(client, args):
    frame = client.call({"type": "models"})
    expect_type(frame, "result")
    return frame


def cmd_verify(client, args):
    frame = client.call(verify_request(client, args))
    expect_type(frame, "result")
    body = frame["body"]
    if body.get("verdict") not in ("robust", "vulnerable", "unknown"):
        fail(f"unexpected verdict {body.get('verdict')!r}", frame)
    if args.expect_cache_hit is not None:
        wanted = args.expect_cache_hit == "true"
        if body.get("cache_hit") is not wanted:
            fail(f"cache_hit {body.get('cache_hit')} != expected {wanted}",
                 frame)
    if args.expect_deadline_expired:
        if not body.get("deadline_expired"):
            fail("deadline_expired not set on a deadline-cut request", frame)
        if body.get("verdict") != "unknown":
            fail("a deadline-cut verify must answer unknown", frame)
    return frame


def cmd_disconnect(client, args):
    """Sends a heavy request -- a verify, or a directional sensitivity probe
    (node 0, direction +1) -- then dies mid-execution (RST).  The follow-up
    `stats --wait cancelled_disconnect N` proves the server cancelled it."""
    request = verify_request(client, args)
    if args.type == "sensitivity":
        request.update(type="sensitivity", node=0, direction=1)
    request["engine"] = args.engine or "enumerate"
    request.pop("deadline_ms", None)
    client.send_request(request)
    time.sleep(args.linger_s)
    client.close_abrupt()
    return {"type": "disconnect", "sent": request["type"]}


def cmd_stats(client, args):
    deadline = time.monotonic() + args.timeout_s
    while True:
        frame = client.call({"type": "stats"})
        expect_type(frame, "result")
        body = frame["body"]
        if args.wait is None:
            return frame
        key, floor = args.wait
        if body.get(key, 0) >= int(floor):
            return frame
        if time.monotonic() > deadline:
            fail(f"stats.{key} = {body.get(key)} never reached {floor}", frame)
        time.sleep(0.05)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--timeout-s", type=float, default=30.0)
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("ping")
    commands.add_parser("models")

    verify = commands.add_parser("verify")
    verify.add_argument("--range", type=int, default=10)
    verify.add_argument("--engine", default="")
    verify.add_argument("--deadline-ms", type=int, default=0)
    verify.add_argument("--expect-cache-hit", choices=["true", "false"])
    verify.add_argument("--expect-deadline-expired", action="store_true")

    disconnect = commands.add_parser("disconnect")
    disconnect.add_argument("--type", choices=["verify", "sensitivity"],
                            default="verify")
    disconnect.add_argument("--range", type=int, default=40)
    disconnect.add_argument("--engine", default="")
    disconnect.add_argument("--linger-s", type=float, default=0.1,
                            help="seconds to let the request run before RST")

    stats = commands.add_parser("stats")
    stats.add_argument("--wait", nargs=2, metavar=("KEY", "FLOOR"),
                       help="poll until stats.KEY >= FLOOR")
    stats.add_argument("--timeout-s", type=float, default=15.0,
                       dest="timeout_s")

    args = parser.parse_args()
    handlers = {
        "ping": cmd_ping,
        "models": cmd_models,
        "verify": cmd_verify,
        "disconnect": cmd_disconnect,
        "stats": cmd_stats,
    }
    try:
        client = Client(args.port, args.timeout_s)
    except OSError as e:
        fail(f"cannot connect to 127.0.0.1:{args.port}: {e}")
    try:
        frame = handlers[args.command](client, args)
    except (ProtocolError, socket.timeout, OSError, KeyError) as e:
        fail(f"{args.command}: {type(e).__name__}: {e}")
    print(json.dumps(frame))
    return 0


if __name__ == "__main__":
    sys.exit(main())
