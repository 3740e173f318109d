"""Serve a built-in model over the line-delimited JSON wire protocol.

Run as ``python -m shapgraph.model_server --model-file model.json`` to speak
the protocol on stdin/stdout, or add ``--tcp HOST:PORT`` to listen on a
socket.  The model file is any built-in model's ``to_json`` dump.
"""

from __future__ import annotations

import argparse
import json
import socket
import sys
import traceback

import numpy as np

from .models import load_model_json


def _reply(model, request: dict) -> dict:
    op = request["op"]
    if op == "hello":
        return {"op": "hello", "num_classes": model.num_classes}
    if op == "eval":
        values = np.asarray(request["instances"], dtype=np.float64)
        log_probs = model.evaluate_batch(values)
        return {
            "op": "eval",
            "id": request["id"],
            "log_probs": [[float(v) for v in row] for row in log_probs],
        }
    return {"op": "error", "message": f"unknown op {op!r}"}


def serve_stream(model, reader, writer) -> None:
    """Answer protocol requests line by line until ``bye`` or EOF.

    A malformed line, a request missing a field, or a model exception gets an
    ``error`` reply and serving goes on, so one bad request never takes the
    host down.
    """
    for raw in reader:
        line = raw.strip()
        if not line:
            continue
        try:
            request = json.loads(line)
            if request["op"] == "bye":
                return
            reply = _reply(model, request)
        except Exception as exc:  # the host must outlive any one request
            traceback.print_exc(file=sys.stderr)
            reply = {"op": "error", "message": f"{type(exc).__name__}: {exc}"}
        writer.write(json.dumps(reply) + "\n")
        writer.flush()


def serve_tcp(model, host: str, port: int, max_connections: int = 1) -> None:
    with socket.create_server((host, port)) as server:
        for _ in range(max_connections):
            conn, _addr = server.accept()
            with conn, conn.makefile("r") as reader, conn.makefile("w") as writer:
                serve_stream(model, reader, writer)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--model-file", required=True, help="JSON dump of a built-in model")
    parser.add_argument("--tcp", default=None, metavar="HOST:PORT", help="listen on TCP instead of stdio")
    parser.add_argument("--max-connections", type=int, default=1)
    args = parser.parse_args(argv)

    with open(args.model_file) as fh:
        model = load_model_json(json.load(fh))

    if args.tcp:
        host, _, port = args.tcp.rpartition(":")
        serve_tcp(model, host or "127.0.0.1", int(port), args.max_connections)
    else:
        serve_stream(model, sys.stdin, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
