"""Shared async HTTP and engine helpers for the serve tests (stdlib
only)."""

import asyncio
import json
import threading


async def http_request(port, method, path, body=None, *,
                       host="127.0.0.1", keep_alive=False,
                       raw_body=None, headers=None):
    """One request on a fresh connection; returns (status, headers,
    parsed-or-bytes body)."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        return await request_on(
            reader, writer, method, path, body,
            keep_alive=keep_alive, raw_body=raw_body, headers=headers,
        )
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def request_on(reader, writer, method, path, body=None, *,
                     keep_alive=True, raw_body=None, headers=None):
    """One request/response exchange on an existing connection."""
    if raw_body is not None:
        payload = raw_body
    elif body is not None:
        payload = json.dumps(body).encode()
    else:
        payload = b""
    lines = [
        f"{method} {path} HTTP/1.1",
        "Host: test",
        f"Content-Length: {len(payload)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    for name, value in (headers or {}).items():
        lines.append(f"{name}: {value}")
    writer.write(("\r\n".join(lines) + "\r\n\r\n").encode() + payload)
    await writer.drain()

    status_line = await reader.readline()
    status = int(status_line.split()[1])
    resp_headers = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode().partition(":")
        resp_headers[name.strip().lower()] = value.strip()
    length = int(resp_headers.get("content-length", 0))
    raw = await reader.readexactly(length) if length else b""
    if resp_headers.get("content-type", "").startswith("application/json"):
        return status, resp_headers, json.loads(raw) if raw else None
    return status, resp_headers, raw


async def raw_request(port, method, path, body=None):
    """The full response — status line, headers, body — as raw bytes.

    ``http_request`` parses JSON bodies; byte-identity needs the exact
    wire image, so this reads the close-delimited response whole.
    """
    payload = json.dumps(body).encode() if body is not None else b""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(
            (
                f"{method} {path} HTTP/1.1\r\n"
                f"Host: test\r\n"
                f"Content-Length: {len(payload)}\r\n"
                f"Connection: close\r\n\r\n"
            ).encode()
            + payload
        )
        await writer.drain()
        return await reader.read(-1)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


def hold_engine(server):
    """Occupy a one-worker server's engine until the returned gate is
    set: requests admitted meanwhile wait in the executor queue behind
    it. Set the gate before the server drains."""
    gate = threading.Event()
    server._executor.submit(gate.wait)
    return gate


async def wait_until(predicate, timeout=5.0):
    """Yield to the event loop until ``predicate()`` holds."""
    loop = asyncio.get_running_loop()
    give_up = loop.time() + timeout
    while not predicate():
        assert loop.time() < give_up, "condition never held"
        await asyncio.sleep(0.001)
