"""Talk to the fault-tolerant prediction service over HTTP.

Starts a :class:`~repro.serve.PredictionServer` on an ephemeral port in
a background thread (in production you'd run ``sg2042-repro serve``),
then uses nothing but stdlib ``http.client`` to:

* predict one kernel under one configuration,
* predict six kernels under one configuration with one ``/sweep``,
  which the server answers with a single batch engine call,
* read the operational metrics the service publishes, and
* handle a structured error envelope (unknown kernel -> 404 JSON).

Run with: ``PYTHONPATH=src python examples/serve_client.py``
"""

import asyncio
import http.client
import json
import threading

from repro.serve import PredictionServer, ServeConfig


def start_background_server():
    """Run a server on its own event loop thread; return (server, loop)."""
    started = threading.Event()
    holder = {}

    def run():
        async def main():
            server = PredictionServer(ServeConfig(port=0))
            await server.start()
            holder["server"] = server
            holder["loop"] = asyncio.get_running_loop()
            started.set()
            await holder["stop"].wait()
            await server.drain()

        holder["stop"] = None

        async def boot():
            holder["stop"] = asyncio.Event()
            await main()

        asyncio.run(boot())

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    started.wait(timeout=30)
    return holder, thread


def request(port, method, path, body=None):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        payload = json.dumps(body) if body is not None else None
        conn.request(method, path, body=payload,
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        raw = response.read()
        if response.getheader("Content-Type", "").startswith(
            "application/json"
        ):
            return response.status, json.loads(raw)
        return response.status, raw.decode()
    finally:
        conn.close()


def main():
    holder, thread = start_background_server()
    server = holder["server"]
    port = server.port
    print(f"serving on 127.0.0.1:{port}\n")

    # One prediction: TRIAD on 32 threads, cluster placement.
    status, body = request(port, "POST", "/predict", {
        "kernel": "TRIAD", "threads": 32, "placement": "cluster",
        "precision": "fp32",
    })
    print(f"TRIAD @32t: {body['seconds']:.3f}s "
          f"(served from {body['serving_level']}, "
          f"{body['bound']}-bound) [{status}]")

    # Many kernels under one configuration: one /sweep, one batch
    # engine call.
    kernels = ["TRIAD", "DAXPY", "GEMM", "DOT", "COPY", "ADD"]
    status, body = request(port, "POST", "/sweep", {
        "kernels": kernels, "threads": [8],
    })
    print(f"\nsweep of {len(kernels)} kernels (8 threads) [{status}]:")
    for point in body["points"]:
        print(f"  {point['kernel']:<8} {point['seconds']:.4f}s")

    # Structured error envelope: unknown kernel.
    status, body = request(port, "POST", "/predict",
                           {"kernel": "NOT_A_KERNEL"})
    print(f"\nunknown kernel -> HTTP {status}, "
          f"code={body['error']['code']!r}, "
          f"retryable={body['error']['retryable']}")

    # The ops surface.
    status, text = request(port, "GET", "/metrics")
    interesting = [
        line for line in text.splitlines()
        if "serve.batches" in line or "serve.latency_p50_ms" in line
    ]
    print("\nmetrics excerpt:")
    for line in interesting:
        print(f"  {line}")

    # Graceful shutdown.
    holder["loop"].call_soon_threadsafe(holder["stop"].set)
    thread.join(timeout=30)
    print("\nserver drained cleanly")


if __name__ == "__main__":
    main()
