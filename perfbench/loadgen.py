"""Open-loop HTTP/1.1 load over a fixed set of keep-alive connections.

Requests carry a due time.  A feeder releases each one into a FIFO queue at
its due time; one worker per connection takes the next released request,
sends it and reads the reply.  Latency is measured from the due time, so
time spent waiting for a free connection counts (no coordinated
omission).  The feeder's own lateness (release time minus due time) is the
generator's health signal: a late generator under-loads the server.
"""

from __future__ import annotations

import asyncio
import json
import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple


@dataclass
class Request:
    due: float  # seconds after the load's t0
    method: str
    path: str
    body: bytes = b""
    tag: object = None
    released: float = float("nan")
    sent: float = float("nan")
    done: float = float("nan")
    status: int = 0
    reply: bytes = b""
    error: Optional[str] = None

    @property
    def latency(self) -> float:
        return self.done - self.due

    def json(self) -> Dict[str, object]:
        return json.loads(self.reply)


class Connection:
    def __init__(self, host: str, port: int) -> None:
        self.host, self.port = host, port
        self.reader: Optional[asyncio.StreamReader] = None
        self.writer: Optional[asyncio.StreamWriter] = None

    async def open(self) -> None:
        self.reader, self.writer = await asyncio.open_connection(
            self.host, self.port
        )

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self.writer = None

    async def request(
        self, method: str, path: str, body: bytes = b""
    ) -> Tuple[int, bytes]:
        if self.writer is None:
            await self.open()
        assert self.reader is not None and self.writer is not None
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: {self.host}\r\n"
            f"Content-Length: {len(body)}\r\n"
        )
        if body:
            head += "Content-Type: application/json\r\n"
        self.writer.write(head.encode("latin-1") + b"\r\n" + body)
        await self.writer.drain()
        status_line = await self.reader.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        status = int(status_line.split()[1])
        length, keep = 0, True
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            name = name.strip().lower()
            if name == "content-length":
                length = int(value.strip())
            elif name == "connection" and value.strip().lower() == "close":
                keep = False
        reply = await self.reader.readexactly(length) if length else b""
        if not keep:
            await self.close()
        return status, reply


@dataclass
class LoadStats:
    fed: List[Request] = field(default_factory=list)
    lags: List[float] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.fed)

    @property
    def sent(self) -> int:
        return sum(1 for r in self.fed if not math.isnan(r.sent) and r.error is None)


class OpenLoop:
    """Shared connections + FIFO queue; see the module docstring."""

    def __init__(self, host: str, port: int, connections: int = 2) -> None:
        self.conns = [Connection(host, port) for _ in range(connections)]
        self.queue: "asyncio.Queue[Tuple[Request, asyncio.Future]]" = asyncio.Queue()
        self.t0 = 0.0
        self.stats = LoadStats()
        self._workers: List[asyncio.Task] = []

    def now(self) -> float:
        return time.perf_counter() - self.t0

    async def start(self) -> None:
        for conn in self.conns:
            await conn.open()
        self.t0 = time.perf_counter()
        self._workers = [
            asyncio.ensure_future(self._work(conn)) for conn in self.conns
        ]

    async def stop(self) -> None:
        for task in self._workers:
            task.cancel()
        await asyncio.gather(*self._workers, return_exceptions=True)
        for conn in self.conns:
            await conn.close()

    async def _work(self, conn: Connection) -> None:
        while True:
            req, fut = await self.queue.get()
            req.sent = self.now()
            try:
                req.status, req.reply = await conn.request(
                    req.method, req.path, req.body
                )
            except (ConnectionError, OSError, asyncio.IncompleteReadError, ValueError) as exc:
                req.error = f"{type(exc).__name__}: {exc}"
                await conn.close()
            req.done = self.now()
            if not fut.done():
                fut.set_result(req)

    def submit(self, req: Request) -> "asyncio.Future[Request]":
        """Release one request now (its latency still counts from due)."""
        fut: asyncio.Future = asyncio.get_running_loop().create_future()
        req.released = self.now()
        self.queue.put_nowait((req, fut))
        return fut

    async def feed(self, requests: List[Request]) -> List["asyncio.Future[Request]"]:
        """Release ``requests`` (sorted by due) at their due times."""
        futures = []
        for req in requests:
            delay = req.due - self.now()
            if delay > 0:
                await asyncio.sleep(delay)
            futures.append(self.submit(req))
            self.stats.fed.append(req)
            self.stats.lags.append(req.released - req.due)
        return futures

    def backlog(self) -> int:
        """Released requests not yet sent."""
        return self.queue.qsize()
