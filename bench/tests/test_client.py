"""The load client against a stub server with a fixed service time."""

import asyncio
import os
import subprocess
import sys
import textwrap

import pytest

from bench.client import LoadClient, percentile

DELAY_S = 0.0002

#: Answers every request after spinning for DELAY_S, one at a time.
STUB = textwrap.dedent(
    f"""
    import asyncio, sys, time

    BODY = b'{{"ok": true}}'
    HEAD = (b"HTTP/1.1 200 OK\\r\\nContent-Type: application/json\\r\\n"
            b"Content-Length: %d\\r\\n\\r\\n" % len(BODY))

    async def handle(reader, writer):
        while True:
            line = await reader.readline()
            if not line:
                break
            while (await reader.readline()) not in (b"\\r\\n", b""):
                pass
            until = time.perf_counter() + {DELAY_S}
            while time.perf_counter() < until:
                pass
            writer.write(HEAD + BODY)
        writer.close()

    async def main():
        server = await asyncio.start_server(handle, "127.0.0.1", 0)
        print(server.sockets[0].getsockname()[1], flush=True)
        await asyncio.get_running_loop().run_in_executor(
            None, sys.stdin.read
        )

    asyncio.run(main())
    """
)

REQUEST = ("stub", None, b"GET / HTTP/1.1\r\nHost: stub\r\n\r\n")


def _requests():
    while True:
        yield REQUEST


@pytest.fixture
def stub_port():
    allowed = os.sched_getaffinity(0)
    proc = subprocess.Popen(
        [sys.executable, "-c", STUB],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    )
    if len(allowed) > 1:
        # As in bench/run.py: client and server each on their own CPU.
        cpus = sorted(allowed)
        os.sched_setaffinity(proc.pid, set(cpus[:-1]))
        os.sched_setaffinity(0, {cpus[-1]})
    try:
        yield int(proc.stdout.readline())
    finally:
        os.sched_setaffinity(0, allowed)
        proc.stdin.close()
        proc.wait(timeout=10)
        proc.stdout.close()


def test_open_loop_holds_its_rate_and_sees_the_service_time(stub_port):
    async def drive():
        client = LoadClient(lambda *args: args[2] == 200, trace=True)
        await client.connect("127.0.0.1", stub_port, 2)
        try:
            return await client.open_loop("r1000", _requests(), 1000.0, 3.0)
        finally:
            client.close()

    phase = asyncio.run(drive())
    assert phase.failed == 0
    assert phase.sent == phase.completed == 3000
    (first, _, first_write, _), *_, (last, _, last_write, _) = phase.samples
    achieved = (last - first) / (last_write - first_write)
    assert achieved == pytest.approx(1000.0, rel=0.01)
    # The statistic bench/run.py judges: on a shared VM one scheduling
    # hiccup can lift the p99 of lateness past 2 ms on a healthy run.
    assert percentile(phase.lateness, 0.50) * 1e3 < 2.0
    assert percentile(phase.latencies, 0.50) >= DELAY_S


def test_closed_loop_counts_only_the_window(stub_port):
    async def drive():
        client = LoadClient(lambda *args: args[2] == 200)
        await client.connect("127.0.0.1", stub_port, 2)
        try:
            return await client.closed_loop("closed", _requests(), 4, 1.0)
        finally:
            client.close()

    phase = asyncio.run(drive())
    assert phase.failed == 0
    assert phase.sent == phase.completed
    rates = phase.slice_rates()
    assert len(rates) == 4
    # One spinning server cannot answer faster than its service time.
    assert all(0 < rate <= 1.0 / DELAY_S for rate in rates)
