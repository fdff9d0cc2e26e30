"""RC110 must stay silent at depth 0: async bodies defer blocking work."""

import asyncio


def _load(path):
    with open(path) as handle:  # sync helper: fine, runs in a thread
        return handle.read()


async def handler(path):
    data = await asyncio.to_thread(_load, path)
    await asyncio.sleep(0.1)
    return data
