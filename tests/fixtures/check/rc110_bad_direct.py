"""RC110 must fire at depth 0: blocking calls inside async def bodies."""

import subprocess
import time


async def handler(path):
    with open(path) as handle:  # blocks the event loop
        data = handle.read()
    time.sleep(0.1)
    subprocess.run(["true"])
    return data


async def slow_config(config_path):
    return config_path.read_text()
