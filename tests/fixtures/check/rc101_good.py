"""RC101 must stay silent: the check engine's --jobs fan-out is the one
module allowed a process pool."""
# repro-check: module=repro.check.engine

from concurrent.futures import ProcessPoolExecutor


def fan_out(chunks):
    with ProcessPoolExecutor(max_workers=2) as pool:
        return list(pool.map(str, chunks))
