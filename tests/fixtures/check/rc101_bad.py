"""RC101 must fire: pool primitives imported outside repro.check.engine."""

import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from concurrent import futures


def fan_out(items):
    with ProcessPoolExecutor() as pool:
        return list(pool.map(str, items))


def fan_out_mp(items):
    with multiprocessing.Pool() as pool:
        return pool.map(str, items)


def fan_out_alias(items):
    with futures.ThreadPoolExecutor() as pool:
        return list(pool.map(str, items))
