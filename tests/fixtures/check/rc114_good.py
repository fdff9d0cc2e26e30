"""RC114 must stay silent: every acquisition is a ``with`` item.

A file, a socket, a shared-memory segment and a pool, each acquired in
the context expression of a ``with`` item, which releases it on every
path; wrapping the call (``closing(...)``) still counts.
"""

import socket
from contextlib import closing
from multiprocessing.pool import ThreadPool
from multiprocessing.shared_memory import SharedMemory


def parse(handle):
    return handle.read()


def context_manager(path):
    with open(path) as handle:
        return parse(handle)


def wrapped_socket(host, port):
    with closing(socket.socket()) as sock:
        sock.connect((host, port))
    with socket.create_connection((host, port)) as conn:
        return conn.recv(1)


def segment_and_pool(name, items):
    with SharedMemory(name=name, create=True) as segment, ThreadPool(2) as pool:
        return segment.size, pool.map(len, items)

