"""A WHOIS query service (RFC 3912) over the in-memory databases.

The paper works from bulk dumps, but the same registry data is served
interactively on TCP/43 in the real world; operators verifying a single
lease would query it this way.  :class:`WhoisServer` answers three query
shapes against a :class:`~repro.whois.database.WhoisCollection`:

* an IPv4 address or prefix — the most-specific covering address block,
  its covering chain, and the registered organisation,
* ``AS<number>`` — the aut-num registration and its organisation,
* an organisation handle — the organisation object.

Responses are RPSL paragraphs, ``%`` comment lines, and a trailing blank
line, matching the style of real RIR WHOIS servers.
"""

from __future__ import annotations

import socket
import socketserver
import threading
from typing import List, Optional, Tuple

from ..net import AddressError, Prefix, PrefixTrie, resolve_covering_chain
from ..rir import RIR
from .database import WhoisCollection
from .objects import InetnumRecord, parse_asn
from .rpsl import autnum_to_rpsl, inetnum_to_rpsl, org_to_rpsl, serialize_object

__all__ = ["WhoisServer", "whois_query"]

_NOT_FOUND = "%ERROR:101: no entries found"


class WhoisServer:
    """A threaded WHOIS server bound to an ephemeral (or given) port."""

    def __init__(
        self,
        collection: WhoisCollection,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.collection = collection
        self._trie: PrefixTrie[Tuple[RIR, InetnumRecord]] = PrefixTrie()
        for database in collection:
            for record in database.inetnums:
                for prefix in record.range.to_prefixes():
                    if self._trie.exact(prefix) is None:
                        self._trie.insert(prefix, (database.rir, record))
        outer = self

        class _Handler(socketserver.StreamRequestHandler):
            def handle(self) -> None:
                raw = self.rfile.readline(1024)
                query = raw.decode("utf-8", errors="replace").strip()
                response = outer.answer(query)
                self.wfile.write(response.encode("utf-8"))

        class _Server(socketserver.ThreadingTCPServer):
            allow_reuse_address = True
            daemon_threads = True

        self._server = _Server((host, port), _Handler)
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)``."""
        return self._server.server_address[:2]

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> "WhoisServer":
        """Serve in a daemon thread; returns self for chaining."""
        self._thread = threading.Thread(
            target=self._server.serve_forever, daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Shut the server down and join its thread."""
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None

    def __enter__(self) -> "WhoisServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- query answering -----------------------------------------------------
    def answer(self, query: str) -> str:
        """The full response text for one query line."""
        lines: List[str] = [
            "% This is a synthetic WHOIS service (IMC'24 reproduction).",
            "",
        ]
        body = self._lookup(query.strip())
        if body is None:
            lines.append(_NOT_FOUND)
        else:
            lines.extend(body)
        lines.append("")
        return "\n".join(lines) + "\n"

    def _lookup(self, query: str) -> Optional[List[str]]:
        if not query:
            return None
        digits = query[2:]
        if query.upper().startswith("AS") and digits.isascii() and digits.isdigit():
            return self._lookup_asn(query)
        try:
            prefix = Prefix.parse(query)
        except AddressError:
            return self._lookup_org(query)
        return self._lookup_prefix(prefix)

    def _lookup_prefix(self, prefix: Prefix) -> Optional[List[str]]:
        hit, chain = resolve_covering_chain(self._trie, prefix)
        if hit is None:
            return None
        _match_prefix, (rir, record) = hit
        lines = [f"% Information related to '{record.range}'", ""]
        lines.append(serialize_object(inetnum_to_rpsl(record)))
        database = self.collection[rir]
        if record.org_id and database.org(record.org_id):
            lines.append("")
            lines.append(
                serialize_object(org_to_rpsl(database.org(record.org_id)))
            )
        # The covering chain (less-specific registrations), as real
        # servers expose via the -L flag; shown compactly as comments.
        if len(chain) > 1:
            lines.append("")
            lines.append("% Less specific registrations:")
            for chain_prefix, (_rir, chain_record) in chain[:-1]:
                lines.append(
                    f"%   {chain_prefix}  ({chain_record.status})"
                )
        return lines

    def _lookup_asn(self, query: str) -> Optional[List[str]]:
        try:
            asn = parse_asn(query)
        except ValueError:  # beyond 32 bits: no such aut-num
            return None
        for database in self.collection:
            record = database.autnum(asn)
            if record is None:
                continue
            lines = [f"% Information related to 'AS{asn}'", ""]
            lines.append(serialize_object(autnum_to_rpsl(record)))
            if record.org_id and database.org(record.org_id):
                lines.append("")
                lines.append(
                    serialize_object(org_to_rpsl(database.org(record.org_id)))
                )
            return lines
        return None

    def _lookup_org(self, query: str) -> Optional[List[str]]:
        for database in self.collection:
            org = database.org(query)
            if org is not None:
                return [
                    f"% Information related to '{query}'",
                    "",
                    serialize_object(org_to_rpsl(org)),
                ]
        return None


def whois_query(host: str, port: int, query: str, timeout: float = 5.0) -> str:
    """A minimal WHOIS client: one query, the full response text back."""
    with socket.create_connection((host, port), timeout=timeout) as conn:
        conn.sendall(query.encode("utf-8") + b"\r\n")
        chunks: List[bytes] = []
        while True:
            chunk = conn.recv(4096)
            if not chunk:
                break
            chunks.append(chunk)
    return b"".join(chunks).decode("utf-8")
