"""W-series rules: structural checks over the regional WHOIS databases.

Each rule runs per regional database, so they also work on a
one-registry context (:meth:`DiagnosticContext.whois_only`).
"""

from __future__ import annotations

from typing import Dict, Iterator, Tuple

from ...net import PrefixTrie
from ...whois.database import WhoisDatabase
from ...whois.objects import InetnumRecord
from ...whois.statuses import Portability
from ..context import DiagnosticContext
from ..model import Dataset, Diagnostic, Rule, Severity, register_rule

__all__ = [
    "UnknownStatusRule",
    "DanglingInetnumOrgRule",
    "DanglingAutnumOrgRule",
    "OrphanNonPortableRule",
    "DuplicateRangeRule",
    "InvertedRangeRule",
]


class _WhoisRule(Rule):
    """Base for rules that iterate each regional database independently."""

    dataset = Dataset.WHOIS

    def check(self, context: DiagnosticContext) -> Iterator[Diagnostic]:
        for database in context.databases():
            yield from self.check_database(database)

    def check_database(
        self, database: WhoisDatabase
    ) -> Iterator[Diagnostic]:
        raise NotImplementedError


@register_rule
class UnknownStatusRule(_WhoisRule):
    """An address block carries a status string its registry does not
    define, so its portability — the backbone of the paper's §2.1
    taxonomy — cannot be determined and the block is excluded from
    classification.

    Remediation: map the status spelling in
    ``repro.whois.statuses.STATUS_TABLES`` or fix the source record.
    """

    code = "W101"
    title = "unrecognized WHOIS status"
    default_severity = Severity.WARNING

    def check_database(
        self, database: WhoisDatabase
    ) -> Iterator[Diagnostic]:
        for record in database.inetnums:
            if record.portability is Portability.UNKNOWN:
                yield self.finding(
                    subject=str(record.range),
                    message=(
                        f"status {record.status!r} not recognized for "
                        f"{database.rir.name}"
                    ),
                    location=database.rir.name,
                )


@register_rule
class DanglingInetnumOrgRule(_WhoisRule):
    """An address block references an organisation handle that does not
    exist in its registry, so holder attribution (§5.1 step 3) silently
    drops the block.

    Remediation: restore the missing organisation object or correct the
    ``org:`` reference on the block.
    """

    code = "W102"
    title = "address block references missing organisation"
    default_severity = Severity.ERROR

    def check_database(
        self, database: WhoisDatabase
    ) -> Iterator[Diagnostic]:
        for record in database.inetnums:
            if record.org_id and database.org(record.org_id) is None:
                yield self.finding(
                    subject=str(record.range),
                    message=f"references missing {record.org_id}",
                    location=database.rir.name,
                )


@register_rule
class DanglingAutnumOrgRule(_WhoisRule):
    """An AS registration references an organisation handle that does
    not exist in its registry, breaking the org→ASN resolution the
    same-org/related-org classification steps depend on.

    Remediation: restore the missing organisation object or correct the
    ``org:`` reference on the aut-num.
    """

    code = "W103"
    title = "AS registration references missing organisation"
    default_severity = Severity.ERROR

    def check_database(
        self, database: WhoisDatabase
    ) -> Iterator[Diagnostic]:
        for record in database.autnums:
            if record.org_id and database.org(record.org_id) is None:
                yield self.finding(
                    subject=f"AS{record.asn}",
                    message=f"references missing {record.org_id}",
                    location=database.rir.name,
                )


@register_rule
class OrphanNonPortableRule(_WhoisRule):
    """A non-portable block has no covering registered block: §2.1 space
    of this category is by definition carved out of a holder's portable
    allocation, so an orphan cannot be attributed to an address provider
    and never becomes a classifiable tree leaf.

    Remediation: register (or repair) the covering allocation, or fix
    the block's status if it is really portable space.
    """

    code = "W104"
    title = "non-portable block without covering allocation"
    default_severity = Severity.WARNING

    def check_database(
        self, database: WhoisDatabase
    ) -> Iterator[Diagnostic]:
        trie: PrefixTrie[bool] = PrefixTrie()
        for record in database.inetnums:
            if record.range.first > record.range.last:
                continue  # inverted; W106's problem, not decomposable
            for prefix in record.range.to_prefixes():
                trie.insert(prefix, True)
        for record in database.inetnums:
            if record.portability is not Portability.NON_PORTABLE:
                continue
            if record.range.first > record.range.last:
                continue
            for prefix in record.range.to_prefixes():
                if trie.parent(prefix) is None:
                    yield self.finding(
                        subject=str(prefix),
                        message=(
                            f"no covering registered block above "
                            f"{record.range}"
                        ),
                        location=database.rir.name,
                    )


@register_rule
class DuplicateRangeRule(_WhoisRule):
    """The exact same address range is registered more than once; the
    allocation tree keeps the first record and silently discards the
    rest, so conflicting holder data never surfaces downstream.

    Remediation: delete the stale duplicate registration (registries
    occasionally leak superseded objects into bulk dumps).
    """

    code = "W105"
    title = "duplicate address range registration"
    default_severity = Severity.WARNING

    def check_database(
        self, database: WhoisDatabase
    ) -> Iterator[Diagnostic]:
        seen: Dict[Tuple[int, int], InetnumRecord] = {}
        for record in database.inetnums:
            key = (record.range.first, record.range.last)
            original = seen.get(key)
            if original is not None:
                first_holder = original.org_id or original.net_name or (
                    "unknown holder"
                )
                holder = record.org_id or record.net_name or "unknown holder"
                yield self.finding(
                    subject=str(record.range),
                    message=(
                        f"range {record.range} ({holder}) already "
                        f"registered to {first_holder}"
                    ),
                    location=database.rir.name,
                )
            else:
                seen[key] = record


@register_rule
class InvertedRangeRule(_WhoisRule):
    """An address range ends before it starts.  Well-behaved parsers
    reject these at load time, but records assembled programmatically or
    through future zero-copy paths can bypass validation, and an
    inverted range poisons every trie the pipeline builds from it.

    Remediation: fix the source record; the range is unusable as stored.
    """

    code = "W106"
    title = "inverted address range"
    default_severity = Severity.ERROR

    def check_database(
        self, database: WhoisDatabase
    ) -> Iterator[Diagnostic]:
        for record in database.inetnums:
            if record.range.first > record.range.last:
                yield self.finding(
                    subject=str(record.range),
                    message=(
                        f"range {record.range} is inverted "
                        "(start after end)"
                    ),
                    location=database.rir.name,
                )
