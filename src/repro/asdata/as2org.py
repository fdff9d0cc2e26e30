"""CAIDA AS-to-Organization (AS2org) dataset.

The published dataset is JSON-lines with two record types: organisation
records (``"type": "Organization"``) and ASN records (``"type": "ASN"``)
keyed to organisations by ``organizationId``.  The inference uses it to
treat ASes of the same organisation as related; §6.1/§7 note that missing
merger-and-acquisition coverage (the PSINet case) produces
misclassifications, which the scenario generator reproduces by omitting
selected mappings.
"""

from __future__ import annotations

import json
from typing import Dict, FrozenSet, List, Optional, Set

__all__ = ["AS2Org", "As2OrgError"]


class As2OrgError(ValueError):
    """An AS2org JSONL file that cannot be decoded; the message names the
    line."""


class AS2Org:
    """ASN → organisation mapping with same-organisation queries."""

    def __init__(self) -> None:
        self._org_of: Dict[int, str] = {}
        self._members: Dict[str, Set[int]] = {}
        self._org_names: Dict[str, str] = {}

    # -- construction ----------------------------------------------------
    def add_org(self, org_id: str, name: str = "") -> None:
        """Register an organisation."""
        self._members.setdefault(org_id, set())
        if name:
            self._org_names[org_id] = name

    def map_asn(self, asn: int, org_id: str) -> None:
        """Map *asn* to *org_id* (replacing any previous mapping)."""
        previous = self._org_of.get(asn)
        if previous is not None:
            self._members[previous].discard(asn)
        self._org_of[asn] = org_id
        self._members.setdefault(org_id, set()).add(asn)

    def remove_asn(self, asn: int) -> None:
        """Drop *asn* from the dataset (modelling dataset incompleteness)."""
        org_id = self._org_of.pop(asn, None)
        if org_id is not None:
            self._members[org_id].discard(asn)

    # -- JSONL format ---------------------------------------------------------
    @classmethod
    def from_jsonl(cls, text: str) -> "AS2Org":
        """Parse the CAIDA JSON-lines flavour.

        Raises :class:`As2OrgError` naming the first line that is not a
        JSON object or whose ``Organization``/``ASN`` record lacks a
        string ``organizationId`` (or an integer ``asn``).
        """
        dataset = cls()
        for number, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                dataset._add_record(json.loads(line))
            except ValueError as exc:  # json.JSONDecodeError included
                raise As2OrgError(f"line {number}: {exc}") from None
        return dataset

    def _add_record(self, record: object) -> None:
        """Apply one decoded JSON line; other record types are ignored."""
        if not isinstance(record, dict):
            raise ValueError(f"not a JSON object: {type(record).__name__}")
        kind = record.get("type")
        if kind not in ("Organization", "ASN"):
            return
        org_id = record.get("organizationId")
        if not isinstance(org_id, str):
            raise ValueError(f"{kind} record without a string organizationId")
        if kind == "Organization":
            name = record.get("name") or ""
            if not isinstance(name, str):
                raise ValueError(f"organisation {org_id!r}: name is not a string")
            self.add_org(org_id, name)
            return
        asn = record.get("asn")
        if isinstance(asn, str):
            asn = int(asn)
        if not isinstance(asn, int) or isinstance(asn, bool):
            raise ValueError(f"ASN record with a non-integer asn: {asn!r}")
        self.map_asn(asn, org_id)

    def to_jsonl(self) -> str:
        """Serialize back to JSON-lines."""
        lines: List[str] = []
        for org_id in sorted(self._members):
            record = {"type": "Organization", "organizationId": org_id}
            name = self._org_names.get(org_id)
            if name:
                record["name"] = name
            lines.append(json.dumps(record, sort_keys=True))
        for asn in sorted(self._org_of):
            lines.append(
                json.dumps(
                    {
                        "type": "ASN",
                        "asn": str(asn),
                        "organizationId": self._org_of[asn],
                    },
                    sort_keys=True,
                )
            )
        return "\n".join(lines) + ("\n" if lines else "")

    # -- queries -------------------------------------------------------------
    def org_of(self, asn: int) -> Optional[str]:
        """The organisation of *asn*, or None when unmapped."""
        return self._org_of.get(asn)

    def org_name(self, org_id: str) -> str:
        """Display name of *org_id* (empty when unknown)."""
        return self._org_names.get(org_id, "")

    def members(self, org_id: str) -> FrozenSet[int]:
        """ASes mapped to *org_id*."""
        return frozenset(self._members.get(org_id, ()))

    def same_org(self, left: int, right: int) -> bool:
        """True when both ASes map to the same organisation."""
        left_org = self._org_of.get(left)
        return left_org is not None and left_org == self._org_of.get(right)

    def asns(self) -> List[int]:
        """All mapped ASNs, ascending."""
        return sorted(self._org_of)

    def orgs(self) -> List[str]:
        """All organisation ids, ascending."""
        return sorted(self._members)

    def __len__(self) -> int:
        return len(self._org_of)
