"""AS metadata substrates: relationships, AS2org, and hijacker lists."""

from .as2org import AS2Org, As2OrgError
from .hijackers import HijackerListError, SerialHijackerList
from .relationships import ASRelationships, RelationshipError

__all__ = [
    "AS2Org",
    "ASRelationships",
    "As2OrgError",
    "HijackerListError",
    "RelationshipError",
    "SerialHijackerList",
]
