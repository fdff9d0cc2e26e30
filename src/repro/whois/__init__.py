"""WHOIS substrate: object models, per-RIR formats, and indexed databases."""

from .database import WhoisCollection, WhoisDatabase
from .objects import (
    AutNumRecord,
    InetnumRecord,
    MntnerRecord,
    OrgRecord,
    RpslObject,
    format_asn,
    parse_asn,
)
from .reader import WhoisError
from .rpsl import parse_rpsl, serialize_object, serialize_objects
from .statuses import Portability, classify_status

__all__ = [
    "AutNumRecord",
    "InetnumRecord",
    "MntnerRecord",
    "OrgRecord",
    "Portability",
    "RpslObject",
    "WhoisCollection",
    "WhoisDatabase",
    "WhoisError",
    "classify_status",
    "format_asn",
    "parse_asn",
    "parse_rpsl",
    "serialize_object",
    "serialize_objects",
]
