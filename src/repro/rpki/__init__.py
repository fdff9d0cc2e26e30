"""RPKI substrate: ROAs, snapshots, archives, and origin validation."""

from .archive import RpkiArchive
from .roa import AS0, ROA, RoaSet, VrpError
from .validation import ValidationState, validate_origin

__all__ = [
    "AS0",
    "ROA",
    "RoaSet",
    "RpkiArchive",
    "ValidationState",
    "VrpError",
    "validate_origin",
]
