"""Abuse substrate: the Spamhaus ASN-DROP list and its monthly archive."""

from .dropdb import AsnDropEntry, AsnDropError, AsnDropList, DropArchive

__all__ = ["AsnDropEntry", "AsnDropError", "AsnDropList", "DropArchive"]
