"""Logical page-content identities.

The simulator never stores page bytes; it stores *what the bytes are*:

* :data:`ZERO` -- the page is all zeroes (never written, or freshly
  zeroed by the guest).
* :class:`repro.disk.image.BlockVersion` -- the page equals disk block
  ``b`` at content version ``v``.  This identity powers the
  silent-swap-write metric and every Swap Mapper consistency check.
* :class:`AnonContent` -- opaque program data; each distinct write
  burst mints a fresh token so accidental aliasing is impossible.

Content identity is orthogonal to *residency*: a page keeps its content
whether it lives in a host frame, the host swap area, or (for tracked
pages) only in the disk image.
"""

from __future__ import annotations

import itertools

from repro.disk.image import BlockVersion


class ZeroContent:
    """Singleton identity of an all-zero page."""

    _instance: "ZeroContent | None" = None

    def __new__(cls) -> "ZeroContent":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "ZERO"


#: The all-zeroes content identity.
ZERO = ZeroContent()

_anon_tokens = itertools.count(1)


class AnonContent:
    """Opaque anonymous data (heap/stack bytes) with a unique token.

    A plain slotted class rather than a frozen dataclass: demand-zero
    allocation mints one per page, and the frozen ``__init__`` costs
    several times a slotted one.  Equality, hash and repr match the
    dataclass form.
    """

    __slots__ = ("token",)
    __match_args__ = ("token",)

    def __init__(self, token: int) -> None:
        self.token = token

    def __eq__(self, other: object) -> bool:
        if other.__class__ is AnonContent:
            return self.token == other.token
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.token,))

    def __repr__(self) -> str:
        return f"AnonContent(token={self.token!r})"

    @staticmethod
    def fresh() -> "AnonContent":
        """Mint a new, globally unique anonymous content identity."""
        return AnonContent(next(_anon_tokens))

    @staticmethod
    def fresh_run(n: int) -> "list[AnonContent]":
        """``n`` fresh identities, in minting order."""
        return list(map(AnonContent, itertools.islice(_anon_tokens, n)))


#: Everything a page may logically contain.
PageContent = ZeroContent | AnonContent | BlockVersion


def content_repr(content: PageContent | None) -> str:
    """Compact human-readable form of a content identity."""
    if content is None or isinstance(content, ZeroContent):
        return "ZERO"
    if isinstance(content, AnonContent):
        return f"anon#{content.token}"
    return f"blk{content.block}v{content.version}"
