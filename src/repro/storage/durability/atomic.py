"""Crash-safe filesystem primitives.

The one rule of durable persistence: never overwrite live data in place.
A snapshot is written into a temporary sibling directory, fsynced, and
then atomically renamed into place, with the containing directory fsynced
so the rename itself survives a power cut.  Each boundary crosses a named
fault point (``write:<label>``, ``fsync:<label>``, ``rename:<label>``,
``dirsync:<label>``) so the crash-injection harness can kill the process
between any two system calls and assert recovery.
"""

from __future__ import annotations

import os
import zlib
from pathlib import Path

from .faults import fault_point

__all__ = [
    "atomic_replace_dir",
    "fsync_file",
    "fsync_dir",
    "crc32_file",
]

def fsync_file(path: Path, label: str) -> None:
    """fsync an already-written file by path."""
    fault_point(f"fsync:{label}")
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def fsync_dir(directory: Path, label: str) -> None:
    """fsync a directory so renames/creations inside it are durable."""
    fault_point(f"dirsync:{label}")
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def atomic_replace_dir(tmp_dir: Path, final_dir: Path, label: str) -> None:
    """Atomically publish a fully-written temporary directory.

    The temporary directory's contents must already be fsynced.  The rename
    is the commit point: before it the snapshot does not exist, after it the
    snapshot is complete.
    """
    fault_point(f"rename:{label}")
    os.replace(tmp_dir, final_dir)
    fsync_dir(final_dir.parent, label)


def crc32_file(path: Path) -> str:
    """Hex CRC-32 of a file's contents.

    The durability layer standardises on CRC-32 for corruption *detection*
    (the journal frames every record with one): snapshots are trusted local
    state, so the adversary is bit rot and torn writes, not forgery — and a
    CRC is an order of magnitude cheaper than a cryptographic hash on the
    multi-megabyte state bundles checksummed at every checkpoint.
    """
    crc = 0
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            crc = zlib.crc32(chunk, crc)
    return f"{crc & 0xFFFFFFFF:08x}"
