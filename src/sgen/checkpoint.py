"""Binary checkpoint serialization for parameter stores.

Layout, all integers little-endian uint32:

    magic "SGENCKPT" | version | entry count
    per entry: name length | UTF-8 name | four dims | raw float32 data

Tensors are stored as little-endian float32, so a save/load round trip is
bit-exact; a save refuses any other dtype before writing a byte instead
of casting it.  A save writes entry by entry, without building the file
in memory, to a temporary file in the same directory, syncs it to disk,
renames it over the target and syncs the directory, so a process killed
mid-write, or a machine that crashes, leaves the previous checkpoint or the
new one.
Loading allocates one float32 arena the size of the file's body, validates
sizes as it walks the file, reads each entry's data straight into the next
slice of that arena, and reports the byte offset and entry name on any
corruption.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path

import numpy as np

from .autodiff import Tensor
from .model import ParamStore

__all__ = ["save_checkpoint", "load_checkpoint", "CheckpointError", "MAGIC", "VERSION"]

MAGIC = b"SGENCKPT"
VERSION = 1

_MAX_NAME = 4096  # sanity bound; corrupt length fields fail fast


class CheckpointError(ValueError):
    """Raised for malformed, truncated, or version-mismatched checkpoint files."""


def save_checkpoint(params: ParamStore, path) -> None:
    path = Path(path)
    for name, tensor in params.items():
        if tensor.dtype != np.float32:
            raise ValueError(f"parameter {name!r} is {tensor.dtype.name}, not float32")
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(MAGIC + struct.pack("<II", VERSION, len(params)))
            for name, tensor in params.items():
                raw = name.encode("utf-8")
                f.write(struct.pack("<I", len(raw)) + raw + struct.pack("<4I", *tensor.shape))
                f.write(np.ascontiguousarray(tensor.data, dtype="<f4"))
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    directory = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(directory)  # makes the rename itself durable
    finally:
        os.close(directory)


def load_checkpoint(path) -> ParamStore:
    """Parse a checkpoint into a fresh ParamStore of float32 leaf tensors.

    One float32 arena holds every entry: it is allocated once, after the
    header check, with room for all the bytes the file has left.  Each
    entry's data is read straight into the next slice of it, after its size
    has been checked against those bytes, so a corrupt dims field allocates
    nothing more and a load holds about one copy of the file.  The loaded
    tensors are views of the arena that share no element.
    """
    with open(path, "rb") as f:
        total = os.fstat(f.fileno()).st_size
        off = 0

        def check(count: int, what: str, left: int) -> None:
            if left < count:
                raise CheckpointError(
                    f"checkpoint truncated at byte {off}: needed {count} bytes for {what},"
                    f" file has {left} left"
                )

        def read_into(buffer, count: int, what: str) -> None:
            nonlocal off
            check(count, what, total - off)
            check(count, what, f.readinto(buffer))  # short if the file shrank after fstat
            off += count

        def need(count: int, what: str) -> bytearray:
            piece = bytearray(count)
            read_into(piece, count, what)
            return piece

        if need(len(MAGIC), "magic") != MAGIC:
            raise CheckpointError(f"bad checkpoint magic at byte 0: expected {MAGIC!r}")
        version, count = struct.unpack("<II", need(8, "header"))
        if version != VERSION:
            raise CheckpointError(f"unsupported checkpoint version {version} (expected {VERSION})")

        arena = np.empty((total - off) // 4, dtype="<f4")
        used = 0
        store = ParamStore()
        for index in range(count):
            entry_off = off
            (name_len,) = struct.unpack("<I", need(4, f"entry {index} name length"))
            if name_len == 0 or name_len > _MAX_NAME:
                raise CheckpointError(
                    f"entry {index} at byte {entry_off}: implausible name length {name_len}"
                )
            try:
                name = need(name_len, f"entry {index} name").decode("utf-8")
            except UnicodeDecodeError as exc:
                raise CheckpointError(f"entry {index} at byte {entry_off}: name is not UTF-8") from exc
            if name in store:
                raise CheckpointError(f"entry {index} at byte {entry_off}: duplicate name {name!r}")
            dims = struct.unpack("<4I", need(16, f"entry {name!r} dims"))
            size = 1
            for d in dims:
                size *= d
            what = f"entry {name!r} data ({dims})"
            check(4 * size, what, total - off)  # so the slice below is whole
            try:
                data = arena[used : used + size].reshape(dims)
            except ValueError as exc:  # a zero dim beside sides no array can have
                raise CheckpointError(f"entry {name!r} at byte {entry_off}: no array has dims {dims}") from exc
            read_into(data, 4 * size, what)
            used += size
            store[name] = Tensor(data, requires_grad=True)
    if off != total:
        raise CheckpointError(
            f"{total - off} trailing bytes after the last entry (byte {off})"
        )
    return store
