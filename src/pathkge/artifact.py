"""The binary framing of the path-table and model files: a 4-byte magic, a
little-endian ``struct`` header whose first field is the format version,
then one little-endian array per row ``(name, dtype, shape from the
header)`` of a field table.  A file's size is checked before any array is
allocated, and a float array holding a NaN or an infinity is refused.
"""

from __future__ import annotations

import math
import os
import struct
from pathlib import Path
from typing import Any, Callable, NamedTuple

import numpy as np


class Format(NamedTuple):
    """One artifact format: everything ``write`` and ``read`` need to know of it."""
    kind: str             # what the file is, in error messages
    magic: bytes
    version: int
    header: struct.Struct
    Header: type          # namedtuple of the header's fields, version first
    fields: tuple[tuple[str, str, Callable[[Any], tuple[int, ...]]], ...]
    rerun: str            # the verb that writes a file this build reads


def write(path: str | Path, fmt: Format, header: tuple, source: Any) -> None:
    """Write the header fields after the version, then ``source``'s arrays."""
    with open(path, "wb") as fh:
        fh.write(fmt.magic + fmt.header.pack(fmt.version, *header))
        for name, dtype, _ in fmt.fields:
            fh.write(np.asarray(getattr(source, name), dtype=dtype).tobytes())


def read(path: str | Path, fmt: Format,
         error: type[Exception]) -> tuple[Any, dict[str, np.ndarray]]:
    """The header and the native-endian arrays by name; raises ``error``."""
    with open(path, "rb") as fh:
        magic = fh.read(len(fmt.magic))
        if magic != fmt.magic:
            raise error(f"{path}: not a {fmt.kind} file (bad magic {magic!r})")
        raw = fh.read(fmt.header.size)
        if len(raw) != fmt.header.size:
            raise error(f"{path}: truncated {fmt.kind} header")
        head = fmt.Header._make(fmt.header.unpack(raw))
        if head[0] != fmt.version:
            raise error(f"{path}: unsupported {fmt.kind} version {head[0]} (this build "
                        f"reads {fmt.version}; re-run {fmt.rerun})")
        shapes = [shape(head) for _, _, shape in fmt.fields]
        sizes = [np.dtype(dtype).itemsize * math.prod(shape)
                 for (_, dtype, _), shape in zip(fmt.fields, shapes)]
        left = os.fstat(fh.fileno()).st_size - fh.tell()
        if sum(sizes) > left:
            raise error(f"{path}: truncated {fmt.kind} file")
        if sum(sizes) < left:
            raise error(f"{path}: trailing bytes after {fmt.kind} payload")
        arrays = {
            name: np.frombuffer(fh.read(nbytes), dtype).astype(dtype[1:]).reshape(shape)
            for (name, dtype, _), shape, nbytes in zip(fmt.fields, shapes, sizes)
        }
    for name, values in arrays.items():
        if values.dtype.kind == "f" and not np.isfinite(values).all():
            raise error(f"{path}: non-finite {name}")
    return head, arrays
