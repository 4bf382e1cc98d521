"""The one framing shared by every binary file: model files and feature dumps.

A file is a 4-byte magic, a little-endian uint16 version, a fixed struct
header, optionally a run of fixed-size records counted by the header's
last field (the selector's layer shapes), and then float32 little-endian
arrays back to back.  The header decides every array shape, so readers
check the exact payload length before they allocate anything.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from math import prod
from pathlib import Path

import numpy as np

from .errors import DataError


@dataclass(frozen=True)
class BinaryFormat:
    magic: bytes
    version: int
    header: str  # struct fields after the version, little-endian without padding
    name: str  # for error messages, e.g. "selector file"
    record: str = ""  # struct of each counted record, if the format has any

    def write(self, path: str | Path, fields, arrays, records=()) -> None:
        parts = [self.magic, struct.pack("<H" + self.header, self.version, *fields)]
        parts += [struct.pack("<" + self.record, *record) for record in records]
        parts += [np.asarray(a).astype("<f4").tobytes() for a in arrays]
        Path(path).write_bytes(b"".join(parts))

    def read(self, path: str | Path) -> tuple[tuple, list[tuple], memoryview]:
        """Header fields after the version, the counted records, and the payload bytes."""
        data = Path(path).read_bytes()
        size = len(self.magic) + struct.calcsize("<H" + self.header)
        if len(data) < size or not data.startswith(self.magic):
            raise DataError(f"{path}: not a {self.name}")
        version, *fields = struct.unpack_from("<H" + self.header, data, len(self.magic))
        if version != self.version:
            raise DataError(f"{path}: unsupported {self.name} version {version}")
        records = []
        if self.record:
            end = size + struct.calcsize("<" + self.record) * fields[-1]
            if len(data) < end:
                raise DataError(f"{path}: truncated {self.name}")
            records = list(struct.iter_unpack("<" + self.record, data[size:end]))
            size = end
        return tuple(fields), records, memoryview(data)[size:]

    def arrays(self, path: str | Path, payload: memoryview, shapes) -> list[np.ndarray]:
        """float64 arrays of the given shapes; the payload must hold exactly that many floats."""
        sizes = [prod(shape) for shape in shapes]
        if len(payload) < 4 * sum(sizes):
            raise DataError(f"{path}: truncated {self.name}")
        if len(payload) > 4 * sum(sizes):
            raise DataError(f"{path}: trailing bytes in {self.name}")
        raw = np.frombuffer(payload, dtype="<f4")
        out, cursor = [], 0
        for shape, size in zip(shapes, sizes):
            out.append(raw[cursor : cursor + size].astype(np.float64).reshape(shape))
            cursor += size
        return out
