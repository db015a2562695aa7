"""Binary tensor records shared by the dataset and checkpoint files.

A record is: u8 rank (always 4), four little-endian u32 extents, then the
row-major float32 payload, every value finite. Readers track byte offsets so
truncation, corruption and a NaN or infinity surface with the exact position.
"""

from __future__ import annotations

import struct

import numpy as np

from .errors import FormatError

DATASET_MAGIC = b"WARPADT1"
CHECKPOINT_MAGIC = b"WARPCKP1"


def pack_tensor(arr: np.ndarray) -> bytes:
    arr = np.ascontiguousarray(arr, dtype=np.float32)
    if arr.ndim != 4:
        raise FormatError(f"tensor records are rank-4, got shape {arr.shape}")
    header = struct.pack("<B4I", 4, *arr.shape)
    return header + arr.astype("<f4").tobytes()


class Reader:
    """Cursor over a byte buffer that reports offsets on failure."""

    def __init__(self, buf: bytes, label: str = "buffer"):
        self.buf = buf
        self.off = 0
        self.label = label

    def take(self, n: int) -> bytes:
        if self.off + n > len(self.buf):
            raise FormatError(
                f"{self.label}: truncated at byte {self.off} (need {n} more, "
                f"have {len(self.buf) - self.off})")
        out = self.buf[self.off:self.off + n]
        self.off += n
        return out

    def text(self, n: int) -> str:
        at = self.off
        try:
            return self.take(n).decode()
        except UnicodeDecodeError as exc:
            raise FormatError(f"{self.label}: invalid UTF-8 at byte {at + exc.start}") from None

    def expect_magic(self, magic: bytes) -> None:
        at = self.off
        got = self.take(len(magic))
        if got != magic:
            raise FormatError(f"{self.label}: bad magic {got!r} at byte {at}, "
                              f"expected {magic!r}")

    def u8(self) -> int:
        return self.take(1)[0]

    def u16(self) -> int:
        return struct.unpack("<H", self.take(2))[0]

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self.take(8))[0]

    def tensor(self) -> np.ndarray:
        at = self.off
        rank = self.u8()
        if rank != 4:
            raise FormatError(f"{self.label}: rank {rank} at byte {at}, expected 4")
        shape = tuple(self.u32() for _ in range(4))
        count = int(np.prod(shape))
        start = self.off
        arr = np.frombuffer(self.take(4 * count), dtype="<f4")
        finite = np.isfinite(arr)
        if not finite.all():
            raise FormatError(f"{self.label}: non-finite value at byte "
                              f"{start + 4 * int(np.argmin(finite))}")
        return arr.reshape(shape).copy()

    def done(self) -> None:
        if self.off != len(self.buf):
            raise FormatError(
                f"{self.label}: {len(self.buf) - self.off} trailing bytes at byte {self.off}")
