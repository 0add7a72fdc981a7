"""Checked binary stores of parsed text inputs, written beside the text.

The first load that parses a text input (a vectors file, a graph split, a
metadata file) also writes its parse to ``<file>.store`` beside it. That
parse, inside :func:`load`, is the only code that writes a store; a writer
of a split file (``graph.save_triples``) loads the file it wrote. A store
opens with a header: a 16-byte magic naming its kind, the sha256 of the
text it was parsed from, then the kind's own counts (little-endian unsigned
64-bit), which fix the size of the body after the header. The body's layout
is this module's too: arrays little-endian, then a block of names, each
ended by "\\n".

A later load hashes the text and reads the store when the magic and the
sha256 match and the file has the size its counts give; the kind's reader
checks the body and raises :class:`BadStore` on damage. A store made from
other text, or truncated or malformed, is parsed over and rewritten, with
a warning that names it. A store is written to a temporary file beside it
and published with one ``os.replace``, so no reader sees a partial store;
one that cannot be written (read-only directory, full disk) is skipped,
and the load still returns the parse. The text stays the reference and the
source of every ``file:line`` error, so deleting a store is always safe.
"""

from __future__ import annotations

import itertools
import logging
import os
import shutil
import struct
import sys
import tempfile
from typing import Callable, Iterable, Iterator, TypeVar

import numpy as np

logger = logging.getLogger(__name__)

SUFFIX = ".store"
# Bytes hashed, and names read, at a time: below glibc's default 128 KiB mmap
# threshold, so neither frees a mapped block. Freeing one raises the
# threshold to its size, and a 1 MiB scan block tripled the page faults of
# the closed-transe train-kgc run that followed the load (22.5k to 99.8k).
SCAN_BYTES = 1 << 16

T = TypeVar("T")


class BadStore(Exception):
    """A store that cannot serve a load; the text is parsed instead."""


class Format:
    """One kind of store: its ``name`` (for messages), its 16-byte ``magic``,
    ``counts`` header counts, and ``body_size``, the body's byte size as a
    function of those counts."""

    def __init__(self, name: str, magic: bytes, counts: int,
                 body_size: Callable[..., int]) -> None:
        self.name, self.magic, self.body_size = name, magic, body_size
        self.header = struct.Struct(f"<16s32s{counts}Q")

    def read_header(self, fh, digest: bytes) -> tuple[int, ...]:
        """The counts of the store open as ``fh``, left just past its header.
        Raises :class:`BadStore` unless the store is of this kind, was made
        from the text with sha256 ``digest`` and has the size they give."""
        header = fh.read(self.header.size)
        if len(header) != self.header.size or header[:16] != self.magic:
            raise BadStore(f"not an owlink {self.name} store")
        _, text_digest, *counts = self.header.unpack(header)
        if text_digest != digest:
            raise BadStore("made from other text")
        if os.fstat(fh.fileno()).st_size != self.header.size + self.body_size(*counts):
            raise BadStore("truncated or malformed")
        return tuple(counts)


def read_into(fh, array: np.ndarray) -> None:
    """Fill the C-contiguous ``array`` from ``fh``'s little-endian bytes; BadStore at the end."""
    view, got = memoryview(array), 0
    if view.nbytes:  # an empty view cannot be cast
        view = view.cast("B")
    while got < view.nbytes:
        n = fh.readinto(view[got:])
        if not n:
            raise BadStore("truncated")
        got += n
    if sys.byteorder == "big":
        array.byteswap(inplace=True)


def read_names(fh, count: int, what: str = "names") -> Iterator[str]:
    """The ``count`` names of the block from ``fh``'s position to its end, read
    ``SCAN_BYTES`` at a time. :class:`BadStore`, naming the block ``what``,
    unless it is UTF-8, holds ``count`` names and ends in "\\n"."""
    # chained lists: a generator that yields each name cost about 10 % of a
    # warm split load
    return itertools.chain.from_iterable(_name_pieces(fh, count, what))


def _name_pieces(fh, count: int, what: str) -> Iterator[list[str]]:
    seen, rest = 0, b""
    for piece in iter(lambda: fh.read(SCAN_BYTES), b""):
        piece = rest + piece
        cut = piece.rfind(b"\n") + 1
        try:
            names = piece[:cut].decode("utf-8").split("\n")[:-1]
        except UnicodeDecodeError:
            raise BadStore(f"malformed {what}") from None
        seen += len(names)
        yield names
        rest = piece[cut:]
    if rest or seen != count:
        raise BadStore(f"malformed {what}")


def _sha256():
    import hashlib  # here: loading OpenSSL costs about 3.5 MiB of RSS, which a
    # command that reads no stored input need not pay

    return hashlib.sha256()


def _scan(path: str, count_lines: bool) -> tuple[bytes, int]:
    """The sha256 of the file's bytes and, with ``count_lines``, at least its
    number of lines (text mode ends a line at "\\n", "\\r" or "\\r\\n"; the
    bytes up to "\\r" include all three), in one pass."""
    digest, bound = _sha256(), 0
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(SCAN_BYTES), b""):
            digest.update(chunk)
            if count_lines:
                bound += int(np.count_nonzero(np.frombuffer(chunk, np.uint8) <= ord("\r")))
    return digest.digest(), bound


class Writer:
    """Streams a store's body into a temporary file beside it, and an
    optional tail (bytes that end the body, produced as the body is) into an
    anonymous file; :meth:`publish` appends the tail, writes the header and
    renames the file into place. An ``OSError`` at any step only means
    that no store is written."""

    def __init__(self, path: str, fmt: Format, digest: bytes) -> None:
        self.path, self.fmt, self.digest = path, fmt, digest
        self.tmp = f"{path}.{os.getpid()}-{os.urandom(4).hex()}.tmp"
        self.body = self.tail = None
        try:
            self.body = open(self.tmp, "xb")
            self.body.write(bytes(fmt.header.size))
        except OSError as exc:
            self._give_up(exc)

    def _give_up(self, exc: OSError) -> None:
        logger.info("%s: not written: %s", self.path, exc)
        self.discard()

    def _append(self, data, tail: bool) -> None:
        if self.body is None:
            return
        try:
            if tail and self.tail is None:
                self.tail = tempfile.TemporaryFile()
            (self.tail if tail else self.body).write(data)
        except OSError as exc:
            self._give_up(exc)

    def write(self, array: np.ndarray) -> None:
        """Append ``array`` to the body, C order, little-endian."""
        self._append(np.ascontiguousarray(array, array.dtype.newbyteorder("<")), False)

    def write_names(self, names: Iterable[str], tail: bool = False) -> int:
        """Append ``names`` as a names block (each name, which holds no
        "\\n", followed by one) to the body, or to the tail; its byte count."""
        block = "".join(name + "\n" for name in names).encode()
        self._append(block, tail)
        return len(block)

    def publish(self, *counts: int) -> None:
        """Write the header with ``counts`` and publish the store."""
        if self.body is None:
            return
        try:
            if self.tail is not None:
                self.tail.seek(0)
                shutil.copyfileobj(self.tail, self.body)
            self.body.seek(0)
            self.body.write(self.fmt.header.pack(self.fmt.magic, self.digest, *counts))
            self.body.close()
            os.replace(self.tmp, self.path)
        except OSError as exc:
            self._give_up(exc)

    def discard(self) -> None:
        """Close both files and remove the temporary one, if still there."""
        for fh in (self.body, self.tail):
            if fh is not None:
                try:
                    fh.close()
                except OSError:
                    pass
        self.body = self.tail = None
        try:
            os.unlink(self.tmp)
        except OSError:
            pass


def load(path: str, fmt: Format, read: Callable[..., T], parse: Callable[[Writer, int], T],
         count_lines: bool = False) -> T:
    """The parse of the text file ``path``: read from its store,
    ``path + SUFFIX``, when that was made from the same bytes, else parsed.

    ``read(fh, *counts)`` gives the parse from the open store, past a
    header that matched, and raises :class:`BadStore` on a damaged body.
    ``parse(writer, lines)`` parses the text, writes the store's body to
    ``writer`` and publishes it; ``lines`` is at least the text's line
    count with ``count_lines``, else 0.
    """
    store_path = os.fspath(path) + SUFFIX
    if os.path.exists(store_path):
        digest, _ = _scan(path, count_lines=False)
        try:
            with open(store_path, "rb", buffering=0) as fh:
                return read(fh, *fmt.read_header(fh, digest))
        except (BadStore, OSError) as exc:
            logger.warning("%s: %s; parsing %s and writing it again", store_path, exc, path)
    digest, lines = _scan(path, count_lines)
    writer = Writer(store_path, fmt, digest)
    try:
        return parse(writer, lines)
    finally:
        writer.discard()
