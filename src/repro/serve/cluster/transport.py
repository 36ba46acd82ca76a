"""Socket-based batch transport: length-prefixed array frames over TCP.

A **frame** is one length-prefixed message — a small JSON header
describing the arrays it carries, then their raw bytes.  The per-frame
payload bound derives from the artifact header
(:func:`frame_bound_for_artifact`): room for a 64-row batch of the larger
of the program's input and output.

Wire format (all integers big-endian)::

    magic   b"RPRF"                      4 bytes
    version 1                            1 byte
    hlen    u32                          4 bytes
    header  JSON (utf-8), hlen bytes:
            {"kind": str, "meta": {...},
             "arrays": [[name, shape, dtype, nbytes], ...]}
    payload concatenated raw array bytes (C order, header order)

Robustness is explicit, not accidental:

* **Length prefixes are bounded** — a header over :data:`MAX_HEADER_BYTES`
  or a payload over the connection's ``max_frame_bytes`` raises
  :class:`FrameTooLarge` *before* any allocation, on both the send and the
  receive side (a malicious or corrupt prefix cannot make the receiver
  allocate gigabytes).
* **Truncation is loud** — EOF mid-frame raises :class:`TruncatedFrame`;
  a clean EOF at a frame boundary raises :class:`ConnectionClosed`.
* **Every operation carries a deadline** — send and recv each budget
  against a per-call (or per-connection default) timeout, raising
  :class:`DeadlineExpired`; a stalled peer cannot hang the router.

Deterministic chaos rides along: a :class:`~repro.serve.faults.NetFaultSession`
attached to a :class:`Connection` is consulted once per frame moved, so
``drop_conn`` / ``slow_link`` / ``partition`` faults replay identically
(see :mod:`repro.serve.faults`).
"""

from __future__ import annotations

import json
import socket
import struct
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.core.export import read_program_metadata

MAGIC = b"RPRF"
WIRE_VERSION = 1
_PREFIX = struct.Struct(">4sBI")  # magic, version, header length

#: Hard bound on the JSON header — headers describe array *shapes*, not
#: data, so anything near this is a corrupt or hostile prefix.
MAX_HEADER_BYTES = 1 << 20

#: Default per-frame payload bound when no artifact geometry is supplied.
DEFAULT_MAX_FRAME_BYTES = 64 << 20


class TransportError(RuntimeError):
    """Base class: the frame could not be moved; the connection is suspect.

    After any transport error the stream position is unknown — callers
    must close the connection and (if they retry) dial a fresh one.
    """


class ConnectionClosed(TransportError):
    """The peer closed the connection at a frame boundary (clean EOF)."""


class TruncatedFrame(TransportError):
    """The stream ended (or broke) in the middle of a frame."""


class FrameTooLarge(TransportError):
    """A frame exceeds the header or payload bound (rejected pre-allocation)."""


class DeadlineExpired(TransportError):
    """The send/recv deadline lapsed before the frame finished moving."""


class Partitioned(TransportError):
    """An injected ``partition`` fault: the peer is unreachable."""


@dataclass
class Frame:
    """One decoded message: a kind tag, JSON-able metadata, named arrays."""

    kind: str
    meta: Dict = field(default_factory=dict)
    arrays: Dict[str, np.ndarray] = field(default_factory=dict)


def frame_bound_for_artifact(artifact_path: Union[str, Path]) -> int:
    """Per-frame payload bound for a program artifact: room for a 64-row
    batch of the larger of the program's input/output (8 bytes per
    element), clamped to [1, 32] MiB; 1 MiB when the header cannot be read.
    """
    floor, ceiling = 1 << 20, 32 << 20
    try:
        meta = read_program_metadata(artifact_path)
        sample = max(
            int(np.prod(meta["input_shape"], dtype=np.int64)),
            int(np.prod(meta["output_shape"], dtype=np.int64)),
        )
        return int(np.clip(64 * sample * 8, floor, ceiling))
    except Exception:
        return floor


# ---------------------------------------------------------------------------
# Encoding / decoding
# ---------------------------------------------------------------------------
def encode_frame(
    kind: str,
    meta: Optional[Dict] = None,
    arrays: Optional[Dict[str, np.ndarray]] = None,
    max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
) -> List[bytes]:
    """Encode one frame as a list of byte chunks ready for ``sendall``.

    Raises :class:`FrameTooLarge` before building the payload when the
    arrays would exceed ``max_frame_bytes`` — the sender fails fast rather
    than shipping a frame the peer is bound to reject.
    """
    descs: List[List] = []
    chunks: List[bytes] = []
    payload_bytes = 0
    for name, array in (arrays or {}).items():
        array = np.asarray(array)
        if not array.flags["C_CONTIGUOUS"]:
            # Not ascontiguousarray unconditionally: it promotes 0-d arrays
            # to 1-d, which would silently change the decoded shape.
            array = np.ascontiguousarray(array)
        descs.append([name, list(array.shape), array.dtype.str, int(array.nbytes)])
        payload_bytes += int(array.nbytes)
        chunks.append(array.tobytes())
    if payload_bytes > max_frame_bytes:
        raise FrameTooLarge(
            f"frame payload is {payload_bytes} bytes, over the "
            f"{max_frame_bytes}-byte bound (batch exceeds the slot geometry)"
        )
    header = json.dumps({"kind": kind, "meta": meta or {}, "arrays": descs}).encode(
        "utf-8"
    )
    if len(header) > MAX_HEADER_BYTES:
        raise FrameTooLarge(
            f"frame header is {len(header)} bytes, over the "
            f"{MAX_HEADER_BYTES}-byte bound"
        )
    return [_PREFIX.pack(MAGIC, WIRE_VERSION, len(header)), header] + chunks


def _remaining(deadline: Optional[float]) -> Optional[float]:
    if deadline is None:
        return None
    left = deadline - time.monotonic()
    if left <= 0:
        raise DeadlineExpired("transport deadline expired")
    return left


def _recv_exact(sock: socket.socket, count: int, deadline: Optional[float]) -> bytearray:
    """Read exactly ``count`` bytes or raise (truncated / deadline)."""
    buffer = bytearray(count)
    view = memoryview(buffer)
    got = 0
    while got < count:
        try:
            sock.settimeout(_remaining(deadline))
            read = sock.recv_into(view[got:], count - got)
        except socket.timeout:
            raise DeadlineExpired(
                f"recv deadline expired after {got}/{count} bytes"
            ) from None
        except OSError as exc:
            raise TruncatedFrame(f"connection broke mid-frame: {exc}") from exc
        if read == 0:
            if got == 0:
                raise ConnectionClosed("peer closed the connection")
            raise TruncatedFrame(
                f"peer closed the connection mid-frame ({got}/{count} bytes)"
            )
        got += read
    return buffer


def send_frame(
    sock: socket.socket,
    kind: str,
    meta: Optional[Dict] = None,
    arrays: Optional[Dict[str, np.ndarray]] = None,
    max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
    deadline: Optional[float] = None,
) -> None:
    """Encode and send one frame under ``deadline`` (``time.monotonic``)."""
    chunks = encode_frame(kind, meta, arrays, max_frame_bytes=max_frame_bytes)
    try:
        for chunk in chunks:
            sock.settimeout(_remaining(deadline))
            sock.sendall(chunk)
    except socket.timeout:
        raise DeadlineExpired("send deadline expired mid-frame") from None
    except OSError as exc:
        raise TruncatedFrame(f"connection broke mid-send: {exc}") from exc


def recv_frame(
    sock: socket.socket,
    max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
    deadline: Optional[float] = None,
) -> Frame:
    """Receive one frame under ``deadline``; bounds-check before allocating."""
    prefix = _recv_exact(sock, _PREFIX.size, deadline)
    magic, version, header_len = _PREFIX.unpack(bytes(prefix))
    if magic != MAGIC:
        raise TransportError(
            f"bad frame magic {magic!r} (not a cluster transport stream)"
        )
    if version != WIRE_VERSION:
        raise TransportError(
            f"unsupported wire version {version} (this build speaks {WIRE_VERSION})"
        )
    if header_len > MAX_HEADER_BYTES:
        raise FrameTooLarge(
            f"frame header claims {header_len} bytes, over the "
            f"{MAX_HEADER_BYTES}-byte bound"
        )
    try:
        header = json.loads(bytes(_recv_exact(sock, header_len, deadline)))
        kind = header["kind"]
        meta = header.get("meta") or {}
        descs = header.get("arrays") or []
        payload_bytes = sum(int(desc[3]) for desc in descs)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        raise TransportError(f"unparseable frame header: {exc}") from exc
    if payload_bytes > max_frame_bytes:
        raise FrameTooLarge(
            f"frame payload claims {payload_bytes} bytes, over the "
            f"{max_frame_bytes}-byte bound"
        )
    arrays: Dict[str, np.ndarray] = {}
    for name, shape, dtype_str, nbytes in descs:
        raw = _recv_exact(sock, int(nbytes), deadline)
        try:
            arrays[str(name)] = np.frombuffer(raw, dtype=np.dtype(dtype_str)).reshape(
                tuple(shape)
            )
        except (ValueError, TypeError) as exc:
            raise TransportError(
                f"array {name!r} does not decode as {dtype_str}{tuple(shape)}: {exc}"
            ) from exc
    return Frame(kind=str(kind), meta=meta, arrays=arrays)


# ---------------------------------------------------------------------------
# Connections
# ---------------------------------------------------------------------------
class Connection:
    """One framed TCP connection with deadlines and optional injected faults.

    ``timeout_s`` is the per-operation default budget; every public method
    also accepts an explicit ``timeout_s`` (PR 6's request deadlines flow
    through here, so a request that has 80 ms left probes with 80 ms, not
    the connection default).  After any :class:`TransportError` the
    connection is closed and unusable — reconnect to retry.
    """

    def __init__(
        self,
        sock: socket.socket,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        timeout_s: Optional[float] = 30.0,
        faults=None,  # Optional[repro.serve.faults.NetFaultSession]
    ):
        self.sock = sock
        self.max_frame_bytes = max_frame_bytes
        self.timeout_s = timeout_s
        self.faults = faults
        self.closed = False
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass  # not a TCP socket (socketpair tests)

    def _deadline(self, timeout_s: Optional[float]) -> Optional[float]:
        budget = self.timeout_s if timeout_s is None else timeout_s
        return None if budget is None else time.monotonic() + budget

    def _apply_faults(self) -> None:
        """Consult the per-peer fault session for the frame about to move."""
        if self.faults is None:
            return
        for spec in self.faults.on_frame():
            if spec.kind == "partition":
                raise Partitioned(
                    f"injected partition (frame {self.faults.frames})"
                )
            if spec.kind == "slow_link":
                time.sleep(spec.delay_ms / 1e3)
            elif spec.kind == "drop_conn":
                self.close()
                raise ConnectionClosed(
                    f"injected drop_conn (frame {self.faults.frames})"
                )

    def send(
        self,
        kind: str,
        meta: Optional[Dict] = None,
        arrays: Optional[Dict[str, np.ndarray]] = None,
        timeout_s: Optional[float] = None,
    ) -> None:
        self._check_open()
        self._apply_faults()
        try:
            send_frame(
                self.sock, kind, meta, arrays,
                max_frame_bytes=self.max_frame_bytes,
                deadline=self._deadline(timeout_s),
            )
        except TransportError:
            self.close()
            raise

    def recv(self, timeout_s: Optional[float] = None) -> Frame:
        self._check_open()
        self._apply_faults()
        try:
            return recv_frame(
                self.sock,
                max_frame_bytes=self.max_frame_bytes,
                deadline=self._deadline(timeout_s),
            )
        except TransportError:
            self.close()
            raise

    def request(
        self,
        kind: str,
        meta: Optional[Dict] = None,
        arrays: Optional[Dict[str, np.ndarray]] = None,
        timeout_s: Optional[float] = None,
    ) -> Frame:
        """Send one frame and receive the reply under a *single* budget."""
        self._check_open()
        budget = self.timeout_s if timeout_s is None else timeout_s
        deadline = None if budget is None else time.monotonic() + budget
        self._apply_faults()
        try:
            send_frame(
                self.sock, kind, meta, arrays,
                max_frame_bytes=self.max_frame_bytes, deadline=deadline,
            )
        except TransportError:
            self.close()
            raise
        self._apply_faults()
        try:
            return recv_frame(
                self.sock, max_frame_bytes=self.max_frame_bytes, deadline=deadline
            )
        except TransportError:
            self.close()
            raise

    def _check_open(self) -> None:
        if self.closed:
            raise ConnectionClosed("connection already closed")

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self.sock.close()
        except OSError:
            pass


def connect(
    address: Tuple[str, int],
    timeout_s: Optional[float] = 30.0,
    connect_timeout_s: float = 5.0,
    max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
    faults=None,
) -> Connection:
    """Dial ``(host, port)`` and wrap the socket in a :class:`Connection`.

    An injected ``partition``/``drop_conn`` fault also blocks the *dial*
    (a partitioned peer is unreachable for new connections too), so a
    router retrying against a partitioned replica keeps failing
    deterministically instead of slipping through on a fresh socket.
    """
    if faults is not None:
        for spec in faults.on_frame():
            if spec.kind == "partition":
                raise Partitioned(f"injected partition (frame {faults.frames})")
            if spec.kind == "slow_link":
                time.sleep(spec.delay_ms / 1e3)
            elif spec.kind == "drop_conn":
                raise ConnectionClosed(
                    f"injected drop_conn at connect (frame {faults.frames})"
                )
    try:
        sock = socket.create_connection(address, timeout=connect_timeout_s)
    except OSError as exc:
        raise TransportError(f"cannot connect to {address}: {exc}") from exc
    return Connection(
        sock, max_frame_bytes=max_frame_bytes, timeout_s=timeout_s, faults=faults
    )
