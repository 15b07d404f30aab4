"""Full decode: the instruction-flow layer of abstraction.

Models Intel's reference decoder library: reconstructing the exact
execution flow requires parsing the *program binaries* instruction by
instruction and combining them with the packet stream — each conditional
branch consumes a TNT bit, each indirect branch consumes a TIP, each far
transfer consumes its FUP/PGD/PGE group.  Every instruction walked
charges :data:`repro.costs.FULL_DECODE_CYCLES_PER_INSN`, which is why
decoding is orders of magnitude slower than tracing (§2: ~230x on
SPECCPU).  On the host the walk is block-granular (see
:class:`FullDecoder`); the charge still counts every instruction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro import costs
from repro.telemetry import get_telemetry
from repro.cpu.events import CoFIKind
from repro.cpu.memory import PAGE_SIZE, Memory, MemoryError_
from repro.isa.encoding import DecodeError, decode_at, instruction_length
from repro.isa.instructions import Insn, Op
from repro.ipt.packets import DecodedPacket, PacketKind


class TraceMismatch(Exception):
    """Packet stream and binaries disagree (decoder desync)."""


@dataclass(frozen=True)
class FlowEdge:
    """One reconstructed control transfer."""

    kind: CoFIKind
    src: int
    dst: int
    taken: bool = True


@dataclass
class FullDecodeResult:
    edges: List[FlowEdge]
    insn_count: int
    cycles: float
    end_ip: Optional[int] = None
    exhausted: bool = True  # packets fully consumed


class _PacketCursor:
    """Sequential packet consumption with PSB+ group skipping."""

    def __init__(self, packets: List[DecodedPacket]) -> None:
        self._packets = packets
        self._index = 0
        self._tnt_bits: List[bool] = []

    def _advance_raw(self) -> Optional[DecodedPacket]:
        if self._index >= len(self._packets):
            return None
        packet = self._packets[self._index]
        self._index += 1
        return packet

    def _skip_psb_group(self) -> None:
        """Consume context packets up to and including PSBEND."""
        while self._index < len(self._packets):
            packet = self._packets[self._index]
            self._index += 1
            if packet.kind is PacketKind.PSBEND:
                return

    def next_tnt_bit(self) -> Optional[bool]:
        """Next conditional-branch outcome, or None at stream end."""
        while not self._tnt_bits:
            packet = self._advance_raw()
            if packet is None:
                return None
            if packet.kind is PacketKind.PSB:
                self._skip_psb_group()
                continue
            if packet.kind is PacketKind.TNT:
                self._tnt_bits.extend(packet.bits)
                continue
            raise TraceMismatch(
                f"expected TNT, found {packet.kind.value} at "
                f"offset {packet.offset}"
            )
        return self._tnt_bits.pop(0)

    def next_tip(self) -> Optional[int]:
        """Next plain-TIP target, or None at stream end."""
        if self._tnt_bits:
            raise TraceMismatch("unconsumed TNT bits before a TIP")
        while True:
            packet = self._advance_raw()
            if packet is None:
                return None
            if packet.kind is PacketKind.PSB:
                self._skip_psb_group()
                continue
            if packet.kind is PacketKind.TIP:
                return packet.ip
            raise TraceMismatch(
                f"expected TIP, found {packet.kind.value} at "
                f"offset {packet.offset}"
            )

    def next_far_resume(self, expected_src: int) -> Optional[int]:
        """Consume a FUP/TIP.PGD/TIP.PGE group; return the resume IP."""
        if self._tnt_bits:
            raise TraceMismatch("unconsumed TNT bits before a far transfer")
        while True:
            packet = self._advance_raw()
            if packet is None:
                return None
            if packet.kind is PacketKind.PSB:
                self._skip_psb_group()
                continue
            if packet.kind is not PacketKind.FUP:
                raise TraceMismatch(
                    f"expected FUP, found {packet.kind.value}"
                )
            if packet.ip != expected_src:
                raise TraceMismatch(
                    f"FUP {packet.ip:#x} does not match far-transfer "
                    f"source {expected_src:#x}"
                )
            break
        pgd = self._advance_raw()
        if pgd is None:
            return None
        if pgd.kind is not PacketKind.TIP_PGD:
            raise TraceMismatch(f"expected TIP.PGD, found {pgd.kind.value}")
        pge = self._advance_raw()
        if pge is None:
            return None
        if pge.kind is not PacketKind.TIP_PGE:
            raise TraceMismatch(f"expected TIP.PGE, found {pge.kind.value}")
        return pge.ip

    def initial_ip(self) -> Optional[int]:
        """Find the first PSB-context FUP or TIP.PGE to anchor decoding."""
        while self._index < len(self._packets):
            packet = self._packets[self._index]
            self._index += 1
            if packet.kind is PacketKind.PSB:
                # The FUP inside the PSB+ group carries the current IP.
                while self._index < len(self._packets):
                    ctx = self._packets[self._index]
                    self._index += 1
                    if ctx.kind is PacketKind.FUP and ctx.ip is not None:
                        # Consume the rest of the group.
                        while (
                            self._index < len(self._packets)
                            and self._packets[self._index].kind
                            is not PacketKind.PSBEND
                        ):
                            self._index += 1
                        if self._index < len(self._packets):
                            self._index += 1
                        return ctx.ip
                    if ctx.kind is PacketKind.PSBEND:
                        break
            elif packet.kind is PacketKind.TIP_PGE and packet.ip is not None:
                return packet.ip
        return None


# Block terminator kinds, in the walk's dispatch order.
_JCC, _INDIRECT, _DIRECT, _FAR, _HALT, _UNDECODABLE = range(6)

_INDIRECT_KINDS = {
    Op.JMPR: CoFIKind.INDIRECT_JMP,
    Op.CALLR: CoFIKind.INDIRECT_CALL,
    Op.RET: CoFIKind.RET,
}
_DIRECT_KINDS = {Op.JMP: CoFIKind.DIRECT_JMP, Op.CALL: CoFIKind.DIRECT_CALL}
_PAGE_MASK = PAGE_SIZE - 1


class _Block:
    """A straight run of non-CoFI instructions and the CoFI (or HALT)
    that ends it.

    ``count`` includes the terminator.  An ``_UNDECODABLE`` block ends
    at the first instruction that does not disassemble and keeps the
    fetch's ``error`` text; its ``count`` includes that failed fetch, so
    the budget arithmetic matches the per-instruction walk.  Direct
    transfers carry their prebuilt edges:
    ``taken``/``taken_edge`` for a JMP, a CALL or a taken JCC,
    ``fall``/``fall_edge`` for a not-taken JCC.
    """

    __slots__ = ("count", "term", "ip", "kind", "taken", "fall",
                 "taken_edge", "fall_edge", "error")

    def __init__(self, count: int, term: int, ip: int,
                 kind: Optional[CoFIKind] = None,
                 taken: Optional[int] = None, fall: Optional[int] = None,
                 error: str = "") -> None:
        self.count = count
        self.term = term
        self.ip = ip
        self.kind = kind
        self.taken = taken
        self.fall = fall
        self.error = error
        self.taken_edge = self.fall_edge = None
        if term == _DIRECT:
            self.taken_edge = FlowEdge(kind, ip, taken)
        elif term == _JCC:
            self.taken_edge = FlowEdge(kind, ip, taken, taken=True)
            self.fall_edge = FlowEdge(kind, ip, fall, taken=False)


class FullDecoder:
    """Reconstructs exact control flow from packets + binaries.

    The walk is block-granular: the first time it reaches an IP it
    disassembles the basic block starting there once and caches it for
    the decoder's lifetime (one decoder per protected process, rebuilt
    on reload), so a hot loop costs one table lookup and one packet per
    block, not a fetch and a dispatch per instruction.  The charged
    cost still counts every instruction the block holds.
    """

    def __init__(self, memory: Memory, max_insns: int = 5_000_000) -> None:
        self.memory = memory
        self.max_insns = max_insns
        self._blocks: Dict[int, _Block] = {}

    def _fetch(self, ip: int) -> Tuple[Insn, int]:
        try:
            header = self.memory.read_raw(ip, 1)
            length = instruction_length(Op(header[0]))
            raw = self.memory.read_raw(ip, length)
            insn, _ = decode_at(raw, 0)
        except (MemoryError_, DecodeError, ValueError) as exc:
            raise TraceMismatch(
                f"cannot disassemble at {ip:#x}: {exc}"
            ) from exc
        return insn, length

    def _build(self, start: int) -> _Block:
        """Disassemble the block at ``start``: one raw read per page it
        covers; an instruction that crosses the page end or fails to
        decode goes through :meth:`_fetch`, which either reads across
        the boundary or names the failure.  Never raises — an
        undecodable instruction ends the block, and the walk raises
        only if its budget reaches that instruction."""
        ip = start
        count = 0
        code = b""
        base = start
        while True:
            offset = ip - base
            if offset >= len(code):
                base, offset = ip, 0
                try:
                    code = self.memory.read_raw(
                        ip, PAGE_SIZE - (ip & _PAGE_MASK)
                    )
                except MemoryError_:
                    code = b""
            count += 1
            try:
                insn, length = decode_at(code, offset)
            except DecodeError:
                try:
                    insn, length = self._fetch(ip)
                except TraceMismatch as exc:
                    return _Block(count, _UNDECODABLE, ip, error=str(exc))
            op = insn.op
            next_ip = ip + length
            if op is Op.JCC:
                return _Block(count, _JCC, ip, CoFIKind.COND_BRANCH,
                              taken=next_ip + insn.rel, fall=next_ip)
            if op in _INDIRECT_KINDS:
                return _Block(count, _INDIRECT, ip, _INDIRECT_KINDS[op])
            if op in _DIRECT_KINDS:
                return _Block(count, _DIRECT, ip, _DIRECT_KINDS[op],
                              taken=next_ip + insn.rel)
            if op is Op.SYSCALL:
                return _Block(count, _FAR, ip, CoFIKind.FAR_TRANSFER)
            if op is Op.HALT:
                return _Block(count, _HALT, ip)
            ip = next_ip

    def _ip_after(self, ip: int, count: int) -> int:
        """The IP ``count`` straight-line instructions past ``ip``."""
        for _ in range(count):
            ip += self._fetch(ip)[1]
        return ip

    def decode(
        self,
        packets: List[DecodedPacket],
        start_ip: Optional[int] = None,
    ) -> FullDecodeResult:
        """Walk the binaries under the guidance of the packet stream.

        Decoding anchors at ``start_ip`` or at the first PSB-context
        FUP / TIP.PGE in the stream, and ends when packets run out.
        Each turn walks one basic block and consumes what its
        terminator needs: one TNT bit, one TIP, or one FUP/PGD/PGE
        group.

        ``packets`` is either a ``DecodedPacket`` list or any object
        with a ``cursor()`` hook (``repro.ipt.columnar``'s
        ``ColumnarSlowSource``) yielding a packet-cursor-compatible
        walker — the degraded lane uses the latter to replay raw
        segment bytes without materialising packet objects.
        """
        own_cursor = getattr(packets, "cursor", None)
        cursor = own_cursor() if own_cursor is not None else _PacketCursor(packets)
        ip = start_ip if start_ip is not None else cursor.initial_ip()
        edges: List[FlowEdge] = []
        if ip is None:
            return FullDecodeResult(edges, 0, 0.0, exhausted=True)

        append = edges.append
        next_tnt_bit = cursor.next_tnt_bit
        next_tip = cursor.next_tip
        blocks = self._blocks
        max_insns = self.max_insns
        insn_count = 0
        while True:
            block = blocks.get(ip)
            if block is None:
                block = blocks[ip] = self._build(ip)
            insn_count += block.count
            if insn_count > max_insns:
                # The budget runs out inside this block: stop at the
                # first instruction the budget does not cover, where a
                # per-instruction walk stops; packets may remain unread.
                walked = block.count - (insn_count - max_insns)
                return self._finish(
                    edges, max_insns, self._ip_after(ip, walked), False
                )
            term = block.term
            if term == _JCC:
                bit = next_tnt_bit()
                if bit is None:
                    return self._finish(edges, insn_count, block.ip, True)
                if bit:
                    append(block.taken_edge)
                    ip = block.taken
                else:
                    append(block.fall_edge)
                    ip = block.fall
            elif term == _INDIRECT:
                target = next_tip()
                if target is None:
                    return self._finish(edges, insn_count, block.ip, True)
                append(FlowEdge(block.kind, block.ip, target))
                ip = target
            elif term == _DIRECT:
                append(block.taken_edge)
                ip = block.taken
            elif term == _FAR:
                resume = cursor.next_far_resume(block.ip)
                if resume is None:
                    return self._finish(edges, insn_count, block.ip, True)
                append(FlowEdge(CoFIKind.FAR_TRANSFER, block.ip, resume))
                ip = resume
            elif term == _HALT:
                return self._finish(edges, insn_count, block.ip, True)
            else:
                raise TraceMismatch(block.error)

    def _finish(
        self, edges: List[FlowEdge], insn_count: int, ip: int, exhausted: bool
    ) -> FullDecodeResult:
        tel = get_telemetry()
        if tel.enabled:
            m = tel.metrics
            m.counter("ipt.full_decode.calls").inc()
            m.counter("ipt.full_decode.insns").inc(insn_count)
            m.counter("ipt.full_decode.edges").inc(len(edges))
        return FullDecodeResult(
            edges=edges,
            insn_count=insn_count,
            cycles=insn_count * costs.FULL_DECODE_CYCLES_PER_INSN,
            end_ip=ip,
            exhausted=exhausted,
        )
