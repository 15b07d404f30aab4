"""The per-instruction full decode, kept as the block walk's oracle.

``repro.ipt.full_decoder.FullDecoder`` walks basic blocks.  This is the
walk it replaced, kept verbatim in behaviour: fetch one instruction per
turn, dispatch on its opcode, consume a TNT bit / TIP / far-transfer
group at each CoFI.  Edges, instruction counts, charged cycles, the end
IP, the ``exhausted`` flag and every ``TraceMismatch`` message of the
block walk must equal this one's.
"""

from __future__ import annotations

from typing import List, Optional

from repro import costs
from repro.cpu.events import CoFIKind
from repro.cpu.memory import Memory, MemoryError_
from repro.ipt.full_decoder import (
    FlowEdge,
    FullDecodeResult,
    TraceMismatch,
    _PacketCursor,
)
from repro.isa.encoding import DecodeError, decode_at, instruction_length
from repro.isa.instructions import Op

_INDIRECT = {
    Op.JMPR: CoFIKind.INDIRECT_JMP,
    Op.CALLR: CoFIKind.INDIRECT_CALL,
    Op.RET: CoFIKind.RET,
}


def fetch(memory: Memory, ip: int):
    """Decode the instruction at ``ip`` with two raw reads."""
    try:
        header = memory.read_raw(ip, 1)
        length = instruction_length(Op(header[0]))
        raw = memory.read_raw(ip, length)
        insn, _ = decode_at(raw, 0)
    except (MemoryError_, DecodeError, ValueError) as exc:
        raise TraceMismatch(f"cannot disassemble at {ip:#x}: {exc}") from exc
    return insn, length


def decode_per_instruction(
    memory: Memory,
    packets,
    start_ip: Optional[int] = None,
    max_insns: int = 5_000_000,
) -> FullDecodeResult:
    """Walk the binaries one instruction at a time under the packets."""
    own_cursor = getattr(packets, "cursor", None)
    cursor = own_cursor() if own_cursor is not None else _PacketCursor(packets)
    ip = start_ip if start_ip is not None else cursor.initial_ip()
    edges: List[FlowEdge] = []
    insn_count = 0
    if ip is None:
        return FullDecodeResult(edges, 0, 0.0, exhausted=True)

    def finish(exhausted: bool) -> FullDecodeResult:
        return FullDecodeResult(
            edges=edges,
            insn_count=insn_count,
            cycles=insn_count * costs.FULL_DECODE_CYCLES_PER_INSN,
            end_ip=ip,
            exhausted=exhausted,
        )

    while insn_count < max_insns:
        insn, length = fetch(memory, ip)
        insn_count += 1
        op = insn.op
        next_ip = ip + length

        if op is Op.HALT:
            return finish(True)
        if op is Op.JMP or op is Op.CALL:
            target = next_ip + insn.rel
            kind = (CoFIKind.DIRECT_JMP if op is Op.JMP
                    else CoFIKind.DIRECT_CALL)
            edges.append(FlowEdge(kind, ip, target))
            ip = target
            continue
        if op is Op.JCC:
            bit = cursor.next_tnt_bit()
            if bit is None:
                return finish(True)
            target = next_ip + insn.rel if bit else next_ip
            edges.append(FlowEdge(CoFIKind.COND_BRANCH, ip, target, taken=bit))
            ip = target
            continue
        if op in _INDIRECT:
            target = cursor.next_tip()
            if target is None:
                return finish(True)
            edges.append(FlowEdge(_INDIRECT[op], ip, target))
            ip = target
            continue
        if op is Op.SYSCALL:
            resume = cursor.next_far_resume(ip)
            if resume is None:
                return finish(True)
            edges.append(FlowEdge(CoFIKind.FAR_TRANSFER, ip, resume))
            ip = resume
            continue
        ip = next_ip

    # Stopped on the instruction budget: packets may remain unread.
    return finish(False)
