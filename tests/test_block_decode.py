"""Block-granular full decode vs the per-instruction walk it replaced.

``FullDecoder`` walks basic blocks from a cached block table; the
oracle in ``tests/oracles/instruction_walk.py`` fetches and dispatches
one instruction per turn.  Both must agree on edges, instruction count,
charged cycles, end IP, the ``exhausted`` flag and every
``TraceMismatch`` text — over real traces of every workload program and
attack, through both the ``DecodedPacket`` list and the columnar slow
source, and on the corner cases a block walk could get wrong.
"""

import pytest

from repro import costs
from repro.attacks import (
    build_flushing_request,
    build_retlib_request,
    build_rop_request,
    build_srop_request,
    run_recon,
)
from repro.cpu import CoFIKind, Memory, PROT_EXEC, PROT_READ
from repro.experiments.common import (
    libraries,
    seed_server_fs,
    server_requests,
)
from repro.ipt import (
    FullDecoder,
    IPTEncoder,
    PacketKind,
    ToPA,
    ToPARegion,
    TraceMismatch,
    fast_decode,
)
from repro.ipt.columnar import ColumnarSlowSource, columnar_decode_parallel
from repro.ipt.fast_decoder import TipRecord
from repro.ipt.packets import DecodedPacket
from repro.isa import A, Cond, Label
from repro.isa.encoding import encode, instruction_length
from repro.isa.instructions import Insn, Op
from repro.isa.registers import R0, R1, R2
from repro.monitor.shadowstack import ShadowStack
from repro.monitor.slowpath import SlowPathEngine
from repro.osmodel.kernel import Kernel
from repro.analysis import ControlFlowGraph
from repro.workloads import (
    SERVER_BUILDERS,
    SPEC_BUILDERS,
    UTILITY_BUILDERS,
    build_nginx,
    build_vdso,
    seed_utility_inputs,
)
from repro.workloads.spec import build_spec_program
from tests.oracles.instruction_walk import decode_per_instruction
from tests.test_ipt import plain_config, run_traced

#: simulated instructions per traced program run.
STEPS = 40_000
#: instruction budget per compared decode.
BUDGET = 10_000
CODE = 0x400000


def outcome(decode):
    """Everything the two walks must agree on, or the mismatch text."""
    try:
        result = decode()
    except TraceMismatch as exc:
        return ("mismatch", str(exc))
    return (result.edges, result.insn_count, result.cycles,
            result.end_ip, result.exhausted)


def assert_same(memory, source, start_ip=None, max_insns=BUDGET,
                decoder=None):
    """Decode ``source`` both ways; return the shared outcome."""
    decoder = decoder or FullDecoder(memory, max_insns=max_insns)
    block = outcome(lambda: decoder.decode(source, start_ip=start_ip))
    oracle = outcome(lambda: decode_per_instruction(
        memory, source, start_ip=start_ip, max_insns=max_insns
    ))
    assert block == oracle
    return block


def sources(data):
    """Slow-path inputs over a raw trace: for the whole stream and for
    suffixes starting at a middle and the last PSB, the packet list and
    the columnar slow source."""
    columns = columnar_decode_parallel(data).columns
    packets = fast_decode(data).packets
    for first in sorted({0, len(columns) // 2, len(columns) - 1}):
        base = columns[first][1]
        yield ColumnarSlowSource(columns[first:])
        yield [p for p in packets if p.offset >= base]


def trace_program(kernel, name, connections=()):
    encoder = IPTEncoder(plain_config(), output=ToPA([ToPARegion(1 << 22)]))
    proc = kernel.spawn(name)
    proc.executor.add_listener(encoder.on_branch)
    for request in connections:
        proc.push_connection(request)
    kernel.run(proc, max_steps=STEPS)
    encoder.flush()
    return proc.machine.memory, encoder.output.snapshot()


def assert_trace_agrees(memory, data):
    walked = 0
    for source in sources(data):
        result = assert_same(memory, source)
        assert result[0] != "mismatch", result
        walked += result[1]
    assert walked > 0


# -- every workload program and attack ---------------------------------------


@pytest.mark.parametrize("name", sorted(SERVER_BUILDERS))
def test_servers_agree_with_the_oracle(name):
    kernel = Kernel()
    seed_server_fs(kernel)
    kernel.register_program(name, SERVER_BUILDERS[name](), libraries(),
                            vdso=build_vdso())
    assert_trace_agrees(
        *trace_program(kernel, name, server_requests(name, 2))
    )


@pytest.mark.parametrize("name", sorted(UTILITY_BUILDERS))
def test_utilities_agree_with_the_oracle(name):
    kernel = Kernel()
    seed_utility_inputs(kernel.fs)
    kernel.register_program(name, UTILITY_BUILDERS[name](), libraries())
    assert_trace_agrees(*trace_program(kernel, name))


@pytest.mark.parametrize("name", sorted(SPEC_BUILDERS))
def test_spec_programs_agree_with_the_oracle(name):
    kernel = Kernel()
    kernel.register_program(name, build_spec_program(name, 1), libraries())
    assert_trace_agrees(*trace_program(kernel, name))


@pytest.fixture(scope="module")
def recon():
    return run_recon(build_nginx(), libraries(), vdso=build_vdso())


ATTACKS = {
    "rop": build_rop_request,
    "srop": build_srop_request,
    "retlib": build_retlib_request,
    "flushing": lambda report: build_flushing_request(report,
                                                      nop_gadgets=40),
}


@pytest.mark.parametrize("attack", sorted(ATTACKS))
def test_attacks_agree_with_the_oracle(recon, attack):
    """Gadget chains enter functions mid-block, so the table holds
    overlapping blocks."""
    kernel = Kernel()
    kernel.fs.create("/index.html", b"x")
    kernel.register_program("nginx", build_nginx(), libraries(),
                            vdso=build_vdso())
    assert_trace_agrees(*trace_program(
        kernel, "nginx", [ATTACKS[attack](recon)]
    ))


# -- corner cases -------------------------------------------------------------

#: a straight run of mixed lengths inside a counted loop, an indirect
#: jump into the middle of that run, a call/return pair and a syscall.
LOOP = [
    A.mov(R0, 0),
    A.mov(R1, 0),
    Label("loop"),
    A.addi(R0, 1),
    A.nop(),
    Label("mid"),
    A.mov(R2, 7),
    A.cmpi(R0, 4),
    A.jcc(Cond.LT, "loop"),
    A.call("leaf"),
    A.cmpi(R1, 1),
    A.jcc(Cond.EQ, "out"),
    A.mov(R1, 1),
    A.mov(R0, 2),
    A.lea(R2, "mid"),
    A.jmpr(R2),
    Label("out"),
    A.mov(R0, 1),
    A.syscall(),
    A.halt(),
    Label("leaf"),
    A.ret(),
]


@pytest.fixture(scope="module")
def loop_trace():
    cpu, encoder, events, _ = run_traced(LOOP)
    data = encoder.output.snapshot()
    return cpu.machine.memory, data, fast_decode(data).packets, events


def test_the_loop_trace_decodes_fully(loop_trace):
    memory, _, packets, events = loop_trace
    edges, *_ = assert_same(memory, packets)
    truth = [(e.kind, e.src, e.dst) for e in events]
    got = [(e.kind, e.src, e.dst) for e in edges]
    assert got == truth[len(truth) - len(got):]
    kinds = {e.kind for e in edges}
    assert {CoFIKind.COND_BRANCH, CoFIKind.INDIRECT_JMP, CoFIKind.RET,
            CoFIKind.DIRECT_CALL, CoFIKind.FAR_TRANSFER} <= kinds


def test_a_budget_ending_at_every_offset_inside_a_block(loop_trace):
    memory, _, packets, _ = loop_trace
    total = decode_per_instruction(memory, packets).insn_count
    # One decoder across budgets: later budgets hit a warm block table.
    decoder = FullDecoder(memory)
    for budget in range(total + 2):
        decoder.max_insns = budget
        for make in (FullDecoder(memory, max_insns=budget), decoder):
            result = assert_same(memory, packets, max_insns=budget,
                                 decoder=make)
            assert result[1] == min(budget, total)
            assert result[4] is (budget >= total)


def test_an_entry_in_the_middle_of_a_block(loop_trace):
    """The indirect jump lands on ``mid`` inside the loop body's block;
    the walk builds a second block sharing its tail."""
    memory, _, packets, events = loop_trace
    decoder = FullDecoder(memory)
    assert_same(memory, packets, decoder=decoder)
    jump = next(e for e in events if e.kind is CoFIKind.INDIRECT_JMP)
    loop_start = next(e.dst for e in events
                      if e.kind is CoFIKind.COND_BRANCH and e.dst < e.src)
    assert loop_start < jump.dst
    assert {loop_start, jump.dst} <= set(decoder._blocks)


@pytest.mark.parametrize("lane", ["packets", "columnar"])
def test_a_stream_ending_at_each_terminator_kind(loop_trace, lane):
    """Cut the trace at every packet boundary: the walk ends waiting on
    a TNT bit, a TIP or a far-transfer group, exactly where the
    per-instruction walk ends."""
    memory, data, packets, _ = loop_trace
    ends = set()
    for cut in sorted({p.offset for p in packets} | {len(data)}):
        if lane == "packets":
            source = [p for p in packets if p.offset < cut]
        else:
            source = ColumnarSlowSource(
                columnar_decode_parallel(data[:cut]).columns
            )
        result = assert_same(memory, source)
        if result[0] != "mismatch" and result[3] is not None:
            ends.add(Op(memory.read_raw(result[3], 1)[0]))
    assert {Op.JCC, Op.JMPR, Op.RET, Op.SYSCALL} <= ends


def straight_memory(tail: bytes, *, page_end: bool = False):
    """Eight MOV_RI (10 bytes each) then ``tail``; with ``page_end`` the
    code sits so that one MOV_RI straddles the page boundary."""
    body = b"".join(encode(Insn(Op.MOV_RI, rd=R0, imm=i)) for i in range(8))
    memory = Memory()
    memory.map_region(CODE, 0x2000, PROT_READ | PROT_EXEC)
    base = CODE + 0x1000 - 35 if page_end else CODE
    memory.write_raw(base, body + tail)
    return memory, base


@pytest.mark.parametrize("tail", [
    bytes([0xFF]),                               # invalid opcode
    bytes([int(Op.MOV_RR), 200, 0]),             # invalid register
    bytes([int(Op.JCC), 99, 0, 0, 0, 0]),        # invalid condition
])
@pytest.mark.parametrize("page_end", [False, True])
def test_an_undecodable_byte_past_the_budget_is_never_reached(tail,
                                                              page_end):
    memory, base = straight_memory(tail, page_end=page_end)
    for budget in range(11):
        result = assert_same(memory, [], start_ip=base, max_insns=budget)
        if budget <= 8:
            assert result[1:] == (budget,
                                  budget * costs.FULL_DECODE_CYCLES_PER_INSN,
                                  base + 10 * budget, False)
        else:
            assert result[0] == "mismatch"
            assert f"cannot disassemble at {base + 80:#x}" in result[1]


def test_walking_off_the_mapped_region_names_the_old_ip():
    memory = Memory()
    memory.map_region(CODE, 0x1000, PROT_READ | PROT_EXEC)
    end = CODE + 0x1000
    result = assert_same(memory, [], start_ip=end - 3)
    assert result == ("mismatch",
                      f"cannot disassemble at {end:#x}: "
                      f"read of unmapped {end:#x}")


def test_a_truncated_instruction_at_the_map_end():
    memory = Memory()
    memory.map_region(CODE, 0x1000, PROT_READ | PROT_EXEC)
    memory.write_raw(CODE + 0x1000 - 2, bytes([int(Op.MOV_RI), 0]))
    result = assert_same(memory, [], start_ip=CODE + 0x1000 - 4)
    assert result[0] == "mismatch"
    assert f"cannot disassemble at {CODE + 0x1000 - 2:#x}" in result[1]


# -- the slow path ------------------------------------------------------------


def jump_to_self_memory() -> Memory:
    memory = Memory()
    memory.map_region(CODE, 0x1000, PROT_READ | PROT_EXEC)
    memory.write_raw(CODE, encode(Insn(Op.JMP, rel=-5)))
    return memory


def anchored(ip, *rest):
    return [
        DecodedPacket(PacketKind.PSB, 0),
        DecodedPacket(PacketKind.FUP, 16, ip=ip),
        DecodedPacket(PacketKind.PSBEND, 24),
        *rest,
    ]


def test_a_budget_stopped_window_is_not_confirmed_clean():
    """A ``jmp .`` loop consumes no packets, so the walk stops on its
    instruction budget with the TNT packet unread: the verdict is a
    desync, and no pair of the window is promoted."""
    memory = jump_to_self_memory()
    packets = anchored(CODE, DecodedPacket(PacketKind.TNT, 25,
                                           bits=(True,)))
    engine = SlowPathEngine(memory, ControlFlowGraph())
    engine._decoder = FullDecoder(memory, max_insns=64)
    window = [TipRecord(CODE, (), 25, False), TipRecord(CODE, (True,), 26,
                                                        False)]
    result = engine.check(packets, window=window)
    assert not result.ok
    assert result.reason.startswith("decoder desync: instruction budget")
    assert result.confirmed_pairs == []
    assert result.insns_decoded == 64
    assert result.cycles == (costs.SLOWPATH_UPCALL_CYCLES
                             + 64 * costs.FULL_DECODE_CYCLES_PER_INSN)
    assert_same(memory, packets, max_insns=64)


def test_a_window_that_ends_on_its_packets_is_still_confirmed():
    memory = jump_to_self_memory()
    memory.write_raw(CODE, encode(Insn(Op.RET)))
    packets = anchored(CODE)
    engine = SlowPathEngine(memory, ControlFlowGraph())
    window = [TipRecord(CODE, (), 25, False), TipRecord(CODE, (), 26,
                                                        False)]
    result = engine.check(packets, window=window)
    assert result.ok
    assert result.confirmed_pairs == [(CODE, CODE, ())]


def test_pushed_return_site_is_the_call_ip_plus_its_encoded_length():
    """Each call kind's return site, as the CPU really returned to it,
    is what the shadow stack pushed: the call IP plus the call's
    encoded length."""
    items = [
        A.mov(R0, 0),
        A.cmpi(R0, 1),
        A.jcc(Cond.EQ, "skip"),
        Label("skip"),
        A.call("leaf"),
        A.lea(R2, "leaf"),
        A.callr(R2),
        A.halt(),
        Label("leaf"),
        A.ret(),
    ]
    cpu, encoder, events, _ = run_traced(items)
    memory = cpu.machine.memory
    edges = FullDecoder(memory).decode(
        fast_decode(encoder.output.snapshot()).packets
    ).edges
    calls = {CoFIKind.DIRECT_CALL: Op.CALL, CoFIKind.INDIRECT_CALL: Op.CALLR}
    seen = set()
    shadow = ShadowStack()
    for edge, returned in zip(edges, edges[1:] + [None]):
        shadow.feed(edge)
        if edge.kind in calls:
            op = calls[edge.kind]
            assert memory.read_raw(edge.src, 1)[0] == int(op)
            assert returned.kind is CoFIKind.RET
            assert returned.dst == edge.src + instruction_length(op)
            seen.add(edge.kind)
    assert seen == set(calls)
    assert shadow.checked_returns == 2
    assert shadow.depth == 0
