"""Reference interpreter: simple, direct, obviously-correct execution.

Used for differential testing against the turbo engine and for
debugging; turbo must produce *identical* timing and counters (all
costs are integers, accumulated in program order by both engines).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.ir.nodes import Function, IRError
from repro.ir.opcodes import Opcode
from repro.machine.context import ExecutionContext
from repro.machine.sampler import NEVER


class ExecutionLimitExceeded(RuntimeError):
    """The instruction budget (MachineConfig.max_instructions) ran out."""


def run_function(
    function: Function,
    ctx: ExecutionContext,
    args: Sequence[int] = (),
) -> int:
    """Execute ``function`` to completion; returns the RET value."""
    if len(args) != len(function.params):
        raise IRError(
            f"{function.name} expects {len(function.params)} args, "
            f"got {len(args)}"
        )

    cfg = ctx.config
    alu = cfg.alu_cost
    br_cost = cfg.branch_cost
    pf_cost = cfg.prefetch_cost
    work_cpi = cfg.work_cpi
    mem = ctx.mem
    space = ctx.space
    counters = ctx.counters
    lbr_push = ctx.lbr.push
    sampler = ctx.sampler
    if sampler is not None:
        next_sample = sampler.next_at
        pebs_threshold = cfg.effective_pebs_threshold()
    else:
        next_sample = NEVER
        pebs_threshold = NEVER
    max_instructions = cfg.max_instructions

    # Precompute per-block metadata.
    start_pc = {block.name: block.start_pc for block in function.blocks}
    block_phis = {}
    block_rest = {}
    for block in function.blocks:
        phis = block.phis()
        block_phis[block.name] = [
            (phi.dst, dict(phi.incomings)) for phi in phis
        ]
        block_rest[block.name] = block.instructions[len(phis):]

    regs: dict[str, int] = dict(zip(function.params, (int(a) for a in args)))
    cycle = int(counters.cycles)
    retired = 0
    loads = 0
    stores = 0
    taken = 0

    prev_block: Optional[str] = None
    block_name = function.entry.name

    def resolve(operand):
        return regs[operand] if type(operand) is str else operand

    while True:
        if cycle >= next_sample:
            next_sample = sampler.take(cycle)  # type: ignore[union-attr]
        if retired > max_instructions:
            raise ExecutionLimitExceeded(
                f"{function.name}: exceeded {max_instructions} instructions"
            )

        # Resolve PHIs with parallel-copy semantics.
        phis = block_phis[block_name]
        if phis:
            values = [resolve(incoming[prev_block]) for _, incoming in phis]
            for (dst, _), value in zip(phis, values):
                regs[dst] = value

        next_block: Optional[str] = None
        for inst in block_rest[block_name]:
            op = inst.op
            a = inst.args
            if op is Opcode.LOAD:
                addr = resolve(a[0])
                latency = mem.load(addr, cycle, inst.pc)
                cycle += latency
                if latency >= pebs_threshold:
                    sampler.record_load(inst.pc, latency)  # type: ignore[union-attr]
                regs[inst.dst] = space.load(addr)
                loads += 1
                retired += 1
            elif op is Opcode.ADD:
                regs[inst.dst] = resolve(a[0]) + resolve(a[1])
                cycle += alu
                retired += 1
            elif op is Opcode.GEP:
                regs[inst.dst] = resolve(a[0]) + resolve(a[1]) * a[2]
                cycle += alu
                retired += 1
            elif op is Opcode.SUB:
                regs[inst.dst] = resolve(a[0]) - resolve(a[1])
                cycle += alu
                retired += 1
            elif op is Opcode.MUL:
                regs[inst.dst] = resolve(a[0]) * resolve(a[1])
                cycle += alu
                retired += 1
            elif op is Opcode.DIV:
                regs[inst.dst] = resolve(a[0]) // resolve(a[1])
                cycle += alu
                retired += 1
            elif op is Opcode.REM:
                regs[inst.dst] = resolve(a[0]) % resolve(a[1])
                cycle += alu
                retired += 1
            elif op is Opcode.AND:
                regs[inst.dst] = resolve(a[0]) & resolve(a[1])
                cycle += alu
                retired += 1
            elif op is Opcode.OR:
                regs[inst.dst] = resolve(a[0]) | resolve(a[1])
                cycle += alu
                retired += 1
            elif op is Opcode.XOR:
                regs[inst.dst] = resolve(a[0]) ^ resolve(a[1])
                cycle += alu
                retired += 1
            elif op is Opcode.SHL:
                regs[inst.dst] = resolve(a[0]) << resolve(a[1])
                cycle += alu
                retired += 1
            elif op is Opcode.SHR:
                regs[inst.dst] = resolve(a[0]) >> resolve(a[1])
                cycle += alu
                retired += 1
            elif op is Opcode.MIN:
                regs[inst.dst] = min(resolve(a[0]), resolve(a[1]))
                cycle += alu
                retired += 1
            elif op is Opcode.MAX:
                regs[inst.dst] = max(resolve(a[0]), resolve(a[1]))
                cycle += alu
                retired += 1
            elif op is Opcode.CMP_EQ:
                regs[inst.dst] = 1 if resolve(a[0]) == resolve(a[1]) else 0
                cycle += alu
                retired += 1
            elif op is Opcode.CMP_NE:
                regs[inst.dst] = 1 if resolve(a[0]) != resolve(a[1]) else 0
                cycle += alu
                retired += 1
            elif op is Opcode.CMP_LT:
                regs[inst.dst] = 1 if resolve(a[0]) < resolve(a[1]) else 0
                cycle += alu
                retired += 1
            elif op is Opcode.CMP_LE:
                regs[inst.dst] = 1 if resolve(a[0]) <= resolve(a[1]) else 0
                cycle += alu
                retired += 1
            elif op is Opcode.CMP_GT:
                regs[inst.dst] = 1 if resolve(a[0]) > resolve(a[1]) else 0
                cycle += alu
                retired += 1
            elif op is Opcode.CMP_GE:
                regs[inst.dst] = 1 if resolve(a[0]) >= resolve(a[1]) else 0
                cycle += alu
                retired += 1
            elif op is Opcode.SELECT:
                regs[inst.dst] = resolve(a[1]) if resolve(a[0]) else resolve(a[2])
                cycle += alu
                retired += 1
            elif op is Opcode.CONST:
                regs[inst.dst] = a[0]
                cycle += alu
                retired += 1
            elif op is Opcode.MOV:
                regs[inst.dst] = resolve(a[0])
                cycle += alu
                retired += 1
            elif op is Opcode.STORE:
                addr = resolve(a[0])
                cycle += mem.store(addr, cycle, inst.pc)
                space.store(addr, resolve(a[1]))
                stores += 1
                retired += 1
            elif op is Opcode.PREFETCH:
                mem.prefetch(resolve(a[0]), cycle, inst.pc)
                cycle += pf_cost
                retired += 1
            elif op is Opcode.WORK:
                amount = resolve(a[0])
                cycle += amount * work_cpi
                retired += amount
            elif op is Opcode.CALL:
                if ctx.invoke is None:
                    raise IRError("CALL executed without an invoke trampoline")
                cycle += br_cost
                retired += 1
                call_args = tuple(resolve(operand) for operand in a)
                # The shared clock crosses the call via counters.cycles.
                counters.cycles = cycle
                regs[inst.dst] = ctx.invoke(
                    inst.targets[0], call_args, inst.pc
                )
                cycle = int(counters.cycles)
                if sampler is not None:
                    next_sample = sampler.next_at
            elif op is Opcode.JMP:
                cycle += br_cost
                retired += 1
                taken += 1
                target = inst.targets[0]
                lbr_push((inst.pc, start_pc[target], cycle))
                next_block = target
            elif op is Opcode.BR:
                cycle += br_cost
                retired += 1
                if resolve(a[0]):
                    target = inst.targets[0]
                    taken += 1
                    lbr_push((inst.pc, start_pc[target], cycle))
                    next_block = target
                else:
                    next_block = inst.targets[1]
            elif op is Opcode.RET:
                cycle += br_cost
                retired += 1
                counters.cycles = cycle
                counters.instructions += retired
                counters.loads += loads
                counters.stores += stores
                counters.taken_branches += taken
                return resolve(a[0])
            else:  # pragma: no cover - exhaustive dispatch
                raise IRError(f"unhandled opcode {op!r}")

        if next_block is None:
            raise IRError(f"block {block_name} fell through without terminator")
        prev_block = block_name
        block_name = next_block
