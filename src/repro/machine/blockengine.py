"""Turbo's per-block substrate: chains of pre-resolved op closures.

The reference interpreter pays, for every executed instruction, an
opcode if-chain plus one ``resolve()`` call per operand (a function
call, a ``type`` test, and a dict lookup).  This engine performs all of
that work **once per function**: each basic block is compiled to a flat
list of specialized closures with operands already bound — virtual
registers become integer slots in a flat register file, immediates
become closure constants, and the opcode dispatch disappears entirely.
It is the same profile-guided idea the paper applies to hot loads
(specialize the common case, keep the general path for the rest)
applied to our own hot loop.

Relationship to the engines:

* ``reference`` (``repro.machine.interpreter``) is the obviously-correct
  baseline.  These chains must match it bit-for-bit on cycles, PMU
  counters, LBR contents and PEBS sample sets — asserted across the
  whole workload registry by the differential tests.
* ``turbo`` (``repro.machine.superblock``) runs every block it does not
  fuse into a superblock through these chains, and every block where a
  superblock's entry guard declines.  Compiling them is just closure
  allocation (no ``exec``),
  so cold-start cost stays negligible for modules with many functions.

This module has no dispatch loop of its own: a
:class:`BlockCompiledFunction` only holds the chains and the
compile-form metadata, and ``TurboCompiledFunction`` runs them.  With
an empty superblock table (``fuse`` not applied) that is the plain
per-block substrate the tests and CI compare turbo against.

Cost folding: runs of constant-cost ALU instructions accumulate a
pending cycle count that is materialized at the next *observer*
(memory op, CALL, dynamic WORK, or terminator), and
per-block retired/load/store counts are folded into the terminator.
Nothing observes ``cycle`` or the counters between those points, so the
folded schedule is bit-identical to the interpreter's per-instruction
accumulation (all costs are integers).

Demand loads, stores and software prefetches call
:meth:`MemorySystem.load` / :meth:`~MemorySystem.store` /
:meth:`~MemorySystem.prefetch`, bound once per run.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.ir.nodes import Function, IRError
from repro.ir.opcodes import BINOP_EXPR, Opcode
from repro.machine.config import MachineConfig

#: Sentinels stored in ``_Frame.next`` by terminator closures.
_RETURNED = -1
_FELL_THROUGH = -2


class _Frame:
    """Mutable per-run state shared by the op closures.

    Slots keep attribute access on the hot path as cheap as Python
    allows short of code generation; everything an op can touch lives
    here so closures need only their compile-time constants plus this
    one object.
    """

    __slots__ = (
        "cycle",
        "retired",
        "loads",
        "stores",
        "taken",
        "next",
        "value",
        "next_sample",
        "max_instructions",
        "sampler",
        "take",
        "pebs_threshold",
        "record_load",
        "mem_load",
        "mem_store",
        "mem_prefetch",
        "sp_load",
        "sp_store",
        "lbr_push",
        "invoke",
        "counters",
    )


# ----------------------------------------------------------------------
# Specialized op factories.  Each returns a closure ``op(R, st)`` with
# its operands pre-bound as default arguments (LOAD_FAST, not cell
# lookups).  ``R`` is the flat register file, ``st`` the _Frame.
# ----------------------------------------------------------------------
def _build_binop_factories() -> dict:
    """Generate, once at import, the 4 operand-shape variants of every
    binary opcode from the shared ``BINOP_EXPR`` templates."""
    factories: dict = {}
    for opcode, expr in BINOP_EXPR.items():
        variants = {}
        for a_is_reg in (False, True):
            for b_is_reg in (False, True):
                body = expr.format(
                    a="R[a]" if a_is_reg else "a",
                    b="R[b]" if b_is_reg else "b",
                )
                name = f"_factory_{opcode.name}_{int(a_is_reg)}{int(b_is_reg)}"
                source = (
                    f"def {name}(dst, a, b):\n"
                    f"    def op(R, st, dst=dst, a=a, b=b):\n"
                    f"        R[dst] = {body}\n"
                    f"    return op\n"
                )
                namespace = {"min": min, "max": max}
                exec(source, namespace)  # noqa: S102 - trusted templates
                variants[(a_is_reg, b_is_reg)] = namespace[name]
        factories[opcode] = variants
    return factories


_BINOP_FACTORIES = _build_binop_factories()


def _const_op(dst: int, value: int):
    def op(R, st, dst=dst, value=value):
        R[dst] = value

    return op


def _mov_op(dst: int, aspec):
    a_is_reg, a = aspec
    if a_is_reg:

        def op(R, st, dst=dst, a=a):
            R[dst] = R[a]

    else:

        def op(R, st, dst=dst, a=a):
            R[dst] = a

    return op


def _select_op(dst: int, cspec, aspec, bspec):
    cm, cv = cspec
    am, av = aspec
    bm, bv = bspec

    def op(R, st, dst=dst, cm=cm, cv=cv, am=am, av=av, bm=bm, bv=bv):
        if R[cv] if cm else cv:
            R[dst] = R[av] if am else av
        else:
            R[dst] = R[bv] if bm else bv

    return op


def _gep_op(dst: int, basespec, indexspec, scale: int):
    bm, bv = basespec
    im, iv = indexspec
    if not im:  # constant index: fold index*scale at compile time
        offset = iv * scale
        if bm:

            def op(R, st, dst=dst, b=bv, off=offset):
                R[dst] = R[b] + off

        else:
            value = bv + offset

            def op(R, st, dst=dst, value=value):
                R[dst] = value

    elif scale == 1:
        if bm:

            def op(R, st, dst=dst, b=bv, i=iv):
                R[dst] = R[b] + R[i]

        else:

            def op(R, st, dst=dst, b=bv, i=iv):
                R[dst] = b + R[i]

    else:
        if bm:

            def op(R, st, dst=dst, b=bv, i=iv, s=scale):
                R[dst] = R[b] + R[i] * s

        else:

            def op(R, st, dst=dst, b=bv, i=iv, s=scale):
                R[dst] = b + R[i] * s

    return op


def _load_op(dst: int, aspec, pc: int, pending: int):
    a_is_reg, a = aspec
    if a_is_reg:
        if pending:

            def op(R, st, dst=dst, a=a, pc=pc, k=pending):
                st.cycle += k
                addr = R[a]
                now = st.cycle
                latency = st.mem_load(addr, now, pc)
                st.cycle = now + latency
                if latency >= st.pebs_threshold:
                    st.record_load(pc, latency)
                R[dst] = st.sp_load(addr)

        else:

            def op(R, st, dst=dst, a=a, pc=pc):
                addr = R[a]
                now = st.cycle
                latency = st.mem_load(addr, now, pc)
                st.cycle = now + latency
                if latency >= st.pebs_threshold:
                    st.record_load(pc, latency)
                R[dst] = st.sp_load(addr)

    else:

        def op(R, st, dst=dst, addr=a, pc=pc, k=pending):
            if k:
                st.cycle += k
            now = st.cycle
            latency = st.mem_load(addr, now, pc)
            st.cycle = now + latency
            if latency >= st.pebs_threshold:
                st.record_load(pc, latency)
            R[dst] = st.sp_load(addr)

    return op


def _store_op(aspec, vspec, pc: int, pending: int):
    am, av = aspec
    vm, vv = vspec

    def op(R, st, am=am, av=av, vm=vm, vv=vv, pc=pc, k=pending):
        if k:
            st.cycle += k
        addr = R[av] if am else av
        now = st.cycle
        st.cycle = now + st.mem_store(addr, now, pc)
        st.sp_store(addr, R[vv] if vm else vv)

    return op


def _prefetch_op(aspec, pc: int, pending: int):
    a_is_reg, a = aspec
    if a_is_reg:

        def op(R, st, a=a, pc=pc, k=pending):
            if k:
                st.cycle += k
            st.mem_prefetch(R[a], st.cycle, pc)

    else:

        def op(R, st, addr=a, pc=pc, k=pending):
            if k:
                st.cycle += k
            st.mem_prefetch(addr, st.cycle, pc)

    return op


def _work_op(slot: int, pending: int, work_cpi: int):
    """Dynamic WORK: amount read from a register at run time.

    Retires immediately (interpreter semantics); the constant-amount
    form is folded into pending/retired like any ALU instruction.
    """

    def op(R, st, a=slot, k=pending, cpi=work_cpi):
        if k:
            st.cycle += k
        amount = R[a]
        st.cycle += amount * cpi
        st.retired += amount

    return op


def _call_op(dst: int, callee: str, argspec: tuple, pc: int, pending: int):
    def op(R, st, dst=dst, callee=callee, argspec=argspec, pc=pc, k=pending):
        st.cycle += k
        invoke = st.invoke
        if invoke is None:
            raise IRError("CALL executed without an invoke trampoline")
        counters = st.counters
        counters.cycles = st.cycle
        R[dst] = invoke(
            callee, tuple((R[v] if m else v) for m, v in argspec), pc
        )
        st.cycle = int(counters.cycles)
        sampler = st.sampler
        if sampler is not None:
            st.next_sample = sampler.next_at

    return op


# ----------------------------------------------------------------------
# Terminators: materialize the block's folded costs, record the branch,
# perform the taken edge's PHI copies, and select the next block.
# ----------------------------------------------------------------------
def _edge_copies(pairs: list) -> Optional[Callable]:
    """Parallel-copy closure for one CFG edge; ``pairs`` is a list of
    ``(dst_slot, src_is_reg, src)``.  Returns None for phi-less edges."""
    if not pairs:
        return None
    if len(pairs) == 1:
        d, m, s = pairs[0]
        if m:

            def copy(R, d=d, s=s):
                R[d] = R[s]

        else:

            def copy(R, d=d, s=s):
                R[d] = s

        return copy
    if len(pairs) == 2:
        (d0, m0, s0), (d1, m1, s1) = pairs

        def copy(R, d0=d0, m0=m0, s0=s0, d1=d1, m1=m1, s1=s1):
            v0 = R[s0] if m0 else s0
            v1 = R[s1] if m1 else s1
            R[d0] = v0
            R[d1] = v1

        return copy
    dsts = tuple(p[0] for p in pairs)
    srcs = tuple((p[1], p[2]) for p in pairs)

    def copy(R, dsts=dsts, srcs=srcs):
        values = [R[s] if m else s for m, s in srcs]
        for d, v in zip(dsts, values):
            R[d] = v

    return copy


def _jmp_op(pc, target_pc, target_index, copies, pending, retired, nloads, nstores):
    def op(
        R,
        st,
        pc=pc,
        tpc=target_pc,
        ti=target_index,
        copies=copies,
        k=pending,
        rt=retired,
        nl=nloads,
        ns=nstores,
    ):
        st.cycle += k
        st.retired += rt
        if nl:
            st.loads += nl
        if ns:
            st.stores += ns
        st.taken += 1
        st.lbr_push((pc, tpc, st.cycle))
        if copies is not None:
            copies(R)
        st.next = ti

    return op


def _br_op(
    cspec,
    pc,
    then_pc,
    then_index,
    then_copies,
    else_index,
    else_copies,
    pending,
    retired,
    nloads,
    nstores,
):
    cm, cv = cspec

    def op(
        R,
        st,
        cm=cm,
        cv=cv,
        pc=pc,
        tpc=then_pc,
        ti=then_index,
        tc=then_copies,
        ei=else_index,
        ec=else_copies,
        k=pending,
        rt=retired,
        nl=nloads,
        ns=nstores,
    ):
        st.cycle += k
        st.retired += rt
        if nl:
            st.loads += nl
        if ns:
            st.stores += ns
        if R[cv] if cm else cv:
            st.taken += 1
            st.lbr_push((pc, tpc, st.cycle))
            if tc is not None:
                tc(R)
            st.next = ti
        else:
            if ec is not None:
                ec(R)
            st.next = ei

    return op


def _ret_op(aspec, pending, retired, nloads, nstores):
    am, av = aspec

    def op(R, st, am=am, av=av, k=pending, rt=retired, nl=nloads, ns=nstores):
        st.cycle += k
        st.retired += rt
        if nl:
            st.loads += nl
        if ns:
            st.stores += ns
        counters = st.counters
        counters.cycles = st.cycle
        counters.instructions += st.retired
        counters.loads += st.loads
        counters.stores += st.stores
        counters.taken_branches += st.taken
        st.value = R[av] if am else av
        st.next = _RETURNED

    return op


# ----------------------------------------------------------------------
# The per-function block compiler.
# ----------------------------------------------------------------------
class _BlockCompiler:
    def __init__(self, function: Function, config: MachineConfig) -> None:
        self.function = function
        self.config = config
        # Register file layout: parameters take slots 0..n-1 (so the
        # runner can fill them positionally), then every dst in program
        # order.
        self.slots: dict[str, int] = {}
        for param in function.params:
            self.slots[param] = len(self.slots)
        for instruction in function.instructions():
            if instruction.dst is not None and instruction.dst not in self.slots:
                self.slots[instruction.dst] = len(self.slots)
        self.block_index = {
            block.name: index for index, block in enumerate(function.blocks)
        }
        self.start_pc = {
            block.name: block.start_pc for block in function.blocks
        }

    # ------------------------------------------------------------------
    def spec(self, operand):
        """Operand -> (is_register, slot_or_constant)."""
        if type(operand) is int:
            return (False, operand)
        return (True, self.slots[operand])

    def edge(self, target_name: str, source_name: str) -> Optional[Callable]:
        """PHI parallel-copy closure for the edge source -> target."""
        target = self.function.block(target_name)
        pairs = []
        for phi in target.phis():
            incoming = dict(phi.incomings)
            if source_name not in incoming:
                raise IRError(
                    f"phi {phi.dst} in {target_name} lacks incoming "
                    f"from {source_name}"
                )
            is_reg, src = self.spec(incoming[source_name])
            pairs.append((self.slots[phi.dst], is_reg, src))
        return _edge_copies(pairs)

    # ------------------------------------------------------------------
    def compile_block(self, block) -> tuple:
        cfg = self.config
        alu = cfg.alu_cost
        ops: list = []
        pending = 0  # folded cycle cost awaiting the next observer
        retired = 0
        nloads = 0
        nstores = 0

        for inst in block.non_phi_instructions():
            op = inst.op
            if op in _BINOP_FACTORIES:
                (am, a), (bm, b) = self.spec(inst.args[0]), self.spec(inst.args[1])
                factory = _BINOP_FACTORIES[op][(am, bm)]
                ops.append(factory(self.slots[inst.dst], a, b))
                pending += alu
                retired += 1
            elif op is Opcode.GEP:
                base, index, scale = inst.args
                ops.append(
                    _gep_op(
                        self.slots[inst.dst],
                        self.spec(base),
                        self.spec(index),
                        scale,
                    )
                )
                pending += alu
                retired += 1
            elif op is Opcode.CONST:
                ops.append(_const_op(self.slots[inst.dst], inst.args[0]))
                pending += alu
                retired += 1
            elif op is Opcode.MOV:
                ops.append(_mov_op(self.slots[inst.dst], self.spec(inst.args[0])))
                pending += alu
                retired += 1
            elif op is Opcode.SELECT:
                ops.append(
                    _select_op(
                        self.slots[inst.dst],
                        self.spec(inst.args[0]),
                        self.spec(inst.args[1]),
                        self.spec(inst.args[2]),
                    )
                )
                pending += alu
                retired += 1
            elif op is Opcode.LOAD:
                ops.append(
                    _load_op(
                        self.slots[inst.dst],
                        self.spec(inst.args[0]),
                        inst.pc,
                        pending,
                    )
                )
                pending = 0
                retired += 1
                nloads += 1
            elif op is Opcode.STORE:
                ops.append(
                    _store_op(
                        self.spec(inst.args[0]),
                        self.spec(inst.args[1]),
                        inst.pc,
                        pending,
                    )
                )
                pending = 0
                retired += 1
                nstores += 1
            elif op is Opcode.PREFETCH:
                ops.append(
                    _prefetch_op(self.spec(inst.args[0]), inst.pc, pending)
                )
                pending = cfg.prefetch_cost
                retired += 1
            elif op is Opcode.WORK:
                amount = inst.args[0]
                if type(amount) is int:
                    pending += amount * cfg.work_cpi
                    retired += amount
                else:
                    ops.append(
                        _work_op(self.slots[amount], pending, cfg.work_cpi)
                    )
                    pending = 0
            elif op is Opcode.CALL:
                pending += cfg.branch_cost
                retired += 1
                argspec = tuple(self.spec(a) for a in inst.args)
                ops.append(
                    _call_op(
                        self.slots[inst.dst],
                        inst.targets[0],
                        argspec,
                        inst.pc,
                        pending,
                    )
                )
                pending = 0
            elif op is Opcode.JMP:
                pending += cfg.branch_cost
                retired += 1
                target = inst.targets[0]
                ops.append(
                    _jmp_op(
                        inst.pc,
                        self.start_pc[target],
                        self.block_index[target],
                        self.edge(target, block.name),
                        pending,
                        retired,
                        nloads,
                        nstores,
                    )
                )
                pending = retired = nloads = nstores = 0
            elif op is Opcode.BR:
                pending += cfg.branch_cost
                retired += 1
                then_target, else_target = inst.targets
                ops.append(
                    _br_op(
                        self.spec(inst.args[0]),
                        inst.pc,
                        self.start_pc[then_target],
                        self.block_index[then_target],
                        self.edge(then_target, block.name),
                        self.block_index[else_target],
                        self.edge(else_target, block.name),
                        pending,
                        retired,
                        nloads,
                        nstores,
                    )
                )
                pending = retired = nloads = nstores = 0
            elif op is Opcode.RET:
                pending += cfg.branch_cost
                retired += 1
                aspec = self.spec(inst.args[0]) if inst.args else (False, 0)
                ops.append(_ret_op(aspec, pending, retired, nloads, nstores))
                pending = retired = nloads = nstores = 0
            else:  # pragma: no cover - exhaustive dispatch
                raise IRError(f"unhandled opcode {op!r}")
        return tuple(ops)


class BlockCompiledFunction:
    """An IR function compiled to per-block closure chains (run by
    :class:`repro.machine.superblock.TurboCompiledFunction`)."""

    def __init__(
        self,
        function: Function,
        blocks: tuple,
        block_names: tuple,
        entry_index: int,
        register_count: int,
        slots: Optional[dict] = None,
        block_index: Optional[dict] = None,
        block_start_pc: Optional[dict] = None,
    ) -> None:
        self.function = function
        self._blocks = blocks
        self._block_names = block_names
        self._entry = entry_index
        self._register_count = register_count
        # Compile-form metadata consumed by the turbo tier
        # (repro.machine.superblock): the register-file layout and the
        # block-name -> dispatch-index / start-pc maps.
        self.slots = slots if slots is not None else {}
        self.block_index = (
            block_index
            if block_index is not None
            else {name: i for i, name in enumerate(block_names)}
        )
        self.block_start_pc = block_start_pc if block_start_pc is not None else {}

    def stats(self) -> dict:
        """Compile-shape summary (for tests and debugging)."""
        return {
            "blocks": len(self._blocks),
            "ops": sum(len(ops) for ops in self._blocks),
            "registers": self._register_count,
        }


def compile_blocks(
    function: Function, config: Optional[MachineConfig] = None
) -> BlockCompiledFunction:
    """Compile one finalized IR function into closure-chain form."""
    for block in function.blocks:
        if block.instructions and block.instructions[0].pc < 0:
            raise IRError(
                f"{function.name}: module must be finalized before "
                f"block compilation"
            )
    compiler = _BlockCompiler(function, config or MachineConfig())
    blocks = tuple(
        compiler.compile_block(block) for block in function.blocks
    )
    return BlockCompiledFunction(
        function,
        blocks,
        tuple(block.name for block in function.blocks),
        compiler.block_index[function.entry.name],
        len(compiler.slots),
        slots=compiler.slots,
        block_index=compiler.block_index,
        block_start_pc=compiler.start_pc,
    )
