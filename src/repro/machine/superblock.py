"""Turbo engine tier: fused hot-loop superblocks + steady-state bulk
stepping on top of the block engine.

The per-block closure chains (repro.machine.blockengine) pay, per loop
iteration, one closure call per op plus a dispatch-loop round trip per
basic block.  For the loop-dominated workloads the paper targets that
dispatch overhead *is* the simulator's hot path.  This tier removes it
in two steps:

**Superblock fusion.**  At compile time every *linear single-latch*
natural loop — header -> ... -> latch where each body node has exactly
one in-loop successor (the other successor, if any, is a side exit) —
is compiled to one generated-Python function that runs whole
iterations straight-line: virtual registers live in Python locals, PHI
edge-copies (internal, back-edge, and exit-edge) are hoisted into fixed
register-slot assignments, and per-iteration retired/load/store/taken
counts are folded into compile-time constants applied once per back
edge.  Fusion works innermost-first over whole loop *nests*: a loop
whose linear path runs through an already-fused inner loop with a
single exit target absorbs that loop as a nested ``while`` in the same
generated function, so a 60k-trip outer loop around an 8-trip inner
loop costs one Python call, not 60k.  Loops containing CALL or dynamic
(register-amount) WORK are left to the per-block path (their
per-iteration cost is unbounded and CALL is an observation point).

**Steady-state bulk stepping.**  A fused iteration still has to honour
every *observation point* the reference interpreter honours: the
per-block-boundary PEBS/LBR sample check (``cycle >= next_sample``),
the instruction-budget check, and side exits.  Instead of
checking per block, the generated stepper computes the distance to the
next observation point and guards once per back edge::

    bound_cycles  = sum over every unit in the nest of
                    folded_const_cycles + n_loads * mem_lat + n_stores
    bound_retired = sum over every unit of folded retired count

``mem_lat`` (= LLC latency + DRAM latency) is a provable upper bound on
any demand-load latency (a coalesced MSHR wait is at most the residual
of a just-issued fill) and stores always retire in 1 cycle, so
``bound_cycles`` bounds the cycles between any two consecutive guard
evaluations (each guard-to-guard path runs at most one iteration of
each loop in the nest plus the straight-line segments between them).
While ``cycle + bound_cycles < next_sample`` and
``retired + bound_retired <= max_instructions`` hold at a guard, no
block boundary before the next guard can cross the sample cycle or the
instruction budget — the checks the reference engine would have run
are all provably no-ops, and skipping them is bit-identical.  When a
guard trips (a sample is imminent), the stepper flushes the folded
counters and returns at an exact block-header boundary; the entry
guard returns the ``-1`` no-progress sentinel instead, and the same
dispatch loop runs the header's closure chain exactly as it runs a
block whose superblock slot is empty, so the sample fires at exactly
the block boundary the reference engine fires it at.  (With every slot
empty, that loop *is* the per-block substrate: there is one dispatch
loop, ``TurboCompiledFunction._dispatch``, and the batched tier runs it
too.)  Inner loops keep
their own standalone superblocks registered at their headers, so a run
resumed mid-nest after a sample re-enters bulk stepping at the inner
loop.

Side exits write the locals back to the register file, apply the
partial (path-prefix) counter constants for the interrupted iteration,
perform the exit edge's PHI copies, and return control to the ordinary
block dispatcher — so a probe chain that exits after 3 iterations is
still bit-exact.  Inner-loop exits inside a nest are compiled to
``break``: the partial-iteration constants fold into the running
accumulators and control falls through to the outer loop's next block
without leaving the generated function.

Two code variants are generated per superblock: a *profiled* one
(LBR pushes per taken branch, PEBS latency checks per load, and the
trace's first-use hook in the inlined L1-hit arms) used when a sampler
or lifecycle tracing is armed, and a *plain* one that omits all three —
with both off the LBR is a NullLBR, the PEBS threshold is NEVER and
``mem.trace`` is None, so the calls are semantic no-ops the plain
variant simply does not pay for.  A traced run therefore bulk-steps
like any other: its taken branches reach the trace's branch ring
through the ``lbr_push`` calls (``ctx.lbr`` is a ``BranchTap``), every
other lifecycle event fires inside ``mem.load``/``store``/``prefetch``
on the L1-miss path, and the L1-hit arm reports the consumption of a
prefetched line exactly where ``MemorySystem._use`` would.
"""

from __future__ import annotations

import itertools
import re
from typing import Optional, Sequence

from repro.ir.nodes import Function, IRError
from repro.ir.opcodes import BINOP_EXPR, Opcode
from repro.machine.blockengine import (
    _FELL_THROUGH,
    _RETURNED,
    BlockCompiledFunction,
    _Frame,
    compile_blocks,
)
from repro.machine.config import MachineConfig
from repro.machine.context import ExecutionContext
from repro.machine.fusion import (
    FusionUnit as _Unit,
    GuardedUnit as _Guarded,
    NestShape,
    discover_units,
    flatten_unit as _flatten,
    functional_lines,
    phi_copy_lines,
    unit_depth as _depth,
)
from repro.machine.interpreter import ExecutionLimitExceeded
from repro.machine.sampler import NEVER

_counter = itertools.count()

#: Adaptive bulk-stepping bypass: after this many bulk calls to one
#: superblock, a run whose average completed iterations per call is
#: below _ADAPT_MIN_ITERS stops bulk-stepping that loop (the per-call
#: prologue outweighs the fusion win on 1-2-trip loops).
_ADAPT_WARMUP = 64
_ADAPT_MIN_ITERS = 2

# Nest discovery, fusability and the static nest shape live in
# repro.machine.fusion, shared with the batched superblock tier
# (repro.machine.batchturbo) so the two compilers can never disagree
# about what is fusable or what a fused iteration costs.  The two
# tiers also share everything that runs a codegen's output: the
# Superblock record, build_superblock's compile step and
# TurboCompiledFunction._dispatch, the one dispatch loop; only the
# codegens below and the batched codegen differ.

# ----------------------------------------------------------------------
# Codegen
# ----------------------------------------------------------------------
class _SuperblockCodegen:
    """Generates the fused-nest function for one unit.

    The generated function has the signature ``(R, st, mem)``: run fused
    iterations against register file ``R`` and frame ``st`` until an
    observation-point guard trips or a side exit is taken, and return
    the dispatch index of the block to resume at — or ``-1`` without
    touching any state when the entry guard finds an observation point
    too close to run even one worst-case iteration (the dispatch loop
    then takes the per-block path).
    """

    def __init__(
        self,
        function: Function,
        config: MachineConfig,
        base: BlockCompiledFunction,
        unit: _Unit,
    ) -> None:
        self.function = function
        self.config = config
        self.slots = base.slots
        self.block_index = base.block_index
        self.start_pc = base.block_start_pc
        self.unit = unit
        self.l1_lat = int(config.memory.l1.latency)
        self.l1_mask = config.memory.l1.sets - 1
        self.pebs_threshold = config.effective_pebs_threshold()
        self.mem_lat = int(
            config.memory.llc.latency + config.memory.dram_latency
        )
        shape = self.shape = NestShape(function, config, unit)
        # Worst-case cycles / retired between two consecutive guard
        # evaluations (see the module docstring).
        self.bound_cycles = shape.bound_cycles(self.mem_lat)
        self.bound_retired = shape.bound_retired
        touched = shape.read | shape.written
        self.preload = sorted(self.slots[r] for r in touched)
        self.writeback = sorted(self.slots[r] for r in shape.written)
        # Emission state (reset per generate()).
        self.lines: list = []
        self.indent = 0
        self._site = 0

    # -- emission helpers ---------------------------------------------
    def emit(self, text: str) -> None:
        self.lines.append("    " * self.indent + text)

    def _emit_l1_probe(self) -> None:
        """Inline the L1 probe (pop from the memory system's set list;
        a hit leaves ``_f``/``_set``/``_line`` for the hit arm)."""
        self.emit("_line = _a >> 6")
        self.emit(f"_set = L1S[_line & {self.l1_mask}]")
        self.emit("_f = _set.pop(_line, None)")

    def _emit_l1_use(self, profiled: bool) -> None:
        """The L1-hit arm's first demand touch of a prefetched line
        (``MemorySystem._use``): pop the unused table and count the
        useful prefetch; the profiled variant also reports a software
        prefetch's first use to an armed trace."""
        self.emit("    if UN:")
        self.emit("        _sw = UN.pop(_line, None)")
        self.emit("        if _sw is not None:")
        self.emit("            if _sw:")
        self.emit("                C.sw_prefetch_useful += 1")
        if profiled:
            self.emit("                if TR is not None:")
            self.emit("                    TR.on_use(_line, cycle, False)")
        self.emit("            else:")
        self.emit("                C.hw_prefetch_useful += 1")

    def _emit_functional(
        self, assign: str, fallback: str, store_value
    ) -> None:
        for line in functional_lines(
            self._site, assign, fallback, store_value
        ):
            self.emit(line)
        self._site += 1

    def operand(self, value) -> str:
        if type(value) is int:
            return repr(value)
        return f"r{self.slots[value]}"

    def _edge_copy_lines(self, src: str, tgt: str) -> list:
        """PHI parallel copies for an in-nest edge, locals -> locals."""
        values = []
        for phi in self.function.block(tgt).phis():
            incoming = dict(phi.incomings)
            if src not in incoming:
                raise IRError(
                    f"phi {phi.dst} in {tgt} lacks incoming from {src}"
                )
            values.append(
                (f"r{self.slots[phi.dst]}", self.operand(incoming[src]))
            )
        return phi_copy_lines(values)

    def _emit_flush(self, extra: tuple) -> None:
        """Write the folded counters and locals back to the frame and
        register file: the running accumulators plus ``extra`` constant
        counts from interrupted (prefix) iterations."""
        ert, eld, esr, etk = extra
        self.emit("st.cycle = cycle")
        self.emit(f"st.retired += _rt + {ert}" if ert else "st.retired += _rt")
        if self.shape.has_ld:
            self.emit(
                f"st.loads += _ld + {eld}" if eld else "st.loads += _ld"
            )
        if self.shape.has_sr:
            self.emit(
                f"st.stores += _sr + {esr}" if esr else "st.stores += _sr"
            )
        if self.shape.has_tk:
            self.emit(
                f"st.taken += _tk + {etk}" if etk else "st.taken += _tk"
            )
        for slot in self.writeback:
            self.emit(f"R[{slot}] = r{slot}")

    def _emit_unit_exit(
        self,
        src: str,
        exit_name: str,
        prefix: list,
        taken: bool,
        unit: _Unit,
        carried: tuple,
    ) -> None:
        """A side exit from ``unit``.  For the outermost unit: flush
        everything (accumulators + carried enclosing prefixes + this
        iteration's prefix), run the exit edge's PHI copies straight
        into R, and return the exit block's dispatch index.  For a
        nested unit: fold the partial iteration into the accumulators,
        run the break edge's PHI copies (the continuation is fused
        too, so its PHIs are locals), and ``break`` to the enclosing
        loop's next block."""
        tk_extra = prefix[3] + (1 if taken else 0)
        if unit is self.unit:
            self._emit_flush(
                (
                    carried[0] + prefix[0],
                    carried[1] + prefix[1],
                    carried[2] + prefix[2],
                    carried[3] + tk_extra,
                )
            )
            # Exit copies come last: they are the final writes the edge
            # performs, and their sources are locals, so ordering is
            # safe.
            for phi in self.function.block(exit_name).phis():
                incoming = dict(phi.incomings)
                if src not in incoming:
                    raise IRError(
                        f"phi {phi.dst} in {exit_name} lacks incoming "
                        f"from {src}"
                    )
                self.emit(
                    f"R[{self.slots[phi.dst]}] = "
                    f"{self.operand(incoming[src])}"
                )
            self.emit(f"return {self.block_index[exit_name]}")
        else:
            self.emit(f"_rt += {prefix[0]}")
            if prefix[1]:
                self.emit(f"_ld += {prefix[1]}")
            if prefix[2]:
                self.emit(f"_sr += {prefix[2]}")
            if tk_extra:
                self.emit(f"_tk += {tk_extra}")
            for line in self._edge_copy_lines(src, exit_name):
                self.emit(line)
            self.emit("break")

    # -- main ----------------------------------------------------------
    #: Prologue binds, in emission order; only the ones the generated
    #: body actually references are emitted (a bulk call for a
    #: short-trip loop is dominated by its prologue, so every dead bind
    #: costs real time — see the adaptive bypass in
    #: TurboCompiledFunction).
    _BINDS = (
        ("mem_load", "st.mem_load"),
        ("mem_store", "st.mem_store"),
        ("mem_prefetch", "st.mem_prefetch"),
        ("sp_load", "st.sp_load"),
        ("sp_store", "st.sp_store"),
        # Inlined L1-hit arm (MemorySystem's set lists, counters and
        # unused table) and the per-callsite functional segment caches.
        ("L1S", "mem._l1_sets"),
        ("C", "mem.counters"),
        ("UN", "mem._unused"),
        ("TR", "mem.trace"),
        ("sp_find", "mem.space._find"),
        ("lbr_push", "st.lbr_push"),
        ("record_load", "st.record_load"),
        ("pebs_threshold", "st.pebs_threshold"),
    )

    def generate(self, profiled: bool) -> str:
        # The body is generated first so the prologue can bind lazily:
        # only names the body references get a bind line.
        self.lines = []
        self.indent = 1
        self._site = 0

        # Guard limits, hoisted: ``cycle + B >= next_sample`` becomes
        # ``cycle >= _gc`` and ``ret0 + _rt + K > max_instructions``
        # becomes ``_rt + K > _gm`` — same integer arithmetic, but the
        # per-iteration guards lose two additions.  Both bounds are
        # run-constant while the superblock holds the core (a sample
        # can only fire in per-block dispatch, after the guard bails).
        self.emit("cycle = st.cycle")
        self.emit(f"_gc = st.next_sample - {self.bound_cycles}")
        self.emit("_gm = st.max_instructions - st.retired")
        self.emit(f"if cycle >= _gc or {self.bound_retired} > _gm:")
        self.emit("    return -1")
        for slot in self.preload:
            self.emit(f"r{slot} = R[{slot}]")
        self.emit("_rt = 0")
        if self.shape.has_ld:
            self.emit("_ld = 0")
        if self.shape.has_sr:
            self.emit("_sr = 0")
        if self.shape.has_tk:
            self.emit("_tk = 0")
        self._emit_unit(self.unit, (0, 0, 0, 0), profiled)

        body = self.lines
        used = set(
            re.findall(
                r"\b(?:mem_load|mem_store|mem_prefetch|sp_load|sp_store"
                r"|L1S|C|UN|TR|sp_find|lbr_push|record_load|pebs_threshold)\b",
                "\n".join(body),
            )
        )
        header = ["def __superblock(R, st, mem):"]
        for name, expr in self._BINDS:
            if name in used:
                header.append(f"    {name} = {expr}")
        for site in range(self.shape.memory_sites):
            header.append(f"    _s{site} = None")
        return "\n".join(header + body)

    def _emit_unit(
        self, unit: _Unit, carried: tuple, profiled: bool
    ) -> None:
        """One (possibly nested) fused loop.  ``carried`` is the
        constant (rt, loads, stores, taken) prefix of every enclosing,
        not-yet-completed iteration — enclosing loops only accumulate
        at their own back edges, so a flush from inside must add the
        work their current iterations have already done."""
        self.emit("while True:")
        self.indent += 1
        prefix = [0, 0, 0, 0]  # running rt / loads / stores / taken
        path = unit.path
        for i, node in enumerate(path):
            if isinstance(node, _Guarded):
                continue  # emitted inside its guard block's BR arm
            if isinstance(node, _Unit):
                inner_carried = (
                    carried[0] + prefix[0],
                    carried[1] + prefix[1],
                    carried[2] + prefix[2],
                    carried[3] + prefix[3],
                )
                self._emit_unit(node, inner_carried, profiled)
            else:
                nxt = path[i + 1] if i + 1 < len(path) else None
                self._emit_block(
                    node,
                    prefix,
                    profiled,
                    unit,
                    carried,
                    nxt if isinstance(nxt, _Guarded) else None,
                )
        # The back edge: fold one completed iteration into the
        # accumulators, then guard the distance to the next
        # observation point (the mutant needle for repro.qa targets
        # this accumulation line — keep it on one line).
        rt, nloads, nstores, tk, _ = self.shape.unit_totals(unit)
        self.emit(f"_rt += {rt}")
        if nloads:
            self.emit(f"_ld += {nloads}")
        if nstores:
            self.emit(f"_sr += {nstores}")
        if tk:
            self.emit(f"_tk += {tk}")
        self.emit(
            f"if cycle >= _gc "
            f"or _rt + {self.bound_retired + carried[0]} > _gm:"
        )
        self.indent += 1
        self._emit_flush(carried)
        self.emit(f"return {self.block_index[unit.header]}")
        self.indent -= 1
        self.indent -= 1

    def _emit_block(
        self,
        name: str,
        prefix: list,
        profiled: bool,
        unit: _Unit,
        carried: tuple,
        guarded: Optional[_Guarded] = None,
    ) -> None:
        cfg = self.config
        block = self.function.block(name)
        cont = unit.cont[name]
        pending = 0

        def flush() -> None:
            nonlocal pending
            if pending:
                self.emit(f"cycle += {pending}")
                pending = 0

        for inst in block.non_phi_instructions():
            op = inst.op
            if op in BINOP_EXPR:
                expr = BINOP_EXPR[op].format(
                    a=self.operand(inst.args[0]),
                    b=self.operand(inst.args[1]),
                )
                self.emit(f"r{self.slots[inst.dst]} = {expr}")
                pending += cfg.alu_cost
                prefix[0] += 1
            elif op is Opcode.GEP:
                base, index, scale = inst.args
                if type(index) is int:
                    expr = f"{self.operand(base)} + {index * scale}"
                elif scale == 1:
                    expr = f"{self.operand(base)} + {self.operand(index)}"
                else:
                    expr = (
                        f"{self.operand(base)} + {self.operand(index)}*{scale}"
                    )
                self.emit(f"r{self.slots[inst.dst]} = {expr}")
                pending += cfg.alu_cost
                prefix[0] += 1
            elif op is Opcode.CONST:
                self.emit(f"r{self.slots[inst.dst]} = {inst.args[0]!r}")
                pending += cfg.alu_cost
                prefix[0] += 1
            elif op is Opcode.MOV:
                self.emit(
                    f"r{self.slots[inst.dst]} = {self.operand(inst.args[0])}"
                )
                pending += cfg.alu_cost
                prefix[0] += 1
            elif op is Opcode.SELECT:
                cond, a, b = (self.operand(v) for v in inst.args)
                self.emit(
                    f"r{self.slots[inst.dst]} = "
                    f"({a}) if ({cond}) else ({b})"
                )
                pending += cfg.alu_cost
                prefix[0] += 1
            elif op is Opcode.LOAD:
                flush()
                self.emit(f"_a = {self.operand(inst.args[0])}")
                self._emit_l1_probe()
                self.emit("if _f is None:")
                self.emit(f"    _l = mem_load(_a, cycle, {inst.pc})")
                if profiled:
                    self.emit("    if _l >= pebs_threshold:")
                    self.emit(f"        record_load({inst.pc}, _l)")
                self.emit("else:")
                self.emit("    _set[_line] = _f")
                self.emit("    C.l1_hits += 1")
                self._emit_l1_use(profiled)
                self.emit(f"    _l = {self.l1_lat}")
                if profiled and self.l1_lat >= self.pebs_threshold:
                    self.emit(f"    record_load({inst.pc}, {self.l1_lat})")
                self.emit("cycle += _l")
                self._emit_functional(
                    f"r{self.slots[inst.dst]} = ", "sp_load(_a)", None
                )
                prefix[0] += 1
                prefix[1] += 1
            elif op is Opcode.STORE:
                flush()
                self.emit(f"_a = {self.operand(inst.args[0])}")
                self._emit_l1_probe()
                self.emit("if _f is None:")
                self.emit(f"    cycle += mem_store(_a, cycle, {inst.pc})")
                self.emit("else:")
                self.emit("    _set[_line] = _f")
                self._emit_l1_use(profiled)
                self.emit("    cycle += 1")
                value = self.operand(inst.args[1])
                self._emit_functional("", f"sp_store(_a, {value})", value)
                prefix[0] += 1
                prefix[2] += 1
            elif op is Opcode.PREFETCH:
                flush()
                self.emit(
                    f"mem_prefetch({self.operand(inst.args[0])}, "
                    f"cycle, {inst.pc})"
                )
                pending += cfg.prefetch_cost
                prefix[0] += 1
            elif op is Opcode.WORK:
                amount = inst.args[0]
                pending += amount * cfg.work_cpi
                prefix[0] += amount
            elif op is Opcode.JMP:
                pending += cfg.branch_cost
                prefix[0] += 1
                flush()
                target = inst.targets[0]
                if profiled:
                    self.emit(
                        f"lbr_push(({inst.pc}, "
                        f"{self.start_pc[target]}, cycle))"
                    )
                prefix[3] += 1
                for line in self._edge_copy_lines(name, target):
                    self.emit(line)
                # Back edge (target == unit header): iteration ends at
                # the enclosing while's bottom (accumulate + guard).
                # Internal edge: fall straight into the next node.
            elif op is Opcode.BR:
                pending += cfg.branch_cost
                prefix[0] += 1
                flush()
                then_target, else_target = inst.targets
                cond = self.operand(inst.args[0])
                if guarded is not None:
                    # Guarded inner unit: one arm runs the whole fused
                    # inner loop, the other skips it; both rejoin at
                    # ``guarded.skip`` (the next path node).  The
                    # static taken count follows _scan_totals (counted
                    # iff the skip arm is the taken arm), with the
                    # other arm correcting _tk dynamically.
                    enter = guarded.unit.header
                    skip = guarded.skip
                    if not guarded.enter_on_true:
                        prefix[3] += 1
                    arm = "if {}:" if guarded.enter_on_true else (
                        "if not ({}):"
                    )
                    self.emit(arm.format(cond))
                    self.indent += 1
                    if guarded.enter_on_true:
                        if profiled:
                            self.emit(
                                f"lbr_push(({inst.pc}, "
                                f"{self.start_pc[enter]}, cycle))"
                            )
                        self.emit("_tk += 1")
                    else:
                        self.emit("_tk -= 1")
                    for line in self._edge_copy_lines(name, enter):
                        self.emit(line)
                    inner_carried = (
                        carried[0] + prefix[0],
                        carried[1] + prefix[1],
                        carried[2] + prefix[2],
                        carried[3] + prefix[3],
                    )
                    self._emit_unit(guarded.unit, inner_carried, profiled)
                    self.indent -= 1
                    self.emit("else:")
                    self.indent += 1
                    if not guarded.enter_on_true and profiled:
                        self.emit(
                            f"lbr_push(({inst.pc}, "
                            f"{self.start_pc[skip]}, cycle))"
                        )
                    skip_copies = self._edge_copy_lines(name, skip)
                    for line in skip_copies:
                        self.emit(line)
                    if not skip_copies and not (
                        not guarded.enter_on_true and profiled
                    ):
                        self.emit("pass")
                    self.indent -= 1
                    continue
                if then_target == cont:
                    # Exit is the untaken (else) arm.
                    self.emit(f"if not ({cond}):")
                    self.indent += 1
                    self._emit_unit_exit(
                        name, else_target, prefix, False, unit, carried
                    )
                    self.indent -= 1
                    if profiled:
                        self.emit(
                            f"lbr_push(({inst.pc}, "
                            f"{self.start_pc[then_target]}, cycle))"
                        )
                    prefix[3] += 1
                    continuation = then_target
                else:
                    # Exit is the taken (then) arm.
                    self.emit(f"if {cond}:")
                    self.indent += 1
                    if profiled:
                        self.emit(
                            f"lbr_push(({inst.pc}, "
                            f"{self.start_pc[then_target]}, cycle))"
                        )
                    self._emit_unit_exit(
                        name, then_target, prefix, True, unit, carried
                    )
                    self.indent -= 1
                    continuation = else_target
                for line in self._edge_copy_lines(name, continuation):
                    self.emit(line)
            else:  # pragma: no cover - guarded by _block_is_fusable
                raise IRError(f"unhandled opcode {op!r} in superblock")


# ----------------------------------------------------------------------
# Superblock container + the compiled function both fused tiers run
# ----------------------------------------------------------------------
class Superblock:
    """One fused loop nest: its generated steppers plus the compile-time
    constants the dispatch loop needs.  A batched nest
    (:mod:`repro.machine.batchturbo`) has a plain stepper only
    (``run_profiled``/``source_profiled`` are ``None``: batched runs
    never sample or trace) and keeps its per-cell constant tables in
    ``ptables``, already bound as the stepper's ``PT`` default."""

    __slots__ = (
        "header",
        "header_index",
        "path",
        "depth",
        "run_plain",
        "run_profiled",
        "source_plain",
        "source_profiled",
        "bound_cycles",
        "bound_retired",
        "ptables",
    )

    def __init__(
        self,
        header: str,
        header_index: int,
        path: tuple,
        depth: int,
        run_plain,
        run_profiled,
        source_plain: str,
        source_profiled: Optional[str],
        bound_cycles: int,
        bound_retired: int,
        ptables: tuple = (),
    ) -> None:
        self.header = header
        self.header_index = header_index
        self.path = path  # flattened block names, execution order
        self.depth = depth  # nesting depth (1 = a plain linear loop)
        self.run_plain = run_plain
        self.run_profiled = run_profiled
        self.source_plain = source_plain
        self.source_profiled = source_profiled
        self.bound_cycles = bound_cycles
        self.bound_retired = bound_retired
        self.ptables = ptables


def exec_stepper(code, entry: str, ptables: Optional[tuple] = None):
    """Exec one generated stepper module and return its ``entry``
    function.  A batched stepper takes its per-cell constant tables as
    a last parameter ``PT``; ``ptables`` is bound here as that
    parameter's default, so every stepper is called ``run(R, st, env)``
    (``env`` is the memory system or the batch's cell bindings)."""
    namespace: dict = {}
    exec(code, namespace)  # noqa: S102 - our own generated code
    run = namespace.get(entry)
    if not callable(run):
        raise IRError(f"generated module defines no {entry}()")
    if ptables is not None:
        run.__defaults__ = (ptables,)
    return run


def build_superblock(
    base: BlockCompiledFunction,
    unit: _Unit,
    codegen,
    sources: dict,
    entry: str,
    ptables: Optional[tuple] = None,
) -> Superblock:
    """Compile either tier's generated ``sources`` for ``unit`` of
    ``base`` (``{"plain": ...}``, plus ``"profiled"`` for turbo) into
    the nest's :class:`Superblock`."""
    runs = {
        variant: exec_stepper(
            compile(
                source,
                f"<superblock:{base.function.name}:{unit.header}:"
                f"{variant}:{next(_counter)}>",
                "exec",
            ),
            entry,
            ptables,
        )
        for variant, source in sources.items()
    }
    return Superblock(
        header=unit.header,
        header_index=base.block_index[unit.header],
        path=tuple(_flatten(unit)),
        depth=_depth(unit),
        run_plain=runs["plain"],
        run_profiled=runs.get("profiled"),
        source_plain=sources["plain"],
        source_profiled=sources.get("profiled"),
        bound_cycles=codegen.bound_cycles,
        bound_retired=codegen.bound_retired,
        ptables=ptables or (),
    )


def _build_superblock(
    function: Function,
    config: MachineConfig,
    base: BlockCompiledFunction,
    unit: _Unit,
) -> Superblock:
    codegen = _SuperblockCodegen(function, config, base, unit)
    return build_superblock(
        base,
        unit,
        codegen,
        {"plain": codegen.generate(False), "profiled": codegen.generate(True)},
        "__superblock",
    )


class TurboCompiledFunction(BlockCompiledFunction):
    """Per-block chains plus superblock steppers.

    Blocks that are not fused headers dispatch through their closure
    chains; a fused header hands control to the generated stepper,
    which runs iterations in bulk until an observation-point guard
    trips — or declines outright (``-1``: sample imminent) so the
    block's chain, run as for an empty slot, can honour the observation
    at the exact reference boundary.  A run with a sampler or a trace
    armed takes the profiled steppers.  With every slot ``None`` this
    is the plain per-block substrate (``compile_blocks`` output with
    nothing fused).  The batched tier
    (:class:`repro.machine.batchturbo.BatchTurboCompiledFunction`)
    subclasses this and differs only in the frame its ``__call__``
    builds: :meth:`_dispatch` is the one dispatch loop of both tiers.
    """

    def __init__(
        self, base: BlockCompiledFunction, superblocks: tuple
    ) -> None:
        super().__init__(
            base.function,
            base._blocks,
            base._block_names,
            base._entry,
            base._register_count,
            slots=base.slots,
            block_index=base.block_index,
            block_start_pc=base.block_start_pc,
        )
        # Per-block-index, None where no loop header is fused.
        self._superblocks = superblocks
        # Cumulative run-profiling tallies (telemetry's engine.run span
        # reads these; they live on the compiled function, never in the
        # PMU counters, so traced==untraced bit-identity is untouched).
        self.bulk_calls = 0
        self.bulk_iters = 0
        self.guard_declines = 0
        self.adaptive_cleared = 0

    def superblocks(self) -> list:
        """The fused loops (debug/test aid)."""
        return [sb for sb in self._superblocks if sb is not None]

    def stats(self) -> dict:
        stats = super().stats()
        fused = self.superblocks()
        stats["superblocks"] = len(fused)
        stats["fused_blocks"] = sum(len(sb.path) for sb in fused)
        stats["max_fusion_depth"] = max(
            (sb.depth for sb in fused), default=0
        )
        stats["bulk_calls"] = self.bulk_calls
        stats["bulk_iters"] = self.bulk_iters
        stats["guard_declines"] = self.guard_declines
        stats["adaptive_cleared"] = self.adaptive_cleared
        return stats

    def __call__(self, ctx: ExecutionContext, args: Sequence[int] = ()) -> int:
        config = ctx.config
        counters = ctx.counters
        mem = ctx.mem
        space = ctx.space
        sampler = ctx.sampler

        st = _Frame()
        st.counters = counters
        st.mem_load = mem.load
        st.mem_store = mem.store
        st.mem_prefetch = mem.prefetch
        st.sp_load = space.load
        st.sp_store = space.store
        st.lbr_push = ctx.lbr.push
        st.invoke = ctx.invoke
        st.sampler = sampler
        if sampler is not None:
            st.next_sample = sampler.next_at
            st.take = sampler.take
            st.pebs_threshold = config.effective_pebs_threshold()
            st.record_load = sampler.record_load
        else:
            st.next_sample = NEVER
            st.take = None
            st.pebs_threshold = NEVER
            # A traced run takes the profiled steppers with no sampler:
            # their static L1-hit record (threshold <= L1 latency at
            # compile time) must record nothing.
            st.record_load = _record_nothing
        st.max_instructions = config.max_instructions
        st.cycle = int(counters.cycles)
        st.retired = 0
        st.loads = 0
        st.stores = 0
        st.taken = 0
        st.value = 0
        return self._dispatch(
            st, args, mem, sampler is not None or mem.trace is not None
        )

    def _dispatch(self, st, args: Sequence[int], env, profiled: bool):
        """Run the function from its entry block on frame ``st``: the
        dispatch loop of both fused tiers.  ``env`` is the steppers'
        third argument (the memory system, or the batch's cell
        bindings); ``profiled`` picks the profiled steppers."""
        function = self.function
        if len(args) != len(function.params):
            raise IRError(
                f"{function.name} expects {len(function.params)} args, "
                f"got {len(args)}"
            )
        R = [0] * self._register_count
        for slot, value in enumerate(args):  # params occupy slots 0..n-1
            R[slot] = int(value)

        max_instructions = st.max_instructions
        blocks = self._blocks
        # The list is a per-run copy: a fused loop whose *dynamic* trip
        # counts turn out tiny (a hash-probe chain averaging 1-2
        # iterations) pays more in per-bulk-call prologue than fusion
        # saves, so after a warmup its slot is cleared and dispatch
        # falls back to the per-block path — bit-identical either way,
        # purely a time/space trade.
        superblocks = list(self._superblocks)
        sb_calls = [0] * len(superblocks)
        sb_iters = [0] * len(superblocks)
        declined = 0
        bi = self._entry
        try:
            while True:
                if st.cycle >= st.next_sample:
                    st.next_sample = st.take(st.cycle)
                if st.retired > max_instructions:
                    raise ExecutionLimitExceeded(
                        f"{function.name}: exceeded {max_instructions} instructions"
                    )
                sb = superblocks[bi]
                if sb is not None:
                    run = sb.run_profiled if profiled else sb.run_plain
                    before = st.retired
                    nxt = run(R, st, env)
                    if nxt >= 0:
                        calls = sb_calls[bi] + 1
                        sb_calls[bi] = calls
                        sb_iters[bi] += (
                            st.retired - before
                        ) // sb.bound_retired
                        if calls == _ADAPT_WARMUP and (
                            sb_iters[bi] < calls * _ADAPT_MIN_ITERS
                        ):
                            superblocks[bi] = None
                        bi = nxt
                        continue
                    declined += 1
                st.next = _FELL_THROUGH
                for op in blocks[bi]:
                    op(R, st)
                nxt = st.next
                if nxt < 0:
                    if nxt == _RETURNED:
                        return st.value
                    raise IRError(
                        f"block {self._block_names[bi]} fell through "
                        f"without terminator"
                    )
                bi = nxt
        finally:
            self.bulk_calls += sum(sb_calls)
            self.bulk_iters += sum(sb_iters)
            self.guard_declines += declined
            self.adaptive_cleared += sum(
                1
                for original, current in zip(self._superblocks, superblocks)
                if original is not None and current is None
            )


def _record_nothing(pc: int, latency: int) -> None:
    pass


def fuse(
    function: Function, config: MachineConfig, base: BlockCompiledFunction
) -> TurboCompiledFunction:
    """``base``'s block chains plus a fused superblock per linear loop,
    built innermost-first so outer loops absorb fused inner loops into
    one nest.  Inner loops keep their standalone superblocks registered
    at their own headers — that is where a run resumed after a
    mid-nest sample re-enters bulk stepping."""
    superblocks: list = [None] * len(base._blocks)
    for unit in discover_units(function).values():
        superblocks[base.block_index[unit.header]] = _build_superblock(
            function, config, base, unit
        )
    return TurboCompiledFunction(base, tuple(superblocks))


def compile_turbo(
    function: Function, config: Optional[MachineConfig] = None
) -> TurboCompiledFunction:
    """Compile one finalized IR function for the turbo engine."""
    config = config or MachineConfig()
    return fuse(function, config, compile_blocks(function, config))
