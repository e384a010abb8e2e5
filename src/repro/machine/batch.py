"""Batched multi-config execution: N sweep cells, one instruction stream.

The production traffic shape for every headline figure is "same
workload, many configs" — distance sweeps, scheme ablations, cache-size
ablations.  Run sequentially, each cell re-decodes and re-dispatches
the same instruction stream.  A batch runs all cells in one pass:

* **shared front-end** — the module is compiled once; uniform
  instructions (identical operands across cells) execute exactly once
  on a single shared register file — hot loop nests as fused batch
  superblocks (:mod:`repro.machine.batchturbo`), every other block
  through the *same* closure factories turbo's per-block chains use
  (:mod:`repro.machine.blockengine`);
* **per-cell back-end** — every memory operation visits each cell's
  private L1/L2/LLC+MSHR state (:class:`repro.mem.batch.CellState`) at
  that cell's own clock, so per-cell cycles and cache counters are
  bit-identical to N independent sequential runs;
* **divergence handling** — a static alignment + divergence analysis
  classifies every register as uniform or divergent (cells differing
  only in constant immediates, e.g. per-cell prefetch distances, yield
  divergent registers).  Divergent values may feed ALU ops, SELECTs,
  PHIs, load/prefetch addresses and return values; anything that could
  split *control flow or the value stream* across cells (a divergent
  branch condition, store, call argument, or WORK amount) rejects the
  batch, and :func:`run_batch` falls back to per-cell sequential
  replay — the same observation-point discipline the turbo tier's
  guards apply per block.

Bit-identity argument: control flow, retired/load/store/taken counts
and all loaded values are uniform by construction; cost folding
mirrors the block engine exactly (all costs are integers, materialized
at the same observers), and each cell's clock advances through its own
memory system in program order.  Profiling and tracing are not
supported in batched mode — :func:`run_batch` is for measurement
sweeps; the qa oracle compares it against unprofiled sequential runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.ir.nodes import IRError, Module
from repro.ir.opcodes import BINOP_EXPR, Opcode
from repro.machine.blockengine import (
    _BINOP_FACTORIES,
    _RETURNED,
    _const_op,
    _edge_copies,
    _gep_op,
    _mov_op,
    _select_op,
)
from repro.machine.config import MachineConfig
from repro.machine.machine import Machine, RunResult
from repro.mem.address import AddressSpace
from repro.mem.batch import CellState, shared_space


class BatchDivergence(Exception):
    """The cells cannot share one front-end; replay them sequentially.

    ``code`` is a stable machine-readable label for the fallback
    reason; the sweep service counts them as ``batch.fallback.<code>``
    metrics and the CLI surfaces them in the sweep source column.
    """

    def __init__(self, message: str, code: str = "divergent") -> None:
        super().__init__(message)
        self.code = code


#: The closed set of fallback reason codes a BatchDivergence may carry
#: (plus the synthetic "single-cell" run_batch assigns without raising).
FALLBACK_CODES = (
    "alignment",
    "divergent-branch",
    "divergent-store",
    "divergent-call",
    "divergent-work",
    "cost-model",
    "space-mismatch",
    "single-cell",
)


#: One sweep cell: what a sequential run would hand to Machine.
@dataclass
class BatchCell:
    module: Module
    space: AddressSpace
    config: MachineConfig


# ----------------------------------------------------------------------
# Uniform-value evaluators for the divergent/broadcast paths.  The hot
# uniform path reuses blockengine's specialized factories; these generic
# per-cell forms only run on the (rare) divergent instructions.
# ----------------------------------------------------------------------
def _build_binop_funcs() -> dict:
    funcs: dict = {}
    namespace = {"min": min, "max": max}
    for opcode, expr in BINOP_EXPR.items():
        body = expr.format(a="a", b="b")
        source = f"def _f(a, b):\n    return {body}\n"
        scope = dict(namespace)
        exec(source, scope)  # noqa: S102 - trusted templates
        funcs[opcode] = scope["_f"]
    return funcs


_BINOP_FUNCS = _build_binop_funcs()

# Operand spec kinds: uniform register ("R"), divergent register ("D"),
# uniform constant ("C"), per-cell constants ("P").
_UNIFORM_KINDS = ("R", "C")


def _getter(spec) -> Callable:
    """spec -> ``g(R, Di, i)`` reading the operand for cell ``i``."""
    kind, value = spec
    if kind == "R":

        def g(R, Di, i, s=value):
            return R[s]

    elif kind == "D":

        def g(R, Di, i, s=value):
            return Di[s]

    elif kind == "C":

        def g(R, Di, i, c=value):
            return c

    else:

        def g(R, Di, i, cs=value):
            return cs[i]

    return g


def _uniform_spec(spec):
    """Uniform spec -> blockengine's ``(is_register, slot_or_const)``."""
    kind, value = spec
    return (kind == "R", value)


# ----------------------------------------------------------------------
# Alignment + divergence analysis.
# ----------------------------------------------------------------------
class _FunctionPlan:
    """Aligned per-cell copies of one function + its divergence facts."""

    __slots__ = ("name", "functions", "divergent", "ret_divergent")

    def __init__(self, name: str, functions: list) -> None:
        self.name = name
        self.functions = functions
        self.divergent: set = set()
        self.ret_divergent = False


def _operand_divergent(values, divergent: set) -> bool:
    first = values[0]
    if type(first) is str:
        return first in divergent
    return any(v != first for v in values)


def _check_alignment(plan: _FunctionPlan) -> None:
    """Structural alignment: same shape everywhere; operands may differ
    only by being different integer immediates at the same position."""
    first = plan.functions[0]
    for function in plan.functions[1:]:
        if function.params != first.params:
            raise BatchDivergence(
                f"{plan.name}: parameter lists differ", "alignment"
            )
        if len(function.blocks) != len(first.blocks):
            raise BatchDivergence(
                f"{plan.name}: block counts differ", "alignment"
            )
    blocks_per_cell = [list(f.blocks) for f in plan.functions]
    for position, aligned in enumerate(zip(*blocks_per_cell)):
        base = aligned[0]
        for block in aligned[1:]:
            if block.name != base.name:
                raise BatchDivergence(
                    f"{plan.name}: block order differs at {position}"
                    f" ({block.name!r} vs {base.name!r})",
                    "alignment",
                )
            if len(block.instructions) != len(base.instructions):
                raise BatchDivergence(
                    f"{plan.name}/{base.name}: instruction counts differ",
                    "alignment",
                )
        for insts in zip(*(b.instructions for b in aligned)):
            inst = insts[0]
            for other in insts[1:]:
                if (
                    other.op is not inst.op
                    or other.dst != inst.dst
                    or other.targets != inst.targets
                    or other.pc != inst.pc
                    or len(other.args) != len(inst.args)
                ):
                    raise BatchDivergence(
                        f"{plan.name}/{base.name}: instruction at pc "
                        f"{inst.pc:#x} differs structurally",
                        "alignment",
                    )
            for position_args in zip(*(i.args for i in insts)):
                head = position_args[0]
                for value in position_args[1:]:
                    if type(value) is str or type(head) is str:
                        if value != head:
                            raise BatchDivergence(
                                f"{plan.name}/{base.name}: register "
                                f"operands differ at pc {inst.pc:#x}",
                                "alignment",
                            )
            if inst.op is Opcode.PHI:
                labels = [tuple(p for p, _ in i.incomings) for i in insts]
                if any(lab != labels[0] for lab in labels[1:]):
                    raise BatchDivergence(
                        f"{plan.name}/{base.name}: phi predecessors differ",
                        "alignment",
                    )
                for values in zip(
                    *(tuple(v for _, v in i.incomings) for i in insts)
                ):
                    head = values[0]
                    for value in values[1:]:
                        if type(value) is str or type(head) is str:
                            if value != head:
                                raise BatchDivergence(
                                    f"{plan.name}/{base.name}: phi "
                                    f"register incomings differ",
                                    "alignment",
                                )


def _aligned_phis(blocks):
    return list(zip(*(b.phis() for b in blocks)))


def _aligned_rest(blocks):
    return list(zip(*(list(b.non_phi_instructions()) for b in blocks)))


def _propagate(plan: _FunctionPlan, plans: dict) -> bool:
    """One fixpoint sweep; returns True if any fact changed."""
    divergent = plan.divergent
    changed = False
    for blocks in zip(*(list(f.blocks) for f in plan.functions)):
        for phis in _aligned_phis(blocks):
            dst = phis[0].dst
            if dst in divergent:
                continue
            for values in zip(*(tuple(v for _, v in p.incomings) for p in phis)):
                if _operand_divergent(values, divergent):
                    divergent.add(dst)
                    changed = True
                    break
        for insts in _aligned_rest(blocks):
            inst = insts[0]
            arg_divergent = any(
                _operand_divergent([i.args[j] for i in insts], divergent)
                for j in range(len(inst.args))
            )
            if inst.op is Opcode.RET:
                if arg_divergent and not plan.ret_divergent:
                    plan.ret_divergent = True
                    changed = True
                continue
            if inst.op is Opcode.CALL:
                callee = plans.get(inst.targets[0])
                if callee is not None and callee.ret_divergent:
                    arg_divergent = True  # dst inherits callee divergence
            dst = inst.dst
            if dst is not None and arg_divergent and dst not in divergent:
                divergent.add(dst)
                changed = True
    return changed


def _check_banned(plan: _FunctionPlan) -> None:
    """Reject anything that could split control flow or the value
    stream across cells; the caller falls back to sequential replay."""
    divergent = plan.divergent
    for blocks in zip(*(list(f.blocks) for f in plan.functions)):
        name = blocks[0].name
        for insts in _aligned_rest(blocks):
            inst = insts[0]
            op = inst.op

            def diverges(j):
                return _operand_divergent(
                    [i.args[j] for i in insts], divergent
                )

            if op is Opcode.BR and diverges(0):
                raise BatchDivergence(
                    f"{plan.name}/{name}: divergent branch condition",
                    "divergent-branch",
                )
            if op is Opcode.STORE and (diverges(0) or diverges(1)):
                raise BatchDivergence(
                    f"{plan.name}/{name}: divergent store",
                    "divergent-store",
                )
            if op is Opcode.CALL and any(
                diverges(j) for j in range(len(inst.args))
            ):
                raise BatchDivergence(
                    f"{plan.name}/{name}: divergent call argument",
                    "divergent-call",
                )
            if op is Opcode.WORK and diverges(0):
                raise BatchDivergence(
                    f"{plan.name}/{name}: divergent WORK amount",
                    "divergent-work",
                )


def analyze_modules(modules: Sequence[Module]) -> dict:
    """Align + analyze every function across cells.

    Returns ``{name: _FunctionPlan}``; raises :class:`BatchDivergence`
    when the cells cannot share one front-end.
    """
    names = list(modules[0].functions)
    for module in modules[1:]:
        if list(module.functions) != names:
            raise BatchDivergence(
            "function sets differ across cells", "alignment"
        )
    plans = {
        name: _FunctionPlan(name, [m.function(name) for m in modules])
        for name in names
    }
    for plan in plans.values():
        _check_alignment(plan)
    changed = True
    while changed:
        changed = False
        for plan in plans.values():
            if _propagate(plan, plans):
                changed = True
    for plan in plans.values():
        _check_banned(plan)
    return plans


# ----------------------------------------------------------------------
# The batched frame + op factories.  Uniform ops come straight from
# blockengine (they only touch R); everything below handles the
# per-cell paths.
# ----------------------------------------------------------------------
class _BatchFrame:
    """Per-invocation state: uniform tallies + per-cell clocks/overlays.

    ``cycle`` and ``next_sample`` exist only for the dispatch loop the
    batched tier shares with turbo: batched runs never sample, so they
    hold 0 and ``NEVER`` for the whole run."""

    __slots__ = (
        "cycle",
        "next_sample",
        "cycles",
        "retired",
        "loads",
        "stores",
        "taken",
        "next",
        "value",
        "D",
        "mem_loads",
        "mem_stores",
        "mem_prefetches",
        "sp_load",
        "sp_store",
        "invoke",
        "counters",
        "max_instructions",
    )


def _batch_alu_op(dst: int, fn: Callable, getters: tuple):
    """Generic per-cell ALU/move evaluation into the divergent overlay."""
    if len(getters) == 1:
        (g0,) = getters

        def op(R, st, dst=dst, fn=fn, g0=g0):
            for i, Di in enumerate(st.D):
                Di[dst] = fn(g0(R, Di, i))

    elif len(getters) == 2:
        g0, g1 = getters

        def op(R, st, dst=dst, fn=fn, g0=g0, g1=g1):
            for i, Di in enumerate(st.D):
                Di[dst] = fn(g0(R, Di, i), g1(R, Di, i))

    else:
        g0, g1, g2 = getters

        def op(R, st, dst=dst, fn=fn, g0=g0, g1=g1, g2=g2):
            for i, Di in enumerate(st.D):
                Di[dst] = fn(g0(R, Di, i), g1(R, Di, i), g2(R, Di, i))

    return op


def _batch_load_op(dst: int, aspec, dst_divergent: bool, pc: int, pending: int):
    kind = aspec[0]
    if kind in _UNIFORM_KINDS:
        am, av = _uniform_spec(aspec)
        if dst_divergent:

            def op(R, st, dst=dst, am=am, av=av, pc=pc, k=pending):
                addr = R[av] if am else av
                cycles = st.cycles
                for i, mem_load in enumerate(st.mem_loads):
                    now = cycles[i] + k
                    cycles[i] = now + mem_load(addr, now, pc)
                value = st.sp_load(addr)
                for Di in st.D:
                    Di[dst] = value

        else:

            def op(R, st, dst=dst, am=am, av=av, pc=pc, k=pending):
                addr = R[av] if am else av
                cycles = st.cycles
                for i, mem_load in enumerate(st.mem_loads):
                    now = cycles[i] + k
                    cycles[i] = now + mem_load(addr, now, pc)
                R[dst] = st.sp_load(addr)

    else:  # divergent address -> divergent value
        g = _getter(aspec)

        def op(R, st, dst=dst, g=g, pc=pc, k=pending):
            cycles = st.cycles
            D = st.D
            sp_load = st.sp_load
            for i, mem_load in enumerate(st.mem_loads):
                Di = D[i]
                addr = g(R, Di, i)
                now = cycles[i] + k
                cycles[i] = now + mem_load(addr, now, pc)
                Di[dst] = sp_load(addr)

    return op


def _batch_store_op(aspec, vspec, pc: int, pending: int):
    am, av = _uniform_spec(aspec)
    vm, vv = _uniform_spec(vspec)

    def op(R, st, am=am, av=av, vm=vm, vv=vv, pc=pc, k=pending):
        addr = R[av] if am else av
        cycles = st.cycles
        for i, mem_store in enumerate(st.mem_stores):
            now = cycles[i] + k
            cycles[i] = now + mem_store(addr, now, pc)
        st.sp_store(addr, R[vv] if vm else vv)

    return op


def _batch_prefetch_op(aspec, pc: int, pending: int):
    if aspec[0] in _UNIFORM_KINDS:
        # Uniform address: never touch the divergent overlay — it may
        # be empty (``st.D == ()``) when the whole function is uniform,
        # e.g. a source program with its own prefetch instructions.
        am, av = _uniform_spec(aspec)

        def op(R, st, am=am, av=av, pc=pc, k=pending):
            addr = R[av] if am else av
            cycles = st.cycles
            for i, mem_prefetch in enumerate(st.mem_prefetches):
                now = cycles[i] + k
                cycles[i] = now
                mem_prefetch(addr, now, pc)

        return op
    g = _getter(aspec)

    def op(R, st, g=g, pc=pc, k=pending):
        cycles = st.cycles
        D = st.D
        for i, mem_prefetch in enumerate(st.mem_prefetches):
            now = cycles[i] + k
            cycles[i] = now
            mem_prefetch(g(R, D[i], i), now, pc)

    return op


def _batch_work_op(slot: int, pending: int, work_cpi: int):
    def op(R, st, a=slot, k=pending, cpi=work_cpi):
        add = k + R[a] * cpi
        cycles = st.cycles
        for i in range(len(cycles)):
            cycles[i] += add
        st.retired += R[a]

    return op


def _batch_call_op(
    dst: int, callee: str, argspec: tuple, pc: int, pending: int,
    ret_divergent: bool,
):
    def op(
        R, st, dst=dst, callee=callee, argspec=argspec, pc=pc, k=pending,
        ret_div=ret_divergent,
    ):
        cycles = st.cycles
        counters = st.counters
        for i in range(len(cycles)):
            cycles[i] += k
            counters[i].cycles = cycles[i]
        args = tuple((R[v] if m else v) for m, v in argspec)
        result = st.invoke(callee, args, pc)
        for i in range(len(cycles)):
            cycles[i] = int(counters[i].cycles)
        if ret_div:
            for i, Di in enumerate(st.D):
                Di[dst] = result[i]
        else:
            R[dst] = result

    return op


def _batch_copies(ucopy, dpairs):
    """Parallel-copy closure covering uniform and divergent PHI dsts.

    Divergent reads happen before the uniform copy mutates R (parallel
    semantics); divergent writes only touch the overlay, which no
    uniform source reads.
    """
    if not dpairs:
        if ucopy is None:
            return None

        def copies(R, st, ucopy=ucopy):
            ucopy(R)

        return copies
    dpairs = tuple(dpairs)

    def copies(R, st, ucopy=ucopy, dpairs=dpairs):
        for i, Di in enumerate(st.D):
            values = [g(R, Di, i) for _, g in dpairs]
            for (d, _), value in zip(dpairs, values):
                Di[d] = value
        if ucopy is not None:
            ucopy(R)

    return copies


def _batch_jmp_op(target_index, copies, pending, retired, nloads, nstores):
    def op(
        R, st, ti=target_index, copies=copies, k=pending, rt=retired,
        nl=nloads, ns=nstores,
    ):
        cycles = st.cycles
        for i in range(len(cycles)):
            cycles[i] += k
        st.retired += rt
        if nl:
            st.loads += nl
        if ns:
            st.stores += ns
        st.taken += 1
        if copies is not None:
            copies(R, st)
        st.next = ti

    return op


def _batch_br_op(
    cspec, then_index, then_copies, else_index, else_copies,
    pending, retired, nloads, nstores,
):
    cm, cv = _uniform_spec(cspec)

    def op(
        R, st, cm=cm, cv=cv, ti=then_index, tc=then_copies, ei=else_index,
        ec=else_copies, k=pending, rt=retired, nl=nloads, ns=nstores,
    ):
        cycles = st.cycles
        for i in range(len(cycles)):
            cycles[i] += k
        st.retired += rt
        if nl:
            st.loads += nl
        if ns:
            st.stores += ns
        if R[cv] if cm else cv:
            st.taken += 1
            if tc is not None:
                tc(R, st)
            st.next = ti
        else:
            if ec is not None:
                ec(R, st)
            st.next = ei

    return op


def _batch_ret_op(spec, ret_divergent, pending, retired, nloads, nstores):
    getter = _getter(spec) if ret_divergent else None
    am, av = _uniform_spec(spec) if not ret_divergent else (False, 0)

    def op(
        R, st, g=getter, ret_div=ret_divergent, am=am, av=av, k=pending,
        rt=retired, nl=nloads, ns=nstores,
    ):
        cycles = st.cycles
        for i in range(len(cycles)):
            cycles[i] += k
        st.retired += rt
        if nl:
            st.loads += nl
        if ns:
            st.stores += ns
        retired_total = st.retired
        loads_total = st.loads
        stores_total = st.stores
        taken_total = st.taken
        for i, counters in enumerate(st.counters):
            counters.cycles = cycles[i]
            counters.instructions += retired_total
            counters.loads += loads_total
            counters.stores += stores_total
            counters.taken_branches += taken_total
        if ret_div:
            D = st.D
            st.value = [g(R, D[i], i) for i in range(len(cycles))]
        else:
            st.value = R[av] if am else av
        st.next = _RETURNED

    return op


# ----------------------------------------------------------------------
# The batched block compiler: blockengine's structure, with every
# instruction routed to the uniform (shared) or per-cell path.
# ----------------------------------------------------------------------
class _BatchBlockCompiler:
    def __init__(self, plan: _FunctionPlan, plans: dict, config: MachineConfig):
        self.plan = plan
        self.plans = plans
        self.config = config
        first = plan.functions[0]
        self.slots: dict = {}
        for param in first.params:
            self.slots[param] = len(self.slots)
        for instruction in first.instructions():
            if instruction.dst is not None and instruction.dst not in self.slots:
                self.slots[instruction.dst] = len(self.slots)
        self.block_index = {
            block.name: index for index, block in enumerate(first.blocks)
        }
        self.has_divergence = bool(plan.divergent) or plan.ret_divergent

    # ------------------------------------------------------------------
    def ospec(self, values):
        """Aligned operand values across cells -> a spec tuple."""
        first = values[0]
        if type(first) is str:
            slot = self.slots[first]
            if first in self.plan.divergent:
                return ("D", slot)
            return ("R", slot)
        if all(value == first for value in values[1:]):
            return ("C", first)
        self.has_divergence = True
        return ("P", tuple(values))

    def arg_spec(self, insts, j):
        return self.ospec([inst.args[j] for inst in insts])

    def is_uniform(self, *specs) -> bool:
        return all(spec[0] in _UNIFORM_KINDS for spec in specs)

    def edge(self, target_name: str, source_name: str):
        """Batched PHI parallel-copy closure for source -> target."""
        targets = [f.block(target_name) for f in self.plan.functions]
        upairs: list = []
        dpairs: list = []
        for phis in _aligned_phis(targets):
            dst = phis[0].dst
            values = []
            for phi in phis:
                incoming = dict(phi.incomings)
                if source_name not in incoming:
                    raise IRError(
                        f"phi {dst} in {target_name} lacks incoming "
                        f"from {source_name}"
                    )
                values.append(incoming[source_name])
            spec = self.ospec(values)
            if dst in self.plan.divergent:
                dpairs.append((self.slots[dst], _getter(spec)))
            else:
                is_reg, value = _uniform_spec(spec)
                upairs.append((self.slots[dst], is_reg, value))
        return _batch_copies(_edge_copies(upairs), dpairs)

    # ------------------------------------------------------------------
    def compile_block(self, blocks) -> tuple:
        cfg = self.config
        alu = cfg.alu_cost
        divergent = self.plan.divergent
        block_name = blocks[0].name
        ops: list = []
        pending = 0
        retired = 0
        nloads = 0
        nstores = 0

        for insts in _aligned_rest(blocks):
            inst = insts[0]
            op = inst.op
            dst = inst.dst
            dst_divergent = dst is not None and dst in divergent
            if op in _BINOP_FACTORIES:
                a, b = self.arg_spec(insts, 0), self.arg_spec(insts, 1)
                if not dst_divergent and self.is_uniform(a, b):
                    (am, av), (bm, bv) = _uniform_spec(a), _uniform_spec(b)
                    factory = _BINOP_FACTORIES[op][(am, bm)]
                    ops.append(factory(self.slots[dst], av, bv))
                else:
                    ops.append(
                        _batch_alu_op(
                            self.slots[dst],
                            _BINOP_FUNCS[op],
                            (_getter(a), _getter(b)),
                        )
                    )
                pending += alu
                retired += 1
            elif op is Opcode.GEP:
                base = self.arg_spec(insts, 0)
                index = self.arg_spec(insts, 1)
                scale = self.ospec([i.args[2] for i in insts])
                if not dst_divergent and self.is_uniform(base, index, scale):
                    ops.append(
                        _gep_op(
                            self.slots[dst],
                            _uniform_spec(base),
                            _uniform_spec(index),
                            scale[1],
                        )
                    )
                else:
                    ops.append(
                        _batch_alu_op(
                            self.slots[dst],
                            lambda b, i, s: b + i * s,
                            (_getter(base), _getter(index), _getter(scale)),
                        )
                    )
                pending += alu
                retired += 1
            elif op is Opcode.CONST:
                value = self.ospec([i.args[0] for i in insts])
                if not dst_divergent and self.is_uniform(value):
                    ops.append(_const_op(self.slots[dst], value[1]))
                else:
                    ops.append(
                        _batch_alu_op(
                            self.slots[dst], lambda a: a, (_getter(value),)
                        )
                    )
                pending += alu
                retired += 1
            elif op is Opcode.MOV:
                a = self.arg_spec(insts, 0)
                if not dst_divergent and self.is_uniform(a):
                    ops.append(_mov_op(self.slots[dst], _uniform_spec(a)))
                else:
                    ops.append(
                        _batch_alu_op(
                            self.slots[dst], lambda a: a, (_getter(a),)
                        )
                    )
                pending += alu
                retired += 1
            elif op is Opcode.SELECT:
                c = self.arg_spec(insts, 0)
                a = self.arg_spec(insts, 1)
                b = self.arg_spec(insts, 2)
                if not dst_divergent and self.is_uniform(c, a, b):
                    ops.append(
                        _select_op(
                            self.slots[dst],
                            _uniform_spec(c),
                            _uniform_spec(a),
                            _uniform_spec(b),
                        )
                    )
                else:
                    ops.append(
                        _batch_alu_op(
                            self.slots[dst],
                            lambda c, a, b: a if c else b,
                            (_getter(c), _getter(a), _getter(b)),
                        )
                    )
                pending += alu
                retired += 1
            elif op is Opcode.LOAD:
                ops.append(
                    _batch_load_op(
                        self.slots[dst],
                        self.arg_spec(insts, 0),
                        dst_divergent,
                        inst.pc,
                        pending,
                    )
                )
                pending = 0
                retired += 1
                nloads += 1
            elif op is Opcode.STORE:
                ops.append(
                    _batch_store_op(
                        self.arg_spec(insts, 0),
                        self.arg_spec(insts, 1),
                        inst.pc,
                        pending,
                    )
                )
                pending = 0
                retired += 1
                nstores += 1
            elif op is Opcode.PREFETCH:
                ops.append(
                    _batch_prefetch_op(
                        self.arg_spec(insts, 0), inst.pc, pending
                    )
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
                        _batch_work_op(
                            self.slots[amount], pending, cfg.work_cpi
                        )
                    )
                    pending = 0
            elif op is Opcode.CALL:
                pending += cfg.branch_cost
                retired += 1
                callee = inst.targets[0]
                callee_plan = self.plans.get(callee)
                ret_divergent = (
                    callee_plan is not None and callee_plan.ret_divergent
                )
                argspec = tuple(
                    _uniform_spec(self.arg_spec(insts, j))
                    for j in range(len(inst.args))
                )
                ops.append(
                    _batch_call_op(
                        self.slots[dst],
                        callee,
                        argspec,
                        inst.pc,
                        pending,
                        ret_divergent,
                    )
                )
                pending = 0
            elif op is Opcode.JMP:
                pending += cfg.branch_cost
                retired += 1
                target = inst.targets[0]
                ops.append(
                    _batch_jmp_op(
                        self.block_index[target],
                        self.edge(target, block_name),
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
                    _batch_br_op(
                        self.arg_spec(insts, 0),
                        self.block_index[then_target],
                        self.edge(then_target, block_name),
                        self.block_index[else_target],
                        self.edge(else_target, block_name),
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
                spec = (
                    self.arg_spec(insts, 0) if inst.args else ("C", 0)
                )
                ops.append(
                    _batch_ret_op(
                        spec,
                        self.plan.ret_divergent,
                        pending,
                        retired,
                        nloads,
                        nstores,
                    )
                )
                pending = retired = nloads = nstores = 0
            else:  # pragma: no cover - exhaustive dispatch
                raise IRError(f"unhandled opcode {op!r}")
        return tuple(ops)


# ----------------------------------------------------------------------
# The batch machine + the public entry point.
# ----------------------------------------------------------------------
_COST_FIELDS = (
    "alu_cost", "branch_cost", "prefetch_cost", "work_cpi",
    "max_instructions",
)


class BatchMachine:
    """N simulated processes sharing one front-end.

    Raises :class:`BatchDivergence` at construction when the cells
    cannot be batched; never at run time (the analysis is static).
    Every function compiles through the batched superblock tier
    (:mod:`repro.machine.batchturbo`).
    """

    def __init__(self, cells: Sequence[BatchCell]) -> None:
        from repro.machine.batchturbo import CellBindings

        if not cells:
            raise ValueError("batch needs at least one cell")
        self.ncells = len(cells)
        self.config = cells[0].config
        for index, cell in enumerate(cells):
            for field_name in _COST_FIELDS:
                if getattr(cell.config, field_name) != getattr(
                    self.config, field_name
                ):
                    raise BatchDivergence(
                        f"cell {index}: {field_name} differs across cells",
                        "cost-model",
                    )
        modules = []
        for cell in cells:
            if not cell.module.finalized:
                cell.module.finalize()
            modules.append(cell.module)
        try:
            self.space = shared_space([cell.space for cell in cells])
        except ValueError as error:
            raise BatchDivergence(str(error), "space-mismatch") from error
        self.plans = analyze_modules(modules)
        self.cells = [
            CellState(cell.config, self.space) for cell in cells
        ]
        self.cell_counters = [cell.counters for cell in self.cells]
        self.cell_loads = [cell.load for cell in self.cells]
        self.cell_stores = [cell.store for cell in self.cells]
        self.cell_prefetches = [cell.prefetch for cell in self.cells]
        self.cell_configs = [cell.config for cell in cells]
        self._compiled: dict = {}
        self.bindings = CellBindings(self.cells, self.space)

    # ------------------------------------------------------------------
    def _compile(self, name: str):
        compiled = self._compiled.get(name)
        if compiled is None:
            from repro.machine.codecache import load_or_compile_batch, resolve

            compiled = load_or_compile_batch(
                resolve(self.config.code_cache),
                self.plans[name],
                self.plans,
                self.config,
                self.cell_configs,
            )
            self._compiled[name] = compiled
        return compiled

    def _invoke(self, callee: str, args: Sequence[int], from_pc: int):
        """Batched CALL trampoline (mirrors ``Machine._invoke``; the LBR
        push is a no-op because batched runs never profile)."""
        if callee not in self.plans:
            raise IRError(f"call to unknown function {callee!r}")
        for counters in self.cell_counters:
            counters.taken_branches += 1
        return self._compile(callee)(self, args)

    def run(
        self, function: str = "main", args: Sequence[int] = ()
    ) -> list:
        """Execute ``function`` across all cells; one
        :class:`~repro.machine.machine.RunResult` per cell."""
        if function not in self.plans:
            raise IRError(f"module has no function {function!r}")
        before = [counters.copy() for counters in self.cell_counters]
        value = self._compile(function)(self, args)
        values = (
            value if isinstance(value, list) else [value] * self.ncells
        )
        return [
            RunResult(value=v, counters=after - b)
            for v, after, b in zip(values, self.cell_counters, before)
        ]


@dataclass
class BatchOutcome:
    """Per-cell results + whether the batched fast path was used.

    ``tier`` is the tier that actually executed (``"batchturbo"``, or
    ``"replay"`` for the per-cell sequential fallback, which runs each
    cell's configured engine);
    ``reason_code`` is the stable :data:`FALLBACK_CODES` label behind a
    human-readable ``reason``.
    """

    results: list
    batched: bool
    reason: Optional[str] = None
    reason_code: Optional[str] = None
    tier: Optional[str] = None


def run_batch(
    cells: Sequence[BatchCell],
    function: str = "main",
    args: Sequence[int] = (),
) -> BatchOutcome:
    """Run every cell, batched when the cells align, else sequentially.

    The outcome's ``results`` are bit-identical either way; ``batched``,
    ``tier`` and ``reason``/``reason_code`` report which path executed
    (the qa oracle asserts the identity, the sweep service counts the
    fallback codes as ``batch.fallback.<code>`` metrics).
    """
    cells = list(cells)
    reason: Optional[str] = None
    reason_code: Optional[str] = None
    if len(cells) >= 2:
        try:
            machine = BatchMachine(cells)
        except BatchDivergence as error:
            reason = str(error)
            reason_code = error.code
        else:
            return BatchOutcome(
                machine.run(function, args), True, tier="batchturbo"
            )
    else:
        reason = "single cell"
        reason_code = "single-cell"
    results = [
        Machine(cell.module, cell.space, config=cell.config).run(
            function, args
        )
        for cell in cells
    ]
    return BatchOutcome(results, False, reason, reason_code, "replay")
