"""Shared loop-nest discovery, fusability and nest-shape analysis for
the fused engine tiers.

Both superblock compilers — the sequential turbo tier
(:mod:`repro.machine.superblock`) and the batched superblock tier
(:mod:`repro.machine.batchturbo`) — fuse the same shape of loop: a
*linear single-latch* natural loop whose body walks header -> ... ->
latch with exactly one in-loop successor per node, built innermost-first
so outer loops absorb already-fused inner loops as nested units.  This
module holds that analysis in one place so the two tiers can never
disagree about *what* is fusable, nor about the static shape of a
fusable nest (:class:`NestShape`: the folded per-iteration constants,
the guard bounds, the in-nest and exit edges, and the registers the
nest reads and writes).  Only the code they generate for a nest
differs (per-run locals vs per-cell overlays); the two emitters whose
text is the same in both tiers (:func:`functional_lines` and
:func:`phi_copy_lines`) live here as well.

The eligibility rules (see :func:`build_unit`):

* single latch — multiple back edges mean the iteration has no single
  "end", so per-iteration constants cannot be folded;
* every node on the walk has exactly one in-loop successor: a block
  whose JMP target / one BR arm stays in the body (the other arm is a
  side exit), or an already-fused inner unit whose single exit target
  is the continuation;
* **guarded inner units** — a block whose BR has *two* in-loop arms is
  still linear when one arm enters an already-fused inner unit whose
  single exit target is the other arm's target: both ways control
  reaches the same continuation, so the walk treats the conditional
  inner loop as one optional :class:`GuardedUnit` node (the common
  ``if (work) { inner loop }`` shape around a nested hot loop);
* no CALL (re-enters the trampoline — an observation point) and no
  dynamic register-amount WORK (unbounded per-iteration cost) anywhere
  on the path;
* the walk must cover the whole body and end on the latch's back edge —
  irreducible or diamond-shaped bodies and nests around unfused inner
  loops all fail naturally.
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.loops import Loop, find_loops
from repro.ir.nodes import Function, IRError
from repro.ir.opcodes import BINOP_EXPR, Opcode
from repro.machine.config import MachineConfig

#: Opcodes treated as plain folded-cost ALU work by the scanners and
#: code generators of both fused tiers.
ALU_OPS = frozenset(BINOP_EXPR) | {
    Opcode.GEP,
    Opcode.CONST,
    Opcode.MOV,
    Opcode.SELECT,
}


class FusionUnit:
    """One fusable loop: a linear path of blocks and already-fused
    inner units from header to latch, plus the continuation/exit
    metadata codegen needs."""

    __slots__ = (
        "header",
        "path",
        "blocks",
        "own_blocks",
        "cont",
        "exit_targets",
        "exit_blocks",
        "guards",
    )

    def __init__(
        self,
        header: str,
        path: tuple,
        blocks: frozenset,
        own_blocks: tuple,
        cont: dict,
        exit_targets: frozenset,
        exit_blocks: tuple,
        guards: Optional[dict] = None,
    ) -> None:
        self.header = header
        self.path = path  # str | FusionUnit | GuardedUnit, in order
        self.blocks = blocks  # every block name covered, recursively
        self.own_blocks = own_blocks  # the plain blocks on this path
        self.cont = cont  # own block -> its in-path successor entry
        self.exit_targets = exit_targets  # out-of-unit BR arm targets
        self.exit_blocks = exit_blocks  # own blocks with a side exit
        self.guards = guards or {}  # guard block -> inner entry header


class GuardedUnit:
    """An already-fused inner unit entered conditionally from a guard
    block: one BR arm enters ``unit`` (whose single exit target is
    ``skip``), the other arm goes straight to ``skip``.  Both arms
    reach the same continuation, so the walk stays linear — codegen
    emits the whole inner loop inside the guard arm and rejoins at
    ``skip``."""

    __slots__ = ("guard", "unit", "skip", "enter_on_true")

    def __init__(
        self, guard: str, unit: FusionUnit, skip: str, enter_on_true: bool
    ) -> None:
        self.guard = guard  # the branching block's name
        self.unit = unit  # the inner FusionUnit entered conditionally
        self.skip = skip  # where both arms rejoin
        self.enter_on_true = enter_on_true  # inner is the taken arm


def unit_entry(node) -> str:
    """The dispatch label a path node is entered at."""
    if isinstance(node, FusionUnit):
        return node.header
    if isinstance(node, GuardedUnit):
        return node.unit.header
    return node


def block_is_fusable(block) -> bool:
    """Reject blocks whose cost cannot be bounded at compile time
    (CALL re-enters the trampoline — an observation point; dynamic
    WORK retires a run-time-dependent amount)."""
    for inst in block.non_phi_instructions():
        if inst.op is Opcode.CALL:
            return False
        if inst.op is Opcode.WORK and type(inst.args[0]) is not int:
            return False
    return True


def build_unit(
    function: Function, loop: Loop, units: dict
) -> Optional[FusionUnit]:
    """Build the fused unit for ``loop``, or None if it is not linear.

    Linear means: single latch, and every node on the walk from the
    header has exactly one in-loop successor — either a block whose
    JMP target / one BR arm stays in the body (the other arm is a side
    exit), or an already-fused inner unit (from ``units``, keyed by
    header) whose single exit target is the continuation.  The walk
    must cover the whole body and end on the latch's back edge, so
    irreducible or diamond-shaped bodies and nests around unfused
    inner loops all fail naturally.
    """
    if len(loop.latches) != 1:
        return None
    body = loop.body
    path: list = []
    covered: set = set()
    current = loop.header
    while True:
        inner = units.get(current) if current != loop.header else None
        if inner is not None:
            if not (inner.blocks <= body) or len(inner.exit_targets) != 1:
                return None
            nxt = next(iter(inner.exit_targets))
            if nxt == loop.header:
                return None  # back edge out of a fused unit: keep unfused
            path.append(inner)
            covered |= inner.blocks
        else:
            block = function.block(current)
            terminator = block.terminator
            if terminator is None or terminator.op not in (
                Opcode.JMP,
                Opcode.BR,
            ):
                return None
            if not block_is_fusable(block):
                return None
            in_loop = [t for t in terminator.targets if t in body]
            if len(in_loop) == 1:
                path.append(current)
                covered.add(current)
                nxt = in_loop[0]
                if nxt == loop.header:
                    if current != loop.latches[0]:
                        return None
                    break  # the back edge: ``current`` is the latch
            elif len(in_loop) == 2 and terminator.op is Opcode.BR:
                guarded = _guarded_successor(
                    current, terminator, body, units, loop.header
                )
                if guarded is None:
                    return None
                path.append(current)
                covered.add(current)
                path.append(guarded)
                covered |= guarded.unit.blocks
                nxt = guarded.skip
                if nxt == loop.header:
                    return None  # inner exits would be extra latches
            else:
                return None
        if nxt in covered:
            return None
        current = nxt
    if covered != body:
        return None
    own_blocks = tuple(n for n in path if isinstance(n, str))
    guards = {
        node.guard: node.unit.header
        for node in path
        if isinstance(node, GuardedUnit)
    }
    cont: dict = {}
    for i, node in enumerate(path):
        if not isinstance(node, str):
            continue
        if i + 1 < len(path) and isinstance(path[i + 1], GuardedUnit):
            # a guard block continues at the rejoin point; the inner
            # entry arm is recorded in ``guards``, not ``cont``
            cont[node] = path[i + 1].skip
        else:
            cont[node] = (
                unit_entry(path[i + 1]) if i + 1 < len(path) else loop.header
            )
    exit_targets: set = set()
    exit_blocks: list = []
    for name in own_blocks:
        terminator = function.block(name).terminator
        if terminator.op is Opcode.BR:
            for target in terminator.targets:
                if target != cont[name] and target != guards.get(name):
                    exit_targets.add(target)
                    exit_blocks.append(name)
    return FusionUnit(
        header=loop.header,
        path=tuple(path),
        blocks=frozenset(covered),
        own_blocks=own_blocks,
        cont=cont,
        exit_targets=frozenset(exit_targets),
        exit_blocks=tuple(exit_blocks),
        guards=guards,
    )


def _guarded_successor(
    name: str, terminator, body: frozenset, units: dict, header: str
) -> Optional[GuardedUnit]:
    """Recognize the guarded-inner-unit diamond at a two-in-loop-arm BR:
    one arm enters an already-fused inner unit whose single exit target
    is the other arm's target.  Returns the :class:`GuardedUnit`, or
    None when neither arm qualifies."""
    then_target, else_target = terminator.targets
    for enter, skip, on_true in (
        (then_target, else_target, True),
        (else_target, then_target, False),
    ):
        inner = units.get(enter)
        if (
            inner is not None
            and enter != header
            and inner.blocks <= body
            and inner.exit_targets == frozenset((skip,))
        ):
            return GuardedUnit(name, inner, skip, on_true)
    return None


def discover_units(function: Function) -> dict:
    """Every fusable loop nest of ``function``: ``{header: FusionUnit}``.

    Built innermost-first (loops sorted by body size) so an outer
    loop's walk can absorb already-fused inner units; inner units stay
    in the map under their own headers — that is where a run resumed
    mid-nest re-enters bulk stepping.
    """
    units: dict = {}
    for loop in sorted(find_loops(function), key=lambda lp: len(lp.body)):
        unit = build_unit(function, loop, units)
        if unit is not None:
            units[unit.header] = unit
    return units


def _inner(node) -> Optional[FusionUnit]:
    """The nested unit a path node carries, or None for a plain block."""
    if isinstance(node, GuardedUnit):
        return node.unit
    return node if isinstance(node, FusionUnit) else None


def flatten_unit(unit: FusionUnit) -> list:
    """The nest's plain block names in execution order."""
    names: list = []
    for node in unit.path:
        inner = _inner(node)
        if inner is None:
            names.append(node)
        else:
            names.extend(flatten_unit(inner))
    return names


def unit_depth(unit: FusionUnit) -> int:
    """Nesting depth (1 = a plain linear loop)."""
    inners = [_inner(node) for node in unit.path]
    return 1 + max(
        (unit_depth(inner) for inner in inners if inner is not None),
        default=0,
    )


class NestShape:
    """The static shape of one fused nest, computed once per unit and
    consumed by both tiers' code generators.

    * ``totals`` — the whole nest's folded (retired, loads, stores,
      taken, constant cycles) per iteration of every loop in it, and
      :meth:`unit_totals` the same over one unit's own blocks;
    * ``bound_retired`` and :meth:`bound_cycles` — the worst case
      between two consecutive guard evaluations: one iteration of every
      loop in the nest plus all straight-line segments;
    * ``has_ld`` / ``has_sr`` / ``has_tk`` — which running accumulators
      the stepper keeps, and ``memory_sites`` — how many LOAD/STORE
      sites (each gets a functional segment-cache local);
    * ``internal_edges`` / ``exit_edges`` — ``(src, tgt)`` CFG edges
      that stay inside the nest and that leave its outermost unit;
    * ``read`` / ``written`` — register names the nest reads and
      writes: everything touched is preloaded into a local at entry,
      everything written is written back on every way out.

    ``function`` is the one the nest was discovered on (cell 0 for the
    batched tier: alignment pins the opcode shape at every position and
    divergent WORK amounts are banned, so the tallies hold per cell).
    """

    def __init__(
        self, function: Function, config: MachineConfig, unit: FusionUnit
    ) -> None:
        self.function = function
        self.config = config
        self.unit = unit
        self._totals: dict = {}  # id(unit) -> (rt, ld, sr, tk, cc)
        self.totals = self._nest_totals(unit)
        rt, nloads, nstores, tk, _ = self.totals
        self.bound_retired = max(1, rt)
        self.has_ld = nloads > 0
        self.has_sr = nstores > 0
        self.has_tk = tk > 0 or self._any_taken_exit(unit)
        self.memory_sites = nloads + nstores
        self.internal_edges = self._internal_edges(unit)
        self.exit_edges = self._exit_edges()
        self.read, self.written = self._collect_registers()

    def bound_cycles(self, mem_lat: int) -> int:
        """Worst-case cycles between two guard evaluations, given
        ``mem_lat``, an upper bound on any demand-load latency (stores
        always retire in 1 cycle)."""
        _, nloads, nstores, _, const_cycles = self.totals
        return max(1, const_cycles + nloads * mem_lat + nstores)

    def unit_totals(self, unit: FusionUnit) -> tuple:
        """One iteration's folded constants over ``unit``'s own blocks."""
        cached = self._totals.get(id(unit))
        if cached is None:
            cached = self._scan_totals(unit)
            self._totals[id(unit)] = cached
        return cached

    def _scan_totals(self, unit: FusionUnit) -> tuple:
        """One unit iteration's folded constants over its *own* blocks
        (nested units accumulate themselves), mirroring the block
        compiler's cost accounting exactly (every pending run is
        materialized by the latch terminator, so the per-iteration
        constant-cycle total is just the sum of all constant costs)."""
        cfg = self.config
        rt = nloads = nstores = tk = const_cycles = 0
        for name in unit.own_blocks:
            cont = unit.cont[name]
            for inst in self.function.block(name).non_phi_instructions():
                op = inst.op
                if op is Opcode.LOAD:
                    rt += 1
                    nloads += 1
                elif op is Opcode.STORE:
                    rt += 1
                    nstores += 1
                elif op is Opcode.PREFETCH:
                    rt += 1
                    const_cycles += cfg.prefetch_cost
                elif op is Opcode.WORK:
                    rt += inst.args[0]
                    const_cycles += inst.args[0] * cfg.work_cpi
                elif op in (Opcode.JMP, Opcode.BR):
                    rt += 1
                    const_cycles += cfg.branch_cost
                    if op is Opcode.JMP or inst.targets[0] == cont:
                        tk += 1
                elif op in ALU_OPS:
                    rt += 1
                    const_cycles += cfg.alu_cost
                else:  # pragma: no cover - guarded by block_is_fusable
                    raise IRError(f"unfusable opcode {op!r} on loop path")
        return rt, nloads, nstores, tk, const_cycles

    def _nest_totals(self, unit: FusionUnit) -> tuple:
        totals = list(self.unit_totals(unit))
        for node in unit.path:
            inner = _inner(node)
            if inner is not None:
                for k, value in enumerate(self._nest_totals(inner)):
                    totals[k] += value
        return tuple(totals)

    def _any_taken_exit(self, unit: FusionUnit) -> bool:
        """Whether any side exit anywhere in the nest is a BR's *taken*
        (then) arm — those contribute to st.taken even when every
        continuation edge is fall-through.  Guard blocks whose taken
        arm enters the guarded inner unit report True the same way:
        their taken count is adjusted dynamically."""
        for name in unit.own_blocks:
            terminator = self.function.block(name).terminator
            if (
                terminator.op is Opcode.BR
                and terminator.targets[0] != unit.cont[name]
            ):
                return True
        return any(
            self._any_taken_exit(_inner(node))
            for node in unit.path
            if _inner(node) is not None
        )

    @staticmethod
    def _tail_srcs(node) -> tuple:
        """The block(s) a path node transfers control *from* when it
        hands off to its in-path successor: the block itself, or — for
        a nested (possibly guarded) unit — its side-exiting blocks (all
        of which break to the unit's single continuation)."""
        inner = _inner(node)
        return (node,) if inner is None else inner.exit_blocks

    def _internal_edges(self, unit: FusionUnit) -> list:
        edges: list = []
        path = unit.path
        for i, node in enumerate(path):
            tgt = unit_entry(path[i + 1]) if i + 1 < len(path) else unit.header
            for src in self._tail_srcs(node):
                edges.append((src, tgt))
            if isinstance(node, FusionUnit):
                edges.extend(self._internal_edges(node))
            elif isinstance(node, GuardedUnit):
                # The guard's skip arm rejoins at the same continuation
                # the inner unit exits to.
                edges.append((node.guard, tgt))
                edges.extend(self._internal_edges(node.unit))
        return edges

    def _exit_edges(self) -> list:
        unit = self.unit
        edges: list = []
        for name in unit.own_blocks:
            terminator = self.function.block(name).terminator
            if terminator.op is Opcode.BR:
                for target in terminator.targets:
                    if (
                        target != unit.cont[name]
                        and target != unit.guards.get(name)
                    ):
                        edges.append((name, target))
        return edges

    def _collect_registers(self) -> tuple:
        """(read, written) register-name sets over every block of the
        nest and the PHIs of its internal and exit edges."""
        read: set = set()
        written: set = set()
        function = self.function

        def visit(unit: FusionUnit) -> None:
            for name in unit.own_blocks:
                for inst in function.block(name).non_phi_instructions():
                    if inst.dst is not None:
                        written.add(inst.dst)
                    for arg in inst.args:
                        if type(arg) is not int:
                            read.add(arg)
            for node in unit.path:
                inner = _inner(node)
                if inner is not None:
                    visit(inner)

        visit(self.unit)
        for src, tgt in self.internal_edges:
            for phi in function.block(tgt).phis():
                written.add(phi.dst)
                value = dict(phi.incomings)[src]
                if type(value) is not int:
                    read.add(value)
        for src, tgt in self.exit_edges:
            for phi in function.block(tgt).phis():
                incoming = dict(phi.incomings)
                if src in incoming and type(incoming[src]) is not int:
                    read.add(incoming[src])
        return read, written


def functional_lines(
    site: int, assign: str, fallback: str, store_value
) -> list:
    """Functional access through the per-callsite segment cache ``_s<site>``.

    The cache holds the last Segment this site touched; a hit costs
    a bounds check and a list index instead of two function calls.
    Any irregular case — segment miss (unmapped) or misaligned
    address — delegates to the AddressSpace method ``fallback``, which
    raises the exact error the slow engines raise.  ``store_value`` is
    None for a load (the element is assigned with ``assign``).
    """
    s = f"_s{site}"
    if store_value is None:
        access = f"{assign}{s}.values[_o // {s}.elem_size]"
    else:
        access = f"{s}.values[_o // {s}.elem_size] = {store_value}"
    return [
        f"if {s} is None or not ({s}.base <= _a < {s}.end):",
        f"    {s} = sp_find(_a)",
        f"if {s} is None:",
        f"    {assign}{fallback}",
        "else:",
        f"    _o = _a - {s}.base",
        f"    if _o & ({s}.elem_size - 1):",
        f"        {assign}{fallback}",
        "    else:",
        f"        {access}",
    ]


def phi_copy_lines(pairs: list) -> list:
    """Sequence one edge's parallel PHI copies, ``(dst, expr)`` pairs
    of locals and literals, as straight-line assignments."""
    if len(pairs) == 1:
        dst, expr = pairs[0]
        return [] if dst == expr else [f"{dst} = {expr}"]
    # The copies are parallel; sequential direct assignments are
    # only safe when no destination is read by a later copy.
    # Sources are single registers or literals, so a membership
    # check decides it — the temp scheme is the fallback.
    dsts = {dst for dst, _ in pairs}
    if all(expr not in dsts for dst, expr in pairs if expr != dst):
        return [f"{dst} = {expr}" for dst, expr in pairs if dst != expr]
    lines = [f"_p{i} = {expr}" for i, (_, expr) in enumerate(pairs)]
    lines += [f"{dst} = _p{i}" for i, (dst, _) in enumerate(pairs)]
    return lines
