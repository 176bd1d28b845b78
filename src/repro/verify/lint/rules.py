"""The simulator-aware lint rules (SIM001-SIM007).

Generic linters cannot know that this codebase's ``acquire``/``release``
are *coroutines*, that the kernel turns yielded ints into cycle delays,
that the event heap owns simulated time, or that a workload ``build``
closure is instantiated once and shared by every core.  Each rule here
encodes one of those simulator-specific hazards; see the individual rule
docstrings, ``docs/race-detection.md`` (SIM005-SIM007 complement the
dynamic race detector), and ``tests/lint_fixtures/`` for worked examples.

Suppress a finding with ``# noqa: SIMxxx`` (or a bare ``# noqa``) on any
physical line of the flagged statement.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.verify.lint.framework import Rule, register_rule

__all__ = ["COROUTINE_METHODS", "CONTEXT_COROUTINES", "KERNEL_OWNED_ATTRS"]

#: method names that are generator coroutines throughout the codebase and
#: therefore must be driven with ``yield from`` (SIM001)
COROUTINE_METHODS = frozenset({"acquire", "release"})

#: ``ThreadContext`` coroutine methods a thread program drives through
#: ``yield from`` (SIM006); receiver must literally be ``ctx`` so that
#: unrelated ``load``/``store`` methods on other objects stay out of scope
CONTEXT_COROUTINES = frozenset({"load", "store", "rmw", "compute", "idle",
                                "spin_until"})

#: ``random``-module functions that are legitimate without a seed
_RANDOM_OK = frozenset({"Random", "SystemRandom", "seed", "getstate",
                        "setstate"})
#: ``numpy.random`` entry points that produce seeded/explicit generators
_NP_RANDOM_OK = frozenset({"default_rng", "Generator", "SeedSequence",
                           "RandomState", "BitGenerator", "PCG64"})

#: attributes owned by the event kernel: writable only in repro/sim/kernel.py
KERNEL_OWNED_ATTRS = frozenset({
    "now", "_heap", "_ready", "_free", "_seq",       # Simulator
    "_events_executed", "_finish_stamp",
    "_signal_registry", "_registry_compact_at", "_retain_values",
    "_live_processes",
    "finished", "_gen", "waiting_on",                # Process
    "_waiters", "fire_count", "last_value",          # Signal
    "on_event",
})

#: container methods that mutate in place (SIM007 shared-state detection)
_MUTATING_METHODS = frozenset({"append", "add", "update", "setdefault",
                               "pop", "popitem", "extend", "insert",
                               "remove", "discard", "clear"})


def _ctx_call(node: ast.AST, methods: FrozenSet[str],
              receiver: Optional[str] = None) -> Optional[str]:
    """Return the method name if ``node`` is ``<recv>.<method>(...)`` with
    ``method`` in ``methods`` (and, when given, ``recv`` the literal name
    ``receiver``); else ``None``."""
    if not (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in methods):
        return None
    if receiver is not None and not (isinstance(node.func.value, ast.Name)
                                     and node.func.value.id == receiver):
        return None
    return node.func.attr


@register_rule
class DiscardedCoroutine(Rule):
    """SIM001 — ``acquire``/``release`` coroutine call discarded.

    ``ctx.acquire(lock)`` / ``device.release(core)`` as a bare statement
    (or a plain ``yield`` of it) creates the generator and throws it away:
    the lock operation silently never runs.  They must be driven with
    ``yield from``.
    """

    code = "SIM001"
    summary = "acquire/release coroutine called without 'yield from'"

    def visit_Expr(self, node: ast.Expr) -> None:
        name = _ctx_call(node.value, COROUTINE_METHODS)
        if name is not None:
            self.add(node,
                     f"coroutine '{name}(...)' called as a bare statement: "
                     "the generator is discarded and the lock operation "
                     "never runs — drive it with 'yield from'")

    def visit_Yield(self, node: ast.Yield) -> None:
        name = (_ctx_call(node.value, COROUTINE_METHODS)
                if node.value else None)
        if name is not None:
            self.add(node,
                     f"'yield {name}(...)' yields the generator object "
                     "itself — use 'yield from' to run the coroutine")


@register_rule
class BoolDelay(Rule):
    """SIM002 — bool yielded as a delay.

    ``yield True`` reaches the kernel as an int subclass and historically
    acted as a 1-cycle delay; the kernel now rejects bools at runtime and
    this rule catches them before a simulation ever runs.
    """

    code = "SIM002"
    summary = "bool yielded where a cycle delay is expected"

    def visit_Yield(self, node: ast.Yield) -> None:
        if (isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, bool)):
            self.add(node,
                     f"'yield {node.value.value}' is a bool, not a cycle "
                     "delay; the kernel rejects it at runtime")


@register_rule
class UnseededRandomness(Rule):
    """SIM003 — unseeded randomness in simulator code.

    Module-level ``random.random()`` / ``numpy.random.<fn>()`` draw from
    a process-global, unseeded stream and silently break bit-reproducible
    simulation.  Use ``random.Random(seed)`` or
    ``numpy.random.default_rng(seed)``.
    """

    code = "SIM003"
    summary = "global unseeded RNG breaks reproducibility"

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if not isinstance(func, ast.Attribute):
            return
        # random.<fn>(...)
        if (isinstance(func.value, ast.Name) and func.value.id == "random"
                and func.attr not in _RANDOM_OK):
            self.add(node,
                     f"'random.{func.attr}()' uses the global unseeded "
                     "RNG and breaks reproducibility — use "
                     "random.Random(seed)")
        # np.random.<fn>(...) / numpy.random.<fn>(...)
        if (isinstance(func.value, ast.Attribute)
                and func.value.attr == "random"
                and isinstance(func.value.value, ast.Name)
                and func.value.value.id in ("np", "numpy")
                and func.attr not in _NP_RANDOM_OK):
            self.add(node,
                     f"'{func.value.value.id}.random.{func.attr}()' "
                     "uses numpy's global unseeded RNG — use "
                     "numpy.random.default_rng(seed)")


@register_rule
class KernelStateWrite(Rule):
    """SIM004 — kernel-owned state mutated from model code.

    Assigning ``sim.now``, ``proc.finished``, a signal's waiter list, etc.
    from a component or callback corrupts the event engine; all such state
    may only change inside ``repro/sim/kernel.py`` through the scheduling
    APIs (including ``add_on_event``/``remove_on_event`` for hooks).
    """

    code = "SIM004"
    summary = "kernel-owned attribute assigned outside sim/kernel.py"

    def applies(self) -> bool:
        return not self.ctx.is_kernel

    def _check(self, target: ast.AST, node: ast.AST) -> None:
        if (isinstance(target, ast.Attribute)
                and target.attr in KERNEL_OWNED_ATTRS):
            # allow hooking the public checkpoint: `sim.on_event = fn`
            if target.attr == "on_event":
                return
            self.add(node,
                     f"assignment to kernel-owned attribute "
                     f"'.{target.attr}' outside repro/sim/kernel.py — "
                     "model code must go through the scheduling APIs")

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check(target, node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check(node.target, node)


class _TooManyStates(Exception):
    """SIM005 bail-out: the path-state set exploded; skip the function."""


@register_rule
class LeakedLock(Rule):
    """SIM005 — lock acquired but not released on some path.

    A path-sensitive walk over each function tracks the set of locks held
    after ``yield from ctx.acquire(X)`` / ``... ctx.release(X)`` (locks are
    keyed by the textual form of ``X``).  ``if`` branches fork the state,
    loops run zero-or-once, ``return``/``raise`` end a path, and ``finally``
    blocks apply to both normal and exiting paths.  Any path that leaves
    the function still holding a lock is reported at the acquire site —
    in this simulator a leaked lock deadlocks every later acquirer.

    Timed acquires — ``ok = yield from ctx.acquire(X, timeout=...)`` —
    fork the state into held/not-held, and the boolean they bind is
    correlated with later ``if ok:`` / ``if not ok:`` tests so the
    idiomatic shedding pattern (release only under ``if ok:``) analyzes
    cleanly without suppressions.  Reassigning the bound name drops the
    correlation.

    The analysis is intraprocedural and syntactic: helper coroutines that
    acquire on behalf of the caller are out of scope, and a function whose
    branching exceeds 64 simultaneous path states is skipped.
    """

    code = "SIM005"
    summary = "ctx.acquire(...) without a matching release on some path"

    _MAX_STATES = 64

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._analyze(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._analyze(node)

    # -- helpers --------------------------------------------------------
    @staticmethod
    def _lock_op(stmt: ast.stmt
                 ) -> Optional[Tuple[str, str, ast.stmt, Optional[str], bool]]:
        """``(op, lock_key, stmt, bound_var, timed)`` when ``stmt`` is
        ``[x =] yield from ctx.acquire/release(lock[, timeout=...])``."""
        value = None
        var = None
        if isinstance(stmt, ast.Expr):
            value = stmt.value
        elif isinstance(stmt, ast.Assign):
            value = stmt.value
            if (len(stmt.targets) == 1
                    and isinstance(stmt.targets[0], ast.Name)):
                var = stmt.targets[0].id
        if not isinstance(value, ast.YieldFrom):
            return None
        name = _ctx_call(value.value, COROUTINE_METHODS, receiver="ctx")
        if name is None or not value.value.args:
            return None
        call = value.value
        timed = (len(call.args) > 1
                 or any(kw.arg == "timeout" for kw in call.keywords))
        return name, ast.dump(call.args[0]), stmt, var, timed

    @staticmethod
    def _test_var(test: ast.AST) -> Optional[Tuple[str, bool]]:
        """``(name, positive)`` for an ``if <name>:`` / ``if not <name>:``
        test; None for anything more complex."""
        if isinstance(test, ast.Name):
            return test.id, True
        if (isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not)
                and isinstance(test.operand, ast.Name)):
            return test.operand.id, False
        return None

    def _analyze(self, func: ast.AST) -> None:
        # cheap pre-scan: most functions never touch a lock
        if not any(self._lock_op(stmt) for stmt in ast.walk(func)
                   if isinstance(stmt, ast.stmt)):
            return
        self._first_acquire: Dict[str, ast.stmt] = {}
        #: boolean var name -> lock key it reflects (timed-acquire result)
        self._cond_vars: Dict[str, str] = {}
        exits: Set[FrozenSet[str]] = set()
        try:
            through = self._flow(func.body, {frozenset()}, exits)
        except _TooManyStates:
            return
        leaked: Set[str] = set()
        for state in through | exits:
            leaked |= state
        for key in sorted(leaked):
            site = self._first_acquire[key]
            lock_src = ast.unparse(site.value.value.args[0])  # type: ignore[attr-defined]
            self.add(site,
                     f"lock '{lock_src}' acquired here is not released on "
                     "every path out of the function — a leaked lock "
                     "deadlocks every later acquirer")

    def _flow(self, stmts: List[ast.stmt],
              states: Set[FrozenSet[str]],
              exits: Set[FrozenSet[str]]) -> Set[FrozenSet[str]]:
        """Push ``states`` through ``stmts``; paths that leave the function
        land in ``exits``; returns the fall-through states."""
        for stmt in stmts:
            if not states:
                break
            states = self._step(stmt, states, exits)
            if len(states) > self._MAX_STATES:
                raise _TooManyStates
        return states

    def _step(self, stmt: ast.stmt, states: Set[FrozenSet[str]],
              exits: Set[FrozenSet[str]]) -> Set[FrozenSet[str]]:
        op = self._lock_op(stmt)
        if op is not None:
            name, key, site, var, timed = op
            if name == "acquire":
                self._first_acquire.setdefault(key, site)
                if var is not None:
                    # untimed acquires always return True, so the binding
                    # is sound for them too (every state carries the key)
                    self._cond_vars[var] = key
                if timed:
                    # the acquire may have timed out: fork held/not-held
                    return {s | {key} for s in states} | set(states)
                return {s | {key} for s in states}
            return {s - {key} for s in states}
        if isinstance(stmt, ast.Assign):
            # reassigning a correlated boolean invalidates the correlation
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    self._cond_vars.pop(target.id, None)
        if isinstance(stmt, (ast.Return, ast.Raise)):
            exits |= states
            return set()
        if isinstance(stmt, ast.If):
            test = self._test_var(stmt.test)
            key = self._cond_vars.get(test[0]) if test is not None else None
            if key is not None:
                held = {s for s in states if key in s}
                free = states - held
                body_states, else_states = ((held, free) if test[1]
                                            else (free, held))
                taken = self._flow(stmt.body, set(body_states), exits)
                skipped = self._flow(stmt.orelse, set(else_states), exits)
                return taken | skipped
            taken = self._flow(stmt.body, set(states), exits)
            skipped = self._flow(stmt.orelse, set(states), exits)
            return taken | skipped
        if isinstance(stmt, (ast.For, ast.While, ast.AsyncFor)):
            # body runs zero or one time — enough to catch an acquire
            # whose release lives outside the loop (or vice versa)
            once = self._flow(stmt.body, set(states), exits)
            return self._flow(stmt.orelse, states | once, exits)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return self._flow(stmt.body, states, exits)
        if isinstance(stmt, ast.Try):
            inner_exits: Set[FrozenSet[str]] = set()
            normal = self._flow(stmt.body, set(states), inner_exits)
            for handler in stmt.handlers:
                # an exception may land after any prefix of the body; the
                # pre-body state is the sound entry approximation
                normal |= self._flow(handler.body, set(states), inner_exits)
            normal = self._flow(stmt.orelse, normal, inner_exits)
            if stmt.finalbody:
                # finally applies to fall-through AND exiting paths
                normal = self._flow(stmt.finalbody, normal, exits)
                exits |= self._flow(stmt.finalbody, inner_exits, exits)
            else:
                exits |= inner_exits
            return normal
        # nested defs get their own independent analysis via the dispatcher
        return states


@register_rule
class DiscardedContextOp(Rule):
    """SIM006 — a ``ThreadContext`` operation's effect is thrown away.

    Two shapes: a bare ``ctx.load(...)`` statement (or a plain ``yield``
    of it) discards the *coroutine*, so the memory operation never runs
    and costs zero cycles; and ``yield from ctx.load(...)`` as a bare
    statement runs the load but discards the *value*, which is almost
    always a missing ``x = `` — annotate deliberate cache-touch reads
    with ``# noqa: SIM006``.
    """

    code = "SIM006"
    summary = "ctx memory-op coroutine or loaded value discarded"

    def visit_Expr(self, node: ast.Expr) -> None:
        value = node.value
        name = _ctx_call(value, CONTEXT_COROUTINES, receiver="ctx")
        if name is not None:
            self.add(node,
                     f"'ctx.{name}(...)' as a bare statement discards the "
                     "coroutine: the operation never runs — drive it with "
                     "'yield from'")
            return
        if isinstance(value, ast.Yield) and value.value is not None:
            name = _ctx_call(value.value, CONTEXT_COROUTINES, receiver="ctx")
            if name is not None:
                self.add(node,
                         f"'yield ctx.{name}(...)' yields the generator "
                         "object itself — use 'yield from'")
                return
        if isinstance(value, ast.YieldFrom):
            name = _ctx_call(value.value, frozenset({"load"}),
                             receiver="ctx")
            if name is not None:
                self.add(node,
                         "loaded value is discarded — assign it "
                         "('x = yield from ctx.load(...)'), or mark a "
                         "deliberate cache touch with '# noqa: SIM006'")


@register_rule
class SharedWorkloadState(Rule):
    """SIM007 — Python-level shared mutable state in a workload.

    Applies only to files under a ``workloads/`` directory.  A workload's
    per-core state must live in simulated memory (where the race detector
    and coherence model see it) or be allocated per ``make_program`` call;
    two shapes silently share one Python object across all cores instead:

    - a mutable default argument (``def build(..., stats={})``) — one
      dict for every instantiation;
    - a module-level mutable container mutated from inside a function —
      one object for every machine in the process, which also breaks
      repeated-run determinism.
    """

    code = "SIM007"
    summary = "shared mutable Python state in a workload module"

    _MUTABLE_LITERALS = (ast.Dict, ast.List, ast.Set, ast.DictComp,
                         ast.ListComp, ast.SetComp)

    def applies(self) -> bool:
        return self.ctx.is_workload

    @classmethod
    def _is_mutable_ctor(cls, node: ast.AST) -> bool:
        if isinstance(node, cls._MUTABLE_LITERALS):
            return True
        return (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("dict", "list", "set"))

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None]
        for default in defaults:
            if self._is_mutable_ctor(default):
                self.add(default,
                         f"mutable default argument in '{node.name}' is "
                         "one shared object across every call — default "
                         "to None and allocate inside, or put the state "
                         "in simulated memory")

    def visit_Module(self, node: ast.Module) -> None:
        shared: Dict[str, ast.stmt] = {}
        for stmt in node.body:
            if isinstance(stmt, ast.Assign) and self._is_mutable_ctor(
                    stmt.value):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        shared[target.id] = stmt
            elif (isinstance(stmt, ast.AnnAssign) and stmt.value is not None
                    and self._is_mutable_ctor(stmt.value)
                    and isinstance(stmt.target, ast.Name)):
                shared[stmt.target.id] = stmt
        if not shared:
            return
        for func in ast.walk(node):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for sub in ast.walk(func):
                name = self._mutated_name(sub)
                if name is not None and name in shared:
                    self.add(sub,
                             f"module-level mutable '{name}' is mutated "
                             f"inside '{func.name}' — one Python object "
                             "shared by every core and every machine; "
                             "allocate per-core state in build() or use "
                             "simulated memory")

    @staticmethod
    def _mutated_name(node: ast.AST) -> Optional[str]:
        """Name of a module-level container this node mutates, if any."""
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                if (isinstance(target, ast.Subscript)
                        and isinstance(target.value, ast.Name)):
                    return target.value.id
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _MUTATING_METHODS
                and isinstance(node.func.value, ast.Name)):
            return node.func.value.id
        return None
