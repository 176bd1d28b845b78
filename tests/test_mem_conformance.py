"""The MESI protocol conforms to its transition table, and its document
is the table.

Under the sanitizer every L1 and directory transition must be a row of
``repro.mem.protocol.ROWS`` and leave the line in that row's next state,
and every L1 fill must leave the line with one E/M holder or only
sharers.  The scenarios here run under that check on each kernel (the
compiled one interprets the rows in C): the protocol-path and coherence
suites with every case of their race repros, evicted-owner races and
seeded workouts, and the determinism goldens.  The rows they never take
are pinned below, each with the reason.
"""

import inspect
import pathlib

import pytest

from repro.machine import Machine
from repro.mem import protocol as P
from repro.mem.l1 import L1Cache
from repro.mem.l2dir import L2DirectorySlice
from repro.runner.engine import execute_spec
from repro.runner.spec import RunSpec
from repro.sim import kernel
from repro.sim.config import CMPConfig
from repro.verify.invariants import InvariantSanitizer
from tests import test_mem_coherence, test_mem_protocol_paths
from tests.test_kernel_determinism import GOLDEN

DOC = pathlib.Path(__file__).resolve().parent.parent / "docs" / "protocol.md"
BEGIN = "<!-- rendered from repro.mem.protocol.ROWS by protocol.render() -->"
END = "<!-- end of rendered transitions -->"

_STALE = ("a stale absent-ack lands one round trip after its eviction notice; "
          "here it lands in EM, FwdWait, FwdDone or DataWait")
_GAP = ("the owner's notice must land in the zero-delay gap between a "
        "request's acceptance and its first step")
_QUEUED = ("an Upgrade must arrive in the zero-delay gap after the last ack "
           "or in the 4-cycle grant wait")

#: rows no scenario takes, and why
UNREACHED = {
    **{(P.DIR, state, P.STALE_ACK): _STALE for state in (
        "I", "S", "Busy", "AckWait", "AcksDone", "GrantWait", "UnblockWait",
        "UnblockDone")},
    (P.DIR, "Busy", P.WB_DATA): _GAP,
    (P.DIR, "Busy", P.EVICT_CLEAN): _GAP,
    (P.DIR, "AcksDone", P.UPGRADE): _QUEUED,
    (P.DIR, "GrantWait", P.UPGRADE): _QUEUED,
    (P.DIR, "I", P.UPGRADE): "an Upgrade whose copy was invalidated must "
                             "reach the line after the new owner evicted it",
}


@pytest.fixture
def sanitizers(monkeypatch):
    """Every Machine built in the test, sanitized; the coherence suite's
    bare memory systems are built inside Machines for it."""
    built = []
    init = Machine.__init__

    def sanitized(self, *args, **kwargs):
        init(self, *args, **kwargs)
        if self.sanitizer is None:      # --sanitize already attached one
            InvariantSanitizer(self).attach()
        built.append(self.sanitizer)

    def make_system(n_cores=4):
        machine = Machine(CMPConfig.baseline(n_cores))
        return machine.sim, machine.mem

    monkeypatch.setattr(Machine, "__init__", sanitized)
    monkeypatch.setattr(test_mem_coherence, "make_system", make_system)
    return built


def _scenarios(module):
    return [fn for name, fn in inspect.getmembers(module, inspect.isfunction)
            if name.startswith("test_") and fn.__module__ == module.__name__
            and not inspect.signature(fn).parameters]


def test_every_row_is_taken_or_pinned(backend, sanitizers):
    for module in (test_mem_protocol_paths, test_mem_coherence):
        for scenario in _scenarios(module):
            scenario()
    for start in range(2425, 2434):
        for delay in (1, 5, 20):
            test_mem_protocol_paths.stale_recall_ack(start, delay)
    for start in (800, 807, 815):
        test_mem_protocol_paths.busy_line_eviction(start)
    for args in (None, "load", 2288), *(
            (again, op, 2291) for again in ("load", "store")
            for op in ("load", "store")):
        test_mem_protocol_paths.evicted_owner_asked_again(*args)
    for seed in test_mem_protocol_paths.WORKOUT_SEEDS:
        test_mem_protocol_paths.protocol_workout(seed)
    for entry in GOLDEN:
        execute_spec(RunSpec.from_dict(entry["spec"]))
    seen = set().union(*(s.transitions_seen for s in sanitizers))
    assert seen <= set(P.TABLE)
    never = sorted(set(P.TABLE) - seen)
    assert never == sorted(UNREACHED), "rows never taken: " + "".join(
        f"\n  {row}" for row in never)


def test_the_document_is_the_table():
    text = DOC.read_text(encoding="utf-8")
    assert BEGIN in text and END in text
    doc = text.split(BEGIN, 1)[1].split(END, 1)[0].strip()
    fresh = P.render().strip()
    assert doc == fresh, (
        "docs/protocol.md differs from the transition table; between its "
        f"markers it should read:\n\n{fresh}\n")


def test_the_compiled_kernel_runs_the_table():
    """The program the C interpreter was configured with, decoded from
    its opcodes, is every row but the hits, action for action; a bare
    action's argument is the row's next state."""
    impl = kernel.compiled_impl()
    if impl is None:
        pytest.skip("compiled backend not built on this machine")
    expected = {}
    for key, (actions, nxt) in P.TABLE.items():
        if actions == ("hit",):
            continue
        pairs = []
        for action in actions:
            name, _, arg = action.partition(":")
            pairs.append((name, arg or nxt))
        expected[key] = (tuple(pairs), nxt)
    assert impl.protocol_program() == expected


@pytest.mark.parametrize("cls, role", [(L1Cache, P.L1),
                                       (L2DirectorySlice, P.DIR)],
                         ids=[P.L1, P.DIR])
@pytest.mark.parametrize("checked", [False, True],
                         ids=["plain", "checked"])
def test_each_row_function_names_its_row(cls, role, checked):
    """Profiles and tracebacks tell the rows apart: each row's function
    has its own code location, whose file names the controller, state
    and event."""
    rows = P.bind(cls, role, checked=checked)
    where = {(row.__code__.co_filename, row.__code__.co_firstlineno,
              row.__code__.co_name): key for key, row in rows.items()}
    assert len(where) == len(rows)
    for (filename, _, _), (state, event) in where.items():
        assert filename == f"<{role} {state} on {event}>"
