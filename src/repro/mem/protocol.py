"""The MESI directory protocol: message vocabulary and transition table.

:data:`ROWS` is the whole protocol, in the style of a textbook "full
transition table": rows ``(controller, states, events) -> (actions, next
state)``.  The L1 (:mod:`repro.mem.l1`) and the home directory
(:mod:`repro.mem.l2dir`) dispatch every event through it, and an event
with no row for the line's state raises.  An action is one statement of
its controller's ``ACTIONS``; ``name:Arg`` passes it ``Arg``, a bare name
the row's next state.  :func:`program` lists every row's actions as
``(name, argument)`` pairs: :func:`bind` compiles each row from it into
one Python function, and the compiled kernel, which is handed the same
program when this module is imported, runs each action as one opcode.
``docs/protocol.md`` explains the states and events, and its
"Transitions" section is :func:`render`'s output.
"""

from __future__ import annotations

import functools
import sys
from typing import Any, Dict, Tuple

from repro.noc.messages import Message, MsgCategory
from repro.sim.config import NoCConfig
from repro.sim.kernel import compiled_impl

__all__ = [
    "GETS", "GETM", "UPGRADE", "DATA", "DATA_E", "DATA_M", "GRANT_M", "INV",
    "INV_ACK", "FWD_GETS", "FWD_GETM", "DATA_C2C", "UNBLOCK", "RECALL_DATA",
    "RECALL_ACK", "WB_DATA", "EVICT_CLEAN", "KINDS", "make_msg", "ROWS",
    "TABLE", "program", "bind", "hits", "render",
]

GETS, GETM, UPGRADE = "GetS", "GetM", "Upgrade"
DATA, DATA_E, DATA_M, GRANT_M = "Data", "DataE", "DataM", "GrantM"
INV, INV_ACK, FWD_GETS, FWD_GETM = "Inv", "InvAck", "FwdGetS", "FwdGetM"
DATA_C2C, UNBLOCK = "DataC2C", "Unblock"
RECALL_DATA, RECALL_ACK = "RecallData", "RecallAck"
WB_DATA, EVICT_CLEAN = "WBData", "EvictClean"

L1, DIR = "L1", "dir"
_REQ, _REPLY, _COH = (MsgCategory.REQUEST, MsgCategory.REPLY,
                      MsgCategory.COHERENCE)

#: kind -> (receiving controller, Figure 9 category, carries a line);
#: cache-to-cache transfers are Coherence in Figure 9
KINDS = {
    GETS: (DIR, _REQ, False), GETM: (DIR, _REQ, False),
    UPGRADE: (DIR, _REQ, False),      # sent only while the S copy is held
    DATA: (L1, _REPLY, True), DATA_E: (L1, _REPLY, True),
    DATA_M: (L1, _REPLY, True), GRANT_M: (L1, _COH, False),
    INV: (L1, _COH, False), INV_ACK: (DIR, _COH, False),
    FWD_GETS: (L1, _COH, False), FWD_GETM: (L1, _COH, False),
    DATA_C2C: (L1, _COH, True), UNBLOCK: (DIR, _COH, False),
    RECALL_DATA: (DIR, _COH, True), RECALL_ACK: (DIR, _COH, False),
    WB_DATA: (DIR, _COH, True), EVICT_CLEAN: (DIR, _COH, False),
}
_CATEGORY = {kind: cat for kind, (_, cat, _) in KINDS.items()}
_CARRIES_DATA = {kind for kind, (_, _, data) in KINDS.items() if data}


def make_msg(noc: NoCConfig, src: int, dst: int, kind: str, line: int,
             payload: Any = None) -> Message:
    """Build a protocol message with the canonical size and category."""
    size = (noc.data_msg_bytes if kind in _CARRIES_DATA
            else noc.control_msg_bytes)
    return Message(src=src, dst=dst, kind=kind, category=_CATEGORY[kind],
                   size_bytes=size, payload={"line": line, "extra": payload})


# events that are not message kinds
LOAD, STORE, REPLACEMENT = "Load", "Store", "Replacement"
LAST_INV_ACK, STALE_ACK = "LastInvAck", "StaleAck"
STAY = "="

L1_TRANSIENT = ("IS", "IM", "SM")
DIR_IDLE = ("I", "S", "EM")
_BUSY = ("Busy FwdWait FwdDone UnblockWait UnblockDone AckWait AcksDone "
         "DataWait GrantWait")

#: (controller, states, events, actions, next state); a row names several
#: states or events separated by spaces, and "=" keeps the state
ROWS = (
    # L1: the core's accesses (hits run in L1Cache.try_hit) and evictions
    (L1, "S E M", LOAD, ("hit",), STAY),
    (L1, "E M", STORE, ("hit",), "M"),          # E -> M is silent
    (L1, "I", LOAD, ("send:GetS",), "IS"),
    (L1, "I", STORE, ("send:GetM",), "IM"),
    (L1, "S", STORE, ("send:Upgrade",), "SM"),  # a dataless grant suffices
    (L1, "S", REPLACEMENT, ("wake",), "I"),     # S evictions are silent
    (L1, "E", REPLACEMENT, ("send:EvictClean", "wake"), "I"),
    (L1, "M", REPLACEMENT, ("writeback", "wake"), "I"),
    # L1: replies to its own request (installed at delivery, race rule 2)
    (L1, "IS", DATA, ("fill", "done"), "S"),
    (L1, "IS", DATA_E, ("fill", "done"), "E"),
    (L1, "IM", DATA_M, ("fill", "done"), "M"),
    (L1, "SM", GRANT_M, ("grant", "done"), "M"),   # the S copy stays
    (L1, "IS", DATA_C2C, ("fill", "send:Unblock", "done"), "S"),
    (L1, "IM", DATA_C2C, ("fill", "send:Unblock", "done"), "M"),
    # L1: the home's invalidations and forwards
    (L1, "S", INV, ("invalidate", "wake", "send:InvAck"), "I"),
    (L1, "SM", INV, ("invalidate", "wake", "send:InvAck"), "IM"),
    (L1, "I IS IM", INV, ("send:InvAck",), STAY),   # stale sharer
    (L1, "E", FWD_GETS, ("downgrade", "c2c:S", "recall:RecallAck"), "S"),
    (L1, "M", FWD_GETS, ("downgrade", "c2c:S", "recall:RecallData"), "S"),
    (L1, "E M", FWD_GETM,
     ("invalidate", "wake", "c2c:M", "recall:RecallAck"), "I"),
    # an evicted owner: its WBData/EvictClean is ahead of this ack
    (L1, "I IS IM", "FwdGetS FwdGetM", ("absent",), STAY),

    # home: requests queue behind a busy line (race rule 1)
    (DIR, "I S EM", "GetS GetM Upgrade", ("accept",), "Busy"),
    (DIR, _BUSY, "GetS GetM Upgrade", ("queue",), STAY),
    (DIR, "Busy", "GetS@EM", ("forward:FwdGetS",), "FwdWait"),
    (DIR, "Busy", "GetM@EM", ("forward:FwdGetM",), "FwdWait"),
    (DIR, "Busy", "GetS@I GetS@S", ("read",), "DataWait"),
    (DIR, "Busy", "GetM@I", ("clear", "read"), "DataWait"),
    (DIR, "Busy", "GetM@S Upgrade@S", ("invalidate",), "AckWait"),
    (DIR, "Busy", "Upgrade@I", ("clear", "delay"), "GrantWait"),
    # home: the owner's eviction notices
    (DIR, "EM", WB_DATA, ("writeback", "disown"), "I"),
    (DIR, "EM", EVICT_CLEAN, ("disown",), "I"),
    (DIR, "Busy", WB_DATA, ("writeback", "disown"), STAY),
    (DIR, "Busy", EVICT_CLEAN, ("disown",), STAY),
    # home: the forward's answer (first owner message wins, race rule 3)
    (DIR, "FwdWait", WB_DATA, ("writeback", "disown", "resume"),
     "FwdDone"),
    (DIR, "FwdWait", EVICT_CLEAN, ("disown", "resume"), "FwdDone"),
    (DIR, "FwdWait", RECALL_DATA, ("writeback", "resume"), "FwdDone"),
    (DIR, "FwdWait", RECALL_ACK, ("resume",), "FwdDone"),
    (DIR, "FwdWait FwdDone", UNBLOCK, ("note_unblock",), STAY),  # rule 4
    (DIR, "FwdDone", "resume.Evicted", ("read",), "DataWait"),
    (DIR, "FwdDone", "resume.GetS", ("share_c2c",), "UnblockWait"),
    (DIR, "FwdDone", "resume.GetM", ("own",), "UnblockWait"),
    (DIR, "FwdDone", "resume.GetS+Unblock", ("share_c2c", "use_unblock"),
     "S"),
    (DIR, "FwdDone", "resume.GetM+Unblock", ("own", "use_unblock"), "EM"),
    (DIR, "UnblockWait", UNBLOCK, ("resume",), "UnblockDone"),
    (DIR, "UnblockDone", "resume.GetS", (), "S"),
    (DIR, "UnblockDone", "resume.GetM", (), "EM"),
    # home: an absent-ack is always stale (race rule 6)
    (DIR, "I S EM " + _BUSY, STALE_ACK, (), STAY),
    # home: invalidation acks, then the grant
    (DIR, "AckWait", INV_ACK, ("ack",), STAY),
    (DIR, "AckWait", LAST_INV_ACK, ("ack", "resume"), "AcksDone"),
    (DIR, "AcksDone", "resume.GetM", ("clear", "read"), "DataWait"),
    (DIR, "AcksDone", "resume.Upgrade", ("clear", "delay"), "GrantWait"),
    (DIR, "DataWait", DATA, ("install", "share", "reply:Data"), "S"),
    (DIR, "DataWait", DATA_E, ("install", "own", "reply:DataE"), "EM"),
    (DIR, "DataWait", DATA_M, ("install", "own", "reply:DataM"), "EM"),
    (DIR, "GrantWait", GRANT_M, ("own", "reply:GrantM"), "EM"),
)


def _expand() -> Dict[Tuple[str, str, str], Tuple[Tuple[str, ...], str]]:
    table = {}
    for ctrl, states, events, actions, nxt in ROWS:
        for state in states.split():
            for event in events.split():
                key = (ctrl, state, event)
                if key in table:
                    raise ValueError(f"duplicate transition {key}")
                table[key] = (actions, state if nxt == STAY else nxt)
    return table


#: (controller, state, event) -> (actions, next state)
TABLE = _expand()


def program() -> Dict[Tuple[str, str, str], Tuple[tuple, str]]:
    """Every row but the hits: ``(controller, state, event) -> (((action,
    argument), ...), next state)``, a bare action's argument being the
    next state."""
    return {key: (tuple((name, arg or nxt) for name, _, arg in
                        (action.partition(":") for action in actions)), nxt)
            for key, (actions, nxt) in TABLE.items() if actions != ("hit",)}


@functools.lru_cache(maxsize=None)
def bind(cls: type, role: str, checked: bool = False) -> Dict[tuple, Any]:
    """Compile ``role``'s rows for the controller class ``cls``.

    Returns ``(state, event) -> function of cls.ROW_ARGS``.  A row's
    function runs its actions' statements in order (``cls.ACTIONS[name]``
    with ``{arg}`` the action's argument), then ``cls.enter(state, next)``,
    which records the next state where the actions did not.  A checked
    row calls ``self._observer(self, line, msg, (state, event, next))``
    just before that.  Each function is compiled under the file name
    ``<controller state on event>``, which profiles and tracebacks show.
    Hit rows are left to :func:`hits`.
    """
    namespace = vars(sys.modules[cls.__module__])
    rows = {}
    for (who, state, event), (pairs, nxt) in program().items():
        if who != role:
            continue
        body = []
        for name, arg in pairs:
            body += cls.ACTIONS[name].format(arg=repr(arg)).split("\n")
        if checked:
            body.append(f"self._observer(self, line, msg, "
                        f"{(state, event, nxt)!r})")
        body += cls.enter(state, nxt)
        source = "\n    ".join([f"def row({cls.ROW_ARGS}):", *body, "pass"])
        scope: Dict[str, Any] = {}
        exec(compile(source, f"<{role} {state} on {event}>", "exec"),
             namespace, scope)
        rows[state, event] = scope["row"]
    return rows


def hits(event: str) -> Dict[str, str]:
    """State -> next state of the L1 rows that serve ``event`` as a hit."""
    return {state: nxt for (who, state, ev), (actions, nxt) in TABLE.items()
            if who == L1 and ev == event and actions == ("hit",)}


def render() -> str:
    """The table as the Markdown of ``docs/protocol.md`` "Transitions"."""
    out = []
    for ctrl, title in ((L1, "L1 controller"), (DIR, "Home directory")):
        out += [f"### {title}", "", "| state | event | actions | next |",
                "|---|---|---|---|"]
        for who, states, events, actions, nxt in ROWS:
            if who == ctrl:
                acts = ", ".join(a.replace(":", " ") for a in actions) or "-"
                out.append(f"| {states} | {events} | {acts} | {nxt} |")
        out.append("")
    return "\n".join(out)


# the compiled kernel runs the same rows: it is handed them here, once,
# and never imports this package itself, which keeps its import free of
# cycles
if compiled_impl() is not None:
    compiled_impl().configure_protocol(_CATEGORY, _CARRIES_DATA, program(),
                                       L1_TRANSIENT, DIR_IDLE)
