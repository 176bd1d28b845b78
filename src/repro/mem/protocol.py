"""MESI directory protocol message vocabulary.

One place that defines every protocol message kind, which Figure 9 category
it accounts to, and whether it carries a cache line.  Both the L1 controller
and the home L2/directory send through ``Mesh.send_proto``, which builds
each message with :func:`make_msg` or, on a compiled simulator, in the C
mesh core from these same tables, so sizes and categories stay consistent.

Protocol summary (blocking directory, home-collected acks — see DESIGN.md):

=============  ======================  =========  =====
kind           direction               category   data?
=============  ======================  =========  =====
GetS           L1 -> home              Request    no
GetM           L1 -> home              Request    no
Upgrade        L1 (holds S) -> home    Request    no
Data           home -> L1 (S grant)    Reply      yes
DataE          home -> L1 (E grant)    Reply      yes
DataM          home -> L1 (M grant)    Reply      yes
GrantM         home -> L1 (upgrade)    Coherence  no
Inv            home -> sharer          Coherence  no
InvAck         sharer -> home          Coherence  no
FwdGetS        home -> owner           Coherence  no
FwdGetM        home -> owner           Coherence  no
DataC2C        owner -> requester      Coherence  yes
Unblock        requester -> home       Coherence  no
RecallData     owner -> home (dirty downgrade)  Coherence  yes
RecallAck      owner -> home (clean/absent ack) Coherence  no
WBData         L1 evict M -> home      Coherence  yes
EvictClean     L1 evict E -> home      Coherence  no
=============  ======================  =========  =====

S-state evictions are silent (stale sharers simply ack a later Inv), matching
common directory MESI implementations.
"""

from __future__ import annotations

from typing import Any

from repro.noc.messages import Message, MsgCategory
from repro.sim.config import NoCConfig
from repro.sim.kernel import compiled_impl

__all__ = [
    "GETS", "GETM", "UPGRADE", "DATA", "DATA_E", "DATA_M", "GRANT_M",
    "INV", "INV_ACK", "FWD_GETS", "FWD_GETM", "DATA_C2C", "UNBLOCK",
    "RECALL_DATA", "RECALL_ACK",
    "WB_DATA", "EVICT_CLEAN", "make_msg", "HOME_BOUND_KINDS", "L1_BOUND_KINDS",
]

GETS = "GetS"
GETM = "GetM"
UPGRADE = "Upgrade"
DATA = "Data"
DATA_E = "DataE"
DATA_M = "DataM"
GRANT_M = "GrantM"
INV = "Inv"
INV_ACK = "InvAck"
FWD_GETS = "FwdGetS"
FWD_GETM = "FwdGetM"
DATA_C2C = "DataC2C"
UNBLOCK = "Unblock"
RECALL_DATA = "RecallData"
RECALL_ACK = "RecallAck"
WB_DATA = "WBData"
EVICT_CLEAN = "EvictClean"

_CATEGORY = {
    GETS: MsgCategory.REQUEST,
    GETM: MsgCategory.REQUEST,
    UPGRADE: MsgCategory.REQUEST,
    DATA: MsgCategory.REPLY,
    DATA_E: MsgCategory.REPLY,
    DATA_M: MsgCategory.REPLY,
    GRANT_M: MsgCategory.COHERENCE,
    INV: MsgCategory.COHERENCE,
    INV_ACK: MsgCategory.COHERENCE,
    FWD_GETS: MsgCategory.COHERENCE,
    FWD_GETM: MsgCategory.COHERENCE,
    DATA_C2C: MsgCategory.COHERENCE,
    UNBLOCK: MsgCategory.COHERENCE,
    RECALL_DATA: MsgCategory.COHERENCE,
    RECALL_ACK: MsgCategory.COHERENCE,
    WB_DATA: MsgCategory.COHERENCE,
    EVICT_CLEAN: MsgCategory.COHERENCE,
}

_CARRIES_DATA = {DATA, DATA_E, DATA_M, DATA_C2C, RECALL_DATA, WB_DATA}

# the C mesh core reads the tables from here: the extension never imports
# this package itself, which keeps its own import free of cycles
if compiled_impl() is not None:
    compiled_impl().configure_protocol(_CATEGORY, _CARRIES_DATA)

#: kinds a tile dispatcher routes to its L2/directory slice
HOME_BOUND_KINDS = frozenset(
    {GETS, GETM, UPGRADE, INV_ACK, RECALL_DATA, RECALL_ACK, WB_DATA,
     EVICT_CLEAN, UNBLOCK}
)
#: kinds a tile dispatcher routes to its L1 controller
L1_BOUND_KINDS = frozenset({DATA, DATA_E, DATA_M, GRANT_M, INV,
                            FWD_GETS, FWD_GETM, DATA_C2C})


def make_msg(noc: NoCConfig, src: int, dst: int, kind: str, line: int,
             payload: Any = None) -> Message:
    """Build a protocol message with the canonical size and category."""
    size = noc.data_msg_bytes if kind in _CARRIES_DATA else noc.control_msg_bytes
    return Message(
        src=src,
        dst=dst,
        kind=kind,
        category=_CATEGORY[kind],
        size_bytes=size,
        payload={"line": line, "extra": payload},
    )
