"""NoC message types and the Figure 9 category taxonomy.

The paper breaks network traffic into three categories:

- **Request** — messages generated when loads/stores miss in cache and must
  access a remote directory (GetS / GetM / Upgrade).
- **Reply** — messages that carry data (directory data responses,
  cache-to-cache transfer data, memory fills).
- **Coherence** — everything the coherence protocol generates beyond that:
  invalidations, acknowledgements, forwards/recalls, writebacks, and
  dataless grants.
"""

from __future__ import annotations

import enum
import itertools
import sys
from dataclasses import dataclass, field
from typing import Any

__all__ = ["MsgCategory", "Message"]

_msg_ids = itertools.count()


class MsgCategory(str, enum.Enum):
    """Figure 9 traffic categories."""

    REQUEST = "request"
    REPLY = "reply"
    COHERENCE = "coherence"


@dataclass(slots=True)
class Message:
    """A single NoC message.

    Attributes:
        src: tile id of the sender.
        dst: tile id of the receiver.
        kind: protocol-level opcode (e.g. ``"GetM"``, ``"Inv"``, ``"Data"``).
        category: Figure 9 accounting category.
        size_bytes: wire size, header plus optional cache-line payload.
        payload: protocol-defined freight (addresses, values, ack counts...).
    """

    src: int
    dst: int
    kind: str
    category: MsgCategory
    size_bytes: int
    payload: Any = None
    msg_id: int = field(default_factory=lambda: next(_msg_ids))

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise ValueError("message size must be positive")
        # protocol opcodes come from a tiny fixed vocabulary; interning
        # makes every downstream kind comparison a pointer check
        self.kind = sys.intern(self.kind)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Message({self.kind} {self.src}->{self.dst} "
            f"{self.size_bytes}B {self.category.value})"
        )
