"""Per-op output checks: every op either passes all of them or counts failed.

Fingerprints are ``repro.runner.fingerprint.result_fingerprint`` digests.
At the default seed each op's fingerprint must equal the pinned one in
``fingerprints.json`` (a spec with no pinned entry yet is recorded
instead).  Under any seed, every repeat of a spec must reproduce the
fingerprint of its first run.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional, Sequence

__all__ = ["Checker", "load_pins", "save_pins"]

#: errors kept verbatim in the output (the count is always exact)
MAX_ERRORS = 20


class Checker:
    """Counts attempted and failed ops for one workload run."""

    def __init__(self, pinned: Optional[Dict[str, str]] = None,
                 record: bool = False) -> None:
        self.pinned = dict(pinned or {})
        self.record = record
        self.first: Dict[str, str] = {}
        self.new_pins: Dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def op(self, key: str, fingerprint: Optional[str] = None,
           problems: Sequence[str] = ()) -> None:
        """Record one attempted op; it fails on any problem given or found."""
        problems = list(problems)
        if fingerprint is not None:
            pinned = self.pinned.get(key)
            if pinned is not None:
                if fingerprint != pinned:
                    problems.append(f"fingerprint {fingerprint[:12]} != "
                                    f"pinned {pinned[:12]}")
            elif self.record:
                self.new_pins.setdefault(key, fingerprint)
            first = self.first.setdefault(key, fingerprint)
            if fingerprint != first:
                problems.append(f"fingerprint {fingerprint[:12]} != first "
                                f"repeat {first[:12]}")
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.errors) < MAX_ERRORS:
                self.errors.append(f"{key}: {'; '.join(problems)}")

    def as_dict(self) -> Dict:
        return {"attempted": self.attempted, "failed": self.failed,
                "errors": self.errors, "new_pins": self.new_pins}


def load_pins(path: str) -> Dict[str, Dict[str, str]]:
    """The pinned fingerprints, ``{section: {spec key: fingerprint}}``."""
    if not os.path.exists(path):
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def save_pins(path: str, pins: Dict[str, Dict[str, str]]) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)
