"""Report verification: every op's JSON report must match the digest
frozen in corpus.json, and pass the checks the benchmark computes itself.
"""

from __future__ import annotations

import hashlib
import json


def digest(report: dict) -> str:
    """SHA-256 of the report without its input echo.  Everything else in
    a report is an invariant of the link, so the braid, its rotations and
    its PD text all share one digest."""
    body = {k: v for k, v in report.items() if k != "input"}
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()


def violations(base: dict, p: int | None, report: dict) -> list[str]:
    """Reasons the report is wrong; empty when it passes."""
    out = []
    if digest(report) != base["digest"]:
        out.append("digest differs from the frozen report")
    verdict = report.get("verdict")
    if "torus" in base:
        # T(a, b) is d-periodic for every divisor d of a or b.
        a, b = base["torus"]
        if (a % p == 0 or b % p == 0) and verdict == f"not-{p}-periodic":
            out.append(f"torus knot {base['id']} called not {p}-periodic")
    if "control" in base:
        want = base["control"]
        per_n = report.get("criteria", {}).get("quantum-minus", {}).get("per_n", {})
        if not per_n or any(want not in [sorted(t) for t in tuples]
                            for tuples in per_n.values()):
            out.append(f"control {base['id']} lost its linking tuple {want}")
    return out
