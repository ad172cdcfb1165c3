"""Rebuild corpus.json: the bases of every workload, the PD text of each
knot, and the digest of the report the program prints for each op.

    python3 bench/freeze.py

Run it only when a change to the reports is intended; the digests are
the behaviour contract the benchmark checks every op against.  Before
writing, it checks that the braid, the PD text and a rotated braid of
each base give one digest, and that every computed check passes.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

import corpus
import run
import verify


def report(cli, skein, argv, out_path) -> dict:
    rc, (t0, t1), rep = run.run_op(cli, skein, argv, out_path)
    if rc != 0:
        sys.exit(f"freeze: {argv[:2]} on {argv[-3:]} failed: {rc}")
    print(f"  {t1 - t0:8.3f} s  {' '.join(argv)[:100]}", file=sys.stderr)
    return rep


def main() -> int:
    cli, skein = run.import_program()
    from linkperiod.diagram import parse_braid, pd_from_braid
    workloads = corpus.build_bases()
    with tempfile.TemporaryDirectory() as tmp:
        out_path = Path(tmp) / "report.json"
        for name, spec in workloads.items():
            for base in spec["bases"]:
                if name == "knots":
                    base["pd"] = pd_from_braid(parse_braid(base["braid"])).pd_text()
                p = base.get("p")
                forms = [(False, 0), (False, 1)] + ([(True, 0)] if "pd" in base else [])
                reps = [report(cli, skein, corpus.op_argv(name, spec, base, p, pd, r),
                               out_path) for pd, r in forms]
                if len({verify.digest(r) for r in reps}) != 1:
                    sys.exit(f"freeze: {base['id']} p={p}: forms disagree")
                base["digest"] = verify.digest(reps[0])
                bad = verify.violations(base, p, reps[0])
                if bad:
                    sys.exit(f"freeze: {base['id']} p={p}: {bad}")
                print(f"{name:7s} {base['id']}", file=sys.stderr)
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=run.ROOT,
                            capture_output=True, text=True).stdout.strip()
    with open(corpus.CORPUS_PATH, "w") as fh:
        json.dump({"frozen_at": commit, "corpus_seed": corpus.CORPUS_SEED,
                   "workloads": workloads}, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
