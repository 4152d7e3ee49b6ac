"""Per-op correctness check against ``reference.json``.

Exact ops: the CSV ``(p, quantity, value)`` rows, grouped by p, must hash to
the rows recorded for that p.  MC ops: only the point estimates (the same
three columns) are compared, per MC seed, and the exit code may be 0 or 2;
intervals, verdicts and the JSON ``seed`` field are left out on purpose.
Check-symmetry ops: the JSON ``conditions`` block must match.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

from workloads import Op

REFERENCE = Path(__file__).resolve().parent / "reference.json"


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()[:32]


def csv_groups(path: Path) -> dict[str, list]:
    """CSV rows reduced to (p, quantity, value), grouped by p in file order."""
    groups: dict[str, list] = {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            groups.setdefault(row["p"], []).append(
                [row["p"], row["quantity"], row["value"]])
    return groups


def observe(op: Op) -> dict:
    """What the reference records for one op's outputs."""
    if op.spec.check == "symmetry":
        report = json.loads(op.json_path.read_text())
        return {"conditions": digest(report["conditions"])}
    groups = csv_groups(op.csv_path)
    if op.spec.check == "mc":
        return {"rows": digest([r for g in groups.values() for r in g])}
    return {"rows": {p: digest(rows) for p, rows in groups.items()}}


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def check_op(op: Op, rc: int, reference: dict) -> str | None:
    """None when the op's exit code and outputs match; else the reason."""
    ref = reference["ops"].get(op.spec.key)
    if ref is None:
        return "no reference recorded"
    if op.spec.check == "mc":
        if rc not in (0, 2):
            return f"exit {rc}, expected 0 or 2"
        want = ref["by_seed"].get(str(op.seed))
        if want is None:
            return f"no reference for MC seed {op.seed}"
        got = observe(op)["rows"]
        return None if got == want else "point estimates differ"
    if rc != ref["exit"]:
        return f"exit {rc}, expected {ref['exit']}"
    got = observe(op)
    if op.spec.check == "symmetry":
        return (None if got["conditions"] == ref["conditions"]
                else "conditions differ")
    want = {p: h for p, h in ref["rows"].items()
            if p in op.p_grid or p == ""}
    if got["rows"] != want:
        bad = sorted(set(got["rows"]) ^ set(want)
                     | {p for p in want if got["rows"].get(p) != want[p]})
        return f"rows differ at p in {bad}"
    return None
