"""Record ``reference.json``: every op's exit code and outputs over the
whole p pool and every MC seed of the pool.

Run from the root of a checkout whose outputs are known to be right:

    python3 perfbench/record_reference.py

Exact ops run once with the whole pool as their grid; their rows are kept
per p, so any grid drawn from the pool can be checked.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

from checks import REFERENCE, observe
from workloads import MC_SEED_POOL, P_POOL, WORKLOADS, make_op, write_inputs

from run import ROOT, WORK


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from symperc.cli import main as cli_main

    work = WORK / "record"
    q5 = write_inputs(work)
    specs = {spec.key: spec for ops in WORKLOADS.values() for spec in ops}
    ops = {}
    for index, (key, spec) in enumerate(sorted(specs.items())):
        if spec.check == "mc":
            by_seed = {}
            for seed in MC_SEED_POOL:
                op = make_op(spec, index, (), seed, work, q5)
                with contextlib.redirect_stdout(io.StringIO()):
                    rc = cli_main(list(op.argv))
                if rc not in (0, 2):
                    raise RuntimeError(f"{key} seed {seed}: exit {rc}")
                by_seed[str(seed)] = observe(op)["rows"]
            ops[key] = {"by_seed": by_seed}
        else:
            grid = P_POOL if spec.grid else ()
            seed = MC_SEED_POOL[0] if spec.seeded else None
            op = make_op(spec, index, grid, seed, work, q5)
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli_main(list(op.argv))
            ops[key] = {"exit": rc, **observe(op)}
        print(f"recorded {key}", flush=True)
    REFERENCE.write_text(json.dumps(
        {"p_pool": P_POOL, "mc_seed_pool": MC_SEED_POOL, "ops": ops},
        indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
