"""Workload definitions and the seeded input generator.

Every op is one call of ``symperc.cli.main(argv)``.  A run's seed picks the
p-grids of the exact ops from ``P_POOL`` and the Monte Carlo seeds from
``MC_SEED_POOL``; ``reference.json`` holds the outputs for every member of
both pools, so any seed's outputs can be checked exactly.

All pool denominators are primes in 83..97: Fraction cost grows with the
denominator, so a grid of small denominators such as ``1/2`` would flatter
evaluation, and a mix of small and large ones would make the cost of a run
depend on its seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

P_POOL = (
    "2/89", "7/89", "11/89", "11/83", "14/97", "16/97", "20/97", "22/89",
    "30/83", "32/83", "43/97", "40/83", "45/89", "46/83", "54/97", "64/97",
    "61/89", "58/83", "65/89", "71/97", "76/97", "77/89", "89/97", "88/89",
)

MC_SEED_POOL = (78289, 272551, 381916, 424440, 452546, 527292, 704190,
                875708)

Q5_PLACEHOLDER = "{q5}"


@dataclass(frozen=True)
class OpSpec:
    """One CLI invocation before the seeded inputs are filled in.

    ``check`` selects the correctness check: ``exact`` compares the CSV
    ``(p, quantity, value)`` rows per p, ``mc`` compares the point estimates
    per MC seed, ``symmetry`` compares the JSON ``conditions`` block.
    """

    argv: tuple[str, ...]
    check: str
    grid: int = 0  # p values drawn from P_POOL
    seeded: bool = False  # takes --seed
    csv: bool = True  # subcommand has --csv
    threads: bool = True  # subcommand has --threads
    samples: int = 0  # Monte Carlo samples requested
    configs: int = 0  # size of the configuration spaces decided
    label: str = ""  # names the op in per-layer MC rates

    @property
    def key(self) -> str:
        return " ".join(self.argv)


@dataclass(frozen=True)
class Op:
    spec: OpSpec
    p_grid: tuple[str, ...]
    seed: int | None
    argv: tuple[str, ...]
    json_path: Path
    csv_path: Path | None


def _corpus_builtins() -> list[OpSpec]:
    # The three z2-n3-* builtins are left out: exact-sweep covers that torus.
    names = ("asym-path4", "bunkbed-cycle3", "bunkbed-cycle3-site",
             "bunkbed-cycle5", "bunkbed-path2", "bunkbed-path2-rc2",
             "bunkbed-path2-rchalf", "bunkbed-path3", "layered-m6-a",
             "layered-m8-b", "mc-bunkbed-path2")
    out = []
    for name in names:
        ref = f"builtin:{name}"
        out.append(OpSpec(("check-symmetry", "--scenario", ref), "symmetry",
                          csv=False, threads=False))
        out.append(OpSpec(("enumerate", "--scenario", ref), "exact", grid=5))
        out.append(OpSpec(("verify-identity", "--scenario", ref), "exact",
                          grid=5))
    return out


WORKLOADS: dict[str, tuple[OpSpec, ...]] = {
    "exact-sweep": (
        OpSpec(("z2", "--size", "3"), "exact", grid=3, configs=1 << 18),
        OpSpec(("bunkbed", "--base", "cycle:6", "--law", "rc:2"), "exact",
               grid=3, configs=1 << 18),
        OpSpec(("bunkbed", "--base", "cycle:9", "--law", "site"), "exact",
               grid=3, configs=1 << 18),
    ),
    "mc-sample": (
        # two relations, one estimate_joint of n samples each
        OpSpec(("z2", "--size", "20", "--mode", "mc", "--n", "2000", "--p",
                "1/2"), "mc", seeded=True, samples=2 * 2000,
               label="torus20"),
        OpSpec(("bunkbed", "--base", "cycle:5", "--mode", "mc", "--n",
                "100000", "--p", "1/2"), "mc", seeded=True, samples=100000,
               label="bunkbed-c5"),
        # one estimate_connection of n samples per distance 0..6
        OpSpec(("hypercube", "--d", "6", "--mode", "mc", "--n", "3000",
                "--p", "1/2"), "mc", seeded=True, samples=7 * 3000,
               label="hypercube6"),
    ),
    "corpus-small": (
        *_corpus_builtins(),
        OpSpec(("mc", "--scenario", "builtin:mc-bunkbed-path2", "--n",
                "20000"), "mc", seeded=True, samples=20000),
        OpSpec(("hypercube", "--d", "3"), "exact", grid=12),
        OpSpec(("layered", "--base", "path:1", "--m", "8", "--choice", "b",
                "--k", "1", "--period", "2"), "exact", grid=5),
        OpSpec(("bunkbed", "--base", "cycle:4", "--law", "site"), "exact",
               grid=5),
        OpSpec(("verify-group-theorem", "--group", "d4-on-c4", "--trials",
                "100"), "exact", seeded=True, threads=False),
        OpSpec(("verify-group-theorem", "--group", "bunkbed-c3", "--trials",
                "100"), "exact", seeded=True, threads=False),
        OpSpec(("check-symmetry", "--scenario", Q5_PLACEHOLDER), "symmetry",
               csv=False, threads=False),
    ),
}


def q5_scenario() -> dict:
    """Q5 under its full hyperoctahedral group (order 2^5 * 5! = 3840),
    comparing the even-parity vertices with the odd ones."""
    d = 5
    labels = [[(v >> i) & 1 for i in range(d)] for v in range(1 << d)]
    return {
        "name": "q5-parity",
        "graph": {"builder": "hypercube", "d": d},
        "v_plus": [lab for lab in labels if sum(lab) % 2 == 0],
        "v_minus": [lab for lab in labels if sum(lab) % 2 == 1],
        "origin": [0] * d,
        "generators": (
            [{"name": "axis_reflection", "axis": i, "center2": 1}
             for i in range(d)]
            + [{"name": "swap_axes", "a": i, "b": i + 1}
               for i in range(d - 1)]),
        "law": "bond",
        "p_grid": ["1/2"],
    }


def write_inputs(work: Path) -> Path:
    """Write the generated scenario files; return the Q5 file's path."""
    work.mkdir(parents=True, exist_ok=True)
    path = work / "q5.json"
    path.write_text(json.dumps(q5_scenario(), indent=1) + "\n")
    return path


def make_op(spec: OpSpec, index: int, p_grid: tuple[str, ...],
            seed: int | None, work: Path, q5: Path) -> Op:
    argv = [str(q5) if a == Q5_PLACEHOLDER else a for a in spec.argv]
    if p_grid:
        argv += ["--p", ",".join(p_grid)]
    if seed is not None:
        argv += ["--seed", str(seed)]
    if spec.threads:
        argv += ["--threads", "1"]
    json_path = work / f"op{index:02d}.json"
    argv += ["--json", str(json_path)]
    csv_path = None
    if spec.csv:
        csv_path = work / f"op{index:02d}.csv"
        argv += ["--csv", str(csv_path)]
    return Op(spec, p_grid, seed, tuple(argv), json_path, csv_path)


def build_ops(workload: str, seed: int, work: Path, q5: Path) -> list[Op]:
    """The workload's ops with p-grids and MC seeds drawn from ``seed``."""
    rng = random.Random(f"{workload}/{seed}")
    ops = []
    for index, spec in enumerate(WORKLOADS[workload]):
        p_grid = tuple(rng.sample(P_POOL, spec.grid))
        if spec.check == "mc":
            op_seed = rng.choice(MC_SEED_POOL)
        elif spec.seeded:
            op_seed = rng.randrange(1, 1 << 31)
        else:
            op_seed = None
        ops.append(make_op(spec, index, p_grid, op_seed, work, q5))
    return ops
