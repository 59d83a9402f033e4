"""The benchmark workloads: which CLI commands each one runs.

The commands come in four groups, each aimed at one layer of the
program: `certificates` (Q layer and mod-l certificates), `groups` (F_p
module layer), `series` (dense transfer at the frontier, zeta) and
`oracle` (naive enumeration).  The benchmark's workloads run two
groups each: `algebra` = certificates + groups, `counting` = series +
oracle (see bench/README.md for why two and not four).

The seed picks the primes and parameters among admissible values of the
same size class; the default seed gives the inputs listed in
bench/README.md.  `series` stays at the transfer frontier for every seed.
"""

from __future__ import annotations

import os
import random

DEFAULT_SEED = 0
WORKLOADS = {"algebra": ("certificates", "groups"),
             "counting": ("series", "oracle")}

# certify: three small primes and one three-digit prime, all > 5
CERTIFY_SMALL = (7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
CERTIFY_LARGE = (101, 103, 107, 109, 113, 127, 131, 137, 139, 149)
# hmodule: the primes congruent to 1 mod 7 below 50
H56_PRIMES = (29, 43)
# sl2 with power 6 needs ell > 13
SL2_POWER = 6
SL2_PRIMES = (17, 19, 23)
# series: the frontier of the dense transfer path
SERIES = {"q": 3, "s": 2, "kmax": 8}
# oracle: prime fields whose naive cross-check dominates; (q, variant)
ORACLE_FIELDS = ((17, "consecutive"), (13, "cyclic"))
DEFAULT_SERIES_NAIVE_BUDGET = 10 ** 7  # the CLI default for --budget


def params(seed: int) -> dict:
    """Seed-chosen inputs; the default seed gives the reference inputs."""
    if seed == DEFAULT_SEED:
        return {"certify_ells": (7, 11, 13, 101), "ellprime": 29,
                "sl2_ell": 17, "oracle_s": (2, 2)}
    rng = random.Random(seed)
    small = sorted(rng.sample(CERTIFY_SMALL, 3))
    return {
        "certify_ells": tuple(small) + (rng.choice(CERTIFY_LARGE),),
        "ellprime": rng.choice(H56_PRIMES),
        "sl2_ell": rng.choice(SL2_PRIMES),
        # s avoids the punctures 0 and 1
        "oracle_s": tuple(rng.randrange(2, q) for q, _ in ORACLE_FIELDS),
    }


def command_groups(seed: int) -> dict:
    """The four command groups at a seed, each a list of argument lists."""
    p = params(seed)
    ells = ",".join(str(e) for e in p["certify_ells"])
    series = ["--q", str(SERIES["q"]), "--s", str(SERIES["s"]),
              "--kmax", str(SERIES["kmax"])]
    oracle = []
    for (q, variant), s in zip(ORACLE_FIELDS, p["oracle_s"]):
        cmd = ["count", "--q", str(q), "--s", str(s), "--kmax", "1",
               "--variant", variant]
        if q ** 6 > DEFAULT_SERIES_NAIVE_BUDGET:
            cmd += ["--budget", str(q ** 6)]
        oracle.append(cmd)
    return {
        "certificates": [["triple"], ["certify", "--ell", ells]],
        "groups": [["hmodule", "--ellprime", str(p["ellprime"])],
                   ["sl2", "--ell", str(p["sl2_ell"]),
                    "--power", str(SL2_POWER)]],
        "series": [["count"] + series, ["zeta"] + series],
        "oracle": oracle,
    }


def commands(workload: str, seed: int) -> list:
    """The workload's CLI argument lists, in the order they run."""
    groups = command_groups(seed)
    return [cmd for group in WORKLOADS[workload] for cmd in groups[group]]


def options(cmd: list) -> dict:
    """The --name value pairs of an argument list."""
    return dict(zip(cmd[1::2], cmd[2::2]))


def check_memory(cmds: list) -> None:
    """Refuse a counting command whose dense kernel would not fit in RAM.

    The dense transfer path holds two n x n int64 arrays (difference
    indices and kernel) for n = q^kmax.  The CLI's own size bound admits
    q = 3, k = 9 (about 6.2 GB), so the benchmark refuses such a run
    rather than starting it.  The limit is half the physical memory.
    """
    ram = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    for cmd in cmds:
        if cmd[0] not in ("count", "zeta"):
            continue
        opt = options(cmd)
        n = int(opt["--q"]) ** int(opt.get("--kmax", 7))
        need = 2 * 8 * n * n
        if need > ram // 2:
            raise SystemExit(
                f"refusing {' '.join(cmd)}: the dense kernel needs "
                f"{need / 2 ** 30:.1f} GiB, over half of {ram / 2 ** 30:.1f} "
                "GiB of RAM")
