"""Seeded task lists for the benchmark workloads.

Every task is one argv for ``slly.cli.main``.  The workload seed reaches the
program only through the generated argv (momenta, couplings, box sizes and
the program's own ``--seed`` values), so the same seed always gives the same
task list.

Values are passed as ``--flag=value``: argparse reads a separate argument that
starts with ``-`` and is not a plain number (``--k -0.9,-1.2``) as an option
and exits 2, which is a known defect of the CLI (see README.md here).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("chamber-calculus", "lattice-oracle")


@dataclass(frozen=True)
class Task:
    """One CLI invocation plus what the checks need to know about it."""

    group: str
    sub: str
    n: int
    params: dict
    largest: bool = False  # one of the workload's largest-N verification tasks

    @property
    def kind(self) -> str:
        return f"{self.group}_{self.sub}"

    @property
    def argv(self) -> list[str]:
        out = [self.group, self.sub]
        for key, value in self.params.items():
            flag = "--" + key.replace("_", "-")
            if value is True:
                out.append(flag)
            elif isinstance(value, (list, tuple)):
                out.append(f"{flag}={','.join(repr(v) for v in value)}")
            elif isinstance(value, str):
                out.append(f"{flag}={value}")
            else:
                out.append(f"{flag}={value!r}")
        return out


def _num(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 4)


def _momenta(rng: random.Random, n: int) -> tuple[float, ...]:
    """Strictly decreasing real momenta in [-2, 2], pairwise at least 0.05 apart."""
    while True:
        ks = sorted((_num(rng, -2.0, 2.0) for _ in range(n)), reverse=True)
        if all(ks[i] - ks[i + 1] >= 0.05 for i in range(n - 1)):
            return tuple(ks)


def _seed(rng: random.Random) -> int:
    return rng.randrange(1_000_000)


def bethe_matching(rng: random.Random) -> list[Task]:
    """Scalar wall matching: collision states at N=2..4 and bound states."""
    tasks = []
    for n in (2, 3, 4):
        for sign in (1.0, -1.0, 1.0, -1.0):
            params = {"n": n, "k": _momenta(rng, n), "c": sign * _num(rng, 0.5, 2.5)}
            tasks.append(Task("bethe", "collision", n, params, largest=n == 4))
    for emit in (True, False):
        flag = {"emit_state": True} if emit else {}
        c = -_num(rng, 0.5, 2.5)
        tasks.append(Task("bethe", "dimer", 2, {"p": _num(rng, -1.0, 1.0), "c": c, **flag}))
        c = -_num(rng, 0.5, 2.5)
        tasks.append(Task("bethe", "trimer", 3, {"p": _num(rng, -1.0, 1.0), "c": c, **flag}))
        p, q = _momenta(rng, 2)
        c = -_num(rng, 0.5, 2.5)
        tasks.append(Task("bethe", "monomer-dimer", 3, {"p": p, "q": q, "c": c, **flag}))
    return tasks


def susy_verify(rng: random.Random) -> list[Task]:
    """Supercharge algebra, zero modes to N=5, census, sectors and partners."""
    tasks = [
        Task("susy", "algebra", 3, {"n": 3, "c": _num(rng, 0.5, 2.0), "trials": 8, "seed": _seed(rng)}),
        Task("susy", "algebra", 4, {"n": 4, "c": _num(rng, 0.5, 2.0), "trials": 2, "seed": _seed(rng)}),
    ]
    for n in (3, 4, 5):
        tasks.append(Task("susy", "zero-modes", n, {"n": n, "c": _num(rng, 0.5, 2.0)}, largest=n == 5))
    for n in (3, 4, 5):
        tasks.append(Task("susy", "census", n, {"n": n, "c": _num(rng, 0.5, 2.0)}))
    for n in (3, 4, 5):
        c = _num(rng, 0.5, 2.0)
        for grade in range(n + 1):
            tasks.append(Task("susy", "sector", n, {"n": n, "grade": grade, "c": c}))
    for n in (2, 3):
        for direction in ("raise", "lower"):
            params = {"n": n, "c": _num(rng, 0.5, 2.0), "direction": direction, "k": _momenta(rng, n)}
            tasks.append(Task("susy", "partner", n, params))
    return tasks


def lattice_oracle(rng: random.Random) -> list[Task]:
    """Finite-difference spectra at N=2 (M=140) and N=3 (M=24), convergence, diagnostic.

    Grid sizes are fixed and the spectrum couplings kept near c=2 (the
    Lanczos solve count grows with c) so that the cost of a pass hardly
    depends on the seed; couplings, box edges and eigensolver start vectors
    vary.
    N=3 sectors with more than one Fock component are left out: sector 1 at
    M=24 alone takes about a minute.
    """
    tasks = []
    for sector in (0, 1, 2):
        params = {"n": 2, "sector": sector, "c": _num(rng, 1.8, 2.2), "box": _num(rng, 11.0, 13.0),
                  "points": 140, "eigs": 4, "seed": _seed(rng)}
        tasks.append(Task("lattice", "spectrum", 2, params))
    params = {"n": 3, "sector": 0, "c": _num(rng, 1.8, 2.2), "box": _num(rng, 7.5, 8.5),
              "points": 24, "eigs": 2, "seed": _seed(rng)}
    tasks.append(Task("lattice", "spectrum", 3, params, largest=True))
    params = {"n": 2, "sector": 2, "c": _num(rng, 1.5, 2.5), "box": 12.0,
              "points_list": (39, 79), "eigs": 1, "seed": _seed(rng)}
    tasks.append(Task("lattice", "converge", 2, params))
    params = {"n": 2, "c": _num(rng, 1.5, 2.5), "box": 16.0, "points": 60, "seed": _seed(rng)}
    tasks.append(Task("lattice", "diagnostic", 2, params))
    return tasks


def chamber_calculus(rng: random.Random) -> list[Task]:
    """Every task that runs on the chamber calculus: Bethe matching, then SUSY checks."""
    return bethe_matching(rng) + susy_verify(rng)


_GENERATORS = {
    "chamber-calculus": chamber_calculus,
    "lattice-oracle": lattice_oracle,
}

#: the speed reference (``speed.KERNELS``) whose work resembles each workload's hot loop
REFERENCE = {
    "chamber-calculus": "interpreter",
    "lattice-oracle": "sparse-lu",
}
#: set-up is mostly importing, which is interpreter work, on every workload
SETUP_REFERENCE = "interpreter"

#: every command kind any workload runs; traced runs report each of them
COMMAND_KINDS = (
    "bethe_collision", "bethe_dimer", "bethe_trimer", "bethe_monomer-dimer",
    "susy_algebra", "susy_zero-modes", "susy_census", "susy_sector", "susy_partner",
    "lattice_spectrum", "lattice_converge", "lattice_diagnostic",
)


def generate(workload: str, seed: int) -> list[Task]:
    return _GENERATORS[workload](random.Random(f"{workload}:{seed}"))


def warmup(tasks: list[Task]) -> list[Task]:
    """The first task of each command kind at its smallest N: run once, untimed, in set-up."""
    first: dict[str, Task] = {}
    for task in tasks:
        if task.kind not in first or task.n < first[task.kind].n:
            first[task.kind] = task
    return list(first.values())
