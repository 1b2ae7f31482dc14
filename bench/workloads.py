"""Workload ladders of the decgauge benchmark and their expected verdicts.

One op is one ``decgauge`` command on one builtin mesh, run through the
public entry point ``decgauge.cli.main``.  A workload is a fixed list of ops
(a pass).  The expected values below are derived from the topology of each
mesh family, not captured from program output, so a regression that changes
a verdict or a dimension is caught even if the program still exits 0.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# (Betti numbers, relative Betti numbers), degree 0 upward, per builtin family.
# A disk-like region has H_*(M) of a point and H_*(M, boundary) of a sphere;
# the annulus and the solid torus add one loop.
TOPOLOGY = {
    "disk": ((1, 0, 0), (0, 0, 1)),
    "square": ((1, 0, 0), (0, 0, 1)),
    "strip": ((1, 0, 0), (0, 0, 1)),
    "annulus": ((1, 1, 0), (0, 1, 1)),
    "ann8": ((1, 1, 0), (0, 1, 1)),
    "solid_torus": ((1, 1, 0, 0), (0, 0, 1, 1)),
}

# Small mesh of each family, on which each op's command is warmed up.
SMALL_MESH = {
    "disk": "disk:N=8",
    "square": "square:N=4",
    "strip": "strip:N=4",
    "annulus": "annulus:N=16",
    "solid_torus": "solid_torus:K=4",
}

AXIOM_IDS = {f"A{i}" for i in range(1, 13)}


@dataclass(frozen=True)
class Op:
    command: str
    mesh: str
    args: tuple[str, ...] = ()

    @property
    def family(self) -> str:
        return self.mesh.partition(":")[0]

    def argv(self, seed: int) -> list[str]:
        return [self.command, "--mesh", self.mesh, *self.args, "--seed", str(seed)]

    def label(self) -> str:
        return " ".join([self.command, *self.args, self.mesh])

    def small(self) -> "Op":
        return Op(self.command, SMALL_MESH[self.family], self.args)


# First warm-up op; every workload runs it.
SETUP_OP = Op("verify-lagrangian", "ann8")

# Why each ladder: ``bulk-lagrangian`` is dominated by dense null spaces of
# large interior systems; ``shell-gauge`` runs the same verify-lagrangian code
# on 3D bodies without interior edges, where per-column boundary gauge fixes
# dominate instead; ``hodge-audit`` is the only ladder led by the exact
# homology oracle and touches no dynamics; ``axioms-glue`` is the only one
# reaching the axiom suite, gluing, face factorization and ym2d, with mesh
# construction as its largest share.
WORKLOADS = {
    "bulk-lagrangian": (
        Op("verify-lagrangian", "square:N=16"),
        Op("verify-lagrangian", "square:N=24"),
        Op("verify-lagrangian", "annulus:N=256"),
    ),
    "shell-gauge": (
        Op("verify-lagrangian", "solid_torus:K=32"),
        Op("verify-lagrangian", "solid_torus:K=48"),
    ),
    "hodge-audit": (
        Op("harmonic", "square:N=16", ("--degree", "1")),
        Op("decompose", "square:N=16", ("--degree", "1")),
        Op("harmonic", "annulus:N=256", ("--degree", "1")),
        Op("decompose", "annulus:N=256", ("--degree", "1")),
        Op("harmonic", "solid_torus:K=16", ("--degree", "2")),
        Op("decompose", "solid_torus:K=16", ("--degree", "0")),
    ),
    "axioms-glue": (
        Op("verify-axioms", "square:N=12"),
        Op("verify-axioms", "annulus:N=64"),
        Op("verify-axioms", "solid_torus:K=8"),
        Op("glue", "strip:N=96", ("--faces", "west", "east")),
        Op("ym2d", "disk:N=64"),
    ),
}


def warm_up_ops(ops) -> list[Op]:
    """``SETUP_OP``, then each op's command once on a small mesh."""
    return list(dict.fromkeys([SETUP_OP] + [op.small() for op in ops]))


def op_seeds(seed: int, ops) -> list[int]:
    """Per-op ``--seed`` values drawn from the workload seed."""
    rng = random.Random(seed)
    return [rng.randrange(2**31) for _ in ops]


def _degree(op: Op) -> int:
    return int(op.args[op.args.index("--degree") + 1])


def check(op: Op, exit_code: int, report: dict | None,
          topology=TOPOLOGY) -> list[str]:
    """Reasons the op's verdict is wrong; empty when it is right."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    if report is None:
        return ["no JSON report"]
    problems = []
    if report.get("passed") is not True:
        failed = [c.get("id") for c in report.get("checks", ()) if not c.get("passed")]
        problems.append(f"report not passed (failed checks: {failed})")
    detail = report.get("detail", {})
    betti, relative = topology[op.family]
    if op.command == "harmonic":
        k = _degree(op)
        if detail.get("neumann_dim") != betti[k]:
            problems.append(f"Neumann dimension {detail.get('neumann_dim')} "
                            f"!= Betti number {betti[k]} (degree {k})")
        if detail.get("dirichlet_dim") != relative[k]:
            problems.append(f"Dirichlet dimension {detail.get('dirichlet_dim')} "
                            f"!= relative Betti number {relative[k]} (degree {k})")
    elif op.command == "decompose":
        # A random cochain has a Neumann-harmonic part iff H_k is nontrivial.
        k = _degree(op)
        norms = detail.get("component_norms", {})
        total = sum(norms.values())
        hn = norms.get("harmonic_neumann", -1.0)
        ok = hn > 1e-8 * total if betti[k] > 0 else hn == 0.0
        if not ok:
            problems.append(f"Neumann-harmonic norm {hn} contradicts Betti "
                            f"number {betti[k]} (degree {k})")
    elif op.command == "verify-lagrangian":
        dims = detail.get("dims", {})
        if detail.get("half_dimension") is not True:
            problems.append("half_dimension does not hold")
        if 2 * dims.get("image", -1) != dims.get("phi_space"):
            problems.append(f"2 * image ({dims.get('image')}) != phi_space "
                            f"({dims.get('phi_space')})")
    elif op.command == "verify-axioms":
        ids = {c.get("id") for c in report.get("checks", ())}
        if ids != AXIOM_IDS:
            problems.append(f"axiom ids {sorted(ids)} != A1..A12")
    return problems
