"""The seeded fleet battery the SCD certifier replays.

The fleet-schedule certifier (:mod:`repro.analysis.sched`) does not
certify the scheduler in the abstract — it certifies *runs*: ~30 seeded
fleets spanning 4–200 jobs, every placement policy, both routing
policies, throttled and unthrottled tenants, single-rank degenerate
jobs, and disjoint-placement cells whose isolation must be bit-exact.
The battery lives here (next to the subsystem it exercises, like
``repro.faults.cases`` for the liveness pillar) so the scheduler's own
tests and the certifier replay the identical cells.

Throttle shares are deliberately **dyadic** (powers of two): dividing a
float by ``0.5`` or ``0.25`` is exact, so the throttle-semantics rule
(SCD004) can demand bit-equality instead of a tolerance.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.cluster import make_cluster

from .fleet import FleetResult, FleetSimulator
from .jobs import JobSpec, sample_fleet

__all__ = ["FleetCase", "apply_throttles", "fleet_cases", "run_fleet_case",
           "DYADIC_SHARES"]

#: exact-in-float bandwidth shares the battery throttles jobs to
DYADIC_SHARES = (0.5, 0.25)


@dataclass(frozen=True)
class FleetCase:
    """One certifiable cell: a seeded workload on a concrete cluster."""

    name: str
    machine: str                    # cluster template (repro.cluster.MACHINES)
    nodes: int                      # machines in the fleet
    n_jobs: int
    policy: str                     # placement policy
    routing: str                    # "static" | "adaptive"
    seed: int
    models: tuple[str, ...] = ("resnet50",)
    worlds: tuple[int, ...] = (2, 4, 8)
    mean_interarrival: float = 0.02
    steps_range: tuple[int, int] = (2, 5)
    throttle_stride: int = 0        # every stride-th job gets a dyadic share

    @property
    def path(self) -> str:
        """The finding pseudo-path, mirroring the DLV/OVL convention."""
        return f"<sched:{self.policy}-{self.routing}@n={self.n_jobs}/{self.name}>"

    def jobs(self) -> list[JobSpec]:
        specs = sample_fleet(
            self.n_jobs, seed=self.seed, models=self.models,
            worlds=self.worlds, mean_interarrival=self.mean_interarrival,
            steps_range=self.steps_range)
        if self.throttle_stride:
            specs = apply_throttles(specs, stride=self.throttle_stride)
        return specs


def apply_throttles(specs: list[JobSpec], stride: int = 3
                    ) -> list[JobSpec]:
    """Throttle every ``stride``-th job to a cycling dyadic share."""
    if stride < 1:
        raise ValueError("stride must be >= 1")
    out: list[JobSpec] = []
    hit = 0
    for index, spec in enumerate(specs):
        if index % stride == 0:
            spec = dataclasses.replace(
                spec, throttle=DYADIC_SHARES[hit % len(DYADIC_SHARES)])
            hit += 1
        out.append(spec)
    return out


def fleet_cases() -> list[FleetCase]:
    """The certifier's ~30 cells; deterministic order and content."""
    cases: list[FleetCase] = []
    # the policy x routing grid at small sizes: adaptive routing only
    # bites where the topology registers detours, so adaptive cells run
    # on the NVLink-ring dgx1 and static ones on the commodity box
    for policy in ("packed", "spread", "numa"):
        for routing in ("static", "adaptive"):
            machine = "dgx1" if routing == "adaptive" else "rtx3090-8x"
            for n_jobs, seed in ((4, 101), (8, 102)):
                cases.append(FleetCase(
                    name=f"grid-{n_jobs}", machine=machine, nodes=2,
                    n_jobs=n_jobs, policy=policy, routing=routing,
                    seed=seed))                                     # 12
    # deeper queues with a mixed-model population
    for index, policy in enumerate(("packed", "spread", "numa")):
        cases.append(FleetCase(
            name="deep-queue", machine="rtx3090-8x", nodes=2, n_jobs=16,
            policy=policy, routing="static", seed=201 + index,
            models=("resnet50", "vgg16"), mean_interarrival=0.005))  # 15
    # throttled tenants (dyadic shares), each placement policy
    for index, policy in enumerate(("packed", "spread", "numa")):
        cases.append(FleetCase(
            name="throttled", machine="rtx3090-8x", nodes=2, n_jobs=12,
            policy=policy, routing="static", seed=301 + index,
            throttle_stride=3))                                      # 18
    cases.append(FleetCase(
        name="throttled-adaptive", machine="dgx1", nodes=2, n_jobs=12,
        policy="spread", routing="adaptive", seed=304,
        throttle_stride=2))                                          # 19
    # disjoint-placement cells: full-machine jobs on a multi-node fleet
    # land on private links, so SCD005's bit-identical leg has teeth
    cases.append(FleetCase(
        name="disjoint", machine="rtx3090-8x", nodes=4, n_jobs=6,
        policy="packed", routing="static", seed=401, worlds=(8,),
        mean_interarrival=0.05))                                     # 20
    cases.append(FleetCase(
        name="numa-fit", machine="rtx3090-8x", nodes=2, n_jobs=6,
        policy="numa", routing="static", seed=402, worlds=(4,)))     # 21
    # degenerate tenants: single-rank jobs have no collective at all
    cases.append(FleetCase(
        name="singles", machine="rtx3090-8x", nodes=1, n_jobs=8,
        policy="spread", routing="static", seed=403, worlds=(1, 2)))  # 22
    # embedding-heavy workload (very different package plan)
    cases.append(FleetCase(
        name="txl", machine="dgx1", nodes=2, n_jobs=6,
        policy="packed", routing="static", seed=404,
        models=("transformer_xl",), worlds=(2, 4)))                  # 23
    cases.append(FleetCase(
        name="vgg", machine="rtx3090-8x", nodes=2, n_jobs=16,
        policy="packed", routing="static", seed=405,
        models=("vgg16",), worlds=(2, 4)))                           # 24
    # heavy-traffic scale, up to the 200-job cell the pillar advertises;
    # short step counts keep the whole battery certifiable in seconds
    cases.append(FleetCase(
        name="scale-32", machine="rtx3090-8x", nodes=2, n_jobs=32,
        policy="packed", routing="static", seed=501,
        mean_interarrival=0.002, steps_range=(2, 3)))                # 25
    cases.append(FleetCase(
        name="scale-64", machine="rtx3090-8x", nodes=2, n_jobs=64,
        policy="spread", routing="static", seed=502,
        mean_interarrival=0.002, steps_range=(2, 3)))                # 26
    cases.append(FleetCase(
        name="scale-64-throttled", machine="rtx3090-8x", nodes=4,
        n_jobs=64, policy="numa", routing="static", seed=503,
        mean_interarrival=0.002, steps_range=(2, 3),
        throttle_stride=4))                                          # 27
    cases.append(FleetCase(
        name="scale-120", machine="dgx1", nodes=4, n_jobs=120,
        policy="numa", routing="adaptive", seed=504,
        mean_interarrival=0.001, steps_range=(1, 2)))                # 28
    cases.append(FleetCase(
        name="scale-200", machine="rtx3090-8x", nodes=4, n_jobs=200,
        policy="packed", routing="static", seed=505,
        mean_interarrival=0.001, steps_range=(1, 2)))                # 29
    cases.append(FleetCase(
        name="scale-200-adaptive", machine="dgx1", nodes=4, n_jobs=200,
        policy="spread", routing="adaptive", seed=506,
        mean_interarrival=0.001, steps_range=(1, 2)))                # 30
    return cases


def run_fleet_case(case: FleetCase) -> FleetResult:
    """Run one cell with the evidence recorders the certifier needs on
    (transfer trace for perturbation checks, exact conservation audit
    for SCD003)."""
    topology = make_cluster(case.machine, case.nodes)
    simulator = FleetSimulator(
        topology, case.jobs(), policy=case.policy, routing=case.routing,
        seed=case.seed, trace=True, audit=True)
    return simulator.run()
