"""Declarative job model for the fleet scheduler.

A :class:`JobSpec` is everything the scheduler needs to know about one
training job before it runs: which model, how many ranks, which
compression method, when it arrives, and how many steps it owes.  A
:class:`JobState` tracks the job through the fleet — queued, running,
done — with the progress counters (steps done, bytes on wire, queue
wait) the fairness and queueing-delay metrics are computed from.

Workloads are *seeded*: :func:`sample_fleet` draws mixed-model,
mixed-world, mixed-compression fleets from one ``random.Random(seed)``
stream, so the same seed always produces the same arrival process —
the determinism idiom every subsystem of this repo follows.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, field

from repro.compression import CompressionSpec
from repro.core import CGXConfig
from repro.models import available_specs

__all__ = ["JobSpec", "JobState", "sample_fleet", "JOB_METHODS",
           "DEFAULT_FLEET_MODELS"]

JOB_METHODS = ("cgx", "nccl")

#: the mixed workload the acceptance sweep uses: two CNNs with very
#: different gradient sizes plus the embedding-heavy Transformer-XL
DEFAULT_FLEET_MODELS = ("resnet50", "vgg16", "transformer_xl")

#: QSGD bit-widths a sampled ``cgx`` job draws from
BITS_CHOICES = (2, 4, 8)

#: share of sampled jobs that run the uncompressed ``nccl`` baseline
NCCL_FRACTION = 0.25


@dataclass(frozen=True)
class JobSpec:
    """One training job submitted to the fleet.

    Attributes:
        job_id: unique positive id (also the Perfetto process lane).
        model: a :mod:`repro.models` spec name.
        world: ranks (GPUs) the job needs, all-or-nothing.
        arrival: submission time on the fleet clock, seconds.
        steps: training steps the job runs before departing.
        method: ``cgx`` (4-bit-default QSGD, per-layer packages, SRA) or
            ``nccl`` (uncompressed fused ring baseline).
        bits: QSGD bit-width for ``cgx`` jobs.
        scheme: reduction scheme override for ``cgx`` jobs.
        batch_per_gpu: local batch; defaults to the model recipe scaled
            by GPU memory.
        throttle: effective-bandwidth share in (0, 1]; the scheduler
            registers it with the shared network at admission.
    """

    job_id: int
    model: str
    world: int
    arrival: float
    steps: int
    method: str = "cgx"
    bits: int = 4
    scheme: str = "sra"
    batch_per_gpu: int | None = None
    throttle: float = 1.0

    def __post_init__(self) -> None:
        if self.job_id < 1:
            raise ValueError("job_id must be >= 1 (0 is the untagged lane)")
        if self.world < 1:
            raise ValueError(f"job {self.job_id}: world must be >= 1")
        if self.steps < 1:
            raise ValueError(f"job {self.job_id}: steps must be >= 1")
        if self.arrival < 0:
            raise ValueError(f"job {self.job_id}: arrival must be >= 0")
        if self.method not in JOB_METHODS:
            raise ValueError(
                f"job {self.job_id}: method must be one of {JOB_METHODS}")
        if not 0.0 < self.throttle <= 1.0:
            raise ValueError(
                f"job {self.job_id}: throttle must be in (0, 1]")

    def build_config(self) -> tuple[CGXConfig, str]:
        """(engine config, plan mode) for this job's timed steps."""
        if self.method == "nccl":
            return CGXConfig.baseline_nccl(), "fused"
        config = CGXConfig.cgx_default()
        config.compression = CompressionSpec(
            "qsgd", bits=self.bits,
            bucket_size=config.compression.bucket_size)
        config.scheme = self.scheme
        return config, "cgx"

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class JobState:
    """A job's lifecycle through the fleet (mutable progress record)."""

    spec: JobSpec
    status: str = "queued"            # queued | running | done
    ranks: tuple[int, ...] = ()
    admit_time: float | None = None   # placement instant
    finish_time: float | None = None  # last step's end
    steps_done: int = 0
    wire_bytes: int = 0
    step_durations: list[float] = field(default_factory=list)

    @property
    def queue_wait(self) -> float | None:
        """Seconds spent waiting for GPUs (admission − arrival)."""
        if self.admit_time is None:
            return None
        return self.admit_time - self.spec.arrival

    @property
    def mean_step_time(self) -> float | None:
        if not self.step_durations:
            return None
        return sum(self.step_durations) / len(self.step_durations)

    def to_dict(self) -> dict:
        return {
            "spec": self.spec.to_dict(),
            "status": self.status,
            "ranks": list(self.ranks),
            "admit_time": self.admit_time,
            "finish_time": self.finish_time,
            "steps_done": self.steps_done,
            "wire_bytes": self.wire_bytes,
            "step_durations": list(self.step_durations),
        }


def sample_fleet(
    n_jobs: int,
    seed: int = 0,
    models: tuple[str, ...] = DEFAULT_FLEET_MODELS,
    worlds: tuple[int, ...] = (2, 4, 8),
    mean_interarrival: float = 0.05,
    steps_range: tuple[int, int] = (2, 5),
) -> list[JobSpec]:
    """Draw a seeded fleet: Poisson arrivals over a mixed job population.

    Same seed, same fleet — byte for byte.  Interarrival times are
    exponential with the given mean, so shrinking ``mean_interarrival``
    relative to the jobs' service times deepens the admission queue
    (the heavy-traffic regime the metrics are designed to expose).
    """
    if n_jobs < 1:
        raise ValueError("n_jobs must be >= 1")
    if not mean_interarrival > 0:   # NaN too
        raise ValueError(
            f"mean_interarrival must be > 0, got {mean_interarrival}")
    known = set(available_specs())
    for model in models:
        if model not in known:
            raise KeyError(f"unknown model spec {model!r}")
    rng = random.Random(seed)
    t = 0.0
    specs: list[JobSpec] = []
    for job_id in range(1, n_jobs + 1):
        t += rng.expovariate(1.0 / mean_interarrival)
        method = "nccl" if rng.random() < NCCL_FRACTION else "cgx"
        specs.append(JobSpec(
            job_id=job_id,
            model=rng.choice(models),
            world=rng.choice(worlds),
            arrival=t,
            steps=rng.randint(*steps_range),
            method=method,
            bits=rng.choice(BITS_CHOICES),
        ))
    return specs
