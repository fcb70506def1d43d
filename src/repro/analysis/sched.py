"""Fleet-schedule certifier (Pillar 10, rules SCD001..SCD007).

The fleet scheduler (:mod:`repro.sched`) runs concurrent training jobs
on one shared link-resource pool.  This pass certifies its promises —
no GPU double-booking, starvation-free FIFO admission, leak-free
per-job accounting, honest throttles, contention that can only *delay*
— over the seeded battery in :mod:`repro.sched.battery` instead of
trusting the scheduler's own bookkeeping.  The rules:

"""

from __future__ import annotations

import ast
import json
import os
from functools import partial
from typing import TYPE_CHECKING, Any, Callable, Mapping, Sequence

from .findings import CellFindings, Finding, rule_table, sort_findings
from .rules import SourceFile, call_name, lint_roots

if TYPE_CHECKING:
    from repro.cluster import Network
    from repro.sched import FleetResult
    from repro.sched.battery import FleetCase

__all__ = ["SCD_RULES", "certify_fleet", "verify_fleet_log",
           "lint_job_tagging", "tagging_default_roots", "verify_sched"]

SCD_RULES = {
    "SCD001": "placement unsound (missing/duplicate/overlapping GPUs)",
    "SCD002": "admission liveness, FIFO order, or step chain broken",
    "SCD003": "cross-job conservation broken (exact arithmetic)",
    "SCD004": "throttle does not scale bandwidth by the declared share",
    "SCD005": "isolation bounds violated vs the isolated replay",
    "SCD006": "fairness metric invalid or baseline replay nondeterministic",
    "SCD007": "untagged transfer/kernel call (job-tag plumbing gap)",
}
__doc__ = rule_table(__doc__, SCD_RULES)

#: slack for the SCD005 full-serialization ceiling only; every equality
#: in this pass (SCD003 conservation, SCD004 scaling, SCD005 disjoint
#: isolation) is bit-exact with **zero** tolerance
_CEILING_SLACK = 1e-9


# -- SCD001/SCD002: replay the canonical fleet log ----------------------------

def verify_fleet_log(payload: Mapping[str, Any], path: str) -> CellFindings:
    """Placement soundness and admission liveness from the log alone.

    Works on any parsed :meth:`FleetResult.log_bytes` payload — including
    the tampered fixtures CI feeds it to prove the gate fails closed —
    so it trusts nothing but the event stream and the job table in the
    log header.
    """
    fleet = payload.get("fleet", {})
    records = payload.get("records", [])
    n_gpus = int(fleet.get("n_gpus", 0))
    specs = {int(job["job_id"]): job for job in fleet.get("jobs", [])}
    out = CellFindings(
        "sched", SCD_RULES,
        f"{fleet.get('policy', '?')}-{fleet.get('routing', '?')}",
        len(specs), path)
    emit = out.emit

    arrived: list[int] = []
    admitted: list[int] = []
    finished: set[int] = set()
    admit_t: dict[int, float] = {}
    arrive_t: dict[int, float] = {}
    ranks_of: dict[int, list[int]] = {}
    holder: dict[int, int] = {}        # gpu -> job currently placed on it
    free_at: dict[int, float] = {}     # gpu -> last departure's end
    last_step: dict[int, tuple[int, float]] = {}   # job -> (step no, end)

    for record in records:
        event, job = record.get("event"), record.get("job")
        if job not in specs:
            emit("SCD001", f"event {event!r} names unknown job {job!r}")
            continue
        t = record.get("t", 0.0)
        if event == "arrive":
            arrived.append(job)
            arrive_t[job] = t
        elif event == "admit":
            ranks = list(record.get("ranks", []))
            admitted.append(job)
            admit_t[job] = t
            ranks_of[job] = ranks
            if len(set(ranks)) != len(ranks):
                emit("SCD001", f"job {job} admitted with duplicate GPUs "
                               f"{ranks}")
            if len(ranks) != int(specs[job]["world"]):
                emit("SCD001",
                     f"job {job} admitted on {len(ranks)} GPU(s) but its "
                     f"spec asks for {specs[job]['world']}")
            for gpu in ranks:
                if not 0 <= gpu < n_gpus:
                    emit("SCD001", f"job {job} admitted on GPU {gpu} "
                                   f"outside the fleet's 0..{n_gpus - 1}")
                elif gpu in holder:
                    emit("SCD001",
                         f"job {job} admitted on GPU {gpu} still held by "
                         f"running job {holder[gpu]} — double booking")
                elif free_at.get(gpu, 0.0) > t:
                    emit("SCD001",
                         f"job {job} admitted on GPU {gpu} at t={t!r} "
                         f"before its previous tenant departs at "
                         f"t={free_at[gpu]!r}")
                holder[gpu] = job
            if job in arrive_t and t < arrive_t[job]:
                emit("SCD002", f"job {job} admitted at t={t!r} before its "
                               f"arrival at t={arrive_t[job]!r}")
        elif event == "step":
            step, end = int(record.get("step", 0)), record.get("end", t)
            prev_no, prev_end = last_step.get(job, (0, admit_t.get(job)))
            if step != prev_no + 1:
                emit("SCD002", f"job {job} step chain torn: step {step} "
                               f"follows step {prev_no}")
            if prev_end is not None and t != prev_end:
                origin = "admission" if prev_no == 0 else f"step {prev_no}"
                emit("SCD002",
                     f"job {job} step {step} starts at t={t!r}, not at "
                     f"its {origin} end t={prev_end!r}")
            if end < t:
                emit("SCD002", f"job {job} step {step} ends at t={end!r} "
                               f"before it starts at t={t!r}")
            last_step[job] = (step, end)
        elif event == "finish":
            finished.add(job)
            steps_done, end = last_step.get(job, (0, None))
            if steps_done != int(specs[job]["steps"]):
                emit("SCD002", f"job {job} finished after {steps_done} "
                               f"step(s); its spec owes "
                               f"{specs[job]['steps']}")
            if end is not None and t != end:
                emit("SCD002", f"job {job} finish time t={t!r} is not its "
                               f"last step's end t={end!r}")
            for gpu in ranks_of.get(job, []):
                if holder.get(gpu) == job:
                    del holder[gpu]
                free_at[gpu] = t

    # liveness: every arrival admits and finishes (the battery's fleets
    # always drain; a starved job would be stuck in the queue forever)
    for job in sorted(specs):
        if job not in arrive_t:
            emit("SCD002", f"job {job} never arrives in the log")
        elif job not in admit_t:
            emit("SCD002", f"job {job} arrived at t={arrive_t[job]!r} but "
                           f"is never admitted — starvation")
        elif job not in finished:
            emit("SCD002", f"job {job} was admitted but never finishes")

    # head-of-line FIFO: admissions happen in arrival order
    expected = [job for job in arrived if job in admit_t]
    if admitted != expected:
        emit("SCD002", f"admission order {admitted} leaves the FIFO "
                       f"arrival order {expected}")
    return out


def _cell(result: FleetResult, path: str) -> CellFindings:
    """An empty collector bound to one fleet cell."""
    return CellFindings("sched", SCD_RULES,
                        f"{result.policy}-{result.routing}",
                        len(result.states), path)


def _certify_log(result: FleetResult, path: str) -> list[Finding]:
    """SCD001/SCD002 on the canonical log, plus the state cross-checks
    that need the live states (queue-wait accounting)."""
    out = verify_fleet_log(json.loads(result.log_bytes().decode("utf-8")),
                           path)
    arrive_t = {r["job"]: r["t"] for r in result.records_of("arrive")}
    admit_t = {r["job"]: r["t"] for r in result.records_of("admit")}
    for state in result.states:
        job = state.spec.job_id
        if job not in admit_t or state.queue_wait is None:
            continue
        logged = admit_t[job] - arrive_t[job]
        if state.queue_wait != logged:
            out.emit("SCD002",
                     f"job {job} accounts queue_wait={state.queue_wait!r} "
                     f"but the event log says {logged!r}")
    return out


# -- SCD003: exact cross-job conservation -------------------------------------

def _certify_conservation(result: FleetResult, path: str) -> list[Finding]:
    out = _cell(result, path)
    emit = partial(out.emit, "SCD003")

    network = result.network
    pool = network.pool
    if not pool.audited:
        emit("cell ran without the conservation audit ledger — exact "
             "accounting cannot be certified (enable audit=True)")
        return out

    # (a) tag leakage: in a fleet every occupation belongs to a job
    for name, seconds in sorted(pool.exact_untagged_seconds().items()):
        emit(f"resource {name}: {float(seconds)!r} busy second(s) carry "
             f"no job tag — per-job accounting silently loses them")

    # (b) ledger <-> live float counters, bit-for-bit: any mutation path
    # bypassing the ledger (or double-counting into it) shows up here
    for name, resource in sorted(pool.resources().items()):
        replay_total, replay_by_job = resource.replay_float_accumulation()
        if replay_total != resource.busy_time:
            emit(f"resource {name}: live busy_time "
                 f"{resource.busy_time!r} != ledger replay "
                 f"{replay_total!r} — a mutation bypassed the ledger")
        if replay_by_job != resource.busy_by_job:
            emit(f"resource {name}: live per-job seconds disagree with "
                 f"the ledger replay — per-job accounting leaked")

    # (c) wire bytes: the jobs' own counters (fed by the collectives'
    # ReduceStats) vs the network's per-tag integers — two independent
    # accounting paths that must agree exactly
    total_states = 0
    for state in result.states:
        tagged = network.transferred_bytes(state.spec.job_id)
        total_states += state.wire_bytes
        if state.wire_bytes != tagged:
            emit(f"job {state.spec.job_id}: job-side wire_bytes "
                 f"{state.wire_bytes} != network tag counter {tagged}")
    untagged_bytes = network.transferred_bytes(None)
    if untagged_bytes:
        emit(f"{untagged_bytes} byte(s) crossed links with no job tag")
    if network.total_transferred_bytes() != total_states:
        emit(f"fleet wire bytes do not conserve: jobs sum to "
             f"{total_states}, the network carried "
             f"{network.total_transferred_bytes()}")

    return out


# -- SCD004: throttle semantics -----------------------------------------------

def _certify_throttles(result: FleetResult, path: str,
                       network_cls: Callable[..., Network] | None = None
                       ) -> list[Finding]:
    from repro.cluster import Network as DefaultNetwork

    make_network = network_cls or DefaultNetwork
    out = _cell(result, path)
    emit = partial(out.emit, "SCD004")

    topology = result.topology
    backend = result.network.backend
    rates = sorted({s.spec.throttle for s in result.states} - {1.0},
                   reverse=True)
    pairs = [(0, 1)]
    if topology.n_gpus > 2:
        pairs.append((0, topology.n_gpus - 1))
    nbytes = 1 << 20
    scaled = nbytes * backend.copy_factor
    probe_job = max((s.spec.job_id for s in result.states), default=0) + 1

    for src, dst in pairs:
        route = topology.path(src, dst)
        base_end = None
        for rate in [1.0] + rates:
            probe = make_network(topology, backend)
            if rate < 1.0:   # shares live in (0, 1]
                probe.set_job_throttle(probe_job, rate)
            end = probe.transfer(src, dst, nbytes, 0.0, job=probe_job)
            # independent bit-exact replay of the transfer-time formula
            # from the topology's link table and the backend constants
            expected = 0.0 + backend.alpha
            for link in route:
                expected = expected + (
                    scaled / (link.bandwidth * rate) + link.latency)
            if end != expected:
                emit(f"transfer {src}->{dst} at share {rate}: end "
                     f"{end!r} != formula replay {expected!r} — the "
                     f"throttle does not scale bandwidth as declared")
            # dyadic shares divide exactly: service at share r must be
            # bit-equal to the unthrottled service divided by r
            for link in route:
                throttled = scaled / (link.bandwidth * rate)
                if throttled != (scaled / link.bandwidth) / rate:
                    emit(f"link {link.name}: share {rate} is not an "
                         f"exact bandwidth division (battery shares "
                         f"are dyadic; scaling must be bit-exact)")
            if base_end is None:
                base_end = end
            elif end < base_end:
                emit(f"transfer {src}->{dst} at share {rate} finishes at "
                     f"{end!r}, beating the unthrottled {base_end!r}")

    # release-at-departure: a drained fleet holds no throttles
    for state in result.states:
        if state.status == "done" and \
                result.network.job_throttle(state.spec.job_id) < 1.0:
            emit(f"job {state.spec.job_id} departed but its throttle "
                 f"was never released")
    return out


# -- SCD005: isolation bounds -------------------------------------------------

def _certify_isolation(result: FleetResult, path: str) -> list[Finding]:
    out = _cell(result, path)
    emit = partial(out.emit, "SCD005")

    step_ends: dict[int, list[float]] = {}
    for record in result.records_of("step"):
        step_ends.setdefault(record["job"], []).append(record["end"])

    spans: dict[int, tuple[float, float]] = {}
    links: dict[int, set[str]] = {}
    for state in result.states:
        job = state.spec.job_id
        if state.admit_time is not None and state.finish_time is not None:
            spans[job] = (state.admit_time, state.finish_time)
        links[job] = result.job_link_names(job)

    for state in result.states:
        job = state.spec.job_id
        if job not in spans or job not in result.runners:
            continue   # never admitted; SCD002 already reports it
        replay = result.isolated_replay(job)
        ends = step_ends.get(job, [])
        if len(replay) != len(ends):
            emit(f"job {job}: {len(ends)} logged step(s) vs "
                 f"{len(replay)} replayed — cannot compare isolation")
            continue
        # bit-wise lower bound: contention can only delay
        for index, (fleet_end, replay_end) in enumerate(zip(ends, replay)):
            if fleet_end < replay_end:
                emit(f"job {job} step {index + 1} ends at {fleet_end!r}, "
                     f"*earlier* than its isolated replay {replay_end!r} "
                     f"— contention accelerated it")
                break
        admit, finish = spans[job]
        competitors = [
            other for other in spans
            if other != job and spans[other][0] < finish
            and admit < spans[other][1]
        ]
        shared = [other for other in competitors
                  if links[job] & links[other]]
        if not shared:
            # disjoint placement: sharing the clock must be free
            if ends != replay:
                emit(f"job {job}: no concurrent job touched its links, "
                     f"yet its step ends are not bit-identical to the "
                     f"isolated replay")
        else:
            # full-serialization ceiling: every wait ends at a shared-
            # link horizon some competitor scheduled, and those horizons
            # never outlive the competitor's span (the pool schedules
            # no task past its job's step end) — so the job's total
            # delay cannot exceed the time competitors sharing its
            # links were concurrently resident.  Note link *occupancy*
            # is not the bound: the no-backfill pool lets a late chunk
            # park its horizon far beyond the link's busy seconds.
            delay = sum(fleet_end - replay_end
                        for fleet_end, replay_end in zip(ends, replay))
            ceiling = sum(
                min(finish, spans[other][1]) - max(admit, spans[other][0])
                for other in shared
            )
            if delay > ceiling * (1.0 + _CEILING_SLACK) + _CEILING_SLACK:
                emit(f"job {job}: total delay {delay!r}s exceeds the "
                     f"{ceiling!r}s its shared-link competitors were "
                     f"concurrently resident — more than full "
                     f"serialization")
    return out


# -- SCD006: fairness-metric validity -----------------------------------------

def _certify_fairness(result: FleetResult, path: str) -> list[Finding]:
    from repro.sched.metrics import compute_metrics, isolated_step_times

    out = _cell(result, path)
    emit = partial(out.emit, "SCD006")

    try:
        metrics = compute_metrics(result)
    except Exception as exc:   # noqa: B902 — the finding *is* the report
        emit(f"compute_metrics raised {type(exc).__name__}: {exc}")
        return out
    if not 0.0 < metrics.fairness <= 1.0:
        emit(f"Jain fairness {metrics.fairness!r} outside (0, 1]")
    if metrics.p95_queue_wait > metrics.max_queue_wait:
        emit(f"p95 queue wait {metrics.p95_queue_wait!r} exceeds the "
             f"maximum {metrics.max_queue_wait!r}")
    if metrics.completed > metrics.n_jobs:
        emit(f"{metrics.completed} completions out of {metrics.n_jobs} "
             f"job(s)")
    # the baselines the metrics were computed from vs one fresh replay
    replay = isolated_step_times(result)
    if any(entry["isolated_step_time"] != replay.get(entry["job"])
           for entry in metrics.per_job if "isolated_step_time" in entry):
        emit("isolated-baseline replay is nondeterministic: two replays "
             "of the same result disagree")
    return out


def _certify_metric_degenerates() -> list[Finding]:
    """SCD006 on the metric helpers' degenerate inputs (once per run)."""
    from repro.sched.metrics import jain_fairness, percentile

    out = CellFindings("sched", SCD_RULES, path="<sched:degenerate>")
    emit = partial(out.emit, "SCD006")

    probes: list[tuple[str, Callable[[], float], float]] = [
        ("jain_fairness([])", lambda: jain_fairness([]), 1.0),
        ("jain_fairness([0,0,0])", lambda: jain_fairness([0.0] * 3), 1.0),
        ("jain_fairness([x]*4)", lambda: jain_fairness([0.3] * 4), 1.0),
        ("percentile([], 50)", lambda: percentile([], 50.0), 0.0),
        ("percentile([5], 95)", lambda: percentile([5.0], 95.0), 5.0),
    ]
    for label, probe, want in probes:
        try:
            got = probe()
        except Exception as exc:
            emit(f"{label} raised {type(exc).__name__} instead of "
                 f"degrading to {want!r}")
            continue
        if got != want:
            emit(f"{label} = {got!r}, expected {want!r}")
    for vector in ([1.0, 0.0, 0.0, 0.0], [0.25, 0.5, 0.25],
                   [1e-9, 2e-9, 3e-9]):
        value = jain_fairness(vector)
        if not 0.0 < value <= 1.0:
            emit(f"jain_fairness({vector}) = {value!r} outside (0, 1]")
    return out


# -- SCD007: job-tag lint over sched/ and the shared network ------------------

#: calls that schedule work on the shared pool and must carry a job tag
_TAGGED_CALLS = {
    "transfer", "run_kernel", "schedule", "commit_route",
    "time_allreduce", "time_partial_allreduce",
}


def tagging_default_roots() -> tuple[str, ...]:
    """What SCD007 audits: the scheduler package + the shared network."""
    import repro.cluster.network
    import repro.sched

    return (os.path.dirname(os.path.abspath(repro.sched.__file__)),
            os.path.abspath(repro.cluster.network.__file__))


def _carries_job_tag(call: ast.Call) -> bool:
    """Whether a call passes a job id — ``job=`` kwarg or a positional
    that is visibly a job id (``job``, ``*_job_id``, ``x.job_id``...)."""
    for keyword in call.keywords:
        if keyword.arg == "job":
            return True
    for arg in call.args:
        if isinstance(arg, ast.Name) and (
                arg.id == "job" or arg.id.endswith("job_id")):
            return True
        if isinstance(arg, ast.Attribute) and arg.attr in ("job", "job_id"):
            return True
    return False


def lint_job_tagging_source(source: str, path: str) -> list[Finding]:
    """SCD007 over one file's source text."""
    findings: list[Finding] = []
    file = SourceFile(source, path)
    for func, nodes in file.functions():
        for call in nodes:
            if not isinstance(call, ast.Call):
                continue
            qualifier, name = call_name(call)
            if name not in _TAGGED_CALLS or qualifier is None:
                continue
            if not _carries_job_tag(call):
                findings.append(file.finding(
                    "SCD007", call,
                    f"{qualifier}.{name}(...) in {func.name!r} "
                    f"carries no job tag — its busy time and "
                    f"bytes vanish from per-job accounting", "sched"))
    return findings


def lint_job_tagging(roots: Sequence[str] | None = None) -> list[Finding]:
    """SCD007 over the scheduler package and ``cluster/network.py``,
    occurrence-numbered for stable fingerprints."""
    return lint_roots(roots if roots is not None
                      else tagging_default_roots(), lint_job_tagging_source)


# -- one cell, and the full battery -------------------------------------------

def certify_fleet(result: FleetResult, path: str) -> list[Finding]:
    """All dynamic SCD rules (001–006) over one finished fleet campaign."""
    return sort_findings([*_certify_log(result, path),
                          *_certify_conservation(result, path),
                          *_certify_throttles(result, path),
                          *_certify_isolation(result, path),
                          *_certify_fairness(result, path)])


def verify_sched(cases: Sequence[FleetCase] | None = None,
                 with_tag_lint: bool = True) -> list[Finding]:
    """Certify every battery cell; ``[]`` means the scheduler is clean."""
    from repro.sched.battery import fleet_cases, run_fleet_case

    findings: list[Finding] = []
    findings.extend(_certify_metric_degenerates())
    for case in (fleet_cases() if cases is None else cases):
        result = run_fleet_case(case)
        findings.extend(certify_fleet(result, case.path))
    if with_tag_lint:
        findings.extend(lint_job_tagging())
    return sort_findings(findings)
