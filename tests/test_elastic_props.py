"""Property tests for elastic membership (hypothesis).

The ELA battery certifies the stock campaigns; these properties hammer
the :class:`~repro.faults.elastic.ElasticCoordinator` protocol over
random grow/shrink/warning sequences and random engine drain behavior —
the state-space corners two fixed campaigns can only sample:

* a rank is admitted at most once, ever (no double-admit);
* graceful exits never shrink the membership below the quorum floor;
* whenever a clean drain is reachable (alive, drained, ahead of the
  deadline, headroom above the floor) the warned rank takes it, and
  every warned member either drains out or degrades exactly at its
  deadline — the pure log audit stays clean on every trajectory;
* the one quorum-floor rule equals both rules it replaced (the oracle's
  scale-keyed one and the supervisor's lag-keyed one).
"""

import math

from hypothesis import given, settings, strategies as st

from repro.faults import (ElasticCoordinator, FaultPlan, PlanRuntime,
                          check_drain_protocol, preempt_warning, provision,
                          quorum_floor)

GPUS = ("RTX3090", "V100", "A6000", "RTX2080Ti")
HORIZON = 16


@st.composite
def elastic_plans(draw):
    """A random valid elastic plan: world 2..5, 0..3 joins, 0..3 warns."""
    world = draw(st.integers(min_value=2, max_value=5))
    events = []
    n_provisions = draw(st.integers(min_value=0, max_value=3))
    boot_steps = {}
    for i in range(n_provisions):
        rank = world + i
        at = draw(st.integers(min_value=1, max_value=HORIZON - 4))
        boot_steps[rank] = at
        events.append(provision(rank=rank, at=at,
                                gpu_spec=draw(st.sampled_from(GPUS))))
    candidates = list(range(world + n_provisions))
    warned = draw(st.lists(st.sampled_from(candidates), unique=True,
                           max_size=3))
    for rank in warned:
        lo = max(1, boot_steps.get(rank, 1))
        at = draw(st.integers(min_value=lo, max_value=HORIZON - 2))
        events.append(preempt_warning(
            rank=rank, at=at,
            deadline_steps=draw(st.integers(min_value=1, max_value=5))))
    return FaultPlan("prop", world, draw(st.integers(0, 99)), tuple(events))


def _drive(plan, drain_flags):
    """Run the coordinator protocol for HORIZON steps; check invariants."""
    runtime = PlanRuntime(plan)
    coord = ElasticCoordinator(runtime, plan.world)
    missed_clean_exit = []
    # run past every drain deadline so each warning resolves in-log
    end = max([HORIZON] + [e.deadline + 1 for e in plan.events
                           if e.kind == "preempt_warning"])
    for step in range(1, end + 1):
        faults = runtime.advance(step)
        dead = faults.dead_ranks()
        coord.poll_notices(step, faults)
        drained = drain_flags[(step - 1) % len(drain_flags)]
        coord.admit(step, drained)

        # membership state is internally consistent at every step
        assert coord.draining.keys() <= coord.members
        assert not coord.members & coord.departed
        assert coord.members <= set(range(plan.max_world))

        eligible = sorted(r for r, deadline in coord.draining.items()
                          if r not in dead and drained and step < deadline)
        headroom = max(0, len(coord.members) - coord.min_members)
        reachable = eligible[:headroom]
        exited = coord.end_step(step, drained, dead)
        missed_clean_exit.extend(set(reachable) - set(exited))

        # graceful exits never shrink below the quorum floor
        assert len(coord.members) >= coord.min_members
    return runtime, coord, missed_clean_exit


@given(plan=elastic_plans(),
       drain_flags=st.lists(st.booleans(), min_size=1, max_size=8))
@settings(max_examples=120, deadline=None)
def test_membership_invariants_under_random_trajectories(plan, drain_flags):
    runtime, coord, missed = _drive(plan, drain_flags)

    # drain-before-deadline holds whenever it was reachable
    assert missed == []

    # no double-admit: each provisioned rank joins at most once
    admits = [detail["rank"] for _, detail
              in runtime.records_of("admit_provisioned")]
    assert len(admits) == len(set(admits))
    assert runtime.counters.provision_admissions == len(admits)

    # every warned member resolved: drained out, degraded at its exact
    # deadline, or cancelled before joining — the pure audit is clean
    assert check_drain_protocol(plan, runtime.records) == []


@given(plan=elastic_plans())
@settings(max_examples=60, deadline=None)
def test_always_drained_trajectories_admit_every_unwarned_provision(plan):
    runtime, coord, _ = _drive(plan, [True])
    warned = {e.rank for e in plan.events if e.kind == "preempt_warning"}
    for event in plan.events:
        if event.kind != "provision" or event.rank in warned:
            continue
        # with the engine always drained, an unwarned provision is
        # admitted and stays a member to the end
        assert event.rank in coord.members


@given(plan=elastic_plans(),
       drain_flags=st.lists(st.booleans(), min_size=1, max_size=8))
@settings(max_examples=60, deadline=None)
def test_same_trajectory_is_deterministic(plan, drain_flags):
    a, _, _ = _drive(plan, drain_flags)
    b, _, _ = _drive(plan, drain_flags)
    assert a.log_bytes() == b.log_bytes()


# -- the shared quorum-floor rule vs the two rules it replaced ---------------

def _scale_keyed_reference(pool, dead, scale, budget, fraction):
    """PR-13 ``select_members`` body, verbatim (oracle, scale-keyed)."""
    pool = sorted(set(pool))
    live = [r for r in pool if r not in dead]
    floor = max(1, math.ceil(fraction * len(pool)))
    kept = [r for r in live if scale[r] <= budget]
    if len(kept) < floor:
        demoted = sorted((r for r in live if r not in kept),
                         key=lambda r: (scale[r], r))
        kept = sorted(kept + demoted[:floor - len(kept)])
    return sorted(kept)


def _lag_keyed_reference(assessed, believed_dead, stragglers, lag, fraction):
    """PR-13 ``Supervisor.decide`` quorum block, verbatim (lag-keyed)."""
    assessed = sorted(assessed)
    demoted = [r for r in assessed
               if r not in believed_dead and r in stragglers]
    participants = [r for r in assessed
                    if r not in believed_dead and r not in demoted]
    floor = max(1, math.ceil(fraction * max(len(assessed), 1)))
    if len(participants) < floor and demoted:
        readmit = sorted(demoted, key=lambda r: (lag[r], r))
        while len(participants) < floor and readmit:
            rank = readmit.pop(0)
            demoted.remove(rank)
            participants.append(rank)
        participants.sort()
    return participants, demoted


@st.composite
def quorum_cases(draw):
    pool = draw(st.lists(st.integers(0, 11), unique=True, max_size=8))
    dead = set(draw(st.lists(st.sampled_from(pool), unique=True))
               ) if pool else set()
    # coarse values on purpose: ties must break by rank
    weight = {r: draw(st.sampled_from((1.0, 1.2, 2.0, 2.5, 3.0, 4.5)))
              for r in pool}
    fraction = draw(st.floats(min_value=0.05, max_value=1.0))
    return pool, dead, weight, fraction


@given(case=quorum_cases(),
       budget=st.sampled_from((1.0, 2.0, 2.5, 4.0)))
@settings(max_examples=300, deadline=None)
def test_quorum_floor_equals_both_replaced_rules(case, budget):
    pool, dead, weight, fraction = case
    floor = max(1, math.ceil(fraction * len(pool)))
    live = [r for r in pool if r not in dead]
    slow = [r for r in live if weight[r] > budget]

    quorum = quorum_floor(pool, dead, slow, fraction, weight.__getitem__)
    assert quorum == _scale_keyed_reference(pool, dead, weight, budget,
                                            fraction)
    participants, demoted = _lag_keyed_reference(pool, dead, set(slow),
                                                 weight, fraction)
    assert quorum == participants
    assert [r for r in sorted(slow) if r not in quorum] == demoted

    assert quorum == sorted(quorum)
    assert not set(quorum) & dead and set(quorum) <= set(pool)
    assert len(quorum) >= min(floor, len(live))
    # demotion is honoured whenever the floor allows it
    assert len(quorum) == max(len(live) - len(slow), min(floor, len(live)))
