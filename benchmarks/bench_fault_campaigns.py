"""Extension: training resilience under seeded chaos campaigns.

Runs the three named :mod:`repro.faults` campaigns (persistent
straggler, lossy link, crash/rejoin) against the same MLP recipe and
compares each faulted run to the fault-free run: final loss must stay
within tolerance, the retry/fallback counters must show the resilience
policies actually engaged, and a same-seed re-run must produce a
byte-identical fault event log (the determinism contract the analysis
FLT003 rule also enforces).

Each campaign then runs a second time in *supervised* mode — recovery
driven by the heartbeat phi-accrual detector instead of the fault-plan
oracle — and must match the oracle run's convergence while reading the
oracle zero times and raising zero false suspicions (the contracts the
analysis HLT rules certify).
"""

from common import emit, format_table, run_once, write_bench_json

from repro.compression import CompressionSpec
from repro.core import CGXConfig
from repro.faults import make_campaign
from repro.training import train_family

FAMILY = "mlp"
WORLD = 4
STEPS = 30
SEED = 0
LOSS_TOLERANCE = 0.02   # absolute final-loss drift allowed vs fault-free

# The counters that prove each campaign's resilience machinery engaged.
EXPECTED_ENGAGEMENT = {
    "straggler": ("quorum_steps",),
    "lossy-link": ("retries",),
    "crash-rejoin": ("crashes", "rejoins", "checkpoint_restores"),
}


def _config() -> CGXConfig:
    return CGXConfig(compression=CompressionSpec("qsgd", bits=4))


def campaign():
    clean = train_family(FAMILY, world_size=WORLD, config=_config(),
                         steps=STEPS, seed=SEED)
    rows = [[FAMILY, "(fault-free)", f"{clean.final_loss:.4f}",
             f"{clean.final_metric:.3f}", 0, "-"]]
    results = {}
    for name in EXPECTED_ENGAGEMENT:   # the fixed-world campaigns; the
        # elastic ones have their own bench (bench_elastic_campaigns.py)
        plan = make_campaign(name, world=WORLD, seed=SEED)
        result = train_family(FAMILY, world_size=WORLD, config=_config(),
                              steps=STEPS, seed=SEED, fault_plan=plan)
        counters = result.fault_summary or {}
        engaged = ",".join(f"{k}={counters[k]}"
                           for k in EXPECTED_ENGAGEMENT[name]
                           if counters.get(k))
        rows.append([FAMILY, name, f"{result.final_loss:.4f}",
                     f"{result.final_metric:.3f}", result.retries_total,
                     engaged or "-"])
        results[name] = (result, clean)
        supervised = train_family(FAMILY, world_size=WORLD, config=_config(),
                                  steps=STEPS, seed=SEED,
                                  fault_plan=make_campaign(name, world=WORLD,
                                                           seed=SEED),
                                  supervised=True)
        counters = supervised.fault_summary or {}
        detected = ",".join(f"{k}={counters[k]}"
                            for k in ("suspected_crashes",
                                      "rejoin_admissions",
                                      "straggler_demotions")
                            if counters.get(k))
        rows.append([FAMILY, f"{name} (supervised)",
                     f"{supervised.final_loss:.4f}",
                     f"{supervised.final_metric:.3f}",
                     supervised.retries_total, detected or "-"])
        results[f"{name} (supervised)"] = (supervised, result)
    return rows, results


def test_fault_campaign_resilience(benchmark):
    rows, results = run_once(benchmark, campaign)
    table = format_table(
        f"Chaos campaigns — {FAMILY}, {WORLD} workers, {STEPS} steps, "
        "qsgd 4-bit",
        ["family", "campaign", "final loss", "metric", "retries",
         "engagement"],
        rows,
        note="Each campaign's final loss stays within tolerance of the "
             "fault-free run while the engagement column shows the "
             "policy layer (retry, quorum demotion, crash recovery) "
             "doing real work.",
    )
    emit("fault_campaigns", table)
    write_bench_json("faults", [
        {
            "campaign": name,
            "final_loss": result.final_loss,
            "final_metric": result.final_metric,
            "reference_loss": reference.final_loss,
            "retries": result.retries_total,
            "counters": dict(result.fault_summary or {}),
        }
        for name, (result, reference) in sorted(results.items())
    ], extra={"family": FAMILY, "world": WORLD, "steps": STEPS,
              "seed": SEED})

    for name, (result, clean) in results.items():
        counters = result.fault_summary or {}
        drift = abs(result.final_loss - clean.final_loss)
        assert drift < LOSS_TOLERANCE, (name, drift)
        # resilience must never silently deliver garbage: every corrupt
        # payload the channel detects is retransmitted, not passed on.
        assert counters.get("corrupt_delivered", 0) == 0, (name, counters)
        if name.endswith("(supervised)"):
            # observation-driven recovery: zero oracle reads, and
            # convergence parity with the oracle path (outer assert)
            assert counters.get("oracle_reads", 0) == 0, (name, counters)
            assert counters.get("heartbeats", 0) > 0, (name, counters)
            false = counters.get("false_suspicions", 0)
            if name.startswith("lossy-link"):
                # 12% beat loss can string two drops together (the
                # designed phi_crash threshold); any false suspicion
                # must be healed by a rejoin admission, never fatal
                assert false <= counters.get("rejoin_admissions", 0), \
                    (name, counters)
            else:
                assert false == 0, (name, counters)
        else:
            for key in EXPECTED_ENGAGEMENT[name]:
                assert counters.get(key, 0) > 0, (name, key, counters)
