"""Group-churn sweep: incremental repair vs replan under membership churn.

The paper's experiments fix each multicast's destination set for the whole
run; this sweep asks what the NI-vs-switch comparison looks like when the
*group itself* is the moving part.  Each cell drives one seeded join/leave
stream (churn rate x group size) through a paired run
(:func:`repro.groups.churn.run_paired_churn`): a patched group (path plans
graft/prune; tree plans replan on every change, so the tree curves sit at
1.0) and a twin that replans on every change.  The pairing is exact --
both sides share the topology, the stream, and the network -- so the
reported replan fraction and patched-vs-fresh cost ratio are measured,
not sampled.

One curve per (scheme, group size), replan fraction over churn rate.
Per-point ``meta`` carries the delivery-identity verdict, the legality
verify count, the cost ratios, the switch multicast-table stats (charged
to switch-based schemes only), and the run's replayable digest -- the
acceptance surface for path repair's <=20%-replans contract.
"""

from __future__ import annotations

from repro.experiments.base import ExperimentResult, Series
from repro.experiments.config import Profile
from repro.experiments.runner import Cell, derive_seed, execute_cells
from repro.params import SimParams

EXP_ID = "group-churn"

SCHEMES = ("ni", "tree", "path")
RATES = (0.25, 0.5, 1.0)
QUICK_SIZES = (4, 8)
FULL_SIZES = (4, 8, 16)
QUICK_STEPS = 40
FULL_STEPS = 120

QUALITY_BOUND = 1.5
TABLE_CAPACITY = 8
TABLE_POLICY = "lru"


def run(profile: Profile, base: SimParams | None = None) -> ExperimentResult:
    base = base or SimParams()
    full = profile.name == "full"
    sizes = FULL_SIZES if full else QUICK_SIZES
    steps = FULL_STEPS if full else QUICK_STEPS
    knobs = (
        ("steps", steps),
        ("quality_bound", QUALITY_BOUND),
        ("table_capacity", TABLE_CAPACITY),
        ("table_policy", TABLE_POLICY),
    )
    cells = [
        Cell(
            kind="churn",
            exp_id=EXP_ID,
            params=base,
            scheme=scheme,
            coords=(("size", size), ("rate", rate)),
            knobs=knobs,
            # Scheme excluded from the seed key (the pairing rule): every
            # scheme repairs through the identical topology + churn stream.
            seed=derive_seed(profile.seed, EXP_ID, size, rate),
        )
        for scheme in SCHEMES
        for size in sizes
        for rate in RATES
    ]
    values = execute_cells(cells)
    series = []
    i = 0
    for scheme in SCHEMES:
        for size in sizes:
            block = values[i:i + len(RATES)]
            i += len(RATES)
            series.append(
                Series(
                    label=f"{scheme} size={size}",
                    x=[float(r) for r in RATES],
                    y=[v["patched"]["replan_fraction"] for v in block],
                    meta={
                        "scheme": scheme,
                        "size": size,
                        "points": [
                            {
                                "rate": rate,
                                "events": v["events"],
                                "delivery_identical": v["delivery_identical"],
                                "verify_failures": v["verify_failures"],
                                "patched": v["patched"],
                                "twin_replans": v["twin_replans"],
                                "max_cost_ratio": v["max_cost_ratio"],
                                "mean_cost_ratio": v["mean_cost_ratio"],
                                "tables": v.get("tables"),
                                "digest": v["digest"],
                            }
                            for rate, v in zip(RATES, block)
                        ],
                    },
                )
            )
    return ExperimentResult(
        exp_id=EXP_ID,
        title=(
            "Dynamic-group churn: replan fraction under incremental repair "
            "(patched vs replan-every-change, paired by seed)"
        ),
        x_label="churn rate (events/step)",
        y_label="replan fraction of membership changes",
        series=series,
    )
