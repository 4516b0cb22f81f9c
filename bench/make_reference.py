"""Regenerate reference.json, the recall gate of the Darboux hunts.

    python3 bench/make_reference.py

Runs one pass of every analyze workload at each committed hunt seed and
records each problem's certificate status and accepted-point count: what
the hunt finds, not what it should find.  Outputs that fail the other
checks are recorded all the same and listed on standard error, so a defect
stays visible in the runs at that hunt seed.  Rerun it only when a change
is meant to alter what the hunt finds, and say so.
"""

import json
import sys

import run
from workloads import REFERENCE_PATH, WORKLOADS

HUNT_SEEDS = (0, 1)


def main() -> int:
    algpot = run.import_algpot()
    reference = {}
    for name in ("nbody-hunt", "small-corpus"):
        for hunt_seed in HUNT_SEEDS:
            plan = WORKLOADS[name](algpot, 0, hunt_seed, {})
            states = plan.setup()
            _, outputs, errors = run.run_pass(plan, states)
            tally = run.Tally(plan)
            tally.record_pass(states, outputs, errors)
            for msg in tally.messages:
                print(f"{name} hunt seed {hunt_seed}: FAILED {msg}", file=sys.stderr)
            reference.setdefault(name, {})[str(hunt_seed)] = {
                task.label: {"status": out[0]["certificate"]["status"],
                             "accepted": out[0]["darboux"]["n_accepted"]}
                for task, out in sorted(zip(plan.tasks, outputs),
                                        key=lambda item: item[0].label)}
            print(name, hunt_seed, reference[name][str(hunt_seed)], flush=True)
    with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
