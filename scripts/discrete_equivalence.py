#!/usr/bin/env python3
"""Sweep the discrete filter/gradient comparison over models, fading
schedules, and seeds, and print a deviation table.  Exits 1 if any cell
aborts or fails its certificate, 0 otherwise.

Usage: python scripts/discrete_equivalence.py [--horizon 50] [--seeds 10]
"""

import argparse
import sys

from kalgrad.equivalence import (
    SWEEP_HORIZON,
    SWEEP_MODELS,
    SWEEP_SEEDS,
    check_discrete,
    sweep_cell,
    sweep_schedules,
)
from kalgrad.errors import NumericalError


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--horizon", type=int, default=SWEEP_HORIZON)
    parser.add_argument("--seeds", type=int, default=SWEEP_SEEDS)
    args = parser.parse_args(argv)
    certified = True

    print(f"{'model':<16} {'schedule':<12} {'worst state dev':>16} {'worst metric dev':>17}")
    for name in SWEEP_MODELS:
        for label, alpha in sweep_schedules(args.horizon).items():
            worst_s = worst_m = 0.0
            aborted = 0
            for seed in range(args.seeds):
                scenario, s0, p0 = sweep_cell(name, args.horizon, seed)
                try:
                    rep = check_discrete(scenario, s0, p0, alpha)
                except NumericalError:
                    aborted += 1
                    certified = False
                    continue
                certified = certified and rep.passed
                worst_s = max(worst_s, rep.max_state_dev)
                worst_m = max(worst_m, rep.max_metric_dev)
            note = f"  ({aborted} aborted)" if aborted else ""
            print(f"{name:<16} {label:<12} {worst_s:>16.3e} {worst_m:>17.3e}{note}")
    return 0 if certified else 1


if __name__ == "__main__":
    sys.exit(main())
