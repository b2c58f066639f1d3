#!/usr/bin/env python3
"""Convergence of the per-copy passive energy toward the entropy-matched
Gibbs asymptote, plus the product-vs-entangling work comparison.

By default runs the bundled three-level demo instance and writes the
e(n) table as CSV next to a printed summary. Any problem JSON accepted
by the CLI works.
"""

import argparse
from pathlib import Path

from ergokit import (best_product_work, curve, entangling_advantage,
                     ergotropy)
from ergokit.cli import fmt, load_problem, open_output, write_curve_csv

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_PROBLEM = REPO_ROOT / "demo" / "qutrit.json"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--problem", default=str(DEFAULT_PROBLEM),
                        help="problem JSON file (default: bundled demo)")
    parser.add_argument("--n-max", type=int, default=40)
    parser.add_argument("--out", default="convergence.csv",
                        help="CSV output path")
    args = parser.parse_args()

    battery, state, label = load_problem(args.problem)
    if label:
        print(f"instance: {label}")
    result = curve(state, battery, args.n_max)

    print(f"initial energy per copy: {fmt(result.initial_energy)}")
    print(f"single-copy ergotropy:   {fmt(ergotropy(state, battery))}")
    print(f"Gibbs asymptote:         {fmt(result.asymptote)}")
    print()
    print(f"{'n':>4} {'e(n)':>22} {'gap to asymptote':>22}")
    shown = sorted({1, 2, 3, 4, 6, 8, 12, 16, 24, 32, args.n_max}
                   & set(result.n_values))
    for n in shown:
        e_n = result.passive_energy[n]
        print(f"{n:>4} {fmt(e_n):>22} {fmt(e_n - result.asymptote):>22}")

    with open_output(args.out) as fh:
        write_curve_csv(fh, result)
    print(f"\nwrote {len(result.n_values)} rows to {args.out}")

    if args.n_max >= 2:
        adv = entangling_advantage(state, battery, 2)
        print(f"\ntwo copies: best product work  = "
              f"{fmt(best_product_work(state, battery, 2))}")
        print(f"two copies: best global work   = "
              f"{fmt(2 * result.work[2])}")
        print(f"two copies: entangling advantage = {fmt(adv)}")


if __name__ == "__main__":
    main()
