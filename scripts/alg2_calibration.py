#!/usr/bin/env python3
"""Calibrate the block-elimination solver against the l^2 / C heuristic.

Harvests solvable zero-pattern instances from fresh attack iterations, runs
the block solver on each, and reports its conditional success rate next to
the heuristic estimate.  Also re-checks soundness of every returned vector.
"""

import argparse
import time

from lvecdlp.analysis import success_model
from lvecdlp.attack import planted_trials, sample_iteration
from lvecdlp.linalg import in_row_space, left_kernel
from lvecdlp.problem_l import solve_alg2, solve_exhaustive
from lvecdlp.verification import fixture_medium


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--instances", type=int, default=300, help="solvable instances to collect")
    parser.add_argument("--nprime", type=int, default=2)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    if args.instances < 1:
        parser.error(f"--instances must be >= 1, got {args.instances}")

    group = fixture_medium()
    p = group.order

    started = time.perf_counter()
    solvable = 0
    finds = 0
    unsound = 0
    for trial in planted_trials(group, seed=args.seed, n_prime=args.nprime):
        l = trial.cfg.l
        kernel = left_kernel(trial.cfg.monomials, sample_iteration(trial.cfg, trial.index).points, group.curve.q)
        # A decoded logarithm already proves the instance solvable.
        if trial.record.m is None and solve_exhaustive(kernel, l) is None:
            continue
        solvable += 1
        candidate = solve_alg2(kernel.vectors, l, kernel.p)
        if candidate is not None:
            finds += 1
            unsound += candidate.count(0) < l or not in_row_space(kernel.vectors, candidate, kernel.p)
        if solvable >= args.instances:
            break
    elapsed = time.perf_counter() - started

    conditional = finds / solvable
    heuristic = success_model(p, args.nprime, l).alg2_conditional
    print(f"group order {p}, nprime {args.nprime}, l {l}")
    print(f"solvable instances: {solvable} (from {trial.index} iterations)")
    print(f"block solver finds: {finds} (conditional {conditional:.4f})")
    print(f"heuristic l^2/C: {float(heuristic):.4f} ({heuristic.numerator}/{heuristic.denominator})")
    if conditional > 0:
        print(f"ratio measured/heuristic: {conditional / float(heuristic):.2f}")
    print(f"unsound returns: {unsound} (must be 0)")
    print(f"elapsed: {elapsed:.1f}s")


if __name__ == "__main__":
    main()
