#!/usr/bin/env python3
"""Sweep per-iteration success rates against the probability model.

For each configured group and degree, runs independent single-iteration
trials with the exhaustive solver and prints observed rate, the model value
1 - (1 - 1/p)^C, and the 95% confidence interval.
"""

import argparse
import time
from itertools import islice

from lvecdlp.analysis import binomial_confidence_interval, success_model
from lvecdlp.attack import planted_trials
from lvecdlp.verification import fixture_medium, fixture_small


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=500)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    if args.trials < 1:
        parser.error(f"--trials must be >= 1, got {args.trials}")

    cells = [
        (fixture_small(), 1),
        (fixture_medium(), 1),
        (fixture_medium(), 2),
    ]
    print(f"{'p':>5} {'nprime':>6} {'C':>5} {'observed':>9} {'model':>7} {'ci95':>18} {'secs':>6}")
    for group, n_prime in cells:
        model = success_model(group.order, n_prime, 3 * n_prime)
        started = time.perf_counter()
        stream = planted_trials(group, seed=args.seed, n_prime=n_prime)
        successes = sum(t.record.m is not None for t in islice(stream, args.trials))
        elapsed = time.perf_counter() - started
        rate = successes / args.trials
        low, high = binomial_confidence_interval(successes, args.trials)
        print(
            f"{group.order:>5} {n_prime:>6} {model.subsets:>5} {rate:>9.4f} "
            f"{model.per_iteration:>7.4f} [{low:.4f}, {high:.4f}] {elapsed:>6.1f}"
        )


if __name__ == "__main__":
    main()
