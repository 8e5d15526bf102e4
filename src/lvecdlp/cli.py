"""Command-line surface: solve, experiment, verify, params, find-curve, dlp.

Text formats
------------
Curve: ``q a b`` (three integers).  Point: ``x y`` in affine coordinates, or
the literal token ``O`` for the identity.  These forms appear in manifests
and debug dumps; the flags below take the integers individually.

Config files are flat ``key = value`` text, one pair per line, ``#`` starts
a comment.  Keys mirror the long CLI flags with underscores (``q``, ``a``,
``b``, ``gx``, ``gy``, ``order``, ``qx``, ``qy``, ``nprime``, ``l``,
``solver``, ``seed``, ``trials``, ``m``, ``max_iterations``,
``accident_check``, ``enum_budget``, ``timing``, ``manifest``, ``log``,
``csv``, ``json``).  Each pair is read as the flag ``--key=value`` ahead of
the command line's own flags, so explicit flags win; a key that is no
setting of the command is ignored.  A malformed value is a usage error
(exit 2), even when a flag overrides it.  Only ``q a b gx gy order``,
``qx qy`` and ``trials`` have no default and must come from a flag or the
file.

Determinism contract: with the same config and seed, manifests, CSVs, and
JSON-lines logs are byte-identical across runs.  Wall-clock timing is
therefore captured only when ``--timing`` is passed (the timing fields hold
0.0 otherwise); the console summary always shows real wall time.

``dlp`` answers with baby-step giant-step alone and has no ``--method``;
the linear-scan oracle that cross-checks it is a test reference.

Exit codes: 0 success, 2 usage error, 3 validation error, 4 budget or
iteration exhaustion, 5 internal invariant violation.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time
from itertools import islice
from pathlib import Path
from typing import Optional, Sequence

from . import __version__
from .analysis import (
    binomial_confidence_interval,
    select_parameters,
    success_model,
)
from .attack import (
    AttackConfig,
    SOLVER_CHOICES,
    SOLVER_EXHAUSTIVE,
    planted_trials,
    run_attack,
)
from .curve import Curve, GroupSpec, curve_to_text, find_prime_order_curve, point_to_text
from .dlp import solve_bsgs
from .errors import BudgetExceededError, InvariantViolationError
from .field import PrimeField, is_prime
from .problem_l import DEFAULT_ENUMERATION_BUDGET
from .verification import SUITE_NAMES, run_suites

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_BUDGET = 4
EXIT_INVARIANT = 5

CSV_HEADER = "trial,m,success,solver,kernel_dim,reject_reason,elapsed"
SCHEMA_VERSION = 1

_TRUE_TOKENS = {"1", "true", "on", "yes"}
_FALSE_TOKENS = {"0", "false", "off", "no"}
_NOT_SETTINGS = {"command", "func", "config"}


class UsageError(ValueError):
    """Missing or malformed command-line settings."""


def parse_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        values[key.strip()] = value.strip()
    return values


def config_flags(path: str, settable: set[str]) -> list[str]:
    """The pairs of a config file as ``--key=value`` flags; a key not in ``settable`` is ignored."""
    pairs = parse_config_file(path).items()
    return [f"--{key.replace('_', '-')}={value}" for key, value in pairs if key in settable]


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in _TRUE_TOKENS:
        return True
    if lowered in _FALSE_TOKENS:
        return False
    raise argparse.ArgumentTypeError(f"expected a boolean (on/off), got {text!r}")


def _require(args: argparse.Namespace, *keys: str) -> None:
    """Settings without a default, which a config file may supply in place of a flag."""
    for key in keys:
        if getattr(args, key) is None:
            raise UsageError(f"missing required setting '{key}'")


def build_group(args: argparse.Namespace) -> GroupSpec:
    _require(args, "q", "a", "b", "gx", "gy", "order")
    curve = Curve(PrimeField(args.q), args.a, args.b)
    return GroupSpec(curve, curve.point(args.gx, args.gy), args.order)


def build_target(args: argparse.Namespace, group: GroupSpec) -> tuple[int, int]:
    _require(args, "qx", "qy")
    return group.curve.point(args.qx, args.qy)


def _attack_settings(args: argparse.Namespace) -> dict:
    """The attack settings of solve's and experiment's flags, as ``AttackConfig`` and ``planted_trials`` take them."""
    return dict(
        n_prime=args.nprime,
        l=args.l,
        solver=args.solver,
        seed=args.seed,
        accident_check=args.accident_check,
        enumeration_budget=args.enum_budget,
    )


def _output_head(command: str, cfg: AttackConfig, timing: bool, **extra) -> dict:
    """The head of a manifest or summary: the tool, the command, and the
    settings a config resolved, plus ``extra``."""
    group = cfg.group
    config = {
        "q": group.curve.q,
        "a": group.curve.a,
        "b": group.curve.b,
        "gx": group.generator[0],
        "gy": group.generator[1],
        "order": group.order,
        "nprime": cfg.n_prime,
        "l": cfg.l,
        "solver": cfg.solver,
        "seed": cfg.seed,
        "accident_check": "on" if cfg.accident_check else "off",
        "enum_budget": cfg.enumeration_budget,
        "timing": "on" if timing else "off",
        **extra,
    }
    tool = {"name": "lvecdlp", "version": __version__, "schema": SCHEMA_VERSION}
    return {"tool": tool, "command": command, "config": config}


def check_writable(path: str) -> None:
    """Reject an output path that cannot be written, before any work is done."""
    target = Path(path)
    parent = target.parent
    if not parent.is_dir():
        raise ValueError(f"cannot write {path}: directory {parent} does not exist")
    if target.is_dir():
        raise ValueError(f"cannot write {path}: it is a directory")
    if not os.access(target if target.exists() else parent, os.W_OK):
        raise ValueError(f"cannot write {path}: permission denied")


def write_json(path: str, payload: dict) -> None:
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def cmd_solve(args: argparse.Namespace) -> int:
    group = build_group(args)
    target = build_target(args, group)
    cfg = AttackConfig(group=group, target=target, max_iterations=args.max_iterations, **_attack_settings(args))
    for path in (args.manifest, args.log):
        if path:
            check_writable(path)

    log_handle = open(args.log, "w") if args.log else None
    try:
        def sink(record):
            if log_handle is not None:
                log_handle.write(json.dumps(record.to_dict(), sort_keys=True) + "\n")

        started = time.perf_counter()
        outcome = run_attack(cfg, on_record=sink)
        elapsed = time.perf_counter() - started
        summary = {
            "success": outcome.succeeded,
            "m": outcome.m,
            "iterations_used": outcome.iterations_used,
            "accident": list(outcome.accident) if outcome.accident else None,
            "failure_reason": outcome.failure_reason,
            "wall_time_s": round(elapsed, 6) if args.timing else 0.0,
        }
        if log_handle is not None:
            log_handle.write(json.dumps({"summary": summary}, sort_keys=True) + "\n")
    finally:
        if log_handle is not None:
            log_handle.close()

    manifest = {
        **_output_head("solve", cfg, args.timing, qx=target[0], qy=target[1], max_iterations=cfg.max_iterations),
        "curve": curve_to_text(group.curve),
        "generator": point_to_text(group.generator),
        "target": point_to_text(target),
        "records": [record.to_dict() for record in outcome.records],
        "summary": summary,
    }
    if args.manifest:
        write_json(args.manifest, manifest)

    if outcome.succeeded:
        print(f"m = {outcome.m} (verified, {outcome.iterations_used} iteration(s))")
        if args.manifest:
            print(f"manifest written to {args.manifest}")
        print(f"wall time: {elapsed:.3f}s")
        return EXIT_OK
    print(f"failed: {outcome.failure_reason} after {outcome.iterations_used} iteration(s)", file=sys.stderr)
    if args.manifest:
        print(f"manifest written to {args.manifest}", file=sys.stderr)
    return EXIT_BUDGET


def cmd_experiment(args: argparse.Namespace) -> int:
    group = build_group(args)
    _require(args, "trials")
    if args.trials < 1:
        raise UsageError(f"trials must be >= 1, got {args.trials}")
    if args.m is not None and args.m % group.order == 0:
        raise UsageError(f"m = {args.m} is a multiple of the group order {group.order} and plants the identity")
    check_writable(args.csv)
    check_writable(args.json)

    p = group.order
    rows = [CSV_HEADER]
    successes = 0
    accidents = 0
    kernel_dims: dict[int, int] = {}
    stream = planted_trials(group, fixed_m=args.m, **_attack_settings(args))
    started = trial_started = time.perf_counter()
    for trial in islice(stream, args.trials):
        trial_elapsed = time.perf_counter() - trial_started
        record = trial.record
        success = record.m is not None
        successes += int(success)
        accidents += int(record.accident is not None)
        dim = record.kernel_dim if record.kernel_dim is not None else -1
        kernel_dims[dim] = kernel_dims.get(dim, 0) + 1
        reason = "+".join(record.reject_reasons) if record.reject_reasons else "none"
        elapsed_field = f"{trial_elapsed:.6f}" if args.timing else "0.0"
        rows.append(f"{trial.index},{trial.m},{int(success)},{args.solver},{dim},{reason},{elapsed_field}")
        trial_started = time.perf_counter()
    wall = time.perf_counter() - started
    cfg = trial.cfg  # every trial of the stream resolves the same settings

    Path(args.csv).write_text("\n".join(rows) + "\n")

    rate = successes / args.trials
    ci_low, ci_high = binomial_confidence_interval(successes, args.trials)
    model = success_model(p, cfg.n_prime, cfg.l)
    summary = {
        **_output_head("experiment", cfg, args.timing, trials=args.trials, m=args.m),
        "summary": {
            "trials": args.trials,
            "successes": successes,
            "rate": rate,
            "ci95": [ci_low, ci_high],
            "accidents": accidents,
            "kernel_dims": {str(k): v for k, v in sorted(kernel_dims.items())},
            "model": model.to_dict(),
            "wall_time_s": round(wall, 6) if args.timing else 0.0,
        },
    }
    write_json(args.json, summary)

    print(f"trials: {args.trials}, successes: {successes}, rate: {rate:.4f} (95% CI [{ci_low:.4f}, {ci_high:.4f}])")
    print(f"model per-iteration: {model.per_iteration:.4f} with C = {model.subsets}")
    print(f"csv written to {args.csv}; summary written to {args.json}")
    print(f"wall time: {wall:.3f}s")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    if not math.isfinite(args.scale) or args.scale <= 0:
        raise UsageError(f"scale must be a finite number above 0, got {args.scale}")
    for path in (args.report_csv, args.report_json):
        if path:
            check_writable(path)
    reports = run_suites(args.suite, seed=args.seed, scale=args.scale)
    width = max(len(report.name) for report in reports)
    failed = False
    for report in reports:
        verdict = "PASS" if report.passed else "FAIL"
        print(f"{report.name:<{width}}  {verdict}")
        for line in report.lines:
            print(f"{'':<{width}}  - {line}")
        failed = failed or not report.passed
        if report.name == "partitions":
            if args.report_csv:
                Path(args.report_csv).write_text(report.details["csv"])
                print(f"{'':<{width}}  - audit table written to {args.report_csv}")
            if args.report_json:
                summary = {k: v for k, v in report.details.items() if k != "csv"}
                write_json(args.report_json, summary)
                print(f"{'':<{width}}  - audit summary written to {args.report_json}")
    return EXIT_INVARIANT if failed else EXIT_OK


def cmd_params(args: argparse.Namespace) -> int:
    p = args.order
    if not is_prime(p):
        raise ValueError(f"group order {p} is not prime")
    choice = select_parameters(p)
    model = success_model(p, choice.n_prime, choice.l)
    print(f"order p = {p}")
    print(f"n' = {choice.n_prime}, l = {choice.l}, C(3n'+l, l) = {choice.subsets}")
    print(f"central binomial Stirling estimate: {choice.stirling_estimate:.1f}")
    print(f"per-iteration success: {model.per_iteration:.4f}")
    print(
        "block-solver conditional estimate: "
        f"{model.alg2_conditional.numerator}/{model.alg2_conditional.denominator}"
        f" = {float(model.alg2_conditional):.4f}"
    )
    print(f"overall estimate 0.6*(ln p)^2/p = {model.overall_estimate_ln:.6f}")
    print(f"overall estimate 0.6*(log2 p)^2/p = {model.overall_estimate_log2:.6f}")
    return EXIT_OK


def cmd_find_curve(args: argparse.Namespace) -> int:
    field = PrimeField(args.q)
    group = find_prime_order_curve(field, args.order_min, args.order_max, args.max_candidates)
    print(f"curve: {curve_to_text(group.curve)}")
    print(f"generator: {point_to_text(group.generator)}")
    print(f"order: {group.order}")
    return EXIT_OK


def cmd_dlp(args: argparse.Namespace) -> int:
    group = build_group(args)
    target = build_target(args, group)
    print(f"m = {solve_bsgs(group, target)}")
    return EXIT_OK


def _add_group_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--q", type=int, help="field size (prime)")
    parser.add_argument("--a", type=int, help="curve coefficient a")
    parser.add_argument("--b", type=int, help="curve coefficient b")
    parser.add_argument("--gx", type=int, help="generator x")
    parser.add_argument("--gy", type=int, help="generator y")
    parser.add_argument("--order", type=int, help="prime order of the generator")
    parser.add_argument("--config", help="flat key = value config file, read as flags ahead of the command line's")


def _add_target_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--qx", type=int, help="target x")
    parser.add_argument("--qy", type=int, help="target y")


def _add_attack_flags(parser: argparse.ArgumentParser, accident_check: bool) -> None:
    parser.add_argument("--nprime", type=int, default=1, help="interpolating curve degree (default %(default)s)")
    parser.add_argument("--l", type=int, help="extra rows / required zeros (default 3 * nprime)")
    parser.add_argument(
        "--solver", choices=SOLVER_CHOICES, default=SOLVER_EXHAUSTIVE, help="zero-pattern solver (default %(default)s)"
    )
    parser.add_argument("--seed", type=int, default=0, help="run seed (default %(default)s)")
    parser.add_argument(
        "--enum-budget", dest="enum_budget", type=int, default=DEFAULT_ENUMERATION_BUDGET, help="subset enumeration cap"
    )
    parser.add_argument(
        "--accident-check",
        dest="accident_check",
        type=_parse_bool,
        default=accident_check,
        metavar="{on,off}",
        help=f"detect cross-block point collisions (default {'on' if accident_check else 'off'})",
    )
    parser.add_argument(
        "--timing",
        nargs="?",
        type=_parse_bool,
        const=True,
        default=False,
        metavar="{on,off}",
        help="record wall-clock fields in output files",
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(prog="lvecdlp", description=__doc__.split("\n")[0])
    parser.add_argument("--version", action="version", version=f"lvecdlp {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run the attack on one instance")
    _add_group_flags(solve)
    _add_target_flags(solve)
    _add_attack_flags(solve, accident_check=True)
    solve.add_argument("--max-iterations", dest="max_iterations", type=int)
    solve.add_argument("--manifest", default="manifest.json", help="manifest output path (default %(default)s)")
    solve.add_argument("--log", help="per-iteration JSON-lines log path")
    solve.set_defaults(func=cmd_solve)

    experiment = sub.add_parser("experiment", help="independent single-iteration trials")
    _add_group_flags(experiment)
    _add_attack_flags(experiment, accident_check=False)
    experiment.add_argument("--trials", type=int, help="number of trials")
    experiment.add_argument("--m", type=int, help="fix the planted logarithm instead of sampling")
    experiment.add_argument("--csv", default="experiment.csv", help="per-trial CSV path (default %(default)s)")
    experiment.add_argument("--json", default="experiment.json", help="summary JSON path (default %(default)s)")
    experiment.set_defaults(func=cmd_experiment)

    verify = sub.add_parser("verify", help="run a verification suite")
    verify.add_argument("--suite", required=True, choices=SUITE_NAMES + ("all",))
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--scale", type=float, default=1.0, help="trial-count multiplier for smoke runs")
    verify.add_argument("--report-csv", dest="report_csv", help="write the partition audit table here")
    verify.add_argument("--report-json", dest="report_json", help="write the partition audit summary here")
    verify.set_defaults(func=cmd_verify)

    params = sub.add_parser("params", help="suggest n' and l for a group order")
    params.add_argument("--order", type=int, required=True)
    params.set_defaults(func=cmd_params)

    find_curve = sub.add_parser("find-curve", help="scan for a prime-order fixture curve")
    find_curve.add_argument("--q", type=int, required=True)
    find_curve.add_argument("--order-min", dest="order_min", type=int, required=True)
    find_curve.add_argument("--order-max", dest="order_max", type=int, required=True)
    find_curve.add_argument("--max-candidates", dest="max_candidates", type=int)
    find_curve.set_defaults(func=cmd_find_curve)

    dlp = sub.add_parser("dlp", help="solve an instance with baby-step giant-step")
    _add_group_flags(dlp)
    _add_target_flags(dlp)
    dlp.set_defaults(func=cmd_dlp)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None):
            # The file's pairs go ahead of argv's flags, so that the flags win.
            flags = config_flags(args.config, set(vars(args)) - _NOT_SETTINGS)
            at = argv.index(args.command) + 1
            args = parser.parse_args([*argv[:at], *flags, *argv[at:]])
        return args.func(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetExceededError as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except InvariantViolationError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except (ValueError, ZeroDivisionError, OSError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
