import argparse
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from collections import Counter
from itertools import islice
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import lvecdlp
from lvecdlp import cli
from lvecdlp.attack import SOLVER_CHOICES, AttackConfig, execute_iteration, planted_trials
from lvecdlp.cli import (
    EXIT_BUDGET,
    EXIT_INVARIANT,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VALIDATION,
    build_parser,
    main,
    parse_config_file,
)
from lvecdlp.verification import SUITE_NAMES, fixture_small, run_suites

P19 = ["--q", "17", "--a", "2", "--b", "2", "--gx", "5", "--gy", "1", "--order", "19"]
P907 = ["--q", "853", "--a", "1", "--b", "348", "--gx", "1", "--gy", "297", "--order", "907"]
# A curve of order 2 * 53, its generator of order 53, and a target of order 2
# outside the generator's group: every even multiple of -target is the identity.
TWO_TORSION_TARGET = [
    "--q", "101", "--a", "2", "--b", "7", "--gx", "73", "--gy", "44", "--order", "53",
    "--qx", "69", "--qy", "0", "--nprime", "1", "--seed", "1",
]


def run_solve(tmp_path, name, extra):
    manifest = tmp_path / f"{name}.json"
    code = main(["solve", *P19, "--manifest", str(manifest), *extra])
    return code, manifest


def test_solve_example(tmp_path, capsys):
    code, manifest = run_solve(
        tmp_path,
        "ok",
        ["--qx", "0", "--qy", "6", "--nprime", "1", "--solver", "exhaustive", "--seed", "1"],
    )
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "m = 7" in out
    payload = json.loads(manifest.read_text())
    assert payload["summary"]["m"] == 7
    assert payload["summary"]["success"] is True
    assert payload["config"]["seed"] == 1
    assert payload["curve"] == "17 2 2"
    assert payload["summary"]["wall_time_s"] == 0.0


def test_solve_missing_order_is_usage_error(tmp_path, capsys):
    code = main(
        ["solve", "--q", "17", "--a", "2", "--b", "2", "--gx", "5", "--gy", "1", "--qx", "0", "--qy", "6"]
    )
    assert code == EXIT_USAGE
    assert "order" in capsys.readouterr().err


def test_solve_target_off_curve_is_validation_error(tmp_path, capsys):
    code, _ = run_solve(tmp_path, "bad", ["--qx", "2", "--qy", "3"])
    assert code == EXIT_VALIDATION
    assert "not on" in capsys.readouterr().err


def test_solve_negative_enum_budget_is_validation_error_before_attack(tmp_path, capsys, monkeypatch):
    _forbid(monkeypatch, "run_attack")
    code, manifest = run_solve(tmp_path, "budget", ["--qx", "0", "--qy", "6", "--enum-budget", "-1"])
    assert code == EXIT_VALIDATION
    assert "enumeration_budget must be >= 1" in capsys.readouterr().err
    assert not manifest.exists()


def test_solve_budget_exhaustion_exit(tmp_path, capsys):
    code, manifest = run_solve(
        tmp_path,
        "exhausted",
        [
            "--qx", "0", "--qy", "6",
            "--solver", "alg2",
            "--seed", "1",
            "--max-iterations", "1",
            "--accident-check", "off",
        ],
    )
    assert code == EXIT_BUDGET
    payload = json.loads(manifest.read_text())
    assert payload["summary"]["success"] is False
    assert payload["summary"]["failure_reason"] == "iteration-budget-exhausted"


def test_solve_enumeration_budget_below_the_n1_sets_exits_budget(tmp_path, capsys):
    """An n' = 1 solve with --enum-budget below C(6, 3) = 20 skips the minors
    test of the points and stops on the exhaustive solver's budget guard."""
    code, _ = run_solve(tmp_path, "enum", ["--qx", "0", "--qy", "6", "--nprime", "1", "--enum-budget", "19"])
    assert code == EXIT_BUDGET
    assert "budget exhausted: C(6, 3) exceeds the enumeration budget 19" in capsys.readouterr().err


def test_solve_manifest_byte_determinism(tmp_path):
    extra = ["--qx", "0", "--qy", "6", "--solver", "exhaustive", "--seed", "9"]
    _, m1 = run_solve(tmp_path, "d1", extra)
    _, m2 = run_solve(tmp_path, "d2", extra)
    assert m1.read_bytes() == m2.read_bytes()


def test_solve_jsonl_log(tmp_path):
    log = tmp_path / "run.jsonl"
    code, manifest = run_solve(
        tmp_path,
        "logged",
        ["--qx", "0", "--qy", "6", "--solver", "exhaustive", "--seed", "2", "--log", str(log)],
    )
    assert code == EXIT_OK
    lines = [json.loads(line) for line in log.read_text().splitlines()]
    payload = json.loads(manifest.read_text())
    assert lines[:-1] == payload["records"]
    assert lines[-1] == {"summary": payload["summary"]}


# Seeded runs, timing off, and the sha256 of their output files (solve:
# manifest then log; experiment: CSV then JSON).  Each argv names its group,
# the p = 907 or the order-19 fixture.  The p = 907 solve targets are
# 123 * G = (434, 657), 640 * G = (782, 272) and 451 * G = (16, 282).
PINNED_CLI_RUNS = {
    "solve-n1": (
        ["solve", *P907, "--qx", "434", "--qy", "657", "--nprime", "1", "--seed", "5"],
        "9908ef0f24333519a8101b6aa4a046d1e3cb9d1ead59fe28c128a12074ed40c1",
    ),
    "solve-n2": (
        ["solve", *P907, "--qx", "782", "--qy", "272", "--nprime", "2", "--seed", "6"],
        "c3a659b85a97dec6d15e257bf0be6c2aa7b6d90a8cafcd959c80af3d34b33d3b",
    ),
    "experiment-n1": (
        ["experiment", *P907, "--nprime", "1", "--trials", "30", "--seed", "3"],
        "bef530afff2b611ea600351b4dd27a2469199595f26c84be9876418edffaeb41",
    ),
    "experiment-n1-m": (
        ["experiment", *P907, "--nprime", "1", "--trials", "30", "--seed", "3", "--m", "123"],
        "1939d5cf493bdd19aca20973003c00a3907095d5cdc31ed20742d8f900b9326e",
    ),
    "experiment-n2": (
        ["experiment", *P907, "--nprime", "2", "--trials", "30", "--seed", "3"],
        "ac5411a62e03966ca11f7a20da4664f67d5f6f9858f3d94ddf38cf5e62969064",
    ),
    "experiment-n2-m": (
        ["experiment", *P907, "--nprime", "2", "--trials", "30", "--seed", "3", "--m", "123"],
        "fa0ee7db96d8b11fc3736d483edfaeafe2116d8127de84ce4c6408a6d8112ed2",
    ),
    "experiment-n2-alg2": (
        ["experiment", *P907, "--nprime", "2", "--trials", "30", "--seed", "3", "--solver", "alg2"],
        "2abb3ef345d232dafcdf56e02031b45afa7f85688d07985f2c01dffc5b0c5413",
    ),
    # Iteration 1 is an alg2 miss and iteration 2 an alg2 find.
    "solve-n2-alg2": (
        ["solve", *P907, "--qx", "782", "--qy", "272", "--nprime", "2", "--seed", "2", "--solver", "alg2"],
        "3fb07d89f10b088f716e1b560e6e05a15d9c046963c47e3e3178110f5e3447ff",
    ),
    "solve-n3": (
        ["solve", *P907, "--qx", "16", "--qy", "282", "--nprime", "3", "--seed", "9"],
        "5f03f370244e00b05ff15d28083cd50b2b59b7d12b8d9474d5352da5beb29cdd",
    ),
    # Order 19 (q = 17): multipliers repeat often and accidents occur.
    "experiment-p19-n1-accident-on": (
        ["experiment", *P19, "--nprime", "1", "--trials", "60", "--seed", "4", "--accident-check", "on"],
        "143f096df9ffd8a3ca66fa54c5a637ef171e9cabda4c3882d6a20156e984f007",
    ),
    "experiment-p19-n1-accident-off": (
        ["experiment", *P19, "--nprime", "1", "--trials", "60", "--seed", "4", "--accident-check", "off"],
        "5979fbae335c638ffb0bae57058ea8cae8c99f015ecd4c9415f0b054edb6d36d",
    ),
    "experiment-p19-n2-accident-on": (
        ["experiment", *P19, "--nprime", "2", "--trials", "60", "--seed", "4", "--accident-check", "on"],
        "3dcc3327bdf9bd9b21ef9b4fb8be431207a040b2f3a85d3f7edf074022a195b5",
    ),
    "experiment-p19-n2-accident-off": (
        ["experiment", *P19, "--nprime", "2", "--trials", "60", "--seed", "4", "--accident-check", "off"],
        "9eafa3880cae3024bd33c0d11197d9bf1d33d43ab36a23daa294d661fe466a3a",
    ),
}


@pytest.mark.parametrize("argv, sha256", PINNED_CLI_RUNS.values(), ids=PINNED_CLI_RUNS)
def test_seeded_cli_outputs_match_pinned_digest(tmp_path, argv, sha256):
    """The bytes a seeded run writes hash to a pinned value, so a change that alters
    any output file, not only one that differs between two reruns of the same build,
    fails here.  A change that alters outputs on purpose updates the hash and says why."""
    command = argv[0]
    paths = [tmp_path / flag[2:] for flag in OUTPUT_FLAGS[command]]
    outputs = [arg for flag, path in zip(OUTPUT_FLAGS[command], paths) for arg in (flag, str(path))]
    assert main([*argv, *outputs]) == EXIT_OK
    assert hashlib.sha256(b"".join(path.read_bytes() for path in paths)).hexdigest() == sha256


def test_parser_is_built_once_and_reused(tmp_path):
    """``main`` parses with one parser per process: pinned runs back to back, one
    of them from a config file (parsed twice) and one repeated after it, still
    write the pinned bytes."""
    assert build_parser() is build_parser()
    for step, name in enumerate(("solve-n1", "experiment-n2", "solve-n2", "experiment-n2", "solve-n1")):
        (command, *settings), sha256 = PINNED_CLI_RUNS[name]
        paths = [tmp_path / f"{step}-{flag[2:]}" for flag in OUTPUT_FLAGS[command]]
        outputs = [arg for flag, path in zip(OUTPUT_FLAGS[command], paths) for arg in (flag, str(path))]
        if step == 2:
            config_file = tmp_path / "settings.cfg"
            config_file.write_text("".join(f"{key[2:]} = {value}\n" for key, value in zip(*[iter(settings)] * 2)))
            settings = ["--config", str(config_file)]
        assert main([command, *settings, *outputs]) == EXIT_OK
        assert hashlib.sha256(b"".join(path.read_bytes() for path in paths)).hexdigest() == sha256
    assert build_parser() is build_parser()


def test_manifest_config_round_trip(tmp_path):
    extra = ["--qx", "0", "--qy", "6", "--seed", "4"]
    _, m1 = run_solve(tmp_path, "r1", extra)
    payload = json.loads(m1.read_text())
    config_file = tmp_path / "rerun.cfg"
    config_file.write_text(
        "".join(f"{key} = {value}\n" for key, value in payload["config"].items())
    )
    m2 = tmp_path / "r2.json"
    assert main(["solve", "--config", str(config_file), "--manifest", str(m2)]) == EXIT_OK
    assert json.loads(m2.read_text())["records"] == payload["records"]


def test_config_file_cli_override(tmp_path):
    config_file = tmp_path / "base.cfg"
    config_file.write_text(
        "q = 17\na = 2\nb = 2\ngx = 5\ngy = 1\norder = 19\n"
        "qx = 0\nqy = 6\nseed = 1  # overridden below\nsolver = exhaustive\n"
    )
    m1 = tmp_path / "c1.json"
    code = main(["solve", "--config", str(config_file), "--seed", "9", "--manifest", str(m1)])
    assert code == EXIT_OK
    assert json.loads(m1.read_text())["config"]["seed"] == 9


BAD_CONFIG_VALUES = {
    "seed = x": "--seed=3",
    "accident_check = maybe": "--accident-check=on",
    "timing = 2": "--timing",
    "solver = alg2-then-exhaustive": "--solver=exhaustive",
}


@pytest.mark.parametrize("override", [False, True])
@pytest.mark.parametrize("pair", sorted(BAD_CONFIG_VALUES))
def test_malformed_config_value_is_usage_error(tmp_path, capsys, monkeypatch, pair, override):
    """A config value is checked like its flag, even where a flag overrides it."""
    _forbid(monkeypatch, "run_attack")
    config_file = tmp_path / "bad.cfg"
    config_file.write_text(f"qx = 0\nqy = 6\n{pair}\n")
    manifest = tmp_path / "m.json"
    argv = ["solve", *P19, "--config", str(config_file), "--manifest", str(manifest)]
    assert main([*argv, *([BAD_CONFIG_VALUES[pair]] if override else [])]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert repr(pair.split(" = ")[1]) in err and "Traceback" not in err
    assert not manifest.exists()


@pytest.mark.parametrize("token", ["on", "off", "ON", "yes", "no", "true", "false", "1", "0"])
def test_boolean_tokens_agree_between_flags_and_config(tmp_path, token):
    expected = "off" if token.lower() in ("off", "no", "false", "0") else "on"
    base = ["solve", *P19, "--qx", "0", "--qy", "6", "--solver", "exhaustive", "--seed", "1"]
    config_file = tmp_path / "bool.cfg"
    config_file.write_text(f"accident_check = {token}\ntiming = {token}\n")
    runs = {
        "flags": [f"--accident-check={token}", f"--timing={token}"],
        "split flags": ["--accident-check", token, "--timing", token],
        "config": ["--config", str(config_file)],
    }
    if expected == "on":
        runs["bare --timing"] = [f"--accident-check={token}", "--timing"]
    for name, extra in runs.items():
        manifest = tmp_path / f"{name}.json"
        assert main([*base, *extra, "--manifest", str(manifest)]) == EXIT_OK, name
        payload = json.loads(manifest.read_text())
        assert (payload["config"]["accident_check"], payload["config"]["timing"]) == (expected, expected), name
        assert (payload["summary"]["wall_time_s"] > 0.0) == (expected == "on"), name


@pytest.mark.parametrize("command, default", [("solve", "on"), ("experiment", "off")])
def test_accident_check_help_shows_on_off(capsys, command, default):
    assert main([command, "--help"]) == EXIT_OK
    text = " ".join(capsys.readouterr().out.split())
    assert f"detect cross-block point collisions (default {default})" in text


def test_module_entry_point_runs():
    """``python -m lvecdlp`` is the ``lvecdlp`` command."""
    src = str(Path(lvecdlp.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-m", "lvecdlp", "--version"], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == f"lvecdlp {lvecdlp.__version__}"


def test_config_keys_documented():
    """The key lists in the cli docstring and the README are the settings of the commands that take --config."""
    (sub,) = [action for action in build_parser()._actions if isinstance(action, argparse._SubParsersAction)]
    settings = {}
    for parser in sub.choices.values():
        flags = {action.dest: action.option_strings for action in parser._actions}
        if "config" in flags:
            settings.update({dest: options for dest, options in flags.items() if dest not in ("help", "config")})
    for key, options in settings.items():
        assert "--" + key.replace("_", "-") in options, key
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    for name, text in (("cli docstring", cli.__doc__), ("README", readme)):
        (listed,) = re.findall(r"with underscores \(([^)]*)\)", text)
        assert sorted(re.findall(r"`+(\w+)`+", listed)) == sorted(settings), name


def test_parse_config_file_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("this is not a pair\n")
    with pytest.raises(ValueError):
        parse_config_file(str(bad))


def test_experiment_csv_schema_and_determinism(tmp_path, capsys):
    csv1, js1 = tmp_path / "e1.csv", tmp_path / "e1.json"
    csv2, js2 = tmp_path / "e2.csv", tmp_path / "e2.json"
    base = [
        "experiment", *P19,
        "--nprime", "1", "--solver", "exhaustive", "--trials", "25", "--seed", "3",
    ]
    assert main([*base, "--csv", str(csv1), "--json", str(js1)]) == EXIT_OK
    assert main([*base, "--csv", str(csv2), "--json", str(js2)]) == EXIT_OK
    assert csv1.read_bytes() == csv2.read_bytes()
    assert js1.read_bytes() == js2.read_bytes()
    lines = csv1.read_text().splitlines()
    assert lines[0] == "trial,m,success,solver,kernel_dim,reject_reason,elapsed"
    assert len(lines) == 26
    first = lines[1].split(",")
    assert first[0] == "1" and first[3] == "exhaustive" and first[6] == "0.0"
    summary = json.loads(js1.read_text())["summary"]
    assert summary["trials"] == 25
    assert 0.0 <= summary["rate"] <= 1.0
    assert summary["ci95"][0] <= summary["rate"] <= summary["ci95"][1]
    assert summary["model"]["subsets"] == 20


def test_experiment_fixed_m(tmp_path):
    csv_path, js_path = tmp_path / "f.csv", tmp_path / "f.json"
    code = main(
        [
            "experiment", *P19,
            "--nprime", "1", "--solver", "exhaustive", "--trials", "5",
            "--seed", "0", "--m", "7", "--csv", str(csv_path), "--json", str(js_path),
        ]
    )
    assert code == EXIT_OK
    for line in csv_path.read_text().splitlines()[1:]:
        assert line.split(",")[1] == "7"

    # The stream builds a fixed m's config once, and each trial's record is
    # the one execute_iteration gives for its index on a config built afresh:
    # the CSV rows above, and 40 trials with the accident check on and off.
    group = fixture_small()
    accident_check = json.loads(js_path.read_text())["config"]["accident_check"] == "on"

    def fresh_record(index, accident_check):
        cfg = AttackConfig(
            group=group, target=group.scalar_mul(7), max_iterations=1, seed=0, accident_check=accident_check
        )
        return execute_iteration(cfg, index)

    for line in csv_path.read_text().splitlines()[1:]:
        index, _, success, _, dim, reason, _ = line.split(",")
        record = fresh_record(int(index), accident_check)
        expected_dim = -1 if record.kernel_dim is None else record.kernel_dim
        expected_reason = "+".join(record.reject_reasons) or "none"
        assert (int(success), int(dim), reason) == (record.m is not None, expected_dim, expected_reason)
    found_by = Counter()
    for accident_check in (False, True):
        trials = list(islice(planted_trials(group, seed=0, fixed_m=7, accident_check=accident_check), 40))
        assert all(trial.cfg is trials[0].cfg and trial.m == 7 for trial in trials)
        for trial in trials:
            assert trial.record == fresh_record(trial.index, accident_check)
            found_by[trial.record.found_by] += 1
    assert found_by["accident"] and found_by["exhaustive"] and found_by[None]


@pytest.mark.parametrize("m", ["0", "19", "-38"])
def test_experiment_m_multiple_of_order_is_usage_error(tmp_path, capsys, monkeypatch, m):
    _forbid(monkeypatch, "planted_trials")
    csv_path = tmp_path / "x.csv"
    argv = ["experiment", *P19, "--trials", "2", "--m", m, "--csv", str(csv_path), "--json", str(tmp_path / "x.json")]
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"m = {m} " in err and "Traceback" not in err
    assert not csv_path.exists()


def test_experiment_records_unverified_decode_as_failed_trial(tmp_path, monkeypatch):
    """A decoded m that fails verification is a failed trial, not an invariant violation (exit 5)."""
    import lvecdlp.attack as attack_mod

    honest = attack_mod.decode_solution
    wrong = []

    def wrong_for_first_accepted_vector(vector, *rest):
        m, reason = honest(vector, *rest)
        if m is not None and wrong in ([], [vector]):
            wrong[:] = [vector]
            return (m + 1) % 907, None
        return m, reason

    monkeypatch.setattr(attack_mod, "decode_solution", wrong_for_first_accepted_vector)
    csv_path = tmp_path / "u.csv"
    argv = ["experiment", *P907, "--nprime", "2", "--solver", "alg2", "--trials", "3", "--seed", "3",
            "--csv", str(csv_path), "--json", str(tmp_path / "u.json")]
    assert main(argv) == EXIT_OK
    first = csv_path.read_text().splitlines()[1].split(",")
    assert wrong
    assert (first[2], first[5]) == ("0", "alg2:unverified")


def test_experiment_zero_trials_is_usage_error(tmp_path, capsys):
    code = main(["experiment", *P19, "--trials", "0", "--csv", str(tmp_path / "x.csv"), "--json", str(tmp_path / "x.json")])
    assert code == EXIT_USAGE


def test_verify_suites_smoke(capsys):
    assert main(["verify", "--suite", "theorem1", "--scale", "0.05"]) == EXIT_OK
    assert "PASS" in capsys.readouterr().out
    assert main(["verify", "--suite", "problem-l", "--scale", "0.1"]) == EXIT_OK
    assert main(["verify", "--suite", "partitions"]) == EXIT_OK


def test_verify_problem_l_stdout_matches_pinned_digest(capsys):
    """The seeded problem-l report, which runs ``plant_instance``, alg2 and the
    scan on planted bases, hashes to a pinned value."""
    assert main(["verify", "--suite", "problem-l", "--scale", "0.1"]) == EXIT_OK
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "e8e8e37557309a89130474a86c435ae7c79cddfa538a3dd191bfc9d2d2c4ccc9"


def test_verify_unknown_suite():
    assert main(["verify", "--suite", "nope"]) == EXIT_USAGE


@pytest.mark.parametrize("scale", ["inf", "-inf", "nan", "0", "-1"])
def test_verify_non_finite_or_non_positive_scale_is_usage_error(capsys, monkeypatch, scale):
    _forbid(monkeypatch, "run_suites")
    assert main(["verify", "--suite", "theorem1", f"--scale={scale}"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "scale" in err and "Traceback" not in err


@pytest.mark.parametrize("scale", [0, -1, math.nan, math.inf])
def test_run_suites_rejects_a_scale_not_finite_above_zero(scale):
    with pytest.raises(ValueError, match="scale"):
        run_suites("kernel-dim", scale=scale)


def test_params_output(capsys):
    assert main(["params", "--order", "907"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "n' = 2" in out and "924" in out


@pytest.mark.parametrize("order", ["906", "21", "48620"])
def test_params_refuses_a_composite_order(capsys, order):
    """params refuses an order that is not prime, with the exit code and message
    that solve, dlp and experiment give the same value."""
    assert main(["params", "--order", order]) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert f"group order {order} is not prime" in captured.err and not captured.out


def test_find_curve(capsys):
    assert main(["find-curve", "--q", "17", "--order-min", "19", "--order-max", "19"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "order: 19" in out
    assert main(["find-curve", "--q", "17", "--order-min", "20", "--order-max", "22"]) == EXIT_BUDGET
    # Outside the Hasse interval [10, 26], or empty: refused before any curve is counted.
    for low, high in (("4", "4"), ("27", "19")):
        assert main(["find-curve", "--q", "17", "--order-min", low, "--order-max", high]) == EXIT_VALIDATION


def test_dlp_command(capsys):
    assert main(["dlp", *P19, "--qx", "0", "--qy", "6"]) == EXIT_OK
    assert "m = 7" in capsys.readouterr().out


def _forbid(monkeypatch, name):
    def fail(*args, **kwargs):
        raise AssertionError(f"{name} ran although the command should have been rejected first")

    monkeypatch.setattr(f"lvecdlp.cli.{name}", fail)


@pytest.mark.parametrize("flag", ["--manifest", "--log"])
def test_solve_unwritable_output_rejected_before_attack(tmp_path, capsys, monkeypatch, flag):
    _forbid(monkeypatch, "run_attack")
    bad = tmp_path / "missing" / "out.json"
    argv = ["solve", *P19, "--qx", "0", "--qy", "6", "--manifest", str(tmp_path / "m.json"), flag, str(bad)]
    assert main(argv) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert str(bad) in err
    assert "Traceback" not in err
    assert not bad.parent.exists()


@pytest.mark.parametrize("flag", ["--csv", "--json"])
def test_experiment_unwritable_output_rejected_before_trials(tmp_path, capsys, monkeypatch, flag):
    _forbid(monkeypatch, "planted_trials")
    bad = tmp_path / "missing" / "out"
    outputs = ["--csv", str(tmp_path / "e.csv"), "--json", str(tmp_path / "e.json")]
    argv = ["experiment", *P19, "--trials", "3", *outputs, flag, str(bad)]
    assert main(argv) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert str(bad) in err
    assert "Traceback" not in err
    assert not (tmp_path / "e.csv").exists() and not (tmp_path / "e.json").exists()


@pytest.mark.parametrize("flag", ["--report-csv", "--report-json"])
def test_verify_unwritable_report_rejected_before_suites(tmp_path, capsys, monkeypatch, flag):
    _forbid(monkeypatch, "run_suites")
    bad = tmp_path / "missing" / "audit"
    assert main(["verify", "--suite", "partitions", flag, str(bad)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert str(bad) in err
    assert "Traceback" not in err


def test_output_directory_as_path_rejected(tmp_path, capsys, monkeypatch):
    _forbid(monkeypatch, "run_attack")
    argv = ["solve", *P19, "--qx", "0", "--qy", "6", "--manifest", str(tmp_path)]
    assert main(argv) == EXIT_VALIDATION
    assert str(tmp_path) in capsys.readouterr().err


@pytest.mark.parametrize(
    "l, digest",
    [
        ("3", "d5e3852fe10076356696d82cdc54ca158dfda92610f32567e6c2b683ebc39c3a"),
        ("10", "b4aec7b58ea661e3cd4facbd3f2b4f6ebccc3cf6c9659298037fce7652b3cb5e"),
    ],
)
def test_solve_with_the_identity_among_the_points_exhausts_its_budget(tmp_path, capsys, l, digest):
    """At n' = 1 a sample that holds the identity fails the collinearity test,
    generated (l = 3) or looped (l = 10), and takes the kernel: a target
    outside the generator's group ends in exit 4, with no traceback, and the
    manifest holds the records of every iteration, pinned by digest."""
    manifest = tmp_path / "manifest.json"
    assert main(["solve", *TWO_TORSION_TARGET, "--l", l, "--manifest", str(manifest)]) == EXIT_BUDGET
    err = capsys.readouterr().err
    assert "iteration-budget-exhausted" in err and "Traceback" not in err
    records = json.loads(manifest.read_text())["records"]
    assert any(record["kernel_dim"] is not None for record in records)
    assert hashlib.sha256(manifest.read_bytes()).hexdigest() == digest


# Contract fuzz: every argv and config file ends in a documented exit code.
# Values are either small valid ones (p = 19 group, at most 3 trials, scale
# at most 0.01) or hostile ones, so each case runs in milliseconds.  The
# drawn groups have prime order with the target inside, so the examples add
# a target outside the generator's group.
HOSTILE = ("0", "-1", "-7", "x", "1.5", "inf", "-inf", "nan", "")
GROUP_FLAGS = {"--q": ("17",), "--a": ("2",), "--b": ("2",), "--gx": ("5",), "--gy": ("1",), "--order": ("19",)}
TARGET_FLAGS = {"--qx": ("0",), "--qy": ("6",)}
ATTACK_FLAGS = {
    "--nprime": ("1", "2"),
    "--l": ("1", "3"),
    "--solver": SOLVER_CHOICES,
    "--seed": ("0", "3"),
    "--enum-budget": ("10", "5000"),
    "--accident-check": ("on", "off"),
}
FUZZ_FLAGS = {
    "solve": {**GROUP_FLAGS, **TARGET_FLAGS, **ATTACK_FLAGS, "--max-iterations": ("1", "3")},
    "experiment": {**GROUP_FLAGS, **ATTACK_FLAGS, "--trials": ("1", "3"), "--m": ("1", "18")},
    "verify": {"--suite": (*SUITE_NAMES, "all"), "--seed": ("0", "3"), "--scale": ("0.001", "0.01")},
    "params": {"--order": ("19", "907")},
    "find-curve": {"--q": ("5", "17"), "--order-min": ("1", "19"), "--order-max": ("7", "19"), "--max-candidates": ("1", "40")},
    "dlp": {**GROUP_FLAGS, **TARGET_FLAGS},
}
OUTPUT_FLAGS = {"solve": ("--manifest", "--log"), "experiment": ("--csv", "--json"), "verify": ("--report-csv", "--report-json")}
CONFIG_VALUES = {
    **{flag[2:].replace("-", "_"): values for flags in FUZZ_FLAGS.values() for flag, values in flags.items()},
    "timing": ("on", "off"),
}


@st.composite
def fuzz_cases(draw):
    """(argv without output paths, config file lines or None).

    Every flag starts from a valid value; up to three of them are then
    dropped or given a hostile value, so most cases get past argument parsing.
    """
    command = draw(st.sampled_from(sorted(FUZZ_FLAGS)))
    flags = FUZZ_FLAGS[command]
    values = {flag: draw(st.sampled_from(valid)) for flag, valid in flags.items()}
    for flag, change in draw(st.lists(st.tuples(st.sampled_from(sorted(flags)), st.sampled_from(("omit", "hostile"))), max_size=3)):
        values[flag] = None if change == "omit" else draw(st.sampled_from(HOSTILE))
    argv = [command, *(f"{flag}={value}" for flag, value in values.items() if value is not None)]
    if command in ("solve", "experiment") and draw(st.booleans()):
        argv.append("--timing")
    config = None
    if command in ("solve", "experiment", "dlp") and draw(st.booleans()):
        config = []
        for key in draw(st.lists(st.sampled_from(sorted(CONFIG_VALUES) + ["bogus"]), max_size=5)):
            value = draw(st.sampled_from(CONFIG_VALUES.get(key, ()) + HOSTILE))
            config.append(f"{key} = {value}" if draw(st.integers(0, 9)) else "not a pair")
    return argv, config


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=fuzz_cases())
@example(case=(["verify", "--suite", "theorem1", "--scale", "inf"], None))
@example(case=(["experiment", *P19, "--trials", "2"], ["trials = nan", "m = inf"]))
@example(case=(["solve", *TWO_TORSION_TARGET, "--l", "3"], None))
@example(case=(["solve", *TWO_TORSION_TARGET, "--l", "10"], None))
def test_cli_contract_fuzz(tmp_path, capsys, case):
    argv, config = case
    out = Path(tempfile.mkdtemp(dir=tmp_path))
    argv = [*argv, *(arg for flag in OUTPUT_FLAGS.get(argv[0], ()) for arg in (flag, str(out / flag[2:])))]
    if config is not None:
        (out / "fuzz.cfg").write_text("\n".join(config) + "\n")
        argv += ["--config", str(out / "fuzz.cfg")]
    assert main(argv) in (EXIT_OK, EXIT_USAGE, EXIT_VALIDATION, EXIT_BUDGET, EXIT_INVARIANT), argv
    assert "Traceback" not in capsys.readouterr().err
