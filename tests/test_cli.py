import inspect
import json
import math
from fractions import Fraction

import pytest

from corelect.cli import SUITE_FLAGS, parse_gamma, run
from corelect.instances import endow2_bound
from corelect.lb_search import EmptinessReport, lb1_emptiness_search
from corelect.theorems import THEOREM_SUITES
from corelect.serialize import load_instance


def _read(path):
    with open(path) as fh:
        return json.load(fh)


def test_gamma_sugar_is_sound_upper_bound():
    gamma, sugar = parse_gamma("e^1")
    assert sugar
    # e = 2.718281828459045...; the sugar rounds the 10th decimal up
    assert Fraction("2.7182818284") < gamma <= Fraction("2.7182818285")
    gamma2, _ = parse_gamma("e^2")
    assert gamma2 > Fraction("7.389056098")
    plain, sugar = parse_gamma("5/2")
    assert plain == Fraction(5, 2) and not sugar
    decimal, sugar = parse_gamma("2.5")
    assert decimal == Fraction(5, 2) and not sugar


def test_report_witness_reverifies_through_predicates(tmp_path):
    from corelect.serialize import load_instance
    from corelect.verifiers import blocks_core

    inst_path = tmp_path / "xos.json"
    run(["gen", "--name", "xos", "--params", "k=3", "--out", str(inst_path)])
    report_path = tmp_path / "r.json"
    code = run(
        [
            "verify",
            "--notion",
            "core",
            "--gamma",
            "3/2",
            "--committee",
            "0,1,2",
            "--in",
            str(inst_path),
            "--report",
            str(report_path),
        ]
    )
    assert code == 1
    report = _read(report_path)
    inst = load_instance(inst_path)
    S = frozenset(report["witness"]["S"])
    T = frozenset(report["witness"]["T"])
    assert blocks_core(inst, frozenset({0, 1, 2}), Fraction(3, 2), S, T)


def test_gen_and_verify_pass_and_fail(tmp_path):
    inst_path = tmp_path / "xos.json"
    assert run(["gen", "--name", "xos", "--params", "k=3", "--out", str(inst_path)]) == 0
    inst = load_instance(inst_path)
    assert inst.k == 3
    # committee A fails the core at 3/2 (exit 1), passes at huge gamma (exit 0)
    assert (
        run(
            [
                "verify",
                "--notion",
                "core",
                "--gamma",
                "3/2",
                "--committee",
                "0,1,2",
                "--in",
                str(inst_path),
                "--report",
                str(tmp_path / "r1.json"),
            ]
        )
        == 1
    )
    report = _read(tmp_path / "r1.json")
    assert report["verdict"] == "fail"
    assert report["witness"]["T"] == [3, 4, 5]
    assert report["manifest"]["command"] == "verify"
    assert (
        run(
            [
                "verify",
                "--notion",
                "core",
                "--gamma",
                "100",
                "--committee",
                "0,1,2",
                "--in",
                str(inst_path),
            ]
        )
        == 0
    )


def test_solve_subcommand_writes_result(tmp_path):
    inst_path = tmp_path / "rest1.json"
    run(["gen", "--name", "rest1", "--params", "q=2", "--out", str(inst_path)])
    out = tmp_path / "sol.json"
    assert (
        run(
            [
                "solve",
                "--rule",
                "snw",
                "--method",
                "global",
                "--in",
                str(inst_path),
                "--out",
                str(out),
            ]
        )
        == 0
    )
    result = _read(out)
    assert len(result["committee"]) == 4
    assert result["score"]["rule"] == "snw"
    assert "ln_approx" in result["score"]


def test_unknown_flag_is_usage_error():
    assert run(["verify", "--nonsense"]) == 2


def test_malformed_json_is_usage_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert (
        run(
            [
                "verify",
                "--notion",
                "core",
                "--committee",
                "0",
                "--in",
                str(bad),
            ]
        )
        == 2
    )


def test_missing_file_is_usage_error():
    assert (
        run(["solve", "--rule", "pav", "--method", "global", "--in", "/nonexistent.json"])
        == 2
    )


def test_check_utility_reports(tmp_path):
    inst_path = tmp_path / "xos.json"
    run(["gen", "--name", "xos", "--params", "k=2", "--out", str(inst_path)])
    report_path = tmp_path / "axioms.json"
    assert (
        run(
            [
                "check-utility",
                "--in",
                str(inst_path),
                "--self-bounding",
                "--report",
                str(report_path),
            ]
        )
        == 0
    )
    report = _read(report_path)
    assert all(entry["monotone"] and entry["lipschitz"] for entry in report["utilities"])


def test_experiment_lower_tail(tmp_path):
    inst_path = tmp_path / "xos.json"
    run(["gen", "--name", "xos", "--params", "k=3", "--out", str(inst_path)])
    report_path = tmp_path / "tail.json"
    code = run(
        [
            "experiment",
            "--kind",
            "lower-tail",
            "--in",
            str(inst_path),
            "--alpha",
            "1/2",
            "--delta",
            "1/2",
            "--trials",
            "2000",
            "--seed",
            "3",
            "--report",
            str(report_path),
        ]
    )
    assert code == 0
    report = _read(report_path)
    assert report["verdict"] in ("pass", "inconclusive")
    assert report["manifest"]["seed"] == 3


def test_theorem_suite_subcommand(tmp_path):
    out = tmp_path / "suite.json"
    assert (
        run(["theorem-suite", "--name", "main1", "--seeds", "5", "--out", str(out)]) == 0
    )
    suite = _read(out)
    assert suite["verdict"] == "pass" and suite["cases"] == 5


def test_theorem_suite_unknown_name():
    assert run(["theorem-suite", "--name", "nope"]) == 2


def test_reports_are_deterministic_modulo_wall_clock(tmp_path):
    inst_path = tmp_path / "xos.json"
    run(["gen", "--name", "xos", "--params", "k=3", "--out", str(inst_path)])
    r1, r2 = tmp_path / "a.json", tmp_path / "b.json"
    argv = [
        "verify",
        "--notion",
        "core",
        "--gamma",
        "3/2",
        "--committee",
        "0,1,2",
        "--in",
        str(inst_path),
    ]
    run(argv + ["--report", str(r1)])
    run(argv + ["--report", str(r2)])
    a, b = _read(r1), _read(r2)
    a["manifest"].pop("wall_clock_ms")
    b["manifest"].pop("wall_clock_ms")
    a["manifest"]["flags"].pop("report")
    b["manifest"]["flags"].pop("report")
    assert a == b


def test_lb1_emptiness_suite_reports_honestly(tmp_path):
    out = tmp_path / "lb1.json"
    code = run(
        [
            "theorem-suite",
            "--name",
            "lb1-emptiness",
            "--r",
            "5",
            "--class-cap",
            "200",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    report = _read(out)
    assert report["result"] == "cap-exceeded"
    assert report["classes_checked"] == 200
    assert report["stopped_by"] == "class-cap"


def test_lb1_emptiness_stops_at_a_class_count_by_default(tmp_path, monkeypatch):
    # omitted caps resolve to 40,000 classes and no wall clock, so the exit
    # code of a default run does not depend on the host's speed
    seen = {}

    def search(r, time_cap_s, class_cap):
        seen.update(r=r, time_cap_s=time_cap_s, class_cap=class_cap)
        return EmptinessReport(
            "cap-exceeded", Fraction(16, 15), r, 1_947_792, classes_checked=class_cap
        )

    monkeypatch.setattr("corelect.cli.lb1_emptiness_search", search)
    out = tmp_path / "lb1.json"
    assert run(["theorem-suite", "--name", "lb1-emptiness", "--out", str(out)]) == 0
    assert seen == {"r": 5, "time_cap_s": math.inf, "class_cap": 40_000}
    report = _read(out)
    assert report["stopped_by"] == "class-cap"
    assert report["manifest"]["flags"]["class_cap"] == 40_000
    assert "time_cap" not in report["manifest"]["flags"]


@pytest.mark.parametrize(
    "name, seeds, cases",
    [("lb1-points", 3, 4 * 3), ("tight-upper", 2, 3 * 2), ("sampling-bound", 2, 4 * 2 + 1)],
)
def test_theorem_suite_seeds_feed_the_case_count(tmp_path, name, seeds, cases):
    out = tmp_path / "suite.json"
    assert run(["theorem-suite", "--name", name, "--seeds", str(seeds), "--out", str(out)]) == 0
    suite = _read(out)
    assert suite["cases"] == cases and suite["manifest"]["flags"]["seeds"] == seeds


@pytest.mark.parametrize(
    "argv, option",
    [
        (["--name", "tail", "--seeds", "3"], "--seeds"),
        (["--name", "main1", "--beta", "2"], "--beta"),
        (["--name", "tight-lower", "--kappa", "3", "--time-cap", "1"], "--kappa"),
        (["--name", "tight-lower", "--time-cap", "1"], "--time-cap"),
        (["--name", "main1", "--eta", "2"], "--eta"),
        (["--name", "lb1-emptiness", "--seeds", "3"], "--seeds"),
        (["--name", "lb1-emptiness", "--beta", "2"], "--beta"),
        (["--name", "lb1-emptiness", "--kappa", "2"], "--kappa"),
        (["--name", "endow2-value", "--seeds", "3"], "--seeds"),
        (["--name", "endow2-value", "--class-cap", "5"], "--class-cap"),
        (["--name", "endow2-value", "--time-cap", "5"], "--time-cap"),
        (["--name", "endow2-value", "--r", "5"], "--r"),
        # 0 is a value like any other, not an omitted flag
        (["--name", "tight-lower", "--seeds", "0"], "--seeds"),
        (["--name", "tail", "--r", "0"], "--r"),
        (["--name", "endow2-bound", "--time-cap", "0"], "--time-cap"),
    ],
)
def test_theorem_suite_rejects_a_flag_the_suite_does_not_take(capsys, argv, option):
    assert run(["theorem-suite", *argv]) == 2
    assert option in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--name", "lb1-emptiness", "--r", "0", "--class-cap", "1"], "r must be"),
        (["--name", "endow2-value", "--beta", "0"], "beta must be"),
    ],
)
def test_theorem_suite_rejects_a_zero_it_cannot_use(tmp_path, capsys, argv, message):
    # 0 is a value, not an omitted flag: it must not fall back to the default
    out = tmp_path / "suite.json"
    assert run(["theorem-suite", *argv, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def _suite_params(names):
    """suite -> {flag: parameter} for the suites in ``names``, from SUITE_FLAGS"""
    params = {name: {} for name in names}
    for flag, row in SUITE_FLAGS.items():
        for name, param in row.readers.items():
            if name in names:
                params[name][flag] = param
    return params


def test_suite_params_name_real_suite_parameters():
    cli_run = {"endow2-value", "lb1-emptiness"}
    named = {name for row in SUITE_FLAGS.values() for name in row.readers}
    assert named - cli_run <= set(THEOREM_SUITES)
    for name, params in _suite_params(THEOREM_SUITES).items():
        accepted = inspect.signature(THEOREM_SUITES[name]).parameters
        assert set(params.values()) <= set(accepted), name


def test_cli_suite_params_name_real_parameters():
    runners = {"endow2-value": endow2_bound, "lb1-emptiness": lb1_emptiness_search}
    for name, params in _suite_params(runners).items():
        assert params, name
        accepted = inspect.signature(runners[name]).parameters
        assert set(params.values()) <= set(accepted), name


@pytest.mark.parametrize(
    "argv, flags",
    [
        (["--name", "main1", "--seeds", "2"], {"seeds": 2}),
        (["--name", "tight-lower"], {}),
        (["--name", "endow2-value"], {"eta": "11.63", "kappa": "1.454"}),
        (["--name", "endow2-value", "--kappa", "3/2"], {"eta": "11.63", "kappa": "3/2"}),
        # lb1-emptiness has no wall-clock stop unless --time-cap is given
        (["--name", "lb1-emptiness", "--class-cap", "20"], {"class_cap": 20}),
        (
            ["--name", "lb1-emptiness", "--class-cap", "20", "--time-cap", "90"],
            {"class_cap": 20, "time_cap": 90.0},
        ),
    ],
)
def test_theorem_suite_manifest_records_resolved_defaults(tmp_path, argv, flags):
    # a manifest records the flags given and the defaults of the flags the
    # suite takes, nothing else
    out = tmp_path / "suite.json"
    assert run(["theorem-suite", *argv, "--out", str(out)]) == 0
    expected = {"command": "theorem-suite", "jobs": 1, "name": argv[1], "out": str(out), **flags}
    manifest = _read(out)["manifest"]
    assert manifest["flags"] == expected
    assert list(manifest["flags"]) == sorted(expected)


def test_shared_parser_does_not_leak_flags_between_runs(tmp_path):
    inst_path = tmp_path / "xos.json"
    run(["gen", "--name", "xos", "--params", "k=3", "--out", str(inst_path)])
    r1, r2 = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["verify", "--notion", "core", "--committee", "0,1,2", "--in", str(inst_path)]
    run(argv + ["--min-coalition", "2", "--report", str(r1)])
    run(argv + ["--report", str(r2)])
    assert _read(r1)["manifest"]["flags"]["min_coalition"] == "2"
    assert "min_coalition" not in _read(r2)["manifest"]["flags"]


def _experiment_instance(tmp_path, kind):
    path = tmp_path / f"{kind}.json"
    if kind == "endow2":
        from corelect.model import AdditiveUtility, Instance
        from corelect.serialize import save_instance

        utilities = [AdditiveUtility({c: Fraction(1, 3) for c in range(6)}) for _ in range(2)]
        inst = Instance(
            list(range(8)), utilities, sizes={c: 1 for c in range(8)}, budget=6, validate="trust"
        )
        save_instance(inst, path)
        return path, ["--committee", "6,7", "--coalition", "0,1", "--deviation", "0,1,2,3,4,5"]
    run(["gen", "--name", "xos", "--params", "k=2", "--out", str(path)])
    if kind == "sampling-bound":
        return path, ["--alpha", "1/2"]
    return path, ["--alpha", "1/2", "--delta", "1/2", "--trials", "50"]


@pytest.mark.parametrize("kind", ["sampling-bound", "lower-tail", "endow2"])
def test_experiment_rejects_beta_zero(tmp_path, capsys, kind):
    # 0 is a value, not an omitted flag: it must not fall back to beta = 1
    inst_path, extra = _experiment_instance(tmp_path, kind)
    report = tmp_path / "report.json"
    argv = ["experiment", "--kind", kind, "--in", str(inst_path), *extra]
    assert run([*argv, "--beta", "0", "--report", str(report)]) == 2
    assert "beta must be" in capsys.readouterr().err
    assert not report.exists()
    assert run([*argv, "--beta", "-1", "--report", str(report)]) == 2
    assert run([*argv, "--report", str(report)]) in (0, 1)
    assert "beta" not in _read(report)["manifest"]["flags"]


@pytest.mark.parametrize("alpha", ["3/2", "-1/2"])
@pytest.mark.parametrize("kind", ["sampling-bound", "lower-tail"])
def test_experiment_rejects_alpha_outside_the_unit_interval(tmp_path, capsys, kind, alpha):
    inst_path, extra = _experiment_instance(tmp_path, kind)
    report = tmp_path / "report.json"
    argv = ["experiment", "--kind", kind, "--in", str(inst_path), *extra]
    assert run([*argv, f"--alpha={alpha}", "--report", str(report)]) == 2
    assert "alpha must lie in [0, 1]" in capsys.readouterr().err


def test_lb00_solve_and_restrained_verify_are_pinned(tmp_path):
    # odd beta: the Quad path of score and of the restrained core's
    # threshold test; outputs as recorded before the integer path existed
    inst_path = tmp_path / "lb00.json"
    assert run(["gen", "--name", "lb00", "--params", "beta=5", "r=1", "--out", str(inst_path)]) == 0

    def payload(*argv):
        out = tmp_path / "out.json"
        flag = "--out" if argv[0] == "solve" else "--report"
        assert run([*argv, "--in", str(inst_path), flag, str(out)]) == 0
        result = _read(out)
        result.pop("manifest")
        return result

    assert payload("solve", "--method", "global", "--rule", "snw") == {
        "committee": [0, 1, 3],
        "iterations": 42,
        "score": {
            "ln_approx": 0.732902931800679,
            "rule": "snw",
            "value": "Quad(697761/400000 + 432/625*sqrt(243/1024))",
        },
    }
    assert payload("solve", "--method", "global", "--rule", "gpav")["score"] == {
        "rule": "gpav",
        "value": "Quad(3/5 + 2/5*sqrt(243/1024))",
    }
    flags = ["unconstrained-reduces-to-core", "floored-endowment"]
    stats = {"coalitions": 63, "hatw_sets": 20, "wprime_sets": 160}
    assert payload(
        "verify", "--notion", "restrained-core", "--gamma", "e^1", "--committee", "0,1,3"
    ) == {
        "flags": flags + ["gamma-sugar-overapproximation-pass-direction-only"],
        "gamma_or_theta": "5436563657/2000000000",
        "notion": "restrained_core",
        "stats": stats,
        "verdict": "pass",
    }
    assert payload(
        "verify", "--notion", "restrained-core", "--gamma", "1", "--committee", "0,1,2"
    ) == {
        "flags": flags,
        "gamma_or_theta": 1,
        "notion": "restrained_core",
        "stats": stats,
        "verdict": "pass",
    }


@pytest.mark.parametrize(
    "argv, option",
    [
        (["solve", "--method", "global", "--rule", "snw", "--seed", "7"], "--seed"),
        (["solve", "--method", "global", "--rule", "snw", "--start", "0,1"], "--start"),
        (["solve", "--method", "global", "--rule", "pav", "--epsilon", "1/2"], "--epsilon"),
        (["verify", "--notion", "pb-core", "--committee", "0", "--min-coalition", "2"],
         "--min-coalition"),
        (["verify", "--notion", "restrained-core", "--committee", "0", "--min-coalition", "2"],
         "--min-coalition"),
        (["verify", "--notion", "core", "--committee", "0", "--auto-lift"], "--auto-lift"),
        (["verify", "--notion", "ejr", "--committee", "0", "--auto-lift"], "--auto-lift"),
        (["check-utility", "--seed", "4"], "--seed"),
        (["verify", "--notion", "ejr", "--committee", "0", "--gamma", "7"], "--gamma"),
        (["verify", "--notion", "core", "--committee", "0", "--mode", "anyW"], "--mode"),
        (["verify", "--notion", "endowment", "--committee", "0", "--mode", "subsetW"], "--mode"),
        (["verify", "--notion", "pb-core", "--committee", "0", "--mode", "anyW"], "--mode"),
        # the xos instance's candidates fit the exhaustive scan
        (["check-utility", "--sample-budget", "5"], "--sample-budget"),
        (["experiment", "--kind", "sampling-bound", "--delta", "1/3"], "--delta"),
        (["experiment", "--kind", "sampling-bound", "--trials", "50"], "--trials"),
        (["experiment", "--kind", "sampling-bound", "--seed", "3"], "--seed"),
        (["experiment", "--kind", "lower-tail", "--committee", "0"], "--committee"),
        (["experiment", "--kind", "lower-tail", "--coalition", "0"], "--coalition"),
        (["experiment", "--kind", "lower-tail", "--deviation", "0"], "--deviation"),
        (["experiment", "--kind", "lower-tail", "--kappa", "2"], "--kappa"),
        (["experiment", "--kind", "sampling-bound", "--eta", "12"], "--eta"),
        (["experiment", "--kind", "lower-tail", "--gamma-param", "3"], "--gamma-param"),
        (["experiment", "--kind", "sampling-bound", "--q", "1/3"], "--q"),
        (["experiment", "--kind", "endow2", "--voter", "1"], "--voter"),
        (["experiment", "--kind", "endow2", "--set", "0,1"], "--set"),
        (["experiment", "--kind", "endow2", "--alpha", "1/3"], "--alpha"),
        (["experiment", "--kind", "endow2", "--delta", "1/3"], "--delta"),
        # 0 is a value like any other, not an omitted flag
        (["solve", "--method", "global", "--rule", "snw", "--seed", "0"], "--seed"),
        (["experiment", "--kind", "sampling-bound", "--seed", "0"], "--seed"),
    ],
)
def test_a_flag_the_command_would_ignore_is_refused(tmp_path, capsys, argv, option):
    inst_path = tmp_path / "xos.json"
    run(["gen", "--name", "xos", "--params", "k=3", "--out", str(inst_path)])
    out = tmp_path / "out.json"
    target = ["--out" if argv[0] == "solve" else "--report", str(out)]
    assert run([*argv, "--in", str(inst_path), *target]) == 2
    assert option in capsys.readouterr().err
    assert not out.exists()


def test_sampled_check_utility_refuses_self_bounding(tmp_path, capsys):
    # 21 candidates are past the exhaustive scan, so the axioms are sampled
    from corelect.model import ApprovalUtility, Instance
    from corelect.serialize import save_instance

    inst_path = tmp_path / "wide.json"
    inst = Instance(range(21), [ApprovalUtility({0, 5})], k=2, validate="trust")
    save_instance(inst, inst_path)
    out = tmp_path / "out.json"
    argv = ["check-utility", "--in", str(inst_path), "--sample-budget", "8", "--report", str(out)]
    assert run([*argv, "--self-bounding"]) == 2
    assert "--self-bounding" in capsys.readouterr().err
    assert not out.exists()
    assert run([*argv, "--seed", "2"]) == 0
    assert _read(out)["utilities"][0]["exhaustive"] is False
    # without --seed the sample is drawn with seed 0, and the manifest says so
    assert run(argv) == 0
    unseeded = _read(out)
    assert unseeded["manifest"]["seed"] == 0 and unseeded["manifest"]["flags"]["seed"] == 0
    assert run([*argv, "--seed", "0"]) == 0
    assert _read(out)["utilities"] == unseeded["utilities"]


def test_sampled_check_utility_refuses_a_budget_that_checks_nothing(tmp_path, capsys):
    from corelect.model import ApprovalUtility, Instance
    from corelect.serialize import save_instance

    inst_path = tmp_path / "wide.json"
    save_instance(Instance(range(21), [ApprovalUtility({0})], k=2, validate="trust"), inst_path)
    out = tmp_path / "out.json"
    argv = ["check-utility", "--in", str(inst_path), "--sample-budget", "0", "--report", str(out)]
    assert run(argv) == 2
    assert "sample budget of at least 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "name",
    ["main1", "matroid", "ejr", "tight-upper", "lb1-points", "lb1-lemma-deviations", "lemmas",
     "sampling-bound"],
)
def test_theorem_suite_refuses_a_run_of_no_cases(tmp_path, capsys, name):
    out = tmp_path / "suite.json"
    assert run(["theorem-suite", "--name", name, "--seeds", "0", "--out", str(out)]) == 2
    assert "at least one case, got 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_endow2_experiment_refuses_a_run_of_no_trials(tmp_path, capsys, trials):
    inst_path, extra = _experiment_instance(tmp_path, "endow2")
    report = tmp_path / "report.json"
    argv = ["experiment", "--kind", "endow2", "--in", str(inst_path), *extra]
    assert run([*argv, "--trials", trials, "--report", str(report)]) == 2
    assert "need at least one trial" in capsys.readouterr().err
    assert not report.exists()


def test_gen_refuses_a_params_key_its_generator_does_not_read(tmp_path, capsys):
    out = tmp_path / "inst.json"
    assert run(["gen", "--name", "rest1", "--params", "q=2", "bogus=1", "--out", str(out)]) == 2
    assert "'bogus'" in capsys.readouterr().err
    assert not out.exists()
    assert run(["gen", "--name", "rest1", "--params", "q=2", "voters=2", "--out", str(out)]) == 0


def test_gen_writes_the_same_bytes_into_any_directory(tmp_path, monkeypatch):
    # a frozen clock makes the manifest's wall-clock field equal too
    monkeypatch.setattr("corelect.cli.time.monotonic", lambda: 0.0)
    paths = [tmp_path / d / "inst.json" for d in ("a", "b/c")]
    for path in paths:
        path.parent.mkdir(parents=True)
        assert run(["gen", "--name", "xos", "--params", "k=3", "--out", str(path)]) == 0
    first, second = (path.read_bytes() for path in paths)
    assert first == second
    assert json.loads(first)["manifest"]["flags"]["out"] == "inst.json"


@pytest.mark.parametrize(
    "argv",
    [
        ["check-utility"],
        ["experiment", "--kind", "sampling-bound", "--alpha", "1/2"],
        ["experiment", "--kind", "lower-tail", "--alpha", "1/2", "--trials", "50"],
    ],
)
@pytest.mark.parametrize("voter", ["9", "-1"])
def test_a_voter_outside_the_instance_is_refused(tmp_path, capsys, argv, voter):
    inst_path = tmp_path / "xos.json"
    run(["gen", "--name", "xos", "--params", "k=2", "--out", str(inst_path)])
    assert load_instance(inst_path).n == 2
    report = tmp_path / "report.json"
    target = ["--in", str(inst_path), "--report", str(report)]
    assert run([*argv, f"--voter={voter}", *target]) == 2
    assert f"--voter {voter} is out of range" in capsys.readouterr().err
    assert not report.exists()
    assert run([*argv, "--voter=1", *target]) in (0, 1)
    assert report.exists()


_ENDOW2 = ["--committee", "6,7", "--coalition", "0,1", "--deviation", "0,1,2,3,4,5"]
_ENDOW2 += ["--trials", "50"]


@pytest.mark.parametrize(
    "argv, infile, flag, value",
    [
        (["verify", "--notion", "core"], "xos", "--committee", "0,99"),
        (["verify", "--notion", "restrained-core"], "xos", "--committee", "99"),
        (["verify", "--notion", "pb-core"], "endow2", "--committee", "-1"),
        (["verify", "--notion", "endowment"], "endow2", "--committee", "6,8"),
        (["solve", "--method", "local", "--rule", "snw"], "xos", "--start", "0,99"),
        (["experiment", "--kind", "sampling-bound"], "xos", "--set", "0,99"),
        (["experiment", "--kind", "lower-tail", "--trials", "50"], "xos", "--set", "99"),
        (["experiment", "--kind", "endow2", *_ENDOW2], "endow2", "--committee", "6,99"),
        (["experiment", "--kind", "endow2", *_ENDOW2], "endow2", "--coalition", "0,5"),
        (["experiment", "--kind", "endow2", *_ENDOW2], "endow2", "--coalition", "-1"),
        (["experiment", "--kind", "endow2", *_ENDOW2], "endow2", "--deviation", "0,1,99"),
    ],
)
def test_an_id_outside_the_instance_is_refused(tmp_path, capsys, argv, infile, flag, value):
    # candidate ids must name candidates of the instance, --coalition ids
    # voters 0..n-1; the last id of each value lies outside
    _pinned_instances(tmp_path)
    out = tmp_path / "out.json"
    target = ["--in", str(tmp_path / f"{infile}.json")]
    target += ["--out" if argv[0] == "solve" else "--report", str(out)]
    if argv[0] == "verify":
        argv = [*argv, "--committee", "0"]
    # the flag given last is the one argparse keeps
    assert run([*argv, f"{flag}={value}", *target]) == 2
    assert f"{flag} {value.split(',')[-1]} " in capsys.readouterr().err
    assert not out.exists()
    assert run([*argv, *target]) in (0, 1)


def test_sampling_bound_manifest_records_no_seed(tmp_path):
    # the bound is checked by exact enumeration and draws nothing
    inst_path, extra = _experiment_instance(tmp_path, "sampling-bound")
    report = tmp_path / "report.json"
    argv = ["experiment", "--kind", "sampling-bound", "--in", str(inst_path), *extra]
    assert run([*argv, "--report", str(report)]) in (0, 1)
    assert _read(report)["manifest"]["seed"] is None


def test_lb1_emptiness_reruns_differ_only_in_the_wall_clock(tmp_path, monkeypatch):
    outs = [tmp_path / d / "lb1.json" for d in ("a", "b")]
    for out in outs:
        out.parent.mkdir()
        monkeypatch.chdir(out.parent)  # the manifest records --out as given
        argv = ["theorem-suite", "--name", "lb1-emptiness", "--class-cap", "2000"]
        assert run([*argv, "--out", "lb1.json"]) == 0
    first, second = (_read(out) for out in outs)
    for payload in (first, second):
        payload["manifest"].pop("wall_clock_ms")
    assert first == second
    assert "elapsed_s" not in first and first["classes_checked"] == 2000


def _pinned_instances(tmp_path):
    from corelect.model import ApprovalUtility, Instance
    from corelect.serialize import save_instance

    run(["gen", "--name", "xos", "--params", "k=3", "--out", str(tmp_path / "xos.json")])
    endow, _ = _experiment_instance(tmp_path, "endow2")
    approval = Instance(range(4), [ApprovalUtility({0, 1}), ApprovalUtility({2})], k=2)
    save_instance(approval, tmp_path / "approval.json")
    wide = Instance(range(21), [ApprovalUtility({0, 5})], k=2, validate="trust")
    save_instance(wide, tmp_path / "wide.json")


_EXPERIMENT_RECORDED = {
    "alpha": "1/2", "coalition": "", "committee": "", "delta": "1/2", "deviation": "",
    "eta": "11.63", "gamma_param": "2", "kappa": "1.454", "q": "1/2", "trials": 10_000, "voter": 0,
}


@pytest.mark.parametrize(
    "argv, infile, flags, seed",
    [
        (["solve", "--method", "global", "--rule", "snw"], "xos", {}, None),
        (["solve", "--method", "local", "--rule", "snw", "--seed", "3"], "xos", {"seed": 3}, 3),
        # every notion records gamma "1" and mode "subsetW", read or not,
        # as the manifests hashed by bench/digests.json do
        *(
            (
                ["verify", "--notion", notion, "--committee", "0,1"],
                infile,
                {"auto_lift": False, "committee": "0,1", "gamma": "1", "mode": "subsetW"},
                None,
            )
            for notion, infile in [
                ("core", "xos"), ("restrained-core", "xos"), ("ejr", "approval"),
                ("endowment", "endow2"), ("pb-core", "endow2"),
            ]
        ),
        (["check-utility"], "xos", {"self_bounding": False}, None),
        (
            ["check-utility", "--sample-budget", "8", "--seed", "2"],
            "wide",
            {"sample_budget": 8, "seed": 2, "self_bounding": False},
            2,
        ),
        # every kind records each default of the command, read or not
        (["experiment", "--kind", "sampling-bound"], "xos", _EXPERIMENT_RECORDED, None),
        (
            ["experiment", "--kind", "lower-tail", "--trials", "50"],
            "xos",
            {**_EXPERIMENT_RECORDED, "trials": 50},
            0,
        ),
        (
            ["experiment", "--kind", "endow2", "--committee", "6,7", "--coalition", "0,1",
             "--deviation", "0,1,2,3,4,5", "--trials", "50"],
            "endow2",
            {**_EXPERIMENT_RECORDED, "committee": "6,7", "coalition": "0,1",
             "deviation": "0,1,2,3,4,5", "trials": 50},
            0,
        ),
        (
            ["theorem-suite", "--name", "endow2-value"],
            None,
            {"eta": "11.63", "kappa": "1.454"},
            None,
        ),
        (["theorem-suite", "--name", "tight-lower"], None, {}, None),
    ],
)
def test_each_command_entry_records_its_manifest_flags(tmp_path, argv, infile, flags, seed):
    # one pinned manifest per solve method, verify notion, check-utility
    # mode, experiment kind and suite with or without recorded defaults
    _pinned_instances(tmp_path)
    out = tmp_path / "out.json"
    target = "--out" if argv[0] in ("solve", "theorem-suite") else "--report"
    given = {"command": argv[0], "jobs": 1, target[2:]: str(out)}
    if infile:
        given["infile"] = str(tmp_path / f"{infile}.json")
        argv = [*argv, "--in", given["infile"]]
    assert run([*argv, target, str(out)]) in (0, 1)
    # the entry flags: --method and --rule, --notion, --kind or --name
    for flag, value in zip(argv[1::2], argv[2::2]):
        if flag in ("--method", "--rule", "--notion", "--kind", "--name"):
            given[flag[2:]] = value
    manifest = _read(out)["manifest"]
    assert manifest["flags"] == {**given, **flags}
    assert manifest["seed"] == seed


_SNW_ONE_VOTER = {"n": 1, "candidates": [0, 1, 2], "utilities": [{"kind": "approval", "approved": [0]}]}


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"candidates": 5, "k": 1}, "bad instance fields"),
        ({"candidates": ["a"], "k": 1}, "bad instance fields"),
        ({"k": [1]}, "bad instance fields"),
        ({"k": "one"}, "bad instance fields"),
        ({"k": 1, "constraint": 5}, "a constraint must be a JSON object"),
        ({"k": 1, "constraint": ["cardinality"]}, "a constraint must be a JSON object"),
    ],
)
def test_top_level_fields_of_the_wrong_type_are_usage_errors(tmp_path, capsys, fields, message):
    # exit 2 with a message, never a traceback and exit 1 (the fail verdict)
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({**_SNW_ONE_VOTER, **fields}))
    out = tmp_path / "out.json"
    argv = ["solve", "--rule", "snw", "--method", "global", "--in", str(path), "--out", str(out)]
    assert run(argv) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()
