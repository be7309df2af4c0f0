"""Command-line front end: generators, solvers, verifiers, experiments.

Exit codes: 0 = success / verdict pass, 1 = verdict fail (witness in the
report), 2 = usage or format error.  Every JSON artifact embeds a run
manifest (command, flags, input hashes, version, seed, wall clock);
reports are canonical JSON and reruns differ only in the wall-clock
field.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import math
import os
import sys
import time
from fractions import Fraction

from . import __version__
from .errors import WORK_LIMIT, CorelectError, EnumerationLimitError
from .exactnum import parse_rational, rational_to_json
from .instances import (
    ENDOW2_ETA,
    ENDOW2_KAPPA,
    endow2_bound,
    gen_lb00,
    gen_lb_16_15,
    gen_rest1,
    gen_tight_2alpha,
    gen_xos_example,
)
from .intervals import exp_upper
from .lb_search import LB1_CLASS_CAP, lb1_emptiness_search, verify_passing_class
from .model import check_axioms, self_bounding_constant
from .sampling import endow2_reduction_experiment, mc_lower_tail, verify_sampling_bound
from .serialize import (
    FormatError,
    dumps_canonical,
    instance_to_json,
    load_instance,
)
from .solvers import SolverConfig, solve_global, solve_local
from .theorems import THEOREM_SUITES
from .verifiers import (
    check_core,
    check_endowment_core,
    check_pb_core,
    check_restrained_core,
    check_restrained_ejr,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def parse_gamma(text: str):
    """Accept "p/q", decimal strings, and "e^B" sugar, which expands to
    ``exp_upper(B)``, sound for pass-direction checks only."""
    if text.startswith("e^"):
        return exp_upper(int(text[2:])), True
    return parse_rational(text), False


def _ids(inst, flag: str, text: str, voters: bool = False) -> frozenset:
    """The comma-separated ids given to ``--flag``, candidates of ``inst`` or
    (``voters``) voter indices; an id outside the instance is a usage error."""
    text = text.strip()
    ids = frozenset(int(tok) for tok in text.split(",")) if text else frozenset()
    for i in sorted(ids):
        if voters:
            _voter(inst, i, flag)
        elif i not in inst.candidates:
            raise FormatError(f"--{flag} {i} is not a candidate of the instance")
    return ids


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return "sha256:" + h.hexdigest()


class Flag:
    """One flag of a command: the entries that read it, the default its
    manifest records, and its ``add_argument`` keywords.  An entry is a
    solve method, verify notion, check-utility mode, experiment kind or
    theorem suite; a suite flag maps each suite to the parameter it feeds."""

    def __init__(self, readers, default=None, **spec):
        self.readers, self.default, self.spec = readers, default, spec


# verify and experiment manifests record every default of their table, read or
# not (verify --notion ejr records gamma "1", --notion core mode "subsetW");
# bench/digests.json hashes the verify ones.  ROADMAP item 8 narrows this to the
# readers in the change that re-records those digests
_RECORDS_UNREAD_DEFAULTS = ("verify", "experiment")


def _take(args, table, entry, what: str) -> None:
    """Refuse the first flag of ``table`` that was given although ``entry``
    does not read it, and set each flag still None to its recorded default,
    so the manifest records what ran."""
    every = args.command in _RECORDS_UNREAD_DEFAULTS
    for name, flag in table.items():
        value, reads = getattr(args, name), entry in flag.readers
        # 0 is a value: only None, or False for a store_true flag, is omitted
        if not reads and value is not None and value is not False:
            raise FormatError(f"{what} does not take --{name.replace('_', '-')}")
        if value is None and (reads or every):
            setattr(args, name, flag.default)


def _add_flags(parser, table) -> None:
    """Add each flag of ``table``, defaulting to None (False for store_true),
    so that a flag that was given can be told from one that was not."""
    for name, flag in table.items():
        default = "" if flag.default in (None, "") else f"; default {flag.default}"
        text = f"read by {', '.join(flag.readers)}{default}"
        parser.add_argument("--" + name.replace("_", "-"), help=text, **flag.spec)


def _voter(inst, i: int, flag: str = "voter"):
    """Voter i's utility; an index outside 0..n-1 is a usage error."""
    if not 0 <= i < inst.n:
        raise FormatError(f"--{flag} {i} is out of range: the instance has voters 0..{inst.n - 1}")
    return inst.utilities[i]


class _Runner:
    """Collects manifest data and writes canonical report artifacts."""

    def __init__(self, command: str, args: argparse.Namespace):
        self.command = command
        self.args = args
        self.inputs = {}
        self.start = time.monotonic()

    def hash_input(self, path):
        self.inputs[str(path)] = _sha256(path)

    def manifest(self, exit_status: int, seed=None) -> dict:
        flags = {
            k: (str(v) if isinstance(v, Fraction) else v)
            for k, v in sorted(vars(self.args).items())
            if k != "func" and v is not None
        }
        return {
            "command": self.command,
            "flags": flags,
            "inputs": dict(sorted(self.inputs.items())),
            "version": __version__,
            "seed": seed,
            "wall_clock_ms": int((time.monotonic() - self.start) * 1000),
            "exit_status": exit_status,
        }

    def emit(self, payload: dict, path, exit_status: int, seed=None) -> int:
        payload = dict(payload)
        payload["manifest"] = self.manifest(exit_status, seed)
        text = dumps_canonical(payload)
        if path:
            with open(path, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return exit_status


# each generator's --params keys, and the instance it builds from them
GENERATORS = {
    "xos": (("k",), lambda p: gen_xos_example(int(p["k"]))),
    "rest1": (("q", "voters"), lambda p: gen_rest1(int(p["q"]), int(p.get("voters", 1)))),
    "lb16-15": (("r", "pool"), lambda p: gen_lb_16_15(int(p["r"]), p.get("pool"))),
    "lb00": (("beta", "r"), lambda p: gen_lb00(int(p["beta"]), int(p["r"]))),
    "tight2a": (
        ("alpha", "eps"),
        lambda p: gen_tight_2alpha(parse_rational(p["alpha"]), parse_rational(p["eps"])),
    ),
}


def _cmd_gen(args) -> int:
    runner = _Runner("gen", args)
    keys, build = GENERATORS[args.name]
    params = {}
    for item in args.params or []:
        key, _, value = item.partition("=")
        if not value:
            raise FormatError(f"--params entries look like key=value, got {item!r}")
        key = key.replace("-", "_")
        if key not in keys:
            raise FormatError(f"generator {args.name!r} takes no key {key!r}; keys: {list(keys)}")
        params[key] = value
    payload = instance_to_json(build(params))
    # the manifest records the file name only, so the file's bytes do not
    # depend on the directory it is written to
    path = args.out
    if path:
        args.out = os.path.basename(path)
    return runner.emit(payload, path, EXIT_PASS, seed=None)


SOLVE_FLAGS = {
    "epsilon": Flag(("local",), metavar="p/q"),
    "start": Flag(("local",), metavar="ids"),
    "seed": Flag(("local",), type=int),
}


def _cmd_solve(args) -> int:
    _take(args, SOLVE_FLAGS, args.method, f"solve --method {args.method}")
    runner = _Runner("solve", args)
    runner.hash_input(args.infile)
    inst = load_instance(args.infile)
    config = SolverConfig(
        epsilon=parse_rational(args.epsilon) if args.epsilon else Fraction(0),
        start=_ids(inst, "start", args.start) if args.start else None,
        seed=args.seed,
    )
    if args.method == "global":
        result = solve_global(inst, args.rule)
    else:
        result = solve_local(inst, args.rule, config)
    value = result.score.value
    score_obj = {
        "rule": args.rule,
        "value": rational_to_json(value) if isinstance(value, Fraction) else repr(value),
    }
    if args.rule == "snw":
        score_obj["ln_approx"] = result.score.ln_float()
    payload = {
        "committee": result.committee.sorted(),
        "score": score_obj,
        "iterations": result.iterations,
    }
    return runner.emit(payload, args.out, EXIT_PASS, seed=args.seed)


NOTIONS = ("core", "restrained-core", "ejr", "endowment", "pb-core")
VERIFY_FLAGS = {
    "gamma": Flag(("core", "restrained-core", "endowment", "pb-core"), "1", metavar="p/q|e^B"),
    "mode": Flag(("restrained-core", "ejr"), "subsetW", choices=["subsetW", "anyW"]),
    "committee": Flag(NOTIONS, required=True, metavar="ids"),
    "min_coalition": Flag(("core",), metavar="p/q"),
    "auto_lift": Flag(("endowment", "pb-core"), action="store_true"),
}


def _cmd_verify(args) -> int:
    _take(args, VERIFY_FLAGS, args.notion, f"verify --notion {args.notion}")
    runner = _Runner("verify", args)
    runner.hash_input(args.infile)
    inst = load_instance(args.infile)
    W = _ids(inst, "committee", args.committee)
    mode = {"subsetW": "subset_of_W", "anyW": "any_hatW"}[args.mode]
    sugar = False
    if args.notion in VERIFY_FLAGS["gamma"].readers:
        gamma, sugar = parse_gamma(args.gamma)
    if args.notion == "core":
        min_c = parse_rational(args.min_coalition) if args.min_coalition else None
        report = check_core(inst, W, gamma, min_coalition=min_c)
    elif args.notion == "restrained-core":
        report = check_restrained_core(inst, W, gamma, mode=mode)
    elif args.notion == "ejr":
        report = check_restrained_ejr(inst, W, mode=mode)
    elif args.notion == "endowment":
        report = check_endowment_core(inst, W, gamma, auto_lift=args.auto_lift)
    else:
        report = check_pb_core(inst, W, gamma, auto_lift=args.auto_lift)
    if sugar:
        report.flags.append("gamma-sugar-overapproximation-pass-direction-only")
    status = EXIT_PASS if report.verdict else EXIT_FAIL
    return runner.emit(report.to_json(), args.report, status)


CHECK_UTILITY_FLAGS = {
    "voter": Flag(("exhaustive", "sampled"), type=int),
    "self_bounding": Flag(("exhaustive",), action="store_true"),
    "sample_budget": Flag(("sampled",), type=int),
    "seed": Flag(("sampled",), 0, type=int),
}


def _cmd_check_utility(args) -> int:
    runner = _Runner("check-utility", args)
    runner.hash_input(args.infile)
    inst = load_instance(args.infile)
    # check_axioms' own test: every subset is scanned when they fit the work limit
    mode = "exhaustive" if 1 << inst.m <= WORK_LIMIT else "sampled"
    _take(args, CHECK_UTILITY_FLAGS, mode, f"the {mode} check of {inst.m} candidates")
    voters = [args.voter] if args.voter is not None else list(range(inst.n))
    entries = []
    all_ok = True
    for i in voters:
        u = _voter(inst, i)
        rep = check_axioms(u, inst.candidates, sample_budget=args.sample_budget, seed=args.seed)
        entry = {
            "voter": i,
            "kind": u.kind,
            "monotone": rep.monotone,
            "lipschitz": rep.lipschitz,
            "exhaustive": rep.exhaustive,
        }
        if rep.monotone_witness:
            entry["monotone_witness"] = rep.monotone_witness.as_json()
        if rep.lipschitz_witness:
            entry["lipschitz_witness"] = rep.lipschitz_witness.as_json()
        if args.self_bounding:
            entry["self_bounding_constant"] = str(
                self_bounding_constant(u, inst.candidates)
            )
        all_ok = all_ok and rep.ok
        entries.append(entry)
    status = EXIT_PASS if all_ok else EXIT_FAIL
    return runner.emit({"utilities": entries}, args.report, status, seed=args.seed)


KINDS = ("sampling-bound", "lower-tail", "endow2")
_ONE_VOTER = ("sampling-bound", "lower-tail")  # the kinds that test one voter's utility
EXPERIMENT_FLAGS = {
    "voter": Flag(_ONE_VOTER, 0, type=int),
    "set": Flag(_ONE_VOTER, metavar="ids"),
    "alpha": Flag(_ONE_VOTER, "1/2", metavar="p/q"),
    "delta": Flag(("lower-tail",), "1/2", metavar="p/q"),
    "beta": Flag(KINDS, type=int),
    "trials": Flag(("lower-tail", "endow2"), 10_000, type=int),
    "seed": Flag(("lower-tail", "endow2"), type=int),
    "committee": Flag(("endow2",), "", metavar="ids"),
    "coalition": Flag(("endow2",), "", metavar="ids"),
    "deviation": Flag(("endow2",), "", metavar="ids"),
    "kappa": Flag(("endow2",), ENDOW2_KAPPA),
    "eta": Flag(("endow2",), ENDOW2_ETA),
    "gamma_param": Flag(("endow2",), "2"),
    "q": Flag(("endow2",), "1/2"),
}


def _cmd_experiment(args) -> int:
    _take(args, EXPERIMENT_FLAGS, args.kind, f"experiment --kind {args.kind}")
    runner = _Runner("experiment", args)
    runner.hash_input(args.infile)
    inst = load_instance(args.infile)
    seed = args.seed if args.seed is not None else 0
    if args.kind in _ONE_VOTER:
        u = _voter(inst, args.voter)
        T = sorted(_ids(inst, "set", args.set)) if args.set else sorted(inst.candidates)
    if args.kind == "sampling-bound":
        beta = 1 if args.beta is None else args.beta
        ok = verify_sampling_bound(u, T, parse_rational(args.alpha), beta=beta)
        # exact enumeration: no draw, so no seed
        status = EXIT_PASS if ok else EXIT_FAIL
        return runner.emit({"kind": "sampling-bound", "holds": ok}, args.report, status)
    if args.kind == "lower-tail":
        rep = mc_lower_tail(
            u,
            T,
            parse_rational(args.alpha),
            parse_rational(args.delta),
            args.trials,
            seed,
            beta=args.beta,
        )
        status = EXIT_PASS if rep.verdict != "fail" else EXIT_FAIL
        return runner.emit({"kind": "lower-tail", **rep.to_json()}, args.report, status, seed=seed)
    # endow2 reduction
    rep = endow2_reduction_experiment(
        inst,
        _ids(inst, "committee", args.committee),
        sorted(_ids(inst, "coalition", args.coalition, voters=True)),
        _ids(inst, "deviation", args.deviation),
        parse_rational(args.kappa),
        parse_rational(args.eta),
        args.trials,
        seed,
        gamma=parse_rational(args.gamma_param),
        q=parse_rational(args.q),
        beta=1 if args.beta is None else args.beta,
    )
    status = EXIT_PASS if rep.premises_ok and rep.joint_witnessed else EXIT_FAIL
    return runner.emit({"kind": "endow2", **rep.to_json()}, args.report, status, seed=seed)


SUITE_FLAGS = {
    "seeds": Flag(
        {"main1": "count", "matroid": "count", "ejr": "count", "tight-upper": "count",
         "lb1-points": "per_case", "lb1-lemma-deviations": "trials", "lemmas": "count",
         "sampling-bound": "per_kind"},
        type=int,
    ),
    "r": Flag({"lb1-points": "r", "lb1-lemma-deviations": "r", "lb1-emptiness": "r"}, type=int),
    "beta": Flag({"lb00": "beta", "endow2-value": "beta"}, type=int),
    "kappa": Flag({"endow2-value": "kappa"}, ENDOW2_KAPPA),
    "eta": Flag({"endow2-value": "eta"}, ENDOW2_ETA),
    # a wall-clock stop applies only when --time-cap is given
    "time_cap": Flag({"lb1-emptiness": "time_cap_s"}, type=float),
    "class_cap": Flag({"lb1-emptiness": "class_cap"}, LB1_CLASS_CAP, type=int),
}


def _cmd_theorem_suite(args) -> int:
    options = sorted(THEOREM_SUITES) + ["endow2-value", "lb1-emptiness"]
    if args.name not in options:
        raise FormatError(f"unknown suite {args.name!r}; options: {options}")
    _take(args, SUITE_FLAGS, args.name, f"suite {args.name!r}")
    runner = _Runner("theorem-suite", args)
    kwargs = {
        flag.readers[args.name]: getattr(args, key)
        for key, flag in SUITE_FLAGS.items()
        if args.name in flag.readers and getattr(args, key) is not None
    }
    if args.name == "endow2-value":
        interval = endow2_bound(**{"beta": 1, **kwargs})
        payload = {
            "lo": str(interval.lo),
            "hi": str(interval.hi),
            "lo_float": float(interval.lo),
            "hi_float": float(interval.hi),
            "feasible_q": interval.feasible_q,
        }
        return runner.emit(payload, args.out, EXIT_PASS)
    if args.name == "lb1-emptiness":
        rep = lb1_emptiness_search(**{"r": 5, "time_cap_s": math.inf, **kwargs})
        payload = rep.to_json()
        # the run time belongs to the manifest's wall clock alone, so reruns match
        payload.pop("elapsed_s")
        payload["stopped_by"] = None
        if rep.result == "cap-exceeded":
            by_class = rep.classes_checked >= args.class_cap
            payload["stopped_by"] = "class-cap" if by_class else "time-cap"
        if rep.result == "counterexample-candidate":
            cert = verify_passing_class(rep.r, rep.passing_class)
            payload["counterexample_verified"] = cert["passes"]
            payload["certificates"] = cert["certificates"]
        status = EXIT_PASS if rep.result != "counterexample-candidate" else EXIT_FAIL
        return runner.emit(payload, args.out, status)
    suite = THEOREM_SUITES[args.name](**kwargs)
    status = EXIT_PASS if suite.passed else EXIT_FAIL
    return runner.emit(suite.to_json(), args.out, status, seed=args.seeds)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="corelect",
        description="committee selection rules and core-stability verifiers",
    )
    parser.add_argument("--jobs", type=int, default=1, help="reserved; runs are sequential and deterministic")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a benchmark instance")
    p.add_argument("--name", required=True, choices=list(GENERATORS))
    p.add_argument("--params", nargs="*", metavar="key=value")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("solve", help="run Global or Local on an instance")
    p.add_argument("--rule", required=True, choices=["pav", "snw", "gpav"])
    p.add_argument("--method", required=True, choices=["global", "local"])
    _add_flags(p, SOLVE_FLAGS)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("verify", help="check a stability notion with witnesses")
    p.add_argument("--notion", required=True, choices=NOTIONS)
    _add_flags(p, VERIFY_FLAGS)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--report", default=None)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("check-utility", help="axiom checks for every voter oracle")
    p.add_argument("--in", dest="infile", required=True)
    _add_flags(p, CHECK_UTILITY_FLAGS)
    p.add_argument("--report", default=None)
    p.set_defaults(func=_cmd_check_utility)

    p = sub.add_parser("experiment", help="sampling experiments")
    p.add_argument("--kind", required=True, choices=KINDS)
    p.add_argument("--in", dest="infile", required=True)
    _add_flags(p, EXPERIMENT_FLAGS)
    p.add_argument("--report", default=None)
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("theorem-suite", help="run a named property suite")
    p.add_argument("--name", required=True)
    _add_flags(p, SUITE_FLAGS)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_theorem_suite)

    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser ``run`` reuses; parse_args leaves it unchanged."""
    return build_parser()


def run(argv) -> int:
    """Parse argv and execute; returns the exit code."""
    try:
        args = _shared_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except EnumerationLimitError as exc:
        print(f"error: {exc} (reduce the instance)", file=sys.stderr)
        return EXIT_USAGE
    except (CorelectError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (KeyError, ValueError) as exc:
        print(f"error: bad arguments: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
