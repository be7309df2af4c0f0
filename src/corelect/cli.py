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
import itertools
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


def _ids(text: str):
    text = text.strip()
    if not text:
        return frozenset()
    return frozenset(int(tok) for tok in text.split(","))


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return "sha256:" + h.hexdigest()


def _refuse(args, flags, what: str) -> None:
    """Refuse the first of ``flags`` that was given, since ``what`` would
    ignore it; each of them defaults to None or False."""
    for flag in flags:
        if getattr(args, flag) not in (None, False):
            raise FormatError(f"{what} does not take --{flag.replace('_', '-')}")


def _take(args, table, name, defaults, what: str) -> None:
    """Refuse the first flag of ``table`` that was given although entry
    ``name`` does not read it, then set each flag still None to its entry
    in ``defaults``, so the manifest records what ran."""
    flags = dict.fromkeys(itertools.chain(*table.values()))
    _refuse(args, [flag for flag in flags if flag not in table[name]], what)
    for flag, default in defaults.items():
        if getattr(args, flag) is None:
            setattr(args, flag, default)


def _voter(inst, i: int):
    """Voter i's utility; an index outside 0..n-1 is a usage error."""
    if not 0 <= i < inst.n:
        raise FormatError(f"--voter {i} is out of range: the instance has voters 0..{inst.n - 1}")
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


def _cmd_solve(args) -> int:
    if args.method == "global":
        _refuse(args, ("epsilon", "start", "seed"), "solve --method global")
    runner = _Runner("solve", args)
    runner.hash_input(args.infile)
    inst = load_instance(args.infile)
    config = SolverConfig(
        epsilon=parse_rational(args.epsilon) if args.epsilon else Fraction(0),
        start=_ids(args.start) if args.start else None,
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


# the optional verify flags each notion reads, and the defaults of the
# flags that default to None
VERIFY_FLAGS = {
    "core": ("gamma", "min_coalition"),
    "restrained-core": ("gamma", "mode"),
    "ejr": ("mode",),
    "endowment": ("gamma", "auto_lift"),
    "pb-core": ("gamma", "auto_lift"),
}
_VERIFY_DEFAULTS = {"gamma": "1", "mode": "subsetW"}


def _cmd_verify(args) -> int:
    _take(args, VERIFY_FLAGS, args.notion, _VERIFY_DEFAULTS, f"verify --notion {args.notion}")
    runner = _Runner("verify", args)
    runner.hash_input(args.infile)
    inst = load_instance(args.infile)
    W = _ids(args.committee)
    mode = {"subsetW": "subset_of_W", "anyW": "any_hatW"}[args.mode]
    sugar = False
    if args.notion in ("core", "restrained-core", "pb-core"):
        gamma, sugar = parse_gamma(args.gamma)
    if args.notion == "core":
        min_c = parse_rational(args.min_coalition) if args.min_coalition else None
        report = check_core(inst, W, gamma, min_coalition=min_c)
    elif args.notion == "restrained-core":
        report = check_restrained_core(inst, W, gamma, mode=mode)
    elif args.notion == "ejr":
        report = check_restrained_ejr(inst, W, mode=mode)
    elif args.notion == "endowment":
        theta, sugar = parse_gamma(args.gamma)
        report = check_endowment_core(inst, W, theta, auto_lift=args.auto_lift)
    else:
        report = check_pb_core(inst, W, gamma, auto_lift=args.auto_lift)
    if sugar:
        report.flags.append("gamma-sugar-overapproximation-pass-direction-only")
    status = EXIT_PASS if report.verdict else EXIT_FAIL
    return runner.emit(report.to_json(), args.report, status)


def _cmd_check_utility(args) -> int:
    runner = _Runner("check-utility", args)
    runner.hash_input(args.infile)
    inst = load_instance(args.infile)
    # check_axioms' own test: every subset is scanned when they fit the work limit
    if 1 << inst.m <= WORK_LIMIT:
        _refuse(args, ("sample_budget", "seed"), f"the exhaustive check of {inst.m} candidates")
    else:
        _refuse(args, ("self_bounding",), f"the sampled check of {inst.m} candidates")
        if args.sample_budget is None:
            _refuse(args, ("seed",), "check-utility without --sample-budget")
    voters = [args.voter] if args.voter is not None else list(range(inst.n))
    entries = []
    all_ok = True
    for i in voters:
        u = _voter(inst, i)
        rep = check_axioms(u, inst.candidates, sample_budget=args.sample_budget, seed=args.seed or 0)
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


# the optional experiment flags each kind reads, and the defaults of the
# flags that default to None
EXPERIMENT_FLAGS = {
    "sampling-bound": ("voter", "set", "alpha", "beta"),
    "lower-tail": ("voter", "set", "alpha", "beta", "delta", "trials", "seed"),
    "endow2": (
        "committee", "coalition", "deviation", "kappa", "eta", "trials", "seed",
        "gamma_param", "q", "beta",
    ),
}
_EXPERIMENT_DEFAULTS = {
    "voter": 0, "alpha": "1/2", "delta": "1/2", "trials": 10_000, "committee": "",
    "coalition": "", "deviation": "", "kappa": ENDOW2_KAPPA, "eta": ENDOW2_ETA,
    "gamma_param": "2", "q": "1/2",
}


def _cmd_experiment(args) -> int:
    what = f"experiment --kind {args.kind}"
    _take(args, EXPERIMENT_FLAGS, args.kind, _EXPERIMENT_DEFAULTS, what)
    runner = _Runner("experiment", args)
    runner.hash_input(args.infile)
    inst = load_instance(args.infile)
    seed = args.seed if args.seed is not None else 0
    if args.kind == "sampling-bound":
        u = _voter(inst, args.voter)
        T = sorted(_ids(args.set)) if args.set else sorted(inst.candidates)
        beta = 1 if args.beta is None else args.beta
        ok = verify_sampling_bound(u, T, parse_rational(args.alpha), beta=beta)
        # exact enumeration: no draw, so no seed
        status = EXIT_PASS if ok else EXIT_FAIL
        return runner.emit({"kind": "sampling-bound", "holds": ok}, args.report, status)
    if args.kind == "lower-tail":
        u = _voter(inst, args.voter)
        T = sorted(_ids(args.set)) if args.set else sorted(inst.candidates)
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
        _ids(args.committee),
        sorted(_ids(args.coalition)),
        _ids(args.deviation),
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


# theorem-suite flags that feed a suite parameter, per suite: flag -> parameter
SUITE_PARAMS = {
    "main1": {"seeds": "count"},
    "matroid": {"seeds": "count"},
    "ejr": {"seeds": "count"},
    "tight-upper": {"seeds": "count"},
    "tight-lower": {},
    "lb1-points": {"seeds": "per_case", "r": "r"},
    "lb1-lemma-deviations": {"seeds": "trials", "r": "r"},
    "lb00": {"beta": "beta"},
    "lemmas": {"seeds": "count"},
    "sampling-bound": {"seeds": "per_kind"},
    "tail": {},
    "endow2-bound": {},
}
# the suites the CLI runs itself: flag -> parameter of endow2_bound / lb1_emptiness_search
CLI_SUITE_PARAMS = {
    "endow2-value": {"beta": "beta", "kappa": "kappa", "eta": "eta"},
    "lb1-emptiness": {"r": "r", "time_cap": "time_cap_s", "class_cap": "class_cap"},
}
# the defaults of the flags a suite takes, set once the flags are checked, so
# the manifest records them.  A wall-clock stop applies only when --time-cap
# is given.
_SUITE_DEFAULTS = {
    "endow2-value": {"kappa": ENDOW2_KAPPA, "eta": ENDOW2_ETA},
    "lb1-emptiness": {"class_cap": LB1_CLASS_CAP},
}


def _suite_kwargs(args) -> dict:
    """Map the suite flags given to suite parameters, refusing a flag the
    suite does not take, then resolve the defaults of the rest."""
    table = {**SUITE_PARAMS, **CLI_SUITE_PARAMS}
    if args.name not in table:
        options = sorted(SUITE_PARAMS) + sorted(CLI_SUITE_PARAMS)
        raise FormatError(f"unknown suite {args.name!r}; options: {options}")
    _take(args, table, args.name, _SUITE_DEFAULTS.get(args.name, {}), f"suite {args.name!r}")
    kwargs = {param: getattr(args, flag) for flag, param in table[args.name].items()}
    return {param: value for param, value in kwargs.items() if value is not None}


def _cmd_theorem_suite(args) -> int:
    runner = _Runner("theorem-suite", args)
    kwargs = _suite_kwargs(args)
    if args.name == "endow2-value":
        beta = 1 if args.beta is None else args.beta
        interval = endow2_bound(beta, parse_rational(args.kappa), parse_rational(args.eta))
        payload = {
            "lo": str(interval.lo),
            "hi": str(interval.hi),
            "lo_float": float(interval.lo),
            "hi_float": float(interval.hi),
            "feasible_q": interval.feasible_q,
        }
        return runner.emit(payload, args.out, EXIT_PASS)
    if args.name == "lb1-emptiness":
        r = 5 if args.r is None else args.r
        time_cap = math.inf if args.time_cap is None else args.time_cap
        rep = lb1_emptiness_search(r, time_cap_s=time_cap, class_cap=args.class_cap)
        payload = rep.to_json()
        # the run time belongs to the manifest's wall clock alone, so reruns match
        payload.pop("elapsed_s")
        payload["stopped_by"] = None
        if rep.result == "cap-exceeded":
            by_class = rep.classes_checked >= args.class_cap
            payload["stopped_by"] = "class-cap" if by_class else "time-cap"
        if rep.result == "counterexample-candidate":
            cert = verify_passing_class(r, rep.passing_class)
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
    p.add_argument("--epsilon", default=None, metavar="p/q")
    p.add_argument("--start", default=None, metavar="ids")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("verify", help="check a stability notion with witnesses")
    p.add_argument(
        "--notion",
        required=True,
        choices=["core", "restrained-core", "ejr", "endowment", "pb-core"],
    )
    p.add_argument("--gamma", default=None, metavar="p/q|e^B", help="default 1; not with ejr")
    p.add_argument(
        "--mode", default=None, choices=["subsetW", "anyW"],
        help="restrained-core and ejr only (default subsetW)",
    )
    p.add_argument("--committee", required=True, metavar="ids")
    p.add_argument("--min-coalition", default=None, metavar="p/q")
    p.add_argument("--auto-lift", action="store_true")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--report", default=None)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("check-utility", help="axiom checks for every voter oracle")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--voter", type=int, default=None)
    p.add_argument("--self-bounding", action="store_true")
    p.add_argument("--sample-budget", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--report", default=None)
    p.set_defaults(func=_cmd_check_utility)

    p = sub.add_parser("experiment", help="sampling experiments")
    p.add_argument("--kind", required=True, choices=["sampling-bound", "lower-tail", "endow2"])
    p.add_argument("--in", dest="infile", required=True)
    # each kind reads only its own flags (EXPERIMENT_FLAGS); defaults in _EXPERIMENT_DEFAULTS
    p.add_argument("--voter", type=int, default=None)
    p.add_argument("--set", default=None, metavar="ids")
    p.add_argument("--alpha", default=None, metavar="p/q")
    p.add_argument("--delta", default=None, metavar="p/q")
    p.add_argument("--beta", type=int, default=None)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--committee", default=None, metavar="ids")
    p.add_argument("--coalition", default=None, metavar="ids")
    p.add_argument("--deviation", default=None, metavar="ids")
    p.add_argument("--kappa", default=None)
    p.add_argument("--eta", default=None)
    p.add_argument("--gamma-param", default=None, dest="gamma_param")
    p.add_argument("--q", default=None)
    p.add_argument("--report", default=None)
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("theorem-suite", help="run a named property suite")
    p.add_argument("--name", required=True)
    p.add_argument("--seeds", type=int, default=None, help="number of random cases")
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--beta", type=int, default=None)
    p.add_argument("--kappa", default=None, help=f"endow2-value only (default {ENDOW2_KAPPA})")
    p.add_argument("--eta", default=None, help=f"endow2-value only (default {ENDOW2_ETA})")
    p.add_argument(
        "--time-cap", type=float, default=None, dest="time_cap",
        help="lb1-emptiness only, seconds (default: no wall-clock stop)",
    )
    p.add_argument(
        "--class-cap", type=int, default=None, dest="class_cap",
        help=f"lb1-emptiness only (default {LB1_CLASS_CAP})",
    )
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
    except (FormatError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except EnumerationLimitError as exc:
        print(f"error: {exc} (reduce the instance)", file=sys.stderr)
        return EXIT_USAGE
    except CorelectError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (KeyError, ValueError) as exc:
        print(f"error: bad arguments: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
