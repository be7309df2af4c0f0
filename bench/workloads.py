"""The benchmark workloads.

Each workload turns the seed into a pool of inputs (``make_inputs``),
runs one fixed-work op per input (``run``, the only timed part),
checks the op's outputs (``check``) and reduces them to a canonical
digest (``digest``).  ``prepare`` builds the per-op objects that must
start cold (a fresh ``Instance`` or a fresh oracle) outside the timed
region.

Ops call corelect through module attributes (``solvers.solve_local``),
never through names bound at import time, so that the tracer's wrappers
are seen when it is installed and the originals run when it is not.
"""

from __future__ import annotations

import hashlib
import json
import os
from fractions import Fraction

import corelect.cli as cli
import corelect.constraints as constraints
import corelect.instances as instances
import corelect.lb_search as lb_search
import corelect.model as model
import corelect.sampling as sampling
import corelect.scoring as scoring
import corelect.serialize as serialize
import corelect.solvers as solvers
import corelect.verifiers as verifiers
from corelect.exactnum import exact_ceil, parse_rational


def _digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _partition(candidates, groups, cap, k):
    family = constraints.PartitionMatroidFamily(
        [[c for c in candidates if c % groups == g] for g in range(groups)],
        [cap] * groups,
        k,
    )
    return family.bind(candidates)


def local_optimum_problems(instance, rule, W, reported_score):
    """Local's postconditions: W is a basis, its score is the one reported,
    and no single swap improves it."""
    M = instance.feasibility
    universe = sorted(instance.candidates)
    W = frozenset(W)
    if not constraints.is_basis(M, W, universe):
        return [f"Local winner {sorted(W)} is not a basis"]
    base = scoring.score(rule, instance, W)
    if base.value != reported_score:
        return [f"Local winner score {base.value} differs from the reported {reported_score}"]
    for out_c in sorted(W):
        for in_c in universe:
            if in_c in W:
                continue
            cand = (W - {out_c}) | {in_c}
            if M.independent(cand) and scoring.score(rule, instance, cand) > base:
                return [f"swap {out_c}->{in_c} improves the Local winner {sorted(W)}"]
    return []


def witness_replays(instance, W, report) -> bool:
    """Does a fail report's witness block W under the definitional predicate?"""
    witness = report.get("witness") or {}
    gamma = parse_rational(report["gamma_or_theta"])
    S = frozenset(witness.get("S", ()))
    notion = report["notion"]
    if notion == "core":
        return verifiers.blocks_core(instance, W, gamma, S, witness.get("T", ()))
    cert = {
        frozenset(c["hatW"]): frozenset(c["Wprime"]) for c in witness.get("completions", ())
    }
    if notion == "restrained_core":
        return verifiers.blocks_restrained_core(instance, W, gamma, S, cert=cert)[0]
    if notion == "restrained_ejr":
        return verifiers.blocks_restrained_ejr(instance, W, S, cert=cert)[0]
    return False


class Elect:
    """One election through the CLI, in-process: Global snw, its restrained
    core at e and core at 1, Local, and the notion Local is proved to meet."""

    name = "elect"
    pool_size = 320
    n, m, k = 6, 9, 3
    kinds = ("approval", "additive", "xos", "coverage")

    def __init__(self, workdir):
        self.workdir = workdir

    def make_inputs(self, seed):
        rng = instances.rng_from_seed(seed)
        candidates = list(range(self.m))
        inputs = []
        for j in range(self.pool_size):
            kind = self.kinds[j % len(self.kinds)]
            utilities = [instances.random_utility(kind, candidates, rng) for _ in range(self.n)]
            inst = model.Instance(
                candidates,
                utilities,
                k=self.k,
                feasibility=_partition(candidates, 3, 2, self.k),
                validate="trust",
            )
            path = os.path.join(self.workdir, f"elect-{j:03d}.json")
            serialize.save_instance(inst, path)
            inputs.append((kind, path, int(rng.integers(0, 2**31))))
        return inputs

    def prepare(self, inp):
        return inp

    def run(self, arg, inp):
        kind, path, local_seed = inp
        out = os.path.join(self.workdir, "out.json")
        steps = []

        def command(*argv):
            code = cli.run([*argv, "--in", path, "--out" if argv[0] == "solve" else "--report", out])
            if code not in (0, 1):
                raise RuntimeError(f"corelect {' '.join(argv)} exited with {code}")
            with open(out) as fh:
                payload = json.load(fh)
            steps.append({"argv": list(argv), "exit": code, "payload": payload})
            return payload

        def members(payload):
            return ",".join(str(c) for c in payload["committee"])

        winner = members(command("solve", "--method", "global", "--rule", "snw"))
        command("verify", "--notion", "restrained-core", "--gamma", "e^1", "--committee", winner)
        command("verify", "--notion", "core", "--gamma", "1", "--committee", winner)
        rule = "pav" if kind == "approval" else "snw"
        local = members(
            command("solve", "--method", "local", "--rule", rule, "--seed", str(local_seed))
        )
        if kind == "approval":
            command("verify", "--notion", "ejr", "--committee", local)
        else:
            command("verify", "--notion", "restrained-core", "--gamma", "2", "--committee", local)
        return steps

    def check(self, inp, arg, steps):
        kind, path, _ = inp
        inst = serialize.load_instance(path)
        problems = []
        solve_g, rc_e, _, solve_l, last = (s["payload"] for s in steps)
        W_g = frozenset(solve_g["committee"])
        W_l = frozenset(solve_l["committee"])
        if not constraints.is_feasible(inst.feasibility, W_g):
            problems.append(f"Global winner {sorted(W_g)} is infeasible")
        for step, W in ((steps[1], W_g), (steps[2], W_g), (steps[4], W_l)):
            report = step["payload"]
            if step["exit"] != (0 if report["verdict"] == "pass" else 1):
                problems.append(f"{step['argv']}: exit {step['exit']} disagrees with the verdict")
            if report["verdict"] == "fail" and not witness_replays(inst, W, report):
                problems.append(f"{step['argv']}: witness {report.get('witness')} does not replay")
        # verdicts the theorems predict
        if rc_e["verdict"] != "pass":
            problems.append("Global snw fails the restrained core at 2.7182818285")
        if kind in ("approval", "coverage") and last["verdict"] != "pass":
            problems.append(f"Local on {kind} utilities fails {last['notion']}")
        rule = solve_l["score"]["rule"]
        reported = parse_rational(solve_l["score"]["value"])
        problems += local_optimum_problems(inst, rule, W_l, reported)
        return problems

    def digest(self, steps):
        canon = []
        for step in steps:
            payload = dict(step["payload"])
            manifest = dict(payload.pop("manifest"))
            manifest.pop("wall_clock_ms")
            # file names are per run; the content hash of the input is not
            manifest["inputs"] = sorted(manifest["inputs"].values())
            manifest["flags"] = {
                key: os.path.basename(val) if key in ("infile", "out", "report") else val
                for key, val in manifest["flags"].items()
            }
            canon.append([step["argv"], step["exit"], payload, manifest])
        return _digest(canon)


class LocalScale:
    """solve_local alone, at a size Global cannot reach."""

    name = "local-scale"
    pool_size = 320
    bank_size = 64  # voters per kind that the pool's instances draw from
    n, m, k = 16, 32, 8
    kinds = ("approval", "additive", "coverage", "xos")
    rule_of = {"approval": "pav", "additive": "gpav", "coverage": "snw", "xos": "snw"}

    def __init__(self, workdir):
        self.workdir = workdir

    def make_inputs(self, seed):
        rng = instances.rng_from_seed(seed)
        candidates = list(range(self.m))
        family = _partition(candidates, 4, 2, self.k)
        # a bank of voters per kind keeps set-up short while every input
        # is still a distinct instance (its own voters and start)
        bank = {
            kind: [instances.random_utility(kind, candidates, rng) for _ in range(self.bank_size)]
            for kind in self.kinds
        }
        inputs = []
        for j in range(self.pool_size):
            kind = self.kinds[j % len(self.kinds)]
            picks = rng.choice(self.bank_size, size=self.n, replace=False)
            utilities = tuple(bank[kind][int(i)] for i in picks)
            inputs.append((kind, utilities, family, int(rng.integers(0, 2**31))))
        return inputs

    def prepare(self, inp):
        _, utilities, family, _ = inp
        # a fresh Instance per op, so its utility cache starts cold
        return model.Instance(
            list(range(self.m)), utilities, k=self.k, feasibility=family, validate="trust"
        )

    def run(self, inst, inp):
        kind, _, _, start_seed = inp
        return solvers.solve_local(
            inst, self.rule_of[kind], solvers.SolverConfig(seed=start_seed)
        )

    def check(self, inp, inst, result):
        rule = self.rule_of[inp[0]]
        return local_optimum_problems(inst, rule, result.committee.members, result.score.value)

    def digest(self, result):
        return _digest(
            [result.committee.sorted(), str(result.score.value), result.iterations]
        )


class OracleSweep:
    """Axioms, self-bounding constant, sampling bound and lower tail of one
    oracle, evaluated over every subset with no Instance cache in front."""

    name = "oracle-sweep"
    pool_size = 256
    # (kind or lb00 beta, universe size): universes are sized so that every
    # type costs about the same, which keeps the latency distribution
    # unimodal; lb00 universes are the first candidates of gen_lb00(beta, 2)
    types = (
        ("approval", 10), ("additive", 9), ("coverage", 8), ("xos", 8),
        (5, 7), (6, 10), (7, 8),
    )
    trials = 256
    half = Fraction(1, 2)

    def __init__(self, workdir):
        self.workdir = workdir

    def make_inputs(self, seed):
        rng = instances.rng_from_seed(seed)
        inputs = []
        for j in range(self.pool_size):
            kind, m = self.types[j % len(self.types)]
            # lb00: one of voters 0..2, whose two parties are among the first 6 candidates
            pick = int(rng.integers(0, 3)) if isinstance(kind, int) else int(rng.integers(0, 2**31))
            inputs.append((kind, m, pick, int(rng.integers(0, 2**31))))
        return inputs

    def prepare(self, inp):
        kind, m, pick, _ = inp
        universe = list(range(m))
        if isinstance(kind, int):
            return instances.gen_lb00(kind, 2).utilities[pick], universe
        return instances.random_utility(kind, universe, instances.rng_from_seed(pick)), universe

    def run(self, arg, inp):
        u, universe = arg
        axioms = model.check_axioms(u, universe)
        bstar = model.self_bounding_constant(u, universe)
        beta = max(1, exact_ceil(bstar))
        bound = sampling.verify_sampling_bound(u, universe, self.half, beta)
        tail = sampling.mc_lower_tail(
            u, universe, self.half, self.half, self.trials, inp[3], beta=beta
        )
        return axioms, bstar, beta, bound, tail

    def check(self, inp, arg, out):
        axioms, bstar, beta, bound, tail = out
        problems = []
        if not (axioms.ok and axioms.exhaustive):
            problems.append(f"axioms fail: {axioms}")
        if isinstance(inp[0], int) and bstar > inp[0]:
            problems.append(f"lb00 self-bounding constant {bstar} exceeds beta={inp[0]}")
        if not bound:
            problems.append(f"sampling bound fails at beta={beta}")
        if tail.verdict != "pass":
            problems.append(f"lower tail verdict {tail.verdict}")
        return problems

    def digest(self, out):
        axioms, bstar, beta, bound, tail = out
        return _digest(
            [axioms.monotone, axioms.lipschitz, axioms.checked, str(bstar), beta, bound,
             tail.to_json()]
        )


class Lb1Scan:
    """One gamma query of the lb1 emptiness search, over a fixed class count."""

    name = "lb1-scan"
    pool_size = 256
    r = 5
    class_cap = 120
    time_cap_s = 1e9  # never fires: the class cap alone ends an op

    def __init__(self, workdir):
        self.workdir = workdir

    def make_inputs(self, seed):
        rng = instances.rng_from_seed(seed)
        inputs = []
        for _ in range(self.pool_size):
            den = int(rng.integers(5, 201))
            num = int(rng.integers(1, den // 5 + 1))
            inputs.append(1 + Fraction(num, den))  # in (1, 6/5]
        return inputs

    def prepare(self, inp):
        return inp

    def run(self, gamma, inp):
        return lb_search.lb1_emptiness_search(
            self.r, gamma=gamma, time_cap_s=self.time_cap_s, class_cap=self.class_cap
        )

    def check(self, gamma, arg, report):
        if report.result == "counterexample-candidate":
            cert = lb_search.verify_passing_class(self.r, report.passing_class, gamma=gamma)
            return [] if cert["passes"] else [f"passing class {report.passing_class} not certified"]
        if report.classes_checked != self.class_cap:
            return [f"stopped after {report.classes_checked} of {self.class_cap} classes"]
        return []

    def digest(self, report):
        payload = report.to_json()
        payload.pop("elapsed_s")
        return _digest(payload)


class Kernels:
    """One oracle-sweep op followed by one lb1-scan op: the two exact-arithmetic
    kernels behind the paper's bounds.  Every layer that `elect` bypasses
    (raw oracles, sampling, lb_search) works here, so two gated workloads
    cover every layer and each run can be long."""

    name = "kernels"

    def __init__(self, workdir):
        self.workdir = workdir
        self.sweep = OracleSweep(workdir)
        self.scan = Lb1Scan(workdir)

    def make_inputs(self, seed):
        return list(zip(self.sweep.make_inputs(seed), self.scan.make_inputs(seed)))

    def prepare(self, inp):
        return self.sweep.prepare(inp[0]), self.scan.prepare(inp[1])

    def run(self, arg, inp):
        return self.sweep.run(arg[0], inp[0]), self.scan.run(arg[1], inp[1])

    def check(self, inp, arg, out):
        return self.sweep.check(inp[0], arg[0], out[0]) + self.scan.check(inp[1], arg[1], out[1])

    def digest(self, out):
        return _digest([self.sweep.digest(out[0]), self.scan.digest(out[1])])


WORKLOADS = {w.name: w for w in (Elect, LocalScale, OracleSweep, Lb1Scan, Kernels)}
