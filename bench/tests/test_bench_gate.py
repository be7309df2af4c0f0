"""The per-op correctness gate: recorded outputs pass, and a tampered
witness, a non-basis Local committee or a wrong digest counts as failed."""

import dataclasses

import pytest

import run
import workloads


def _all_fail(pool):
    """Does a short untraced run attempt ops and count every one as failed?"""
    _, _, attempted, failed = run.measure(pool, 1e-3)
    return attempted >= 1 and failed == attempted


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_default_seed_reproduces_recorded_digest(name):
    with run.Pool(name, run.DEFAULT_SEED) as pool:
        assert len(pool.expected) == len(pool.inputs)
        _, problems, digest = run.attempt(pool, 1)
        assert problems == []
        assert digest == pool.expected[1]


def test_tampered_witness_counts_as_failed(monkeypatch):
    with run.Pool("elect", run.DEFAULT_SEED) as pool:
        w = pool.workload
        real_run = w.run
        inst = workloads.serialize.load_instance(pool.inputs[0][1])

        def tampered(arg, inp):
            steps = real_run(arg, inp)
            core = steps[2]  # verify --notion core --gamma 1 on the Global winner
            W = steps[0]["payload"]["committee"]
            core["exit"] = 1
            core["payload"]["verdict"] = "fail"
            core["payload"]["witness"] = {"S": list(range(inst.n)), "T": list(W)}
            return steps

        # the witness claims W blocks itself, which the predicate refutes
        monkeypatch.setattr(w, "run", tampered)
        pool.expected = {}  # only the witness replay can catch it
        _, problems, _ = run.attempt(pool, 0)
        assert any("does not replay" in p for p in problems)
        assert _all_fail(pool)


def test_non_basis_local_committee_counts_as_failed(monkeypatch):
    with run.Pool("local-scale", run.DEFAULT_SEED) as pool:
        w = pool.workload
        real_run = w.run

        def tampered(inst, inp):
            result = real_run(inst, inp)
            smaller = sorted(result.committee.members)[1:]
            return dataclasses.replace(result, committee=inst.committee(smaller))

        monkeypatch.setattr(w, "run", tampered)
        pool.expected = {}
        _, problems, _ = run.attempt(pool, 0)
        assert any("not a basis" in p for p in problems)
        assert _all_fail(pool)


def test_wrong_digest_counts_as_failed():
    with run.Pool("lb1-scan", run.DEFAULT_SEED) as pool:
        pool.expected[0] = "0" * 16
        _, problems, _ = run.attempt(pool, 0)
        assert any("differs" in p for p in problems)
        assert _all_fail(pool)


def test_changed_output_on_a_repeated_input_counts_as_failed(monkeypatch):
    with run.Pool("lb1-scan", 11) as pool:
        assert pool.expected == {}
        assert run.attempt(pool, 0)[1] == []
        monkeypatch.setattr(pool.workload, "class_cap", 24)
        _, problems, _ = run.attempt(pool, 0)
        assert any("differs" in p for p in problems)


def test_raising_op_counts_as_failed(monkeypatch):
    with run.Pool("oracle-sweep", 5) as pool:
        def boom(arg, inp):
            raise ArithmeticError("injected")

        monkeypatch.setattr(pool.workload, "run", boom)
        assert _all_fail(pool)
