"""The tracer wraps every reference to a traced function and nothing else,
restores the originals, and counts what the program reports about itself."""

import importlib
import pkgutil
import sys

import corelect
import pytest
from corelect.instances import random_instance

import run
import workloads
from tracer import Tracer, function_targets, method_targets

for _info in pkgutil.iter_modules(corelect.__path__):
    importlib.import_module("corelect." + _info.name)


def _originals():
    return [fn for fn, *_ in function_targets()] + [
        vars(cls)[attr] for cls, attr, _ in method_targets()
    ]


def _namespaces():
    """corelect's module namespaces and the classes they define, plus the
    benchmark's workload module."""
    out = [workloads]
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "corelect" or name.startswith("corelect.")):
            continue
        out.append(mod)
        out.extend(
            val for val in vars(mod).values()
            if isinstance(val, type) and val.__module__ == name
        )
    return out


def _references(objects):
    """(owner, attribute) -> value for every attribute holding one of objects."""
    ids = {id(o) for o in objects}
    return {
        (owner, attr): val
        for owner in _namespaces()
        for attr, val in list(vars(owner).items())
        if id(val) in ids
    }


def _traced_attributes():
    return [
        (owner, attr)
        for owner in _namespaces()
        for attr, val in list(vars(owner).items())
        if getattr(val, "bench_traced", False)
    ]


def test_install_leaves_no_unwrapped_original_and_uninstall_restores():
    originals = _originals()
    before = _references(originals)
    # import-time bindings in other modules are second references
    assert (corelect.solvers, "score") in before
    assert (corelect.cli, "solve_global") in before
    assert (corelect, "solve_local") in before
    tracer = Tracer()
    tracer.install()
    try:
        assert _references(originals) == {}
        assert corelect.solvers.score.bench_traced
        assert corelect.cli.solve_global.bench_traced
        assert corelect.model.Instance.utility.bench_traced
        assert corelect.model.XOSUtility.value.bench_traced
        assert corelect.constraints.PartitionMatroidFamily.independent.bench_traced
        assert len(_traced_attributes()) >= len(before)
    finally:
        tracer.uninstall()
    assert _references(originals) == before
    assert _traced_attributes() == []


@pytest.mark.parametrize("traced", [False, True])
def test_runs_leave_every_original_in_place(traced):
    originals = _originals()
    before = _references(originals)
    with run.Pool("lb1-scan", 7) as pool:
        plain, traced_lat, attempted, failed = run.measure(
            pool, 1e-3, Tracer() if traced else None
        )
    assert failed == 0 and attempted == (2 if traced else 1)
    assert len(traced_lat) == (1 if traced else 0)
    assert _references(originals) == before
    assert _traced_attributes() == []


def test_global_score_calls_equal_reported_iterations():
    inst = random_instance(
        5, n_max=4, m_max=8, k_max=3, constraint_kinds=("partition",)
    )
    tracer = Tracer()
    tracer.install()
    try:
        result = corelect.solvers.solve_global(inst, "snw")
    finally:
        tracer.uninstall()
    under_global = tracer.hot_totals("solvers.global")["scoring.score.snw"][0]
    assert under_global == result.iterations > 0
    assert tracer.layer_metrics()["solvers.global_committees"][0] == result.iterations


def test_lb1_classes_equal_classes_checked():
    tracer = Tracer()
    tracer.install()
    try:
        report = corelect.lb_search.lb1_emptiness_search(5, class_cap=25)
    finally:
        tracer.uninstall()
    assert report.classes_checked == 25
    assert tracer.layer_metrics()["lb_search.classes"][0] == report.classes_checked


def test_cli_spans_nest_and_self_time_excludes_children(tmp_path):
    inst = random_instance(3, n_max=3, m_max=6, k_max=2)
    path = tmp_path / "inst.json"
    corelect.serialize.save_instance(inst, path)
    tracer = Tracer()
    tracer.op_id = 42
    tracer.install()
    try:
        code = corelect.cli.run(
            ["solve", "--method", "global", "--rule", "snw", "--in", str(path),
             "--out", str(tmp_path / "out.json")]
        )
    finally:
        tracer.uninstall()
    assert code == 0
    names = [s[0] for s in tracer.spans]
    assert names == ["cli.run", "serialize.load", "solvers.global", "serialize.dump"]
    assert all(s[1] == 42 for s in tracer.spans)
    assert [s[4] for s in tracer.spans] == [-1, 0, 0, 0]
    totals = tracer.span_totals()
    _, incl, own = totals["cli.run"]
    children = sum(totals[n][1] for n in names[1:])
    assert own == pytest.approx(incl - children)
    metrics = tracer.layer_metrics()
    assert metrics["cli.commands"][0] == 1
    assert metrics["serialize.load_calls"][0] == 1
