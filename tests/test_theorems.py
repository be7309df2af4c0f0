"""Fast sanity passes over every theorem suite (full counts run in the
acceptance module)."""

import math

import pytest

import corelect.theorems as theorems
from corelect.cli import run
from corelect.lb_search import lb1_emptiness_search
from corelect.theorems import (
    run_ejr,
    run_endow2_bound,
    run_lb00,
    run_lb1_lemma_deviations,
    run_lb1_points,
    run_lemma_2abc,
    run_lemma_mat_delta,
    run_lemma_mat_nabla,
    run_lemma_nabla,
    run_lemma_m2,
    run_lemma_smoothed_log,
    run_main1,
    run_matroid,
    run_sampling_bound,
    run_tail,
    run_tight_lower,
    run_tight_upper,
)


def test_main1_small():
    r = run_main1(15)
    assert r.passed and r.total == 15


def test_matroid_small():
    r = run_matroid(8)
    assert r.passed and r.total == 40  # 8 instances x 5 starts


def test_ejr_small():
    r = run_ejr(15)
    assert r.passed


def test_tight_upper_small():
    r = run_tight_upper(10)
    assert r.passed and r.total == 30  # three alphas per instance


def test_tight_lower():
    r = run_tight_lower()
    assert r.passed and r.total == 3


def test_lb1_points_small():
    r = run_lb1_points(10, r=40)
    assert r.passed and r.total == 40


def test_lb1_lemma_deviations_small():
    r = run_lb1_lemma_deviations(r=40, trials=5)
    assert r.passed and r.total == 10


def test_lb00_small_r():
    r = run_lb00(beta=6, rs=(2,))
    assert r.passed
    assert r.notes[0].endswith("ratio bound without slack 32/27")


def test_lb00_odd_beta_compares_in_the_utilities_field(tmp_path):
    # the ratio bound 1/(2z) is a Quad over (3/4)^beta, as the utilities
    # are; a Quad over (4/3)^beta cannot be compared with them
    reports = {beta: run_lb00(beta=beta, rs=(2,)) for beta in (5, 7)}
    for rep in reports.values():
        assert rep.passed and rep.total == 143
    # odd-beta notes print each Quad as a + b*sqrt(d) with its decimal value
    assert reports[5].notes[0] == (
        "r=2: every size-3r committee blocked at gamma <= -31744/28310591"
        " + 33554432/84931773*sqrt(243/1024) (~0.191335) (+1 slack included);"
        " ratio bound without slack 512/243*sqrt(243/1024) (~1.0264)"
    )
    out = tmp_path / "lb00.json"
    assert run(["theorem-suite", "--name", "lb00", "--beta", "5", "--out", str(out)]) == 0


def test_lemma_suites_small():
    for runner in (
        run_lemma_smoothed_log,
        run_lemma_nabla,
        run_lemma_2abc,
        run_lemma_mat_nabla,
        run_lemma_mat_delta,
        run_lemma_m2,
    ):
        r = runner(25)
        assert r.passed, r.failures[:2]


def test_sampling_bound_small():
    r = run_sampling_bound(20)
    assert r.passed


def test_tail_small():
    r = run_tail(trials=5000)
    assert r.passed


def test_endow2_bound_suite():
    r = run_endow2_bound()
    assert r.passed and r.total == 5


def test_lb1_emptiness_capped_run():
    # a class cap, not the wall clock, ends the scan well before class 32,679
    rep = lb1_emptiness_search(5, time_cap_s=math.inf, class_cap=2_000)
    assert rep.result == "cap-exceeded"
    assert rep.classes_checked == 2_000
    assert rep.classes_total == 1_947_792


def test_lemma_mat_delta_case_stream_is_pinned(monkeypatch):
    # the coalition S of each case comes from the doubling test
    # u_i(T + W) >= 2 (u_i(W) + 1); the sizes |S| pin which seeds become cases
    import corelect.theorems as theorems

    sizes = []
    certify = theorems.certified_log_gt
    monkeypatch.setattr(
        theorems, "certified_log_gt", lambda x, n: sizes.append(n) or certify(x, n)
    )
    result = run_lemma_mat_delta(30)
    assert result.passed and result.total == 30
    assert sizes == [2, 1, 1, 2, 3, 1, 1, 2, 1, 2, 2, 1, 1, 2, 1, 2, 3, 1, 4, 2, 1, 3, 4, 1, 2, 4, 2, 4, 4, 2]


# the seeds each rejection-sampling suite accepts at count 30, recorded
# before the suites shared one sampling helper; smoothed-log counts a case
# with u(W) = u(W - j) but records no check for it
ACCEPTED_SEEDS = {
    "smoothed_log": [
        7000, 7001, 7002, 7003, 7004, 7005, 7006, 7007, 7008, 7009,
        7010, 7012, 7013, 7014, 7016, 7018, 7019, 7020, 7021, 7022,
        7023, 7024, 7025, 7026, 7028, 7029, 7030, 7031, 7032, 7033,
    ],
    "mat_delta": [
        7400, 7401, 7402, 7403, 7404, 7407, 7410, 7412, 7416, 7417,
        7418, 7422, 7425, 7431, 7438, 7440, 7441, 7443, 7447, 7450,
        7453, 7455, 7461, 7462, 7466, 7467, 7468, 7471, 7472, 7473,
    ],
    "m2": [
        7500, 7501, 7502, 7503, 7505, 7507, 7508, 7509, 7510, 7511,
        7512, 7513, 7514, 7515, 7516, 7517, 7519, 7520, 7521, 7523,
        7524, 7527, 7528, 7529, 7530, 7531, 7532, 7533, 7534, 7535,
    ],
}
SMOOTHED_LOG_UNRECORDED = [7002, 7005, 7006, 7019, 7022, 7024, 7028, 7029, 7030, 7032]


@pytest.mark.parametrize("name", sorted(ACCEPTED_SEEDS))
def test_lemma_case_streams_are_pinned(monkeypatch, name):
    # every seed is drawn in order up to the last accepted one, and each
    # recorded check names its seed
    drawn, recorded = [], []
    rng_from_seed, record = theorems.rng_from_seed, theorems.SuiteResult.record
    monkeypatch.setattr(theorems, "rng_from_seed", lambda s: drawn.append(s) or rng_from_seed(s))

    def recording(self, ok, detail):
        recorded.append(int(detail.split(":")[0].removeprefix("seed ")))
        record(self, ok, detail)

    monkeypatch.setattr(theorems.SuiteResult, "record", recording)
    result = getattr(theorems, f"run_lemma_{name}")(30)
    accepted = ACCEPTED_SEEDS[name]
    assert result.passed and result.total == 30
    assert drawn == list(range(accepted[0], accepted[-1] + 1))
    unrecorded = SMOOTHED_LOG_UNRECORDED if name == "smoothed_log" else []
    assert recorded == [seed for seed in accepted if seed not in unrecorded]
