"""Tests of the benchmark's own logic: percentiles, self time, input digests
and the reference checks.  Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

import math
import os
import sys
from collections import Counter

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.dirname(HERE), os.path.join(HERE, "..", "..", "src")]

import benchstats  # noqa: E402
import inputs  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import wl_cli  # noqa: E402
import wl_cyclic  # noqa: E402
import wl_fusion  # noqa: E402
import worker  # noqa: E402
from workload import Op, fingerprint, judge  # noqa: E402


# ---- percentiles -----------------------------------------------------------


def test_beta_cdf_matches_the_binomial_sum_for_integer_parameters():
    # I_x(a, b) = sum_{j=a}^{a+b-1} C(a+b-1, j) x^j (1-x)^(a+b-1-j)
    for a, b, x in ((2, 3, 0.4), (5, 1, 0.9), (30, 70, 0.25), (90, 11, 0.95)):
        m = a + b - 1
        expected = sum(math.comb(m, j) * x**j * (1 - x) ** (m - j) for j in range(a, m + 1))
        assert benchstats.beta_cdf(x, a, b) == pytest.approx(expected, rel=1e-9, abs=1e-12)


def test_harrell_davis_percentile_of_evenly_spaced_values():
    values = list(range(100, 0, -1))  # order must not matter
    assert benchstats.percentile(values, 50) == pytest.approx(50.5)
    assert 90.0 < benchstats.percentile(values, 90) < 92.0
    assert benchstats.percentile([4.0] * 7, 90) == pytest.approx(4.0)
    assert benchstats.samples_beyond(100, 90) == 10


def test_percentile_moves_smoothly_across_a_gap_between_clusters():
    low, high = [1.0] * 60, [100.0] * 60
    before = benchstats.percentile(low + high, 50)
    after = benchstats.percentile(low[1:] + high + [100.0], 50)
    assert before == pytest.approx(50.5)
    assert 0 < after - before < 10  # one sample crossing the gap moves it a little


def test_percentile_rejects_empty_samples_and_bad_ranks():
    with pytest.raises(ValueError):
        benchstats.percentile([], 50)
    with pytest.raises(ValueError):
        benchstats.percentile([1.0], 0)
    with pytest.raises(ValueError):
        benchstats.percentile([1.0], 100)


def test_median_of_odd_and_even_samples():
    assert benchstats.median([3, 1, 2]) == 2
    assert benchstats.median([4, 1, 3, 2]) == 2.5


# ---- self time -------------------------------------------------------------


def span(name, parent, start, end, op=0, raised=False, failed=False, size=None):
    record = [name, parent, op, "n" if size else None, size, start, end, raised, failed, 0, 0.0]
    assert record[tracing.START] == start and record[tracing.END] == end
    return record


def test_self_time_subtracts_direct_children_only():
    spans = [
        span("cyclic.classify", None, 0.0, 10.0),
        span("numthy.unit_square_orbits", 0, 1.0, 7.0),
        span("numthy.units", 1, 2.0, 5.0),
        span("cyclic.canonical_invariant", 0, 8.0, 9.0),
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 3.0, 3.0, 1.0])


def test_self_time_counts_overlapping_children_once_and_clips_to_parent():
    spans = [
        span("a.parent", None, 0.0, 10.0),
        span("a.child", 0, 2.0, 6.0),
        span("a.child", 0, 4.0, 8.0),  # overlaps the first child
        span("a.child", 0, 9.0, 12.0),  # runs past the parent's end
    ]
    assert tracing.self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_layer_metrics_sum_self_time_and_count_failures_per_layer():
    spans = [
        span("cyclic.verify_balancing", None, 0.0, 4.0, failed=True, size=10),
        span("numthy.factorize", 0, 1.0, 2.0),
        span("cyclic.build_cyclic", None, 5.0, 6.0, op=1, raised=True, size=4),
        span("cyclic.classify", None, 7.0, 8.0, op=None),  # outside any operation
    ]
    m = tracing.layer_metrics(spans, (3, 1))
    assert m["cyclic.self_s"] == pytest.approx(4.0)
    assert m["numthy.self_s"] == pytest.approx(1.0)
    assert m["cyclic.verify_balancing.self_s"] == pytest.approx(3.0)
    assert m["numthy.factorize.calls"] == 1
    assert "cyclic.classify.calls" not in m
    assert (m["cyclic.raised"], m["cyclic.failed_reports"]) == (1, 1)
    assert m["cyclic.verify_balancing.pairs"] == 100
    assert m["metaplectic.so_n2_fusion.cache_hit_ratio"] == pytest.approx(0.75)
    assert m["metaplectic.so_n2_fusion.cache_lookups"] == 4
    assert tracing.top_level_time(spans, 2) == pytest.approx([4.0, 1.0])


def test_an_op_fails_when_its_spans_leave_much_of_its_latency_uncovered():
    assert worker.coverage_error(0.100, 0.095) is None
    assert "less than 50%" in worker.coverage_error(0.100, 0.010)
    # Ops of a few microseconds are spared: the wrapper's own cost dominates them.
    assert worker.coverage_error(50e-6, 20e-6) is None


def test_cpu_picker_keeps_the_process_on_one_allowed_cpu_and_its_probe_time():
    allowed = os.sched_getaffinity(0)
    picker = worker.CpuPicker()
    try:
        picker.pick()
        picker.pick()  # within PICK_INTERVAL_S of the first: no second probe
        now = os.sched_getaffinity(0)
        assert now <= allowed and len(now) == 1
    finally:
        os.sched_setaffinity(0, allowed)
    assert len(picker.probes) == 1 and picker.probes[0] > 0


def test_times_scale_to_the_reference_speed():
    # Measured while the probe ran twice as slow as the reference: half the time.
    assert worker.at_reference_speed(0.8, 2 * worker.REFERENCE_PROBE_S) == pytest.approx(0.4)
    assert worker.at_reference_speed(0.8, worker.REFERENCE_PROBE_S) == pytest.approx(0.8)


def test_idle_layers_may_read_zero_but_predicted_metrics_are_required():
    spec = {"end_to_end": [{"name": "setup_s"}, {"name": "ops_per_s"}]}
    assert run.required_metrics("cli_sessions", 0, spec) == {"setup_s", "ops_per_s"}
    cyclic = run.required_metrics("cyclic_queries", 1, spec)
    assert "numthy.factorize.calls" in cyclic and "cyclic.classify.self_s" in cyclic
    assert not any(name.startswith(("fusion.", "metaplectic.", "cli.")) for name in cyclic)
    assert "cli.import_s" in run.required_metrics("cli_sessions", 1, spec)


def test_tracer_nests_internal_calls_and_keeps_results():
    from modcat import cyclic

    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.op = 0
        reps = cyclic.classify(15)
        with pytest.raises(cyclic.UnsupportedModulusError):
            cyclic.build_cyclic(4, 1)
    finally:
        tracer.uninstall()
    assert reps == [1, 2, 7, 11]
    names = [s[tracing.NAME] for s in tracer.spans]
    assert names[0] == "cyclic.classify"
    orbit = names.index("numthy.unit_square_orbits")
    assert tracer.spans[orbit][tracing.PARENT] == 0
    assert tracer.spans[orbit][tracing.SIZE] == 15
    assert tracer.spans[-1][tracing.NAME] == "cyclic.build_cyclic"
    assert tracer.spans[-1][tracing.RAISED]
    assert cyclic.classify is tracer.originals["cyclic.classify"]


# ---- inputs ----------------------------------------------------------------


@pytest.mark.parametrize("module", [wl_cyclic, wl_fusion, wl_cli])
def test_plan_digest_is_a_function_of_the_seed(module):
    first = inputs.digest(module.plan(7, blocks=6))
    assert first == inputs.digest(module.plan(7, blocks=6))
    assert first != inputs.digest(module.plan(8, blocks=6))


@pytest.mark.parametrize("module, keys", [(wl_cyclic, ("op", "n")),
                                          (wl_fusion, ("family", "n", "call", "gen"))])
def test_sizes_are_the_same_for_every_seed(module, keys):
    def sizes(seed):
        return Counter(tuple(spec.get(key) for key in keys) for spec in module.plan(seed, blocks=6)
                       if spec.get("op") not in ("condense_subgroup", "sqrt_mod_prime_power"))

    assert sizes(7) == sizes(8)


def test_digest_changes_with_any_input():
    plan = [{"op": "classify", "n": 101}]
    assert inputs.digest(plan) != inputs.digest([{"op": "classify", "n": 103}])
    assert inputs.digest(plan) == inputs.digest([{"n": 101, "op": "classify"}])


def test_every_prefix_of_aligned_draws_covers_each_stratum_once():
    import random

    strata = inputs.Strata(random.Random(1))
    draws = [strata.next() for _ in range(inputs.STRATA)]
    assert sorted(int(u * inputs.STRATA) for u in draws) == list(range(inputs.STRATA))
    first_eight = sorted(int(u * 8) for u in draws[:8])
    assert first_eight == list(range(8))


def test_log_uniform_odd_stays_odd_and_in_range():
    for u in (0.0, 0.3, 0.999999):
        n = inputs.log_uniform_odd(u, 101, 3003)
        assert n % 2 == 1 and 101 <= n <= 3003


def test_fingerprint_ignores_float_noise_but_not_values():
    assert fingerprint([1.0, 2.0 + 1e-13]) == fingerprint([1.0, 2.0])
    assert fingerprint([1.0, 2.0]) != fingerprint([1.0, 2.1])
    assert fingerprint((1e-15, 3)) == fingerprint((0.0, 3))


# ---- reference checks ------------------------------------------------------


def test_oracle_number_theory_agrees_with_brute_force():
    for n in range(3, 400, 2):
        assert [p**e for p, e in oracle.factor(n)] and oracle.is_prime(n) == (
            all(n % d for d in range(2, n)))
        step = oracle.boson_step(n)
        assert [j for j in range(n) if j * j % n == 0] == list(range(0, n, step))
    for p, e in ((3, 1), (3, 3), (5, 2), (7, 2), (11, 1)):
        pe = p**e
        for a in range(pe):
            assert oracle.sqrt_exists(a, p, e) == any(j * j % pe == a for j in range(pe))


def test_judge_requires_the_stated_refusal_and_a_passing_check():
    ok = Op("x", 1, lambda: 1, lambda r: None if r == 1 else "wrong")
    assert judge(ok, 1, None) is None
    assert judge(ok, 2, None) == "wrong"
    assert judge(ok, None, ValueError("boom")).startswith("raised ValueError")
    refuse = Op("x", 1, lambda: 1, refusal=KeyError)
    assert judge(refuse, None, KeyError("k")) is None
    assert judge(refuse, 1, None) == "expected a refusal, got a result"
    broken = Op("x", 1, lambda: 1, lambda r: r.missing)
    assert judge(broken, 1, None).startswith("output check raised")


def test_cyclic_checks_reject_wrong_answers():
    assert wl_cyclic._check_classify(15)([1, 2, 7, 11]) is None
    assert wl_cyclic._check_classify(15)([1, 2, 7]) is not None
    assert wl_cyclic._check_autos(15)([1, 4, 11, 14]) is None
    assert wl_cyclic._check_autos(15)([1, 14]) is not None
    assert wl_cyclic._check_sqrt(4, 5, 1)(2) is None
    assert wl_cyclic._check_sqrt(2, 5, 1)(None) is None
    assert wl_cyclic._check_sqrt(4, 5, 1)(None) is not None


@pytest.mark.parametrize("axiom", wl_fusion.AXIOMS)
@pytest.mark.parametrize("family,n", [("so", 9), ("dihedral", 7), ("pointed", 5)])
def test_every_corruption_breaks_its_axiom_with_a_checkable_witness(axiom, family, n):
    import random

    from modcat import fusion

    at = wl_fusion.corruption_site(random.Random(3), family, n, axiom)
    ring = wl_fusion.corrupted_ring({"family": family, "n": n, "corrupt": axiom, "at": at})
    found = fusion.verify_fusion_ring(ring).check(axiom)
    assert not found.passed
    assert wl_fusion.witness_holds(ring.coeffs, ring.rank, ring.dual, axiom, found.witness)
