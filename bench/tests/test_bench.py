"""Tests of the benchmark itself (not of yangsym).

    python3 -m pytest bench/tests -q
"""

import hashlib
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import inputs  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

REFERENCE = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    for n in (11, 12, 34, 100, 170, 408, 1000):
        samples = [float(x) for x in range(n)]
        pct, value = run.tail(samples)
        assert sum(1 for x in samples if x > value) >= 10
        next_rank = -(-(pct + 1) * n // 100)
        assert pct == 99 or n - next_rank < 10
    assert run.tail([1.0] * 10) == (None, None)
    assert run.tail([float(x) for x in range(34)]) == (70, 23.0)


def test_op_latency_is_per_operation_median_over_rounds():
    rounds = [{"keys": ["a", "b", "c"], "ops": [1.0, 2.0, 9.0], "op_scale": [1.0] * 3},
              {"keys": ["c", "a", "b"], "ops": [3.0, 1.0, 2.0], "op_scale": [1.0] * 3},
              {"keys": ["b", "c", "a"], "ops": [4.0, 3.0, 3.0], "op_scale": [0.5] * 3},
              {"keys": ["a"], "ops": [99.0], "op_scale": [1.0]}]
    assert run.op_latencies(rounds, scaled=False) == [1.0, 2.0, 3.0]
    assert run.op_latencies(rounds, scaled=True) == [1.0, 2.0, 3.0]
    rounds[0]["op_scale"] = [3.0, 1.0, 1.0]
    assert run.op_latencies(rounds, scaled=True) == [1.5, 2.0, 3.0]


def test_check_calibrations_match_report_records():
    report = [{"suite": "s", "name": "x", "status": "pass"},
              {"suite": "s", "name": "y", "status": "skipped"},
              {"suite": "t", "name": "x", "status": "fail"}]
    c = run.CALIBRATION_S
    checks = [["s", "x", c], ["t", "x", c / 2]]
    assert run.check_scales(report, checks) == [1.0, 1.0, 2.0]
    assert run.check_scales(report, checks[:1]) is None
    assert run.check_scales(report, checks + [["t", "z", c]]) is None
    assert run.check_scales(report, [["s", "x", c], ["t", "w", c]]) is None


def _hits(requests):
    seen, hits = set(), 0
    for entry in requests:
        hits += entry in seen
        seen.add(entry)
    return hits


def test_same_seed_same_inputs_new_seed_same_shape():
    pool = list(REFERENCE["straighten"])
    assert inputs.compute_requests(5) == inputs.compute_requests(5)
    assert inputs.straighten_batch(5, pool) == inputs.straighten_batch(5, pool)
    assert inputs.verify_args(5) == inputs.verify_args(5)

    a, b = inputs.compute_requests(5), inputs.compute_requests(6)
    assert a != b
    assert sorted(a) == sorted(b) == sorted(list(range(len(inputs.COMPUTE_CATALOG))) * 2)
    assert _hits(a) * 2 == len(a) and _hits(b) * 2 == len(b)

    wa, wb = inputs.straighten_batch(5, pool), inputs.straighten_batch(6, pool)
    assert wa != wb and sorted(wa) == sorted(wb) == sorted(pool)
    assert inputs.straighten_batch(5, pool, 1) == inputs.straighten_batch(5, pool, 1)
    assert inputs.straighten_batch(5, pool, 2) != wa
    ladder = len(inputs.LADDER)
    assert inputs.straighten_batch(5, pool, 1)[ladder:] == wa[ladder:][::-1]
    assert wa[:len(inputs.LADDER)] == wb[:len(inputs.LADDER)] == list(inputs.LADDER)
    assert set(inputs.LADDER) <= set(wa)
    assert sum(w.startswith("gl3:") for w in wa) == inputs.GL3_WORDS
    assert sum(w.startswith("y3:") for w in wa) == inputs.Y3_WORDS

    for seed in range(20):
        assert str(inputs.verify_seed(seed)) in REFERENCE["verify"]
    assert inputs.verify_args(5)[:-1] == inputs.verify_args(6)[:-1]


def _proc(stdout, code=0):
    return {"code": code, "stdout": stdout}


def test_wrong_compute_output_counts_as_failure():
    ref = {inputs.COMPUTE_CATALOG[0]: hashlib.sha256(b"A\n").hexdigest(),
           inputs.COMPUTE_CATALOG[1]: hashlib.sha256(b"B\n").hexdigest()}
    good = [_proc(b"A\n"), _proc(b"B\n"), _proc(b"A\n"), _proc(b"B\n")]
    rnd = {"requests": [0, 1, 0, 1], "procs": good}
    assert run.score_compute(rnd, ref) == (4, 0)
    rnd["procs"] = good[:3] + [_proc(b"B \n")]
    assert run.score_compute(rnd, ref) == (4, 1)
    rnd["procs"] = [_proc(b"A\n", code=1)] + good[1:]
    assert run.score_compute(rnd, ref) == (4, 1)


def test_wrong_normal_form_and_report_count_as_failures():
    words = list(inputs.LADDER[:3])
    rnd = run.straighten_round(words, run.fresh_dir(run.OUT / "test"), "s")
    ref = dict(REFERENCE["straighten"])
    assert run.score_straighten(rnd, ref) == (3, 0)
    ref[words[1]] = "0" * 64
    assert run.score_straighten(rnd, ref) == (3, 1)

    report = [{"status": "pass", "wall_time": 0.5, "name": "x", "suite": "s"},
              {"status": "pass", "wall_time": 0.1, "name": "y", "suite": "s"}]
    expected = {"digest": run.report_digest(report), "checks": 2}
    assert run.score_verify({"code": 0, "report": report}, expected) == (2, 0)
    report[1]["wall_time"] = 9.0
    report[1]["stats"] = {"memo_words": 12}
    assert run.score_verify({"code": 0, "report": report}, expected) == (2, 0)
    report[1]["status"] = "skipped"
    assert run.score_verify({"code": 0, "report": report}, expected) == (2, 2)


def test_self_time_on_nested_and_recursive_spans():
    names = ["suites.newton", "pbw.normal_word", "series.mul"]
    # newton [0,10] > normal_word [1,4] > normal_word [2,3];  newton > series.mul [5,9]
    name, parent = [0, 1, 1, 2], [-1, 0, 1, 0]
    start, end = [0.0, 1.0, 2.0, 5.0], [10.0, 4.0, 3.0, 9.0]
    s = tracer.summarize(names, name, parent, start, end)
    assert s["suites.newton"]["self_s"] == 10 - 3 - 4
    assert s["pbw.normal_word"]["calls"] == 2
    assert s["pbw.normal_word"]["self_s"] == (3 - 1) + 1
    assert s["pbw.normal_word"]["incl_s"] == 3
    assert s["series.mul"]["self_s"] == 4
    assert s["suites.newton"]["incl_s"] == 10


def test_recorded_recursion_has_parents_and_counts_once():
    t = tracer.Tracer()

    def depth(k):
        return 0 if k == 0 else 1 + traced(k - 1)

    traced = t.wrap("pbw.normal_word", depth)
    assert traced(3) == 3
    assert list(t.parent) == [-1, 0, 1, 2]
    s = tracer.summarize(t.names, t.name, t.parent, t.start, t.end)["pbw.normal_word"]
    assert s["calls"] == 4
    assert abs(s["incl_s"] - (t.end[0] - t.start[0])) < 1e-12
    assert abs(s["self_s"] - s["incl_s"]) < 1e-9


def test_layer_isolation():
    work = run.fresh_dir(run.OUT / "test")
    words = inputs.straighten_batch(1, REFERENCE["straighten"])[:20]
    rounds = {
        "straighten": run.straighten_round(words, work, "s", trace=True),
        "compute": run.compute_round([0, 0], work, "c", trace=True),
        "verify": run.verify_round(
            ["verify", "schur", "--n", "2", "--order", "3", "--format", "json"],
            work, "v", trace=True),
    }
    layers = {}
    for w, rnd in rounds.items():
        layers[w], missing = run.round_layers(rnd)
        assert not missing
    idle = [m for m, _, _ in tracer.LAYER_METRICS
            if m.split(".")[0] in ("tensor", "series", "tau", "symfun")]
    assert all(layers["straighten"][m] == 0 for m in idle)
    assert layers["straighten"]["pbw.normal_word.calls"] > 0
    cache = [m for m, _, _ in tracer.LAYER_METRICS if m.startswith("cache.")]
    assert all(layers[w][m] == 0 for w in ("straighten", "verify") for m in cache)
    assert layers["compute"]["cache.hit_ratio"] == 0.5
    assert layers["compute"]["cache.get.s"] > 0 and layers["compute"]["cache.put.s"] > 0
    assert layers["verify"]["suites.schur.s"] > 0


def test_compare_refuses_other_backend(tmp_path):
    a = {"env": {"python": "3.11.7", "rational_backend": "fractions.Fraction"},
         "end_to_end": {"wall_s": 1.0}}
    b = {"env": {"python": "3.11.7", "rational_backend": "gmpy2.mpq"},
         "end_to_end": {"wall_s": 0.5}}
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    pa.write_text(json.dumps(a))
    pb.write_text(json.dumps(b))
    assert run.compare(pa, pb) == 2
    b["env"]["rational_backend"] = "fractions.Fraction"
    pb.write_text(json.dumps(b))
    assert run.compare(pa, pb) == 0


def test_benchmark_json_lists_the_metrics_the_runs_print():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        list(tracer.LAYER_METRICS)
