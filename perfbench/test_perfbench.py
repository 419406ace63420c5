"""The benchmark's own test: wrong expectations must register as failures,
and the tracer's arithmetic must be exact.

Run from the root of a checkout:  python3 -m pytest perfbench -q
"""

import json
from itertools import combinations
from pathlib import Path

import pytest

import run

cli = run._import_program()     # puts the checkout's src/ on the import path
import tracing  # noqa: E402
import workloads  # noqa: E402
from ovalbent import geometry  # noqa: E402


@pytest.fixture(scope="module")
def ovals_ops(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("ovals")
    ops, probes = workloads.generate("ovals", 5, workdir)
    return ops, probes


def test_generation_is_seeded(tmp_path):
    def gen(seed, d):
        (tmp_path / d).mkdir()
        ops, probes = workloads.generate("spreads", seed, tmp_path / d)
        files = sorted(f.read_text() for f in (tmp_path / d).iterdir())
        return [[v.replace(str(tmp_path / d), "") for v in op.argv]
                for op in ops + probes], files

    assert gen(3, "a") == gen(3, "b")
    assert gen(3, "a2") != gen(4, "c")


def test_non_oval_checks(ovals_ops):
    ops, _ = ovals_ops
    rejects = [op for op in ops if op.expect == "reject"]
    assert rejects
    for op in rejects[:2]:
        res, *_ = run.run_op(cli, op)
        assert op.check(res) is None
        # the same outcome under an accept expectation must fail
        m = int(op.argv[op.argv.index("--m") + 1])
        wrong = workloads.accept_oval_verify((1 << m) + 2, 0)
        assert wrong(res) is not None


def test_witness_recheck_catches_a_non_collinear_triple(ovals_ops):
    ops, _ = ovals_ops
    op = next(op for op in ops if op.expect == "reject")
    res, *_ = run.run_op(cli, op)
    m = int(op.argv[op.argv.index("--m") + 1])
    report = json.loads(res.stdout)
    a, b, c = report["witnesses"]["collinear_triple"]
    assert workloads.collinear(m, a, b, c)
    _, oval = geometry.oval_from_json(Path(op.argv[-1]).read_text())
    # swap the last witness point for a point of the set off the line ab
    report["witnesses"]["collinear_triple"][2] = next(
        v for v in sorted(oval.points)
        if v not in (a, b, c) and not workloads.collinear(m, a, b, v))
    forged = workloads.Result(1, json.dumps(report), "")
    assert "not collinear" in op.check(forged)


def test_probe_expectations():
    probe_check = workloads.probe(workloads.accept_niho(4))
    assert probe_check(workloads.Result(2, "", "")) is None
    assert probe_check(workloads.Result(None, "", "", "IndexError()")) is not None
    assert probe_check(workloads.Result(1, "{}", "")) is not None
    op = workloads.Op(("--seed", "0", "niho", "--family", "quadratic", "--m", "4",
                       "--a-index", "999"), "probe", workloads.accept_niho(4))
    res, *_ = run.run_op(cli, op)
    # expecting exit 0 with verified verdicts on an out-of-range index fails
    assert op.check(res) is not None


def test_stdout_mismatch_counts_as_failure():
    op = workloads.Op(("--seed", "0", "x"), "accept", lambda res: None)
    passes = []
    for text in ("a", "a", "b"):
        p = run.Pass()
        p.results = [[workloads.Result(0, text, "")]]
        passes.append(p)
    failed, failed_probes, lines = run.check_passes([op], [], passes)
    assert (failed, failed_probes) == (1, 0)
    assert "differs" in lines[0]


def test_self_time_is_exact_on_a_synthetic_tree():
    t = tracing.Tracer()
    #           name       start end  parent phase cmd extra work key
    t.spans = [["cli.main", 0, 1000, -1, 0, "0:0", 7, None, None],
               ["niho.a", 100, 400, 0, 0, "0:0", 0, None, None],
               ["kernels.k", 150, 250, 1, 0, "0:0", 0, 5, None],
               ["kernels.k", 260, 300, 1, 0, "0:0", 0, 6, None],
               ["niho.a", 500, 900, 0, 0, "0:0", 0, None, None],
               ["cli.main", 2000, 2500, -1, 1, "1:0", 0, None, None]]
    assert t.self_ns() == [1000 - 7 - 300 - 400, 300 - 100 - 40, 100, 40, 400, 500]
    m = t.metrics({0})
    assert m["cli.self_s"] == 293 / 1e9
    assert m["niho.self_s"] == (160 + 400) / 1e9
    assert m["kernels.self_s"] == 140 / 1e9
    assert m["kernels.calls"] == 2 and m["cli.calls"] == 1


def test_scan_work_counts_triples_in_lex_order():
    import numpy as np
    n = 9
    order = list(combinations(range(n), 3))
    for idx, triple in enumerate(order):
        assert tracing._scan_work((np.zeros(n),), {}, triple) == idx + 1
    assert tracing._scan_work((np.zeros(n),), {}, (-1, -1, -1)) == len(order)


def test_tracer_wraps_and_restores(tmp_path):
    before = (cli.main, cli.field_make, tracing.importlib.import_module(
        "ovalbent.kernels").walsh_inplace)
    t = tracing.Tracer()
    t.install()
    try:
        t.phase = 0
        op = workloads.Op(("--seed", "0", "niho", "--family", "quadratic", "--m", "3"),
                          "accept", workloads.accept_niho(3))
        res, *_ = run.run_op(cli, op, t, "0:0")
        t.phase = None
    finally:
        t.uninstall()
    assert op.check(res) is None
    assert before == (cli.main, cli.field_make, tracing.importlib.import_module(
        "ovalbent.kernels").walsh_inplace)
    m = t.metrics({0})
    assert set(m) == set(tracing.metric_names())
    assert m["boolfn.walsh_transform.calls"] == 3
    assert m["boolfn.walsh_transform.per_table"] == 3.0
    assert m["boolfn.walsh_transform.points"] == 3 * 64
    assert m["kernels.walsh_inplace.work"] == 3 * 6 * 64
    assert m["spread.calls"] == 0 and m["spreadbent.calls"] == 0
    # the root span covers all self time, up to the bookkeeping excluded
    root = t.spans[0]
    total = sum(t.self_ns()) + sum(s[tracing.EXTRA_NS] for s in t.spans)
    assert total == root[tracing.END] - root[tracing.START]


def test_speed_scaling_removes_the_reference_loops_and_rescales():
    import speed
    probe = speed.SpeedProbe()
    # a machine at half the nominal speed, sampled at t = 0, 1, 2, 3
    probe.starts = [0.0, 1.0, 2.0, 3.0]
    probe.durations = [2 * speed.NOMINAL] * 4
    own = 2 * speed.NOMINAL * 2          # the samples at t = 1 and t = 2
    assert probe.scaled(0.5, 2.5, 1.0) == pytest.approx((2.0 - own) / 2, rel=1e-12)
    # a command between samples takes the latest sample's speed
    probe.durations[-1] = speed.NOMINAL
    assert probe.scaled(3.1, 3.2, 0.1) == pytest.approx(3.2 - 3.1, rel=1e-12)


def test_speed_scaling_falls_back_to_raw_time_on_more_than_one_thread():
    import speed
    probe = speed.SpeedProbe()
    probe.starts = [0.0, 1.0, 2.0, 3.0]
    probe.durations = [2 * speed.NOMINAL] * 4
    assert probe.scaled(0.5, 2.5, 1.9) != 2.0
    # two threads' worth of CPU: the reference loop no longer tracks the program
    assert probe.scaled(0.5, 2.5, 4.0) == 2.0
    assert not speed.one_thread(2.0, 4.0) and speed.one_thread(2.0, 2.0)


def test_bypass_calls_are_failed_checks():
    values = {f"{layer}.calls": 0 for layer in tracing.LAYERS}
    assert not any(line.startswith("FAIL") for line in run.check_bypass("ovals", values))
    values["niho.calls"] = 3
    lines = run.check_bypass("ovals", values)
    assert [line for line in lines if line.startswith("FAIL")] == [
        "FAIL bypass niho: 3 calls, predicted none"]


def test_schedule_runs_every_repeat_once_and_spreads_repeated_commands():
    ops = [workloads.Op(("x",), "accept", None, repeat=n) for n in (3, 1, 1, 3, 1, 2)]
    order = run.schedule(ops)
    assert sorted(order) == [(i, r) for i, op in enumerate(ops) for r in range(op.repeat)]
    # one run of each repeated command per round, the rounds in order
    assert [r for i, r in order if i == 0] == [0, 1, 2]
    assert order.index((0, 1)) > order.index((3, 0))
