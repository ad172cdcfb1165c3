"""Self-tests of the benchmark itself: python3 -m pytest bench -q"""

from __future__ import annotations

import copy

import pytest

import corpus
import run
import speed
import tracing
import verify

CLI, SKEIN = run.import_program()
CORPUS = corpus.load_corpus()


def first_cycles(workload, seed, k=3):
    stream = corpus.cycles(workload, CORPUS[workload], seed)
    return [[(b["id"], p, argv) for b, p, argv in next(stream)] for _ in range(k)]


def base(workload, base_id):
    return next(b for b in CORPUS[workload]["bases"] if b["id"] == base_id)


def op_report(tmp_path, workload, b, p):
    argv = corpus.op_argv(workload, CORPUS[workload], b, p, False, 0)
    rc, _, report = run.run_op(CLI, SKEIN, argv, tmp_path / "report.json")
    assert rc == 0
    return report


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_same_seed_same_corpus(workload):
    assert first_cycles(workload, 7) == first_cycles(workload, 7)
    assert first_cycles(workload, 7) != first_cycles(workload, 8)


def test_generator_reproduces_frozen_bases():
    built = corpus.build_bases()
    for workload, spec in CORPUS.items():
        assert [b["braid"] for b in spec["bases"]] == \
            [b["braid"] for b in built[workload]["bases"]]


def test_every_cycle_covers_every_base_once():
    for workload, spec in CORPUS.items():
        for ops in first_cycles(workload, 3):
            assert sorted(i for i, _, _ in ops) == sorted(b["id"] for b in spec["bases"])


def test_verifier_rejects_flipped_verdict(tmp_path):
    b = base("knots", "T(2,5)")
    report = op_report(tmp_path, "knots", b, 5)
    assert verify.violations(b, 5, report) == []
    report["verdict"] = "not-5-periodic"
    why = verify.violations(b, 5, report)
    assert any("digest" in w for w in why)
    assert any("torus knot" in w for w in why)


def test_verifier_rejects_dropped_control_tuple(tmp_path):
    b = next(b for b in CORPUS["links"]["bases"] if "control" in b)
    report = op_report(tmp_path, "links", b, b["p"])
    assert verify.violations(b, b["p"], report) == []
    dropped = copy.deepcopy(report)
    for tuples in dropped["criteria"]["quantum-minus"]["per_n"].values():
        tuples[:] = [t for t in tuples if sorted(t) != b["control"]]
    why = verify.violations(b, b["p"], dropped)
    assert any("digest" in w for w in why)
    assert any("lost its linking tuple" in w for w in why)


def test_trace_wraps_imported_names_without_double_counting(tmp_path):
    tracer = tracing.Tracer()
    b = base("knots", "T(3,7)")
    argv = corpus.op_argv("knots", CORPUS["knots"], b, 7, False, 0)
    tracer.install()
    try:
        rc, (t0, t1), _ = run.run_op(CLI, SKEIN, argv, tmp_path / "r.json", tracer)
    finally:
        tracer.uninstall()
    assert rc == 0
    # cli looks parse_braid and pd_from_braid up by name; criteria does
    # the same for reduce.
    assert tracer.self_s["diagram.parse_s"] > 0
    assert tracer.self_s["diagram.pd_from_braid_s"] > 0
    assert tracer.counts["laurent.reduce_calls"] > 0
    assert tracer.counts["skein.homfly_calls"] == 1
    root = tracer.span_name.tolist().index(tracer.name_id[tracing.ROOT])
    root_s = tracer.span_end[root] - tracer.span_start[root]
    assert sum(tracer.self_s.values()) == pytest.approx(root_s, rel=1e-9)
    assert root_s <= t1 - t0
    from linkperiod import cli, criteria, diagram
    assert cli.parse_braid is diagram.parse_braid
    assert criteria.reduce.__module__ == "linkperiod.laurent"
    assert not hasattr(criteria.reduce, "__wrapped__")


def test_tail_percentile_keeps_ten_ops_beyond():
    q, value, beyond = run.tail([float(i) for i in range(1, 121)])
    assert (q, beyond) == (90, 12)
    assert value == pytest.approx(0.9 * 120 + 0.5)


def test_incomplete_beta():
    assert run._betainc(1, 1, 0.3) == pytest.approx(0.3)
    assert run._betainc(2, 3, 0.4) == pytest.approx(0.5248)
    assert run._betainc(95.4, 10.6, 0.95) == pytest.approx(
        1 - run._betainc(10.6, 95.4, 0.05))


def test_speedometer_takes_its_samples_out_of_op_time():
    meter = speed.Speedometer()
    meter.starts = [0.0, 1.0, 1.2, 1.5, 3.0]
    meter.seconds = [0.002, 0.002, 0.009, 0.002, 0.004]
    assert meter.op_seconds(0.9, 2.0) == pytest.approx(1.1 - 0.013)
    # Samples within MARGIN_S of the op count; the median ignores the
    # one that ran slow.
    assert meter.slowness(1.05, 1.45) == pytest.approx(0.002 / speed.REF_S)
    # With none that close, the nearest one on either side counts.
    assert meter.slowness(2.0, 2.1) == pytest.approx(0.003 / speed.REF_S)
