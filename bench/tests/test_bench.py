"""Tests of the benchmark's own parts: generators, theorem oracle, tracer,
speed probe.

    python3 -m pytest bench/tests -q
"""

import json
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import ringext      # noqa: E402
import oracle       # noqa: E402
import run          # noqa: E402
import workloads    # noqa: E402
from speed import TICK_SECONDS, SpeedProbe   # noqa: E402
from tracer import Tracer, summarize   # noqa: E402

GROUP_CORPUS = ["b_eq_a", "qc2_q", "f2c2_f2", "f3c3_f3", "qs3_qa3",
                "f7s3_f7t", "qq8_qi"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_in_the_seed(workload):
    def docs(seed):
        return [(c.name, c.doc) for c in workloads.cases(workload, seed, ROOT)]
    assert docs(7) == docs(7)
    assert docs(7) != docs(8)


@pytest.mark.parametrize("workload", ["fp-groups", "small-many"])
def test_generated_inputs_parse(workload):
    for case in workloads.cases(workload, 3, ROOT):
        ringext.parse_input(case.doc)


@pytest.mark.parametrize("name", GROUP_CORPUS)
def test_oracle_agrees_with_group_corpus_verdicts(name):
    with open(os.path.join(ROOT, "corpus", "expected", f"{name}.json"),
              encoding="utf-8") as fh:
        report = json.load(fh)
    assert oracle.group_pair(report) is not None
    assert oracle.mismatches(report) == []


def test_oracle_flags_a_wrong_verdict():
    with open(os.path.join(ROOT, "corpus", "expected", "f7s3_f7t.json"),
              encoding="utf-8") as fh:
        report = json.load(fh)
    report["classification"]["left_depth_two"] = True
    assert len(oracle.mismatches(report)) == 1


def _reports(docs):
    return [run.unstamped(ringext.report_json(
        ringext.analysis_report(ringext.parse_input(doc)))) for doc in docs]


def test_traced_report_matches_untraced():
    docs = [c.doc for c in workloads.cases("q-corpus", 0, ROOT)
            if c.name == "qc2_q"]
    docs += [c.doc for c in workloads.cases("fp-groups", 0, ROOT)
             if c.name.startswith("c4-")]
    plain = _reports(docs)
    originals = (ringext.canonical.hom_space, ringext.linalg.rref,
                 ringext.CanonicalRings.__init__)
    tracer = Tracer()
    tracer.install()
    try:
        traced = _reports(docs)
    finally:
        tracer.restore()
    assert traced == plain
    assert (ringext.canonical.hom_space, ringext.linalg.rref,
            ringext.CanonicalRings.__init__) == originals
    per_name = summarize(tracer)
    assert per_name["bimodule.hom_space"]["calls"] > 0
    assert per_name["canonical.CanonicalRings"]["calls"] == len(docs)
    assert len(tracer.rref_shapes) == per_name["linalg.rref"]["calls"]


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_run_prints_the_metrics_benchmark_json_names(trace, section, capsys):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert run.main(["--workload", "small-many", "--seed", "0",
                     "--seconds", "0", "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec[section]}


def test_speed_probe_rescales_by_the_samples_taken_during_an_operation():
    probe = SpeedProbe()
    probe.at = [float(t) for t in range(20)]
    probe.seconds = [2 * TICK_SECONDS] * 10 + [TICK_SECONDS / 2] * 10
    # samples 2..8 fall inside: the machine ran at half the reference speed
    assert probe.rescale(10.0, 1.5, 8.5) == pytest.approx(5.0)
    # a short operation borrows the nearest samples, here all fast ones
    assert probe.rescale(1.0, 14.2, 14.3) == pytest.approx(2.0)
