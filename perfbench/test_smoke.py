"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import compare  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def test_spec_names_the_workloads_and_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == run.PER_LAYER


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_is_emitted(workload, trace):
    out = bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace, "--tiny")
    assert out.returncode == 0, out.stderr
    *_, header_line, result_line = out.stdout.splitlines()
    header = json.loads(header_line)["header"]
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, header["failures"]
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    for key in ("git_revision", "backend", "backend_reason", "python", "cpu", "nproc",
                "loadavg_start", "loadavg_end"):
        assert key in header
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_all_prints_every_metric_with_its_unit():
    out = bench("--all", "--seconds", "1", "--tiny")
    assert out.returncode == 0, out.stderr
    for workload in workloads.WORKLOADS:
        for m in SPEC["end_to_end"]:
            assert any(line.split()[:2] == [workload, m["name"]] and line.split()[-1] == m["unit"]
                       for line in out.stdout.splitlines())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = bench("--workload", "delta-structured", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


def test_delta_corpus_decodes_to_the_built_graphs():
    import degstab

    corpus = workloads.delta_corpus()
    assert len(corpus) == 30
    for name, text in corpus:
        g = degstab.decode(text, "graph6")
        assert degstab.encode(g, "graph6") == text, name
    petersen = dict(corpus)["Petersen"]
    assert degstab.decode(petersen, "graph6") == degstab.petersen()
    assert degstab.decode(dict(corpus)["M1(C5)"], "graph6").order == 11


def test_checks_catch_a_wrong_answer():
    import degstab

    job = workloads.make_jobs("delta-structured", 0, tiny=True)[1]  # K4
    h, result, text = workloads.run_job(degstab, "delta-structured", job)
    assert workloads.check_job(degstab, "delta-structured", job, (h, result, text)) is None
    wrong = degstab.DeltaResult.loads(text.replace('"index":2', '"index":3'))
    assert workloads.check_job(degstab, "delta-structured", job, (h, wrong, wrong.dumps()))


def test_kernel_parity_reports_a_node_count_difference():
    from degstab import _purecore

    class Skewed:
        @staticmethod
        def hom_search(p_adj, t_adj):
            mapping, nodes = _purecore.hom_search(p_adj, t_adj)
            return mapping, nodes + 1

    calls = [("hom_search", ((2, 1), (2, 1)))]
    assert run.kernel_parity(calls, _purecore, _purecore) == []
    assert len(run.kernel_parity(calls, _purecore, Skewed)) == 1


def test_tracer_restores_every_function():
    import degstab
    from degstab import backend, graphs, hom

    classify = sys.modules["degstab.classify"]

    def bound():
        return (backend.hom_search, hom.homomorphism_search, classify.homomorphism_search,
                graphs.Graph.__post_init__, degstab.decode)

    before = bound()
    tracer = Tracer()
    tracer.install()
    try:
        assert bound()[2] is not before[2]
        degstab.classify(degstab.complete(4))
    finally:
        tracer.uninstall()
    assert bound() == before
    assert tracer.calls["classify.classify"] == 1
    assert tracer.calls["backend.hom_search"] >= 2


def test_compare_refuses_mixed_backends(tmp_path):
    def runs(backend: str) -> str:
        header = {"header": {"workload": "delta-structured", "backend": backend}}
        result = {"correct": True, "attempted": 1, "failed": 0,
                  "metrics": {"wall_s": {"value": 1.0, "unit": "s"}}}
        return json.dumps(header) + "\n" + json.dumps(result) + "\n"

    (tmp_path / "a").write_text(runs("pure"))
    (tmp_path / "b").write_text(runs("compiled"))
    (tmp_path / "c").write_text(runs("pure"))
    assert compare.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 2
    assert compare.main([str(tmp_path / "a"), str(tmp_path / "c")]) == 0
