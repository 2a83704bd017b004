"""Tier-1 smoke test of the perf ledger (sizes /20, one cycle per pass).

Checks the ledger's *shape*, never its timings: every catalogued metric
is reported with a unit on every workload, names and counts respect the
benchmark contract, ``BENCHMARK.json`` mirrors the catalogue, every
exact count repeats across two runs of one seed, and another seed gives
other inputs.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
sys.path.insert(0, str(HERE))
from catalogue import (  # noqa: E402 - needs HERE on the path
    END_TO_END,
    EXACT_COUNTS,
    GATED_WORKLOADS,
    PER_LAYER,
    WORKLOAD_NAMES,
)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _ledger(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        capture_output=True, text=True, timeout=600, cwd=REPO,
    )


def _smoke(out: Path, seed: int, *extra: str) -> dict:
    done = _ledger("--smoke", "--seed", str(seed), "--out", str(out), *extra)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    return json.loads(out.read_text())


@pytest.fixture(scope="module")
def two_runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("ledger")
    return (_smoke(tmp / "a.json", 5), _smoke(tmp / "b.json", 5),
            tmp / "a.json", tmp / "b.json")


def test_catalogue_respects_the_contract():
    assert 1 <= len(END_TO_END) <= 16
    assert 1 <= len(PER_LAYER) <= 128
    assert "setup_s" in END_TO_END
    assert END_TO_END["setup_s"][:2] == ("s", "lower")
    for name, spec in {**END_TO_END, **PER_LAYER}.items():
        assert NAME.match(name), name
        assert UNIT.match(spec[0]), (name, spec[0])
        assert spec[1] in ("lower", "higher"), name
    for name, (_, _, bound) in END_TO_END.items():
        assert 0 < bound <= 0.25, name
    assert not set(END_TO_END) & set(PER_LAYER)
    assert set(EXACT_COUNTS) <= set(PER_LAYER)


def test_benchmark_json_mirrors_the_catalogue():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["benchmarks/ledger"]
    assert spec["command"] == ["python3", "benchmarks/ledger/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(GATED_WORKLOADS)
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert 0 < len(workload["why"]) <= 200 and "\n" not in workload["why"]
    assert {m["name"]: (m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"])
            for m in spec["per_layer"]} == PER_LAYER


def test_every_metric_is_reported_on_every_workload(two_runs):
    ledger = two_runs[0]
    assert set(ledger["workloads"]) == set(WORKLOAD_NAMES)
    assert {"nproc", "cpu_model", "python", "numpy", "loadavg_1m",
            "noisy"} <= set(ledger["host"])
    for name, entry in ledger["workloads"].items():
        assert set(entry["end_to_end"]) == set(END_TO_END) | {"failed_share"}
        assert set(entry["per_layer"]) == set(PER_LAYER), name
        assert entry["failed"] == 0, (name, entry["failures"])
        assert entry["end_to_end"]["failed_share"] == 0
        for metric in END_TO_END:
            assert entry["end_to_end"][metric] > 0, (name, metric)
        book = entry["attribution"]
        assert sum(book["named_self_s"].values()) + book["unattributed_s"] \
            == pytest.approx(book["op_wall_s"])


def test_exact_counts_repeat_for_one_seed(two_runs):
    first, second, path_a, path_b = two_runs
    for name in WORKLOAD_NAMES:
        a, b = first["workloads"][name], second["workloads"][name]
        assert a["fingerprint"] == b["fingerprint"]
        for metric in EXACT_COUNTS:
            assert a["per_layer"][metric] == b["per_layer"][metric], \
                (name, metric)
    # --compare agrees (timings of a smoke run may not, counts must).
    report = _ledger("--compare", str(path_a), str(path_b)).stdout
    assert "MISMATCH" not in report and "DIFFER" not in report
    assert report.count("inputs identical") == len(WORKLOAD_NAMES)


def test_another_seed_changes_the_inputs(two_runs, tmp_path):
    other = _smoke(tmp_path / "c.json", 6, "--only", "warm_bounded")
    for what in ("fingerprint", "region_fingerprint"):  # points and shapes
        assert (other["workloads"]["warm_bounded"][what]
                != two_runs[0]["workloads"]["warm_bounded"][what])
