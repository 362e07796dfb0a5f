"""Tests of the benchmark itself: inputs, output checks, the job guard.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import calibrate  # noqa: E402
import run  # noqa: E402
from checks import check_decompose, check_gamma, check_verify, gamma_size  # noqa: E402
from guard import run_guarded  # noqa: E402
from inputs import GROUPS, group_doc, write_group  # noqa: E402
from pargroupoid.group import from_table, make_group  # noqa: E402
from pargroupoid.structure import decomposition_report  # noqa: E402


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_generated_tables_are_groups_that_from_table_accepts(name):
    for seed in (0, 1, 12345):
        doc = group_doc(name, seed)
        G = from_table(doc)
        assert G.order == doc["order"] == (8 if name == "q8" else 16)
        assert sorted(doc["labels"]) == sorted(group_doc(name, seed + 1)["labels"])


def test_same_seed_gives_byte_identical_files(tmp_path):
    a = write_group(tmp_path / "a", "z2xz8", 7).read_bytes()
    b = write_group(tmp_path / "b", "z2xz8", 7).read_bytes()
    c = write_group(tmp_path / "c", "z2xz8", 8).read_bytes()
    assert a == b
    assert a != c


def _decompose_bytes() -> bytes:
    return (json.dumps(decomposition_report(make_group("cyclic:4")), indent=2)
            + "\n").encode()


def test_decompose_checker_accepts_the_program_output():
    assert check_decompose(0, _decompose_bytes(), 4) is None


def test_decompose_checker_rejects_a_mutated_block_count():
    doc = json.loads(_decompose_bytes())
    doc["blocks"][-1]["c"] += 1
    reason = check_decompose(0, json.dumps(doc).encode(), 4)
    assert reason is not None and "c*m^2" in reason


def test_decompose_checker_rejects_an_unequal_recursion_row():
    doc = json.loads(_decompose_bytes())
    doc["recursion_diff"][0]["equal"] = False
    assert check_decompose(0, json.dumps(doc).encode(), 4) is not None


def test_gamma_checker_uses_its_own_table():
    table = group_doc("q8", 3)["table"]
    inverse = [row.index(0) for row in table]
    elements = []
    for mask in range(1, 1 << 8, 2):
        members = [x for x in range(8) if mask >> x & 1]
        for g in sorted(g for g in range(8) if mask >> inverse[g] & 1):
            elements.append({"I": members, "g": g, "unit": g == 0})
    doc = {"order": 8, "size": gamma_size(8), "unit_count": 128, "elements": elements}
    assert check_gamma(0, json.dumps(doc).encode(), table) is None
    swapped = dict(doc, elements=[elements[1], elements[0]] + elements[2:])
    assert "order" in check_gamma(0, json.dumps(swapped).encode(), table)
    bad = dict(doc, elements=[dict(elements[0], g=1, unit=False)] + elements[1:])
    assert "inverse" in check_gamma(0, json.dumps(bad).encode(), table)


def test_verify_checker_wants_every_suite_passed():
    suites = [{"name": n, "passed": True, "checks": []} for n in run.SUITES_ALL]
    doc = {"passed": True, "suites": suites}
    assert check_verify(0, json.dumps(doc).encode(), run.SUITES_ALL) is None
    assert check_verify(1, json.dumps(doc).encode(), run.SUITES_ALL) == "exit 1"
    short = dict(doc, suites=suites[:-1])
    assert check_verify(0, json.dumps(short).encode(), run.SUITES_ALL) is not None


def test_guard_kills_a_child_at_its_timeout(tmp_path):
    start = time.perf_counter()
    result = run_guarded([sys.executable, "-c", "import time; time.sleep(30)"],
                         stdout=tmp_path / "o", stderr=tmp_path / "e",
                         timeout_s=0.5, mem_bytes=1 << 30)
    assert result.timed_out and not result.ok
    assert time.perf_counter() - start < 10


def test_guard_caps_the_address_space(tmp_path):
    result = run_guarded([sys.executable, "-c", "b = bytearray(600 << 20)"],
                         stdout=tmp_path / "o", stderr=tmp_path / "e",
                         timeout_s=30, mem_bytes=400 << 20)
    assert result.returncode != 0 and not result.timed_out
    assert b"MemoryError" in (tmp_path / "e").read_bytes()


def test_a_timed_out_job_counts_as_failed(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "JOB_TIMEOUT_S", 0.2)
    job = run.Job(("decompose", "--group", "cyclic:16"),
                  lambda rc, out: check_decompose(rc, out, 16))
    runner = run.Runner(tmp_path)
    with calibrate.Gauge() as gauge:
        runs = run.untraced_runs(runner, [job], gauge, 0, [])
    assert runner.attempted == 1
    assert len(runner.failures) == 1 and "timed out" in runner.failures[0]
    assert runs[0]["wall_s"] < 10


def test_times_are_rescaled_by_the_kernel_samples_of_the_run():
    ref = calibrate.REFERENCE_S
    runs = [{"job": 0, "wall_s": 4.0, "cpu_s": 3.0, "maxrss_kb": 2048},
            {"job": 1, "wall_s": 6.0, "cpu_s": 5.0, "maxrss_kb": 1024},
            {"job": 0, "wall_s": 8.0, "cpu_s": 7.0, "maxrss_kb": 1024}]
    kernel = [ref, 3 * ref]  # half the reference speed
    speed = calibrate.speed_factor(kernel)
    assert speed == pytest.approx(0.5 ** calibrate.EXPONENT)
    metrics = run.end_to_end_metrics(runs, [0.2, 0.8, 0.6], kernel, 4, 1)
    # Job 0 counts by its mean over its two runs.
    assert metrics == pytest.approx({"setup_s": 0.6 * speed, "wall_s": 12 * speed,
                                     "cpu_s": 10 * speed, "peak_rss_mb": 2.0,
                                     "ok_frac": 0.75})
    with calibrate.Gauge() as gauge:
        assert 0 < gauge.sample() < 30
    assert gauge.proc.returncode == 0


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
