"""Self-test of the benchmark.  Run from the repository root:

    python3 -m pytest -q ropbench/test_ropbench.py
"""

from __future__ import annotations

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import inputs  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402

WORKLOADS = run.WORKLOADS
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _tiny_makers():
    table = run._workloads(tiny=True)
    return [table[name].make for name in WORKLOADS]


@pytest.mark.parametrize("make", _tiny_makers(), ids=WORKLOADS)
def test_generators_are_deterministic_per_seed(make):
    first, again, other = make(7, 3), make(7, 3), make(8, 3)
    assert first.files == again.files and first.calls == again.calls
    assert first.files != other.files
    assert make(7, 4).files != first.files


def test_verdict_search_finds_the_demo_cleanup_gadgets():
    text, vaddr = inputs.demo_text(), inputs.DEMO_TEXT_VADDR
    assert inputs.DEMO_POP1_EDI in reference.pop_ret_addrs(text, vaddr, 1)
    assert inputs.DEMO_POP2 in reference.pop_ret_addrs(text, vaddr, 2)
    assert inputs.DEMO_POP3 in reference.pop_ret_addrs(text, vaddr, 3)
    assert reference.pop_ret_addrs(text, vaddr, 4) == []


def test_verdict_search_skips_pop_esp():
    text = b"\xcc\x5c\xc3\xcc\x58\xc3"
    assert reference.pop_ret_addrs(text, 0x1000, 1) == [0x1004]
    assert reference.pop_ret_addrs(text, 0x1000, 1, allow_esp=True) == [0x1001, 0x1004]


def _load_test_module(name: str):
    path = ROOT / "tests" / f"{name}.py"
    if not path.is_file():
        pytest.skip(f"tests/{name}.py is not in this checkout")
    spec = importlib.util.spec_from_file_location(f"ropbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_demo_fixture_matches_the_test_suite():
    conftest = _load_test_module("conftest")
    assert inputs.demo_elf() == conftest.demo_elf_bytes()


@pytest.mark.parametrize(
    "text",
    [
        inputs.scan_dense(5, 0, size=4096).text,
        inputs.chain_large(5, 0, size=16 * 1024).text,
        inputs.chain_small(5, 0).text,
        b"\xc2\x08\x00\xff\xe0" * 8 + b"\x58\xc3",  # windows ending in a ret imm16 and the data end
    ],
    ids=["scan-dense", "chain-large", "chain-small", "edges"],
)
def test_gadget_oracle_matches_the_test_suite_oracle(text):
    oracle = _load_test_module("oracle_bruteforce")
    assert reference.oracle_windows(text) == sorted(
        oracle.brute_force_windows(text, reference.WINDOW_BACK, reference.MAX_INSNS)
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_reports_every_metric(workload, trace, capsys):
    argv = ["--workload", workload, "--seed", "1", "--seconds", "0.3", "--trace", str(trace)]
    assert run.main(argv + ["--tiny"]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1

    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())

    record = json.loads((run.STATE / f"{workload}-seed1-trace{trace}.json").read_text())
    assert record["error_ratio"] == result["failed"] / result["attempted"]
    assert record["environment"]["seed"] == 1


def test_request_count_is_fixed_by_seconds():
    wl = run._workloads(tiny=False)["chain-small"]
    assert run.request_count(wl, 25, trace=False) == 5000
    assert run.request_count(wl, 25, trace=True) == 2500
    assert run.request_count(run._workloads(tiny=False)["scan-dense"], 0.1, trace=True) == 1


def test_same_seed_gives_the_same_counts(capsys):
    argv = ["--workload", "chain-small", "--seed", "4", "--seconds", "0.5", "--tiny"]
    results = []
    for _ in range(2):
        assert run.main(argv) == 0
        results.append(json.loads(capsys.readouterr().out.splitlines()[-1]))
    assert results[0]["attempted"] == results[1]["attempted"] == 1 + 100
    assert results[0]["failed"] == results[1]["failed"]


def test_speed_scale_is_the_reference_over_the_loop_time():
    assert speed.scale(speed.REFERENCE_S, speed.REFERENCE_S) == 1.0
    assert speed.scale(0.002, 0.004) == pytest.approx(speed.REFERENCE_S / 0.003)
    assert speed.loop_seconds() > 0


def test_chain_failures_are_counted_and_explained(capsys):
    assert run.main(["--workload", "chain-small", "--seed", "3", "--seconds", "0.5"]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    record = json.loads((run.STATE / "chain-small-seed3-trace0.json").read_text())
    assert result["failed"] == sum(record["failures_by_cause"].values())
    assert set(record["failures_by_cause"]) <= {reference.ARITY_5_6, reference.POP_ESP_CLEANUP}


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "ropbench", ignore=shutil.ignore_patterns("__pycache__"))
    argv = ["--workload", "chain-small", "--seed", "1", "--seconds", "1"]
    proc = subprocess.run(
        [sys.executable, "ropbench/run.py", *argv],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
