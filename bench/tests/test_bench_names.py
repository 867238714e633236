"""BENCHMARK.json and what run.py prints must agree, in both
directions."""

import json
import os
import re
import subprocess
import sys

import pytest

from conftest import BENCH, ROOT

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def _run(*args):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    return proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1])


def test_every_name_and_unit_is_well_formed(spec):
    names = [x["name"] for key in ("workloads", "end_to_end", "per_layer")
             for x in spec[key]]
    assert len(names) == len(set(names)), "a name is used twice"
    for name in names:
        assert NAME.fullmatch(name), name
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.fullmatch(m["unit"]), m
        assert m["better"] in ("higher", "lower")
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= \
        next(m for m in spec["end_to_end"]
             if m["name"] == "setup_s").items()
    assert spec["paths"] == ["bench"]
    assert "claim" not in spec


def test_workloads_match_the_registry(spec):
    from workloads import WORKLOADS
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_no_workload_imports_the_programs_own_benchmarks():
    for name in os.listdir(BENCH):
        if name.endswith(".py"):
            with open(os.path.join(BENCH, name)) as f:
                assert not re.search(r"^\s*(from|import)\s+repro\.bench",
                                     f.read(), re.M), name


def test_end_to_end_run_prints_exactly_the_declared_names(spec):
    out, last = _run("--workload", "rpc_smp", "--seed", "3",
                     "--seconds", "1.4", "--trace", "0")
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in last["metrics"].items()} == declared
    assert last["correct"] is True and last["failed"] == 0
    assert last["attempted"] >= 1
    for name, unit in declared.items():   # by name, with its unit
        assert re.search(rf"^\s+{re.escape(name)}\s+\S+ {re.escape(unit)}\b",
                         out, re.M), name


def test_traced_run_prints_exactly_the_declared_names(spec):
    out, last = _run("--workload", "gups_proc", "--seed", "3",
                     "--trace", "1")
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert {k: v["unit"] for k, v in last["metrics"].items()} == declared
    assert last["metrics"]["core.proclaunch.shm_leaked"]["value"] == 0
    assert os.path.exists(os.path.join(BENCH, "out",
                                       "trace-gups_proc.json"))
