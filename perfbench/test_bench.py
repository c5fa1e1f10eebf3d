"""Tests of the benchmark itself (not part of tier-1).

Run: python3 -m pytest perfbench/test_bench.py
"""

import json
import os
import shutil
import subprocess
import sys

import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _run(root, *args):
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    return subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"), *args],
        cwd=root, env=env, capture_output=True, text=True, timeout=170)


def _copy(dest, with_src=True):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), dest)
    shutil.copytree(HERE, os.path.join(dest, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    if with_src:
        shutil.copytree(os.path.join(ROOT, "src"), os.path.join(dest, "src"),
                        ignore=shutil.ignore_patterns("__pycache__"))
    return str(dest)


def test_smoke_emits_every_declared_metric(tmp_path):
    proc = _run(_copy(tmp_path), "--smoke")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "smoke ok"


def test_wrong_expected_value_fails_the_run(tmp_path):
    root = _copy(tmp_path)
    path = os.path.join(root, "perfbench", "expected.json")
    with open(path, encoding="utf-8") as fh:
        expected = json.load(fh)
    expected["constant_term(2,3,1)"] = "1/2"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(expected, fh)
    proc = _run(root, "--smoke")
    assert proc.returncode == 1
    assert "constant_term(2,3,1)" in proc.stderr


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    proc = _run(_copy(tmp_path, with_src=False), "--workload", "cli-warm",
                "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_nesting_errors_finds_a_child_outside_its_parent():
    good = [["a", 0.0, 3.0, -1], ["b", 1.0, 2.0, 0]]
    assert tracer.nesting_errors(good) == []
    bad = [["a", 0.0, 3.0, -1], ["b", 1.0, 4.0, 0]]
    assert [i for i, _, _ in tracer.nesting_errors(bad)] == [1]
