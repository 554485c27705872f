"""The benchmark's own tests: python3 -m pytest perfbench"""

import shutil
import subprocess
import sys

from record import HERE, ROOT, collect

sys.path.insert(0, str(ROOT / "src"))


def test_every_workload_reports_every_metric():
    record = collect(seed=1, seconds=0.5, smoke=True)
    assert record["env"]["nproc"] >= 1
    assert len(record["results"]) == 4


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "certify-exhaustive",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_speed_probe_leaves_outputs_unchanged(tmp_path):
    from speed import SpeedProbe
    from workloads import SIZES, WORKLOADS

    for name, make in WORKLOADS.items():
        w = make(SIZES["smoke"])
        (tmp_path / name).mkdir()
        w.prepare(1, str(tmp_path / name))
        w.setup()
        probe = SpeedProbe(w.probe_kind)
        probed, wall, nominal = probe.time(w.op, 0)
        assert w.check(probed), name
        assert w.same(w.op(0), probed), name
        assert wall > 0 and nominal > 0, name
