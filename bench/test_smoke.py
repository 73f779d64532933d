"""Smoke test of the benchmark itself.

    python3 -m pytest bench/test_smoke.py

Runs every workload for its shortest run (one operation), untraced and
traced, and checks that each metric named in BENCHMARK.json is reported with
its unit, that every operation passed its output check, that only the
expected workloads split slopes and sample submodules, and that every traced
run sees ``is_admissible``.  It also checks that tracing reaches every alias
of a wrapped function and that a traced run leaves no isofilt function
wrapped.  It takes about two minutes.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer  # noqa: E402

# whether each workload splits slopes and samples submodules
ROUTES = {
    "cert-ramified": {"slopes.slope_factors": False,
                      "submodules.sampled_submodules": False},
    "cert-multiplicity": {"slopes.slope_factors": True,
                          "submodules.sampled_submodules": True},
    "slope-split": {"slopes.slope_factors": True,
                    "submodules.sampled_submodules": False},
}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_reported(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=600)
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    want = {m["name"]: m["unit"]
            for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in res["metrics"].items()}
    assert got == want
    if trace:
        calls = {name: res["metrics"][f"{name}.calls"]["value"] > 0
                 for name in ("slopes.slope_factors",
                              "submodules.sampled_submodules")}
        assert calls == ROUTES[workload]
        # every workload decides admissibility, so a traced run must see it
        assert res["metrics"]["admissible.is_admissible.calls"]["value"] > 0


def test_tracing_rebinds_aliases_and_restores_them(tmp_path):
    work, rng, first, _ = run.set_up("cert-ramified", 3, tmp_path)
    import isofilt.cli
    import isofilt.filtration.admissible as admissible
    import isofilt.filtration.driver as driver

    original = admissible.is_admissible
    t = tracer.Tracer()
    t.install()
    try:
        assert tracer.find_wrapped()
        assert isofilt.cli.is_admissible is not original
        assert isofilt.cli.is_admissible is driver.is_admissible
        assert driver.is_admissible is admissible.is_admissible
    finally:
        t.uninstall()
    assert admissible.is_admissible is original
    assert tracer.find_wrapped() == []

    results, metrics = run.per_layer(work, rng, first, 0,
                                     tmp_path / "trace.json")
    assert tracer.find_wrapped() == []
    assert all(r.ok for r in results)
    assert metrics["admissible.is_admissible.calls"][0] > 0
