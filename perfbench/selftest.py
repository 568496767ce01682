"""Self-test of the benchmark.  Run from the root of a flapkit checkout:

    python3 perfbench/selftest.py

1. Every workload, at the shortest length, with and without tracing, emits
   exactly the metrics of BENCHMARK.json and fails no operation.
2. A stored flat-replay plan moved off its start boundary condition is
   counted as failed operations, and the run still completes.
3. In a directory holding only BENCHMARK.json and perfbench/, the benchmark
   exits non-zero without printing a result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = HERE / "out" / "selftest"


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--seed", "0", "--seconds", "1", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    return result


def check_metric_names(spec: dict) -> None:
    for key, trace in (("end_to_end", "0"), ("per_layer", "1")):
        expected = {m["name"]: m["unit"] for m in spec[key]}
        for workload in (w["name"] for w in spec["workloads"]):
            result = result_of(run(ROOT, "--workload", workload, "--trace", trace))
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == expected, (workload, trace, set(got) ^ set(expected))
            assert result["correct"] and result["failed"] == 0, (workload, result)
            if key == "end_to_end":
                zero = [n for n, m in result["metrics"].items() if m["value"] == 0]
                assert not zero, (workload, zero)
            print(f"ok  {workload} --trace {trace}: {len(got)} metrics, "
                  f"{result['attempted']} operations")


def check_corrupted_input() -> None:
    data = SCRATCH / "data"
    shutil.rmtree(data, ignore_errors=True)
    shutil.copytree(HERE / "data", data)
    lines = (data / "case_a.csv").read_text().splitlines()
    cells = lines[1].split(",")  # segment 0, axis x
    assert cells[:2] == ["0", "0"], lines[1]
    cells[2] = repr(float(cells[2]) + 0.05)  # c0: start position 5 cm off
    lines[1] = ",".join(cells)
    (data / "case_a.csv").write_text("\n".join(lines) + "\n")
    result = result_of(run(ROOT, "--workload", "flat-replay", "--trace", "0",
                           "--data-dir", str(data)))
    assert not result["correct"] and result["failed"] >= 3, result
    assert result["failed"] < result["attempted"], result  # case b still passes
    print(f"ok  corrupted case a: {result['failed']} of {result['attempted']} "
          "operations failed")


def check_bare_directory() -> None:
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for item in HERE.iterdir():
        if item.name in ("out", "__pycache__"):
            continue
        if item.is_dir():
            shutil.copytree(item, bare / "perfbench" / item.name)
        else:
            shutil.copy(item, bare / "perfbench")
    proc = run(bare, "--workload", "waypoint-loop", "--trace", "0")
    assert proc.returncode != 0, proc.stdout
    assert '"correct"' not in proc.stdout, proc.stdout
    print(f"ok  bare directory: exit {proc.returncode}, no result")
    shutil.rmtree(bare)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    SCRATCH.mkdir(parents=True, exist_ok=True)
    check_bare_directory()
    check_corrupted_input()
    check_metric_names(spec)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
