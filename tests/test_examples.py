"""The shipped examples must run and print their headline claims."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).parent.parent / "examples"


def run_example(name: str) -> str:
    process = subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True, text=True, timeout=300)
    assert process.returncode == 0, process.stderr
    return process.stdout


@pytest.mark.parametrize("path", sorted(EXAMPLES.glob("*.py")),
                         ids=lambda path: path.name)
def test_every_example_imports(path):
    """Each example guards ``__main__``, so importing it resolves every
    library name it uses without running it: an API rename cannot
    leave an example broken unnoticed."""
    spec = importlib.util.spec_from_file_location(
        f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)


def test_balloon_vs_spike_runs_to_its_conclusion():
    out = run_example("balloon_vs_spike.py")
    assert "spike workload finished" in out
    assert out.rstrip().endswith(
        "The balloon trails the spike; VSwapper cheapens the window.")


def test_quickstart_runs_and_orders_configs():
    out = run_example("quickstart.py")
    assert "baseline" in out
    assert "full vswapper" in out
    # Parse runtimes to confirm the headline ordering.
    runtimes = {}
    for line in out.splitlines():
        if "runtime" in line:
            label = line.split("runtime")[0].strip()
            runtimes[label] = float(
                line.split("runtime")[1].split("s")[0])
    baseline = next(v for k, v in runtimes.items() if "baseline" in k
                    and "balloon" not in k)
    vswapper = next(v for k, v in runtimes.items() if "full" in k)
    assert baseline > 2 * vswapper


def test_pathology_inspector_attributes_damage():
    out = run_example("pathology_inspector.py")
    assert "silent swap writes" in out
    assert "false page anonymity" in out
    assert "preventer remaps" in out
