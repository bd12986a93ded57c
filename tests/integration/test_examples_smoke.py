"""Smoke tests for runnable examples.

Each example is loaded as a module and its ``main()`` driven in-process;
the examples assert their own end-state, so "runs to completion" is a
real check, not just an import test.
"""

import importlib.util
import sys
from pathlib import Path

EXAMPLES_DIR = Path(__file__).parent.parent.parent / "examples"


def load_example(name):
    spec = importlib.util.spec_from_file_location(
        f"examples_{name}", EXAMPLES_DIR / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


class TestCrashRecoveryExample:
    def test_runs_and_converges(self, tmp_path, capsys):
        module = load_example("crash_recovery")
        result = module.main(storage_root=tmp_path)
        assert result["finals"] == {f"s{i}": 36 for i in range(1, 5)}
        assert result["recovery"].blocks_recovered > 0
        assert result["recovery"].chain_resumed
        out = capsys.readouterr().out
        assert "restarted from disk" in out
        # The example left its durable artefacts where we asked.
        assert list(tmp_path.glob("s*/wal/wal-*.log"))
        assert list(tmp_path.glob("s*/checkpoints/ckpt-*.bin"))

    def test_quickstart_still_runs(self, capsys):
        module = load_example("quickstart")
        module.main()
        assert "delivered at all servers" in capsys.readouterr().out


class TestByzantineAuditExample:
    def test_prints_the_equivocation_report(self, capsys):
        module = load_example("byzantine_audit")
        module.main()
        out = capsys.readouterr().out
        assert "equivocation report: 1 of 1 fork slots" in out
        assert "(s4, 0): 2 blocks signed by s4" in out
