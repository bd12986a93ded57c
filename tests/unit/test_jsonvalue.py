"""The one JSON mapping (``repro.jsonvalue``): the rule, and the
malformed documents the hand-written serializers it replaced let through."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.errors import ScenarioError
from repro.jsonvalue import read, write
from repro.obs.metrics import MetricsRegistry, MetricsReport
from repro.runtime.live.node import NodeConfig, NodeStatus
from repro.scenario import (
    AllDelivered,
    And,
    CrashFault,
    FaultSchedule,
    LatencySpec,
    RoundsElapsed,
    ScenarioResult,
    SloReport,
    SloSpec,
    SloVerdict,
    StopCondition,
    StorageSpec,
)

SRC = Path(__file__).resolve().parents[2] / "src"

_CONFIG = {"server": "s1", "servers": ["s1"], "protocol": "brb", "addresses": {}}
_STATUS = {"server": "s1", "pid": 1, "tick": 0, "blocks": 0, "fingerprint": ""}

#: (class, document, expected, optimized): a regex the ScenarioError must
#: match, or the ``(field, value)`` the document decodes to, value type
#: included; ``optimized`` cases run under ``python -O``, where an
#: ``assert`` no longer validates anything.
MALFORMED = [
    pytest.param(
        StopCondition,
        {"kind": "and", "conditions": [{"kind": "all-delivered"}], "typo": 1},
        "^typo: unknown key",
        False,
        id="composite-extra-key",
    ),
    pytest.param(
        LatencySpec, {"model": "fixed", "delay": "1.0"}, ("delay", 1.0), False, id="str-delay"
    ),
    pytest.param(
        SloSpec,
        {"commit_p99_ms": True},
        "^commit_p99_ms: expected float, got True",
        False,
        id="bool-bound",
    ),
    pytest.param(
        NodeConfig,
        {**_CONFIG, "workload": [[1, "a"]]},
        r"^workload\[0\]: expected 3 items, got 2",
        False,
        id="short-workload-entry",
    ),
    pytest.param(NodeStatus, {**_STATUS, "tick": "3"}, ("tick", 3), False, id="str-tick"),
    pytest.param(
        ScenarioResult,
        {"scenario": "x", "protocol": "brb", "seed": 1, "wire": 5},
        "^wire: expected an object, got int",
        True,
        id="non-object-section",
    ),
]


def _error_under_optimize(cls: type, document: dict) -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = (
        "import json, sys\n"
        f"from {cls.__module__} import {cls.__name__} as cls\n"
        "from repro.errors import ScenarioError\n"
        "try:\n"
        "    cls.from_dict(json.loads(sys.argv[1]))\n"
        "except ScenarioError as exc:\n"
        "    print(exc)\n"
    )
    done = subprocess.run(
        [sys.executable, "-O", "-c", code, json.dumps(document)],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


@pytest.mark.parametrize("cls, document, expected, optimized", MALFORMED)
def test_malformed_document(cls, document, expected, optimized):
    if isinstance(expected, tuple):
        name, value = expected
        decoded = getattr(cls.from_dict(document), name)
        assert decoded == value and type(decoded) is type(value)
    elif optimized:
        assert re.search(expected, _error_under_optimize(cls, document))
    else:
        with pytest.raises(ScenarioError, match=expected):
            cls.from_dict(document)


class TestTheRule:
    def test_tags_tuples_and_null(self):
        stop = And((AllDelivered(), RoundsElapsed(rounds=3)))
        faults = FaultSchedule((CrashFault(server="s2", crash_round=1),))
        assert write(stop) == {
            "kind": "and",
            "conditions": [{"kind": "all-delivered"}, {"kind": "rounds-elapsed", "rounds": 3}],
        }
        assert write(faults) == {
            "events": [
                {"kind": "crash", "server": "s2", "crash_round": 1, "restart_round": None}
            ]
        }
        assert StopCondition.from_dict(write(stop)) == stop
        assert FaultSchedule.from_dict(write(faults)) == faults

    @pytest.mark.parametrize("value", [True, 2.5, "x", None, [1]])
    def test_a_non_integer_is_no_int(self, value):
        with pytest.raises(ScenarioError, match="^checkpoint_interval: expected int"):
            StorageSpec.from_dict({"checkpoint_interval": value})

    def test_integral_float_is_an_int(self):
        assert read(int, 3.0) == 3 and type(read(int, 3.0)) is int

    def test_constructor_errors_carry_the_path(self):
        with pytest.raises(ScenarioError, match=r"^events\[0\]: .*heal after it starts"):
            FaultSchedule.from_dict(
                {"events": [{"kind": "partition", "start_round": 2, "heal_round": 1}]}
            )

    def test_derived_field_is_written_and_recomputed(self):
        report = SloReport((SloVerdict("commit_p99_ms", 1.0, 2.0, ok=False),))
        document = report.as_dict()
        assert document["passed"] is False
        assert SloReport.from_dict({**document, "passed": True}) == report

    def test_foreign_mapping_defers_and_errors_name_the_path(self):
        registry = MetricsRegistry(server="s1")
        registry.counter("wire.bytes").inc(3)
        metrics = MetricsReport.from_snapshots({"s1": registry.snapshot()})
        result = ScenarioResult(scenario="x", protocol="brb", seed=1, metrics=metrics)
        assert ScenarioResult.from_dict(result.as_dict()) == result
        document = {"scenario": "x", "protocol": "brb", "seed": 1, "metrics": {
            "merged": {"points": [{"kind": "wat"}]}
        }}
        with pytest.raises(ScenarioError, match="^metrics: unknown metric kind 'wat'"):
            ScenarioResult.from_dict(document)

    def test_status_bytes_match_a_plain_dump(self):
        status = NodeStatus(**_STATUS, delivered={"b": 2, "a": 1}, complete=True)
        assert status.to_json() == json.dumps(vars(status), sort_keys=True)
