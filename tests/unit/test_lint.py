"""``repro.lint`` — every rule proven on a violating/clean fixture pair.

Each rule gets at least one snippet it must fire on and the idiomatic
fix it must stay silent on; the engine, baseline, CLI formats, and the
meta-test that the shipped tree lints clean (tier-1) are covered at
the bottom.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path
from textwrap import dedent

import pytest

from repro.lint import Baseline, LintEngine
from repro.lint.engine import module_name_for

REPO_ROOT = Path(__file__).resolve().parents[2]


def lint(
    source: str,
    *,
    module: str = "repro.fake.module",
    path: str = "src/repro/fake/module.py",
):
    return LintEngine().check_source(dedent(source), module=module, path=path)


def rules_of(report) -> list[str]:
    return [finding.rule for finding in report.findings]


# ---------------------------------------------------------------- no-wall-clock


class TestNoWallClock:
    def test_fires_on_time_time(self):
        report = lint(
            """
            import time

            def stamp():
                return time.time()
            """
        )
        assert rules_of(report).count("no-wall-clock") == 2  # import + call
        assert any(f.line == 5 for f in report.findings)  # the read itself

    def test_fires_on_from_time_import(self):
        report = lint("from time import perf_counter\n")
        assert rules_of(report) == ["no-wall-clock"]

    def test_fires_on_datetime(self):
        report = lint("from datetime import datetime\n")
        assert rules_of(report) == ["no-wall-clock"]

    def test_silent_on_the_sanctioned_conduit(self):
        report = lint(
            """
            from repro.obs.metrics import perf_counter

            def timed():
                return perf_counter()
            """,
            module="repro.storage.fake",
        )
        assert rules_of(report) == []

    def test_exactly_two_modules_may_read_the_clock(self):
        from repro.lint.rules_determinism import NoWallClock

        assert NoWallClock.ALLOWED_MODULES == {
            "repro.obs.metrics",
            "repro.scenario.runner",
        }

    def test_allowed_inside_scenario_runner(self):
        report = lint("import time\n", module="repro.scenario.runner")
        assert rules_of(report) == []

    def test_allowed_inside_metrics_module(self):
        report = lint(
            "from time import perf_counter\n", module="repro.obs.metrics"
        )
        assert rules_of(report) == []

    def test_monotonic_still_fires_outside_the_conduit(self):
        # The allowance is an exact module list, not a prefix: a raw
        # wall-clock read anywhere else in the tree keeps failing even
        # though repro.obs.metrics may read the clock.
        report = lint(
            """
            import time

            def now():
                return time.monotonic()
            """,
            module="repro.net.live.fake",
        )
        assert rules_of(report).count("no-wall-clock") == 2  # import + call

    def test_one_obs_module_reads_the_clock_and_the_core_reads_none(self):
        import ast

        def clock_importers(package: str) -> list[str]:
            hits = []
            for path in sorted((REPO_ROOT / "src/repro" / package).rglob("*.py")):
                for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                    if isinstance(node, (ast.Import, ast.ImportFrom)):
                        names = {a.name for a in node.names}
                        names.add(getattr(node, "module", None))
                        if names & {"time", "datetime", "perf_counter"}:
                            hits.append(path.name)
            return hits

        assert clock_importers("obs") == ["metrics.py"]
        assert clock_importers("interpret") == []
        assert clock_importers("gossip") == []

    def test_submodule_of_allowed_package_still_fires(self):
        report = lint("from time import perf_counter\n", module="repro.obs.other")
        assert rules_of(report) == ["no-wall-clock"]


# ---------------------------------------------------- seeded-randomness-only


class TestSeededRandomnessOnly:
    def test_fires_on_module_level_random(self):
        report = lint(
            """
            import random

            def coin():
                return random.random()
            """
        )
        assert "seeded-randomness-only" in rules_of(report)

    def test_fires_on_unseeded_random(self):
        report = lint("import random\nrng = random.Random()\n")
        assert "seeded-randomness-only" in rules_of(report)

    def test_fires_on_bare_function_import(self):
        report = lint("from random import choice\n")
        assert "seeded-randomness-only" in rules_of(report)

    def test_fires_on_os_urandom(self):
        report = lint("import os\nnonce = os.urandom(8)\n")
        assert "seeded-randomness-only" in rules_of(report)

    def test_fires_on_secrets(self):
        report = lint("import secrets\n")
        assert "seeded-randomness-only" in rules_of(report)

    def test_silent_on_seeded_rng(self):
        report = lint(
            """
            import random

            def build(seed):
                rng = random.Random(seed)
                return rng.random()
            """
        )
        assert rules_of(report) == []

    def test_silent_on_random_annotation(self):
        report = lint(
            """
            import random

            def sample(rng: random.Random) -> float:
                return rng.random()
            """
        )
        assert rules_of(report) == []


# -------------------------------------------------------------------- no-pickle


class TestNoPickle:
    def test_fires_on_import_pickle(self):
        report = lint("import pickle\n")
        assert rules_of(report) == ["no-pickle"]

    def test_fires_on_function_scoped_dill(self):
        report = lint(
            """
            def save(obj):
                import dill
                return dill.dumps(obj)
            """
        )
        assert "no-pickle" in rules_of(report)

    def test_silent_on_the_canonical_codec(self):
        report = lint(
            "from repro.dag import codec\nblob = codec.encode(1)\n",
            module="repro.protocols.good",
        )
        assert rules_of(report) == []


# ------------------------------------------------------- deterministic-iteration


class TestDeterministicIteration:
    def test_fires_on_set_for_loop(self):
        report = lint(
            """
            def export(refs):
                pending = set(refs)
                out = []
                for ref in pending:
                    out.append(ref)
                return out
            """,
            module="repro.dag.fake",
        )
        assert rules_of(report) == ["deterministic-iteration"]

    def test_fires_on_set_literal_comprehension(self):
        report = lint(
            "rows = [v for v in {3, 1, 2}]\n", module="repro.obs.export"
        )
        assert rules_of(report) == ["deterministic-iteration"]

    def test_fires_on_tuple_freezing_a_set(self):
        report = lint(
            "frozen = tuple(set(x for x in range(3)))\n",
            module="repro.storage.state_codec",
        )
        assert rules_of(report) == ["deterministic-iteration"]

    def test_silent_on_sorted(self):
        report = lint(
            """
            def export(refs):
                pending = set(refs)
                return [ref for ref in sorted(pending)]
            """,
            module="repro.dag.fake",
        )
        assert rules_of(report) == []

    def test_silent_on_order_insensitive_reduction(self):
        report = lint(
            """
            def count(refs):
                pending = set(refs)
                return sum(1 for ref in pending)
            """,
            module="repro.dag.fake",
        )
        assert rules_of(report) == []

    def test_silent_on_set_producing_comprehension(self):
        report = lint(
            """
            def mirror(refs):
                pending = set(refs)
                return {ref for ref in pending}
            """,
            module="repro.dag.fake",
        )
        assert rules_of(report) == []

    def test_scoped_to_canonical_modules(self):
        report = lint(
            "rows = [v for v in {3, 1, 2}]\n", module="repro.gossip.fake"
        )
        assert rules_of(report) == []

    def test_sibling_function_locals_do_not_leak(self):
        # A set-typed local in one function must not taint the same
        # name in another scope (the codec's decode branches).
        report = lint(
            """
            def a():
                items = set()
                return frozenset(items)

            def b():
                items = []
                return tuple(items)
            """,
            module="repro.dag.fake",
        )
        assert rules_of(report) == []


# -------------------------------------------------------------- import-layering


class TestImportLayering:
    def test_protocols_may_not_import_net(self):
        report = lint(
            "from repro.net.simulator import NetworkSimulator\n",
            module="repro.protocols.evil",
        )
        assert rules_of(report) == ["import-layering"]

    def test_protocols_may_not_import_storage(self):
        report = lint(
            "import repro.storage.wal\n", module="repro.protocols.evil"
        )
        assert rules_of(report) == ["import-layering"]

    def test_obs_may_not_import_scenario(self):
        report = lint(
            "from repro.scenario.spec import Scenario\n", module="repro.obs.evil"
        )
        assert rules_of(report) == ["import-layering"]

    def test_dag_may_not_import_interpret(self):
        report = lint(
            "from repro.interpret.interpreter import Interpreter\n",
            module="repro.dag.evil",
        )
        assert rules_of(report) == ["import-layering"]

    def test_protocols_importing_dag_is_clean(self):
        report = lint(
            "from repro.dag.codec import encoding_key\n",
            module="repro.protocols.good",
        )
        assert rules_of(report) == []

    def test_type_checking_guard_is_exempt(self):
        report = lint(
            """
            from typing import TYPE_CHECKING

            if TYPE_CHECKING:
                from repro.shim.shim import Shim
            """,
            module="repro.horizon.compare",
        )
        assert rules_of(report) == []

    def test_function_scoped_import_is_exempt(self):
        report = lint(
            """
            def register():
                from repro.dag.codec import register_dataclass
                return register_dataclass
            """,
            module="repro.types",
        )
        assert rules_of(report) == []

    def test_facade_import_is_flagged(self):
        report = lint("import repro\n", module="repro.dag.evil")
        assert rules_of(report) == ["import-layering"]


# --------------------------------------------------------- no-thread-no-asyncio


class TestNoThreadNoAsyncio:
    def test_fires_on_threading(self):
        report = lint("import threading\n")
        assert rules_of(report) == ["no-thread-no-asyncio"]

    def test_fires_on_asyncio(self):
        report = lint("import asyncio\n")
        assert rules_of(report) == ["no-thread-no-asyncio"]

    def test_fires_on_executor_import(self):
        report = lint("from concurrent.futures import ThreadPoolExecutor\n")
        assert rules_of(report) == ["no-thread-no-asyncio"]

    def test_silent_on_singlethreaded_stdlib(self):
        report = lint("import heapq\nimport itertools\n")
        assert rules_of(report) == []

    def test_asyncio_allowed_inside_live_transport(self):
        report = lint(
            "import asyncio\n",
            module="repro.net.live.transport",
            path="src/repro/net/live/transport.py",
        )
        assert rules_of(report) == []

    def test_asyncio_allowed_inside_live_runtime(self):
        report = lint(
            "import asyncio\n",
            module="repro.runtime.live.node",
            path="src/repro/runtime/live/node.py",
        )
        assert rules_of(report) == []

    def test_asyncio_still_fires_everywhere_else(self):
        # The seam is exactly repro.net.live* / repro.runtime.live*:
        # an event loop anywhere else in the tree — including right
        # next to the seam — still fails, with no line suppression.
        for module, path in [
            ("repro.gossip.gossip", "src/repro/gossip/gossip.py"),
            ("repro.net.simulator", "src/repro/net/simulator.py"),
            ("repro.runtime.cluster", "src/repro/runtime/cluster.py"),
            ("repro.node.__main__", "src/repro/node/__main__.py"),
            # Prefix match is on module boundaries, not substrings.
            ("repro.net.liveish", "src/repro/net/liveish.py"),
        ]:
            report = lint("import asyncio\n", module=module, path=path)
            assert "no-thread-no-asyncio" in rules_of(report), module


# ----------------------------------------------------------------- baseline


class TestBaseline:
    def test_baselined_findings_are_filtered(self):
        report = lint("import pickle\n", path="src/repro/fake.py")
        baseline = Baseline(entries={("no-pickle", "src/repro/fake.py", 1)})
        new, stale = baseline.split(report.findings)
        assert new == [] and stale == []

    def test_stale_entries_are_reported(self):
        baseline = Baseline(entries={("no-pickle", "src/repro/gone.py", 9)})
        new, stale = baseline.split([])
        assert new == [] and stale == [("no-pickle", "src/repro/gone.py", 9)]

# ----------------------------------------------------------------- engine/CLI


class TestEngine:
    def test_module_name_for(self):
        assert (
            module_name_for(Path("src/repro/dag/codec.py")) == "repro.dag.codec"
        )
        assert module_name_for(Path("src/repro/obs/__init__.py")) == "repro.obs"
        assert module_name_for(Path("/tmp/scratch/bad.py")) == "bad"

    def test_findings_sort_deterministically(self):
        report = lint("import pickle\nimport threading\nimport time\n")
        assert report.findings == sorted(report.findings)

    def test_parse_error_is_a_finding(self):
        report = lint("def broken(:\n")
        assert rules_of(report) == ["parse-error"]


def _run_cli(*argv: str, cwd: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return subprocess.run(
        [sys.executable, "-m", "repro.lint", *argv],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


class TestCli:
    def test_shipped_tree_lints_clean(self):
        # The tier-1 meta-test: the committed tree has zero findings
        # against the committed (empty) baseline.
        result = _run_cli("src/repro", cwd=REPO_ROOT)
        assert result.returncode == 0, result.stdout + result.stderr
        assert "0 findings" in result.stdout

    def test_shipped_baseline_is_empty(self):
        document = json.loads((REPO_ROOT / "lint-baseline.json").read_text())
        assert document == {"version": 1, "findings": []}

    def test_violation_fails_with_github_annotation(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("import time\nnow = time.time()\n", encoding="utf-8")
        result = _run_cli(
            str(bad), "--format", "github", "--no-baseline", cwd=tmp_path
        )
        assert result.returncode == 1
        assert "::error file=" in result.stdout
        assert "no-wall-clock" in result.stdout
        assert f"line=2" in result.stdout  # the time.time() read itself

    def test_select_runs_only_named_rules(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("import pickle\nimport threading\n", encoding="utf-8")
        result = _run_cli(
            str(bad),
            "--select",
            "no-pickle",
            "--no-baseline",
            cwd=tmp_path,
        )
        assert result.returncode == 1
        assert "no-pickle" in result.stdout
        assert "no-thread-no-asyncio" not in result.stdout

    def test_list_rules_names_every_rule(self):
        from repro.lint import RULES

        result = _run_cli("--list-rules", cwd=REPO_ROOT)
        listed = [line.split()[0] for line in result.stdout.splitlines()]
        assert listed == [rule.name for rule in RULES]


# -------------------------------------------------------------- handler-purity


class TestHandlerPurity:
    LAUNDERED = """
    import time

    from repro.protocols.base import ProcessInstance


    def _helper():
        return _deep()


    def _deep():
        return time.time()


    class Fake(ProcessInstance):
        def on_request(self, request):
            self.deadline = _helper()

        def on_message(self, message):
            pass
    """

    def test_fires_with_full_call_chain(self):
        report = lint(self.LAUNDERED, module="repro.protocols.fake")
        purity = [f for f in report.findings if f.rule == "handler-purity"]
        assert len(purity) == 1
        message = purity[0].message
        assert "wall-clock" in message
        assert "on_request → _helper → _deep" in message
        assert "time.time" in message

    @pytest.mark.parametrize(
        "call, effect",
        [
            ("time.clock_gettime(time.CLOCK_MONOTONIC)", "wall-clock"),
            ("time.clock_gettime_ns(time.CLOCK_MONOTONIC)", "wall-clock"),
            ("time.thread_time()", "wall-clock"),
            ("time.thread_time_ns()", "wall-clock"),
            ("socket.create_connection(('localhost', 1))", "blocks"),
        ],
    )
    def test_every_tabled_stdlib_effect_is_impure(self, call, effect):
        # The effect table is the one model of the stdlib: a call that
        # no-wall-clock / async-hazard-blocking-call would flag must be
        # just as impure in a handler.
        report = lint(
            f"""
            import socket
            import time

            from repro.protocols.base import ProcessInstance

            class Fake(ProcessInstance):
                def on_request(self, request):
                    self.deadline = {call}

                def on_message(self, message):
                    pass
            """,
            module="repro.protocols.fake",
        )
        messages = [
            f.message for f in report.findings if f.rule == "handler-purity"
        ]
        assert any(f"{effect} via" in m and call.split("(")[0] in m for m in messages)

    def test_silent_on_pure_handlers(self):
        report = lint(
            """
            from repro.protocols.base import ProcessInstance

            class Fake(ProcessInstance):
                def on_request(self, request):
                    self.total += 1

                def on_message(self, message):
                    slot = self._writable_entry("votes", message.sender, set)
                    slot.add(message.payload)
            """,
            module="repro.protocols.fake",
        )
        assert "handler-purity" not in rules_of(report)

    def test_fires_on_stored_callable_with_complete_mro(self):
        # A locally-defined base makes the hierarchy fully indexed, so
        # an unresolvable self.<attr>() is a dynamic call, not a
        # maybe-inherited method.
        report = lint(
            """
            class ProcessInstance:
                pass


            class Fake(ProcessInstance):
                def on_request(self, request):
                    self.hook(request)

                def on_message(self, message):
                    pass
            """,
            module="repro.protocols.fake",
        )
        purity = [f for f in report.findings if f.rule == "handler-purity"]
        assert len(purity) == 1
        assert "cannot resolve" in purity[0].message
        assert "self.hook" in purity[0].message

    def test_cross_module_laundering_two_files(self, tmp_path):
        # The acceptance-criterion shape: the helper lives in another
        # module, so only the whole-program phase can see the effect.
        root = tmp_path / "src" / "repro"
        (root / "protocols").mkdir(parents=True)
        (root / "util.py").write_text(
            dedent(
                """
                import time


                def jitter():
                    return _clock() * 0.5


                def _clock():
                    return time.time()
                """
            ),
            encoding="utf-8",
        )
        (root / "protocols" / "fake.py").write_text(
            dedent(
                """
                from repro.protocols.base import ProcessInstance
                from repro.util import jitter


                class Fake(ProcessInstance):
                    def on_request(self, request):
                        self.deadline = jitter()

                    def on_message(self, message):
                        pass
                """
            ),
            encoding="utf-8",
        )
        report = LintEngine().run([root])
        purity = [f for f in report.findings if f.rule == "handler-purity"]
        assert len(purity) == 1
        message = purity[0].message
        assert "on_request → jitter → _clock" in message
        assert "time.time" in message
        assert "util.py" in message

    def test_global_mutation_is_impure(self):
        report = lint(
            """
            from repro.protocols.base import ProcessInstance

            _SEEN = {}


            def _remember(key):
                _SEEN[key] = True


            class Fake(ProcessInstance):
                def on_request(self, request):
                    _remember(request)

                def on_message(self, message):
                    pass
            """,
            module="repro.protocols.fake",
        )
        messages = [
            f.message for f in report.findings if f.rule == "handler-purity"
        ]
        assert any("writes-global" in m for m in messages)
        assert any("_SEEN" in m for m in messages)


# ----------------------------------------------------------- effect-annotation


class TestEffectAnnotation:
    def test_declaration_hiding_real_effect_fires(self):
        report = lint(
            """
            _CACHE = {}


            # lint: effect() — claims purity it does not have
            def remember(key):
                _CACHE[key] = 1
            """
        )
        notes = [
            f.message for f in report.findings if f.rule == "effect-annotation"
        ]
        assert any("hides real effect" in m for m in notes)
        assert any("writes-global" in m for m in notes)

    def test_declaration_without_reason_fires(self):
        report = lint(
            """
            # lint: effect()
            def apply(callback):
                return callback()
            """
        )
        assert "effect-annotation" in rules_of(report)

    def test_unknown_effect_name_fires(self):
        report = lint(
            """
            # lint: effect(chaos) — no such lattice point
            def apply(callback):
                return callback()
            """
        )
        notes = [
            f.message for f in report.findings if f.rule == "effect-annotation"
        ]
        assert any("unknown effect name" in m for m in notes)

    def test_stale_declaration_fires(self):
        report = lint(
            """
            # lint: effect(io) — nothing here does io
            def pure():
                return 1
            """
        )
        notes = [
            f.message for f in report.findings if f.rule == "effect-annotation"
        ]
        assert any("stale declaration" in m for m in notes)

    def test_sound_dynamic_discharge_is_silent(self):
        report = lint(
            """
            # lint: effect() — callback is pure by caller contract
            def apply(callback):
                return callback()
            """
        )
        assert rules_of(report) == []

    def test_declared_effects_propagate_to_callers(self):
        # The declaration is what callers see: io flows up the chain.
        report = lint(
            """
            from repro.protocols.base import ProcessInstance


            # lint: effect(io) — boundary fixture
            def boundary(callback):
                return callback()


            class Fake(ProcessInstance):
                def on_request(self, request):
                    boundary(request)

                def on_message(self, message):
                    pass
            """,
            module="repro.protocols.fake",
        )
        messages = [
            f.message for f in report.findings if f.rule == "handler-purity"
        ]
        assert any("declared effect(io)" in m for m in messages)


# ------------------------------------------------------------- async-hazard-*


def lint_live(source: str):
    """Fixture helper: lint inside the live seam so asyncio is allowed."""
    return lint(
        source,
        module="repro.net.live.fake",
        path="src/repro/net/live/fake.py",
    )


class TestAsyncStaleWrite:
    def test_fires_on_write_across_await(self):
        report = lint_live(
            """
            class Pump:
                async def refresh(self, peer):
                    existing = self.peers.get(peer)
                    await self.connect(peer)
                    self.peers[peer] = existing
            """
        )
        stale = [
            f
            for f in report.findings
            if f.rule == "async-hazard-stale-write"
        ]
        assert len(stale) == 1
        assert "self.peers" in stale[0].message

    def test_silent_on_revalidation_read(self):
        report = lint_live(
            """
            class Pump:
                async def refresh(self, peer):
                    existing = self.peers.get(peer)
                    await self.connect(peer)
                    if self.peers.get(peer) is existing:
                        self.peers[peer] = 1
            """
        )
        assert rules_of(report) == []

    def test_silent_on_first_write_after_await(self):
        report = lint_live(
            """
            class Server:
                async def start(self, path):
                    self._server = await self.bind(path)
            """
        )
        assert rules_of(report) == []

    def test_silent_on_augassign(self):
        report = lint_live(
            """
            class Counter:
                async def bump(self):
                    if self.count:
                        pass
                    await self.flush()
                    self.count += 1
            """
        )
        assert rules_of(report) == []

    def test_raise_branch_does_not_poison_merge(self):
        report = lint_live(
            """
            class Registry:
                async def adopt(self, key, value):
                    existing = self.entries.get(key)
                    handle = await self.spawn(value)
                    if self.entries.get(key) is not existing:
                        raise RuntimeError(key)
                    self.entries[key] = handle
            """
        )
        assert rules_of(report) == []


class TestAsyncBlockingCall:
    def test_fires_on_time_sleep(self):
        report = lint_live(
            """
            import time

            async def backoff():
                time.sleep(1.0)
            """
        )
        blocking = [
            f
            for f in report.findings
            if f.rule == "async-hazard-blocking-call"
        ]
        assert len(blocking) == 1
        assert "time.sleep" in blocking[0].message

    def test_fires_on_subprocess_run(self):
        report = lint_live(
            """
            import subprocess

            async def launch():
                subprocess.run(["true"])
            """
        )
        assert "async-hazard-blocking-call" in rules_of(report)

    def test_silent_on_asyncio_sleep(self):
        report = lint_live(
            """
            import asyncio

            async def backoff():
                await asyncio.sleep(1.0)
            """
        )
        assert rules_of(report) == []

    def test_silent_in_sync_function(self):
        # Blocking in synchronous code is not this rule's concern.
        report = lint_live(
            """
            import time

            def backoff():
                time.sleep(1.0)
            """
        )
        assert "async-hazard-blocking-call" not in rules_of(report)


class TestAsyncTaskLeak:
    def test_fires_on_dropped_create_task(self):
        report = lint_live(
            """
            import asyncio

            async def kick(coro):
                asyncio.create_task(coro)
            """
        )
        leaks = [
            f for f in report.findings if f.rule == "async-hazard-task-leak"
        ]
        assert len(leaks) == 1

    def test_fires_on_dropped_loop_create_task(self):
        report = lint_live(
            """
            async def kick(loop, coro):
                loop.create_task(coro)
            """
        )
        assert "async-hazard-task-leak" in rules_of(report)

    def test_silent_when_retained(self):
        report = lint_live(
            """
            import asyncio

            async def kick(self, coro):
                task = asyncio.create_task(coro)
                self._tasks.append(task)
                self._tasks.append(asyncio.create_task(coro))
            """
        )
        assert rules_of(report) == []

    def test_silent_with_done_callback(self):
        report = lint_live(
            """
            import asyncio

            async def kick(coro, on_done):
                asyncio.create_task(coro).add_done_callback(on_done)
            """
        )
        assert rules_of(report) == []


# ------------------------------------------- every registered rule is fixtured


_LIVE = dict(module="repro.net.live.fake", path="src/repro/net/live/fake.py")
_PROTO = dict(module="repro.protocols.fake", path="src/repro/protocols/fake.py")

#: rule name -> (violating fixture, clean fixture); each fixture is the
#: kwargs for :func:`lint` plus its source.  The meta-test below walks
#: the *registry*, so adding a rule without a pair here fails CI by
#: construction.
FIXTURES: dict[str, tuple[dict, dict]] = {
    "no-wall-clock": (
        dict(source="import time\nnow = time.time()\n"),
        dict(source="from repro.obs.metrics import perf_counter\n"),
    ),
    "seeded-randomness-only": (
        dict(source="import random\nx = random.random()\n"),
        dict(source="import random\nrng = random.Random(7)\n"),
    ),
    "no-pickle": (
        dict(source="import pickle\n"),
        dict(source="from repro.dag.codec import encode\n"),
    ),
    "deterministic-iteration": (
        dict(
            source="rows = [v for v in {3, 1, 2}]\n",
            module="repro.obs.export",
            path="src/repro/obs/export.py",
        ),
        dict(
            source="rows = [v for v in sorted({3, 1, 2})]\n",
            module="repro.obs.export",
            path="src/repro/obs/export.py",
        ),
    ),
    "import-layering": (
        dict(
            source="import repro.storage.wal\n",
            **_PROTO,
        ),
        dict(
            source="from repro.dag.codec import encoding_key\n",
            **_PROTO,
        ),
    ),
    "no-thread-no-asyncio": (
        dict(source="import asyncio\n"),
        dict(source="import asyncio\n", **_LIVE),
    ),
    "handler-purity": (
        dict(source=dedent(TestHandlerPurity.LAUNDERED), **_PROTO),
        dict(
            source=(
                "from repro.protocols.base import ProcessInstance\n"
                "class Fake(ProcessInstance):\n"
                "    def on_request(self, request):\n"
                "        self.total += 1\n"
            ),
            **_PROTO,
        ),
    ),
    "effect-annotation": (
        dict(
            source=(
                "_CACHE = {}\n"
                "# lint: effect() — hides a write\n"
                "def remember(key):\n"
                "    _CACHE[key] = 1\n"
            ),
        ),
        dict(
            source=(
                "# lint: effect() — callback pure by contract\n"
                "def apply(callback):\n"
                "    return callback()\n"
            ),
        ),
    ),
    "async-hazard-stale-write": (
        dict(
            source=(
                "class Pump:\n"
                "    async def refresh(self, peer):\n"
                "        existing = self.peers.get(peer)\n"
                "        await self.connect(peer)\n"
                "        self.peers[peer] = existing\n"
            ),
            **_LIVE,
        ),
        dict(
            source=(
                "class Pump:\n"
                "    async def refresh(self, peer):\n"
                "        await self.connect(peer)\n"
                "        self.peers[peer] = 1\n"
            ),
            **_LIVE,
        ),
    ),
    "async-hazard-blocking-call": (
        dict(
            source=(
                "import time\n"
                "async def backoff():\n"
                "    time.sleep(1.0)\n"
            ),
            **_LIVE,
        ),
        dict(
            source=(
                "import asyncio\n"
                "async def backoff():\n"
                "    await asyncio.sleep(1.0)\n"
            ),
            **_LIVE,
        ),
    ),
    "async-hazard-task-leak": (
        dict(
            source=(
                "import asyncio\n"
                "async def kick(coro):\n"
                "    asyncio.create_task(coro)\n"
            ),
            **_LIVE,
        ),
        dict(
            source=(
                "import asyncio\n"
                "async def kick(self, coro):\n"
                "    self._tasks.append(asyncio.create_task(coro))\n"
            ),
            **_LIVE,
        ),
    ),
}


class TestEveryRuleHasFixtures:
    def test_registry_is_fully_fixtured(self):
        from repro.lint import rule_names

        missing = [name for name in rule_names() if name not in FIXTURES]
        assert missing == [], f"rules without fixture pairs: {missing}"

    def test_violating_fixtures_fire(self):
        for name, (violating, _clean) in FIXTURES.items():
            source = violating["source"]
            kwargs = {k: v for k, v in violating.items() if k != "source"}
            report = lint(source, **kwargs)
            assert name in rules_of(report), f"{name} did not fire"

    def test_clean_fixtures_stay_silent(self):
        for name, (_violating, clean) in FIXTURES.items():
            source = clean["source"]
            kwargs = {k: v for k, v in clean.items() if k != "source"}
            report = lint(source, **kwargs)
            assert name not in rules_of(report), f"{name} fired on clean code"


# ------------------------------------------------------------- CLI satellites


class TestCliSatellites:
    def test_unknown_select_exits_nonzero_with_hint(self, tmp_path):
        # Regression: --select with a typo must not silently select
        # nothing and exit 0.
        good = tmp_path / "ok.py"
        good.write_text("x = 1\n", encoding="utf-8")
        result = _run_cli(
            str(good), "--select", "handler-purty", "--no-baseline", cwd=tmp_path
        )
        assert result.returncode == 2
        assert "unknown rule 'handler-purty'" in result.stderr
        assert "did you mean 'handler-purity'?" in result.stderr

    def test_relaxed_profile_allows_wall_clock_keeps_pickle(self, tmp_path):
        bench = tmp_path / "bench.py"
        bench.write_text(
            "import time\nimport pickle\nstart = time.time()\n",
            encoding="utf-8",
        )
        relaxed = _run_cli(
            str(bench),
            "--profile",
            "relaxed",
            "--no-baseline",
            cwd=tmp_path,
        )
        assert relaxed.returncode == 1
        assert "no-pickle" in relaxed.stdout
        assert "no-wall-clock" not in relaxed.stdout
        strict = _run_cli(str(bench), "--no-baseline", cwd=tmp_path)
        assert "no-wall-clock" in strict.stdout

    def test_select_overrides_profile(self, tmp_path):
        bench = tmp_path / "bench.py"
        bench.write_text("import time\nstart = time.time()\n", encoding="utf-8")
        result = _run_cli(
            str(bench),
            "--profile",
            "relaxed",
            "--select",
            "no-wall-clock",
            "--no-baseline",
            cwd=tmp_path,
        )
        assert result.returncode == 1
        assert "no-wall-clock" in result.stdout

    def test_relaxed_profile_passes_on_shipped_extras(self):
        # The CI arm: benchmarks, examples and tests hold the relaxed
        # contract (pickle/randomness/concurrency discipline).
        result = _run_cli(
            "--profile",
            "relaxed",
            "benchmarks",
            "examples",
            "tests",
            cwd=REPO_ROOT,
        )
        assert result.returncode == 0, result.stdout + result.stderr
