"""Determinism rules: clocks, randomness, pickle, concurrency.

Interpretation must be a pure function of the DAG (§2, §4): a replica
that reads a clock, flips a coin or depends on thread scheduling can
disagree with its peers byte-for-byte while both are "correct".  These
four rules ban the ambient-nondeterminism entry points outright; the
handful of sanctioned exceptions are named modules, not annotations,
so the allowlist itself is reviewed code.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro.lint._ast_util import attribute_calls, module_aliases
from repro.lint.engine import FileContext, Finding
from repro.lint.registry import Rule, register


def _imports(tree: ast.Module) -> Iterator[ast.Import | ast.ImportFrom]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node


@register
class NoWallClock(Rule):
    """Wall-clock reads are confined to :mod:`repro.obs.metrics`.

    Virtual time (the simulator's clock) is data and therefore
    deterministic; wall time is not, and PR 6's guarantee is that
    traces stay byte-identical whether or not timing is on.  The rule
    bans importing ``time``/``datetime`` at all: sanctioned wall-clock
    use imports ``perf_counter`` *from* ``repro.obs.metrics`` — the
    one greppable conduit (the telemetry registry, kept strictly
    outside trace identity) whose use the tracing-overhead CI guard
    audits.
    The scenario runner is the other allowed module — it reports the
    run's wall duration, which lives outside trace identity by
    construction.
    """

    name = "no-wall-clock"
    summary = "time/datetime confined to repro.obs.metrics + scenario runner"

    #: Modules allowed to touch the wall clock directly.
    ALLOWED_MODULES = frozenset({"repro.obs.metrics", "repro.scenario.runner"})
    #: Clock-reading (or clock-dependent) names in the ``time`` module.
    CLOCK_NAMES = frozenset(
        {
            "time",
            "time_ns",
            "perf_counter",
            "perf_counter_ns",
            "monotonic",
            "monotonic_ns",
            "process_time",
            "process_time_ns",
            "clock_gettime",
            "clock_gettime_ns",
            "sleep",
            "*",
        }
    )
    DATETIME_CALLS = frozenset({"now", "utcnow", "today", "fromtimestamp"})

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        if ctx.module in self.ALLOWED_MODULES:
            return
        for node in _imports(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    top = alias.name.split(".")[0]
                    if top in ("time", "datetime"):
                        yield self.finding(
                            ctx,
                            node,
                            f"imports the wall clock ({alias.name!r}); "
                            "route timing through repro.obs.metrics",
                        )
            elif node.module in ("time", "datetime") and node.level == 0:
                names = {alias.name for alias in node.names}
                banned = (
                    names & self.CLOCK_NAMES if node.module == "time" else names
                )
                if banned:
                    yield self.finding(
                        ctx,
                        node,
                        f"imports {', '.join(sorted(banned))!s} from "
                        f"{node.module!r}; route timing through repro.obs.metrics",
                    )
        aliases = module_aliases(ctx.tree, frozenset({"time", "datetime"}))
        for node, base, attr in attribute_calls(ctx.tree):
            target = aliases.get(base)
            if target == "time" and attr in self.CLOCK_NAMES:
                yield self.finding(
                    ctx, node, f"reads the wall clock (time.{attr}())"
                )
            elif target == "datetime" and attr in self.DATETIME_CALLS:
                yield self.finding(
                    ctx, node, f"reads the wall clock (datetime.{attr}())"
                )


@register
class SeededRandomnessOnly(Rule):
    """All randomness flows from an explicitly seeded ``random.Random``.

    The simulator derives every latency sample, loss coin and workload
    choice from seeded ``random.Random`` instances threaded through as
    arguments — that is what makes "same seed ⇒ byte-identical result"
    a CI assertion.  Module-level ``random.*`` (hidden global state),
    unseeded ``Random()``, ``os.urandom``, ``secrets`` and
    ``uuid.uuid1/uuid4`` all smuggle ambient entropy in.
    """

    name = "seeded-randomness-only"
    summary = "random.Random(seed) only; no module-level random/urandom/secrets"

    _RANDOM_OK = frozenset({"Random"})

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        for node in _imports(ctx.tree):
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                names = {alias.name for alias in node.names}
                if node.module == "random":
                    banned = names - self._RANDOM_OK
                    if banned:
                        yield self.finding(
                            ctx,
                            node,
                            f"imports {', '.join(sorted(banned))} from 'random'; "
                            "only the seeded random.Random class is allowed",
                        )
                elif node.module == "os" and "urandom" in names:
                    yield self.finding(
                        ctx, node, "imports os.urandom (ambient entropy)"
                    )
                elif node.module == "secrets":
                    yield self.finding(
                        ctx, node, "imports from 'secrets' (ambient entropy)"
                    )
                elif node.module == "uuid" and names & {"uuid1", "uuid4"}:
                    yield self.finding(
                        ctx, node, "imports a nondeterministic uuid constructor"
                    )
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "secrets":
                        yield self.finding(
                            ctx, node, "imports 'secrets' (ambient entropy)"
                        )
        aliases = module_aliases(
            ctx.tree, frozenset({"random", "os", "uuid"})
        )
        for node, base, attr in attribute_calls(ctx.tree):
            target = aliases.get(base)
            if target == "random":
                if attr == "Random":
                    if not node.args and not node.keywords:
                        yield self.finding(
                            ctx,
                            node,
                            "unseeded random.Random(); pass an explicit seed",
                        )
                else:
                    yield self.finding(
                        ctx,
                        node,
                        f"module-level random.{attr}() uses hidden global "
                        "state; use a seeded random.Random instance",
                    )
            elif target == "os" and attr == "urandom":
                yield self.finding(ctx, node, "os.urandom() is ambient entropy")
            elif target == "uuid" and attr in ("uuid1", "uuid4"):
                yield self.finding(
                    ctx, node, f"uuid.{attr}() is nondeterministic"
                )


@register
class NoPickle(Rule):
    """Persistence is canonical-codec only — pickle never appears.

    PR 1's design guarantee: everything durable (WAL records,
    checkpoints) round-trips through :mod:`repro.dag.codec` /
    :mod:`repro.storage.state_codec`, whose bytes are canonical and
    diffable.  Pickle would silently capture object identity,
    dict/set internals and code versions — all nondeterministic across
    processes, which is exactly what cross-server fingerprint equality
    must exclude.
    """

    name = "no-pickle"
    summary = "no pickle/dill/shelve/marshal anywhere (canonical codec only)"

    BANNED = frozenset(
        {"pickle", "cPickle", "_pickle", "dill", "cloudpickle", "shelve", "marshal"}
    )

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        for node in _imports(ctx.tree):
            if isinstance(node, ast.Import):
                names = {alias.name.split(".")[0] for alias in node.names}
            elif node.level == 0 and node.module is not None:
                names = {node.module.split(".")[0]}
            else:
                names = set()
            banned = names & self.BANNED
            if banned:
                yield self.finding(
                    ctx,
                    node,
                    f"imports {', '.join(sorted(banned))}; persistence goes "
                    "through the canonical codec (repro.dag.codec), never pickle",
                )


@register
class NoThreadNoAsyncio(Rule):
    """No threads, executors or event loops in the deterministic core.

    Scheduling order is invisible nondeterminism: two replicas running
    the same DAG on different thread interleavings can emit differently
    ordered effects.  Concurrency enters only behind the explicit
    transport seam: the live wire layer (``repro.net.live``) and the
    live node/cluster runtime (``repro.runtime.live``) own the event
    loop, and *nothing else* — the protocol/gossip/interpreter core
    they drive stays the same single-threaded code the simulator runs,
    which is what makes ``trace diff --mode chains`` between the two
    arms meaningful.  Growing ``ALLOWED_MODULES`` is a reviewed diff;
    there are deliberately no per-line suppressions for this rule.
    """

    name = "no-thread-no-asyncio"
    summary = "event loops only in repro.net.live / repro.runtime.live"

    BANNED = frozenset(
        {"threading", "_thread", "asyncio", "concurrent", "multiprocessing", "queue"}
    )
    #: The transport seam: these prefixes (and their submodules) may
    #: import asyncio.  Everything else stays single-threaded.
    ALLOWED_MODULES: frozenset[str] = frozenset(
        {
            "repro.net.live",
            "repro.runtime.live",
            # The live-transport integration test drives the seam's
            # event loop directly (bare-stem module: it lives under
            # tests/, outside the repro package tree).
            "test_live_transport",
        }
    )

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        if any(
            ctx.module == allowed or ctx.module.startswith(allowed + ".")
            for allowed in self.ALLOWED_MODULES
        ):
            return
        for node in _imports(ctx.tree):
            if isinstance(node, ast.Import):
                names = {alias.name.split(".")[0] for alias in node.names}
            elif node.level == 0 and node.module is not None:
                names = {node.module.split(".")[0]}
            else:
                names = set()
            banned = names & self.BANNED
            if banned:
                yield self.finding(
                    ctx,
                    node,
                    f"imports {', '.join(sorted(banned))}; the deterministic "
                    "core is single-threaded — event loops live only in "
                    "repro.net.live / repro.runtime.live",
                )
