"""Determinism rules: clocks, randomness, pickle, concurrency.

Interpretation must be a pure function of the DAG (§2, §4): a replica
that reads a clock, flips a coin or depends on thread scheduling can
disagree with its peers byte-for-byte while both are "correct".  These
four rules ban the ambient-nondeterminism entry points outright.  Each
is an :class:`ImportBan`: one import walk, one reviewed
``ALLOWED_MODULES`` list — the only exceptions there are — and, for
the clock and randomness rules, every call the effect table
(:mod:`repro.lint.effects`) charges with ``wall-clock`` or
``randomness``.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro.lint.callgraph import _harvest_imports, external_calls
from repro.lint.effects import external_effects
from repro.lint.engine import FileContext, Finding, Rule


class ImportBan(Rule):
    """A rule that bans importing some modules or names outside
    :attr:`ALLOWED_MODULES` (each an exact module or package prefix)."""

    ALLOWED_MODULES: frozenset[str] = frozenset()
    #: Top-level modules whose import (of anything) is banned.
    BANNED: frozenset[str] = frozenset()

    def banned(self, dotted: str) -> bool:
        """Whether importing ``dotted`` (``time``, ``time.sleep``) is
        banned."""
        return dotted.split(".")[0] in self.BANNED

    def import_message(self, names: list[str]) -> str:
        raise NotImplementedError

    def check_calls(
        self, ctx: FileContext, imports: dict[str, str]
    ) -> Iterator[Finding]:
        return iter(())

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        if any(
            ctx.module == allowed or ctx.module.startswith(allowed + ".")
            for allowed in self.ALLOWED_MODULES
        ):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            banned = sorted(name for name in names if self.banned(name))
            if banned:
                yield self.finding(ctx, node, self.import_message(banned))
        yield from self.check_calls(ctx, _harvest_imports(ctx.tree, ctx.module))


class NoWallClock(ImportBan):
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

    ALLOWED_MODULES = frozenset({"repro.obs.metrics", "repro.scenario.runner"})

    def banned(self, dotted: str) -> bool:
        return (
            dotted in ("time", "time.*", "datetime")
            or dotted.startswith("datetime.")
            or "wall-clock" in external_effects(dotted)
        )

    def import_message(self, names: list[str]) -> str:
        return (
            f"imports the wall clock ({', '.join(names)}); "
            "route timing through repro.obs.metrics"
        )

    def check_calls(
        self, ctx: FileContext, imports: dict[str, str]
    ) -> Iterator[Finding]:
        for node, dotted in external_calls(ast.walk(ctx.tree), imports):
            if "wall-clock" in external_effects(dotted):
                yield self.finding(ctx, node, f"reads the wall clock ({dotted}())")


class SeededRandomnessOnly(ImportBan):
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

    def banned(self, dotted: str) -> bool:
        return "randomness" in external_effects(dotted)

    def import_message(self, names: list[str]) -> str:
        return (
            f"imports {', '.join(names)} (ambient entropy); only the "
            "seeded random.Random class is allowed"
        )

    def check_calls(
        self, ctx: FileContext, imports: dict[str, str]
    ) -> Iterator[Finding]:
        for node, dotted in external_calls(ast.walk(ctx.tree), imports):
            if dotted == "random.Random" and not node.args and not node.keywords:
                yield self.finding(
                    ctx, node, "unseeded random.Random(); pass an explicit seed"
                )
            elif "randomness" in external_effects(dotted):
                yield self.finding(
                    ctx,
                    node,
                    f"{dotted}() draws ambient entropy or hidden global "
                    "state; use a seeded random.Random instance",
                )


class NoPickle(ImportBan):
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

    def import_message(self, names: list[str]) -> str:
        return (
            f"imports {', '.join(names)}; persistence goes through the "
            "canonical codec (repro.dag.codec), never pickle"
        )


class NoThreadNoAsyncio(ImportBan):
    """No threads, executors or event loops in the deterministic core.

    Scheduling order is invisible nondeterminism: two replicas running
    the same DAG on different thread interleavings can emit differently
    ordered effects.  Concurrency enters only behind the explicit
    transport seam: the live wire layer (``repro.net.live``) and the
    live node/cluster runtime (``repro.runtime.live``) own the event
    loop, and *nothing else* — the protocol/gossip/interpreter core
    they drive stays the same single-threaded code the simulator runs,
    which is what makes ``trace diff --mode chains`` between the two
    arms meaningful.  Growing ``ALLOWED_MODULES`` is a reviewed diff.
    """

    name = "no-thread-no-asyncio"
    summary = "event loops only in repro.net.live / repro.runtime.live"

    BANNED = frozenset(
        {"threading", "_thread", "asyncio", "concurrent", "multiprocessing", "queue"}
    )
    ALLOWED_MODULES = frozenset(
        {
            "repro.net.live",
            "repro.runtime.live",
            # The live-transport integration test drives the seam's
            # event loop directly (bare-stem module: it lives under
            # tests/, outside the repro package tree).
            "test_live_transport",
        }
    )

    def import_message(self, names: list[str]) -> str:
        return (
            f"imports {', '.join(names)}; the deterministic core is "
            "single-threaded — event loops live only in "
            "repro.net.live / repro.runtime.live"
        )
