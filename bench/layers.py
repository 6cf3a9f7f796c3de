"""Per-layer tracing: thin perf_counter wrappers around module functions.

``Tracer.install`` swaps each public entry point of a layer for a wrapper
that counts calls and accumulates inclusive and self time (inclusive
minus the wrapped calls made inside it); ``uninstall`` puts the originals
back.  The program's own files are untouched.  Every figure is bucketed
by the phase the benchmark sets (``live``, ``verify``, ...), so the
offline re-verification does not mix into the live run's numbers.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable

from unimas import agents, bdi, monitor, runtime, scenario, store, terms, trace


class Tracer:
    def __init__(self) -> None:
        self.phase = "live"
        # (phase, span) -> [calls, inclusive seconds, self seconds]
        self.spans: dict[tuple[str, str], list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: dict[tuple[str, str], float] = defaultdict(float)
        self._children = [0.0]
        self._patched: list[tuple[Any, str, Any]] = []

    def wrap(
        self,
        span: str | Callable[[tuple], str],
        fn: Callable,
        after: Callable[[str, tuple, Any], None] | None = None,
    ) -> Callable:
        children = self._children
        spans = self.spans

        def traced(*args: Any, **kwargs: Any) -> Any:
            name = span if isinstance(span, str) else span(args)
            children.append(0.0)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                inner = children.pop()
                children[-1] += elapsed
                entry = spans[(self.phase, name)]
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - inner
            if after is not None:
                after(name, args, out)
            return out

        return traced

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[(self.phase, name)] += amount

    def _patch(self, owner: Any, attr: str, span: str | Callable, after: Callable | None = None) -> None:
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(span, original, after))

    def _patch_everywhere(self, fn: Callable, span: str, after: Callable | None = None) -> None:
        """Wrap ``fn`` in every loaded ``unimas`` module that holds it by name,
        so that a module importing it later is not missed."""
        for name, module in sorted(sys.modules.items()):
            if name == "unimas" or name.startswith("unimas."):
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._patch(module, attr, span, after)

    def install(self) -> None:
        def after_step(_name: str, args: tuple, _out: Any) -> None:
            state = args[0]
            if state.id == agents.ORCHESTRATOR:
                self.count("oa_steps")
                self.count("oa_backlog", len(state.goals) + len(state.intentions))

        def after_route(_name: str, args: tuple, _out: Any) -> None:
            self.count("envelopes", len(args[1]))

        def after_execute(name: str, _args: tuple, out: Any) -> None:
            if name == "store.query":
                self.count("query_bytes", len(str(out.result.args[0])))
            else:
                self.count("accepted", int(out.accepted))

        def after_blob(_name: str, _args: tuple, out: str) -> None:
            self.count("blob_bytes", len(out))

        self._patch(bdi, "step", "bdi.step", after_step)
        self._patch(runtime, "route", "runtime.route", after_route)
        self._patch(scenario, "run_round", "runtime.run_round")
        self._patch(runtime.World, "is_quiescent", "runtime.is_quiescent")
        self._patch(
            store.Store,
            "execute",
            lambda args: "store.query" if args[1].name == "query" else "store.execute",
            after_execute,
        )
        self._patch(agents, "build_report", "agents.build_report")
        self._patch_everywhere(terms.check_scalar, "terms.check_scalar")
        self._patch_everywhere(terms.encode_blob, "terms.encode_blob", after_blob)
        self._patch(monitor.Monitor, "observe", "monitor.observe")
        self._patch(monitor.Monitor, "check_snapshot", "monitor.check_snapshot")
        self._patch(trace.TraceLog, "append", "trace.append")
        self._patch(scenario.ScenarioRunner, "run", "scenario.run")

    def trace_runner(self, runner: scenario.ScenarioRunner) -> None:
        """Wrap the store handler closure the runner's world was built with."""
        world = runner.world
        world.command_handler = self.wrap("agents.store_handler", world.command_handler)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- read-out -------------------------------------------------------------

    def calls(self, span: str, phase: str = "live") -> float:
        return self.spans[(phase, span)][0]

    def per_call_us(self, span: str, phase: str = "live", self_time: bool = False) -> float:
        calls, inclusive, own = self.spans[(phase, span)]
        return (own if self_time else inclusive) / calls * 1e6 if calls else 0.0

    def total(self, span: str, phase: str = "live", self_time: bool = False) -> float:
        return self.spans[(phase, span)][2 if self_time else 1]

    def counted(self, name: str, phase: str = "live") -> float:
        return self.counts[(phase, name)]
