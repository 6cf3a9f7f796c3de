"""Deterministic BDI multi-agent runtime for a university IMS, with an
event-sourced store and a runtime-verification monitor."""

from .bdi import (
    AgentState,
    Belief,
    BeliefBase,
    Goal,
    Intention,
    Plan,
    step,
)
from .config import RunConfig
from .monitor import Monitor, PropertyId, Verdict
from .runtime import World, register_agent, route, run_round
from .scenario import load_test, parse_scenario, replay_crash, run_scenario
from .store import Store, replay
from .terms import Command, Envelope, Performative, Term

__version__ = "0.1.0"

__all__ = [
    "AgentState",
    "Belief",
    "BeliefBase",
    "Command",
    "Envelope",
    "Goal",
    "Intention",
    "Monitor",
    "Performative",
    "Plan",
    "PropertyId",
    "RunConfig",
    "Store",
    "Term",
    "Verdict",
    "World",
    "load_test",
    "parse_scenario",
    "register_agent",
    "replay",
    "replay_crash",
    "route",
    "run_round",
    "run_scenario",
    "step",
]
