"""Deterministic BDI multi-agent runtime for a university IMS, with an
event-sourced store and a runtime-verification monitor."""
