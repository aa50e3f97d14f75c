"""Deterministic discrete-event simulation kernel."""

from .event_queue import Event, EventQueue, ScheduleStrategy
from .simulator import Simulator

__all__ = ["Event", "EventQueue", "ScheduleStrategy", "Simulator"]
