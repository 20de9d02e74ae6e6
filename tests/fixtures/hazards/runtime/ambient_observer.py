# ruff: noqa
"""Seeded hazard: reaching for the process-default observers.

A hub or tap belongs to the `Cluster` it observes; the process default may
only fill a constructor argument's `None`. `set_hub` is flagged even there.
"""

import repro.telemetry.core as core
from repro.integrity import data_plane
from repro.telemetry.core import hub as telemetry_hub
from repro.telemetry.core import set_hub


class Emitter:
    def __init__(self, hub=None, plane=None):
        self.hub = telemetry_hub() if hub is None else hub  # allowed
        self.plane = plane if plane is not None else data_plane()  # allowed

    def emit(self, now):
        telemetry_hub().instant("x", now)  # HAZARD: emit-time read
        return data_plane().monitor  # HAZARD: emit-time read


def swap(fresh):
    previous = set_hub(fresh)  # HAZARD: process-wide install
    return previous, core.hub()  # HAZARD: module-attribute spelling


class Installer:
    def __init__(self, hub=None):
        self.previous = None if hub is None else set_hub(hub)  # HAZARD
