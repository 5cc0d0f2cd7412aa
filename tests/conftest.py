"""Shared fixtures: catalog workspaces are built once per session because
several test modules exercise the same desk instances."""

from __future__ import annotations

import pytest

from padicforms.catalog import CATALOG, MINI_DESK, InstanceWorkspace


class DeskCache:
    def __init__(self):
        self._workspaces = {}
        self._instances = {inst.key: inst for inst in CATALOG + (MINI_DESK,)}

    def instance(self, key):
        return self._instances[key]

    def workspace(self, key) -> InstanceWorkspace:
        if key not in self._workspaces:
            self._workspaces[key] = InstanceWorkspace(self._instances[key])
        return self._workspaces[key]


@pytest.fixture(scope="session")
def desk() -> DeskCache:
    return DeskCache()
