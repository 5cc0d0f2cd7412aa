"""Shared fixtures: catalog families are built once per session because
several test modules exercise the same desk instances. A family's table
keeps every weighted integral sum taken on it, so a test that counts
integrals builds its own family."""

from __future__ import annotations

import pytest

from padicforms.catalog import CATALOG, MINI_DESK
from padicforms.forms import FormFamily


class DeskCache:
    def __init__(self):
        self._families = {}
        self._instances = {inst.key: inst for inst in CATALOG + (MINI_DESK,)}

    def instance(self, key):
        return self._instances[key]

    def family(self, key) -> FormFamily:
        if key not in self._families:
            self._families[key] = self._instances[key].family()
        return self._families[key]


@pytest.fixture(scope="session")
def desk() -> DeskCache:
    return DeskCache()
