"""Fixtures for every test module."""

from __future__ import annotations

import pytest

from checkers import check_lift
from laxfib import anodyne


@pytest.fixture(autouse=True, scope="session")
def check_every_lift():
    """Every lift that the certification finds under these tests, session fixtures
    included, must fill its square by :func:`checkers.check_lift`."""
    search = anodyne._lift

    def checked(lp, partial):
        lift = search(lp, partial)
        if lift is not None:
            check_lift(lp, lift)
        return lift

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(anodyne, "_lift", checked)
        yield
