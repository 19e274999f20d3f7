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


@pytest.fixture(scope="session")
def iso_checked():
    """The free fibration on 2[walking-iso], built with every extend_map checked; one build
    for every module that reads it."""
    from test_freefib import _build_with_every_extension_checked
    from laxfib.fincat import walking_iso
    from laxfib.twocat import identity_two_functor, two_bracket
    return _build_with_every_extension_checked(
        identity_two_functor(two_bracket(walking_iso())), modes=("dagger",))[0]
