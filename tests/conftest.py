"""Shared fixtures: catalog data and the expensive expansion reports."""

from __future__ import annotations

import pytest

import heatgen as hg

CATALOG = ("S2", "S3", "S4", "S5", "S6", "S2xS2", "S2xS3", "flat2")


@pytest.fixture(scope="session")
def specs():
    return {name: hg.builtin(name) for name in CATALOG}


@pytest.fixture(scope="session")
def hols(specs):
    return {name: hg.derive_holonomy(spec) for name, spec in specs.items()}


@pytest.fixture(scope="session")
def prepared(specs):
    return {name: hg.prepare(spec) for name, spec in specs.items()}


@pytest.fixture(scope="session")
def s2_order6():
    return hg.heat_coefficients(hg.builtin("S2"), 6)


@pytest.fixture(scope="session")
def s3_order6():
    return hg.heat_coefficients(hg.builtin("S3"), 6)


@pytest.fixture(scope="session")
def s4_order4():
    return hg.heat_coefficients(hg.builtin("S4"), 4)
