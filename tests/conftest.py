import json
import os

import pytest

from alexkit.alexander import fox_matrix, load_matrix
from alexkit.cyclofield import parse_character
from alexkit.presentation import parse_presentation

DATA = os.path.join(os.path.dirname(__file__), "data")


def data_path(name):
    return os.path.join(DATA, name)


def load_presentation(name):
    with open(data_path(name), "r", encoding="utf-8") as fh:
        return parse_presentation(fh.read())


def load_matrix_fixture(name):
    with open(data_path(name), "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return load_matrix(data["vars"], data["rows"])


def character(*values):
    """The Character with these values, each written as `parse_character`
    reads it: 1, -1, "zeta3", "zeta8^3" or "2*zeta4"."""
    names = [f"v{i}" for i in range(len(values))]
    return parse_character(
        ",".join(f"{n}={v}" for n, v in zip(names, values)), names)


@pytest.fixture
def pencil3():
    return fox_matrix(load_presentation("pencil3.grp"))


@pytest.fixture
def torusbundle():
    return fox_matrix(load_presentation("torusbundle.grp"))
