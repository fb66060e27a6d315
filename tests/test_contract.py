"""Every check of ``tests/contract.py`` on every named problem."""

import pytest

from tests.contract import CHECKS, NAMED, named_problem


@pytest.mark.parametrize("check, name", [(check, name) for check in CHECKS for name in NAMED],
                         ids=[f"{check}-{name}" for check in CHECKS for name in NAMED])
def test_contract(check, name):
    CHECKS[check](named_problem(name))
