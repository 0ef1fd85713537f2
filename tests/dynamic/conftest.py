"""Every maintainer in this package enumerates its star once, at construction."""

import pytest

from tests.helpers import maintainers_built_once


@pytest.fixture(autouse=True, scope="package")
def _maintainers_built_once():
    with maintainers_built_once():
        yield
