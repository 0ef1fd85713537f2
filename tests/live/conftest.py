"""Package-wide guards for every stream in tests/live.

Every maintainer enumerates its star once, at construction, and every
generation a compaction merges equals a fresh build of its clique set.
"""

import pytest

from tests.helpers import maintainers_built_once, merges_match_fresh_builds


@pytest.fixture(autouse=True, scope="package")
def _maintainers_built_once():
    with maintainers_built_once():
        yield


@pytest.fixture(autouse=True, scope="package")
def _merges_match_fresh_builds():
    with merges_match_fresh_builds():
        yield
