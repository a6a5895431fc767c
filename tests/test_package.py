"""The package's public surface."""

import bigwht


def test_every_export_resolves():
    # A stale name here breaks "from bigwht import *" for every user.
    assert [name for name in bigwht.__all__ if not hasattr(bigwht, name)] == []
