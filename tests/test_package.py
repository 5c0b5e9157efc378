"""The package's public surface."""

import tnindex


def test_star_import_matches_all():
    """Every name in __all__ exists, so `from tnindex import *` works and
    no deleted name is left listed."""
    namespace = {}
    exec("from tnindex import *", namespace)
    missing = [name for name in tnindex.__all__ if name not in namespace]
    assert missing == []
    assert len(set(tnindex.__all__)) == len(tnindex.__all__)
