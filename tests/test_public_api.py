"""The package's public names."""

import skewdisc


def test_every_exported_name_resolves():
    missing = [name for name in skewdisc.__all__ if not hasattr(skewdisc, name)]
    assert missing == []
    assert len(set(skewdisc.__all__)) == len(skewdisc.__all__)


def test_star_import():
    namespace = {}
    exec("from skewdisc import *", namespace)
    assert set(skewdisc.__all__) <= set(namespace)
