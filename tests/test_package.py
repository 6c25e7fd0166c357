"""The package's public names: __all__ lists each once, and each resolves.

A name dropped from __init__'s imports but left in __all__ would
otherwise break only `from circwords import *`.
"""

import circwords


def test_star_import_binds_every_public_name():
    ns = {}
    exec("from circwords import *", ns)
    names = circwords.__all__
    assert len(names) == len(set(names))
    assert all(ns[name] is getattr(circwords, name) for name in names)
