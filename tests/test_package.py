import varsparse


def test_every_exported_name_resolves():
    # a stale entry would break only `from varsparse import *`
    assert [name for name in varsparse.__all__ if not hasattr(varsparse, name)] == []
