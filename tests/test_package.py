"""The package's public namespace."""

import gradedpi


def test_every_exported_name_resolves():
    assert len(set(gradedpi.__all__)) == len(gradedpi.__all__)
    missing = [n for n in gradedpi.__all__ if not hasattr(gradedpi, n)]
    assert missing == []
