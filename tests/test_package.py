"""The package's public surface."""

import skillproof


def test_every_exported_name_resolves():
    missing = [name for name in skillproof.__all__ if not hasattr(skillproof, name)]
    assert missing == []
