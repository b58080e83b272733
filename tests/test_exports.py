"""The package's public names."""

import spinbus


def test_every_exported_name_resolves():
    missing = [name for name in spinbus.__all__ if not hasattr(spinbus, name)]
    assert not missing, missing


def test_exports_have_no_duplicates():
    assert len(spinbus.__all__) == len(set(spinbus.__all__))
