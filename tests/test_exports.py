import hybridlag as hl


def test_every_exported_name_resolves():
    missing = [name for name in hl.__all__ if not hasattr(hl, name)]
    assert not missing
    assert len(set(hl.__all__)) == len(hl.__all__)
