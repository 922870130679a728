import emis


def test_every_public_name_resolves():
    missing = [name for name in emis.__all__ if not hasattr(emis, name)]
    assert missing == []
    assert len(set(emis.__all__)) == len(emis.__all__)
