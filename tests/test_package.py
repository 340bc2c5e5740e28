import cylbuck


def test_public_names_resolve_once():
    assert len(set(cylbuck.__all__)) == len(cylbuck.__all__)
    for name in cylbuck.__all__:
        assert getattr(cylbuck, name) is not None, name
