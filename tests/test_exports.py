import fermigauss


def test_every_export_resolves():
    # a name left in the lazy table after its definition is deleted would
    # otherwise fail only at first use
    assert set(fermigauss.__all__) == set(fermigauss._EXPORTS) | {"__version__"}
    for name in fermigauss.__all__:
        assert getattr(fermigauss, name) is not None
