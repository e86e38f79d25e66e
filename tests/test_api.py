import adelic_gaps


def test_all_names_resolve_once():
    names = adelic_gaps.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(adelic_gaps, name), name
