import chowfiber


def test_export_list_is_sorted_unique_and_resolves():
    names = chowfiber.__all__
    assert list(names) == sorted(set(names))
    for name in names:
        assert hasattr(chowfiber, name), name
