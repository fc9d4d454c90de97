import edgeloc


def test_every_exported_name_resolves_once():
    names = edgeloc.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(edgeloc, name)]
    assert missing == []
