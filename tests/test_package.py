import acmil


def test_every_exported_name_resolves_once():
    assert len(set(acmil.__all__)) == len(acmil.__all__)
    missing = [name for name in acmil.__all__ if not hasattr(acmil, name)]
    assert missing == []
