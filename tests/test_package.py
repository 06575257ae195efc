"""The package's public export list."""
import textmath


def test_every_export_is_unique_and_resolves():
    names = textmath.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(textmath, name, None) is not None, name
