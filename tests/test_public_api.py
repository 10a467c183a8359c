"""The package's public surface: ``koopmankit.__all__`` and the README's list of it."""

import importlib
import pathlib
import re

import koopmankit

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def readme_public_api():
    """{module: [names]} from the README's "Public API" section."""
    text = README.read_text()
    section = text.split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]
    groups = {}
    for item in re.split(r"\n- ", section)[1:]:
        module, *names = re.findall(r"`([^`]+)`", item.split("\n\n", 1)[0])
        groups[module] = names
    return groups


def test_every_exported_name_resolves_once():
    assert len(koopmankit.__all__) == len(set(koopmankit.__all__))
    for name in koopmankit.__all__:
        assert hasattr(koopmankit, name), name


def test_the_readme_lists_exactly_the_exported_names_under_their_modules():
    groups = readme_public_api()
    listed = [name for names in groups.values() for name in names]
    assert sorted(listed) == sorted(koopmankit.__all__)
    for module, names in groups.items():
        defining = importlib.import_module(module)
        for name in names:
            assert getattr(defining, name) is getattr(koopmankit, name), (module, name)
