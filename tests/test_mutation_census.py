"""The mutation census's targets, read off the source without running a mutant."""

from mutation_census import sites, TARGETS


def test_every_target_resolves_and_has_a_mutation_site():
    # sites raises LookupError for a name that does not resolve or has no site
    counts = {f"{module}.{function}": len(sites(module, function))
              for module, functions in TARGETS.items() for function in functions}
    assert all(counts.values()), counts
