"""Fixture project for the interprocedural graph-lint rule.

Laid out like a miniature of the real tree (models/, serving/) so the
path-policy gates apply; tests run the engine over this package with a
:class:`LintConfig` whose ``exempt_paths`` is empty.

Violating lines carry a trailing ``# expect: RPLxxx`` marker; the tests
assert the finding set equals the marker set exactly, so every violation
must fire and every clean twin must stay silent.  The lexical findings
here (an unseeded generator, raw ``np.save``) feed the cache tests.
"""
